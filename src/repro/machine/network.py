"""Interconnect topologies: hop counts between ranks.

The T3D is a 3-D torus (Section 7.1.4); the algorithms treat the machine
as a linear array of PEs embedded in it.  Hop count feeds the per-message
latency term of the network cost model.
"""

from __future__ import annotations

from repro.errors import ShapeError

__all__ = ["Topology", "LineTopology", "Torus3D"]


class Topology:
    """Base class: distance metric over ranks ``0 … n−1``."""

    def __init__(self, nproc: int):
        if nproc <= 0:
            raise ShapeError(f"nproc must be positive, got {nproc}")
        self.nproc = nproc

    def hops(self, src: int, dst: int) -> int:
        """Link hops between two ranks."""
        raise NotImplementedError

    def _check(self, r: int) -> None:
        if not (0 <= r < self.nproc):
            raise ShapeError(f"rank {r} out of range for NP={self.nproc}")


class LineTopology(Topology):
    """Simple linear array; distance is ``|dst − src|``."""

    def hops(self, src: int, dst: int) -> int:
        """``|dst − src|`` along the line."""
        self._check(src)
        self._check(dst)
        return abs(dst - src)


class Torus3D(Topology):
    """3-D torus with ranks folded into a near-cubic grid (T3D style).

    The grid dimensions are the most cubic factorization of ``nproc``
    into three factors; distance is the sum of per-axis wrap-around
    distances.
    """

    def __init__(self, nproc: int):
        super().__init__(nproc)
        self.dims = self._grid_dims(nproc)

    @staticmethod
    def _grid_dims(n: int) -> tuple[int, int, int]:
        best = (n, 1, 1)
        best_score = n + 2
        for a in range(1, int(round(n ** (1 / 3))) + 2):
            if n % a:
                continue
            rem = n // a
            for b in range(a, int(rem ** 0.5) + 1):
                if rem % b:
                    continue
                c = rem // b
                score = max(a, b, c)
                if score < best_score:
                    best_score = score
                    best = (a, b, c)
        return best

    def _coords(self, r: int) -> tuple[int, int, int]:
        a, b, _c = self.dims
        return (r % a, (r // a) % b, r // (a * b))

    def hops(self, src: int, dst: int) -> int:
        """Sum of per-axis wrap-around distances on the torus."""
        self._check(src)
        self._check(dst)
        cs, cd = self._coords(src), self._coords(dst)
        total = 0
        for axis in range(3):
            d = abs(cd[axis] - cs[axis])
            total += min(d, self.dims[axis] - d)
        return max(total, 0)

    def diameter(self) -> int:
        """Maximum hop distance (used by collective cost sanity checks)."""
        return sum(dim // 2 for dim in self.dims)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Torus3D(nproc={self.nproc}, dims={self.dims})"
