"""Generator data-distribution schemes (Section 7.1, Figure 5).

All three schemes view the machine as a linear array of ``NP`` PEs and
assign the ``p`` block columns of the ``2m × mp`` generator.  One
number ``b`` picks the scheme (:class:`Layout`):

* Version 1 (``b = 1``): block ``j`` on PE ``j mod NP``;
* Version 2 (``b > 1``): ``b`` adjacent blocks per PE, cyclically —
  fewer shift crossings, less parallelism;
* Version 3 (``b = 1/s``): block ``j`` split column-wise over ``s``
  adjacent PEs — more parallelism inside a block, ``s`` broadcasts per
  elimination step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import DistributionError

__all__ = ["Layout"]


@dataclass(frozen=True)
class Layout:
    """The Figure-5 distribution the paper's ``b`` selects.

    Block column ``j`` is cut into ``spread`` column chunks, and chunk
    ``c`` lives on PE ``((j // group_size) · spread + c) mod NP``: with
    ``b ≥ 1``, ``group_size = b`` and one chunk per block (Versions
    1/2); with ``b < 1``, ``spread = 1/b`` chunks of one block on
    adjacent PEs (Version 3).
    """

    nproc: int
    b: float = 1
    #: Adjacent block columns per PE (``b`` when ``b ≥ 1``, else 1).
    group_size: int = field(init=False)
    #: PEs per block column (``1/b`` when ``b < 1``, else 1).
    spread: int = field(init=False)

    def __post_init__(self):
        if self.nproc <= 0:
            raise DistributionError(f"nproc must be positive: {self.nproc}")
        b = self.b
        if not (math.isfinite(b) and b > 0):
            raise DistributionError(
                f"b must be finite and positive: {b}")
        group_size, spread = 1, 1
        if b >= 1:
            group_size = int(b)
            if group_size != b:
                raise DistributionError(f"b must be integral when ≥ 1: {b}")
        else:
            spread = round(1.0 / b)
            if abs(spread * b - 1.0) > 1e-9:
                raise DistributionError(
                    f"1/b must be integral when b < 1: {b}")
            if spread > self.nproc:
                raise DistributionError(
                    f"spread must be in [1, NP={self.nproc}]: {spread}")
        object.__setattr__(self, "group_size", group_size)
        object.__setattr__(self, "spread", spread)

    @property
    def version(self) -> int:
        """The paper's scheme number: 1, 2 or 3."""
        if self.spread > 1:
            return 3
        return 1 if self.group_size == 1 else 2

    def chunk_width(self, block_size: int) -> int:
        """Columns per chunk (``m / spread``)."""
        if block_size % self.spread != 0:
            raise DistributionError(
                f"block size {block_size} not divisible by "
                f"spread {self.spread}")
        return block_size // self.spread

    def owner(self, block: int, chunk: int = 0) -> int:
        """PE owning chunk ``chunk`` of block column ``block``."""
        if block < 0 or not (0 <= chunk < self.spread):
            raise DistributionError(
                f"invalid (block, chunk) = ({block}, {chunk})")
        return ((block // self.group_size) * self.spread + chunk) \
            % self.nproc

    def blocks_of(self, rank: int, num_blocks: int) -> list[int]:
        """Ascending list of the whole block columns (``spread = 1``)
        owned by ``rank``."""
        return [j for j in range(num_blocks) if self.owner(j) == rank]

    def chunks_of(self, rank: int, num_blocks: int
                  ) -> list[tuple[int, int]]:
        """Ascending list of (block, chunk) pairs owned by ``rank``."""
        return [(j, c) for j in range(num_blocks)
                for c in range(self.spread) if self.owner(j, c) == rank]
