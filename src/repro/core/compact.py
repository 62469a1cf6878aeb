"""Compact, serializable forms of every factorization the engine caches.

The economics of the persistent cache (:mod:`repro.engine.cache_store`)
rest on *representation size*.  A dense triangular factor is ``O(n²)``
bytes — at ``n = 4096`` that is 134 MB per entry — but the displacement
structure the whole library is built on says the information content is
``O(mn)``:

* the Gohberg–Semencul form of ``T⁻¹`` is one length-``n`` vector
  (``x = T⁻¹ e₀``);
* a GKO Cauchy-like LU is fully determined by its ``n × 2m`` generators
  ``(ĝ, b̂)`` and the root-of-unity node sets ``(d₁, d₂)`` — the pivoted
  elimination that rebuilds ``L``/``U``/``perm`` from them is
  deterministic;
* only the Schur factorizations keep their ``R``, as the ``n(n+1)/2``
  packed buffer they hold in memory (:mod:`repro.core.packed`); there
  memory-mapping, not size, makes the warm start cheap.

:class:`CompactFactorization` is the schema: a ``kind`` tag, a dict of
named arrays at the representation's natural size, and JSON-safe
metadata sufficient to rebuild the live factorization object.  Content
hashes over the arrays give the store its integrity check.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import UnsupportedFactorizationError

__all__ = [
    "COMPACT_SCHEMA_VERSION",
    "COMPACT_KINDS",
    "CompactFactorization",
    "array_hash",
]

#: Bump when the (kind, arrays, meta) schema below changes shape — the
#: ``SchurOptions`` fields stored in ``meta`` included; the store treats
#: entries written under another version as stale misses.
COMPACT_SCHEMA_VERSION = 3

KIND_GS = "gs"
KIND_GKO = "gko-generators"
KIND_SPD_PACKED = "spd-packed-r"
KIND_INDEFINITE_PACKED = "indefinite-packed-r"

COMPACT_KINDS = (KIND_GS, KIND_GKO, KIND_SPD_PACKED, KIND_INDEFINITE_PACKED)


def array_bytes(a: np.ndarray) -> memoryview:
    """The bytes of a C-contiguous ``a`` as a flat view, not a copy."""
    return memoryview(a.reshape(-1).view(np.uint8))


def array_hash(arr: np.ndarray) -> str:
    """SHA-256 over dtype, shape and raw bytes of ``arr``."""
    h = hashlib.sha256()
    a = np.ascontiguousarray(arr)
    h.update(str(a.dtype.str).encode())
    h.update(str(a.shape).encode())
    h.update(array_bytes(a))
    return h.hexdigest()


@dataclass
class CompactFactorization:
    """One factorization at its natural on-disk size.

    ``arrays`` maps member names to ndarrays (possibly read-only
    memory maps after a load); ``meta`` is JSON-serializable and carries
    everything else a :meth:`restore` needs.
    """

    kind: str
    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        """Total array payload bytes (the entry-size economics)."""
        return int(sum(int(a.nbytes) for a in self.arrays.values()))

    def content_hashes(self) -> dict[str, str]:
        """Per-array SHA-256 content hashes (the integrity manifest)."""
        return {name: array_hash(a) for name, a in self.arrays.items()}

    # ------------------------------------------------------------------
    @classmethod
    def from_factorization(cls, fact) -> "CompactFactorization":
        """Compact ``fact``, or raise
        :class:`~repro.errors.UnsupportedFactorizationError`.

        Supported: :class:`~repro.core.gohberg_semencul.ToeplitzInverse`
        (``O(n)``), :class:`~repro.core.gko.CauchyLikeLU` carrying its
        generators (``O(mn)``),
        :class:`~repro.core.schur_spd.SPDFactorization` and
        :class:`~repro.core.schur_indefinite.IndefiniteFactorization`
        (packed ``R``, ``n(n+1)/2`` words).  Everything else — distributed
        factorizations holding backend state, refinement traces, PCG
        records — has no meaningful at-rest form and is rejected.
        """
        import dataclasses as _dc

        from repro.core.gko import CauchyLikeLU
        from repro.core.gohberg_semencul import ToeplitzInverse
        from repro.core.schur_indefinite import IndefiniteFactorization
        from repro.core.schur_spd import SPDFactorization

        if isinstance(fact, ToeplitzInverse):
            return cls(kind=KIND_GS,
                       arrays={"x": fact.x},
                       meta={"dtype": np.dtype(fact.x.dtype).name})
        if isinstance(fact, CauchyLikeLU):
            if fact.generators is None:
                raise UnsupportedFactorizationError(
                    "CauchyLikeLU without generators has only the O(n²) "
                    "dense form; factor through gko_factor to keep the "
                    "O(mn) generators")
            ghat, bhat, d1, d2 = fact.generators
            return cls(kind=KIND_GKO,
                       arrays={"ghat": np.asarray(ghat),
                               "bhat": np.asarray(bhat),
                               "d1": np.asarray(d1),
                               "d2": np.asarray(d2)},
                       meta={"block_size": int(fact.block_size),
                             "precision": fact.precision})
        if isinstance(fact, SPDFactorization):
            return cls(kind=KIND_SPD_PACKED,
                       arrays={"r": fact.packed.data},
                       meta={"block_size": int(fact.block_size),
                             "num_blocks": int(fact.num_blocks),
                             "precision": fact.precision,
                             "options": _dc.asdict(fact.options)})
        if isinstance(fact, IndefiniteFactorization):
            return cls(kind=KIND_INDEFINITE_PACKED,
                       arrays={"r": fact.packed.data,
                               "d": np.asarray(fact.d),
                               "transform_norms":
                                   np.asarray(fact.transform_norms,
                                              dtype=np.float64)},
                       meta={"block_size": int(fact.block_size),
                             "num_blocks": int(fact.num_blocks),
                             "precision": fact.precision,
                             "perturbations": [_dc.asdict(p) for p in
                                               fact.perturbations],
                             "interchanges": [_dc.asdict(i) for i in
                                              fact.interchanges]})
        raise UnsupportedFactorizationError(
            f"no compact representation for {type(fact).__name__} "
            "(distributed/iterative results are not persisted)")

    # ------------------------------------------------------------------
    def restore(self):
        """Rebuild the live factorization object this entry encodes.

        GS and the packed kinds reconstruct directly from the stored
        arrays (which may be read-only memory maps, wrapped without a
        copy — every consumer treats factors as immutable).  The GKO
        kind re-runs the pivoted generator elimination: ``O(mn²)``
        work, but deterministic — the rebuilt ``L``/``U``/``perm`` are
        bit-identical to the originals — and still far cheaper at rest
        than storing ``O(n²)`` factors.
        """
        if self.kind == KIND_GS:
            from repro.core.gohberg_semencul import ToeplitzInverse
            return ToeplitzInverse(self.arrays["x"],
                                   dtype=self.meta["dtype"])
        if self.kind == KIND_GKO:
            from repro.core.gko import cauchy_like_lu
            from repro.core.precision import complex_working_dtype
            precision = self.meta.get("precision", "fp64")
            ghat = np.asarray(self.arrays["ghat"])
            bhat = np.asarray(self.arrays["bhat"])
            d1 = np.asarray(self.arrays["d1"])
            d2 = np.asarray(self.arrays["d2"])
            fact = cauchy_like_lu(
                ghat, bhat, d1, d2,
                block_size=int(self.meta["block_size"]),
                dtype=complex_working_dtype(precision))
            fact.precision = precision
            fact.generators = (ghat, bhat, d1, d2)
            return fact
        if self.kind == KIND_SPD_PACKED:
            from repro.core.schur_spd import SchurOptions, SPDFactorization
            return SPDFactorization(
                packed=self._packed_r(),
                block_size=int(self.meta["block_size"]),
                num_blocks=int(self.meta["num_blocks"]),
                options=SchurOptions(**self.meta["options"]),
                precision=self.meta.get("precision", "fp64"))
        if self.kind == KIND_INDEFINITE_PACKED:
            from repro.core.schur_indefinite import (
                IndefiniteFactorization,
                InterchangeEvent,
                PerturbationEvent,
            )
            return IndefiniteFactorization(
                packed=self._packed_r(),
                d=np.asarray(self.arrays["d"]),
                block_size=int(self.meta["block_size"]),
                num_blocks=int(self.meta["num_blocks"]),
                perturbations=[PerturbationEvent(**p) for p in
                               self.meta.get("perturbations", [])],
                interchanges=[InterchangeEvent(**i) for i in
                              self.meta.get("interchanges", [])],
                transform_norms=[float(v) for v in
                                 self.arrays["transform_norms"]],
                precision=self.meta.get("precision", "fp64"))
        raise UnsupportedFactorizationError(
            f"unknown compact kind {self.kind!r}; expected one of "
            f"{COMPACT_KINDS}")

    def _packed_r(self):
        """The stored ``R`` buffer wrapped as a packed triangle."""
        from repro.core.packed import PackedUpper
        return PackedUpper(self.arrays["r"], int(self.meta["block_size"])
                           * int(self.meta["num_blocks"]))
