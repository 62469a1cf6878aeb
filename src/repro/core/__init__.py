"""Core contribution: the block Schur algorithm and its building blocks.

Layout mirrors the paper:

* :mod:`repro.core.signature` — signature matrices ``W`` (Section 3).
* :mod:`repro.core.hyperbolic` — scalar hyperbolic Householder reflectors
  (Section 3, eqs. 14–16).
* :mod:`repro.core.block_reflector` — the three block representations of
  reflector products (Section 4, Lemmas 4.0.1–4.0.3).
* :mod:`repro.core.generator` — generators and displacement structure
  (Section 2, eqs. 4–10, 21).
* :mod:`repro.core.schur_spd` — the SPD factorization loop (Sections 5–6).
* :mod:`repro.core.schur_indefinite` — indefinite/LDLᵀ extension with
  perturbation of singular minors (Section 8.2).
* :mod:`repro.core.refinement` — iterative refinement (Section 8.1).
* :mod:`repro.core.regroup` — structural vs. algorithmic block size
  (Section 6.5).
* :mod:`repro.core.flops` — the paper's closed-form flop models
  (eqs. 25–32).
* :mod:`repro.core.precision` — the precision axis: working/elimination
  dtypes and the condest-based refinement admission rule.
* :mod:`repro.core.solve` — the high-level user API.

The regroup, displacement-rank, streaming, GKO and Gohberg–Semencul
modules load on first use of one of their names (:mod:`repro._lazy`).
"""

from repro.core.signature import (
    signature_vector,
    hyperbolic_norm_squared,
    signature_matrix,
    block_schur_signature,
)
from repro.core.hyperbolic import (
    HyperbolicHouseholder,
    reflector_annihilating,
)
from repro.core.block_reflector import (
    BlockReflector,
    VYFirstAccumulator,
    VYSecondAccumulator,
    YTYAccumulator,
    UnblockedAccumulator,
    DenseAccumulator,
    make_accumulator,
    REPRESENTATIONS,
)
from repro.core.generator import (
    spd_generator,
    indefinite_generator,
    displacement,
    generator_to_full,
)
from repro.core.schur_spd import schur_spd_factor, SchurOptions, SPDFactorization
from repro.core.schur_indefinite import (
    schur_indefinite_factor,
    IndefiniteFactorization,
    PerturbationEvent,
)
from repro.core.refinement import refine, RefinementResult
from repro.core.solve import (
    cholesky,
    ldlt,
    solve,
    solve_refined,
)
from repro.core.condest import condest, one_norm, invnorm_estimate
from repro.core.precision import (
    PRECISIONS,
    working_dtype,
    precision_eps,
    refinement_admissible,
    validate_precision,
)
from repro.core.compact import (
    COMPACT_SCHEMA_VERSION,
    CompactFactorization,
    array_hash,
)
from repro.core import flops
from repro._lazy import lazy_exports

# ``displacement_rank`` names the function, as before, not its module.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.regroup": ("regrouped_factor", "choose_block_size"),
    "repro.core.displacement_rank": (
        "displacement_rank",
        "generator_from_dense",
        "matrix_from_generator",
        "generalized_schur_factor",
        "GeneralizedFactorization",
    ),
    "repro.core.streaming": (
        "iter_r_block_rows",
        "streaming_whiten",
        "streaming_logdet",
        "gaussian_loglikelihood",
    ),
    "repro.core.gko": (
        "cauchy_like_lu",
        "CauchyLikeLU",
        "solve_toeplitz_gko",
        "toeplitz_to_cauchy",
    ),
    "repro.core.gohberg_semencul": ("ToeplitzInverse", "toeplitz_inverse"),
}, submodules=("regroup", "streaming", "gko", "gohberg_semencul"))

__all__ = [
    "signature_vector",
    "hyperbolic_norm_squared",
    "signature_matrix",
    "block_schur_signature",
    "HyperbolicHouseholder",
    "reflector_annihilating",
    "BlockReflector",
    "VYFirstAccumulator",
    "VYSecondAccumulator",
    "YTYAccumulator",
    "UnblockedAccumulator",
    "DenseAccumulator",
    "make_accumulator",
    "REPRESENTATIONS",
    "spd_generator",
    "indefinite_generator",
    "displacement",
    "generator_to_full",
    "schur_spd_factor",
    "SchurOptions",
    "SPDFactorization",
    "schur_indefinite_factor",
    "IndefiniteFactorization",
    "PerturbationEvent",
    "refine",
    "RefinementResult",
    "cholesky",
    "ldlt",
    "solve",
    "solve_refined",
    "regrouped_factor",
    "choose_block_size",
    "displacement_rank",
    "generator_from_dense",
    "matrix_from_generator",
    "generalized_schur_factor",
    "GeneralizedFactorization",
    "iter_r_block_rows",
    "streaming_whiten",
    "streaming_logdet",
    "gaussian_loglikelihood",
    "condest",
    "one_norm",
    "invnorm_estimate",
    "PRECISIONS",
    "working_dtype",
    "precision_eps",
    "refinement_admissible",
    "validate_precision",
    "cauchy_like_lu",
    "CauchyLikeLU",
    "solve_toeplitz_gko",
    "toeplitz_to_cauchy",
    "ToeplitzInverse",
    "toeplitz_inverse",
    "COMPACT_SCHEMA_VERSION",
    "CompactFactorization",
    "array_hash",
    "flops",
]
