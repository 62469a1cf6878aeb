"""repro — block Schur factorization of symmetric block Toeplitz systems.

Reproduction of Thirumalai, Gallivan & Van Dooren, *"On Solving Block
Toeplitz Systems Using a Block Schur Algorithm"* (ICPP 1994).

Quickstart
----------
>>> import numpy as np
>>> from repro import ar_block_toeplitz, cholesky
>>> t = ar_block_toeplitz(num_blocks=32, block_size=4, seed=0)
>>> fact = cholesky(t)
>>> x = fact.solve(np.ones(t.order))
>>> bool(np.allclose(t.dense() @ x, np.ones(t.order)))
True

Public surface
--------------
* factorizations / solves: :func:`cholesky`, :func:`ldlt`, :func:`solve`,
  :func:`solve_refined`
* structured matrices: :class:`SymmetricBlockToeplitz`,
  :class:`BlockToeplitz`, the workload generators
* block-size trade-off: :func:`regrouped_factor`, :func:`choose_block_size`
* machine study: :mod:`repro.machine`, :mod:`repro.parallel`,
  :mod:`repro.blas`
* baselines: :mod:`repro.baselines`
* solver engine (plan/execute + factorization cache): :mod:`repro.engine`
"""

from repro._version import __version__
from repro.core import (
    cholesky,
    ldlt,
    solve,
    solve_refined,
    schur_spd_factor,
    schur_indefinite_factor,
    refine,
    SchurOptions,
    SPDFactorization,
    IndefiniteFactorization,
    RefinementResult,
    condest,
)
from repro.toeplitz import (
    BlockToeplitz,
    SymmetricBlockToeplitz,
    SymmetricToeplitzBlock,
    ar_block_toeplitz,
    indefinite_toeplitz,
    kms_toeplitz,
    paper_example_matrix,
    prolate_toeplitz,
    random_spd_block_toeplitz,
    singular_minor_toeplitz,
    spectral_block_toeplitz,
)
from repro import engine
from repro.engine import (
    FactorizationCache,
    MachineSpec,
    SolverPlan,
    StructuredOperator,
    execute,
    plan,
)
from repro import errors
from repro._lazy import lazy_exports

# The planner's machine study (and the simulator behind it) and the
# solver tiers beside the Schur core load on use.
__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.tuning": ("tune", "choose_distribution"),
    "repro.core.regroup": ("regrouped_factor", "choose_block_size"),
    "repro.core.displacement_rank": ("generalized_schur_factor",
                                     "generator_from_dense",
                                     "matrix_from_generator"),
    "repro.core.streaming": ("iter_r_block_rows", "streaming_whiten",
                             "streaming_logdet", "gaussian_loglikelihood"),
    "repro.core.gko": ("solve_toeplitz_gko",),
}, submodules=("tuning", "machine", "parallel"))

__all__ = [
    "__version__",
    "cholesky",
    "ldlt",
    "solve",
    "solve_refined",
    "schur_spd_factor",
    "schur_indefinite_factor",
    "refine",
    "SchurOptions",
    "SPDFactorization",
    "IndefiniteFactorization",
    "RefinementResult",
    "regrouped_factor",
    "choose_block_size",
    "generalized_schur_factor",
    "generator_from_dense",
    "matrix_from_generator",
    "iter_r_block_rows",
    "streaming_whiten",
    "streaming_logdet",
    "gaussian_loglikelihood",
    "condest",
    "solve_toeplitz_gko",
    "BlockToeplitz",
    "SymmetricBlockToeplitz",
    "SymmetricToeplitzBlock",
    "ar_block_toeplitz",
    "indefinite_toeplitz",
    "kms_toeplitz",
    "paper_example_matrix",
    "prolate_toeplitz",
    "random_spd_block_toeplitz",
    "singular_minor_toeplitz",
    "spectral_block_toeplitz",
    "tune",
    "choose_distribution",
    "engine",
    "FactorizationCache",
    "MachineSpec",
    "SolverPlan",
    "StructuredOperator",
    "execute",
    "plan",
    "errors",
]
