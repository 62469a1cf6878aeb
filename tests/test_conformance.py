"""Conformance over the plan space, against a dense oracle.

Every registered algorithm (plus the distributed ``spd-schur`` on
``nproc=2``: simulated on Versions 1, 2 and 3 and with the lookahead
schedule, and on real worker processes, bulk and lookahead) × every
precision × every cache tier, on a fixed operator catalog: KMS, a block
AR operator, a scalar operator with an exactly singular leading minor,
and the paper's eq.-50 matrix.

Where ``plan()`` and ``execute()`` accept a combination, every answer
has a normwise backward error η ≤ 1e-10, a cache hit equals the fresh
solve bit for bit (the GKO disk form re-runs its LU from the stored
generators, so it is held to 1e-13 relative), and each column of a
three-column panel matches its single solve to 1e-12 relative.
Everywhere else the combination raises a typed error.

On the same catalog, each solver loop is pinned as written once: a
vector through ``refine`` or ``pcg`` equals the one-column panel run bit
for bit, and the streamed rows of ``R`` equal the stored factor's.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine as engine
from repro.baselines import pcg, pcg_block
from repro.core.block_reflector import REPRESENTATIONS
from repro.core.precision import PRECISIONS
from repro.core.refinement import refine
from repro.core.schur_indefinite import schur_indefinite_factor
from repro.core.schur_spd import SchurOptions, schur_spd_factor
from repro.core.streaming import iter_r_block_rows
from repro.engine import FactorizationCache, set_default_cache
from repro.engine.cache_store import CacheStore, set_default_store
from repro.errors import (
    DistributionError,
    InvalidOptionError,
    NotPositiveDefiniteError,
    ShapeError,
    SingularMinorError,
)
from repro.parallel import multiprocess_available
from repro.toeplitz import (
    ar_block_toeplitz,
    kms_toeplitz,
    paper_example_matrix,
    singular_minor_toeplitz,
)

OPERATORS = {
    "kms48": lambda: kms_toeplitz(48, 0.5),
    "ar12x4": lambda: ar_block_toeplitz(12, 4, seed=3),
    "singular_minor": lambda: singular_minor_toeplitz(48, seed=4),
    "eq50": paper_example_matrix,
}
#: Operators with an exactly singular leading principal minor (so no
#: Cholesky-type or Levinson recursion can pass them).
SINGULAR_MINOR = ("singular_minor", "eq50")

#: ``(case id, plan kwargs)``: each registered algorithm, then the
#: distributed SPD factorization over its layouts, schedules and
#: backends.
CASES = [(name, {"algorithm": name}) for name in sorted(engine.algorithms())]
CASES += [(f"spd-schur-np2{suffix}",
           {"algorithm": "spd-schur", "nproc": 2, **extra})
          for suffix, extra in (
              ("", {}),
              ("-v2", {"distribution_b": 2}),
              ("-v3", {"distribution_b": 0.5}),
              ("-lookahead", {"schedule": "lookahead"}),
              ("-mp", {"backend": "multiprocess"}),
              ("-mp-lookahead", {"backend": "multiprocess",
                                 "schedule": "lookahead"}))]

#: Algorithms whose factor the persistent store keeps (serial only).
STORED = ("spd-schur", "indefinite+refine", "gko", "gs", "pcg")

TIERS = ("memory", "persistent", "off")


@pytest.fixture(autouse=True)
def private_tiers(tmp_path):
    """A fresh default memory cache and a default store in ``tmp_path``,
    so each plan's own cache axis picks the tier."""
    previous_cache = set_default_cache(FactorizationCache())
    previous_store = set_default_store(CacheStore(tmp_path / "store"))
    yield
    set_default_cache(previous_cache)
    set_default_store(previous_store)


def _expected_error(kwargs: dict, precision: str, op_name: str, op):
    algorithm = kwargs["algorithm"]
    if kwargs.get("nproc", 1) > 1 and precision != "fp64":
        return InvalidOptionError
    spread = 1 / kwargs.get("distribution_b", 1)
    if spread > 1 and op.block_size % round(spread):
        return DistributionError    # a Version 3 layout splits each block
    if op_name in SINGULAR_MINOR:
        if algorithm in ("spd-schur", "dense-chol"):
            return NotPositiveDefiniteError
        if algorithm == "levinson":
            return SingularMinorError
    if algorithm == "gs" and op.block_size > 1:
        return ShapeError
    return None


def _eta(dense: np.ndarray, x: np.ndarray, b: np.ndarray) -> float:
    """Normwise backward error ‖b − Tx‖∞ / (‖T‖∞‖x‖∞ + ‖b‖∞), worst
    column."""
    x2, b2 = x.reshape(len(b), -1), b.reshape(len(b), -1)
    r = np.max(np.abs(b2 - dense @ x2), axis=0)
    scale = (np.max(np.sum(np.abs(dense), axis=1))
             * np.max(np.abs(x2), axis=0) + np.max(np.abs(b2), axis=0))
    return float(np.max(r / scale))


def _rel(a: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(a - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("op_name", sorted(OPERATORS))
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("case", [c[0] for c in CASES])
def test_plan_space(case, precision, tier, op_name):
    kwargs = dict(CASES)[case]
    op = OPERATORS[op_name]()
    dense = op.dense()
    rng = np.random.default_rng(7)
    b = rng.standard_normal(op.order)
    panel = rng.standard_normal((op.order, 3))

    error = _expected_error(kwargs, precision, op_name, op)
    if error is InvalidOptionError:
        with pytest.raises(InvalidOptionError):
            engine.plan(op, precision=precision, cache=tier, **kwargs)
        return
    pl = engine.plan(op, precision=precision, cache=tier, **kwargs)
    if error is not None:
        with pytest.raises(error):
            engine.execute(pl, b)
        return

    fresh = engine.execute(pl, b)
    assert not fresh.cache_hit
    assert _eta(dense, fresh.x, b) <= 1e-10
    if pl.backend == "multiprocess" and multiprocess_available()[0]:
        assert fresh.detail.backend == "multiprocess"

    cacheable = engine.get_algorithm(pl.algorithm).cacheable
    again = engine.execute(pl, b)
    if tier == "off":
        assert not again.cache_hit
        assert len(engine.default_cache()) == 0
    else:
        assert again.cache_hit == cacheable
        np.testing.assert_array_equal(again.x, fresh.x)

    if tier == "persistent":
        set_default_cache(FactorizationCache())     # a "restarted" process
        disk = engine.execute(pl, b)
        stored = case in STORED
        assert disk.cache_hit == stored
        if case == "gko":
            assert _rel(disk.x, fresh.x) <= 1e-13
        elif stored:
            np.testing.assert_array_equal(disk.x, fresh.x)

    res = engine.execute(pl, panel)
    assert _eta(dense, res.x, panel) <= 1e-10
    for j in range(panel.shape[1]):
        single = engine.execute(pl, panel[:, j]).x
        assert _rel(res.x[:, j], single) <= 1e-12


# ----------------------------------------------------------------------
# Each solver loop is written once: a vector is a one-column panel, and
# the row stream is the factor's own loop.
# ----------------------------------------------------------------------
#: The catalog operators that are SPD (the others have a singular minor).
SPD_OPERATORS = sorted(set(OPERATORS) - set(SINGULAR_MINOR))

REFINE_CASES = ([(op, "indefinite") for op in sorted(OPERATORS)]
                + [(op, "spd") for op in SPD_OPERATORS])


def _rhs(op) -> np.ndarray:
    return np.random.default_rng(11).standard_normal(op.order)


@pytest.mark.parametrize("precision", ("fp64", "fp32"))
@pytest.mark.parametrize("op_name,kind", REFINE_CASES)
def test_refine_vector_is_one_column_panel(op_name, kind, precision):
    op = OPERATORS[op_name]()
    if kind == "spd":
        fact = schur_spd_factor(op, options=SchurOptions(precision=precision))
    else:
        fact = schur_indefinite_factor(op, precision=precision)
    b = _rhs(op)
    vec = refine(fact, op, b)
    col = refine(fact, op, b[:, None])
    np.testing.assert_array_equal(vec.x, col.x[:, 0])
    assert vec.x.shape == b.shape
    assert vec.iterations == col.iterations
    assert vec.converged == col.converged


@pytest.mark.parametrize("precision", ("fp64", "fp32"))
@pytest.mark.parametrize("op_name", sorted(OPERATORS))
def test_pcg_vector_is_one_column_panel(op_name, precision):
    op = OPERATORS[op_name]()
    fact = schur_indefinite_factor(op, precision=precision)
    b = _rhs(op)
    vec = pcg(op, b, preconditioner=fact)
    col = pcg_block(op, b[:, None], preconditioner=fact)
    np.testing.assert_array_equal(vec.x, col.x[:, 0])
    assert vec.x.shape == b.shape
    assert vec.iterations == col.iterations


@pytest.mark.parametrize("in_place", (True, False))
@pytest.mark.parametrize("panel", (None, 2))
@pytest.mark.parametrize("representation", REPRESENTATIONS)
@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("op_name", SPD_OPERATORS)
def test_streamed_rows_are_the_factor_rows(op_name, precision,
                                           representation, panel, in_place):
    op = OPERATORS[op_name]()
    opts = SchurOptions(representation=representation, panel=panel,
                        in_place=in_place, precision=precision)
    fact = schur_spd_factor(op, options=opts)
    m, n = op.block_size, op.order
    rows = 0
    for i, row in iter_r_block_rows(op, options=opts):
        stored = fact.packed.block_row(i * m, m, np.arange(i * m, n))
        assert row.dtype == fact.dtype
        np.testing.assert_array_equal(np.triu(row), stored)
        rows += 1
    assert rows == n // m


# ----------------------------------------------------------------------
# Armed fallbacks and cache tiers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("op_name", SINGULAR_MINOR)
def test_simulated_distributed_breakdown_runs_fallback(op_name):
    op = OPERATORS[op_name]()
    b = _rhs(op)
    res = engine.execute(engine.plan(op, probe=False, nproc=2), b)
    assert res.fallback_used
    assert _eta(op.dense(), res.x, b) <= 1e-10


@pytest.mark.parametrize("tier", ("off", "memory"))
def test_gs_caches_only_its_own_entry(tier):
    op = OPERATORS["kms48"]()
    pl = engine.plan(op, algorithm="gs", cache=tier)
    engine.execute(pl, _rhs(op))
    cache = engine.default_cache()
    if tier == "off":
        assert len(cache) == 0
    else:
        assert len(cache) == 1 and pl.cache_key() in cache
