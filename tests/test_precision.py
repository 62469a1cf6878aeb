"""The precision axis: reduced factorization + fp64 refinement recovery.

Covers the end-to-end contract of ``precision`` ∈ {fp64, fp32}:
dtype round-trips through every registered algorithm, per-precision
cache keys with zero cross-precision hits, the condest admission
fallback, dtype-aware fingerprints and refinement tolerances, and the
precision fields on :class:`~repro.engine.ExecutionRecord`.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine as engine
from repro.core.precision import (
    PRECISIONS,
    precision_eps,
    refinement_admissible,
    validate_precision,
    working_dtype,
)
from repro.engine import FactorizationCache, set_default_cache
from repro.errors import InvalidOptionError
from repro.toeplitz import (
    BlockToeplitz,
    ar_block_toeplitz,
    kms_toeplitz,
)
from repro.utils.fingerprint import content_fingerprint

REDUCED = ("fp32",)


@pytest.fixture(autouse=True)
def fresh_default_cache():
    previous = set_default_cache(FactorizationCache())
    yield
    set_default_cache(previous)


def _nonsymmetric(p=8, m=2, seed=7):
    r = np.random.default_rng(seed)
    col = [r.standard_normal((m, m)) * 0.5 ** j for j in range(p)]
    col[0] = col[0] + 4 * np.eye(m)
    row = [col[0]] + [r.standard_normal((m, m)) * 0.5 ** j
                      for j in range(1, p)]
    return BlockToeplitz(col, row)


def _residual(t, x, b):
    r = t.dense() @ x - b
    return float(np.max(np.abs(r)) / np.max(np.abs(b)))


def _ill_conditioned(n=96):
    """cond ≈ 1e6: fails the fp32 admission test (1e6 · eps32 > 0.05)."""
    from repro.toeplitz import SymmetricBlockToeplitz
    col = 0.9999 ** np.arange(n) * np.cos(0.1 * np.arange(n))
    col[0] = 1.0 + 1e-7
    return SymmetricBlockToeplitz.from_first_row(col)


#: Algorithms whose factor can run at reduced precision.
ALGORITHMS_WITH_PRECISION = ("spd-schur", "indefinite+refine", "gko")


# ----------------------------------------------------------------------
# Helpers module
# ----------------------------------------------------------------------
class TestPrecisionHelpers:
    def test_validate(self):
        for p in PRECISIONS:
            validate_precision(p)
        with pytest.raises(InvalidOptionError):
            validate_precision("fp16")

    def test_dtypes(self):
        assert working_dtype("fp64") == np.float64
        assert working_dtype("fp32") == np.float32

    def test_eps_ordering(self):
        assert precision_eps("fp64") < precision_eps("fp32")

    def test_admission(self):
        # fp64 is always admissible; reduced precision is gated on
        # cond · eps32 ≤ 0.05.
        assert refinement_admissible(1e15, "fp64")
        assert refinement_admissible(1e3, "fp32")
        assert not refinement_admissible(1e7, "fp32")
        assert not refinement_admissible(float("inf"), "fp32")


# ----------------------------------------------------------------------
# Round-trips through every registered algorithm
# ----------------------------------------------------------------------
class TestAlgorithmRoundTrips:
    """Every algorithm accepts any float input dtype and returns a
    float64 solution; precision-capable algorithms recover fp64
    accuracy from reduced factors."""

    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("algorithm",
                             ["spd-schur", "indefinite+refine"])
    def test_symmetric_algorithms(self, algorithm, precision):
        t = ar_block_toeplitz(8, 3, seed=5)
        b = np.random.default_rng(0).standard_normal((t.order, 3))
        res = engine.solve(t, b, algorithm=algorithm,
                           precision=precision)
        assert res.x.dtype == np.float64
        assert _residual(t, res.x, b) < 1e-10

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_gko(self, precision):
        t = _nonsymmetric()
        b = np.random.default_rng(1).standard_normal(t.order)
        res = engine.solve(t, b, algorithm="gko", precision=precision)
        assert res.x.dtype == np.float64
        assert _residual(t, res.x, b) < 1e-10

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_gs(self, precision):
        t = kms_toeplitz(64, 0.6)
        b = np.random.default_rng(2).standard_normal(t.order)
        res = engine.solve(t, b, algorithm="gs", precision=precision)
        assert res.x.dtype == np.float64
        assert _residual(t, res.x, b) < 1e-10

    @pytest.mark.parametrize("in_dtype",
                             [np.float32, np.float64, np.int64])
    @pytest.mark.parametrize("algorithm", sorted(engine.algorithms()))
    def test_input_dtype_round_trip(self, algorithm, in_dtype):
        """Registry-wide: b in any reasonable dtype solves to float64."""
        t = kms_toeplitz(24, 0.5)
        b = (np.linspace(-1.0, 1.0, t.order) * 8).astype(in_dtype)
        res = engine.solve(t, b, algorithm=algorithm)
        assert res.x.dtype == np.float64
        assert _residual(t, res.x,
                         np.asarray(b, dtype=np.float64)) < 1e-8

    @pytest.mark.parametrize("precision", REDUCED)
    def test_reduced_factor_storage(self, precision):
        """The cached factor really is stored at the working dtype."""
        t = ar_block_toeplitz(8, 2, seed=3)
        pl = engine.plan(t, assume="spd", precision=precision)
        fact = engine.factor(pl).factorization
        assert fact.precision == precision
        assert np.dtype(fact.dtype) == working_dtype(precision)


# ----------------------------------------------------------------------
# Cache isolation
# ----------------------------------------------------------------------
class TestCacheIsolation:
    def test_distinct_keys(self):
        t = ar_block_toeplitz(6, 2, seed=1)
        keys = {engine.plan(t, assume="spd", precision=p).cache_key()
                for p in PRECISIONS}
        assert len(keys) == len(PRECISIONS)

    def test_zero_cross_precision_hits(self):
        """Factoring the same operator at each precision never reuses
        another precision's factor: one miss each, then one hit each."""
        t = ar_block_toeplitz(6, 2, seed=1)
        cache = FactorizationCache()
        for p in PRECISIONS:
            engine.factor(engine.plan(t, assume="spd", precision=p),
                          cache=cache)
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, len(PRECISIONS))
        facts = {}
        for p in PRECISIONS:
            fr = engine.factor(engine.plan(t, assume="spd", precision=p),
                               cache=cache)
            assert fr.cache_hit
            facts[p] = fr.factorization
        assert cache.stats().hits == len(PRECISIONS)
        # and each precision got its own factor object back
        assert facts["fp32"].dtype != facts["fp64"].dtype
        assert [facts[p].precision for p in PRECISIONS] == list(PRECISIONS)

    def test_fingerprint_sees_dtype(self):
        """Same values, different source dtype ⇒ different fingerprint
        (the other half of cross-precision cache safety)."""
        a64 = 0.5 ** np.arange(16)
        a32 = a64.astype(np.float32)
        assert np.array_equal(a64, a32.astype(np.float64))
        assert (content_fingerprint("t", a64)
                != content_fingerprint("t", a32))


# ----------------------------------------------------------------------
# Admission + recovery behavior
# ----------------------------------------------------------------------
class TestAdmissionAndRecovery:
    def test_ill_conditioned_falls_back_to_fp64(self):
        """cond ≈ 1e6 fails the fp32 admission test (1e6 · eps32 > 0.05)
        and the engine silently refactors in double."""
        from repro.toeplitz import SymmetricBlockToeplitz
        n = 96
        col = 0.9999 ** np.arange(n) * np.cos(0.1 * np.arange(n))
        col[0] = 1.0 + 1e-7
        t = SymmetricBlockToeplitz.from_first_row(col)
        pl = engine.plan(t, assume="spd", precision="fp32",
                         cache="off")
        fact = engine.factor(pl).factorization
        assert fact.precision == "fp64"
        assert np.dtype(fact.dtype) == np.float64

    @pytest.mark.parametrize("precision", REDUCED)
    def test_solve_reports_refinement(self, precision):
        t = ar_block_toeplitz(8, 2, seed=2)
        b = np.random.default_rng(2).standard_normal(t.order)
        res = engine.solve(t, b, assume="spd", precision=precision)
        detail = res.detail
        assert detail.converged
        assert detail.converged_precision == "fp64"
        assert detail.factor_dtype == working_dtype(precision).name
        assert detail.iterations >= 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS_WITH_PRECISION)
    def test_rejected_admission_caches_fp64(self, algorithm):
        """Every precision-capable algorithm rejects an fp32 factor of a
        cond ≈ 1e6 operator and caches the fp64 refactorization."""
        t = _ill_conditioned()
        cache = FactorizationCache()
        pl = engine.plan(t, algorithm=algorithm, precision="fp32")
        b = np.random.default_rng(5).standard_normal(t.order)
        res = engine.execute(pl, b, cache=cache)
        cached = cache.get(pl.cache_key())
        assert cached.precision == "fp64"
        assert np.dtype(cached.dtype) == np.float64
        assert res.record.factor_dtype == "float64"

    @pytest.mark.parametrize("algorithm", ALGORITHMS_WITH_PRECISION)
    def test_solve_time_stall_refactors_fp64(self, algorithm, monkeypatch):
        """Refinement that stalls over an admitted fp32 factor: the
        engine refactors at fp64 outside the cache and solves with that
        factor through the algorithm's own solve."""
        from repro.core import refinement
        real_refine = refinement.refine

        def stalling_refine(fact, t, b, **kwargs):
            res = real_refine(fact, t, b, **kwargs)
            if getattr(fact, "precision", "fp64") != "fp64":
                res.converged = False
            return res

        monkeypatch.setattr(refinement, "refine", stalling_refine)
        t = (_nonsymmetric() if algorithm == "gko"
             else ar_block_toeplitz(8, 2, seed=2))
        b = np.random.default_rng(6).standard_normal(t.order)
        cache = FactorizationCache()
        pl = engine.plan(t, algorithm=algorithm, precision="fp32")
        res = engine.execute(pl, b, cache=cache)
        oracle = np.linalg.solve(t.dense(), b)
        assert (np.max(np.abs(res.x - oracle))
                <= 1e-10 * np.max(np.abs(oracle)))
        # The cache keeps the admitted fp32 factor.
        assert cache.get(pl.cache_key()).precision == "fp32"
        rec = res.record
        assert (rec.algorithm, rec.precision) == (algorithm, "fp32")
        assert rec.factor_dtype == "float64"
        assert not rec.fallback_used and not rec.cache_hit
        detail = res.detail
        if algorithm == "indefinite+refine":
            assert isinstance(detail, refinement.RefinementResult)
            assert detail.factor_dtype == "float64"
            assert rec.refine_sweeps == detail.iterations
        else:
            assert detail.precision == "fp64"
            assert np.dtype(detail.dtype) == np.float64
            assert rec.refine_sweeps is None

    def test_refinement_tol_tracks_dtype(self):
        """A float32 target keeps the default tolerance at fp32 level;
        the engine's fp64 recovery still uses the double tolerance."""
        from repro.core.refinement import refine
        from repro.core.schur_spd import SchurOptions, schur_spd_factor
        t = ar_block_toeplitz(8, 2, seed=4)
        fact = schur_spd_factor(
            t, options=SchurOptions(precision="fp32"))
        b64 = np.random.default_rng(3).standard_normal(t.order)
        r64 = refine(fact, t, b64)
        r32 = refine(fact, t, b64.astype(np.float32))
        eps32, eps64 = (float(np.finfo(d).eps)
                        for d in (np.float32, np.float64))
        assert r64.tol == pytest.approx(4 * eps64)
        assert r32.tol == pytest.approx(4 * eps32)
        assert r64.converged_precision == "fp64"
        assert r64.iterations > 0


# ----------------------------------------------------------------------
# Records and plans
# ----------------------------------------------------------------------
class TestRecordsAndPlans:
    def test_execution_record_fields(self):
        t = ar_block_toeplitz(8, 2, seed=6)
        b = np.random.default_rng(4).standard_normal((t.order, 2))
        rec = engine.solve(t, b, assume="spd", precision="fp32").record
        assert rec.precision == "fp32"
        assert rec.factor_dtype == "float32"
        assert rec.refine_sweeps >= 1
        attrs = rec.to_record()["attrs"]
        assert attrs["precision"] == "fp32"
        assert attrs["factor_dtype"] == "float32"
        assert attrs["refine_sweeps"] == rec.refine_sweeps

    def test_fp64_record_is_direct(self):
        t = ar_block_toeplitz(8, 2, seed=6)
        b = np.random.default_rng(4).standard_normal(t.order)
        rec = engine.solve(t, b, assume="spd").record
        assert rec.precision == "fp64"
        assert rec.factor_dtype == "float64"
        assert rec.refine_sweeps is None

    def test_plan_validation(self):
        t = ar_block_toeplitz(6, 2, seed=1)
        with pytest.raises(InvalidOptionError):
            engine.plan(t, precision="fp16")
        with pytest.raises(InvalidOptionError):
            engine.plan(t, assume="spd", precision="fp32", nproc=4)

    def test_describe_mentions_precision(self):
        t = ar_block_toeplitz(6, 2, seed=1)
        text = engine.plan(t, assume="spd", precision="fp32").describe()
        assert "fp32" in text
        assert "refinement" in text

    def test_plan_round_trips_serialization(self):
        t = ar_block_toeplitz(6, 2, seed=1)
        pl = engine.plan(t, assume="spd", precision="fp32")
        back = engine.SolverPlan.from_dict(pl.to_dict(), operator=t)
        assert back.precision == "fp32"
        assert back.cache_key() == pl.cache_key()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_solve_precision_flag(self, tmp_path, capsys):
        from repro.cli import main
        col = 0.5 ** np.arange(32)
        col[0] = 3.0
        mat = tmp_path / "t.npy"
        np.save(mat, col)
        rc = main(["solve", str(mat), "--nrhs", "2",
                   "--precision", "fp32", "--profile"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "fp32" in out
        assert "refinement sweep" in out

    def test_factor_precision_line(self, tmp_path, capsys):
        from repro.cli import main
        col = 0.5 ** np.arange(32)
        col[0] = 3.0
        mat = tmp_path / "t.npy"
        np.save(mat, col)
        rc = main(["factor", str(mat), "--precision", "fp32"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "requested fp32" in out

    def test_mixed_precision_flag_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main
        mat = tmp_path / "t.npy"
        np.save(mat, 0.5 ** np.arange(8))
        with pytest.raises(SystemExit) as exc:
            main(["factor", str(mat), "--precision", "mixed"])
        assert exc.value.code == 2
        assert "invalid choice: 'mixed'" in capsys.readouterr().err
