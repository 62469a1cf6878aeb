"""Tests for the solver engine: plan/execute, cache, operator protocol."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro.engine as engine
from repro.engine import (
    FactorizationCache,
    MachineSpec,
    SolverPlan,
    StructuredOperator,
    set_default_cache,
)
from repro.errors import (
    DistributionError,
    InvalidOptionError,
    NotPositiveDefiniteError,
    ShapeError,
)
from repro.parallel import Layout
from repro.toeplitz import (
    BlockToeplitz,
    SymmetricToeplitzBlock,
    ar_block_toeplitz,
    indefinite_toeplitz,
    kms_toeplitz,
    singular_minor_toeplitz,
)
from repro.toeplitz.convolution import ConvolutionOperator


@pytest.fixture(autouse=True)
def fresh_default_cache():
    """Give every test its own default cache (and restore afterwards)."""
    previous = set_default_cache(FactorizationCache())
    yield
    set_default_cache(previous)


def _nonsymmetric(p=6, m=2, seed=11):
    r = np.random.default_rng(seed)
    col = [r.standard_normal((m, m)) + 3 * np.eye(m) for _ in range(p)]
    row = [col[0]] + [r.standard_normal((m, m)) for _ in range(p - 1)]
    return BlockToeplitz(col, row)


# ----------------------------------------------------------------------
# Operator protocol
# ----------------------------------------------------------------------
class TestOperatorProtocol:
    def test_implementers(self):
        gammas = np.zeros((3, 2, 2))
        gammas[0] = 4 * np.eye(2)
        gammas[1] = 0.3 * np.eye(2)
        ops = [
            kms_toeplitz(8, 0.5),
            _nonsymmetric(),
            SymmetricToeplitzBlock.from_cross_covariances(gammas),
            ConvolutionOperator(np.array([1.0, 0.5, 0.25]), 12),
        ]
        for op in ops:
            assert isinstance(op, StructuredOperator)
            assert isinstance(op.fingerprint(), str)
            assert op.assemble().shape == op.shape

    def test_fingerprint_stable_across_copies(self):
        a = kms_toeplitz(16, 0.5)
        b = kms_toeplitz(16, 0.5)
        assert a.fingerprint() == b.fingerprint()

    def test_fingerprint_content_sensitive(self):
        assert (kms_toeplitz(16, 0.5).fingerprint()
                != kms_toeplitz(16, 0.6).fingerprint())
        assert (kms_toeplitz(16, 0.5).fingerprint()
                != kms_toeplitz(32, 0.5).fingerprint())

    def test_fingerprint_structure_tagged(self):
        # same numeric content, different structure ⇒ different hash
        t = ar_block_toeplitz(4, 2, seed=0)
        bt = BlockToeplitz(list(t.top_blocks),
                           [t.top_blocks[0]] +
                           [b.T for b in t.top_blocks[1:]])
        assert t.fingerprint() != bt.fingerprint()

    def test_toeplitz_block_matvec_matches_dense(self):
        gammas = np.zeros((4, 3, 3))
        gammas[0] = 5 * np.eye(3)
        gammas[1] = 0.2 * np.ones((3, 3))
        tb = SymmetricToeplitzBlock.from_cross_covariances(gammas)
        x = np.arange(tb.order, dtype=float)
        np.testing.assert_allclose(tb.matvec(x), tb.dense() @ x,
                                   atol=1e-12)


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class TestPlanSelection:
    def test_spd_workload_plans_schur_with_fallback(self):
        pl = engine.plan(kms_toeplitz(32, 0.5))
        assert pl.algorithm == "spd-schur"
        assert pl.fallback == "indefinite+refine"

    def test_singular_minor_plans_indefinite(self):
        pl = engine.plan(singular_minor_toeplitz(24, seed=3))
        assert pl.algorithm == "indefinite+refine"
        assert pl.fallback is None

    def test_indefinite_workload_plans_indefinite(self):
        pl = engine.plan(indefinite_toeplitz(24, seed=5))
        assert pl.algorithm == "indefinite+refine"

    def test_nonsymmetric_plans_gko(self):
        pl = engine.plan(_nonsymmetric())
        assert pl.algorithm == "gko"

    def test_assume_overrides_probe(self):
        pl = engine.plan(kms_toeplitz(16, 0.5), assume="indefinite")
        assert pl.algorithm == "indefinite+refine"
        pl = engine.plan(singular_minor_toeplitz(16, seed=1),
                         assume="spd")
        assert pl.algorithm == "spd-schur"
        assert pl.fallback is None

    def test_probe_off_arms_fallback(self):
        pl = engine.plan(singular_minor_toeplitz(16, seed=1), probe=False)
        assert pl.algorithm == "spd-schur"
        assert pl.fallback == "indefinite+refine"

    def test_explicit_algorithm(self):
        for name in ("levinson", "pcg", "dense-chol"):
            assert engine.plan(kms_toeplitz(8, 0.5),
                               algorithm=name).algorithm == name

    def test_invalid_options(self):
        t = kms_toeplitz(8, 0.5)
        with pytest.raises(InvalidOptionError):
            engine.plan(t, assume="maybe")
        with pytest.raises(InvalidOptionError):
            engine.plan(t, algorithm="does-not-exist")
        with pytest.raises(InvalidOptionError):
            engine.plan(t, representation="nope")
        with pytest.raises(InvalidOptionError):
            engine.plan(np.eye(4))
        with pytest.raises(ShapeError):
            engine.plan(t, block_size=3)  # 3 does not divide 8

    def test_machine_spec_serial_tunes_ms(self):
        from repro.tuning import tune
        pl = engine.plan(kms_toeplitz(256, 0.5),
                         machine=MachineSpec())
        res = tune(256, 1)
        assert pl.block_size == res.block_size
        assert pl.representation == res.representation
        assert pl.predicted_seconds == res.predicted_seconds

    def test_machine_spec_parallel_picks_distribution(self):
        pl = engine.plan(kms_toeplitz(256, 0.5),
                         machine=MachineSpec(nproc=4))
        assert pl.nproc == 4
        assert pl.distribution_b is not None
        assert Layout(pl.nproc, pl.distribution_b).version in (1, 2, 3)


class TestPlanObject:
    def test_describe(self):
        pl = engine.plan(kms_toeplitz(16, 0.5), panel=2)
        text = pl.describe()
        assert "spd-schur" in text
        assert "fallback" in text
        assert "panel" in text
        assert pl.fingerprint[:12] in text

    def test_round_trip(self):
        t = kms_toeplitz(16, 0.5)
        pl = engine.plan(t, panel=2, delta=1e-5)
        back = SolverPlan.from_dict(pl.to_dict(), operator=t)
        assert back == pl
        assert back.operator is t

    #: ``to_dict()`` of ``plan(kms_toeplitz(16, 0.5)).with_(use_cache=
    #: False)`` as written before the ``use_cache`` and ``transport``
    #: fields were dropped.
    OLD_PLAN_DICT = {
        "algorithm": "spd-schur", "representation": "vy2",
        "block_size": 1, "structural_block_size": 1, "order": 16,
        "fingerprint": "f78b35c518a2368b1c91ee4e3d4d8962"
                       "ebff4760923515130b62f494c86abbd1",
        "assume": "auto", "fallback": "indefinite+refine", "panel": None,
        "in_place": True, "perturb": True, "delta": None,
        "use_cache": False, "cache": "memory", "nproc": 1,
        "distribution_b": None, "backend": "simulated",
        "schedule": "bulk", "transport": "shared_memory",
        "precision": "fp64", "predicted_seconds": None, "note": ""}

    def test_loads_plan_dict_with_dropped_fields(self, rng):
        t = kms_toeplitz(16, 0.5)
        pl = SolverPlan.from_dict(self.OLD_PLAN_DICT, operator=t)
        assert pl.cache == "off"
        assert pl == engine.plan(t, cache="off")
        engine.execute(pl, rng.standard_normal(t.order))
        assert len(engine.default_cache()) == 0
        kept = dict(self.OLD_PLAN_DICT, use_cache=True)
        assert SolverPlan.from_dict(kept).cache == "memory"

    def test_old_plan_dict_with_other_transport_rejected(self):
        d = dict(self.OLD_PLAN_DICT, transport="carrier_pigeon")
        with pytest.raises(InvalidOptionError, match="transport"):
            SolverPlan.from_dict(d)

    @pytest.mark.parametrize("changes", [
        {"cache": "bogus"},
        {"schedule": "lookahead"},
        {"backend": "bogus"},
        {"precision": "fp32", "nproc": 2},
        {"precision": "mixed"},
    ], ids=["cache", "serial-lookahead", "backend", "distributed-fp32",
            "mixed"])
    def test_with_checks_like_plan(self, changes):
        """A changed plan obeys the rules ``plan()`` enforces."""
        t = kms_toeplitz(16, 0.5)
        kwargs = {"assume": "spd", "cache": "off"}
        with pytest.raises(InvalidOptionError):
            engine.plan(t, **{**kwargs, **changes})
        pl = engine.plan(t, **kwargs)
        with pytest.raises(InvalidOptionError):
            pl.with_(**changes)

    def test_with_checks_distributed_rules(self):
        t = kms_toeplitz(16, 0.5)
        with pytest.raises(ShapeError):
            engine.plan(t).with_(nproc=0)
        lookahead = engine.plan(t, nproc=2, schedule="lookahead")
        with pytest.raises(InvalidOptionError):
            lookahead.with_(distribution_b=2)
        with pytest.raises(InvalidOptionError):
            lookahead.with_(nproc=1)

    @pytest.mark.parametrize("precision", ["bogus", "mixed"])
    def test_from_dict_checks_like_plan(self, precision):
        """A saved plan with an unknown precision (``"mixed"`` was
        removed) raises when it is loaded, not when it runs."""
        d = dict(self.OLD_PLAN_DICT, precision=precision)
        with pytest.raises(InvalidOptionError):
            SolverPlan.from_dict(d)

    @pytest.mark.parametrize("b", [0, -1, np.nan, np.inf, 0.3, 1.5, 0.25])
    def test_distribution_b_checked_when_planned(self, b):
        """A ``b`` that names no distribution on NP = 2 (not finite,
        not positive, neither integral nor of integral inverse, or spread
        over more PEs than there are) raises when the plan is made,
        loaded or changed, not when it runs."""
        t = kms_toeplitz(16, 0.5)
        with pytest.raises(DistributionError):
            engine.plan(t, nproc=2, distribution_b=b)
        pl = engine.plan(t, nproc=2)
        with pytest.raises(DistributionError):
            pl.with_(distribution_b=b)
        with pytest.raises(DistributionError):
            SolverPlan.from_dict(dict(pl.to_dict(), distribution_b=b))

    def test_plans_are_immutable(self):
        pl = engine.plan(kms_toeplitz(8, 0.5))
        with pytest.raises(AttributeError):
            pl.algorithm = "gko"

    def test_with_changes_cache_key(self):
        pl = engine.plan(kms_toeplitz(8, 0.5))
        assert pl.with_(panel=2).cache_key() != pl.cache_key()
        assert pl.with_(cache="off").cache_key() == pl.cache_key()

    def test_toeplitz_block_normalized_with_note(self):
        gammas = np.zeros((3, 2, 2))
        gammas[0] = 4 * np.eye(2)
        gammas[1] = 0.3 * np.eye(2)
        tb = SymmetricToeplitzBlock.from_cross_covariances(gammas)
        pl = engine.plan(tb)
        assert "shuffled" in pl.note
        b = np.ones(tb.order)
        x = engine.execute(pl, b).x
        np.testing.assert_allclose(
            tb.to_block_toeplitz().dense() @ x, b, atol=1e-8)

    def test_convolution_normalized_with_note(self):
        op = ConvolutionOperator(np.array([1.0, 0.5, 0.25]), 12)
        pl = engine.plan(op)
        assert "normal equations" in pl.note
        assert pl.order == op.normal_matrix().order


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
class TestExecute:
    def test_each_algorithm_solves(self, rng):
        t = kms_toeplitz(24, 0.5)
        d = t.dense()
        b = rng.standard_normal(t.order)
        for name in ("spd-schur", "indefinite+refine", "levinson",
                     "pcg", "dense-chol"):
            res = engine.solve(t, b, algorithm=name)
            assert res.algorithm == name
            np.testing.assert_allclose(d @ res.x, b, atol=1e-7,
                                       err_msg=name)

    def test_gko_solves_nonsymmetric(self, rng):
        t = _nonsymmetric()
        b = rng.standard_normal(t.order)
        res = engine.solve(t, b)
        assert res.algorithm == "gko"
        np.testing.assert_allclose(t.dense() @ res.x, b, atol=1e-8)

    def test_fallback_on_breakdown(self, rng):
        t = singular_minor_toeplitz(24, seed=7)
        b = rng.standard_normal(t.order)
        pl = engine.plan(t, probe=False)     # plans SPD, arms fallback
        res = engine.execute(pl, b)
        assert res.fallback_used
        assert res.algorithm == "indefinite+refine"
        np.testing.assert_allclose(t.dense() @ res.x, b, atol=1e-7)

    def test_solve_kwargs_reach_algorithm(self, rng):
        t = singular_minor_toeplitz(24, seed=7)
        b = rng.standard_normal(t.order)
        pl = engine.plan(t)
        res = engine.execute(pl, b, keep_history=True, max_iter=5)
        assert res.detail.history  # refinement recorded its trace

    def test_factor_requires_factor_stage(self):
        pl = engine.plan(kms_toeplitz(8, 0.5), algorithm="levinson")
        with pytest.raises(InvalidOptionError):
            engine.factor(pl)

    def test_detached_plan_rejected(self):
        t = kms_toeplitz(8, 0.5)
        pl = engine.plan(t)
        detached = SolverPlan.from_dict(pl.to_dict())
        with pytest.raises(InvalidOptionError):
            engine.execute(detached, np.ones(8))

    def test_registry_lists_all_entry_points(self):
        names = set(engine.algorithms())
        assert {"spd-schur", "indefinite+refine", "gko", "levinson",
                "pcg", "dense-chol"} <= names


class TestOptionForwarding:
    def test_panel_and_in_place_forwarded(self, rng):
        from repro.core.solve import solve
        t = ar_block_toeplitz(6, 4, seed=2)
        b = rng.standard_normal(t.order)
        x = solve(t, b, panel=2, in_place=False)
        np.testing.assert_allclose(t.dense() @ x, b, atol=1e-8)

    def test_block_size_regroups(self, rng):
        t = kms_toeplitz(32, 0.5)
        b = rng.standard_normal(t.order)
        pl = engine.plan(t, block_size=4)
        res = engine.execute(pl, b)
        np.testing.assert_allclose(t.dense() @ res.x, b, atol=1e-8)


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestCache:
    def test_hit_miss_counters(self, rng):
        cache = FactorizationCache()
        t = kms_toeplitz(32, 0.5)
        pl = engine.plan(t)
        b = rng.standard_normal(t.order)
        r1 = engine.execute(pl, b, cache=cache)
        r2 = engine.execute(pl, b, cache=cache)
        assert (r1.cache_hit, r2.cache_hit) == (False, True)
        s = cache.stats()
        assert (s.hits, s.misses, s.entries) == (1, 1, 1)
        assert s.current_bytes > 0
        assert s.hit_rate == 0.5
        np.testing.assert_allclose(r1.x, r2.x)

    def test_distinct_plans_never_collide(self):
        cache = FactorizationCache()
        t = kms_toeplitz(16, 0.5)
        b = np.ones(t.order)
        engine.execute(engine.plan(t), b, cache=cache)
        engine.execute(engine.plan(t, panel=2), b, cache=cache)
        engine.execute(engine.plan(t, representation="yty"), b,
                       cache=cache)
        assert cache.stats().misses == 3
        assert len(cache) == 3

    def test_lru_eviction(self):
        cache = FactorizationCache(max_entries=1)
        b8 = np.ones(8)
        pl1 = engine.plan(kms_toeplitz(8, 0.5))
        pl2 = engine.plan(kms_toeplitz(8, 0.6))
        engine.execute(pl1, b8, cache=cache)
        engine.execute(pl2, b8, cache=cache)       # evicts pl1's entry
        assert cache.stats().evictions == 1
        assert pl2.cache_key() in cache
        assert pl1.cache_key() not in cache
        res = engine.execute(pl1, b8, cache=cache)  # rebuilt
        assert not res.cache_hit

    @staticmethod
    def _full_cache():
        """A two-entry cache holding two factors, least recent first."""
        cache = FactorizationCache(max_entries=2)
        plans = [engine.plan(kms_toeplitz(8, rho)) for rho in (0.5, 0.6)]
        for pl in plans:
            engine.factor(pl, cache=cache)
        return cache, plans

    def test_miss_makes_room_before_the_build(self, monkeypatch):
        """A build into a full cache sees one entry less than the
        budget, so the tier never holds ``max_entries + 1`` factors."""
        cache, (oldest, kept) = self._full_cache()
        algo = engine.get_algorithm("spd-schur")
        held = []

        def recording(op, pl):
            held.append(len(cache))
            return algo.factor(op, pl)

        monkeypatch.setitem(engine.engine._REGISTRY, "spd-schur",
                            dataclasses.replace(algo, factor=recording))
        new = engine.plan(kms_toeplitz(8, 0.7))
        engine.factor(new, cache=cache)
        assert held == [1]
        assert oldest.cache_key() not in cache
        assert kept.cache_key() in cache and new.cache_key() in cache
        assert cache.stats().evictions == 1

    def test_miss_makes_room_before_the_store_load(self, tmp_path):
        from repro.engine import CacheStore
        store = CacheStore(str(tmp_path / "store"))
        stored = engine.plan(kms_toeplitz(8, 0.7))
        engine.factor(stored, cache=FactorizationCache(), store=store)
        cache, (oldest, kept) = self._full_cache()
        held = []
        load = store.get

        def recording(key):
            held.append(len(cache))
            return load(key)

        store.get = recording
        assert engine.factor(stored, cache=cache, store=store).cache_hit
        assert held == [1]
        assert kept.cache_key() in cache and stored.cache_key() in cache

    def test_failed_build_leaves_a_slot_free(self):
        cache, (oldest, kept) = self._full_cache()
        t = singular_minor_toeplitz(24, seed=7)
        pl = engine.plan(t, probe=False).with_(fallback=None)
        with pytest.raises(NotPositiveDefiniteError):
            engine.factor(pl, cache=cache)
        assert len(cache) == 1 and kept.cache_key() in cache
        assert cache.stats().evictions == 1

    def test_breakdown_fallback_ends_with_one_eviction(self):
        """The SPD build that breaks down and the fallback's build make
        room once between them: the fallback's factor replaces the
        least recent entry, as when eviction followed the insert."""
        cache, (oldest, kept) = self._full_cache()
        t = singular_minor_toeplitz(24, seed=7)
        pl = engine.plan(t, probe=False)     # plans SPD, arms fallback
        assert engine.execute(pl, np.ones(t.order), cache=cache
                              ).fallback_used
        fallback = pl.with_(algorithm=pl.fallback, fallback=None)
        assert len(cache) == 2
        assert kept.cache_key() in cache and fallback.cache_key() in cache
        assert cache.stats().evictions == 1

    def test_concurrent_misses_keep_the_budget(self):
        """Threads missing into a small cache at once: every miss makes
        room and inserts, and no eviction or byte count is lost."""
        from repro.engine.cache import _estimate_nbytes

        cache = FactorizationCache(max_entries=2)
        plans = [engine.plan(kms_toeplitz(8, 0.1 * i)) for i in range(1, 7)]
        b = np.ones(8)

        def worker(seed):
            order = np.random.default_rng(seed).permutation(12) % 6
            for i in order:
                engine.execute(plans[i], b, cache=cache)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,))
                       for s in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        s = cache.stats()
        assert s.hits + s.misses == 48
        assert 1 <= s.entries <= 2
        one = engine.factor(plans[0], cache=FactorizationCache())
        assert s.current_bytes == (s.entries
                                   * _estimate_nbytes(one.factorization))
        assert s.evictions <= s.misses - s.entries

    def test_byte_budget_eviction(self):
        # One packed n=32 factor is 32·33/2·8 = 4224 B; two do not fit.
        cache = FactorizationCache(max_bytes=6_000)
        n, b = 32, np.ones(32)
        engine.execute(engine.plan(kms_toeplitz(n, 0.5)), b, cache=cache)
        engine.execute(engine.plan(kms_toeplitz(n, 0.6)), b, cache=cache)
        s = cache.stats()
        assert s.current_bytes <= 6_000
        assert s.evictions >= 1

    def test_oversized_value_not_cached(self):
        cache = FactorizationCache(max_bytes=100)
        cache.put(("k",), np.zeros(1000))
        assert ("k",) not in cache
        assert len(cache) == 0

    def test_nbytes_counts_nested_payloads(self):
        """Arrays buried arbitrarily deep must count toward the byte
        budget (a depth cutoff used to blind eviction to them)."""
        from repro.engine.cache import _estimate_nbytes

        class Inner:
            def __init__(self):
                self.big = np.zeros(1000)          # 8000 bytes

        class Run:
            def __init__(self):
                self.workers = [{"payload": {"arrays": [Inner()]}}]

        class Fact:
            def __init__(self):
                self.r = np.zeros((10, 10))        # 800 bytes
                self.run = Run()

        est = _estimate_nbytes(Fact())
        assert est >= 8800
        # shared references count once, and cycles terminate
        shared = np.zeros(500)
        cyclic = Fact()
        cyclic.a, cyclic.b = shared, shared
        cyclic.me = cyclic
        est2 = _estimate_nbytes(cyclic)
        assert 8800 + 4000 <= est2 < 8800 + 2 * 4000 + 1000

    def test_oversized_nested_value_not_cached(self):
        """The byte gate sees nested arrays, so a factorization whose
        bulk hides below one container level is still rejected."""
        cache = FactorizationCache(max_bytes=1000)

        class Fact:
            def __init__(self):
                self.meta = {"run": {"workers": [np.zeros(1000)]}}

        cache.put(("k",), Fact())
        assert ("k",) not in cache

    def test_clear_and_reset(self):
        cache = FactorizationCache()
        cache.put(("k",), np.zeros(4))
        assert cache.get(("k",)) is not None
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1
        cache.reset_stats()
        assert cache.stats().hits == 0

    def test_use_cache_false_bypasses_default(self, rng):
        t = kms_toeplitz(16, 0.5)
        b = rng.standard_normal(t.order)
        pl = engine.plan(t, cache="off")
        engine.execute(pl, b)
        engine.execute(pl, b)
        s = engine.default_cache().stats()
        assert (s.hits, s.misses, s.entries) == (0, 0, 0)

    def test_cache_off_via_with_leaves_default_empty(self, rng):
        """The cache axis alone decides: a plan switched to
        ``cache="off"`` after planning caches nothing either."""
        t = kms_toeplitz(16, 0.5)
        pl = engine.plan(t).with_(cache="off")
        engine.execute(pl, rng.standard_normal(t.order))
        assert len(engine.default_cache()) == 0
        assert "cache           off" in pl.describe()

    def test_default_cache_used_otherwise(self, rng):
        t = kms_toeplitz(16, 0.5)
        b = rng.standard_normal(t.order)
        engine.execute(engine.plan(t), b)
        res = engine.execute(engine.plan(t), b)
        assert res.cache_hit
        assert engine.default_cache().stats().hits == 1

    def test_two_thread_smoke(self, rng):
        cache = FactorizationCache()
        t = kms_toeplitz(48, 0.5)
        d = t.dense()
        pl = engine.plan(t)
        engine.execute(pl, np.ones(t.order), cache=cache)  # warm
        errors = []

        def worker(seed):
            r = np.random.default_rng(seed)
            for _ in range(5):
                b = r.standard_normal(t.order)
                res = engine.execute(pl, b, cache=cache)
                if not np.allclose(d @ res.x, b, atol=1e-7):
                    errors.append("bad residual")

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in (1, 2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        s = cache.stats()
        assert s.misses == 1            # only the warm-up factored
        assert s.hits == 10


# ----------------------------------------------------------------------
# Planner backend (tuning) integration
# ----------------------------------------------------------------------
class TestTuningBackend:
    def test_tuning_result_to_plan(self, rng):
        from repro.tuning import tune
        t = kms_toeplitz(128, 0.5)
        res = tune(t.order, t.block_size)
        pl = res.to_plan(t)
        assert pl.block_size == res.block_size
        assert pl.representation == res.representation
        b = rng.standard_normal(t.order)
        x = engine.execute(pl, b).x
        np.testing.assert_allclose(t.dense() @ x, b, atol=1e-7)

    def test_parallel_tuning_plan_drives_simulator(self):
        from repro.parallel import simulate_factorization
        from repro.tuning import tune
        t = kms_toeplitz(64, 0.5).regroup(4)
        res = tune(t.order, t.block_size, nproc=4)
        pl = res.to_plan(t)
        run = simulate_factorization(t, plan=pl)
        assert run.representation == pl.representation
        np.testing.assert_allclose(run.r.T @ run.r, t.dense(),
                                   atol=1e-8)
