"""Tests for the closed-form flop models (eqs. 25–32) and their
agreement with instrumented counts."""

import numpy as np
import pytest

import repro.obs as obs
from repro.blas import primitives as blas
from repro.core import flops as F
from repro.core.schur_spd import SchurOptions, schur_spd_factor
from repro.errors import ShapeError
from repro.obs import MetricsRegistry
from repro.toeplitz import ar_block_toeplitz, kms_toeplitz


class TestBlockingFormulas:
    """Eqs. 25–28 with k = m reduce to the paper's printed totals."""

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_dense_eq25(self, m):
        expect = 6 * m ** 3 + 1.5 * m ** 2 + 11.5 * m
        assert F.blocking_flops("dense", m) == pytest.approx(expect)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_vy1_eq26(self, m):
        expect = (2 + 1 / 3) * m ** 3 + 3.75 * m ** 2 + 8 * m
        assert F.blocking_flops("vy1", m) == pytest.approx(expect, rel=1e-2)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_vy2_eq27(self, m):
        expect = 2 * m ** 3 + 3 * m ** 2 + 8 * m
        assert F.blocking_flops("vy2", m) == pytest.approx(expect)

    @pytest.mark.parametrize("m", [2, 4, 8, 16, 32])
    def test_yty_eq28(self, m):
        expect = (1 + 1 / 3) * m ** 3 + 3.75 * m ** 2 + 8 * m - 1
        assert F.blocking_flops("yty", m) == pytest.approx(expect, rel=1e-2)

    @pytest.mark.parametrize("m", [4, 8, 16, 32])
    def test_blocking_cost_ranking(self, m):
        """Section 6.2: YTYᵀ < VY2 < VY1 < naive U."""
        yty = F.blocking_flops("yty", m)
        vy2 = F.blocking_flops("vy2", m)
        vy1 = F.blocking_flops("vy1", m)
        dense = F.blocking_flops("dense", m)
        assert yty < vy2 < vy1 < dense

    def test_invalid_args(self):
        with pytest.raises(ShapeError):
            F.blocking_flops("vy1", 0)
        with pytest.raises(ShapeError):
            F.blocking_flops("vy1", 4, k=5)
        with pytest.raises(ShapeError):
            F.blocking_flops("zzz", 4)


class TestApplicationFormulas:
    """Eqs. 29–32 with k = m."""

    @pytest.mark.parametrize("m,p", [(2, 10), (4, 8), (8, 16), (7, 3)])
    def test_dense_eq29(self, m, p):
        expect = 7 * m ** 3 * p + m ** 2 * p
        assert F.application_flops("dense", m, p) == pytest.approx(expect)

    @pytest.mark.parametrize("m,p", [(3, 10), (5, 8)])
    def test_vy1_eq30_odd(self, m, p):
        expect = 5 * m ** 3 * p + 4 * m ** 2 * p
        assert F.application_flops("vy1", m, p) == pytest.approx(expect)

    @pytest.mark.parametrize("m,p", [(4, 10), (8, 6)])
    def test_vy1_eq30_even(self, m, p):
        expect = 5 * m ** 3 * p + 3 * m ** 2 * p
        assert F.application_flops("vy1", m, p) == pytest.approx(expect)

    @pytest.mark.parametrize("m,p", [(3, 10), (5, 8)])
    def test_vy2_eq31_odd(self, m, p):
        expect = 5 * m ** 3 * p + 3 * m ** 2 * p
        assert F.application_flops("vy2", m, p) == pytest.approx(expect)

    @pytest.mark.parametrize("m,p", [(4, 10), (8, 6)])
    def test_vy2_eq31_even(self, m, p):
        expect = 5 * m ** 3 * p + 2 * m ** 2 * p
        assert F.application_flops("vy2", m, p) == pytest.approx(expect)

    @pytest.mark.parametrize("m,p", [(4, 10), (5, 8)])
    def test_yty_eq32(self, m, p):
        expect = 5 * m ** 3 * p + 5 * m ** 2 * p
        assert F.application_flops("yty", m, p) == pytest.approx(expect)

    @pytest.mark.parametrize("m", [4, 8, 16])
    def test_application_ranking(self, m):
        """Section 6.3: VY2 cheapest to apply, U most expensive."""
        p = 16
        vy2 = F.application_flops("vy2", m, p)
        vy1 = F.application_flops("vy1", m, p)
        yty = F.application_flops("yty", m, p)
        dense = F.application_flops("dense", m, p)
        assert vy2 <= vy1 < yty < dense

    def test_zero_width(self):
        assert F.application_flops("vy2", 4, 0) == 0

    def test_negative_width_rejected(self):
        with pytest.raises(ShapeError):
            F.application_flops("vy2", 4, -1)


class TestTotals:
    def test_factorization_flops_scaling(self):
        # total ≈ c·m·n² — check linearity in m at fixed n
        n = 256
        f1 = F.factorization_flops(n, 1)
        f4 = F.factorization_flops(n, 4)
        f16 = F.factorization_flops(n, 16)
        assert 2.0 < f4 / f1 < 6.0
        assert 2.0 < f16 / f4 < 6.0

    def test_nominal_total(self):
        assert F.nominal_total_flops(100, 2) == 4 * 2 * 100 * 100

    def test_factorization_flops_same_order_as_nominal(self):
        # model total within a small constant factor of 4mn²
        n, m = 512, 4
        model = F.factorization_flops(n, m)
        nominal = F.nominal_total_flops(n, m)
        assert 0.2 < model / nominal < 3.0

    def test_nonconforming_rejected(self):
        with pytest.raises(ShapeError):
            F.factorization_flops(10, 3)


class TestPrimitiveCalls:
    def test_call_flops(self):
        assert F.PrimitiveCall("dot", (10,)).flops == 19
        assert F.PrimitiveCall("axpy", (10,)).flops == 20
        assert F.PrimitiveCall("scal", (10,)).flops == 10
        assert F.PrimitiveCall("gemv", (3, 4)).flops == 24
        assert F.PrimitiveCall("ger", (3, 4)).flops == 24
        assert F.PrimitiveCall("gemm", (2, 3, 4)).flops == 48
        assert F.PrimitiveCall("trsm", (3, 5)).flops == 45

    def test_unknown_primitive(self):
        with pytest.raises(ShapeError):
            F.PrimitiveCall("foo", (1,)).flops

    @pytest.mark.parametrize("rep", ["vy1", "vy2", "yty", "dense",
                                     "unblocked"])
    def test_step_calls_positive(self, rep):
        calls = F.primitive_calls_for_step(4, 32, representation=rep)
        assert calls
        assert all(c.flops > 0 for c in calls)

    @pytest.mark.parametrize("rep", ["vy2", "yty"])
    def test_step_calls_leading_order_matches_formula(self, rep):
        # primitive decomposition should track the closed form to
        # leading order in the application-dominated regime
        m, p = 8, 64
        calls = F.primitive_calls_for_step(m, p * m, representation=rep)
        total = sum(c.flops for c in calls)
        formula = F.step_flops(rep, m, p)
        assert 0.5 < total / formula < 2.0

    def test_factorization_calls_include_setup(self):
        calls = F.primitive_calls_for_factorization(16, 2)
        assert calls[0].name == "trsm"


class TestCountedVsModel:
    """Instrumented flop counts from the real implementation should track
    the paper's formulas to leading order."""

    @pytest.mark.parametrize("rep", ["vy1", "vy2", "yty"])
    def test_factorization_counted_flops(self, rep):
        t = ar_block_toeplitz(16, 4, seed=1)
        with blas.counting() as c:
            schur_spd_factor(t, options=SchurOptions(representation=rep))
        model = F.factorization_flops(64, 4, representation=rep)
        assert 0.3 < c.total / model < 3.0

    def test_categories_present(self):
        t = ar_block_toeplitz(8, 4, seed=2)
        with blas.counting() as c:
            schur_spd_factor(t)
        assert "application" in c.by_category
        assert "blocking" in c.by_category
        assert "panel" in c.by_category

    def test_application_dominates_for_wide_problems(self):
        t = kms_toeplitz(256, 0.5).regroup(4)
        with blas.counting() as c:
            schur_spd_factor(t)
        assert c.by_category["application"] > c.by_category["blocking"]

    def test_counted_scaling_linear_in_ms(self):
        # Section 6.5: counted work grows ≈ linearly with m_s.
        t = kms_toeplitz(128, 0.5)
        totals = {}
        for ms in (2, 4, 8):
            with blas.counting() as c:
                schur_spd_factor(t.regroup(ms))
            totals[ms] = c.total
        assert 1.5 < totals[4] / totals[2] < 2.8
        assert 1.5 < totals[8] / totals[4] < 2.8


#: Counted flops of ``schur_spd_factor(ar_block_toeplitz(16, 4, seed=1))``
#: per configuration: (total, by_category, by_primitive).
_GENERATOR = {"potrf": 21, "trsm": 2048}
COUNT_PINS = {
    "vy1": (65309,
            {"application": 53760, "blocking": 5880, "misc": 2069,
             "panel": 3600},
            {"axpy": 600, "gemm": 53760, "gemv": 4080, "ger": 1200,
             "reflector-setup": 1920, "scal": 1680, **_GENERATOR}),
    "vy2": (65309,
            {"application": 53760, "blocking": 5880, "misc": 2069,
             "panel": 3600},
            {"axpy": 600, "gemm": 53760, "gemv": 2640, "ger": 2640,
             "reflector-setup": 1920, "scal": 1680, **_GENERATOR}),
    "yty": (77459,
            {"application": 67200, "blocking": 4590, "misc": 2069,
             "panel": 3600},
            {"axpy": 600, "gemm": 67200, "gemv": 3060, "ger": 1200,
             "reflector-setup": 1920, "scal": 1410, **_GENERATOR}),
    "unblocked": (41189,
                  {"application": 33600, "blocking": 1920, "misc": 2069,
                   "panel": 3600},
                  {"axpy": 600, "gemv": 18000, "ger": 18000,
                   "reflector-setup": 1920, "scal": 600, **_GENERATOR}),
    "dense": (78629,
              {"application": 53760, "blocking": 19200, "misc": 2069,
               "panel": 3600},
              {"axpy": 600, "gemm": 61440, "gemv": 6000, "ger": 6000,
               "reflector-setup": 1920, "scal": 600, **_GENERATOR}),
    "vy2-panel2": (63269,
                   {"application": 55680, "blocking": 3360, "misc": 2069,
                    "panel": 2160},
                   {"axpy": 360, "gemm": 55680, "gemv": 1200, "ger": 1200,
                    "reflector-setup": 1920, "scal": 840, **_GENERATOR}),
}


class TestCountPins:
    """The column step charges its flops itself, batched per step, rather
    than through counted BLAS calls; the eqs. 25–32 validation needs the
    counts exactly as those calls would charge them."""

    @pytest.mark.parametrize("config", sorted(COUNT_PINS))
    def test_counts_unchanged(self, config):
        rep, _, panel = config.partition("-panel")
        options = SchurOptions(representation=rep,
                               panel=int(panel) if panel else None)
        with blas.counting() as c:
            schur_spd_factor(ar_block_toeplitz(16, 4, seed=1),
                             options=options)
        total, by_category, by_primitive = COUNT_PINS[config]
        assert c.total == total
        assert c.by_category == by_category
        assert c.by_primitive == by_primitive

    def test_phase_split_on_the_eliminate_span(self):
        prev = obs.set_default_registry(MetricsRegistry())
        obs.enable()
        try:
            with obs.span("test") as root:
                schur_spd_factor(ar_block_toeplitz(16, 4, seed=1))
        finally:
            obs.disable()
            obs.set_default_registry(prev)
        eliminate = next(s for s in root.walk()
                         if s.name == "schur.eliminate")
        assert {"blocking", "panel", "application"} <= set(eliminate.phases)
