import dataclasses
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import catalog_names
from dense_operator import evaluate_with_table_den as dense_evaluate
from maxprod import kernels, operators, signals
from maxprod.errors import (QuadratureError, TruncationError,
                            UnknownNameError)
from maxprod.quadrature import adaptive

FEJER_AT_THREE_HALVES = 4.0 / (9.0 * math.pi ** 2)


def ev(kernel, x):
    return float(kernel.evaluate(np.asarray(x, dtype=float)))


class TestCatalogValues:
    def test_fejer_point_values(self, fejer_kernel):
        assert ev(fejer_kernel, 0.0) == 0.5
        assert ev(fejer_kernel, 2.0) == pytest.approx(0.0, abs=1e-30)
        assert ev(fejer_kernel, 1.5) == pytest.approx(FEJER_AT_THREE_HALVES,
                                                      abs=1e-15)

    def test_fejer_l1_norm_by_quadrature(self, fejer_kernel):
        # independent oracle: adaptive quadrature on the decay-bounded window
        assert kernels.l1_norm(fejer_kernel) == pytest.approx(1.0, abs=1e-6)

    def test_vallee_poussin_values(self, vp_kernel):
        assert ev(vp_kernel, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-15)
        assert ev(vp_kernel, 2.0 * math.pi / 3.0) == pytest.approx(0.0,
                                                                   abs=1e-15)

    def test_vallee_poussin_lower_bound(self, vp_kernel):
        a = kernels.lower_bound_constant(vp_kernel, "interval")
        assert a == pytest.approx(0.1048, abs=1e-3)

    def test_vallee_poussin_has_negative_lobe(self, vp_kernel):
        xs = np.linspace(2.0, 4.0, 512)
        assert np.min(vp_kernel.evaluate(xs)) < -1e-3

    @pytest.mark.parametrize("x,expected", [(0.0, 0.75), (1.0, 0.125),
                                            (2.0, 0.0), (-1.0, 0.125)])
    def test_bspline3_piecewise_values(self, m3_kernel, x, expected):
        assert ev(m3_kernel, x) == pytest.approx(expected, abs=1e-14)

    def test_bspline4_at_origin(self, m4_kernel):
        assert ev(m4_kernel, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_bspline_rejects_bad_order(self):
        for order in (0, kernels.MAX_BSPLINE_ORDER + 1, 40, 2000, 2.5):
            with pytest.raises(ValueError):
                kernels.bspline(order)

    def test_bspline_matches_exact_rationals(self):
        # every accepted order to 1e-12 against the same alternating sum in
        # exact arithmetic; order 10 misses it by 2.0e-12
        def exact(order, x):
            x, half = Fraction(x), Fraction(order, 2)
            if order == 1:   # the indicator of [-1/2, 1/2)
                return Fraction(int(-half <= x < half))
            return sum((-1) ** i * math.comb(order, i)
                       * max(x + half - i, 0) ** (order - 1)
                       for i in range(order + 1)) / math.factorial(order - 1)

        for order in range(1, kernels.MAX_BSPLINE_ORDER + 1):
            xs = np.linspace(-0.5 * order, 0.5 * order, 401)
            got = kernels.bspline(order).evaluate(xs)
            err = max(abs(Fraction(float(v)) - exact(order, x))
                      for v, x in zip(got, xs))
            assert err <= 1e-12, (order, float(err))

    @pytest.mark.parametrize("order", range(1, kernels.MAX_BSPLINE_ORDER + 1))
    def test_bspline_bitwise_equal_to_the_out_of_place_sum(self, rng, order):
        # the in-place sum drops the last term, always zero, and must round
        # as the plain sum of all n + 1 terms did, on arrays and on scalars
        half = 0.5 * order
        signs = [(-1.0) ** i * math.comb(order, i) for i in range(order + 1)]
        fact = float(math.factorial(order - 1))

        def plain(x):
            x = np.asarray(x, dtype=float)
            if order == 1:
                return np.where((x >= -0.5) & (x < 0.5), 1.0, 0.0)
            xc = np.minimum(np.maximum(x, -half), half)
            acc = np.zeros_like(xc)
            for i, c in enumerate(signs):
                acc = acc + c * np.maximum(half + xc - i, 0.0) ** (order - 1)
            return np.where(np.abs(x) >= half, 0.0, acc / fact)

        edges = np.arange(-2 * math.ceil(half + 1),
                          2 * math.ceil(half + 1) + 1) / 2.0
        xs = np.concatenate([
            rng.uniform(-half - 1.0, half + 1.0, 200_000), edges,
            np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
            [0.0, -0.0, 1e300, -1e300]])
        evaluate = kernels.bspline(order).evaluate
        assert evaluate(xs).tobytes() == plain(xs).tobytes()
        for x in xs[:200]:
            assert evaluate(x).tobytes() == plain(x).tobytes()

    def test_bspline_zero_outside_support(self, m4_kernel):
        xs = np.array([2.0, 2.5, 10.0, -3.0, 1e6])
        assert np.all(m4_kernel.evaluate(xs) == 0.0)

    def test_kernel_by_name_roundtrip(self):
        assert kernels.kernel_by_name("fejer").name == "fejer"
        assert kernels.kernel_by_name("bspline:5").support == 2.5
        with pytest.raises(UnknownNameError):
            kernels.kernel_by_name("gauss")
        with pytest.raises(UnknownNameError):
            kernels.kernel_by_name("bspline:x")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(catalog_names("bspline:", "fejer", "vallee-poussin"))
    @example("bspline:10")
    @example("bspline:40")
    @example("bspline:2000")
    def test_kernel_by_name_fuzz(self, name):
        # a name gives a catalog kernel with finite constants, or an
        # UnknownNameError
        try:
            kernel = kernels.kernel_by_name(name)
        except UnknownNameError:
            return
        orders = range(1, kernels.MAX_BSPLINE_ORDER + 1)
        assert kernel.name in ("fejer", "vallee-poussin",
                               *(f"bspline:{k}" for k in orders))
        assert all(math.isfinite(c) for c in (
            kernel.support, kernel.decay_order, kernel.sup_norm,
            kernel.l1_norm) if c is not None)


class TestMoments:
    def test_moment_zero_equals_sup(self, fejer_kernel, m3_kernel):
        # every real u is x - k for some x in [0, 1), so the order-0 moment
        # is the sup norm; grid-search oracle pins both catalog cases
        assert kernels.moment(fejer_kernel, 0.0) == pytest.approx(
            0.5, abs=1e-9)
        assert kernels.moment(m3_kernel, 0.0) == pytest.approx(0.75, abs=1e-9)

    def test_moment_critical_order(self, fejer_kernel):
        # at the critical order the lattice terms stop decaying; the sup is
        # attained along odd integers where sin^2(pi u / 2) = 1
        assert kernels.moment(fejer_kernel, 2.0) == pytest.approx(
            2.0 / math.pi ** 2, rel=1e-9)

    def test_moment_divergence(self, fejer_kernel):
        assert math.isinf(kernels.moment(fejer_kernel, 5.0))

    def test_moment_monotone_in_order(self, catalog_kernels):
        # finite at beta implies finite below beta, and m_0 <= sup norm
        for kernel in catalog_kernels:
            beta = 2.0 if kernel.support is None else 4.0
            for v in (0.0, 0.5 * beta, beta):
                assert math.isfinite(kernels.moment(kernel, v))
            m0 = kernels.moment(kernel, 0.0)
            assert m0 <= kernel.sup_norm + 1e-9

    @pytest.mark.parametrize("beta", [0.0, 1.0, 2.0])
    def test_lattice_shift_reduction(self, catalog_kernels, beta):
        # the outer sup over one period matches ten periods, searched over
        # 64 lattice columns either side
        for kernel in catalog_kernels:
            base = kernels.moment(kernel, beta)
            wide = kernels._outer_sup(kernel, beta, 64, (-5.0, 5.0))
            assert abs(base - wide) <= 2e-6

    def test_compact_support_truncation_exact(self, m4_kernel):
        jw = int(math.ceil(m4_kernel.support)) + 2
        xs = np.linspace(0.0, 1.0, 257, endpoint=False)
        tight = kernels._inner_sup(m4_kernel, 1.0, xs, jw)
        wide = kernels._inner_sup(m4_kernel, 1.0, xs, jw + 7)
        assert np.array_equal(tight, wide)

    def test_moment_requires_certificate(self):
        bare = kernels.Kernel("bare", lambda x: np.exp(-np.abs(x)))
        with pytest.raises(TruncationError):
            kernels.moment(bare, 1.0)


class TestLowerBound:
    def test_fejer_bounded_interval(self, fejer_kernel):
        a = kernels.lower_bound_constant(fejer_kernel, "interval")
        assert a == pytest.approx(FEJER_AT_THREE_HALVES, abs=1e-12)

    def test_fejer_real_line(self, fejer_kernel):
        # even, decreasing on [0, 1/2]: the inf sits at the endpoint
        assert kernels.lower_bound_constant(fejer_kernel, "line") == \
            pytest.approx(4.0 / math.pi ** 2, abs=1e-12)

    def test_bspline3_boundary_zero(self, m3_kernel):
        a = kernels.lower_bound_constant(m3_kernel, "interval")
        assert a == pytest.approx(0.0, abs=1e-12)
        assert kernels.lower_bound_constant(m3_kernel, "line") == \
            pytest.approx(0.5, abs=1e-12)

    def test_bounded_inf_below_line_inf(self, catalog_kernels):
        # the bounded-domain interval contains the line one
        for kernel in catalog_kernels:
            a_bounded = kernels.lower_bound_constant(kernel, "interval")
            a_line = kernels.lower_bound_constant(kernel, "line")
            assert a_bounded <= a_line + 1e-12

    @pytest.mark.parametrize("kind", ["bounded", "real_line", "Line"])
    def test_only_two_domain_kinds(self, fejer_kernel, kind):
        # the CLI's other spellings of a domain stop at the CLI
        with pytest.raises(ValueError, match="'interval' or 'line'"):
            kernels.lower_bound_constant(fejer_kernel, kind)
        with pytest.raises(ValueError, match="'interval' or 'line'"):
            kernels.check_assumptions(fejer_kernel, kind, 2.0)


# a_chi of the catalog, pinned bit for bit: admissibility reads its sign,
# and bspline:3's -2**-50 on the interval is rounding noise of the spline
CATALOG_A_CHI = {
    "fejer": ("0x1.70e6301e60656p-5", "0x1.9f02f6222c71fp-2"),
    "vallee-poussin": ("0x1.ad1c6a4bc8f08p-4", "0x1.32fffef60d324p-2"),
    "bspline:1": ("0x0.0p+0", "0x0.0p+0"),
    "bspline:2": ("0x0.0p+0", "0x1.0000000000000p-1"),
    "bspline:3": ("-0x1.0000000000000p-50", "0x1.0000000000000p-1"),
    "bspline:4": ("0x1.5555555555555p-6", "0x1.eaaaaaaaaaaabp-2"),
    "bspline:5": ("0x1.5555555555555p-5", "0x1.d555555555555p-2"),
    "bspline:6": ("0x1.f99999999999ap-5", "0x1.c088888888889p-2"),
}


def _bump(name, value):
    """Kernel with support [-2, 2] that is ``value(u)`` inside it."""
    return kernels.Kernel(
        name, lambda u: np.where(np.abs(u) < 2.0, value(np.asarray(u)), 0.0),
        support=2.0)


class TestZoom:
    """The grid plus zoom search finds extrema that lie between grid points."""

    @pytest.mark.parametrize("kind", ["interval", "line"])
    def test_infimum_between_grid_points(self, kind):
        # 0.3 is 409.6 grid steps into [-3/2, 3/2] and 1228.8 into
        # [-1/2, 1/2]: the best grid point is 8.6e-8 and 2.4e-9 too high
        ker = _bump("valley", lambda u: 0.25 + (u - 0.3) ** 2)
        assert kernels.lower_bound_constant(ker, kind) == pytest.approx(
            0.25, rel=1e-14, abs=0.0)

    def test_moment_maximum_between_grid_points(self):
        u0 = 0.3
        ker = _bump("hill", lambda u: np.maximum(0.75 - (u - u0) ** 2, 0.0))
        assert kernels.moment(ker, 0.0) == pytest.approx(0.75, rel=1e-14,
                                                         abs=0.0)
        # d/du [u (3/4 - (u - u0)^2)] = 0 at the root of a quadratic
        u1 = (4.0 * u0 + math.sqrt(4.0 * u0 ** 2 + 9.0)) / 6.0
        assert kernels.moment(ker, 1.0) == pytest.approx(
            u1 * (0.75 - (u1 - u0) ** 2), rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("name", sorted(CATALOG_A_CHI))
    def test_catalog_a_chi_bitwise(self, name):
        ker = kernels.kernel_by_name(name)
        got = tuple(kernels.lower_bound_constant(ker, kind).hex()
                    for kind in ("interval", "line"))
        assert got == CATALOG_A_CHI[name]


class TestAssumptions:
    def test_fejer_admissible_with_beta_two(self, fejer_kernel):
        diag = kernels.check_assumptions(fejer_kernel, "line", beta=2.0)
        assert diag.satisfies_chi1 and diag.admissible

    def test_bspline3_bounded_fails(self, m3_kernel):
        diag = kernels.check_assumptions(m3_kernel, "interval", beta=1.0)
        assert not diag.admissible
        assert not diag.satisfies_chi2
        assert diag.satisfies_chi2_prime

    def test_bspline4_bounded_passes(self, m4_kernel):
        diag = kernels.check_assumptions(m4_kernel, "interval", beta=1.0)
        assert diag.admissible and diag.satisfies_chi2

    def test_chi2_implies_chi2_prime(self, catalog_kernels):
        for kernel in catalog_kernels:
            diag = kernels.check_assumptions(kernel, "interval", beta=1.0)
            if diag.satisfies_chi2:
                assert diag.satisfies_chi2_prime

    def test_divergent_moment_flagged_not_raised(self, fejer_kernel):
        diag = kernels.check_assumptions(fejer_kernel, "interval", beta=5.0)
        assert not diag.satisfies_chi1
        assert not diag.admissible


class TestKernelInvariants:
    @given(st.floats(min_value=-50.0, max_value=50.0))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_catalog_evenness(self, x):
        for kernel in (kernels.fejer(), kernels.de_la_vallee_poussin(),
                       kernels.bspline(3), kernels.bspline(4)):
            left = ev(kernel, -x)
            right = ev(kernel, x)
            assert left == pytest.approx(right, abs=1e-12)

    def test_sup_norm_bound(self, catalog_kernels, rng):
        xs = rng.uniform(-100.0, 100.0, size=2000)
        for kernel in catalog_kernels:
            vals = np.abs(kernel.evaluate(xs))
            assert np.max(vals) <= kernel.sup_norm + 1e-12

    def test_evaluate_finite_everywhere(self, catalog_kernels):
        xs = np.array([0.0, 1e-12, -1e-12, 1.0, 1e3, -1e6, 1e150])
        for kernel in catalog_kernels:
            assert np.all(np.isfinite(kernel.evaluate(xs)))

    def test_bspline_partition_of_unity(self, m4_kernel, rng):
        us = rng.uniform(-3.0, 3.0, size=64)
        ks = np.arange(-12, 13, dtype=float)
        sums = np.sum(m4_kernel.evaluate(us[:, None] - ks[None, :]), axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_l1_norm_cached(self, vp_kernel):
        first = kernels.ensure_l1(vp_kernel)
        assert vp_kernel.constants[("ensure_l1",)] == first
        t0 = time.perf_counter()
        second = kernels.ensure_l1(vp_kernel)
        assert second == first
        assert time.perf_counter() - t0 < 0.01

    def test_lattice_constants_computed_once(self):
        ker = kernels.fejer()
        base = ker.evaluate
        calls = []

        def counting(x):
            calls.append(np.size(x))
            return base(x)

        ker.evaluate = counting
        m0 = kernels.moment(ker, 0.0)
        a_chi = kernels.lower_bound_constant(ker, "interval")
        m1 = kernels.moment(ker, 1.0)
        kernels.moment(ker, 2.0)   # the critical order's tail search
        assert min(calls) > 1      # every search evaluates arrays
        calls.clear()
        assert kernels.moment(ker, 0.0) == m0
        assert kernels.lower_bound_constant(ker, "interval") == a_chi
        assert kernels.moment(ker, 1.0) == m1
        assert calls == []
        fresh = kernels.fejer()
        assert kernels.moment(fresh, 0.0).hex() == m0.hex()
        assert kernels.lower_bound_constant(fresh, "interval").hex() \
            == a_chi.hex()
        assert kernels.moment(fresh, 1.0).hex() == m1.hex()

    def test_vp_declared_l1_is_the_computed_one(self, vp_kernel):
        # recorded from l1_norm, not closed-form
        bare = dataclasses.replace(vp_kernel, l1_norm=None)
        assert kernels.ensure_l1(bare) == pytest.approx(
            vp_kernel.l1_norm, rel=1e-12, abs=0.0)

    def test_vp_l1_against_coarse_window(self, vp_kernel):
        # sanity envelope: most of the mass sits in [-64, 64]
        coarse = adaptive(lambda x: np.abs(vp_kernel.evaluate(x)),
                          np.linspace(-64.0, 64.0, 257), atol=1e-8)
        full = kernels.l1_norm(vp_kernel)
        assert coarse <= full <= coarse + 0.02


class TestLatticeEnvelope:
    """The catalog's declared lattice envelopes, which the operator's block
    search trusts to skip columns at least one unit from u."""

    @pytest.mark.parametrize("name", ["fejer", "vallee-poussin"])
    @pytest.mark.parametrize("centre", [0.0, 3.0 * 2.0 ** 20, -2.0 ** 40,
                                        2.0 ** 40 + 0.5])
    def test_declared_rows_bound_the_terms(self, name, centre):
        # every phase of u near the centre, every k within 64 of it and
        # some up to 2**30 away; row k mod P bounds the positive part of
        # chi(u - k) |u - k|**2, the last row its negative part
        kernel = kernels.kernel_by_name(name)
        u = centre + np.linspace(-2.0, 2.0, 1601)
        far = 2.0 ** np.arange(7, 31)
        k = round(centre) + np.concatenate([np.arange(-64.0, 65.0), far,
                                            -far, far + 1, -far - 1])
        v = u[:, None] - k
        terms = np.where(np.abs(v) >= 1.0,
                         kernel.evaluate(v) * v ** kernel.decay_order, 0.0)
        for col, kk in zip(terms.T, k):
            bound = kernels.lattice_envelope(kernel, u, abs(kk))
            assert np.all(col <= bound[int(kk % (len(bound) - 1))])
            assert np.all(-col <= bound[-1])
        assert (terms < 0).any() == (name == "vallee-poussin")

    @pytest.mark.parametrize("domain", [None, (0.0, 96.0)])
    def test_rows_at_phase_zero(self, domain):
        # at u = n x even, fejer's even columns have phase zero and are
        # bounded by the slack alone; one ulp off, by a phase of ~1e-13
        n = 512
        config = operators.operator_config(kernels.fejer(), n, domain)
        table = signals.mean_values(signals.catalog("hat"), n, domain) \
            if domain is None else signals.MeanValueTable(
                n=n, k_lo=0, k_hi=96 * n - 1, domain=domain,
                values=np.where(np.arange(96 * n) >= 90 * n, 1.0, 0.0))
        x = 2.0 * np.array([384, 1000, 4321, 24576]) / n
        xs = np.concatenate([x, np.nextafter(x, -np.inf),
                             np.nextafter(x, np.inf)])
        xs = xs[(xs >= 0.0) & (xs <= 96.0)] if domain else xs
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        want, want_den = dense_evaluate(config, table, xs)
        assert got.tobytes() == want.tobytes() and got_den == want_den


def test_adaptive_gives_up_at_the_live_panel_cap():
    # about 3e8 periods: every round halves all live panels, so without a
    # cap the panel arrays double for 48 rounds
    with pytest.raises(QuadratureError, match="live panels"):
        adaptive(lambda x: np.sin(1e9 * x) ** 2, [0.0, 1.0])


def test_adaptive_live_panel_cap_grows_with_the_edges():
    # 160,000 panels, each quarter period of a triangle wave whose kinks no
    # edge marks: every round keeps 80,000 kinked panels live, and a fixed
    # cap of 2**17 live panels gave up on them
    edges = np.linspace(0.0, 1.0, 160_001)
    value = adaptive(lambda x: np.abs((40_000 * x + 0.123) % 1.0 - 0.5), edges)
    assert value == pytest.approx(0.25, abs=1e-12)


def test_adaptive_stops_on_the_global_budget_at_kinks():
    # |x - c| with an unmarked kink: each result within atol + rtol |I|,
    # in fewer integrand calls than chasing the kink to a panel as narrow
    # as its share of atol (1,629 calls for these 50 c, against 961)
    calls = []

    def kinked(c):
        return lambda x: (calls.append(1), np.abs(x - c))[1]

    for c in np.random.default_rng(0).uniform(0.0, 1.0, size=50):
        exact = 0.5 * (c * c + (1.0 - c) ** 2)
        value = adaptive(kinked(c), [0.0, 1.0], atol=1e-12)
        assert abs(value - exact) <= 1e-12 + 1e-12 * exact
    assert len(calls) <= 1100


def test_adaptive_evaluates_each_node_once():
    # one call on the edges and midpoints, then one per round on the quarter
    # points of the live panels: 1 + rounds calls, no node twice
    calls = []

    def integrand(x):
        calls.append(np.array(x))
        return np.sqrt(x)

    value = adaptive(integrand, np.linspace(0.0, 1.0, 5), atol=1e-10)
    assert value == pytest.approx(2.0 / 3.0, rel=1e-9)
    assert calls[0].size == 2 * 4 + 1 and len(calls) > 2
    assert all(c.size % 2 == 0 for c in calls[1:])
    nodes = np.concatenate(calls)
    assert np.unique(nodes).size == nodes.size
