import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import catalog_names
from maxprod import analysis, operators, orlicz, quadrature, signals
from maxprod.errors import (InvalidInputError, MaxprodError, QuadratureError,
                           UnknownNameError)

SHIPPED = [orlicz.power_phi(1), orlicz.power_phi(2), orlicz.zygmund_phi(1, 1),
           orlicz.zygmund_phi(2, 1.5), orlicz.exponential_phi(1),
           orlicz.exponential_phi(2)]


def phi_at(phi, u):
    with np.errstate(over="ignore"):   # as the Orlicz functionals do
        return float(phi.evaluate(np.asarray(u, dtype=float)))


class TestPhiFamilies:
    def test_power_values_and_flags(self):
        p2 = orlicz.power_phi(2)
        assert phi_at(p2, 3.0) == 9.0
        assert phi_at(orlicz.power_phi(1), 0.0) == 0.0
        assert p2.delta2 and p2.convex
        with pytest.raises(ValueError):
            orlicz.power_phi(0.5)

    def test_zygmund_values_and_flags(self):
        z = orlicz.zygmund_phi(1, 1)
        assert phi_at(z, 0.0) == 0.0
        u = math.e ** 2 - math.e
        assert phi_at(z, u) == pytest.approx(2.0 * u, rel=1e-14)
        assert z.delta2 and z.convex
        with pytest.raises(ValueError):
            orlicz.zygmund_phi(0.9, 1.0)
        with pytest.raises(ValueError):
            orlicz.zygmund_phi(1.0, 0.0)

    def test_exponential_values_and_flags(self):
        e1 = orlicz.exponential_phi(1)
        assert phi_at(e1, math.log(2.0)) == pytest.approx(1.0, rel=1e-14)
        assert phi_at(orlicz.exponential_phi(2), 0.0) == 0.0
        assert not e1.delta2
        assert e1.convex
        assert not orlicz.exponential_phi(0.5).convex
        with pytest.raises(ValueError):
            orlicz.exponential_phi(0.0)

    def test_phi_by_name(self):
        assert orlicz.phi_by_name("power:2").name == "power:2"
        assert orlicz.phi_by_name("zygmund:1,1").delta2
        assert not orlicz.phi_by_name("exponential:0.5").delta2
        with pytest.raises(UnknownNameError):
            orlicz.phi_by_name("young:1")
        with pytest.raises(UnknownNameError):
            orlicz.phi_by_name("power:x")

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(catalog_names("power:", "zygmund:", "exponential:"))
    @example("power:nan")
    @example("power:inf")
    @example("zygmund:nan,1")
    @example("zygmund:1,1e400")
    @example("exponential:nan")
    def test_phi_by_name_fuzz(self, name):
        # a name gives a phi-function with finite parameters, or an
        # UnknownNameError
        try:
            phi = orlicz.phi_by_name(name)
        except UnknownNameError:
            return
        params = phi.name.split(":")[1].split(",")
        assert all(math.isfinite(float(p)) for p in params)

    @given(st.floats(min_value=0.0, max_value=40.0),
           st.floats(min_value=0.0, max_value=40.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_axiom_monotone(self, u, v):
        lo, hi = sorted((u, v))
        for phi in SHIPPED:
            assert phi_at(phi, lo) <= phi_at(phi, hi) + 1e-12

    @given(st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=20.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_convexity_of_flagged_instances(self, u, v, t):
        for phi in SHIPPED:
            if not phi.convex:
                continue
            mix = phi_at(phi, t * u + (1.0 - t) * v)
            bound = t * phi_at(phi, u) + (1.0 - t) * phi_at(phi, v)
            assert mix <= bound + 1e-9 * (1.0 + abs(bound))

    def test_axioms_zero_positive_unbounded(self):
        for phi in SHIPPED:
            assert phi_at(phi, 0.0) == 0.0
            assert phi_at(phi, 1e-6) > 0.0
            assert phi_at(phi, 1e6) >= 1e6 or math.isinf(phi_at(phi, 1e6))


class TestModular:
    def test_ramp_square_integral(self):
        ramp = signals.catalog("ramp")
        value = orlicz.modular(orlicz.power_phi(2), ramp, (0.0, 1.0))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_zero_signal(self):
        zero = signals.catalog("constant:0")
        for phi in SHIPPED:
            assert orlicz.modular(phi, zero, (0.0, 1.0)) == 0.0

    def test_exponential_constant(self):
        one = signals.catalog("constant:1")
        value = orlicz.modular(orlicz.exponential_phi(1), one, (0.0, 2.0),
                               scale=1.0)
        assert value == pytest.approx(2.0 * (math.e - 1.0), rel=1e-10)

    def test_divergence_reported_as_inf(self):
        big = signals.catalog("constant:50")
        value = orlicz.modular(orlicz.exponential_phi(2), big, (0.0, 1.0))
        assert math.isinf(value)

    @pytest.mark.parametrize("bad", [(800.0,), (math.nan,),
                                     (800.0, math.nan)])
    def test_non_finite_phi_values_are_inf(self, bad):
        # exp(800) overflows and NaN propagates: the weights are positive,
        # so the weighted sum is not finite and reads as divergence
        phi = orlicz.exponential_phi(1)
        values = np.array([0.5, *bad, 1.0, -2.0])   # |f| is taken
        weights = np.full(values.size, 1.0 / values.size)
        assert orlicz.modular_from_samples(phi, values, weights) == math.inf
        if any(map(math.isnan, bad)):   # a NaN sample has no norm
            with pytest.raises(MaxprodError, match="finite samples"):
                orlicz.luxemburg_from_samples(phi, values, weights, 1e-9)
            return
        # the loop starts at lam = 800, where no scaled sample passes 1
        lam = orlicz.luxemburg_from_samples(phi, values, weights, 1e-9)
        assert orlicz.modular_from_samples(phi, values / lam, weights) \
            <= 1.0 < orlicz.modular_from_samples(
                phi, values / (lam * (1.0 - 1e-8)), weights)

    def test_monotone_under_pointwise_domination(self, rng):
        poly = signals.random_piecewise_poly(rng)
        f = poly.to_signal(name="f")
        lift = signals.PiecewisePoly(poly.domain, [(0.25,)])
        g = (poly + lift).to_signal(name="g")  # g >= f pointwise
        for phi in SHIPPED[:4]:
            mf = orlicz.modular(phi, f, (0.0, 1.0))
            mg = orlicz.modular(phi, g, (0.0, 1.0))
            assert mf <= mg + 1e-12

    def test_breakpoint_split_matches_exact_integral(self, rng):
        poly = signals.random_piecewise_poly(rng)
        sig = poly.to_signal()
        value = orlicz.modular(orlicz.power_phi(1), sig, (0.0, 1.0))
        assert value == pytest.approx(poly.integral(0.0, 1.0), abs=1e-10)


class TestLuxemburg:
    def test_unit_constant(self):
        one = signals.catalog("constant:1")
        assert orlicz.luxemburg_norm(orlicz.power_phi(2), one,
                                     (0.0, 1.0)) == pytest.approx(1.0,
                                                                  abs=1e-9)

    def test_exponential_closed_form(self):
        two = signals.catalog("constant:2")
        value = orlicz.luxemburg_norm(orlicz.exponential_phi(1), two,
                                      (0.0, 1.0))
        assert value == pytest.approx(2.0 / math.log(2.0), rel=1e-8)

    def test_zero_signal_returns_zero(self):
        zero = signals.catalog("constant:0")
        assert orlicz.luxemburg_norm(orlicz.power_phi(2), zero,
                                     (0.0, 1.0)) == 0.0
        assert orlicz.luxemburg_from_samples(
            orlicz.power_phi(2), np.zeros(4), np.full(4, 0.25), 1e-9) == 0.0

    @pytest.mark.parametrize("name", ["power:1", "power:2", "zygmund:1,1"])
    def test_tiny_constant_is_not_zero(self, name):
        # for a constant c on a unit window the norm is c times the norm of 1
        phi = orlicz.phi_by_name(name)
        unit = orlicz.luxemburg_norm(phi, signals.catalog("constant:1"),
                                     (0.0, 1.0))
        tiny = signals.catalog("constant:1e-15")
        expected = 1e-15 * unit
        assert orlicz.luxemburg_norm(phi, tiny, (0.0, 1.0)) == \
            pytest.approx(expected, rel=1e-8, abs=0.0)
        assert orlicz.luxemburg_from_samples(
            phi, np.full(4, 1e-15), np.full(4, 0.25), 1e-9) == \
            pytest.approx(expected, rel=1e-8, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 5.0])
    def test_matches_direct_lp_norm(self, p, rng):
        # identity: inf{lam : integral |f/lam|^p <= 1} is the p-norm, here
        # from the exact integral of the non-negative polynomial f**p
        phi = orlicz.power_phi(p)
        for _ in range(8):
            poly = signals.random_piecewise_poly(rng)
            lux = orlicz.luxemburg_norm(phi, poly.to_signal(), (0.0, 1.0),
                                        tol=1e-10)
            power = signals.PiecewisePoly(poly.edges, [
                np.polynomial.polynomial.polypow(c[::-1], int(p))[::-1]
                for c in poly.coeffs])
            exact = power.integral(0.0, 1.0) ** (1.0 / p)
            assert lux == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_norm_le_one_implies_modular_le_one(self, rng):
        phi = orlicz.zygmund_phi(1, 1)
        for _ in range(5):
            poly = signals.random_piecewise_poly(rng)
            sig = poly.to_signal()
            norm = orlicz.luxemburg_norm(phi, sig, (0.0, 1.0))
            if norm <= 1e-12:
                continue
            scaled = poly.scaled(1.0 / norm).to_signal()
            assert orlicz.modular(phi, scaled, (0.0, 1.0)) <= 1.0 + 1e-7

    def test_modular_shrinks_when_downscaled(self, rng):
        poly = signals.random_piecewise_poly(rng)
        for phi in SHIPPED:
            base = orlicz.modular(phi, poly.to_signal(), (0.0, 1.0))
            shrunk = orlicz.modular(phi, poly.scaled(0.5).to_signal(),
                                    (0.0, 1.0))
            assert shrunk <= base + 1e-12


CATALOG_PHIS = ["power:1", "power:2", "power:5", "zygmund:1,1",
                "zygmund:2,3", "exponential:0.5", "exponential:1",
                "exponential:2"]


def _counting(phi, calls):
    """phi with an ``evaluate`` that appends to ``calls``: one per modular."""
    def evaluate(u):
        calls.append(1)
        return phi.evaluate(u)

    return dataclasses.replace(phi, evaluate=evaluate)


def _certified(phi, values, weights, nu, tol):
    rho = functools.partial(orlicz.modular_from_samples, phi)
    return rho(values / nu, weights) <= 1.0 < rho(
        values / (nu * (1.0 - tol)), weights)


class TestLuxemburgLoop:
    """luxemburg_from_samples: one bracket evaluation, then secants."""

    # zeros and magnitudes over 26 decades, around a common scale
    SAMPLES = st.lists(st.one_of(
        st.just(0.0), st.builds(lambda m, e: m * 10.0 ** e,
                                st.floats(0.01, 1.0), st.integers(-12, 12))),
        min_size=1, max_size=200)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.sampled_from(CATALOG_PHIS), SAMPLES, st.integers(-250, 250),
           st.floats(1e-3, 10.0), st.sampled_from([1e-9, 1e-6, 1e-12]))
    def test_certificate(self, name, samples, exponent, weight, tol):
        # rho(f/nu) <= 1 < rho(f/(nu (1 - tol))), exactly as computed: a
        # loop that stopped one bracket step early misses the right side
        values = np.asarray(samples) * 10.0 ** exponent
        weights = weight * np.linspace(0.5, 1.5, values.size)
        phi = orlicz.phi_by_name(name)
        nu = orlicz.luxemburg_from_samples(phi, values, weights, tol)
        if not values.any():
            assert nu == 0.0
            return
        assert _certified(phi, values, weights, nu, tol)

    def test_evaluation_counts(self, m4_kernel):
        # converge-compact's deviations and orlicz-norms-style polynomials;
        # bisecting a dyadic bracket to tol 1e-9 alone takes 29 evaluations
        cases = []
        for n in (256, 512, 1024):
            samples = analysis._error_samples(operators.operator_config(
                m4_kernel, n, (0.0, 1.0)), signals.catalog("abs-sine"))
            cases.append((samples.deviations, samples.weights))
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = signals.random_piecewise_poly(rng).to_signal()
            x, w = quadrature.composite_nodes([0.0, *f.split_points(), 1.0])
            cases.append((f.evaluate(x), w))
        counts = {}
        for name in CATALOG_PHIS:
            calls = []
            phi = _counting(orlicz.phi_by_name(name), calls)
            for values, weights in cases:
                calls.clear()
                nu = orlicz.luxemburg_from_samples(phi, values, weights, 1e-9)
                assert _certified(orlicz.phi_by_name(name), values, weights,
                                  nu, 1e-9)
                counts.setdefault(name, []).append(len(calls))
        for name, got in counts.items():
            assert max(got) <= (6 if name.startswith("power:") else 16), name
        assert np.median(sum(counts.values(), [])) <= 12

    @pytest.mark.parametrize("name", CATALOG_PHIS)
    def test_homogeneous_far_past_the_old_cap(self, name, rng):
        # the norm of c f is c times the norm of f, to tol, for c = 1e13 and
        # 1e300: the bracket has no cap
        phi = orlicz.phi_by_name(name)
        values = rng.uniform(0.0, 2.0, 64) ** 3
        weights = np.full(values.size, 1.0 / values.size)
        nu = orlicz.luxemburg_from_samples(phi, values, weights, 1e-9)
        for c in (1e13, 1e300):
            scaled = orlicz.luxemburg_from_samples(phi, c * values, weights,
                                                   1e-9)
            assert scaled == pytest.approx(c * nu, rel=1.01e-9, abs=0.0)
            assert _certified(phi, c * values, weights, scaled, 1e-9)

    def test_subnormal_and_huge_samples_stay_silent(self):
        # a subnormal top, and a norm past the float range (inf), without a
        # numpy warning
        phi = orlicz.power_phi(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = orlicz.luxemburg_from_samples(
                phi, np.array([5e-324, 0.0, 0.0, 0.0]), np.full(4, 0.25),
                1e-9)
            huge = orlicz.luxemburg_from_samples(
                phi, np.array([1.7e308, 1e308]), np.full(2, 10.0), 1e-9)
        assert tiny == 5e-324
        assert huge == math.inf


class TestMaxPhiInequality:
    def test_worked_example(self):
        le, eq = orlicz.maxphi_inequality_check(orlicz.power_phi(2),
                                                [1.0, 3.0, 2.0])
        assert le and eq

    def test_singleton_zero(self):
        assert orlicz.maxphi_inequality_check(orlicz.exponential_phi(1),
                                              [0.0]) == (True, True)

    def test_random_batch(self, rng):
        values = rng.uniform(0.0, 10.0, size=100)
        for phi in SHIPPED:
            if not phi.convex:
                continue
            le, eq = orlicz.maxphi_inequality_check(phi, values)
            assert le and eq

    @given(st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1,
                    max_size=40))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_finite_case_equality_exact(self, values):
        for phi in (orlicz.power_phi(2), orlicz.zygmund_phi(1, 1)):
            le, eq = orlicz.maxphi_inequality_check(phi, values)
            assert le and eq

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            orlicz.maxphi_inequality_check(orlicz.power_phi(2), [-1.0])


class TestSampledPath:
    """modular and luxemburg_norm sample |f| once and check the result."""

    # every node of Simpson's first pass on [0, 1] is a zero of this signal
    SIN2 = signals.Signal(name="sin2", domain=(0.0, 1.0),
                          evaluate=lambda x: np.sin(40.0 * np.pi * x) ** 2)

    def test_signal_vanishing_on_coarse_nodes(self):
        phi = orlicz.power_phi(2)
        assert orlicz.modular(phi, self.SIN2, (0.0, 1.0)) == \
            pytest.approx(0.375, rel=0.0, abs=1e-9)
        assert orlicz.luxemburg_norm(phi, self.SIN2, (0.0, 1.0),
                                     tol=1e-10) == \
            pytest.approx(math.sqrt(0.375), rel=0.0, abs=1e-9)

    def test_undeclared_jump_refines_locally(self):
        jump = signals.Signal(name="jump", domain=(0.0, 1.0),
                              evaluate=lambda x: (x > 0.3141) * 1.0)
        phi = orlicz.power_phi(2)
        assert orlicz.modular(phi, jump, (0.0, 1.0)) == \
            pytest.approx(1.0 - 0.3141, rel=1e-9)
        assert orlicz.luxemburg_norm(phi, jump, (0.0, 1.0)) == \
            pytest.approx(math.sqrt(1.0 - 0.3141), rel=1e-8)

    def test_overflow_at_a_half_panel_node_is_inf(self):
        # a spike that only a node of the halved panels hits; phi overflows
        # there, so the modular diverges even though the first samples miss it
        node = quadrature.composite_nodes([0.0, 0.5, 1.0])[0][5]
        spike = signals.Signal(
            name="spike", domain=(0.0, 1.0),
            evaluate=lambda x: np.where(np.abs(x - node) < 1e-9, 50.0, 0.5))
        assert math.isinf(orlicz.modular(orlicz.exponential_phi(2), spike,
                                         (0.0, 1.0)))

    def test_no_adaptive_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(quadrature, "adaptive", refuse)
        for name in ("abs-sine", "step", "sawtooth"):
            f = signals.catalog(name)
            for phi in SHIPPED:
                assert math.isfinite(orlicz.modular(phi, f, (0.0, 1.0)))
                assert orlicz.luxemburg_norm(phi, f, (0.0, 1.0)) > 0.0

    def test_tolerance_below_rounding(self):
        # the bisection stops at adjacent floats; the check cannot pass
        assert orlicz.luxemburg_from_samples(
            orlicz.power_phi(2), np.full(4, 0.3), np.full(4, 0.25), 0.0) == \
            pytest.approx(0.3, rel=1e-15)
        with pytest.raises(QuadratureError):
            orlicz.luxemburg_norm(orlicz.power_phi(2), signals.catalog("ramp"),
                                  (0.0, 1.0), tol=0.0)

    def test_unresolvable_integrand_raises(self):
        # about 3e8 periods on the window: no panel count within the cap
        # resolves them, so the check fails until the refinement gives up
        noise = signals.Signal(
            name="noise", domain=(0.0, 1.0),
            evaluate=lambda x: np.sin(1e9 * np.asarray(x)) ** 2)
        with pytest.raises(QuadratureError):
            orlicz.modular(orlicz.power_phi(1), noise, (0.0, 1.0))


def _not_above(bound):
    """Floats at or below ``bound``, and the non-finite ones."""
    return st.floats(max_value=bound) | st.sampled_from(
        [math.inf, math.nan])


_RAMP, _P2 = signals.catalog("ramp"), orlicz.power_phi(2.0)
_BAD_CALLS = st.one_of(
    st.tuples(st.just(orlicz.power_phi),
              _not_above(1.0).filter(lambda p: p != 1.0)),
    st.tuples(st.just(orlicz.zygmund_phi),
              _not_above(1.0).filter(lambda a: a != 1.0), st.just(1.0)),
    st.tuples(st.just(orlicz.zygmund_phi), st.just(2.0), _not_above(0.0)),
    st.tuples(st.just(orlicz.exponential_phi), _not_above(0.0)),
    st.tuples(st.sampled_from([orlicz.modular, orlicz.luxemburg_norm]),
              st.just(_P2), st.just(_RAMP), st.floats(0.0, 1.0).flatmap(
                  lambda a: st.tuples(st.just(a), _not_above(a)) | st.tuples(
                      st.sampled_from([-math.inf, math.nan]), st.just(a)))),
    st.tuples(st.just(orlicz.maxphi_inequality_check), st.just(_P2),
              st.just([]) | st.tuples(st.lists(st.floats(0.0, 10.0)),
                                      st.sampled_from([-1e-300, math.nan]))
              .flatmap(lambda vb: st.permutations([*vb[0], vb[1]]))),
    st.tuples(st.just(analysis.CampaignResult), st.just("family"),
              st.integers(max_value=-1), st.just(0), st.just(0.0)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_BAD_CALLS)
def test_bad_arguments_raise_typed_errors(call):
    # each rejection is an InvalidInputError: a MaxprodError, so the CLI
    # maps it to an exit code, and a ValueError, so phi_by_name still turns
    # a bad parameter into an UnknownNameError.  A window with an infinite
    # end is rejected too: its Gauss nodes would be nan, read as divergence;
    # so is a nan value, which would read as a failed max/convexity check
    fn, *args = call
    with pytest.raises(MaxprodError) as caught:
        fn(*args)
    assert isinstance(caught.value, InvalidInputError)
    if fn in (orlicz.power_phi, orlicz.exponential_phi):
        name = "power" if fn is orlicz.power_phi else "exponential"
        with pytest.raises(UnknownNameError):
            orlicz.phi_by_name(f"{name}:{args[0]!r}")
