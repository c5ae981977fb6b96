import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest

from maxprod import (analysis, kernels, operators, orlicz, quadrature,
                     signals)
from test_banded_operator import DECAY_KERNELS, KERNELS, PHASED_VP

UNIT = (0.0, 1.0)
MODULAR, LP, ZYGMUND = (analysis.PAIR_FAMILIES[name] for name in (
    "modular-inequality", "lp-lipschitz", "zygmund-instance"))
# the catalog's polynomial signals, as the pieces the pair checks take
RAMP = signals.PiecewisePoly(UNIT, [(1.0, 0.0)])
STEP = signals.PiecewisePoly((0.0, 0.5, 1.0), [(0.0,), (1.0,)])
SAWTOOTH = signals.PiecewisePoly((0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0),
                                 [(3.0, 0.0), (3.0, -1.0), (3.0, -2.0)])


def flat(c):
    return signals.PiecewisePoly(UNIT, [(c,)])


class TestModulusOfContinuity:
    def test_ramp_is_delta(self):
        assert analysis.modulus_of_continuity(
            signals.catalog("ramp"), 0.1) == pytest.approx(0.1, abs=1e-9)

    def test_constant_is_zero(self):
        assert analysis.modulus_of_continuity(
            signals.catalog("constant:4"), 0.2) == 0.0

    def test_abs_sine_matches_brute_force(self):
        sig = signals.catalog("abs-sine")
        value = analysis.modulus_of_continuity(sig, 0.05)
        xs = np.linspace(0.0, 1.0, 10001)
        vals = sig.evaluate(xs)
        width = int(round(0.05 * 10000))
        brute = max(float(np.max(np.abs(vals[j:] - vals[:-j])))
                    for j in range(1, width + 1))
        assert value == pytest.approx(brute, abs=1e-4)

    def test_hat_on_line(self):
        assert analysis.modulus_of_continuity(
            signals.catalog("hat"), 0.25) == pytest.approx(0.25, abs=1e-9)


class TestRunConvergence:
    def test_constant_all_zero(self, fejer_kernel):
        report = analysis.run_convergence(
            signals.catalog("constant:1"), fejer_kernel, orlicz.power_phi(2),
            1.0, [4, 8, 16, 32, 64])
        assert report.sup_errors == [0.0] * 5
        assert report.modular_errors == [0.0] * 5
        assert report.luxemburg_errors == [0.0] * 5
        assert report.fitted_rate is None  # nothing above the noise floor

    def test_ramp_modular_halves_per_doubling(self, m4_kernel):
        report = analysis.run_convergence(
            signals.catalog("ramp"), m4_kernel, orlicz.power_phi(1), 1.0,
            [8, 16, 32, 64, 128])
        errs = report.modular_errors
        for a, b in zip(errs, errs[1:]):
            assert a >= 1.5 * b
        assert all(v for v in report.valid)

    def test_step_modular_converges_sup_plateaus(self, fejer_kernel):
        report = analysis.run_convergence(
            signals.catalog("step"), fejer_kernel, orlicz.power_phi(2), 1.0,
            [8, 16, 32, 64, 128, 256])
        assert report.modular_errors[-1] < 1e-2
        assert all(a >= b for a, b in zip(report.modular_errors,
                                          report.modular_errors[1:]))
        # the sup error sits at the jump height: reconstruction of a
        # discontinuous signal converges in modular, not uniformly
        assert min(report.sup_errors) > 0.5

    def test_report_invariants(self, fejer_kernel):
        # trend check on a continuous signal: sup error at the largest scale
        # does not exceed the smallest-scale one
        report = analysis.run_convergence(
            signals.catalog("abs-sine"), fejer_kernel, orlicz.power_phi(2),
            1.0, [8, 16, 32, 64])
        assert report.scales == sorted(report.scales)
        assert all(e >= 0.0 for e in report.sup_errors)
        assert all(e >= 0.0 for e in report.modular_errors)
        assert report.sup_errors[-1] <= report.sup_errors[0]

    def test_power_luxemburg_is_modular_root(self, fejer_kernel):
        # doubling-condition families make norm and modular convergence
        # interchangeable; for u^2 the norm is literally the square root
        report = analysis.run_convergence(
            signals.catalog("step"), fejer_kernel, orlicz.power_phi(2), 1.0,
            [16, 32, 64])
        for mod, lux in zip(report.modular_errors, report.luxemburg_errors):
            assert lux == pytest.approx(math.sqrt(mod), rel=1e-6)

    def test_deterministic_reports(self, fejer_kernel):
        runs = [analysis.run_convergence(
            signals.catalog("step"), fejer_kernel, orlicz.power_phi(2), 1.0,
            [8, 16, 32]) for _ in range(2)]
        assert dataclasses.asdict(runs[0]) == dataclasses.asdict(runs[1])

    def test_real_line_square_pulse(self, fejer_kernel):
        report = analysis.run_convergence(
            signals.catalog("square-pulse"), fejer_kernel,
            orlicz.power_phi(1), 1.0, [8, 16, 32, 64])
        assert all(a > b for a, b in zip(report.modular_errors,
                                         report.modular_errors[1:]))


    def test_quadrature_nodes_evaluated_in_slices(self, fejer_kernel):
        # past the node, weight and deviation arrays and the Gauss rule's
        # temporaries, the operator's share of the peak is a fixed budget,
        # not some 70 bytes more per node
        config = operators.operator_config(fejer_kernel, 2048, None)
        tracemalloc.start()
        try:
            samples = analysis._error_samples(config, signals.catalog("hat"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * samples.weights.nbytes + 8 * 2 ** 20

    def test_compact_quadrature_nodes_built_in_slices(self, m4_kernel):
        # the nodes are built a slice of panels at a time too, so past the
        # weight and deviation arrays the peak is a fixed budget: 524,288
        # nodes in 8 slices, whose x, mask and lattice cells come and go
        config = operators.operator_config(m4_kernel, 16384, (0.0, 1.0))
        tracemalloc.start()
        try:
            samples = analysis._error_samples(config, signals.catalog("step"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert samples.weights.size == 32 * 16384
        assert peak < 2 * samples.weights.nbytes + 8 * 2 ** 20

    def test_kernel_values_once_per_offset(self, m4_kernel):
        # the 32,768 quadrature nodes read chi from one table per offset and
        # window shift, 32 x 4 x 4 values; the sup grid's 3,072 points take
        # 4 each.  Evaluated per node and column it was 143,360 values
        config = operators.operator_config(m4_kernel, 1024, (0.0, 1.0))
        counted = []
        config = dataclasses.replace(config, kernel=dataclasses.replace(
            m4_kernel, evaluate=lambda u: (counted.append(np.size(u)),
                                           m4_kernel.evaluate(u))[1]))
        analysis._error_samples(config, signals.catalog("abs-sine"))
        assert sum(counted) <= 16_384


class TestSupError:
    # the compact kernels, the catalog's decay kernels, a loose phase-less
    # envelope and a phased one
    CERTIFIED = {"bspline:4": KERNELS["bspline:4"],
                 "bspline:5": KERNELS["bspline:5"], "fejer": DECAY_KERNELS[0],
                 "vallee-poussin": DECAY_KERNELS[1],
                 "loose-vallee-poussin": DECAY_KERNELS[2],
                 "phased-vallee-poussin": PHASED_VP}

    @pytest.mark.parametrize("name", ["hat", "square-pulse"])
    @pytest.mark.parametrize("kernel", CERTIFIED)
    def test_far_bound_is_a_certificate(self, kernel, name):
        # every sup-grid point in one operator call: wherever the far-field
        # bound is finite the deviation lies under it, and the supremum
        # with the skip is the same float
        f, kernel = signals.catalog(name), self.CERTIFIED[kernel]
        for n in (1, 2, 3, 7, 16, 64, 100, 256):
            config = operators.operator_config(kernel, n, None)
            table = signals.mean_values(f, n, None)
            window = analysis._eval_window(config, f)
            grid = analysis._sup_grid(f, window, n)
            fx = f.evaluate(grid)
            dev = np.abs(operators.evaluate_with_table_den(
                config, table, grid)[0] - fx)
            bound = analysis._far_bound(config, table, grid, fx)
            far = bound < math.inf
            assert far.any() and np.all(dev[far] <= bound[far]), n
            assert analysis._sup_error(config, table, f, window)[0] == \
                dev.max(), n

    def test_bounded_points_that_reach_the_maximum_go(self, monkeypatch):
        # bounds as tight as the deviations, and only a point of the
        # largest deviation below the maximum unbounded: the points of the
        # maximum must still be evaluated
        f = signals.catalog("hat")
        config = operators.operator_config(KERNELS["fejer"], 16, None)
        table = signals.mean_values(f, 16, None)
        window = analysis._eval_window(config, f)
        grid = analysis._sup_grid(f, window, 16)
        dev = np.abs(operators.evaluate_with_table_den(config, table, grid)[
            0] - f.evaluate(grid))
        tight = dev.copy()
        below = np.flatnonzero(dev < dev.max())
        tight[below[dev[below].argmax()]] = math.inf
        monkeypatch.setattr(analysis, "_far_bound", lambda *_: tight.copy())
        assert analysis._sup_error(config, table, f, window)[0] == dev.max()

    def _grid_rows(self, monkeypatch, run, f, config):
        """Sizes of the operator calls ``run`` makes with sup-grid points."""
        grid = analysis._sup_grid(f, analysis._eval_window(config, f),
                                  config.n)
        sizes, evaluate = [], analysis.evaluate_with_table_den

        def recording(config, table, xs):
            if not isinstance(xs, quadrature.LatticeNodes):
                sizes.append(int(np.isin(xs, grid).sum()))
            return evaluate(config, table, xs)

        monkeypatch.setattr(analysis, "evaluate_with_table_den", recording)
        run()
        return [size for size in sizes if size]

    @pytest.mark.parametrize("kernel, name", [
        ("vallee-poussin", "square-pulse"), ("fejer", "hat")])
    def test_line_skips_the_far_field(self, monkeypatch, kernel, name):
        # at n = 256 the whole grid is 10,496 and 10,752 points, nearly all
        # off the support, where the bound is orders below the error
        f = signals.catalog(name)
        config = operators.operator_config(KERNELS[kernel], 256, None)
        rows = self._grid_rows(monkeypatch, lambda: analysis._error_samples(
            config, f), f, config)
        assert 0 < sum(rows) <= 1000

    def test_jackson_skips_the_far_field(self, monkeypatch):
        f = signals.catalog("hat")
        config = operators.operator_config(KERNELS["fejer"], 256, None)
        rows = self._grid_rows(monkeypatch, lambda: analysis.check_jackson(
            f, KERNELS["fejer"], 256), f, config)
        assert 0 < sum(rows) <= 1000

    def test_interval_grid_in_one_call(self, monkeypatch):
        f = signals.catalog("abs-sine")
        config = operators.operator_config(KERNELS["bspline:4"], 1024, UNIT)
        assert self._grid_rows(monkeypatch, lambda: analysis._error_samples(
            config, f), f, config) == [3072]


class TestModularInequality:
    def test_equal_signals_zero_both_sides(self, fejer_kernel):
        check = analysis.check_modular_inequality(
            MODULAR, RAMP, RAMP, fejer_kernel, orlicz.power_phi(2), 1.0, 32,
            UNIT, 1e-8)
        assert check.passed and check.lhs == 0.0 and check.rhs == 0.0

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_rhs_is_the_exact_power_integral(self, fejer_kernel, p):
        # the rhs samples |f - g| on its exact pieces, where the Gauss rule
        # integrates u**p exactly: it is (l1/m0) factor**p times the exact
        # integral of |f - g|**p, and exactly 0.0 for f == g
        m0 = kernels.moment(fejer_kernel, 0.0)
        l1 = kernels.ensure_l1(fejer_kernel)
        a = kernels.lower_bound_constant(fejer_kernel, "interval")
        phi, rng = orlicz.power_phi(p), np.random.default_rng(p)
        for _ in range(4):
            f = signals.random_piecewise_poly(rng)
            g = signals.random_piecewise_poly(rng)
            lam = float(rng.uniform(0.25, 2.0))
            check = analysis.check_modular_inequality(
                MODULAR, f, g, fejer_kernel, phi, lam, 16, UNIT, 1e-8)
            d = (f - g).absolute()
            powers = signals.PiecewisePoly(d.edges, [
                functools.reduce(np.polymul, [c] * p) for c in d.coeffs])
            exact = l1 / m0 * (2.0 * lam * m0 / a) ** p * powers.integral(
                *UNIT)
            assert check.rhs == pytest.approx(exact, rel=1e-12, abs=0.0)
            same = analysis.check_modular_inequality(
                MODULAR, f, f, fejer_kernel, phi, lam, 16, UNIT, 1e-8)
            assert same.rhs == 0.0

    def test_lhs_within_its_tolerance(self, monkeypatch):
        # every family's lhs against adaptive Simpson at a thousandth of
        # its tolerances: within atol + rtol |lhs| of the tight value
        runs = []
        adaptive = quadrature.adaptive

        def recording(fn, edges, atol, rtol):
            runs.append((fn, edges, atol, rtol, adaptive(fn, edges, atol,
                                                         rtol)))
            return runs[-1][-1]

        monkeypatch.setattr(quadrature, "adaptive", recording)
        for seed, family in enumerate(analysis.PAIR_FAMILIES.values()):
            analysis.campaign_pair_inequality(family, 6, seed, None, UNIT,
                                              1e-8)
        assert len(runs) == 24
        for fn, edges, atol, rtol, value in runs:
            tight = adaptive(fn, edges, atol / 1000.0, rtol / 1000.0)
            assert abs(value - tight) <= atol + rtol * abs(tight)

    def test_ramp_vs_constant(self, fejer_kernel):
        check = analysis.check_modular_inequality(
            MODULAR, RAMP, flat(0.5), fejer_kernel, orlicz.power_phi(2), 1.0,
            32, UNIT, 1e-8)
        assert check.passed and check.slack > 0.0

    def test_small_random_campaign(self):
        result = analysis.campaign_pair_inequality(MODULAR, 24, 7, None, UNIT,
                                                   1e-8)
        assert result.failures == 0

    @pytest.mark.parametrize("campaign", [
        analysis.campaign_operator_algebra, analysis.campaign_max_convexity,
        *(pytest.param(lambda trials, seed, family=family:
                       analysis.campaign_pair_inequality(
                           family, trials, seed, None, UNIT, 1e-8),
                       id="campaign_" + family.name.replace("-", "_"))
          for family in analysis.PAIR_FAMILIES.values())])
    def test_negative_trials_rejected(self, campaign):
        with pytest.raises(ValueError, match="trials"):
            campaign(-3, 0)

    def test_vacuous_when_rhs_infinite(self, m4_kernel):
        # huge scaling drives the exponential modular past the overflow
        # guard: the check passses vacuously and says so
        check = analysis.check_modular_inequality(
            MODULAR, STEP, flat(1.0), m4_kernel, orlicz.exponential_phi(2),
            50.0, 16, UNIT, 1e-8)
        assert check.passed and math.isinf(check.rhs)
        assert "vacuous" in check.context

    def test_inequality_check_invariant(self):
        check = analysis.InequalityCheck.from_sides(1.0, 0.5, 1e-8, "demo")
        assert not check.passed and check.slack == -0.5
        check2 = analysis.InequalityCheck.from_sides(0.5, 0.5, 1e-8, "demo")
        assert check2.passed


class TestLpLipschitz:
    def test_equal_signals(self, fejer_kernel):
        check = analysis.check_modular_inequality(
            LP, SAWTOOTH, SAWTOOTH, fejer_kernel, orlicz.power_phi(2), 1.0, 16,
            UNIT, 1e-8)
        assert check.passed and check.lhs == 0.0

    def test_step_vs_ramp_with_signed_kernel(self, vp_kernel):
        check = analysis.check_modular_inequality(
            LP, STEP, RAMP, vp_kernel, orlicz.power_phi(2), 1.0, 16, UNIT,
            1e-8)
        assert check.passed

    def test_p1_constant_specialization(self, fejer_kernel):
        # at p = 1 the general constant collapses to 2 l1 / a_chi
        m0 = kernels.moment(fejer_kernel, 0.0)
        l1 = kernels.ensure_l1(fejer_kernel)
        a = kernels.lower_bound_constant(fejer_kernel, "interval")
        general = 2.0 * (m0 ** 0.0 * l1) ** 1.0 / a
        assert general == pytest.approx(2.0 * l1 / a, rel=1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 2.5])
    def test_root_of_the_power_modular(self, vp_kernel, p):
        # the p-th root of the power:p modular inequality at lambda = 1 is
        # the L^p bound with constant 2 (m0^(p-1) l1)^(1/p) / a; here
        # |f - g| = 1/2 on [0, 1], so |f - g|_p = 1/2
        m0 = kernels.moment(vp_kernel, 0.0)
        l1 = kernels.ensure_l1(vp_kernel)
        a = kernels.lower_bound_constant(vp_kernel, "interval")
        check = analysis.check_modular_inequality(
            LP, flat(1.0), flat(0.5), vp_kernel, orlicz.power_phi(p), 1.0, 16,
            UNIT, 1e-8)
        constant = 2.0 * (m0 ** (p - 1.0) * l1) ** (1.0 / p) / a
        assert check.rhs == pytest.approx(constant * 0.5, rel=1e-12)
        assert check.lhs == pytest.approx(0.5, rel=1e-12)

    def test_one_kernel_sweep_per_point(self, monkeypatch):
        # K_n f and K_n g share each chi(n x - k): a compact kernel costs one
        # window of 2r + 1 = 7 pairs per distinct point, not two
        kernel = kernels.bspline(4)
        pairs, points = [], []
        counting = dataclasses.replace(kernel, evaluate=lambda u: (
            pairs.append(np.size(u)), kernel.evaluate(u))[1])
        evaluate = analysis.evaluate_with_table_den

        def recording(config, table, xs):
            points.append(np.array(xs))
            return evaluate(config, table, xs)

        args = (LP, STEP, RAMP, counting, orlicz.power_phi(2), 1.0, 16, UNIT,
                1e-8)
        analysis.check_modular_inequality(*args)  # constants
        pairs.clear()
        monkeypatch.setattr(analysis, "evaluate_with_table_den", recording)
        analysis.check_modular_inequality(*args)
        assert 0 < sum(pairs) <= 7 * np.unique(np.concatenate(points)).size

    def test_small_campaign(self):
        result = analysis.campaign_pair_inequality(LP, 12, 11, None, UNIT, 1e-8)
        assert result.failures == 0


class TestZygmundInstance:
    @pytest.mark.parametrize("lam", [0.25, 1.0, 2.0])
    def test_modular_over_lambda(self, fejer_kernel, lam):
        # the zygmund:1,1 modular inequality over lambda: lhs integrates
        # |Kf - Kg| log(lam |Kf - Kg| + e), rhs is 2 l1 / a times the
        # integral of |f - g| log((m0/a) 2 lam |f - g| + e)
        m0 = kernels.moment(fejer_kernel, 0.0)
        l1 = kernels.ensure_l1(fejer_kernel)
        a = kernels.lower_bound_constant(fejer_kernel, "interval")
        check = analysis.check_modular_inequality(
            ZYGMUND, flat(1.0), flat(0.5), fejer_kernel,
            orlicz.zygmund_phi(1, 1), lam, 16, UNIT, 1e-8)
        rhs = 2.0 * l1 / a * 0.5 * math.log(2.0 * lam * m0 / a * 0.5 + math.e)
        assert check.rhs == pytest.approx(rhs, rel=1e-12)
        assert check.lhs == pytest.approx(0.5 * math.log(0.5 * lam + math.e),
                                          rel=1e-12)
        assert check.passed

    def test_small_campaign(self):
        result = analysis.campaign_pair_inequality(ZYGMUND, 8, 3, None, UNIT,
                                                   1e-8)
        assert result.failures == 0 and result.trials == 8


class TestJackson:
    def test_constant_zero_both_sides(self, fejer_kernel):
        check = analysis.check_jackson(signals.catalog("constant:2"),
                                       fejer_kernel, 32)
        assert check.passed and check.lhs == 0.0 and check.rhs == 0.0

    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_abs_sine_with_fejer(self, fejer_kernel, n):
        check = analysis.check_jackson(signals.catalog("abs-sine"),
                                       fejer_kernel, n)
        assert check.passed

    def test_hat_with_vallee_poussin(self, vp_kernel):
        check = analysis.check_jackson(signals.catalog("hat"), vp_kernel, 64)
        assert check.passed

    def test_shares_the_diagnostics_moments(self, monkeypatch):
        # kernel-info's diagnostics and the Jackson bound read one m0 and
        # one m1 off the kernel instance
        ker, orders = kernels.fejer(), []
        outer = kernels._outer_sup
        monkeypatch.setattr(kernels, "_outer_sup", lambda k, beta, *rest: (
            orders.append(beta), outer(k, beta, *rest))[1])
        kernels.check_assumptions(ker, "interval", 2.0)
        analysis.check_jackson(signals.catalog("abs-sine"), ker, 16)
        assert sorted(orders) == [0.0, 1.0, 2.0]

    def test_divergent_first_moment_rejected(self):
        # decay order 1/2 < 1: the order-1 lattice terms grow like sqrt(u)
        from maxprod.errors import TruncationError
        slow = kernels.Kernel("slow",
                              lambda x: 1.0 / (1.0 + np.sqrt(np.abs(x))),
                              decay_order=0.5, sup_norm=1.0,
                              envelope=(((1.0, 0.0), (1.0, 0.0)), 0.0))
        with pytest.raises(TruncationError):
            analysis.check_jackson(signals.catalog("abs-sine"), slow, 16)


class TestRateFitting:
    def test_fit_recovers_slope(self):
        scales = [8, 16, 32, 64]
        errors = [1.0 / n for n in scales]
        assert analysis.fit_rate(scales, errors) == pytest.approx(-1.0,
                                                                  abs=1e-12)

    def test_zeros_excluded(self):
        assert analysis.fit_rate([8, 16, 32], [0.0, 0.0, 0.0]) is None
        assert analysis.fit_rate([8, 16], [1e-16, 1e-3]) is None
