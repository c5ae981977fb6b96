import dataclasses
import math

import numpy as np
import pytest

from maxprod import kernels, operators, signals
from maxprod.errors import (InadmissibleKernelError, InvalidInputError,
                            UnknownNameError)

UNIT = (0.0, 1.0)


def brute_force_line(kernel, n, f, x, width=3000):
    """Wide-window oracle for the real-line operator."""
    table = signals.mean_values(f, n, None)
    ks = np.arange(math.floor(n * x) - width, math.floor(n * x) + width + 1)
    inside = (ks >= table.k_lo) & (ks <= table.k_hi)
    means = np.zeros(ks.size)   # zero off the support
    means[inside] = table.values[ks[inside] - table.k_lo]
    chi = kernel.evaluate(n * x - ks.astype(float))
    num = max(0.0, float(np.max(chi * means)))
    den = float(np.max(chi))
    return num / den


class TestConstantReproduction:
    @pytest.mark.parametrize("c", [0.0, 1.0, 7.5])
    @pytest.mark.parametrize("n", [4, 64])
    def test_exact_constants(self, fejer_kernel, vp_kernel, m4_kernel, c, n):
        sig = signals.catalog(f"constant:{c}")
        xs = np.linspace(0.0, 1.0, 41)
        for kernel in (fejer_kernel, vp_kernel, m4_kernel):
            config = operators.operator_config(kernel, n, UNIT)
            vals = operators.maxprod_kantorovich_grid(config, sig, xs)
            np.testing.assert_allclose(vals, c, atol=1e-12)

    def test_constant_gives_constant_vector(self, fejer_kernel):
        config = operators.operator_config(fejer_kernel, 16, UNIT)
        vals = operators.maxprod_kantorovich_grid(
            config, signals.catalog("constant:1"), np.linspace(0, 1, 200))
        assert np.all(vals == vals[0])


class TestSingleCellCollapse:
    def test_k1_equals_full_integral(self, fejer_kernel, rng):
        # J_1 on [0, 1] is a single index, so the kernel factor cancels
        config = operators.operator_config(fejer_kernel, 1, UNIT)
        for _ in range(10):
            poly = signals.random_piecewise_poly(rng)
            sig = poly.to_signal()
            x = float(rng.uniform(0.0, 1.0))
            value = operators.maxprod_kantorovich(config, sig, x)
            assert value == pytest.approx(poly.integral(0.0, 1.0), abs=1e-12)


class TestRealLine:
    def test_square_pulse_agrees_with_brute_force(self, fejer_kernel):
        sq = signals.catalog("square-pulse")
        config = operators.operator_config(fejer_kernel, 32, None)
        for x in (0.0, 0.2, 0.45, 0.7, 1.5, -2.0):
            fast = operators.maxprod_kantorovich(config, sq, x)
            assert fast == pytest.approx(
                brute_force_line(fejer_kernel, 32, sq, x), abs=1e-15)

    def test_square_pulse_center_band(self, fejer_kernel):
        # at the support centre (a continuity point) the reconstruction is
        # within the Jackson-style band of f(x) = 1
        sq = signals.catalog("square-pulse")
        config = operators.operator_config(fejer_kernel, 32, None)
        value = operators.maxprod_kantorovich(config, sq, 0.0)
        assert abs(value - 1.0) <= 0.15

    def test_far_field_decays_to_zero(self, fejer_kernel):
        sq = signals.catalog("square-pulse")
        config = operators.operator_config(fejer_kernel, 16, None)
        far = operators.maxprod_kantorovich_grid(config, sq,
                                                 np.array([5.0, -8.0, 20.0]))
        assert np.all(far >= 0.0) and np.all(far < 1e-2)


class TestPerPointWindow:
    """Each point costs one window of kernel pairs, wherever it lies and
    however many other points share its cells; decay kernels pay a core of
    2r + 1 columns plus the table blocks that could win."""

    @staticmethod
    def _pairs_per_point(name, n, domain, signal, xs):
        """Kernel pairs per point, the core radius r and the table."""
        config = operators.operator_config(kernels.kernel_by_name(name), n,
                                           domain)
        r = operators._radius(config)
        table = signals.mean_values(signals.catalog(signal), n, domain)
        pairs = []
        evaluate = config.kernel.evaluate

        def counting(u):
            pairs.append(np.size(u))
            return evaluate(u)

        config = dataclasses.replace(config, kernel=dataclasses.replace(
            config.kernel, evaluate=counting))
        operators.evaluate_with_table_den(config, table, xs)
        return sum(pairs) / xs.size, r, table

    @pytest.mark.parametrize("name, n, domain, signal, lo, hi", [
        # a compact row sweeps the 2 ceil(support) columns of its support
        ("bspline:4", 1024, UNIT, "abs-sine", 0.0, 1.0),
        ("bspline:5", 1024, UNIT, "abs-sine", 0.0, 1.0),
        ("bspline:4", 256, None, "hat", -1.5, 1.5),
        ("bspline:5", 256, None, "hat", -1.5, 1.5),
        # inside the hat's support the core window (5 columns) decides
        # nearly every row
        ("fejer", 256, None, "hat", -0.9, 0.9),
    ])
    def test_kernel_pairs_per_point(self, rng, name, n, domain, signal, lo,
                                    hi):
        xs = rng.uniform(lo, hi, 20_000)
        per_point, r, _ = self._pairs_per_point(name, n, domain, signal, xs)
        ceiling = {"bspline:4": 4, "bspline:5": 6, "fejer": 49}[name]
        core = 2 * r + (name == "fejer")
        assert core <= ceiling and per_point <= ceiling

    @pytest.mark.parametrize("name", ["fejer", "vallee-poussin"])
    def test_decay_core_window_on_the_interval(self, rng, name):
        # a core of 2r + 1 = 11 columns decides nearly every row of the
        # 512-cell table
        xs = rng.uniform(0.0, 1.0, 20_000)
        per_point, r, _ = self._pairs_per_point(name, 512, UNIT, "abs-sine",
                                                xs)
        assert r == 5 and per_point <= 16

    def test_far_field_skips_blocks_that_cannot_win(self, rng):
        # a quarter of 49 + 514 pairs per point, 514 being the table; a
        # bound blind to the phase of fejer's terms costs 198
        xs = rng.uniform(1.1, 3.0, 20_000)
        per_point, _, table = self._pairs_per_point("fejer", 256, None,
                                                    "hat", xs)
        assert table.values.size == 514 and per_point <= 140.0

    @pytest.mark.parametrize("name, signal, n, lo, hi, cells, ceiling", [
        # vallee-poussin's lobes: the positive part of its terms is bounded
        # by 1/4, not 4/9, 172 pairs per point without it
        ("vallee-poussin", "square-pulse", 256, 1.1, 3.0, 258, 48.0),
        # far rows of a 16386-cell table: 3106 pairs per point if every row
        # bounds every block with the plain envelope C |u - k|**-2, 161 with
        # the block search alone; the line hulls settle a row off the
        # support with its core and one column per class of k
        ("fejer", "hat", 8192, -16.0, 16.0, 16386, 16.0),
        # just off the support the far field is flattest: 1109 pairs per
        # point with the block search alone
        ("fejer", "hat", 8192, 1.0, 3.0, 16386, 16.0),
    ])
    def test_far_field_of_lobed_and_large_tables(self, rng, name, signal, n,
                                                 lo, hi, cells, ceiling):
        xs = rng.uniform(lo, hi, 20_000)
        per_point, _, table = self._pairs_per_point(name, n, None, signal,
                                                    xs)
        assert table.values.size == cells and per_point <= ceiling

    @pytest.mark.parametrize("domain, n, names, lo, hi", [
        (UNIT, 512, ("constant:1", "step", "abs-sine"), 0.0, 1.0),
        (None, 256, ("hat", "square-pulse"), -3.0, 3.0),
        (None, 1024, ("square-pulse", "hat"), -3.0, 3.0),
    ])
    def test_stack_costs_no_more_than_its_tables(self, rng, domain, n, names,
                                                 lo, hi):
        # each table searches the rows it needs against its own numerator:
        # the step's zero means on [0, 1/2] must not send those rows through
        # every block that the constant's bound reaches.  A line table padded
        # to the stack's cells bounds only its own nonzero cells, so it costs
        # no more than alone
        pairs = []
        fejer = kernels.fejer()
        config = dataclasses.replace(
            operators.operator_config(fejer, n, domain),
            kernel=dataclasses.replace(fejer, evaluate=lambda u: (
                pairs.append(np.size(u)), fejer.evaluate(u))[1]))
        tables = [signals.mean_values(signals.catalog(name), n, domain)
                  for name in names]
        xs = rng.uniform(lo, hi, 5000)
        for table in tables:
            operators.evaluate_with_table_den(config, table, xs)
        separate = sum(pairs)
        pairs.clear()
        stack = signals.MeanValueTable.stack(tables)
        operators.evaluate_with_table_den(config, stack, xs)
        assert sum(pairs) <= separate
        for table, padded in zip(tables, stack.values):
            pairs.clear()
            operators.evaluate_with_table_den(config, table, xs)
            alone = sum(pairs)
            pairs.clear()
            operators.evaluate_with_table_den(
                config, dataclasses.replace(stack, values=padded), xs)
            assert sum(pairs) <= alone


class TestGridConsistency:
    def test_grid_matches_pointwise(self, fejer_kernel, rng):
        config = operators.operator_config(fejer_kernel, 16, UNIT)
        sig = signals.random_piecewise_poly(rng).to_signal()
        xs = rng.uniform(0.0, 1.0, size=20)
        grid_vals = operators.maxprod_kantorovich_grid(config, sig, xs)
        point_vals = [operators.maxprod_kantorovich(config, sig, float(x))
                      for x in xs]
        np.testing.assert_allclose(grid_vals, point_vals, atol=1e-15)

    def test_single_point_grid(self, fejer_kernel):
        config = operators.operator_config(fejer_kernel, 8, UNIT)
        sig = signals.catalog("ramp")
        one = operators.maxprod_kantorovich_grid(config, sig, [0.3])
        assert one.shape == (1,)
        assert one[0] == operators.maxprod_kantorovich(config, sig, 0.3)


class TestOperatorAlgebra:
    """Spot versions of the algebra laws; the full 500-trial campaign runs
    in the acceptance suite."""

    def _setup(self, kernel, rng, n=16):
        config = operators.operator_config(kernel, n, UNIT)
        f = signals.random_piecewise_poly(rng)
        g = signals.random_piecewise_poly(rng)
        xs = rng.uniform(0.0, 1.0, size=8)
        return config, f, g, xs

    def test_monotone(self, fejer_kernel, rng):
        config, f, g, xs = self._setup(fejer_kernel, rng)
        upper = (f + g).to_signal()
        kf = operators.maxprod_kantorovich_grid(config, f.to_signal(), xs)
        ku = operators.maxprod_kantorovich_grid(config, upper, xs)
        assert np.all(kf <= ku + 1e-12)

    def test_subadditive(self, vp_kernel, rng):
        config, f, g, xs = self._setup(vp_kernel, rng)
        kf = operators.maxprod_kantorovich_grid(config, f.to_signal(), xs)
        kg = operators.maxprod_kantorovich_grid(config, g.to_signal(), xs)
        kfg = operators.maxprod_kantorovich_grid(config,
                                                 (f + g).to_signal(), xs)
        assert np.all(kfg <= kf + kg + 1e-12)

    def test_difference_bound(self, m4_kernel, rng):
        config, f, g, xs = self._setup(m4_kernel, rng)
        kf = operators.maxprod_kantorovich_grid(config, f.to_signal(), xs)
        kg = operators.maxprod_kantorovich_grid(config, g.to_signal(), xs)
        kd = operators.maxprod_kantorovich_grid(
            config, (f - g).absolute().to_signal(), xs)
        assert np.all(np.abs(kf - kg) <= kd + 1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.0, 10.0])
    def test_positive_homogeneity(self, fejer_kernel, rng, lam):
        config, f, _, xs = self._setup(fejer_kernel, rng)
        kf = operators.maxprod_kantorovich_grid(config, f.to_signal(), xs)
        kl = operators.maxprod_kantorovich_grid(config,
                                                f.scaled(lam).to_signal(), xs)
        np.testing.assert_allclose(kl, lam * kf, rtol=1e-12, atol=1e-15)

    def test_sup_bound(self, catalog_kernels, rng):
        # |K_n f| <= sup f / a_chi * m_0
        for kernel in catalog_kernels:
            a = kernels.lower_bound_constant(kernel, "interval")
            if a <= 0:
                continue
            m0 = kernels.moment(kernel, 0.0)
            config = operators.operator_config(kernel, 16, UNIT)
            poly = signals.random_piecewise_poly(rng)
            vals = operators.maxprod_kantorovich_grid(
                config, poly.to_signal(), rng.uniform(0, 1, 30))
            assert np.max(np.abs(vals)) <= poly.maximum() / a * m0 + 1e-9

    def test_denominator_floor_on_unit_interval(self, catalog_kernels, rng):
        for kernel in catalog_kernels:
            a = kernels.lower_bound_constant(kernel, "interval")
            if a <= 0:
                continue
            for n in (4, 8, 16, 32):
                config = operators.operator_config(kernel, n, UNIT)
                table = signals.mean_values(signals.catalog("constant:1"), n,
                                            UNIT)
                _, den_min = operators.evaluate_with_table_den(
                    config, table, rng.uniform(0.0, 1.0, 64))
                assert den_min >= a - 1e-9


class TestPointwiseConvergence:
    POINTS = {"ramp": 0.37, "step": 0.75, "sawtooth": 0.52, "abs-sine": 0.25}

    def test_error_small_by_n_256(self, catalog_kernels):
        for name, x in self.POINTS.items():
            sig = signals.catalog(name)
            target = float(sig.evaluate(np.asarray(x)))
            for kernel in catalog_kernels:
                a = kernels.lower_bound_constant(kernel, "interval")
                if a <= 0:
                    continue
                config = operators.operator_config(kernel, 256, UNIT)
                value = operators.maxprod_kantorovich(config, sig, x)
                assert abs(value - target) < 1e-2, (name, kernel.name)


class TestGuards:
    def test_negative_signal_rejected(self, fejer_kernel):
        # the catalog refuses a negative constant by name; built by hand,
        # its mean table reaches the operator, which refuses it
        with pytest.raises(UnknownNameError, match="takes negative values"):
            signals.catalog("constant:-3")
        config = operators.operator_config(fejer_kernel, 8, UNIT)
        neg = signals.PiecewisePoly((0.0, 1.0), [(-3.0,)]).to_signal()
        with pytest.raises(InvalidInputError, match="not non-negative"):
            operators.maxprod_kantorovich(config, neg, 0.5)

    def test_negative_means_rejected_whatever_the_flag(self, fejer_kernel):
        # no flag on the signal vouches for it: the operator checks the
        # mean table of whatever signal it is given
        neg = signals.Signal("neg", lambda x: -np.ones_like(x), UNIT)
        config = operators.operator_config(fejer_kernel, 8, UNIT)
        with pytest.raises(InvalidInputError, match="not non-negative"):
            operators.maxprod_kantorovich_grid(config, neg, [0.3, 0.7])
        hat = signals.catalog("hat")
        neg_hat = dataclasses.replace(hat, name="neg-hat",
                                      evaluate=lambda x: -hat.evaluate(x))
        config = operators.operator_config(fejer_kernel, 8, None)
        with pytest.raises(InvalidInputError, match="not non-negative"):
            operators.maxprod_kantorovich(config, neg_hat, 0.0)

    def test_x_outside_domain_rejected(self, fejer_kernel):
        config = operators.operator_config(fejer_kernel, 8, UNIT)
        with pytest.raises(ValueError, match="inside"):
            operators.maxprod_kantorovich(config, signals.catalog("ramp"),
                                          1.5)

    def test_inadmissible_kernel_rejected(self, m3_kernel):
        with pytest.raises(InadmissibleKernelError):
            operators.operator_config(m3_kernel, 8, UNIT)

    def test_explicit_a_chi_opt_in(self, m3_kernel):
        # the cubic B-spline vanishes at +-3/2, failing the generic gate; on
        # [0, 1] the reachable lattice offsets stay within [-1, 1] where it
        # is >= 1/8, so the caller may assert the bound explicitly
        config = operators.operator_config(m3_kernel, 8, UNIT, a_chi=0.125)
        sig = signals.catalog("constant:1")
        vals = operators.maxprod_kantorovich_grid(config, sig,
                                                  np.linspace(0, 1, 21))
        np.testing.assert_allclose(vals, 1.0, atol=1e-12)
