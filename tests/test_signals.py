
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

from conftest import catalog_names
from maxprod import quadrature, signals
from maxprod.errors import (EmptyIndexSetError, TruncationError,
                            UnknownNameError)

UNIT = (0.0, 1.0)


def ev(sig, x):
    return float(sig.evaluate(np.asarray(x, dtype=float)))


class TestCatalog:
    def test_constant(self):
        sig = signals.catalog("constant:1")
        assert ev(sig, 0.3) == 1.0

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(catalog_names("constant:", "ramp", "step", "sawtooth", "abs-sine",
                         "hat", "square-pulse"))
    @example("constant:inf")
    @example("constant:-inf")
    @example("constant:nan")
    @example("constant:1e400")
    def test_catalog_fuzz(self, name):
        # a name gives a catalog signal with finite values, or an
        # UnknownNameError
        try:
            sig = signals.catalog(name)
        except UnknownNameError:
            return
        xs = np.linspace(*(sig.domain or sig.support), 9)
        assert np.all(np.isfinite(sig.evaluate(xs)))

    def test_step_metadata(self):
        step = signals.catalog("step")
        assert ev(step, 0.25) == 0.0
        assert ev(step, 0.75) == 1.0
        assert step.breakpoints == (0.5,)

    def test_sawtooth_jumps(self):
        saw = signals.catalog("sawtooth")
        assert saw.breakpoints == pytest.approx((1.0 / 3.0, 2.0 / 3.0))
        assert ev(saw, 0.5) == pytest.approx(0.5)

    def test_hat_support_and_continuity(self):
        hat = signals.catalog("hat")
        assert hat.is_line and hat.support == (-1.0, 1.0)
        assert hat.breakpoints == ()
        assert ev(hat, 0.0) == 1.0 and ev(hat, 2.0) == 0.0

    def test_square_pulse_discontinuous(self):
        sq = signals.catalog("square-pulse")
        assert sq.breakpoints == (-0.5, 0.5)
        assert ev(sq, 0.0) == 1.0 and ev(sq, 0.8) == 0.0

    def test_unknown_name(self):
        with pytest.raises(UnknownNameError):
            signals.catalog("chirp")


class TestFromCsv:
    def test_linear_interpolation(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0,0\n1,2\n")
        sig = signals.from_csv(path, (0.0, 1.0))
        assert ev(sig, 0.5) == 1.0
        assert sig.breakpoints == ()

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("t,value\n0,1\n1,1\n")
        sig = signals.from_csv(path, (0.0, 1.0))
        assert ev(sig, 0.25) == 1.0

    def test_decreasing_times_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,0\n0,2\n")
        with pytest.raises(ValueError, match="increasing"):
            signals.from_csv(path, (0.0, 1.0))

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="no data"):
            signals.from_csv(path, (0.0, 1.0))

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "mal.csv"
        path.write_text("0,0\noops,1\n")
        with pytest.raises(ValueError, match="malformed"):
            signals.from_csv(path, (0.0, 1.0))

    @pytest.mark.parametrize("row", ["0.5,nan", "0.5,inf", "inf,1",
                                     "0.5,-inf"])
    def test_non_finite_sample_rejected(self, tmp_path, row):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"t,value\n0,1\n{row}\n1,1\n")
        with pytest.raises(ValueError, match=r"nonfinite\.csv:3: non-finite"):
            signals.from_csv(path, (0.0, 1.0))

    def test_negative_clamping_warns(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("0,-1\n0.5,2\n1,-0.5\n")
        with pytest.warns(UserWarning, match="clamped 2"):
            sig = signals.from_csv(path, (0.0, 1.0))
        assert ev(sig, 0.0) == 0.0 and ev(sig, 1.0) == 0.0


class TestMeanValues:
    def test_single_cell_ramp(self):
        table = signals.mean_values(signals.catalog("ramp"), 1, UNIT)
        assert (table.k_lo, table.k_hi) == (0, 0)
        assert table.values[0] == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_constant_means(self, n):
        table = signals.mean_values(signals.catalog("constant:2.5"), n, UNIT)
        np.testing.assert_allclose(table.values, 2.5, atol=1e-14)

    def test_step_split_exact(self):
        table = signals.mean_values(signals.catalog("step"), 2, UNIT)
        np.testing.assert_array_equal(table.values, [0.0, 1.0])

    def test_empty_index_set(self):
        with pytest.raises(EmptyIndexSetError):
            signals.mean_values(signals.catalog("ramp"), 1, (0.0, 0.4))

    def test_line_requires_support(self):
        bare = signals.Signal("flat", lambda x: np.ones_like(
            np.asarray(x, dtype=float)), domain=None)
        with pytest.raises(TruncationError):
            signals.mean_values(bare, 4, None)

    def test_polynomial_exactness(self, rng):
        # Gauss rule is exact for the table's polynomial segments
        for _ in range(10):
            poly = signals.random_piecewise_poly(rng)
            table = signals.mean_values(poly.to_signal(), 8, UNIT)
            exact = np.array([8.0 * poly.integral(k / 8.0, (k + 1) / 8.0)
                              for k in range(table.k_lo, table.k_hi + 1)])
            np.testing.assert_allclose(table.values, exact, atol=1e-12)

    def test_high_degree_cell_exact(self):
        coeffs = np.array([1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 1.0, -0.5,
                           2.0, 1.0, -3.0])  # degree 10
        poly = signals.PiecewisePoly((0.0, 1.0), [coeffs])
        table = signals.mean_values(poly.to_signal(), 4, UNIT)
        exact = np.array([4.0 * poly.integral(k / 4.0, (k + 1) / 4.0)
                          for k in range(4)])
        np.testing.assert_allclose(table.values, exact, atol=1e-12)

    def test_node_refinement_consistency(self, bounded_signals):
        # a 32-point Gauss rule on each half of a cell at every split point
        xi, wi = np.polynomial.legendre.leggauss(32)
        for sig in bounded_signals:
            table = signals.mean_values(sig, 8, sig.domain)
            for k, value in zip(range(table.k_lo, table.k_hi + 1),
                                table.values):
                edges = sorted({k / 8.0, (k + 1) / 8.0, *(
                    t for t in sig.split_points() if k < 8.0 * t < k + 1)})
                oracle = sum(4.0 * (b - a) * float(np.dot(wi, sig.evaluate(
                    0.5 * (a + b) + 0.5 * (b - a) * xi)))
                    for a, b in zip(edges, edges[1:]))
                assert value == pytest.approx(oracle, abs=1e-10)

    def test_real_line_zero_cells_exact(self):
        table = signals.mean_values(signals.catalog("hat"), 4, None)
        edge = [v for k, v in zip(range(table.k_lo, table.k_hi + 1),
                                  table.values)
                if k / 4.0 >= 1.0 or (k + 1) / 4.0 <= -1.0]
        assert all(v == 0.0 for v in edge)

    def test_mean_value_property(self, rng):
        # each cell mean lies between the cell extrema
        for _ in range(5):
            poly = signals.random_piecewise_poly(rng)
            table = signals.mean_values(poly.to_signal(), 4, UNIT)
            for k, mean in zip(range(table.k_lo, table.k_hi + 1),
                               table.values):
                lo, hi = k / 4.0, (k + 1) / 4.0
                # the pieces of poly over the cell [lo, hi]
                i = np.searchsorted(poly.edges, lo, side="right") - 1
                j = np.searchsorted(poly.edges, hi, side="left")
                cell = signals.PiecewisePoly(
                    [lo, *poly.edges[i + 1:j], hi], poly.coeffs[i:j])
                assert cell.minimum() - 1e-12 <= mean <= \
                    cell.maximum() + 1e-12

    @pytest.mark.parametrize("name, n, domain", [
        ("abs-sine", 256, UNIT), ("hat", 64, None), ("square-pulse", 128, None),
    ])
    def test_aligned_cells_are_row_sums(self, name, n, domain):
        # no split point falls inside a cell: each mean is its own 16-term
        # row sum, which converge-compact's bitwise references rest on
        sig = signals.catalog(name)
        table = signals.mean_values(sig, n, domain)
        edges = np.arange(table.k_lo, table.k_hi + 2) / float(n)
        x, w = quadrature.composite_nodes(edges)
        fx = sig.evaluate(x).reshape(-1, 16)
        want = float(n) * np.sum(fx * w.reshape(-1, 16), axis=1)
        assert table.values.tobytes() == want.tobytes()

    def test_split_cells_sum_panels_in_a_fixed_order(self, tmp_path):
        # a split cell adds its first panel's 16-term sum to np.add.reduce
        # of its other panels' sums; no BLAS dot, whose order its build picks
        ts = np.linspace(0.0, 1.0, 2000)
        walk = np.cumsum(np.random.default_rng(7).normal(0.0, 0.05, ts.size))
        walk += 0.25 - walk.min()
        path = tmp_path / "walk.csv"
        path.write_text("".join(f"{t!r},{v!r}\n" for t, v in zip(
            ts.tolist(), walk.tolist())))
        sig = signals.from_csv(path, UNIT)
        splits = np.array(sig.split_points())
        n = 256
        table = signals.mean_values(sig, n, UNIT)
        for k, value in enumerate(table.values):
            inside = splits[(splits > k / n) & (splits < (k + 1) / n)]
            x, w = quadrature.composite_nodes([k / n, *inside, (k + 1) / n])
            panels = np.sum((sig.evaluate(x) * w).reshape(-1, 16), axis=1)
            assert panels.size > 1
            assert value == n * (panels[0] + np.add.reduce(panels[1:]))

    def test_mean_table_memory_does_not_grow_with_kinks(self):
        # 200,000 kinks split each of 256 cells about 780 times; the panels
        # take node passes of a fixed size, so the peak stays far below the
        # 49 MiB that the 3.2M nodes and weights take at once
        rng = np.random.default_rng(0)
        xs = np.linspace(0.0, 1.0, 200_000)
        vs = np.abs(np.cumsum(rng.standard_normal(xs.size)))
        sig = signals.Signal("walk", lambda x: np.interp(x, xs, vs), UNIT,
                             kinks=tuple(xs[1:-1]))
        tracemalloc.start()
        try:
            table = signals.mean_values(sig, 256, UNIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.values.size == 256
        assert peak < 16 * 2 ** 20

    def test_blocks_keep_the_one_pass_bits(self):
        # 20,000 kinks at n = 8 make five node passes; every mean is
        # bitwise the one-pass sum over all panels
        xs = np.linspace(0.0, 1.0, 20_000)
        vs = 1.0 + np.sin(37.0 * xs) ** 2
        sig = signals.Signal("wave", lambda x: np.interp(x, xs, vs), UNIT,
                             kinks=tuple(xs[1:-1]))
        table = signals.mean_values(sig, 8, UNIT)
        edges = np.arange(9) / 8.0
        cuts = np.union1d(edges, xs[1:-1])
        x, w = quadrature.composite_nodes(cuts)
        panels = (sig.evaluate(x) * w).reshape(-1, 16).sum(axis=1)
        want = 8.0 * np.add.reduceat(panels, np.searchsorted(cuts, edges[:-1]))
        assert table.values.tobytes() == want.tobytes()

    def test_nonneg_signal_nonneg_means(self, rng):
        poly = signals.random_piecewise_poly(rng)
        table = signals.mean_values(poly.to_signal(), 16, UNIT)
        assert np.all(table.values >= -1e-15)


class TestPiecewisePoly:
    def test_arithmetic_matches_pointwise(self, rng):
        a = signals.random_piecewise_poly(rng)
        b = signals.random_piecewise_poly(rng)
        xs = rng.uniform(0.0, 1.0, size=500)
        np.testing.assert_allclose((a + b).evaluate(xs),
                                   a.evaluate(xs) + b.evaluate(xs),
                                   atol=1e-12)
        np.testing.assert_allclose((a - b).absolute().evaluate(xs),
                                   np.abs(a.evaluate(xs) - b.evaluate(xs)),
                                   atol=1e-12)
        np.testing.assert_allclose(a.scaled(2.5).evaluate(xs),
                                   2.5 * a.evaluate(xs), atol=1e-12)

    def test_absolute_is_nonnegative(self, rng):
        for _ in range(10):
            a = signals.random_piecewise_poly(rng)
            b = signals.random_piecewise_poly(rng)
            d = (a - b).absolute()
            assert d.minimum() >= -1e-10

    def test_random_generator_nonneg_and_bounded(self, rng):
        for _ in range(20):
            poly = signals.random_piecewise_poly(rng)
            assert poly.minimum() >= 0.0
            assert poly.maximum() <= 2.0 + 1e-12
            assert len(poly.edges) <= 5

    def test_random_draws_keep_their_bits(self):
        # the verify golden and the benchmark's references rest on these
        # draws: edges, values, extrema, recorded before the coefficients
        # became one padded matrix
        rng = np.random.default_rng(0)
        xs = np.linspace(0.0, 1.0, 33)
        digest = hashlib.sha256()
        for _ in range(200):
            poly = signals.random_piecewise_poly(rng)
            digest.update(poly.edges.tobytes())
            digest.update(poly.evaluate(xs).tobytes())
            digest.update(np.array([poly.minimum(), poly.maximum()]).tobytes())
        assert digest.hexdigest() == ("b0abde32867c7d7cb7bd3504cfbb7ac7"
                                      "a3191b749380cafd8b87928ba5485cda")

    def test_coefficients_are_one_padded_matrix(self):
        poly = signals.PiecewisePoly((0.0, 0.5, 1.0), [(2.0,), (1.0, -1.0, 3.0)])
        assert poly.coeffs.tobytes() == np.array(
            [[0.0, 0.0, 2.0], [1.0, -1.0, 3.0]]).tobytes()
        assert [list(c) for c in poly.coeffs[1:]] == [[1.0, -1.0, 3.0]]

    def test_evaluate_is_polyval_per_piece(self, rng):
        # one Horner pass over coefficients padded with leading zeros does
        # polyval's operations in polyval's order, signed zeros included
        polys = [signals.PiecewisePoly((-1.0, 0.0, 1.0),
                                       [(-0.0,), (0.0, 1.0, -0.0, -0.0)])]
        for _ in range(20):
            a = signals.random_piecewise_poly(rng)
            b = signals.random_piecewise_poly(rng)
            polys.append((a - b).absolute())   # mixed degrees, negated
        for poly in polys:
            xs = np.concatenate([rng.uniform(-1.5, 1.5, 200), poly.edges,
                                 -poly.edges])
            idx = np.clip(np.searchsorted(poly.edges, xs, side="right") - 1,
                          0, len(poly.coeffs) - 1)
            want = [np.polyval(poly.coeffs[i], x) for i, x in zip(idx, xs)]
            assert poly.evaluate(xs).tobytes() == np.array(want).tobytes()

    def test_closed_form_roots_match_np_roots(self, rng):
        # degrees 1 and 2 are solved in closed form, higher ones by np.roots
        def real(roots):
            return sorted(float(r.real) for r in roots
                          if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real)))

        cases = [(2.0, -1.0), (1.0, -1.0, 0.25), (1.0, -1.0, 0.0),
                 (1.0, 0.0, 0.0), (1.0, 0.0, 1.0), (3.0, 2.0, 1.0)]
        cases += [tuple(rng.normal(size=size)) for size in (2, 3, 4)
                  for _ in range(200)]
        for c in cases:
            got, want = real(signals._roots(np.array(c))), real(np.roots(c))
            assert len(got) == len(want), c
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-12)
        # a rounded double root may come out as a near-real complex pair
        # or as two close real roots: either way both lie at it
        for a, r in rng.normal(size=(50, 2)):
            got = real(signals._roots(np.array([a, -2.0 * a * r, a * r * r])))
            np.testing.assert_allclose(got, np.full(len(got), r), rtol=1e-7)

    def test_jump_vs_kink_classification(self):
        step = signals.PiecewisePoly((0.0, 0.5, 1.0), [(0.0,), (1.0,)])
        assert step.to_signal().breakpoints == (0.5,)
        hat_like = signals.PiecewisePoly((0.0, 0.5, 1.0),
                                         [(2.0, 0.0), (-2.0, 2.0)])
        sig = hat_like.to_signal()
        assert sig.breakpoints == () and sig.kinks == (0.5,)

    def test_integral_oracle(self):
        ramp = signals.PiecewisePoly((0.0, 1.0), [(1.0, 0.0)])
        assert ramp.integral(0.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        assert ramp.integral(0.25, 0.75) == pytest.approx(0.25, abs=1e-15)

    def test_signal_validation(self):
        with pytest.raises(ValueError):
            signals.Signal("bad", lambda x: x, (0.0, 1.0),
                           breakpoints=(0.7, 0.3))
        with pytest.raises(ValueError):
            signals.Signal("bad", lambda x: x, (0.0, 1.0),
                           breakpoints=(1.5,))
