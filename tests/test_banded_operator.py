"""The banded operator core against the dense reference evaluator, and the
element budget that bounds its temporaries."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_operator import evaluate_with_table_den as dense_evaluate
from maxprod import analysis, cli, kernels, operators, orlicz, quadrature, \
    signals
from maxprod.errors import (InadmissibleKernelError, InvalidInputError,
                            MaxprodError, TruncationError)

KERNELS = {name: kernels.kernel_by_name(name)
           for name in ("bspline:4", "bspline:5", "fejer", "vallee-poussin")}
# decay kernels for sparse tables: the catalog's envelopes, and a signed
# kernel with a loose, phase-less envelope (1.1 times the peaks of
# chi(u) u**2 and |chi(u)| u**2 sampled on 4 <= |u| < 4096)
DECAY_KERNELS = (KERNELS["fejer"], KERNELS["vallee-poussin"],
                 dataclasses.replace(KERNELS["vallee-poussin"], envelope=(
                     ((0.27499999970564465, 0.0),
                      (0.4888888883335833, 0.0)), 0.0)))
# vallee-poussin with an envelope 0.01 (1 + cos(pi u)) looser than its own:
# the phase lets the line hulls run on a signed kernel, whose largest term
# need not sit at the cell of the largest bound
PHASED_VP = dataclasses.replace(KERNELS["vallee-poussin"], envelope=(
    ((0.26, 0.01), (4.0 / 9.0 + 0.01, 0.01)), 2e-14))
UNIT = (0.0, 1.0)
INTERVAL_SIGNALS = ("constant:1", "ramp", "step", "sawtooth", "abs-sine",
                    "random")
LINE_SIGNALS = ("hat", "square-pulse")


def _bits(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _half_cells(n, lo, hi):
    """The half-cell edges j / 2n that cover [lo, hi]."""
    return np.arange(math.floor(2 * n * lo), math.ceil(2 * n * hi) + 1) / (
        2.0 * n)


@st.composite
def signals_on(draw, line):
    if line:
        return signals.catalog(draw(st.sampled_from(LINE_SIGNALS)))
    name = draw(st.sampled_from(INTERVAL_SIGNALS))
    if name == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
        return signals.random_piecewise_poly(rng).to_signal()
    return signals.catalog(name)


@st.composite
def cases(draw):
    kernel = KERNELS[draw(st.sampled_from(sorted(KERNELS)))]
    n = draw(st.integers(1, 600))
    f = draw(signals_on(draw(st.booleans())))
    if f.is_line:
        domain, lo, hi = None, f.support[0] - 2.0, f.support[1] + 2.0
    else:
        domain, lo, hi = (0.0, 1.0), 0.0, 1.0
    lattice = st.integers(math.ceil(n * lo), math.floor(n * hi)).map(
        lambda k: k / n)
    point = st.one_of(st.floats(lo, hi), lattice, st.sampled_from([lo, hi]))
    xs = draw(st.lists(point, max_size=40))
    if draw(st.booleans()):
        xs = xs + xs[::-1]   # duplicates, out of order
    return operators.operator_config(kernel, n, domain), f, np.array(xs)


@st.composite
def stacked_cases(draw):
    """A case plus one to three more signals on its domain."""
    config, f, xs = draw(cases())
    more = draw(st.lists(signals_on(f.is_line), min_size=1, max_size=3))
    return config, [f, *more], xs


@st.composite
def sparse_cases(draw):
    """A decay kernel and a scale, one to three tables of zero and positive
    means, and points.  On [0, 1], n <= 2r + 1 + 16 takes the one-pass
    window; line tables cover different cells, so the stack pads them."""
    kernel = draw(st.sampled_from(DECAY_KERNELS))
    n = draw(st.integers(8, 300))
    domain = draw(st.sampled_from([(0.0, 1.0), None]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero = draw(st.sampled_from([0.0, 0.3, 0.9]))
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        k_lo, cells = (0, n) if domain else (int(rng.integers(-n, n)),
                                             int(rng.integers(1, 2 * n)))
        values = rng.uniform(0.01, 2.0, cells)
        values[rng.random(cells) < zero] = 0.0
        tables.append(signals.MeanValueTable(
            n=n, k_lo=k_lo, k_hi=k_lo + cells - 1, values=values,
            domain=domain))
    lo, hi = domain or (min(t.k_lo for t in tables) / n - 2.0,
                        max(t.k_hi for t in tables) / n + 2.0)
    lattice = st.integers(math.ceil(n * lo), math.floor(n * hi)).map(
        lambda k: k / n)
    point = st.one_of(st.floats(lo, hi), lattice, st.sampled_from([lo, hi]))
    xs = np.array(draw(st.lists(point, min_size=1, max_size=30)))
    return operators.operator_config(kernel, n, domain), tables, xs


@st.composite
def one_sided_cases(draw):
    """A decay kernel and a scale, one to three tables that end in zero
    stretches, and points past the nonzero cells of one of them on
    both sides: the rows the line hulls settle, or hand on to the block
    search.  Ramps and hats give long hulls, random means short ones, flat
    means one line per group with every rival off it; points reach 10**15
    cells off, where the envelope's slack grows with |u|."""
    kernel = draw(st.sampled_from(DECAY_KERNELS + (PHASED_VP,)))
    n = draw(st.integers(8, 400))
    domain = draw(st.sampled_from([(0.0, 1.0), None]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        k_lo, cells = (0, n) if domain else (int(rng.integers(-n, n)),
                                             int(rng.integers(2, 2 * n)))
        t = np.linspace(0.0, 1.0, cells)
        values = {"random": rng.uniform(0.01, 2.0, cells),
                  "ramp": 0.01 + t ** rng.uniform(0.2, 3.0),
                  "hat": 1.01 - np.abs(2.0 * t - 1.0),
                  "flat": np.ones(cells)}[
            draw(st.sampled_from(["random", "ramp", "hat", "flat"]))]
        values[rng.random(cells) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
        lead, trail = rng.integers(0, cells // 2 + 1, size=2)
        values[:lead], values[cells - trail:] = 0.0, 0.0
        tables.append(signals.MeanValueTable(
            n=n, k_lo=k_lo, k_hi=k_lo + cells - 1, values=values,
            domain=domain))
    table = tables[draw(st.integers(0, len(tables) - 1))]
    lo, hi = domain or (table.k_lo / n - 3.0, (table.k_hi + 1) / n + 3.0)
    nz = table.k_lo + np.flatnonzero(table.values)
    first, last = (nz[0] / n, (nz[-1] + 1) / n) if nz.size else (hi, hi)
    far = 10.0 ** rng.uniform(3.0, 15.0, 10) / n if domain is None else \
        np.empty(0)
    xs = np.concatenate([rng.uniform(lo, first, 20), rng.uniform(last, hi, 20),
                         np.arange(math.ceil(n * lo), math.floor(n * hi) + 1,
                                   draw(st.integers(1, 9))) / n,
                         first - far[:5], last + far[5:]])
    xs = xs[(xs <= first) | (xs >= last)]
    return operators.operator_config(kernel, n, domain), tables, xs


def _table(f, config):
    return signals.mean_values(f, config.n, config.domain)


class TestAgainstDense:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(cases())
    def test_bitwise_equal_to_dense(self, case):
        # lattice arguments are computed as n x - k on both paths and every
        # supremum runs over a certified superset of its maximizers, so
        # values and den_min agree to the bit on both domains
        config, f, xs = case
        table = signals.mean_values(f, config.n, config.domain)
        want, want_den = dense_evaluate(config, table, xs)
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)
        assert got_den == want_den

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(stacked_cases())
    def test_stacked_rows_equal_single_tables(self, case):
        # a stack shares chi, the denominator and the block stage's visits,
        # which serve whichever table's bound asked for them; each row must
        # still be its table's own call, and the oracle, to the bit.  Line
        # tables of hat and square-pulse cover different index ranges.
        config, fs, xs = case
        tables = [_table(f, config) for f in fs]
        got, got_den = operators.evaluate_with_table_den(
            config, signals.MeanValueTable.stack(tables), xs)
        assert got.shape == (len(tables), xs.size)
        for row, table in zip(got, tables):
            single, single_den = operators.evaluate_with_table_den(
                config, table, xs)
            want, want_den = dense_evaluate(config, table, xs)
            assert _bits(row) == _bits(single) == _bits(want)
            assert got_den == single_den == want_den

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(sparse_cases())
    def test_sparse_tables_bitwise_equal_to_dense(self, case):
        # a zero mean is bounded by nothing, and a row whose near cells hold
        # zeros must still find the far cell that wins: each row of the
        # stack is its table's dense evaluation to the bit, a zero supremum
        # included
        config, tables, xs = case
        got, got_den = operators.evaluate_with_table_den(
            config, signals.MeanValueTable.stack(tables), xs)
        for row, table in zip(got, tables):
            want, want_den = dense_evaluate(config, table, xs)
            assert _bits(row) == _bits(want) and got_den == want_den

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(one_sided_cases())
    def test_one_sided_rows_bitwise_equal_to_dense(self, case):
        # past a table's nonzero cells the line hulls name each group's
        # cell of the largest bound and settle the row when no other line
        # reaches u; the rest take the block search.  Either way each row
        # of the stack is its table's dense evaluation to the bit
        config, tables, xs = case
        got, got_den = operators.evaluate_with_table_den(
            config, signals.MeanValueTable.stack(tables), xs)
        for row, table in zip(got, tables):
            want, want_den = dense_evaluate(config, table, xs)
            assert _bits(row) == _bits(want) and got_den == want_den

    @pytest.mark.parametrize("ties", [0, operators._TIES])
    def test_near_ties_settle_with_their_hull_neighbours(self, monkeypatch,
                                                         ties):
        # means (u0 - k)**2 (1 - g (k - k0)**2) put Fejer's even-k bounds at
        # u0 = 249 within 1e-9 of each other over ten cells around k0 = 179:
        # the hulls settle that row only by sweeping the neighbours of the
        # cell of the largest bound, else it takes the block search
        n, k = 64, np.arange(200.0)
        means = (249.0 - k) ** 2 * (1.0 - 1.5e-11 * (k - 179.0) ** 2)
        table = signals.MeanValueTable(n=n, k_lo=0, k_hi=199,
                                       values=means / means.max(), domain=None)
        config = operators.operator_config(KERNELS["fejer"], n, None)
        xs = np.array([249.0, 249.25, 249.5, 260.0]) / n
        left, settle = [], operators._settle_one_sided

        def spy(*args):
            settle(*args)
            left.append(args[-1][0].copy())   # need, after the hulls

        monkeypatch.setattr(operators, "_TIES", ties)
        monkeypatch.setattr(operators, "_settle_one_sided", spy)
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        want, want_den = dense_evaluate(config, table, xs)
        assert _bits(got) == _bits(want) and got_den == want_den
        assert left[0].tolist() == [ties == 0, False, False, False]

    def test_zero_suprema_are_positive_zeros(self, rng):
        # on an interval a row whose positive means all meet the negative
        # lobes of vallee-poussin has supremum zero from its zero means, a
        # negative lobe times a zero mean being -0.0: numpy's max returns
        # -0.0 or +0.0 by its reduction order, and reconstruct would write
        # the first as "-0.0"
        n, domain = 8, (0.0, 1.0)
        config = operators.operator_config(KERNELS["vallee-poussin"], n,
                                           domain)
        values = rng.uniform(0.01, 2.0, (200, n))
        values[rng.random(values.shape) < 0.8] = 0.0
        tables = [signals.MeanValueTable(n=n, k_lo=0, k_hi=n - 1, values=v,
                                         domain=domain) for v in values]
        xs = np.linspace(0.0, 1.0, 101)
        got, _ = operators.evaluate_with_table_den(
            config, signals.MeanValueTable.stack(tables), xs)
        want = np.array([dense_evaluate(config, t, xs)[0] for t in tables])
        for values in (got, want):
            zero = values == 0.0
            assert zero.sum() > 1000 and not np.signbit(values[zero]).any()

    @pytest.mark.parametrize("name, n, domain, signal, lo, hi", [
        ("fejer", 512, (0.0, 1.0), "abs-sine", 0.0, 1.0),
        ("vallee-poussin", 64, (0.0, 1.0), "sawtooth", 0.0, 1.0),
        ("fejer", 256, None, "hat", -3.0, 3.0),
        ("vallee-poussin", 128, None, "square-pulse", -3.0, 3.0),
    ])
    def test_stacked_rows_that_prune(self, rng, name, n, domain, signal, lo,
                                     hi):
        # decay rows past the one-pass size reach the block stage; the far
        # mean at cell k_lo wins only where the block stage finds it
        config = operators.operator_config(KERNELS[name], n, domain)
        base = _table(signals.catalog(signal), config)
        spike = np.full(base.values.size, 1e-12)
        spike[0] = 1.0
        tables = [base, dataclasses.replace(base, values=spike),
                  dataclasses.replace(base, values=0.5 * base.values)]
        xs = rng.uniform(lo, hi, 500)
        got, got_den = operators.evaluate_with_table_den(
            config, signals.MeanValueTable.stack(tables), xs)
        for row, table in zip(got, tables):
            want, want_den = dense_evaluate(config, table, xs)
            assert _bits(row) == _bits(want) and got_den == want_den

    @pytest.mark.parametrize("domain, n, xs", [
        ((0.0, 1.0), 512, [0.9173, 0.95, 0.987, 1.0]),
        ((0.0, 1.0), 150, [0.5031, 0.517]),
        (None, 512, [0.9173, 0.95, 0.987, 1.0, 1.21]),   # 1.21: off-table
    ])
    def test_certificate_failure_falls_back(self, domain, n, xs):
        # one large mean far from near-zero neighbours: inside the core the
        # row supremum is ~1e-12, and the true value comes from the far cell
        # that only the block stage reaches
        config = operators.operator_config(KERNELS["fejer"], n, domain)
        r = operators._radius(config)
        values = np.full(n, 1e-12)
        values[0] = 1.0
        table = signals.MeanValueTable(n=n, k_lo=0, k_hi=n - 1, values=values,
                                       domain=config.domain)
        xs = np.array(xs)
        assert np.all(n * xs - r > 1)   # cell 0 is off the core
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        want, want_den = dense_evaluate(config, table, xs)
        assert _bits(got) == _bits(want) and got_den == want_den
        assert np.all(got[:2] > 1e3 * 1e-12)

    @pytest.mark.parametrize("n", [12, 27, 28])
    @pytest.mark.parametrize("name", ["fejer", "vallee-poussin"])
    def test_one_pass_takes_the_whole_table(self, name, n):
        # r = 5 for both kernels on [0, 1]: up to |J_n| = 2r + 1 + 16 = 27 a
        # row takes one pass over all of J_n, which must reach cell 0 from
        # the far end; from 28 on the block stage must find it
        config = operators.operator_config(KERNELS[name], n, (0.0, 1.0))
        values = np.full(n, 1e-12)
        values[0] = 1.0
        table = signals.MeanValueTable(n=n, k_lo=0, k_hi=n - 1, values=values,
                                       domain=(0.0, 1.0))
        xs = np.array([(n - 0.5) / n, 1.0])
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        want, want_den = dense_evaluate(config, table, xs)
        assert _bits(got) == _bits(want) and got_den == want_den

    def test_block_holding_the_point(self):
        # u = 8.5 lies deep inside block [0, 15], and its winning cell 5 lies
        # just outside the core (r = 2); the block of cell 20 has the larger
        # bound, goes first, and beats any bound that used d = -6.5 instead
        # of r for the block holding u
        n = 64
        config = operators.operator_config(KERNELS["fejer"], n, None)
        values = np.full(n, 1e-12)
        values[5], values[20] = 1.0, 10.0
        table = signals.MeanValueTable(n=n, k_lo=0, k_hi=n - 1, values=values,
                                       domain=None)
        xs = np.array([8.5 / n])
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        want, want_den = dense_evaluate(config, table, xs)
        assert _bits(got) == _bits(want) and got_den == want_den

    @pytest.mark.parametrize("kernel, signal, lo, hi", [
        # the winning cell lies about d cells into the support, not at its
        # edge, d being the distance from x to the support
        ("fejer", "hat", 1.1, 3.0),
        ("vallee-poussin", "square-pulse", -3.0, 3.0),   # signed lobes
    ])
    def test_far_field_on_the_line(self, kernel, signal, lo, hi):
        config = operators.operator_config(KERNELS[kernel], 256, None)
        table = signals.mean_values(signals.catalog(signal), 256, None)
        xs = np.linspace(lo, hi, 2000)
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        want, want_den = dense_evaluate(config, table, xs)
        assert _bits(got) == _bits(want) and got_den == want_den

    @pytest.mark.parametrize("domain, n, signal", [
        ((0.0, 1.0), 300, "abs-sine"),
        (None, 200, "hat"),
    ])
    def test_sampled_decay_coefficient(self, domain, n, signal):
        # the core radius and the pruning bound trust the C of a loose,
        # phase-less envelope: 1.1 times the peak 2/pi**2 of fejer's,
        # the size of the certificate its tails were once sampled for
        c = 2.2 / math.pi ** 2
        kernel = dataclasses.replace(KERNELS["fejer"], envelope=(
            ((c, 0.0), (c, 0.0), (0.0, 0.0)), 2e-14))
        assert kernels._decay_coefficient(kernel) == c
        config = operators.operator_config(kernel, n, domain)
        table = signals.mean_values(signals.catalog(signal), n, domain)
        xs = np.linspace(*(domain or (-3.0, 3.0)), 2000)
        got, got_den = operators.evaluate_with_table_den(config, table, xs)
        want, want_den = dense_evaluate(config, table, xs)
        assert _bits(got) == _bits(want) and got_den == want_den

    def test_decay_coefficient_is_the_envelope_peak(self):
        # C in |chi(u)| <= C |u|**-2 is the largest declared envelope row
        peak = kernels._decay_coefficient
        assert peak(KERNELS["fejer"]) == 2.0 / math.pi ** 2
        assert peak(KERNELS["vallee-poussin"]) == 4.0 / 9.0
        bare = dataclasses.replace(KERNELS["fejer"], envelope=None)
        config = operators.operator_config(bare, 16, None)
        with pytest.raises(TruncationError, match="envelope"):
            operators.maxprod_kantorovich(config, signals.catalog("hat"), 0.0)

    def test_empty_points(self):
        config = operators.operator_config(KERNELS["fejer"], 16, None)
        table = signals.mean_values(signals.catalog("hat"), 16, None)
        got, den = operators.evaluate_with_table_den(config, table, [])
        assert got.shape == (0,) and den == math.inf

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("domain", [(0.0, 1.0), None])
    def test_non_finite_points_rejected(self, bad, domain):
        config = operators.operator_config(KERNELS["bspline:4"], 16, domain)
        f = signals.catalog("ramp" if domain else "hat")
        table = signals.mean_values(f, 16, domain)
        with pytest.raises(ValueError, match="finite"):
            operators.evaluate_with_table_den(config, table, [0.5, bad])

    def test_two_dimensional_points_rejected(self):
        config = operators.operator_config(KERNELS["bspline:4"], 16,
                                           (0.0, 1.0))
        table = signals.mean_values(signals.catalog("ramp"), 16, (0.0, 1.0))
        with pytest.raises(ValueError, match=r"1-D, not \(2, 3\)"):
            operators.evaluate_with_table_den(config, table,
                                              np.full((2, 3), 0.5))

    @pytest.mark.parametrize("other", [
        dict(n=32),                                   # another scale
        dict(domain=(0.5, 1.0)),                      # another interval
        dict(domain=None),                            # the line
    ])
    def test_stack_rejects_mismatched_tables(self, other):
        hat = signals.catalog("hat")
        args = dict(n=16, domain=(-1.0, 1.0))
        table = signals.mean_values(hat, **args)
        with pytest.raises(InvalidInputError, match="must share n"):
            signals.MeanValueTable.stack(
                [table, signals.mean_values(hat, **(args | other))])


class TestCompactWindow:
    """A compact row sweeps the 2R columns from floor(n x) - R + 1,
    R = ceil(support); every column off it is at |n x - k| >= R."""

    @staticmethod
    def _edge_points(n, lo, hi):
        """x with frac(n x) in {0, 1/2} on [lo, hi], and one ulp either
        side, where the columns at the window's edges lie R or R - 1/2
        from n x."""
        x = np.arange(math.ceil(2 * n * lo), math.floor(2 * n * hi) + 1) / (
            2.0 * n)
        return np.concatenate([x, np.nextafter(x, -np.inf),
                               np.nextafter(x, np.inf)])

    @staticmethod
    def _outcome(evaluate, config, table, x):
        """Bits of the values and den_min at one point, or the error."""
        try:
            values, den = evaluate(config, table, np.array([x]))
        except InadmissibleKernelError:   # a zero lattice supremum
            return "inadmissible"
        return _bits(values), den

    @pytest.mark.parametrize("order", range(1, kernels.MAX_BSPLINE_ORDER + 1))
    @pytest.mark.parametrize("domain", [(0.0, 1.0), None])
    @pytest.mark.parametrize("n", [3, 8])
    def test_window_edges_bitwise_equal_to_dense(self, order, domain, n):
        kernel = kernels.bspline(order)
        try:
            config = operators.operator_config(kernel, n, domain)
        except InadmissibleKernelError:
            # the opt-in: bspline:1-3 vanish inside the admissibility
            # interval (at u = 1/2, 1 and 3/2), yet their lattice suprema
            # are positive except near the interval's right end, where
            # both paths raise
            config = operators.operator_config(kernel, n, domain, a_chi=0.1)
        table = _table(signals.catalog("abs-sine" if domain else "hat"),
                       config)
        r = math.ceil(kernel.support)
        lo, hi = domain or ((table.k_lo - 2 * r) / n, (table.k_hi + 2 * r) / n)
        for x in self._edge_points(n, lo, hi):
            assert self._outcome(operators.evaluate_with_table_den, config,
                                 table, x) == self._outcome(
                dense_evaluate, config, table, x), (kernel.name, x)


class TestLatticeNodes:
    """Half-cell quadrature nodes built as a cell plus one of 32 offsets,
    whose kernel values the operator reads from one table per offset and
    window shift."""

    @pytest.mark.parametrize("name", ["bspline:4", "bspline:5", "bspline:6",
                                      "bspline:7", "fejer", "vallee-poussin"])
    @pytest.mark.parametrize("line", [False, True])
    @pytest.mark.parametrize("n", [4, 7, 16, 256])
    def test_within_1e12_of_dense(self, name, line, n):
        # chi(o - d) against the oracle's chi(n x - k) at x = u / n: the two
        # arguments differ by the rounding of u, well inside 1e-12
        domain, f = (None, "hat") if line else ((0.0, 1.0), "abs-sine")
        lo, hi = (-2.0, 2.0) if line else domain
        config = operators.operator_config(kernels.kernel_by_name(name), n,
                                           domain)
        table = _table(signals.catalog(f), config)
        # at n = 256 every fifth half-cell, with the panels between them
        edges, step = _half_cells(n, lo, hi), 1 + n // 64
        _, _, on, nodes = quadrature.lattice_nodes(np.union1d(
            edges[:-1:step], edges[1::step]), n)
        assert on.sum() == 16 * edges[:-1:step].size
        got, got_den = operators.evaluate_with_table_den(config, table, nodes)
        want, want_den = dense_evaluate(config, table, np.asarray(nodes))
        assert np.max(np.abs(got - want)) <= 1e-12
        assert abs(got_den - want_den) <= 1e-12
        # a block another table of the stack visits reads chi with the
        # same arguments, so each row is still its table's own evaluation
        stack = signals.MeanValueTable.stack([table, _table(
            signals.catalog("square-pulse" if line else "ramp"), config)])
        rows, _ = operators.evaluate_with_table_den(config, stack, nodes)
        assert _bits(rows[0]) == _bits(got)

    @pytest.mark.parametrize("name", ["fejer", "vallee-poussin"])
    @pytest.mark.parametrize("line", [False, True])
    def test_block_table_bitwise_equal_to_per_pair(self, name, line,
                                                   monkeypatch):
        # all nodes in one call read the block stage's chi from one table
        # of 32 offsets by D shifts, 32 D <= 16 rows; one cell's 32 nodes per
        # call are too few rows for it once D > 16, so they compute
        # chi(o - (k - cell)) per pair.  Sparse means leave the rows between
        # nonzero cells to the block stage
        n, domain = 64, None if line else UNIT
        config = operators.operator_config(KERNELS[name], n, domain)
        base = _table(signals.catalog("hat" if line else "ramp"), config)
        rng = np.random.default_rng(7)
        tables = [dataclasses.replace(base, values=rng.random(
            base.values.size) * (rng.random(base.values.size) < 0.2))
            for _ in range(2)]
        tables[1] = signals.MeanValueTable.stack(tables)
        _, _, _, nodes = quadrature.lattice_nodes(
            _half_cells(n, *((-2.0, 2.0) if line else UNIT)), n)
        built, chi = [], quadrature.LatticeNodes.chi
        monkeypatch.setattr(quadrature.LatticeNodes, "chi", lambda self, *a: (
            built.append(self.cells.size), chi(self, *a))[1])
        whole = [operators.evaluate_with_table_den(config, table, nodes)[0]
                 for table in tables]
        assert built == [nodes.cells.size] * 4   # a core and a block table
        built.clear()
        cells = np.unique(nodes.cells)
        for c in cells:
            at = nodes.cells == c
            one = quadrature.LatticeNodes(n, nodes.cells[at], nodes.offset[at],
                                          nodes.offsets)
            for table, want in zip(tables, whole):
                got, _ = operators.evaluate_with_table_den(config, table, one)
                assert _bits(got) == _bits(want[..., at])
        assert built == [32] * (2 * cells.size)   # the core table only

    @pytest.mark.parametrize("name, f, scales, most", [
        # 2,160,713 with the blocks' chi computed per pair
        ("vallee-poussin", "square-pulse", (64, 128, 256), 1_000_000),
        # per pair, 885,641: a block table sized before the line hulls
        # settle their rows would hold far more values than it saves
        ("fejer", "hat", (2048,), 885_641)])
    def test_kernel_values_of_line_studies(self, name, f, scales, most):
        # kernel values counted on a wrapper of Kernel.evaluate, constants
        # included: deterministic, unlike the study's time
        values, evaluate = [], KERNELS[name].evaluate
        kernel = dataclasses.replace(KERNELS[name], evaluate=lambda u: (
            values.append(np.size(u)), evaluate(u))[1])
        analysis.run_convergence(signals.catalog(f), kernel,
                                 orlicz.power_phi(2.0), 1.0, scales)
        assert sum(values) <= most

    def test_nodes_and_weights_are_the_gauss_rules(self):
        # the weights are composite_nodes' bit for bit, the half-cell nodes
        # move by rounding only, and a panel that a split point off the
        # lattice cuts keeps its x-nodes
        n = 8
        edges = np.concatenate([_half_cells(n, 0.0, 0.5), [0.53],
                                _half_cells(n, 0.5625, 1.0)])
        x, w, on, nodes = quadrature.lattice_nodes(edges, n)
        xc, wc = quadrature.composite_nodes(edges)
        assert _bits(w) == _bits(wc)
        assert on.sum() == 16 * (edges.size - 3)
        assert not on[8 * 16:10 * 16].any()
        assert _bits(x[~on]) == _bits(xc[~on])
        assert np.max(np.abs(x - xc)) <= 4 * np.spacing(1.0)
        assert _bits(x[on]) == _bits(np.asarray(nodes))
        assert np.array_equal(nodes.cells, np.floor(n * x[on]))


@st.composite
def bad_calls(draw):
    """An operator call with one defect: a point off the domain or past
    |n x| = 2**52, points that are not 1-D, lattice nodes of another scale
    or offsets off [0, 1), a mean table of another scale or domain, a
    signal with negative or non-finite means, a scale below one or not an
    integer (to a config, a mean table or a convergence run), or a
    degenerate domain."""
    kernel = KERNELS[draw(st.sampled_from(sorted(KERNELS)))]
    n, line = draw(st.integers(1, 64)), draw(st.booleans())
    domain, f = (None, signals.catalog("hat")) if line else (
        (0.0, 1.0), signals.catalog("ramp"))
    config = operators.operator_config(kernel, n, domain)
    table = _table(f, config)
    lo, hi = (-3.0, 3.0) if line else domain
    xs = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=8))
    cells = np.floor(n * np.array(xs)).astype(np.int64)
    offset, offsets = np.zeros(len(xs), dtype=np.uint8), np.array([0.5])
    defect = draw(st.sampled_from(["point", "shape", "scale of nodes",
                                   "offset", "table", "signal", "scale",
                                   "domain"]))
    if defect == "point":
        far = 2.0 ** 52 / n
        bad = draw(st.one_of(
            st.sampled_from([math.nan, math.inf, -math.inf, far, -far]),
            st.floats(far, 1e300), st.floats(-1e300, -far),
            *([] if line else [st.floats(1.0 + 1e-6, 1e6),
                               st.floats(-1e6, -1e-6)])))
        xs.insert(draw(st.integers(0, len(xs))), bad)
        return lambda: operators.evaluate_with_table_den(config, table, xs)
    if defect == "shape":
        return lambda: operators.evaluate_with_table_den(
            config, table, np.array([xs, xs]))
    if defect == "scale of nodes":
        nodes = quadrature.LatticeNodes(n + draw(st.integers(1, 9)), cells,
                                        offset, offsets)
        return lambda: operators.evaluate_with_table_den(config, table, nodes)
    if defect == "offset":
        offsets = np.array([draw(st.one_of(
            st.floats(1.0, 1e6), st.floats(-1e6, -1e-12),
            st.sampled_from([math.nan, math.inf])))])
        return lambda: operators.evaluate_with_table_den(
            config, table, quadrature.LatticeNodes(n, cells, offset, offsets))
    if defect == "table":
        other = draw(st.sampled_from(["n", "domain"]))
        table = signals.mean_values(f, n + 1, domain) if other == "n" else (
            signals.mean_values(f, n, (-1.0, 1.0) if line else None)
            if line or f.support else signals.mean_values(
                signals.catalog("hat"), n, None))
        return lambda: operators.evaluate_with_table_den(config, table, xs)
    if defect == "signal":
        value = draw(st.sampled_from([-1.0, math.nan, math.inf]))
        bad_f = dataclasses.replace(f, name="bad", evaluate=lambda x: np.where(
            np.abs(x - 0.5) < 0.25, value, 1.0))
        return lambda: operators.maxprod_kantorovich_grid(config, bad_f, xs)
    if defect == "scale":
        n_bad = draw(st.one_of(
            st.integers(-5, 0),
            st.floats().filter(lambda v: not math.isfinite(v) or v % 1),
            st.sampled_from([2.5, np.float64(2.5), np.int64(0), "4", None])))
        return draw(st.sampled_from([
            lambda: dataclasses.replace(config, n=n_bad),
            lambda: operators.operator_config(kernel, n_bad, domain),
            lambda: signals.mean_values(f, n_bad, domain),
            lambda: analysis.run_convergence(f, kernel, orlicz.power_phi(1.0),
                                             1.0, [n, n_bad])]))
    return lambda: dataclasses.replace(config, domain=draw(st.sampled_from(
        [(1.0, 1.0), (1.0, 0.0), (math.nan, 1.0)])))


class TestTypedErrors:
    def test_invalid_input_is_a_value_error(self):
        assert issubclass(InvalidInputError, MaxprodError)
        assert issubclass(InvalidInputError, ValueError)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(sorted(KERNELS)), st.integers(1, 64),
           st.booleans(), st.sampled_from([-1.0, -1e-12, -math.inf, math.inf,
                                           math.nan]),
           st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 2))
    def test_negative_or_non_finite_means_rejected(self, name, n, line, bad,
                                                   where, row):
        # the one check every library path goes through: a bad mean at any
        # cell of a table, or of either row of a stack (row < 2), raises at
        # points and at lattice nodes, and a signal with that mean raises
        # in the grid form
        config = operators.operator_config(KERNELS[name], n, None if line
                                           else UNIT)
        f = signals.catalog("hat" if line else "ramp")
        table = _table(f, config)
        k = table.k_lo + int(where * table.values.size)
        values = table.values.copy()
        values[k - table.k_lo] = bad
        bad_table = dataclasses.replace(table, values=values)
        if row < 2:
            rows = [table, table]
            rows[row] = bad_table
            bad_table = signals.MeanValueTable.stack(rows)
        lo, hi = (-2.0, 2.0) if line else UNIT
        _, _, _, nodes = quadrature.lattice_nodes(_half_cells(n, lo, hi), n)
        bad_f = dataclasses.replace(f, evaluate=lambda x: np.where(
            np.floor(n * x) == k, bad, f.evaluate(x)))
        for call in (
                lambda: operators.evaluate_with_table_den(config, bad_table,
                                                          [0.25, 0.5]),
                lambda: operators.evaluate_with_table_den(config, bad_table,
                                                          nodes),
                lambda: operators.maxprod_kantorovich_grid(config, bad_f,
                                                           [0.5])):
            with pytest.raises(InvalidInputError, match="non-negative"):
                call()

    @pytest.mark.parametrize("name", ["bspline:4", "fejer", "vallee-poussin"])
    @pytest.mark.parametrize("line", [False, True])
    def test_negative_zero_means_give_positive_zeros(self, name, line):
        n, domain = 16, None if line else UNIT
        config = operators.operator_config(KERNELS[name], n, domain)
        table = _table(signals.catalog("hat" if line else "ramp"), config)
        table = dataclasses.replace(table, values=np.full_like(table.values,
                                                               -0.0))
        lo, hi = (-2.0, 2.0) if line else UNIT
        _, _, _, nodes = quadrature.lattice_nodes(_half_cells(n, lo, hi), n)
        for xs in (np.linspace(lo, hi, 101), nodes):
            got, _ = operators.evaluate_with_table_den(config, table, xs)
            assert np.all(got == 0.0) and not np.signbit(got).any()

    @pytest.mark.parametrize("n", [16, 16.0, np.int64(16), np.float64(16.0)])
    def test_integer_valued_scales_accepted(self, n):
        f = signals.catalog("ramp")
        config = operators.operator_config(KERNELS["bspline:4"], n, UNIT)
        assert type(config.n) is int and config.n == 16
        assert signals.mean_values(f, n, UNIT).n == 16
        assert analysis.run_convergence(f, config.kernel,
                                        orlicz.power_phi(1.0), 1.0,
                                        [8, n]).scales == [8, 16]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(bad_calls())
    def test_bad_input_raises_typed_errors(self, call):
        with pytest.raises(MaxprodError):
            call()


class TestElementBudget:
    """Peak traced memory of one large evaluation stays under a fixed
    ceiling (at most about 5.5 MiB is used, in the far field); 4096-row
    dense chunks at n = 8192 need 256 MiB per temporary."""

    CEILING = 8 * 2 ** 20

    @pytest.mark.parametrize("kernel, signal, domain", [
        ("bspline:4", "abs-sine", (0.0, 1.0)),
        ("fejer", "abs-sine", (0.0, 1.0)),
        ("fejer", "hat", None),
    ])
    def test_peak_memory_at_n_8192(self, kernel, signal, domain):
        n = 8192
        config = operators.operator_config(KERNELS[kernel], n, domain)
        f = signals.catalog(signal)
        table = signals.mean_values(f, n, domain)
        if domain is None:   # the support, and a strip of far field
            xs = np.concatenate([np.linspace(-0.999, 0.999, 19_800),
                                 np.linspace(1.5, 2.5, 200)])
        else:
            xs = np.linspace(0.0, 1.0, 20_000)
        self._check_peak(config, table, xs)

    def test_peak_memory_in_the_far_field(self):
        # most rows reach the block search, over a heap of the 1025 blocks
        # of the 16386-cell table
        config = operators.operator_config(KERNELS["fejer"], 8192, None)
        table = signals.mean_values(signals.catalog("hat"), 8192, None)
        self._check_peak(config, table, np.linspace(-16.0, 16.0, 20_000))

    def test_peak_memory_of_a_six_table_stack(self):
        # one sweep serves six tables and the table of ones, so its chunks
        # hold 1/7 of the rows; each table searches the rows its own
        # numerator needs, half of them for the step's zero means
        n = 8192
        config = operators.operator_config(KERNELS["fejer"], n, (0.0, 1.0))
        table = signals.MeanValueTable.stack([
            signals.mean_values(signals.catalog(name), n, (0.0, 1.0))
            for name in ("constant:1", "ramp", "step", "sawtooth",
                         "abs-sine", "constant:0.5")])
        self._check_peak(config, table, np.linspace(0.0, 1.0, 5_000))

    def test_peak_memory_and_pairs_at_the_cap(self):
        # the largest table a CLI run may ask for: the block heap and its
        # setup scale with the table, the search with the points, and each
        # point sweeps its core and a few blocks, however far the step is
        n = cli.MAX_CELLS
        config = operators.operator_config(KERNELS["fejer"], n, (0.0, 1.0))
        table = signals.mean_values(signals.catalog("step"), n, (0.0, 1.0))
        pairs, evaluate = [], config.kernel.evaluate
        config = dataclasses.replace(config, kernel=dataclasses.replace(
            config.kernel, evaluate=lambda u: (pairs.append(np.size(u)),
                                               evaluate(u))[1]))
        xs = np.linspace(0.0, 1.0, 2000)
        self._check_peak(config, table, xs,
                         self.CEILING + 6 * table.values.nbytes)
        r = operators._radius(config)
        assert sum(pairs) / xs.size <= 2 * r + 1 + 4 * operators._BLOCK

    def test_peak_memory_and_pairs_one_sided_at_the_cap(self):
        # the largest hat table a CLI run may ask for, and points 1 to 3
        # units off its support: the line hulls grow with the table and
        # their rows go in chunks.  A row costs its core and one column per
        # class of k, and 16 more where its bounds tie within the
        # envelope's slack: 7.1 pairs per point, 3,445 with the block
        # search alone
        n = cli.MAX_CELLS // 6
        config = operators.operator_config(KERNELS["fejer"], n, None)
        table = signals.mean_values(signals.catalog("hat"), n, None)
        pairs, evaluate = [], config.kernel.evaluate
        config = dataclasses.replace(config, kernel=dataclasses.replace(
            config.kernel, evaluate=lambda u: (pairs.append(np.size(u)),
                                               evaluate(u))[1]))
        xs = np.concatenate([np.linspace(-4.0, -2.0, 1000),
                             np.linspace(2.0, 4.0, 1000)])
        self._check_peak(config, table, xs,
                         self.CEILING + 6 * table.values.nbytes)
        assert sum(pairs) / xs.size <= 16

    def _check_peak(self, config, table, xs, ceiling=CEILING):
        tracemalloc.start()
        try:
            values, _ = operators.evaluate_with_table_den(config, table, xs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ceiling
        assert np.all(np.isfinite(values))
