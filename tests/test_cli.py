import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import catalog_names
from maxprod import cli, errors
from maxprod.cli import MAX_CELLS, main

VERIFY_DRAWS_8_SEED_42 = """\
operator-algebra/monotonicity      trials=8     failures=0    worst_slack=9.859e-02  [pass]
operator-algebra/sub-additivity    trials=8     failures=0    worst_slack=-2.220e-16  [pass]
operator-algebra/difference-bound  trials=8     failures=0    worst_slack=-1.110e-16  [pass]
operator-algebra/homogeneity       trials=8     failures=0    worst_slack=-1.898e-16  [pass]
max-convexity                      trials=8     failures=0    worst_slack=0.000e+00  [pass]
modular-inequality                 trials=8     failures=0    worst_slack=1.021e-01  [pass]
lp-lipschitz                       trials=8     failures=0    worst_slack=2.592e+00  [pass]
zygmund-instance                   trials=2     failures=0    worst_slack=7.832e+01  [pass]
exponential-instance               trials=2     failures=0    worst_slack=7.878e-01  [pass]
"""

CONVERGE_FEJER_HAT_LINE_16_32 = """\
{
  "fitted_rate": -0.9999999999999966,
  "kernel": "fejer",
  "lambda_used": 1.0,
  "luxemburg_errors": [
    0.0494252486861324,
    0.025035563064224466
  ],
  "modular_errors": [
    0.0024428552076860323,
    0.0006267794179427603
  ],
  "phi": "power:2",
  "scales": [
    16,
    32
  ],
  "signal": "hat",
  "sup_errors": [
    0.0625,
    0.03125000000000011
  ],
  "valid": [
    true,
    true
  ]
}
"""

CONVERGE_BSPLINE4_ABS_SINE_16_32 = """\
{
  "fitted_rate": -0.8959747867211507,
  "kernel": "bspline:4",
  "lambda_used": 1.0,
  "luxemburg_errors": [
    0.13904704963183379,
    0.07423415206951245
  ],
  "modular_errors": [
    0.01933408199198357,
    0.005510709327968792
  ],
  "phi": "power:2",
  "scales": [
    16,
    32
  ],
  "signal": "abs-sine",
  "sup_errors": [
    0.35691695639927085,
    0.19180145382544872
  ],
  "valid": [
    true,
    true
  ]
}
"""

CONVERGE_VP_SQUARE_PULSE_LINE_16_32 = """\
{
  "fitted_rate": 0.0,
  "kernel": "vallee-poussin",
  "lambda_used": 1.0,
  "luxemburg_errors": [
    0.26805269590349173,
    0.1895418887305244
  ],
  "modular_errors": [
    0.07185224778112984,
    0.0359261275835345
  ],
  "phi": "power:2",
  "scales": [
    16,
    32
  ],
  "signal": "square-pulse",
  "sup_errors": [
    1.0,
    1.0
  ],
  "valid": [
    true,
    true
  ]
}
"""


def _strict_json(text):
    """Parse RFC 8259 JSON, which has no Infinity and no NaN."""
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestKernelInfo:
    def test_fejer_beta_two_satisfies_chi1(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "fejer",
                           "--beta", "2")
        assert code == 0
        assert "chi1 (beta=2): satisfied" in out
        assert "verdict (interval): admissible" in out

    def test_bspline3_bounded_fails_chi2(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "bspline:3",
                           "--domain", "bounded")
        assert code == 0
        assert "chi2: FAILS" in out
        assert "chi2': satisfied" in out
        assert "NOT admissible" in out

    def test_vallee_poussin_constant(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel",
                           "vallee-poussin", "--domain", "bounded", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["a_chi_bounded"] == pytest.approx(0.1048, abs=1e-3)

    def test_json_divergent_moment_is_null(self, capsys):
        code, out, _ = run(capsys, "kernel-info", "--kernel", "fejer",
                           "--beta", "5", "--json")
        assert code == 0
        assert _strict_json(out)["moments"]["m_5"] is None

    def test_unknown_kernel_exit_2(self, capsys):
        code, _, err = run(capsys, "kernel-info", "--kernel", "gaussian")
        assert code == 2
        assert "unknown kernel" in err


class TestReconstruct:
    def test_constant_columns_match(self, capsys, tmp_path):
        out_path = tmp_path / "rec.csv"
        code, _, _ = run(capsys, "reconstruct", "--kernel", "fejer",
                         "--signal", "constant:1", "--n", "16",
                         "--grid", "40", "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "f", "K_n_f"]
        assert len(rows) == 41
        for _, fv, kv in rows[1:]:
            assert float(fv) == float(kv)

    def test_rerun_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "reconstruct", "--kernel", "vallee-poussin", "--signal",
            "step", "--n", "32", "--out", str(a))
        run(capsys, "reconstruct", "--kernel", "vallee-poussin", "--signal",
            "step", "--n", "32", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_inadmissible_kernel_exit_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "reconstruct", "--kernel", "bspline:3",
                           "--signal", "ramp", "--out",
                           str(tmp_path / "x.csv"))
        assert code == 3
        assert "inadmissible" in err

    def test_empty_index_set_exit_4(self, capsys, tmp_path):
        code, _, err = run(capsys, "reconstruct", "--kernel", "fejer",
                           "--signal", "ramp", "--domain", "interval:0,0.4",
                           "--n", "2", "--out", str(tmp_path / "x.csv"))
        assert code == 4
        assert "no lattice cells" in err

    def test_csv_signal_ingestion(self, capsys, tmp_path):
        data = tmp_path / "sig.csv"
        data.write_text("0,1\n0.5,1\n1,1\n")
        out_path = tmp_path / "rec.csv"
        code, _, _ = run(capsys, "reconstruct", "--kernel", "fejer",
                         "--csv", str(data), "--n", "8", "--grid", "16",
                         "--out", str(out_path))
        assert code == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        np.testing.assert_allclose([float(r[2]) for r in rows], 1.0,
                                   atol=1e-12)


class TestConverge:
    def test_constant_zero_columns(self, capsys, tmp_path):
        out = tmp_path / "rep"
        code, _, _ = run(capsys, "converge", "--kernel", "fejer", "--phi",
                         "power:2", "--signal", "constant:1", "--scales",
                         "4,8,16", "--out", str(out))
        assert code == 0
        payload = json.loads((tmp_path / "rep.json").read_text())
        assert payload["sup_errors"] == [0.0, 0.0, 0.0]
        assert payload["modular_errors"] == [0.0, 0.0, 0.0]

    def test_step_modular_decreasing(self, capsys, tmp_path):
        out = tmp_path / "rep"
        code, _, _ = run(capsys, "converge", "--kernel", "fejer", "--phi",
                         "power:2", "--signal", "step", "--scales",
                         "8,16,32,64", "--out", str(out))
        assert code == 0
        with open(tmp_path / "rep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "sup_error", "modular_error",
                           "luxemburg_error"]
        mods = [float(r[2]) for r in rows[1:]]
        assert all(a > b for a, b in zip(mods, mods[1:]))

    def test_divergent_modular_is_null(self, capsys, tmp_path):
        out = tmp_path / "rep"
        code, _, _ = run(capsys, "converge", "--kernel", "bspline:4",
                         "--phi", "exponential:1", "--signal", "step",
                         "--lambda", "1000", "--scales", "8,16",
                         "--out", str(out))
        assert code == 0
        payload = _strict_json((tmp_path / "rep.json").read_text())
        assert payload["modular_errors"] == [None, None]
        assert all(0.0 < v < 1.0 for v in payload["luxemburg_errors"])

    def test_missing_output_dir_exit_5(self, capsys, tmp_path):
        code, _, err = run(capsys, "converge", "--kernel", "fejer",
                           "--signal", "ramp", "--scales", "8,16", "--out",
                           str(tmp_path / "missing" / "rep"))
        assert code == 5

    def test_byte_identical_reruns(self, capsys, tmp_path):
        argv = ["converge", "--kernel", "fejer", "--phi", "power:2",
                "--signal", "step", "--scales", "8,16,32"]
        run(capsys, *argv, "--out", str(tmp_path / "one"))
        run(capsys, *argv, "--out", str(tmp_path / "two"))
        assert (tmp_path / "one.json").read_bytes() == \
            (tmp_path / "two.json").read_bytes()
        assert (tmp_path / "one.csv").read_bytes() == \
            (tmp_path / "two.csv").read_bytes()

    @pytest.mark.parametrize("argv, golden", [
        (["--kernel", "fejer", "--signal", "hat", "--domain", "line"],
         CONVERGE_FEJER_HAT_LINE_16_32),
        (["--kernel", "bspline:4", "--signal", "abs-sine"],
         CONVERGE_BSPLINE4_ABS_SINE_16_32),
        (["--kernel", "vallee-poussin", "--signal", "square-pulse",
          "--domain", "line"], CONVERGE_VP_SQUARE_PULSE_LINE_16_32),
    ])
    def test_golden_report(self, capsys, tmp_path, argv, golden):
        # every digit of two line runs and of a bounded run: a refactor of
        # the operator, the mean tables or the error measures must not
        # move one
        code, _, _ = run(capsys, "converge", *argv, "--scales", "16,32",
                         "--out", str(tmp_path / "rep"))
        assert code == 0
        assert (tmp_path / "rep.json").read_text(encoding="utf-8") == golden

    def test_overflow_is_one_error_line(self, tmp_path):
        # a spike of 1e300 overflows the power modular past the 1e100
        # guard, so the modular errors are null, while the Luxemburg norm
        # is finite; numpy's overflow warning must not reach stderr.  A
        # fresh interpreter with warnings on shows what a user sees
        spike = tmp_path / "spike.csv"
        spike.write_text("0,0\n0.5,1e300\n1,0\n", encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-W", "default", "-m", "maxprod", "converge",
             "--kernel", "bspline:4", "--csv", str(spike), "--scales", "4,8",
             "--out", str(tmp_path / "rep")],
            capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0 and done.stderr == ""
        payload = _strict_json((tmp_path / "rep.json").read_text())
        assert payload["modular_errors"] == [None, None]
        assert all(1e280 < v < math.inf for v in payload["luxemburg_errors"])

    def test_report_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # no sum goes through BLAS, whose order follows the thread count: a
        # BLAS dot splits the 65,536 modular terms at n = 2,048 across
        # threads.  On a 1-core host both runs use one thread, so this
        # cannot fail there
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            subprocess.run(
                [sys.executable, "-m", "maxprod", "converge", "--kernel",
                 "bspline:4", "--signal", "abs-sine", "--scales", "512,2048",
                 "--out", str(out)], check=True, capture_output=True,
                env=dict(env, OPENBLAS_NUM_THREADS=threads), timeout=120)
            reports.append((tmp_path / f"threads{threads}.json").read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("command", [
        ["converge", "--scales", "4,8"], ["reconstruct", "--n", "8"]])
    def test_clamp_warning_is_one_line(self, tmp_path, command):
        # a negative CSV sample is clamped to 0 with one warning line, not
        # the raw UserWarning and its source line; the exit code and the
        # output are those of the CSV with a 0 there.  A fresh interpreter
        # with warnings on shows what a user sees
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        runs = {}
        for value in ("-2", "0"):
            where = tmp_path / value
            where.mkdir()
            (where / "sig.csv").write_text(f"0,1\n0.5,{value}\n0.7,{value}\n"
                                           "1,1\n", encoding="utf-8")
            done = subprocess.run(
                [sys.executable, "-W", "default", "-m", "maxprod",
                 command[0], "--kernel", "bspline:4", "--csv",
                 str(where / "sig.csv"), *command[1:], "--out",
                 str(where / "out")],
                capture_output=True, text=True, env=env, timeout=120)
            assert done.returncode == 0
            runs[value] = done.stderr, sorted(
                (p.name, p.read_bytes()) for p in where.glob("out*"))
        assert runs["0"][0] == ""
        assert runs["-2"][0] == ("maxprod: warning: sig.csv: clamped 2 "
                                 "negative values to 0\n")
        assert runs["-2"][1] == runs["0"][1] != []


class TestVerify:
    def test_zero_draws_trivially_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--draws", "0")
        assert code == 0
        assert "nothing to verify" in out

    def test_small_campaign_passes(self, capsys):
        # golden output covering every campaign family: a refactor of the
        # checks or the campaign driver must not move a draw or a digit
        code, out, _ = run(capsys, "verify", "--draws", "8", "--seed", "42")
        assert code == 0
        assert out == VERIFY_DRAWS_8_SEED_42

    def test_negative_draws_exit_2(self, capsys):
        code, out, err = run(capsys, "verify", "--draws", "-3")
        assert code == 2
        assert "--draws" in err and out == ""

    def test_inadmissible_kernel_exit_3(self, capsys):
        code, _, err = run(capsys, "verify", "--kernel", "bspline:3",
                           "--draws", "4")
        assert code == 3
        assert "campaign skipped" in err

    def test_unknown_signal_exit_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, "reconstruct", "--kernel", "fejer",
                         "--signal", "mystery", "--out",
                         str(tmp_path / "x.csv"))
        assert code == 2


class TestArgumentValidation:
    """Bad scales, tolerances and samples exit 2 with a one-line error."""

    @staticmethod
    def _exit_2(capsys, *argv, code=2):
        got, out, err = run(capsys, *argv)
        assert got == code
        assert out == "" and "Traceback" not in err
        assert err.startswith("error: ") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("flag, value", [
        ("--n", "0"), ("--n", "-4"), ("--grid", "0"),
    ])
    def test_reconstruct_rejects(self, capsys, tmp_path, flag, value):
        err = self._exit_2(capsys, "reconstruct", "--kernel", "fejer",
                           f"{flag}={value}", "--out", str(tmp_path / "x.csv"))
        assert flag in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--scales", "0,8"), ("--scales", "-8,8"), ("--lambda", "nan"),
        ("--lambda", "0"),
    ])
    def test_converge_rejects(self, capsys, tmp_path, flag, value):
        err = self._exit_2(capsys, "converge", "--kernel", "fejer",
                           f"{flag}={value}", "--out", str(tmp_path / "rep"))
        assert flag in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1e-8"])
    def test_verify_rejects(self, capsys, value):
        err = self._exit_2(capsys, "verify", "--draws", "2", f"--tol={value}")
        assert "--tol" in err

    def test_verify_rejects_negative_seed(self, capsys):
        # numpy's default_rng would raise deep inside the first campaign
        err = self._exit_2(capsys, "verify", "--seed", "-1", "--draws", "1")
        assert "--seed" in err

    @pytest.mark.parametrize("command, flag", [
        ("reconstruct", "--tol"), ("converge", "--tol"),
        ("converge", "--seed"),
    ])
    def test_removed_flags_rejected(self, capsys, tmp_path, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, "--kernel", "fejer", flag, "1",
                  "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["interval:0,inf", "interval:nan,1"])
    def test_unbounded_domain_rejected(self, capsys, tmp_path, spec):
        err = self._exit_2(capsys, "reconstruct", "--kernel", "fejer",
                           "--domain", spec, "--out", str(tmp_path / "x.csv"))
        assert "domain" in err

    @pytest.mark.parametrize("command", ["converge", "reconstruct"])
    def test_bounded_signal_on_line_rejected(self, capsys, tmp_path,
                                             command):
        err = self._exit_2(capsys, command, "--kernel", "fejer", "--signal",
                           "ramp", "--domain", "line",
                           "--out", str(tmp_path / "x"))
        assert "'ramp'" in err and "--domain line" in err

    @pytest.mark.parametrize("signal, domain", [
        ("hat", "interval:0,1"), ("ramp", "interval:0.2,0.8"),
    ])
    def test_converge_domain_other_than_signals_rejected(
            self, capsys, tmp_path, signal, domain):
        # converge measures on the signal's own domain; a different
        # interval used to be ignored, with the report of another run
        err = self._exit_2(capsys, "converge", "--kernel", "fejer",
                           "--signal", signal, "--domain", domain,
                           "--scales", "8,16", "--out", str(tmp_path / "rep"))
        assert f"'{signal}'" in err and f"--domain {domain}" in err
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--beta", "0"), ("--beta", "nan"), ("--domain", "line:3"),
    ])
    def test_kernel_info_rejects(self, capsys, flag, value):
        err = self._exit_2(capsys, "kernel-info", "--kernel", "fejer",
                           f"{flag}={value}")
        assert flag.lstrip("-") in err

    @pytest.mark.parametrize("name", ["bspline:0", "bspline:10",
                                      "bspline:60", "bspline:2000"])
    def test_bspline_order_out_of_range(self, capsys, name):
        err = self._exit_2(capsys, "kernel-info", "--kernel", name)
        assert "1..9" in err

    @pytest.mark.parametrize("phi", ["power:nan", "power:inf",
                                     "zygmund:nan,1", "zygmund:1,inf",
                                     "exponential:nan"])
    def test_non_finite_phi_parameter(self, capsys, tmp_path, phi):
        err = self._exit_2(capsys, "converge", "--kernel", "fejer", "--phi",
                           phi, "--out", str(tmp_path / "rep"))
        assert phi in err
        assert not (tmp_path / "rep.json").exists()

    @pytest.mark.parametrize("command, scales", [
        ("reconstruct", []), ("converge", ["--scales", "8,16"]),
    ])
    def test_negative_signal(self, capsys, tmp_path, command, scales):
        # reconstruct used to die with a traceback (exit 1), and converge
        # reported sup error 3.0 as valid
        err = self._exit_2(capsys, command, "--kernel", "bspline:4",
                           "--signal", "constant:-3", *scales,
                           "--out", str(tmp_path / "x"))
        assert "'constant:-3' takes negative values" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["reconstruct", "converge"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_constant(self, capsys, tmp_path, command, value):
        # constant:inf used to write inf rows, and constant:nan to exit 6
        # from the Luxemburg bracket
        err = self._exit_2(capsys, command, "--kernel", "fejer", "--signal",
                           f"constant:{value}", "--out", str(tmp_path / "x"))
        assert "must be finite" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["converge", "--scales", "3000000000"], "lattice cells"),
        # on the line the cells span the support widened by 2: 6 n for hat
        (["converge", "--signal", "hat", "--domain", "line", "--scales",
          f"8,{MAX_CELLS // 6 + 1}"], "lattice cells"),
        (["reconstruct", "--n", "1000000000"], "lattice cells"),
        (["reconstruct", "--n", "8", "--signal", "hat", "--domain",
          "interval:1000000000000000,1000000000000001"], "2**52"),
        (["reconstruct", f"--grid={MAX_CELLS + 1}"], "--grid"),
    ])
    def test_oversized_or_imprecise_run(self, capsys, tmp_path, argv,
                                        message):
        # rejected before anything is allocated: these inputs used to end
        # in a MemoryError, a kill, or the operator's precision ValueError
        err = self._exit_2(capsys, argv[0], "--kernel", "fejer", *argv[1:],
                           "--out", str(tmp_path / "x"))
        assert message in err

    @pytest.mark.parametrize("domain, message", [
        ("interval:0,1e300", "lattice cells"),
        ("interval:140737488355328,140737488355329", "2**52"),   # 2**47
    ])
    def test_verify_checks_its_largest_scale(self, capsys, domain, message):
        err = self._exit_2(capsys, "verify", "--draws", "1", "--domain",
                           domain)
        assert "n=32" in err and message in err

    @pytest.mark.parametrize("domain", ["interval:0,2", "interval:-0.5,0.5"])
    def test_reconstruct_outside_signal_domain(self, capsys, tmp_path,
                                               domain):
        err = self._exit_2(capsys, "reconstruct", "--kernel", "fejer",
                           "--signal", "ramp", "--domain", domain,
                           "--out", str(tmp_path / "x.csv"))
        assert "'ramp' lives on [0, 1]" in err
        assert not (tmp_path / "x.csv").exists()

    def test_spike_gets_a_certified_norm(self, capsys, tmp_path):
        # a spike of 1e13 has a finite Luxemburg norm like any finite
        # function; with power:2 at lambda = 1 each Luxemburg error lies in
        # [sqrt(modular), sqrt(modular) / (1 - tol)], tol = 1e-9
        data = tmp_path / "spike.csv"
        data.write_text("0,0\n0.5,1e13\n1,0\n")
        code, _, _ = run(capsys, "converge", "--kernel", "fejer", "--csv",
                         str(data), "--scales", "8,16",
                         "--out", str(tmp_path / "rep"))
        assert code == 0
        payload = _strict_json((tmp_path / "rep.json").read_text())
        for mod, lux in zip(payload["modular_errors"],
                            payload["luxemburg_errors"]):
            assert 0.0 < mod < math.inf
            root = math.sqrt(mod)
            assert root * (1.0 - 1e-15) <= lux <= root / (1.0 - 1e-9)

    @pytest.mark.parametrize("error", [errors.QuadratureError,
                                       errors.TruncationError])
    def test_numerical_errors_exit_6(self, capsys, tmp_path, monkeypatch,
                                     error):
        def fail(*args):
            raise error("did not converge")

        monkeypatch.setattr("maxprod.analysis.run_convergence", fail)
        self._exit_2(capsys, "converge", "--kernel", "fejer",
                     "--out", str(tmp_path / "rep"), code=6)

    def test_non_finite_csv_sample(self, capsys, tmp_path):
        data = tmp_path / "sig.csv"
        data.write_text("0,1\n0.5,nan\n1,1\n")
        out_path = tmp_path / "rec.csv"
        err = self._exit_2(capsys, "reconstruct", "--kernel", "fejer",
                           "--csv", str(data), "--out", str(out_path))
        assert "sig.csv:2: non-finite" in err
        assert not out_path.exists()


# numbers as a user may type them into a domain, a scale list or a CSV cell
_NUMBERS = st.one_of(
    st.floats().map(repr), st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats(-3.0, 3.0).map(repr),
    st.sampled_from(["", "1e400", "-1e400", "1e-320", "-0", " 2 ", "1_0"]))
_CSV = "t,value\n0,0\n0.25,2\n0.5,0.5\n1,1\n"


@contextlib.contextmanager
def _small_runs():
    """A scratch directory, with the run-size cap lowered to 2**12 cells so
    that every run a fuzzer gets accepted stays small."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(cli, "MAX_CELLS", 1 << 12):
        yield Path(tmp)


def _documented_exit(*argv):
    """Run the CLI in-process: exit 0 or a documented code, with a one-line
    error (argparse's usage errors exit 2 through SystemExit), after at
    most the one-line warnings of a clamped CSV."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3, 4, 5, 6), (argv, code, err.getvalue())
    lines = err.getvalue().splitlines(keepends=True)
    warned = [line for line in lines if line.startswith("maxprod: warning: ")]
    assert all(": clamped " in line for line in warned), argv
    if code:
        assert "".join(lines[len(warned):]).startswith(
            ("error: ", "usage: ")), argv
    return code


class TestFuzz:
    """--domain, --scales and CSV rows as a user may type them: every input
    exits 0 or with a documented code, never with a traceback."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.one_of(
        catalog_names("interval:", "bounded:", "line", "interval"),
        st.builds("interval:{},{}".format, _NUMBERS, _NUMBERS)))
    @example("interval:0,1e-300")
    @example("interval:-1e308,1e308")
    @example("interval:1e15,1e15")
    def test_domain(self, spec):
        _documented_exit("kernel-info", "--kernel", "fejer", f"--domain={spec}")
        _documented_exit("verify", "--draws", "0", f"--domain={spec}")
        with _small_runs() as tmp:
            (tmp / "sig.csv").write_text(_CSV)
            for signal in (["--signal", "hat"], ["--csv", tmp / "sig.csv"]):
                _documented_exit("reconstruct", "--kernel", "bspline:4",
                                 *signal, f"--domain={spec}", "--n", "4",
                                 "--grid", "8", "--out", tmp / "rec.csv")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(
        st.text(alphabet="0123456789,-+ _.e", max_size=12),
        st.lists(_NUMBERS, max_size=4).map(",".join)))
    @example("4,8,4096")
    @example("4,8,4097")
    @example(" 4, 8 ,")
    def test_scales(self, spec):
        with _small_runs() as tmp:
            _documented_exit("converge", "--kernel", "bspline:4",
                             "--signal", "ramp", f"--scales={spec}",
                             "--out", tmp / "rep")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.one_of(
        st.lists(st.lists(st.one_of(_NUMBERS, st.text(max_size=4)),
                          max_size=3), max_size=6),
        st.lists(st.tuples(st.floats(-1.0, 2.0), _NUMBERS).map(list),
                 max_size=6).map(sorted)))
    @example([["0", "0"], ["0.5", "1e300"], ["1", "0"]])
    @example([["0", "-1e300"], ["1", "1e300"]])
    @example([["0", "1"]])
    def test_csv_rows(self, rows):
        with _small_runs() as tmp:
            with open(tmp / "sig.csv", "w", newline="",
                      encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
            _documented_exit("reconstruct", "--kernel", "bspline:4", "--csv",
                             tmp / "sig.csv", "--n", "8", "--grid", "16",
                             "--out", tmp / "rec.csv")
            _documented_exit("converge", "--kernel", "bspline:4", "--csv",
                             tmp / "sig.csv", "--scales", "4,8",
                             "--out", tmp / "rep")
