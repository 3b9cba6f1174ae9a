"""Command-line surface: subcommands, exit codes, deterministic output."""

import json
import math
import threading

import numpy as np
import pytest

from szego_lab import cli, moments, opuc, toeplitz
from szego_lab.textio import fmt, json_text

from conftest import bessel_i


def run_cli(args, tmp_path, name="out.txt"):
    out = tmp_path / name
    code = cli.main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else ""


GOOD_MOMENTS = "# schema=1\nn,re,im\n" + "\n".join(f"{n},{0.5 ** n},0" for n in range(13)) + "\n"
BAD_MOMENTS = "# schema=1\nn,re,im\n0,1,0\n1,1.5,0\n"

#: every ``--format json`` command of this file, with its exit code; ``{good}``
#: and ``{bad}`` are a valid and a non-positive moments CSV
JSON_COMMANDS = [
    (["moments", "--coeff", "1=0.5", "--nmax", "2", "--format", "json"], 0),
    (["verify", "--coeff", "1=0.5", "--nmax", "3", "--format", "json"], 0),
    (["verify", "--nmax", "10", "--format", "json"], 0),
    (["verify", "--moments", "{good}", "--nmax", "10", "--format", "json"], 0),
    (["verify", "--moments", "{bad}", "--format", "json"], 1),
]


class TestMoments:
    def test_csv_schema_and_grid(self, tmp_path):
        code, text = run_cli(["moments", "--coeff", "1=0.5", "--nmax", "4"], tmp_path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1].startswith("# grid_m=")
        assert lines[2] == "n,re,im"
        assert len(lines) == 8

    @pytest.mark.parametrize(
        "coeffs", [["1=0.5"], ["0=0.3", "1=0.3,0.2", "2=0.1,-0.05"], ["1=5"]]
    )
    def test_csv_has_the_bytes_of_the_hand_written_lines(self, tmp_path, coeffs):
        argv = ["moments", *(f"--coeff={c}" for c in coeffs), "--nmax", "12"]
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        m = moments(cli._symbol_from_args(cli.build_parser().parse_args(argv)), 12)
        lines = ["# schema=1", f"# grid_m={m.quadrature_points}", "n,re,im"]
        lines += [f"{k},{fmt(v.real)},{fmt(v.imag)}" for k, v in enumerate(m.values.tolist())]
        assert text == "\n".join(lines) + "\n"

    def test_empty_symbol_single_row(self, tmp_path):
        code, text = run_cli(["moments", "--nmax", "0"], tmp_path)
        assert code == 0
        data = [l for l in text.splitlines() if not l.startswith(("#", "n,"))]
        assert data == ["0,1,0"]

    def test_json_format(self, tmp_path):
        code, text = run_cli(JSON_COMMANDS[0][0], tmp_path)
        assert code == 0
        assert '"grid_m"' in text and '"moments"' in text

    def test_malformed_symbol_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0.1 0\nxyz\n")
        assert cli.main(["moments", "--symbol", str(bad)]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert cli.main(["moments", "--symbol", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"szego-lab: [Errno 2] No such file or directory: '{missing}'\n"
        )

    def test_bad_coeff_exits_2(self):
        assert cli.main(["moments", "--coeff", "1=x"]) == 2
        assert cli.main(["moments", "--coeff=-1=0.5"]) == 2
        assert cli.main(["moments", "--coeff", "0=0.1,0.2"]) == 2

    def test_grid_cap_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", "64")
        assert cli.main(["moments", "--coeff", "1=0.5", "--nmax", "4"]) == 3

    @pytest.mark.parametrize(
        "value, problem",
        [
            ("abc", "must be an integer, got 'abc'"),
            ("1.5", "must be an integer, got '1.5'"),
            ("0", "must be positive, got 0"),
            ("-3", "must be positive, got -3"),
        ],
    )
    def test_bad_grid_cap_exits_3_in_one_line(self, capsys, monkeypatch, value, problem):
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", value)
        capsys.readouterr()
        assert cli.main(["moments", "--coeff", "1=0.5"]) == 3
        assert capsys.readouterr() == (
            "",
            f"szego-lab: quadrature error: SZEGO_LAB_GRID_MAX {problem}\n",
        )

    def test_large_amplitude_stops_at_the_rounding_floor_of_c0(self, tmp_path):
        # c_0 = I_0(20) ≈ 4.4e7: the grid stops once a change is 1e-14 of c_0
        code, text = run_cli(["moments", "--coeff", "1=10", "--nmax", "4"], tmp_path)
        assert code == 0
        c0 = float(text.splitlines()[3].split(",")[1])
        assert c0 == pytest.approx(bessel_i(0, 20.0), rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_weight_exits_3(self, capsys):
        assert cli.main(["moments", "--coeff", "0=800", "--nmax", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite" in captured.err


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["moments", "--coeff", "0=800", "--nmax", "3"],
            ["verify", "--coeff", "0=800", "--coeff", "1=0.5", "--nmax", "10"],
            ["bs-check", "--coeff", "0=800"],
            ["cd-check", "--coeff", "0=800"],
        ],
    )
    def test_overflowing_grid_is_one_line_on_stderr(self, capsys, argv):
        # the non-finite grid is reported once, with no overflow warning before it
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("szego-lab: quadrature error: ") and err.count("\n") == 1


class TestJsonOutput:
    @pytest.mark.parametrize("argv, code", JSON_COMMANDS)
    def test_stdout_is_one_json_document(self, tmp_path, capsys, argv, code):
        (tmp_path / "good.csv").write_text(GOOD_MOMENTS)
        (tmp_path / "bad.csv").write_text(BAD_MOMENTS)
        paths = {"good": tmp_path / "good.csv", "bad": tmp_path / "bad.csv"}
        capsys.readouterr()
        assert cli.main([arg.format(**paths) for arg in argv]) == code
        json.loads(capsys.readouterr().out)

    def test_verify_json_holds_the_report_and_the_checks(self, tmp_path):
        argv = ["verify", "--coeff", "1=0.5", "--nmax", "3"]
        code, csv = run_cli(argv, tmp_path, "r.csv")
        assert code == 0
        _, text = run_cli(argv + ["--format", "json"], tmp_path, "r.json")
        payload = json.loads(text)
        assert list(payload) == ["report", "checks"]
        assert payload["report"]["target"] == 0.25
        assert [r["n"] for r in payload["report"]["rows"]] == [0, 1, 2, 3]
        lines = [line for line in csv.splitlines() if line.startswith("# check ")]
        assert len(payload["checks"]) == len(lines) == 4
        for check, line in zip(payload["checks"], lines):
            assert list(check) == ["name", "ok", "detail"] and check["ok"] is True
            assert line == f"# check {check['name']} PASS ({check['detail']})"

    def test_verify_json_without_a_report_is_null(self, tmp_path):
        (tmp_path / "bad.csv").write_text(BAD_MOMENTS)
        code, text = run_cli(
            ["verify", "--moments", str(tmp_path / "bad.csv"), "--format", "json"], tmp_path
        )
        assert code == 1
        payload = json.loads(text)
        assert payload["report"] is None
        assert {"name": "positivity", "ok": False}.items() <= payload["checks"][0].items()


class TestVerify:
    def test_zero_weight_passes(self, tmp_path):
        code, text = run_cli(["verify", "--nmax", "10"], tmp_path)
        assert code == 0
        assert "FAIL" not in text

    def test_cosine_passes_with_target(self, tmp_path):
        code, text = run_cli(["verify", "--coeff", "1=0.5", "--nmax", "20"], tmp_path)
        assert code == 0
        assert "# target=0.25" in text
        assert text.count("PASS") >= 4

    def test_corrupted_moments_fail_positivity_with_exit_1(self, tmp_path):
        bad = tmp_path / "moments.csv"
        bad.write_text("# schema=1\nn,re,im\n0,1,0\n1,1.5,0\n")
        out = tmp_path / "report.txt"
        code = cli.main(["verify", "--moments", str(bad), "--out", str(out)])
        assert code == 1
        assert "# check positivity FAIL" in out.read_text()

    def test_valid_moments_file_passes(self, tmp_path):
        rows = "\n".join(f"{n},{0.5 ** n},0" for n in range(13))
        good = tmp_path / "moments.csv"
        good.write_text("# schema=1\nn,re,im\n" + rows + "\n")
        code, text = run_cli(
            ["verify", "--moments", str(good), "--nmax", "10"], tmp_path, "r.txt"
        )
        assert code == 0
        assert "FAIL" not in text

    def test_moments_path_needs_no_companion_roots(self, tmp_path, monkeypatch):
        def refuse(p):
            raise AssertionError("companion roots are only a reference")

        monkeypatch.setattr(opuc, "zeros_in_disk", refuse)
        rows = "\n".join(f"{n},{0.5 ** n},0" for n in range(42))
        good = tmp_path / "moments.csv"
        good.write_text("# schema=1\nn,re,im\n" + rows + "\n")
        code, text = run_cli(
            ["verify", "--moments", str(good), "--nmax", "40"], tmp_path, "r.txt"
        )
        assert code == 0
        assert "# check zeros-in-disk PASS (all roots strictly inside)" in text

    @pytest.mark.parametrize("l1, nmax", [("5", "8"), ("2", "3")])
    def test_zero_of_phi_star_near_the_circle_still_passes(self, tmp_path, l1, nmax):
        # |α_0| = I_1(2l_1)/I_0(2l_1) puts the zero of Φ_1* within 0.06 (l_1 = 5)
        # of the circle: too close for the first grid, resolved on a finer one
        csv = tmp_path / "moments.csv"
        argv = ["moments", "--coeff", f"1={l1}", "--nmax", str(int(nmax) + 1), "--out", str(csv)]
        assert cli.main(argv) == 0
        code, text = run_cli(["verify", "--moments", str(csv), "--nmax", nmax], tmp_path, "r.txt")
        assert code == 0
        assert "# check zeros-in-disk PASS (all roots strictly inside)" in text

    def test_non_finite_route_gap_fails_route_agreement(self, tmp_path, monkeypatch):
        rows = "\n".join(f"{n},{0.5 ** n},0" for n in range(13))
        good = tmp_path / "moments.csv"
        good.write_text("# schema=1\nn,re,im\n" + rows + "\n")
        minors = toeplitz.log_det_minors

        def broken(m, n_max):
            log_direct = minors(m, n_max).copy()
            log_direct[4] = -np.inf
            return log_direct

        monkeypatch.setattr(toeplitz, "log_det_minors", broken)
        code, text = run_cli(
            ["verify", "--moments", str(good), "--nmax", "10"], tmp_path, "r.txt"
        )
        assert code == 1
        assert "# check route-agreement FAIL" in text

    def test_decreasing_g_fails_g_monotone(self, tmp_path, monkeypatch):
        rows = "\n".join(f"{n},{0.5 ** n},0" for n in range(13))
        good = tmp_path / "moments.csv"
        good.write_text("# schema=1\nn,re,im\n" + rows + "\n")
        real = toeplitz.log_dn_and_g

        def decreasing(alphas, n_max, log_c0=0.0):
            log_dn, log_g = real(alphas, n_max, log_c0)
            return log_dn, log_g - 1e-9 * np.arange(n_max + 1)

        monkeypatch.setattr(toeplitz, "log_dn_and_g", decreasing)
        code, text = run_cli(
            ["verify", "--moments", str(good), "--nmax", "10"], tmp_path, "r.txt"
        )
        assert code == 1
        assert "# check g-monotone FAIL (G_n nondecreasing)" in text
        assert text.count("FAIL") == 1
        code, text = run_cli(["verify", "--coeff", "1=0.5", "--nmax", "10"], tmp_path, "s.txt")
        assert code == 1
        assert text == "# check g-monotone-bounded FAIL (G_n is not nondecreasing)\n"

    def test_malformed_moments_file_exits_2(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("0,1\n")
        assert cli.main(["verify", "--moments", str(bad)]) == 2

    def test_nan_moment_exits_2_naming_its_line(self, tmp_path, capsys):
        bad = tmp_path / "m.csv"
        bad.write_text("n,re,im\n0,1,0\n1,nan,0\n2,0.1,0\n")
        assert cli.main(["verify", "--moments", str(bad)]) == 2
        assert "line 3" in capsys.readouterr().err


class TestCoulomb:
    def test_exact_lebesgue(self, tmp_path):
        code, text = run_cli(["coulomb", "--n", "1", "--exact"], tmp_path)
        assert code == 0
        assert '"value": 1' in text

    def test_out_of_range_exits_4(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        assert cli.main(["moments", "--coeff", "1=0.5", "--nmax", "8", "--out", str(csv)]) == 0
        for argv in (
            ["coulomb", "--coeff", "1=0.5", "--n", "12"],
            ["coulomb", "--coeff", "1=0.5", "--n", "3", "--exact"],
            ["moments", "--nmax", "-1"],
            ["verify", "--nmax", "-1"],
            ["verify", "--moments", str(csv), "--nmax", "-1"],
            ["bs-check", "--nmax", "0"],
            ["fh-check", "--t", "1.5"],
            ["fh-check", "--nmax", "-1"],
            ["fh-check", "--h", "0"],
            ["fh-check", "--h", "nan"],
            ["fh-check", "--h", "inf"],
            ["cd-check", "--nmax", "-1"],
            ["coulomb", "--n", "3", "--samples", "5"],
            ["coulomb", "--n", "3", "--workers", "0"],
            ["coulomb", "--n", "9"],
        ):
            capsys.readouterr()
            assert cli.main(argv) == 4, argv
            out, err = capsys.readouterr()
            assert out == "", argv
            assert err.startswith("szego-lab: out of range: ") and err.count("\n") == 1, argv

    def test_seeded_run_is_byte_identical(self, tmp_path):
        args = ["coulomb", "--coeff", "1=0.5", "--n", "3", "--samples", "100000", "--seed", "7"]
        _, first = run_cli(args, tmp_path, "a.json")
        _, second = run_cli(args, tmp_path, "b.json")
        assert first == second
        assert '"seed": 7' in first

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["--coeff", "0=800", "--n", "1", "--exact"],
            ["--coeff", "0=800", "--n", "3", "--samples", "10000"],
            ["--coeff", "1=400", "--n", "3", "--samples", "10000"],
            ["--coeff", "0=-800", "--n", "2", "--exact"],
            ["--coeff", "0=-800", "--n", "3", "--samples", "10000"],
        ],
    )
    def test_estimate_not_finite_and_positive_exits_3(self, capsys, argv):
        # an overflowing or underflowing weight must not print nan, inf or 0
        assert cli.main(["coulomb", *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("szego-lab: quadrature error: ") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_l0_is_carried_exactly(self, capsys):
        # D_3(e^{100} w) = e^{400} D_3(w): the samples never see l_0; l_1 makes
        # them vary, since for a constant L every CUE sample is e^{4 l_0} exactly
        argv = ["coulomb", "--coeff", "1=0.5", "--n", "3", "--samples", "10000"]
        assert cli.main(argv + ["--coeff", "0=100"]) == 0
        shifted = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert math.isfinite(shifted["std_err"]) and shifted["std_err"] > 0.0
        assert shifted["value"] == pytest.approx(math.exp(400) * plain["value"], rel=1e-14)
        assert shifted["std_err"] == pytest.approx(math.exp(400) * plain["std_err"], rel=1e-14)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("l0, coeff, n", [(100, "1=0.5", 2), (-100, "2=30", 1)])
    def test_large_l0_is_carried_exactly_by_the_exact_route(self, capsys, l0, coeff, n):
        # the tensor grid integrates w·e^{-l_0} and e^{(n+1) l_0} multiplies the
        # result, so a tiny D_n still stops on a relative change (l_2 = 30 needs 512 points)
        argv = ["coulomb", "--coeff", coeff, "--n", str(n), "--exact"]
        assert cli.main(argv + ["--coeff", f"0={l0}"]) == 0
        shifted = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        plain = json.loads(capsys.readouterr().out)
        assert shifted["samples"] == plain["samples"]
        assert shifted["value"] == pytest.approx(math.exp((n + 1) * l0) * plain["value"], rel=1e-15)

    def test_exact_grid_cap_exits_3(self, monkeypatch, capsys):
        monkeypatch.setenv("SZEGO_LAB_GRID_MAX", "64")
        assert cli.main(["coulomb", "--coeff", "1=0.5", "--n", "2", "--exact"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("szego-lab: quadrature error: ") and "grid cap 64" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_lk_has_a_finite_standard_error(self, capsys):
        # 4·L reaches 400 here, so f² overflows unless each batch is scaled first
        argv = ["coulomb", "--coeff", "1=50", "--n", "3", "--samples", "10000"]
        assert cli.main(argv) == 0
        estimate = json.loads(capsys.readouterr().out)
        assert math.isfinite(estimate["std_err"]) and estimate["std_err"] > 0.0

    @pytest.mark.parametrize("command", ["coulomb", "cd-check", "bs-check", "fh-check"])
    def test_format_is_only_read_by_moments_and_verify(self, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--format", "csv"] + (["--n", "2"] if command == "coulomb" else []))
        assert exc.value.code == 2


class TestIdentitySuites:
    def test_cd_check_passes(self, tmp_path):
        code, text = run_cli(["cd-check", "--coeff", "1=0.5", "--nmax", "12"], tmp_path)
        assert code == 0
        assert text.count("PASS") == 3

    def test_bs_check_passes(self, tmp_path):
        code, text = run_cli(["bs-check", "--coeff", "1=0.5", "--nmax", "5"], tmp_path)
        assert code == 0
        assert "bs-approximation PASS" in text

    def test_fh_check_passes(self, tmp_path):
        code, text = run_cli(["fh-check", "--coeff", "1=0.5", "--nmax", "3"], tmp_path)
        assert code == 0
        assert "feynman-hellman PASS" in text

    def test_check_line_without_detail_has_no_parenthesis(self, tmp_path):
        _, bs = run_cli(["bs-check", "--coeff", "1=0.5", "--nmax", "5"], tmp_path, "bs.txt")
        _, fh = run_cli(["fh-check", "--coeff", "1=0.5", "--nmax", "3"], tmp_path, "fh.txt")
        assert bs.splitlines()[-1] == "# check bs-approximation PASS"
        assert fh.splitlines()[-1] == "# check feynman-hellman PASS"


class TestSymbolInputs:
    """``--coeff`` flags and symbol files obey one rule set."""

    REJECTED = {
        "duplicate k": (["1=0.2", "1=0.3"], "1 0.2 0\n1 0.3 0\n"),
        "negative k": (["-1=0.2"], "-1 0.2 0\n"),
        "complex l_0": (["0=0.1,0.2"], "0 0.1 0.2\n"),
        "too many fields": (["1=0.1,0.2,0.3"], "1 0.1 0.2 0.3\n"),
        "non-finite": (["1=inf,0"], "1 nan 0\n"),
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_through_both_paths(self, tmp_path, capsys, case):
        flags, text = self.REJECTED[case]
        argv = ["moments"] + [f"--coeff={flag}" for flag in flags]
        assert cli.main(argv) == 2
        assert repr(flags[-1]) in capsys.readouterr().err
        path = tmp_path / "sym.txt"
        path.write_text(text)
        assert cli.main(["moments", "--symbol", str(path)]) == 2

    def test_same_coefficients_give_the_same_symbol(self, tmp_path):
        path = tmp_path / "sym.txt"
        path.write_text("# k re im\n2 0.1 -0.3\n0 -0.2 0\n1 0.05 0.02\n")
        flags = ["--coeff", "2=0.1,-0.3", "--coeff", "0=-0.2", "--coeff", "1=0.05,0.02"]
        from_flags = cli._symbol_from_args(cli.build_parser().parse_args(["moments", *flags]))
        from_file = cli._symbol_from_args(
            cli.build_parser().parse_args(["moments", "--symbol", str(path)])
        )
        assert from_flags.coeffs == from_file.coeffs == (-0.2 + 0j, 0.05 + 0.02j, 0.1 - 0.3j)


#: (format, file bytes, the one stderr line) for each parse error of a symbol
#: file and of a moments CSV; every one exits 2
PARSE_ERRORS = [
    ("symbol", b"0 0.1 0\n1 0.5\n", "line 2: expected `k re im`, got 2 fields"),
    ("symbol", b"1 x 0\n", "line 1: could not parse '1 x 0'"),
    ("symbol", b"# k re im\n\n1 nan 0\n", "line 3: coefficient 1 is not finite"),
    ("symbol", b"-1 0.5 0\n", "line 1: only k >= 0 may be stored; negative k is implied"),
    ("symbol", b"1 0.5 0\n1 0.2 0\n", "line 2: duplicate coefficient k=1"),
    ("symbol", b"0 0.1 0.2\n", "line 1: coefficient 0 must be real"),
    ("symbol", b"# k re im\r\n1 0.5 0\r\n1 x 0\r\n", "line 3: could not parse '1 x 0'"),
    ("symbol", b"# k re im\r1 0.5 0\r\r1 0.2 0\r", "line 4: duplicate coefficient k=1"),
    ("moments", b"n,re,im\n0,1,0\n1,0.5\n", "line 3: expected `n,re,im`"),
    ("moments", b"0,1,0\n1,x,0\n", "line 2: could not parse '1,x,0'"),
    ("moments", b"0,1,0\n1,inf,0\n", "line 2: moment 1 is not finite"),
    ("moments", b"0,1,0\n-1,0.5,0\n", "line 2: bad moment index -1"),
    ("moments", b"0,1,0\n0,1,0\n", "line 2: bad moment index 0"),
    ("moments", b"0,1,0\n2,0.5,0\n", "moment indices must be contiguous from 0"),
    ("moments", b"# schema=1\nn,re,im\n", "moment indices must be contiguous from 0"),
    ("moments", b"# c\r\n0,1,0\r\n1,x,0\r\n", "line 3: could not parse '1,x,0'"),
    ("moments", b"# c\r0,1,0\r1,x,0\r", "line 3: could not parse '1,x,0'"),
]


class TestParseErrorLines:
    """Every parse error exits 2 with one line that names the problem and its line."""

    @pytest.mark.parametrize("kind, data, message", PARSE_ERRORS)
    def test_parse_error_line(self, tmp_path, capsys, kind, data, message):
        path = tmp_path / "input.txt"
        path.write_bytes(data)
        argv = {
            "symbol": ["moments", "--symbol", str(path)],
            "moments": ["verify", "--moments", str(path), "--nmax", "1"],
        }[kind]
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr() == ("", f"szego-lab: parse error: {message}\n")


#: argv whose path cannot be read or written: ``{dir}`` is a directory and
#: ``{latin}`` a file whose second line is not UTF-8
BAD_PATH_COMMANDS = [
    ["moments", "--coeff", "1=0.5", "--out", "{dir}"],
    ["moments", "--symbol", "{dir}"],
    ["verify", "--moments", "{dir}"],
    ["moments", "--symbol", "{latin}"],
    ["verify", "--moments", "{latin}"],
]


class TestPathAndMemoryErrors:
    """A bad path exits 2 and a matrix that does not fit exits 4, each in one line."""

    @pytest.mark.parametrize("argv", BAD_PATH_COMMANDS)
    def test_bad_path_exits_2_in_one_line(self, tmp_path, capsys, argv):
        latin = tmp_path / "latin.txt"
        latin.write_bytes(b"# line 1 is UTF-8\n\xff 0.1 0\n")
        paths = {"dir": tmp_path, "latin": latin}
        capsys.readouterr()
        assert cli.main([arg.format(**paths) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        if "{dir}" in argv:
            assert err == f"szego-lab: [Errno 21] Is a directory: '{tmp_path}'\n"
        else:
            assert err == (
                "szego-lab: parse error: line 2: "
                "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte\n"
            )

    @pytest.mark.parametrize("source", ["symbol", "moments"])
    def test_matrix_that_does_not_fit_exits_4_in_one_line(
        self, tmp_path, capsys, monkeypatch, source
    ):
        # the dense factor allocates at the Cholesky call, on the report's helper thread
        threads = []

        def no_room(t):
            threads.append(threading.current_thread())
            raise MemoryError(f"Unable to allocate the {t.shape} matrix")

        monkeypatch.setattr(toeplitz.np.linalg, "cholesky", no_room)
        (tmp_path / "good.csv").write_text(GOOD_MOMENTS)
        argv = {
            "symbol": ["verify", "--coeff", "1=0.5", "--nmax", "10"],
            "moments": ["verify", "--moments", str(tmp_path / "good.csv"), "--nmax", "10"],
        }[source]
        before = threading.active_count()
        assert cli.main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "szego-lab: out of range: Unable to allocate the (11, 11) matrix\n"
        assert threads and threads[0] is not threading.current_thread()
        assert threading.active_count() == before

    def test_an_empty_memory_error_names_the_matrix_order(self, capsys, monkeypatch):
        # numpy raises MemoryError() with no text when LAPACK's work buffer does not fit
        def no_room(t):
            raise MemoryError()

        monkeypatch.setattr(toeplitz.np.linalg, "cholesky", no_room)
        assert cli.main(["verify", "--coeff", "1=0.5", "--nmax", "10"]) == 4
        assert capsys.readouterr() == (
            "",
            "szego-lab: out of range: no room to factor the Toeplitz matrix of order 11\n",
        )


class TestDeterminism:
    def test_verify_byte_identical_across_runs(self, tmp_path):
        args = ["verify", "--coeff", "1=0.2", "--coeff", "2=0.1", "--nmax", "15"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second

    def test_non_finite_json_floats_parse(self, tmp_path):
        # both central-difference gaps are 0 at n = 0, so their ratio is inf
        code, text = run_cli(["fh-check", "--coeff", "1=0.5", "--nmax", "0"], tmp_path)
        assert code == 0
        body = json.loads(text.split("# check")[0])
        assert body["ratio"] == math.inf
        tokens = json_text([math.inf, -math.inf, math.nan, np.float64(-math.inf), 0.1])
        assert "Infinity" in tokens and "NaN" in tokens
        values = json.loads(tokens)
        assert values[:2] == [math.inf, -math.inf] and math.isnan(values[2])
        assert values[3:] == [-math.inf, 0.1]

    def test_floats_printed_at_seventeen_digits(self, tmp_path):
        _, text = run_cli(["moments", "--coeff", "1=0.5", "--nmax", "1"], tmp_path)
        c0_token = text.splitlines()[3].split(",")[1]
        assert float(c0_token) == pytest.approx(1.2660658777520082, abs=0)
        assert len(c0_token.replace(".", "").lstrip("0")) >= 17
