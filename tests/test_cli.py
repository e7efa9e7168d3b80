import argparse
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bellbounds
from bellbounds import MeasurementScenario
from bellbounds.cli import parse_angle, run
from bellbounds.observables import write_scenario_file

from blas_kernel import kernel_pins

MK3_TERMS = "+1 001\n+1 010\n+1 100\n-1 111\n"

# Per OpenBLAS kernel, as openblas_core names it, measured with numpy 2.4.6
# (OpenBLAS 0.3.31) under OPENBLAS_CORETYPE=SkylakeX, Haswell, Zen (which
# runs the Haswell kernel), SandyBridge and Prescott (whose kernel OpenBLAS
# names Katmai).
VERIFY_PSD_PINS = {
    "SkylakeX": "2.80843399266928e-06",
    "Haswell": "2.80843399266706e-06",
    "Sandybridge": "2.80843399266623e-06",
    "Katmai": "2.80843399245579e-06",
}
SEARCH_PATH_PINS = {  # n: (evals, angles)
    "SkylakeX": {
        3: (3517, "0.456931352463443,2.02772768964261,1.50002864946001,"
                  "3.07082499818389,0.399234477528697,1.97003078989965"),
        4: (4673, "2.21570638556064,0.644910045103417,1.84422613309424,"
                  "0.273429802749515,2.31493011656886,0.744133774402728,"
                  "0.693720858252434,5.40610983817823"),
    },
    "Haswell": {
        3: (3517, "0.456931352463443,2.02772768964261,1.50002864946001,"
                  "3.07082499818389,0.399234477528697,1.97003078989965"),
        4: (4664, "0.273015068335897,1.84381140425744,2.00804500147653,"
                  "3.57884136051087,0.76724189157165,2.33803822826367,"
                  "-0.692107491226113,0.878688826944906"),
    },
    "Sandybridge": {
        3: (3545, "0.129286085875515,1.70008240528679,6.34706491143518,"
                  "1.63467592068714,2.16302880748461,3.73382513109279"),
        4: (4725, "0.273015047178813,1.84381136771174,2.00804498559322,"
                  "3.57884132588069,0.767241908944354,2.33803824315032,"
                  "-0.692107449895948,0.878688856421159"),
    },
    "Katmai": {
        3: (3507, "3.55219387147056,5.12299020953804,4.09411902147136,"
                  "-0.618269967303339,0.993066905228874,2.56386322833793"),
        4: (4673, "0.273015025274001,1.84381136711766,2.00804491743963,"
                  "3.57884124743872,0.767241925722052,2.33803825642619,"
                  "-0.692107390134571,0.878688940734227"),
    },
}


@pytest.fixture
def ghz3_scenario_file(tmp_path):
    scenario = MeasurementScenario.planar(
        ((-math.pi / 4, math.pi / 4), (0.0, math.pi / 2), (0.0, math.pi / 2))
    )
    path = tmp_path / "ghz3.scenario"
    write_scenario_file(scenario, path)
    return str(path)


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi/4", math.pi / 4),
            ("-3pi/4", -3 * math.pi / 4),
            ("2pi", 2 * math.pi),
            ("pi", math.pi),
            ("0.5", 0.5),
            ("+pi/2", math.pi / 2),
            ("-1.25", -1.25),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert abs(parse_angle(text) - expected) < 1e-15

    @pytest.mark.parametrize("text", ["x", "", "pi/0", "pi/", "2.5.1"])
    def test_rejected_forms(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_angle(text)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "figure" in capsys.readouterr().out

    def test_unknown_verb_is_usage_error(self, capsys):
        assert run(["frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert run(["figure", "--id", "1"]) == 2
        capsys.readouterr()

    def test_missing_scenario_file_is_io_error(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.scenario")
        assert run(["bounds", "--scenario", missing, "--operator", "mk"]) == 3
        capsys.readouterr()

    def test_malformed_scenario_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "bad.scenario"
        path.write_text("parties zero family planar\n")
        assert run(["bounds", "--scenario", str(path), "--operator", "mk"]) == 3
        capsys.readouterr()

    def test_non_finite_state_file_is_io_error(self, tmp_path, capsys):
        scenario = tmp_path / "pair.scenario"
        write_scenario_file(MeasurementScenario.planar(((0.0, 1.0), (0.0, 1.0))), scenario)
        state = tmp_path / "nan.state"
        state.write_text("pure 2\nnan 0\n0 0\n0 0\n1 0\n", encoding="ascii")
        argv = ["bounds", "--scenario", str(scenario), "--state", str(state)]
        assert run([*argv, "--operator", "svetlichny-"]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_non_ascii_scenario_file_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "latin.scenario"
        path.write_bytes(b"parties 1 family planar\n0.0 1.0\xff\n")
        assert run(["bounds", "--scenario", str(path), "--operator", "mk"]) == 3
        assert "not ASCII" in capsys.readouterr().err

    def test_non_ascii_state_file_is_io_error(self, tmp_path, capsys):
        scenario = tmp_path / "pair.scenario"
        write_scenario_file(MeasurementScenario.planar(((0.0, 1.0), (0.0, 1.0))), scenario)
        state = tmp_path / "latin.state"
        state.write_bytes(b"pure 2\n1 0\n0 0\n0 0\n0 0\xff\n")
        argv = ["bounds", "--scenario", str(scenario), "--state", str(state)]
        assert run([*argv, "--operator", "svetlichny-"]) == 3
        assert "not ASCII" in capsys.readouterr().err

    def test_bad_domain_is_value_error(self, capsys):
        assert run(["verify", "--trials", "5", "--n-min", "1"]) == 4
        capsys.readouterr()

    @pytest.mark.parametrize("verb", ["figure", "bounds"])
    def test_state_on_other_parties_is_value_error(self, tmp_path, capsys, verb, ghz3_scenario_file):
        # figure and bounds load "ghz" or a file through one helper
        state = tmp_path / "pair.state"
        state.write_text("pure 2\n1 0\n0 0\n0 0\n0 0\n", encoding="ascii")
        if verb == "figure":
            argv = ["figure", "--id", "1", "--samples", "3", "--out", str(tmp_path / "f.csv")]
            want = "error: state spans 2 parties, operator 3\n"
        else:
            argv = ["bounds", "--scenario", ghz3_scenario_file, "--operator", "mk"]
            want = "error: state spans 2 parties, scenario 3\n"
        assert run([*argv, "--state", str(state)]) == 4
        assert capsys.readouterr().err == want

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["figure", "--id", "1", "--samples", "3", "--alpha-end", "inf"], "alpha_end"),
            (["figure", "--id", "1", "--samples", "3", "--alpha-start", "nan"], "alpha_start"),
            (["figure", "--id", "1", "--samples", "3", "--alpha-start=-1e308",
              "--alpha-end", "1.7e308"], "alpha_end - alpha_start"),
            (["optimize", "--n", "2", "--tol", "inf", "--multistarts", "1",
              "--max-evals", "10"], "tol"),
            (["optimize", "--n", "2", "--tol", "nan", "--multistarts", "1",
              "--max-evals", "10"], "tol"),
        ],
        ids=["alpha-end-inf", "alpha-start-nan", "alpha-span-inf", "tol-inf", "tol-nan"],
    )
    def test_non_finite_config_value_is_value_error(self, tmp_path, capsys, argv, field):
        if argv[0] == "figure":
            argv = [*argv, "--out", str(tmp_path / "sweep.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} must be finite")


class TestPolynomialVerb:
    def test_mk3_golden_output(self, capsys):
        assert run(["polynomial", "--op", "mk", "--n", "3"]) == 0
        assert capsys.readouterr().out == MK3_TERMS

    def test_svetlichny3_has_eight_terms(self, capsys):
        assert run(["polynomial", "--op", "svetlichny-", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 8
        assert lines[0] == "+1 000"
        assert lines[-1] == "-1 111"


class TestFigureVerb:
    def test_writes_csv_and_reports_rows(self, tmp_path, capsys):
        out = tmp_path / "fig1.csv"
        code = run(
            ["figure", "--id", "1", "--samples", "11", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert f"wrote 11 rows to {out}" in captured.err
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 12
        assert lines[0].startswith("alpha,")

    def test_repeat_runs_emit_identical_bytes(self, tmp_path, capsys):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert (
                run(
                    [
                        "figure",
                        "--id",
                        "3",
                        "--samples",
                        "21",
                        "--out",
                        str(out),
                        "--alpha-start=-pi/2",
                        "--alpha-end=pi/2",
                    ]
                )
                == 0
            )
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()


class TestBoundsVerb:
    def test_svetlichny_report(self, ghz3_scenario_file, capsys):
        code = run(
            [
                "bounds",
                "--scenario",
                ghz3_scenario_file,
                "--operator",
                "svetlichny-",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(
            line.split("=", 1) for line in out.strip().split("\n") if "=" in line
        )
        assert lines["operator"] == "svetlichny-"
        assert abs(float(lines["operator_value"]) - 4.0 * math.sqrt(2.0)) < 1e-9
        assert abs(float(lines["value"]) - 4.0 * math.sqrt(2.0)) < 1e-9
        assert lines["kind"] == "svetlichny"
        assert lines["witness_party"] == "1"

    def test_even_mk_names_svetlichny_equivalent(self, tmp_path, capsys):
        scenario = MeasurementScenario.planar(
            ((0.0, math.pi / 2), (-math.pi / 4, math.pi / 4))
        )
        path = tmp_path / "pair.scenario"
        write_scenario_file(scenario, path)
        assert run(["bounds", "--scenario", str(path), "--operator", "mk"]) == 0
        out = capsys.readouterr().out
        assert "svetlichny_equivalent=-,+1" in out


class TestVerifyVerb:
    def test_small_clean_run_exits_zero(self, capsys):
        code = run(
            ["verify", "--seed", "7", "--trials", "10", "--n-max", "3"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("trials=10")
        assert "violations=0" in captured.out
        # the non-degenerate covariance margin is a diagnostic: stderr only
        assert "distinct" not in captured.out
        assert captured.err.startswith("worst_slack_covariance_distinct=")
        assert float(captured.err.splitlines()[0].split("=")[1]) >= -1e-9

    def test_seed_42_stdout_is_pinned(self, capsys):
        # byte for byte, including the Jacobi PSD floor's last digits, which
        # move with the OpenBLAS kernel
        psd = kernel_pins(VERIFY_PSD_PINS)
        argv = ["verify", "--seed", "42", "--trials", "200", "--n-min", "2", "--n-max", "5"]
        assert run(argv) == 0
        assert capsys.readouterr().out == (
            "trials=200\n"
            "worst_slack_svetlichny=0.426150448515708\n"
            "worst_slack_mk=0.821383922151724\n"
            "worst_slack_covariance=0\n"
            f"worst_psd_eigen={psd}\n"
            "violations=0\n"
        )


    def test_printed_witness_replays_its_margin(self, capsys):
        argv = ["verify", "--seed", "42", "--trials", "200", "--n-min", "2", "--n-max", "5"]
        assert run(argv) == 0
        captured = capsys.readouterr()
        witnesses = {}
        for line in captured.err.splitlines()[1:]:
            name, *fields = line.split()
            witnesses[name] = dict(field.split("=") for field in fields)
        assert sorted(witnesses) == [
            "witness_covariance",
            "witness_covariance_distinct",
            "witness_mk",
            "witness_psd",
            "witness_svetlichny",
        ]
        psd = witnesses["witness_psd"]
        assert set(psd) == {"trial", "n", "seed"}
        replay = ["verify", "--seed", psd["seed"], "--trials", "1"]
        assert run(replay + ["--n-min", psd["n"], "--n-max", psd["n"]]) == 0
        def psd_line(out):
            return [row for row in out.splitlines() if row.startswith("worst_psd_eigen=")]

        assert psd_line(capsys.readouterr().out) == psd_line(captured.out)


class TestOptimizeVerb:
    @pytest.mark.parametrize(
        "n,pinned",
        [(3, ["value=5.65685424949238"]), (4, ["value=11.3137084989848"])],
    )
    def test_search_path_is_pinned(self, capsys, n, pinned):
        # the evaluation count and the angles pin every simplex step; they
        # move with the OpenBLAS kernel, the value does not
        evals, angles = kernel_pins(SEARCH_PATH_PINS)[n]
        assert run(["optimize", "--n", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        want = pinned + [f"evals={evals}", f"angles={angles}"]
        assert [line for line in lines if line.split("=")[0] in ("value", "evals", "angles")] == want

    def test_reports_each_start_on_stderr(self, capsys):
        assert run(["optimize", "--n", "2", "--multistarts", "3", "--max-evals", "600"]) == 0
        captured = capsys.readouterr()
        fields = dict(line.split("=", 1) for line in captured.out.splitlines())
        assert list(fields) == [
            "objective", "n_parties", "family", "value", "evals", "converged", "angles"
        ]
        starts = [dict(item.split("=") for item in line.split()) for line in captured.err.splitlines()]
        assert [list(start) for start in starts] == [["start", "value", "evals", "converged"]] * 3
        assert [start["start"] for start in starts] == ["0", "1", "2"]
        assert {start["converged"] for start in starts} <= {"true", "false"}
        assert sum(int(start["evals"]) for start in starts) == int(fields["evals"])
        assert max(float(start["value"]) for start in starts) == float(fields["value"])


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

# What pip's generated console script does: load the entry point, set argv[0]
# to the script name, and exit with what the callable returns.
ENTRY_POINT_CHILD = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
sys.argv = [name, *sys.argv[3:]]
sys.exit(EntryPoint(name, value, "console_scripts").load()())
"""


def declared_console_script(name):
    """The `[project.scripts]` value for `name`, read from pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]["scripts"][name]


def run_console_script(cwd, *args):
    """Run the declared `bellbounds` script in a child, without an install.

    The child imports the same `bellbounds` package as this test, whatever
    the working directory or a relative PYTHONPATH says.
    """
    package_root = str(Path(bellbounds.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    value = declared_console_script("bellbounds")
    return subprocess.run(
        [sys.executable, "-c", ENTRY_POINT_CHILD, "bellbounds", value, *args],
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
        env=env,
    )


class TestInstalledEntryPoint:
    def test_console_script_responds(self, tmp_path):
        proc = run_console_script(tmp_path, "--help")
        assert proc.returncode == 0
        assert "polynomial" in proc.stdout

    def test_console_script_exit_status_is_run_code(self, tmp_path):
        proc = run_console_script(tmp_path, "frobnicate")
        assert proc.returncode == 2

    @pytest.mark.skipif(
        shutil.which("bellbounds") is None,
        reason="bellbounds console script is not installed on PATH",
    )
    def test_installed_script_on_path_responds(self):
        proc = subprocess.run(
            ["bellbounds", "--help"], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0
        assert "polynomial" in proc.stdout
