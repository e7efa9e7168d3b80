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

MK3_TERMS = "+1 001\n+1 010\n+1 100\n-1 111\n"


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
        assert float(captured.err.split("=")[1]) >= -1e-9

    def test_seed_42_stdout_is_pinned(self, capsys):
        # byte for byte, including the Jacobi PSD floor's last digits
        argv = ["verify", "--seed", "42", "--trials", "200", "--n-min", "2", "--n-max", "5"]
        assert run(argv) == 0
        assert capsys.readouterr().out == (
            "trials=200\n"
            "worst_slack_svetlichny=0.426150448515708\n"
            "worst_slack_mk=0.821383922151724\n"
            "worst_slack_covariance=0\n"
            "worst_psd_eigen=2.80843399266928e-06\n"
            "violations=0\n"
        )


class TestOptimizeVerb:
    @pytest.mark.parametrize(
        "n,pinned",
        [
            (
                3,
                [
                    "value=5.65685424949238",
                    "evals=3521",
                    "angles=0.456931405849659,2.02772773561364,1.50002840711997,"
                    "3.07082472904693,0.399234679341586,1.9700309970895",
                ],
            ),
            (
                4,
                [
                    "value=11.3137084989848",
                    "evals=4663",
                    "angles=0.273015062442374,1.8438113921523,2.00804497660691,"
                    "3.57884129246263,0.767241903775188,2.33803820493353,"
                    "-0.692107441019507,0.878688887025854",
                ],
            ),
        ],
    )
    def test_search_path_is_pinned(self, capsys, n, pinned):
        # the evaluation count and the angles pin every simplex step
        assert run(["optimize", "--n", str(n)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.split("=")[0] in ("value", "evals", "angles")] == pinned


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
