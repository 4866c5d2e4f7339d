import csv
import hashlib
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from cowalk import exact, io, optimality
from cowalk.cli import main
from cowalk.exact import survival_table
from cowalk.simulate import SurvivalCurve
from cowalk.tvcutoff import cutoff_profile


README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv):
    return main(list(argv))


def _readme_block(heading: str, lang: str) -> str:
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _readme_commands():
    """(argv, number stated in the trailing comment or None) per README
    command line, continuations joined."""
    cases = []
    for line in _readme_block("Command line", "sh").replace("\\\n", " ").splitlines():
        command, _, comment = line.partition("#")
        stated = comment.strip()
        try:
            float(stated)
        except ValueError:
            stated = None
        argv = shlex.split(command)
        assert argv[0] == "cowalk"
        cases.append(pytest.param(argv[1:], stated, id=argv[1]))
    return cases


@pytest.mark.parametrize("argv, stated", _readme_commands())
def test_readme_command(argv, stated, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if stated is not None:
        assert stated in [line.split(",")[-1] for line in out.splitlines()]
    if argv[0] == "cutoff":
        # a theta list led by a negative offset is a value, not a flag
        rows = list(csv.DictReader(out.splitlines()))
        assert [float(r["theta"]) for r in rows] == [-1.0, 0.0, 1.0]
        tv = [float(r["tv_exact"]) for r in rows]
        assert tv[0] > tv[1] > tv[2]


def test_readme_quick_start():
    exec(_readme_block("Library quick start", "python"), {})


def test_exact_single_value(tmp_path, capsys):
    assert run_cli("exact", "--d", "2", "--m", "1", "--t", "0.5") == 0
    out = capsys.readouterr().out
    assert "0.36787944117144233" in out


def test_tv_point(capsys):
    assert run_cli("tv", "--d", "3", "--n", "1", "--t", "0") == 0
    assert "0.6666666666666667" in capsys.readouterr().out


def test_invalid_configs():
    assert run_cli("exact", "--d", "1", "--m", "1", "--t", "0.5") == 2
    assert run_cli("simulate", "--d", "3", "--m", "2", "--strategy", "optimal",
                   "--replicates", "10", "--t", "1.0") == 2
    assert run_cli("exact", "--d", "3", "--m", "1", "--t", "0.5", "--eps", "0.5") == 2
    assert run_cli("exact", "--d", "3", "--t", "0.5") == 2  # missing m/mmax
    with pytest.raises(SystemExit) as err:
        run_cli("no-such-command")
    assert err.value.code == 2


def test_simulate_writes_deterministic_csv(tmp_path):
    args = ("simulate", "--d", "4", "--m", "3", "--strategy", "optimal",
            "--replicates", "2000", "--t", "0.5,1.0,2.0", "--seed", "9")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.csv"
    assert run_cli(*args[:-1], "10", "--out", str(out3)) == 0  # different seed
    assert out1.read_bytes() != out3.read_bytes()
    # metadata sidecar exists and carries the seed
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["seed"] == 9 and meta["command"] == "simulate"


def test_survival_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    assert run_cli("simulate", "--d", "3", "--m", "2", "--strategy", "independent",
                   "--replicates", "1000", "--t", "0.3,0.9", "--seed", "4",
                   "--out", str(path)) == 0
    curve = io.read_survival_csv(path)
    path2 = tmp_path / "again.csv"
    with open(path2, "w", newline="") as fh:
        io.write_survival_csv(curve, fh)
    assert path.read_bytes() == path2.read_bytes()


def test_tail_csv_round_trip(tmp_path):
    table = survival_table(3, 4, [0.0, 0.5, 2.0])
    path = tmp_path / "tail.csv"
    with open(path, "w", newline="") as fh:
        io.write_tail_csv(table, fh)
    t_grid, values = io.read_tail_csv(path)
    assert (t_grid == table.t_grid).all()
    assert (values == table.values).all()


def test_cutoff_csv_round_trip(tmp_path):
    points = cutoff_profile(5, 1000, [-1.0, 0.0, 1.0])
    path = tmp_path / "cutoff.csv"
    with open(path, "w", newline="") as fh:
        io.write_cutoff_csv(points, fh)
    rows = io.read_cutoff_csv(path)
    assert [r["theta"] for r in rows] == [-1.0, 0.0, 1.0]
    assert rows[1]["tv_exact"] == points[1].tv_exact


def test_cutoff_cli(tmp_path):
    path = tmp_path / "cutoff.csv"
    assert run_cli("cutoff", "--d", "2", "--n", "1000", "--theta", "0",
                   "--out", str(path)) == 0
    rows = io.read_cutoff_csv(path)
    assert rows[0]["tv_asymptotic"] == pytest.approx(0.3829249225480262, abs=1e-10)


LAPLACE_D5_M3 = """\
{
  "d": 5,
  "identities": {
    "R1_minus_R2_is_1_over_2_plus_alpha": true,
    "R2_closed_form": true,
    "R2_minus_R3_closed_form": true,
    "V1_closed_form": true
  },
  "levels": [
    {
      "V": "0",
      "m": 0
    },
    {
      "R": "(4)/(5 + 4*a)",
      "V": "(4)/(5 + 4*a)",
      "expected_tau": "4/5",
      "m": 1
    },
    {
      "R": "(3)/(10 + 13*a + 4*a^2)",
      "V": "(11 + 4*a)/(10 + 13*a + 4*a^2)",
      "expected_tau": "11/10",
      "m": 2
    },
    {
      "R": "(31 + 8*a)/(120 + 196*a + 100*a^2 + 16*a^3)",
      "V": "(163 + 100*a + 16*a^2)/(120 + 196*a + 100*a^2 + 16*a^3)",
      "expected_tau": "163/120",
      "m": 3
    }
  ]
}
"""


def test_laplace_readme_command_stdout(capsys):
    assert run_cli("laplace", "--d", "5", "--m", "3") == 0
    assert capsys.readouterr().out == LAPLACE_D5_M3


def test_laplace_json(tmp_path):
    path = tmp_path / "laplace.json"
    assert run_cli("laplace", "--d", "6", "--m", "3", "--out", str(path)) == 0
    payload = json.loads(path.read_text())
    assert all(payload["identities"].values())
    assert payload["levels"][1]["V"] == "(5)/(6 + 5*a)"


def test_mean_tau_json(capsys):
    assert run_cli("mean-tau", "--d", "10", "--m", "2") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_tau"] == "13/10"
    assert payload["sandwich"]["holds"]


def test_limit_cli(capsys):
    assert run_cli("limit", "--n", "5", "--d-list", "10,100",
                   "--t-start", "0", "--t-stop", "6", "--t-points", "20",
                   "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["strictly_decreasing"]


def test_verify_cli(tmp_path):
    path = tmp_path / "verify.json"
    assert run_cli("verify", "--d", "4", "--mmax", "6", "--t", "0.5,1.0,2.0",
                   "--replicates", "2000", "--samples", "10", "--seed", "3",
                   "--out", str(path)) == 0
    payload = json.loads(path.read_text())
    assert payload["argmax"]["violations"] == 0
    assert payload["argmax"]["all_equal_optimal"]
    assert payload["bellman"]["all_nonpositive_within_slack"]
    assert all(entry["passed"] for entry in payload["dominance"].values())
    assert payload["sign_tables"]["undetermined_cells"] == 0
    assert set(payload["argmax"]["cells"].values()) <= {"match", "tie"}


def test_verify_builds_one_sign_table(monkeypatch, capsys):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[1]))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(exact, "survival_table", counted("tails", exact.survival_table))
    sign_table = counted("signs", exact.r_diff_table)
    monkeypatch.setattr(exact, "r_diff_table", sign_table)
    monkeypatch.setattr(optimality, "r_diff_table", sign_table, raising=False)
    assert run_cli("verify", "--d", "4", "--mmax", "5", "--t", "0.5,1",
                   "--replicates", "100", "--samples", "2") == 0
    # one sign table over one tail table; then the Bellman loop's tables at
    # levels m + 2 and the three dominance tests' exact tails
    assert calls[:2] == [("signs", 5), ("tails", 5)]
    assert [name for name, _ in calls].count("signs") == 1
    assert [level for name, level in calls[2:]] == [3, 4, 5, 6, 7, 2, 2, 2]


def test_readme_verify_report_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify", "--d", "4", "--mmax", "10", "--out", "report.json") == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == (
        "b16eaf2aaeee2705eb53c8958b4718612808a2dabdb7ede59efc378329d07a9f")


def test_validate_marginals_cli(capsys):
    assert run_cli("validate-marginals", "--d", "2", "--n", "4",
                   "--strategy", "synchronous", "-T", "5", "-R", "400") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] and payload["all_moves_joint"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 3, "n": 1, "t_values": [0.0]}))
    assert run_cli("tv", "--config", str(cfg)) == 0
    assert "0.6666666666666667" in capsys.readouterr().out
    # flags win over the file
    assert run_cli("tv", "--config", str(cfg), "--d", "4") == 0
    assert "0.75" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nonsense": 1}))
    assert run_cli("tv", "--config", str(bad)) == 2


def test_config_file_key_of_a_flag_the_command_lacks_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 1e-9, "seed": 3, "d": 3, "n": 2, "t_values": [0.5]}))
    assert run_cli("tv", "--config", str(cfg)) == 2
    assert "'eps', 'seed'" in capsys.readouterr().err


def test_verify_refuses_a_certificate_beyond_its_rounding_bound(capsys):
    assert run_cli("verify", "--d", "4", "--mmax", "2", "--t", "10000",
                   "--replicates", "100", "--samples", "1") == 2
    assert "terms" in capsys.readouterr().err


@pytest.mark.parametrize("values", [
    {"d": "3", "n": 1, "t_values": [0.0]},
    {"d": 3, "n": 1, "t_values": "0.5"},
    {"d": 3.5, "n": 1, "t_values": [0.5]},
])
def test_config_file_value_of_wrong_type_is_refused(tmp_path, values):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert run_cli("tv", "--config", str(cfg)) == 2


def test_stdout_json_format(capsys):
    assert run_cli("exact", "--d", "2", "--m", "2", "--t", "1.0",
                   "--format", "json") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"][2][0] == pytest.approx(
        2 * np.exp(-2.0) - np.exp(-2.0), abs=1e-10)


# a cheap valid command line per subcommand
BASE_ARGV = {
    "simulate": "--d 3 --m 2 --strategy optimal --replicates 100 --t 1",
    "exact": "--d 2 --m 1 --t 0.5",
    "laplace": "--d 3 --m 1",
    "mean-tau": "--d 3 --m 2",
    "tv": "--d 3 --n 1 --t 0",
    "cutoff": "--d 3 --n 10 --theta 0",
    "limit": "--n 2 --t 1",
    "verify": "--d 3 --mmax 2 --t 1 --replicates 100 --samples 1",
    "validate-marginals": "--d 2 --n 2 --strategy synchronous -T 1 -R 100",
}
FLAG_VALUES = {"--seed": "1", "--eps": "1e-9", "--workers": "1", "--format": "json"}
UNREAD_FLAGS = [
    ("simulate", "--eps"),
    ("exact", "--seed"), ("exact", "--workers"),
    *[(cmd, flag) for cmd in ("laplace", "mean-tau")
      for flag in ("--seed", "--eps", "--workers", "--format")],
    *[(cmd, flag) for cmd in ("tv", "cutoff") for flag in ("--seed", "--eps", "--workers")],
    ("limit", "--seed"), ("limit", "--workers"),
    ("verify", "--format"),
    ("validate-marginals", "--eps"), ("validate-marginals", "--workers"),
    ("validate-marginals", "--format"),
]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
def test_flag_the_handler_does_not_read_is_refused(command, flag, capsys):
    with pytest.raises(SystemExit) as err:
        main([command, *BASE_ARGV[command].split(), flag, FLAG_VALUES[flag]])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["exact", "simulate", "tv", "cutoff", "limit"])
def test_csv_out_file_equals_stdout(command, tmp_path, capsys):
    argv = [command, *BASE_ARGV[command].split()]
    assert main(argv) == 0
    stdout = capsys.readouterr().out.encode()
    path = tmp_path / "artifact.csv"
    assert main([*argv, "--out", str(path)]) == 0
    assert path.read_bytes() == stdout
    assert b"\r" not in stdout


@pytest.mark.parametrize("command, extra, code", [
    ("verify", "--samples -1", 2), ("verify", "--samples 0", 0),
    ("simulate", "--workers 0", 2), ("simulate", "--workers 1", 0),
])
def test_samples_and_workers_are_bounded_below(command, extra, code, capsys):
    assert main([command, *BASE_ARGV[command].split(), *extra.split()]) == code
    assert ("invalid configuration" in capsys.readouterr().err) == (code == 2)


def test_config_file_workers_below_one_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 0}))
    assert main(["simulate", *BASE_ARGV["simulate"].split(), "--config", str(cfg)]) == 2
    assert "workers must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "exact --d 3 --m 2 --t ,",
    "tv --d 3 --n 2 --t ,",
    "limit --n 5 --d-list 10,100 --t ,",
])
def test_empty_time_grid_is_refused(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid configuration: t must list at least one time point" in captured.err
