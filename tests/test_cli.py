import csv
import hashlib
import json
import math
import shlex
import time
from pathlib import Path

import numpy as np
import pytest

from cowalk import exact, io, optimality, simulate
from cowalk.cli import main
from cowalk.exact import survival_table
from cowalk.simulate import estimate_survival
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


def test_exact_at_level_0_is_the_level_0_chain(capsys):
    # level 0 is an ordinary level: its CSV (sha256 pinned before levels
    # 0 and 1 shared a table) is one zero row, and its JSON reports the
    # level-0 chain's own uniformization rate
    argv = ["exact", "--d", "3", "--m", "0", "--t", "0.5,1"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3e971b1af562abe5aaa87883e45a3343a74d04170b5ff7db4c48f7595b959785")
    assert main([*argv, "--format", "json"]) == 0
    json_out = capsys.readouterr().out
    doc = json.loads(json_out)
    assert doc["m_max"] == 0 and doc["uniformization_rate"] == 1
    assert doc["values"] == [[0.0, 0.0]]
    # --mmax 0 asks for the same table
    by_mmax = ["exact", "--d", "3", "--mmax", "0", "--t", "0.5,1"]
    assert main(by_mmax) == 0 and capsys.readouterr().out == out
    assert main([*by_mmax, "--format", "json"]) == 0 and capsys.readouterr().out == json_out


@pytest.mark.parametrize("argv, message", [
    ("mean-tau --d 3", "need --m or --n"),
    ("exact --d 2 --m 1 --mmax 3", "--m and --mmax together"),
])
def test_level_flags_missing_or_together_are_refused(argv, message, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


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


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_survival_csv_round_trip(tmp_path):
    path = tmp_path / "curve.csv"
    assert run_cli("simulate", "--d", "3", "--m", "2", "--strategy", "independent",
                   "--replicates", "1000", "--t", "0.3,0.9", "--seed", "4",
                   "--out", str(path)) == 0
    curve = estimate_survival("independent", 3, 2, [0.3, 0.9], 1000, 4)
    header, *rows = _csv_rows(path)
    assert header == ["t", "value", "half_width_95", "half_width_3sigma", "replicates"]
    cols = (curve.t_grid, curve.value, curve.half_width_95, curve.half_width_3sigma)
    assert [[float(v) for v in row[:4]] for row in rows] == [list(r) for r in zip(*cols)]
    assert [int(row[4]) for row in rows] == [curve.replicates] * 2


def test_tail_csv_round_trip(tmp_path):
    table = survival_table(3, 4, [0.0, 0.5, 2.0])
    path = tmp_path / "tail.csv"
    with open(path, "w", newline="") as fh:
        io.write_tail_csv(table, fh)
    header, *rows = _csv_rows(path)
    assert header[0] == "m"
    assert [float(h.removeprefix("t=")) for h in header[1:]] == list(table.t_grid)
    assert [int(row[0]) for row in rows] == list(range(5))
    assert [[float(v) for v in row[1:]] for row in rows] == table.values.tolist()


def test_cutoff_csv_round_trip(tmp_path):
    points = cutoff_profile(5, 1000, [-1.0, 0.0, 1.0])
    path = tmp_path / "cutoff.csv"
    with open(path, "w", newline="") as fh:
        io.write_cutoff_csv(points, fh)
    header, *rows = _csv_rows(path)
    assert header == ["theta", "T_d", "t", "tv_exact", "tv_asymptotic"]
    assert [[float(v) for v in row] for row in rows] == [
        [p.theta, p.cutoff, p.t, p.tv_exact, p.tv_asymptotic] for p in points]


def test_cutoff_cli(tmp_path):
    path = tmp_path / "cutoff.csv"
    assert run_cli("cutoff", "--d", "2", "--n", "1000", "--theta", "0",
                   "--out", str(path)) == 0
    header, row = _csv_rows(path)
    assert float(row[header.index("tv_asymptotic")]) == pytest.approx(0.3829249225480262,
                                                                      abs=1e-10)


@pytest.mark.parametrize("d, theta", [("5", "-567"), ("5", "-568"), ("5", "-1e300"),
                                      ("2", "-354"), ("2", "-355")])
def test_cutoff_cli_far_below_the_cutoff(d, theta, capsys):
    # the profile value overflowed exp from theta = -568 at d = 5 (exit 1)
    assert run_cli("cutoff", "--d", d, "--n", "100", f"--theta={theta}") == 0
    _, row = capsys.readouterr().out.splitlines()
    assert row.split(",")[2:] == ["0.0", "1.0", "1.0"]  # t, tv_exact, tv_asymptotic


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


@pytest.mark.parametrize("d, m, sha256", [
    (4, 12, "1441bfb2f709f8da2355f973e7272567d669f26f467ec82bff19b1432f3b10e6"),
    (2, 9, "d6a87b4b8e8ed49ca8ef489a396b2913a8552662bdcc158f1bf357cf6a35e31f"),
    (10, 20, "709475fd3dfb4e13beafc93c1bb2ad2c798daacc437fc0aab6a03ab2b62ff829"),
])
def test_laplace_stdout_digest(capsys, d, m, sha256):
    # digests of the stdout of `cowalk laplace --d D --m M` as first recorded,
    # so a change to the transform arithmetic cannot move a byte unnoticed
    assert run_cli("laplace", "--d", str(d), "--m", str(m)) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha256


def test_laplace_refuses_m_above_its_bound(capsys):
    # --m 200 is the deepest run (about 1 s at d = 2); --m 201 is refused
    # before any work, naming the bound
    assert run_cli("laplace", "--d", "2", "--m", "200") == 0
    assert json.loads(capsys.readouterr().out)["levels"][200]["m"] == 200
    start = time.perf_counter()
    assert run_cli("laplace", "--d", "50", "--m", "201") == 2
    assert time.perf_counter() - start < 0.1
    assert "at most 200; level 201 was asked" in capsys.readouterr().err


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
    assert run_cli("verify", "--d", "4", "--mmax", "6", "--out", str(path)) == 0
    payload = json.loads(path.read_text())
    assert payload["argmax"]["violations"] == 0
    assert payload["argmax"]["all_equal_optimal"]
    assert payload["bellman"]["all_nonpositive_within_slack"]
    assert payload["dominance"] == {c: {"sign": "positive", "passed": True} for c in
                                    ("independent", "synchronous", "pairwise-classic")}
    assert payload["sign_tables"]["undetermined_cells"] == 0
    assert payload["sign_tables"]["undecided_rows"] == []
    assert payload["argmax"]["cells"] == ["match", "match", "tie", "match", "match", "match"]
    assert payload["bellman"]["vertices"] == 24 and "eps" not in payload


def test_verify_builds_no_float_table(monkeypatch, capsys):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    real = {name: getattr(exact, name) for name in ("survival_table", "r_diff_table")}
    for module in (exact, optimality):
        for name, fn in real.items():
            monkeypatch.setattr(module, name, counted(name, fn), raising=False)
    monkeypatch.setattr(simulate, "sample_coupling_times",
                        counted("samples", simulate.sample_coupling_times))
    # every verdict reads the exact row signs alone: no tail table, no
    # float difference table and no Monte Carlo, on the CLI or in the library
    assert run_cli("verify", "--d", "4", "--mmax", "5") == 0
    rep = optimality.verify_argmax_grid(4, 5, [0.0, 0.5, 1e4])
    assert calls == [] and len(rep.cells) == 15


def test_verify_reports_one_verdict_per_level(capsys):
    assert run_cli("verify", "--d", "4", "--mmax", "30") == 0
    payload = json.loads(capsys.readouterr().out)
    # entry m - 1 is level m, in level order; R(2) - R(3) is zero at d = 4
    assert payload["argmax"]["cells"] == ["match"] * 2 + ["tie"] + ["match"] * 27
    assert payload["argmax"]["cells"] == [
        c.status for c in optimality.verify_argmax_grid(4, 30, [1.0]).cells]
    assert payload["bellman"]["vertices"] == 120


def test_verify_verdicts_fail_where_no_row_is_signed(monkeypatch, capsys):
    def undetermined(terms):
        return exact.SignCert.UNDETERMINED.value

    monkeypatch.setattr(exact, "_row_sign", undetermined)
    monkeypatch.setattr(optimality, "_row_sign", undetermined)
    assert run_cli("verify", "--d", "4", "--mmax", "4") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["argmax"]["violations"] == 0
    assert payload["sign_tables"]["undetermined_cells"] == 3
    assert payload["sign_tables"]["undecided_rows"] == [2, 3, 4]
    assert payload["bellman"]["all_nonpositive_within_slack"] is False
    assert payload["dominance"] == {c: {"sign": "undetermined", "passed": False} for c in
                                    ("independent", "synchronous", "pairwise-classic")}


def test_readme_verify_report_is_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("verify", "--d", "4", "--mmax", "10", "--out", "report.json") == 0
    # sha256 of the README command's report, re-pinned when it went per level:
    # each level's status is the one its 49 cells had in the per-cell report
    report = (tmp_path / "report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == (
        "b94b55e3e10a858ca6faf9940d1fc746af83ac2b8776c3c9c1980a80448134e9")
    assert len(report) < 2048


def test_readme_validate_marginals_stdout_is_pinned(capsys):
    # sha256 of the README command's stdout, pinned before the event kernel
    # moved to a sorted live prefix with flat state indices
    assert run_cli("validate-marginals", "--d", "4", "--n", "5", "--strategy", "optimal",
                   "-T", "10", "-R", "10000") == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "94aa2b736c2ad8916380cf7b1c94f8209e627a3c5603a63fb5660d20b0e0f0fd")


def test_validate_marginals_cli(capsys):
    assert run_cli("validate-marginals", "--d", "2", "--n", "4",
                   "--strategy", "synchronous", "-T", "5", "-R", "400") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] and payload["all_moves_joint"]


@pytest.mark.parametrize("horizon, replicates", [("30000", "100"), ("10", "20000000")])
def test_validate_marginals_beyond_its_cost_bounds_is_refused(horizon, replicates, capsys):
    # 3e5 expected candidate events per replicate (> 2^18); 2e9 in all (> 2^30)
    assert run_cli("validate-marginals", "--d", "4", "--n", "5", "--strategy", "optimal",
                   "-T", horizon, "-R", replicates) == 2
    err = capsys.readouterr().err
    assert "2^18 per replicate" in err and "2^30 in all" in err


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
    # no verdict of verify reads eps, so it takes neither the flag nor the key
    cfg.write_text(json.dumps({"eps": 1e-9}))
    assert run_cli("verify", "--d", "3", "--mmax", "2", "--config", str(cfg)) == 2
    assert "does not take: ['eps']" in capsys.readouterr().err
    # nor a time grid: one verdict per level holds for every t > 0
    cfg.write_text(json.dumps({"t_values": [1.0]}))
    assert run_cli("verify", "--d", "3", "--mmax", "2", "--config", str(cfg)) == 2
    assert "does not take: ['t_values']" in capsys.readouterr().err


def test_verify_refuses_a_certificate_beyond_its_rounding_bound():
    # no per-cell certificate, so no rounding bound: row signs hold for all
    # t > 0, and the verdicts verify reports at t = 1 are those at t = 1e4
    far = optimality.verify_argmax_grid(4, 2, [10000.0])
    assert not (far.diff_certs == exact.SignCert.UNDETERMINED.value).any()
    assert [c.status for c in far.cells] == [
        c.status for c in optimality.verify_argmax_grid(4, 2, [1.0]).cells]


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
    "verify": "--d 3 --mmax 2",
    "validate-marginals": "--d 2 --n 2 --strategy synchronous -T 1 -R 100",
}
FLAG_VALUES = {"--seed": "1", "--eps": "1e-9", "--workers": "1", "--format": "json", "--m0": "2",
               "--replicates": "100", "--t": "1", "--t-start": "0.5", "--t-stop": "1",
               "--t-points": "2", "--t-spacing": "log"}
UNREAD_FLAGS = [
    ("simulate", "--eps"), ("simulate", "--m0"),
    ("exact", "--seed"), ("exact", "--workers"),
    *[(cmd, flag) for cmd in ("laplace", "mean-tau")
      for flag in ("--seed", "--eps", "--workers", "--format")],
    *[(cmd, flag) for cmd in ("tv", "cutoff") for flag in ("--seed", "--eps", "--workers")],
    ("limit", "--seed"), ("limit", "--workers"),
    *[("verify", flag) for flag in ("--format", "--replicates", "--seed", "--workers", "--eps",
                                    "--t", "--t-start", "--t-stop", "--t-points", "--t-spacing")],
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
    ("simulate", "--workers 0", 2), ("simulate", "--workers 1", 0),
])
def test_samples_and_workers_are_bounded_below(command, extra, code, capsys):
    assert main([command, *BASE_ARGV[command].split(), *extra.split()]) == code
    assert ("error: n_workers must be >= 1" in capsys.readouterr().err) == (code == 2)


def test_samples_flag_and_config_key_are_refused(tmp_path, capsys):
    argv = ["verify", *BASE_ARGV["verify"].split()]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--samples", "10"])
    assert err.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 10}))
    assert main([*argv, "--config", str(cfg)]) == 2
    assert "does not take: ['samples']" in capsys.readouterr().err


@pytest.mark.parametrize("horizon", ["nan", "inf"])
def test_non_finite_horizon_is_refused(horizon, tmp_path, capsys):
    argv = "validate-marginals --d 2 --n 2 --strategy synchronous -R 100".split()
    message = "error: horizon must be positive and finite"
    assert main([*argv, "-T", horizon]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": float(horizon)}))  # written as NaN / Infinity
    assert main([*argv, "--config", str(cfg)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "tv --d 3 --n 10 --t-points 2",
    "exact --d 3 --m 2 --t-points 2",
    "simulate --d 3 --m 2 --strategy optimal -R 100 --t-points 2",
    "limit --n 3 --t-points 2",
])
@pytest.mark.parametrize("bound", ["--t-stop inf", "--t-stop nan", "--t-start=-inf"])
def test_non_finite_grid_ends_are_refused(argv, bound, capsys):
    # refused before the grid is built, so numpy warns of no inf * 0
    assert main([*argv.split(), *bound.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid configuration: t-start and t-stop must be finite" in captured.err


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
    assert "error: t_grid must be nonempty" in captured.err


@pytest.mark.parametrize("argv, message", [
    ("cutoff --d 3 --n 10 --theta ,", "theta must list at least one offset"),
    ("limit --n 5 --d-list , --t 1", "d-list must list at least one d"),
])
def test_empty_theta_and_d_list_are_refused(argv, message, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid configuration: {message}" in captured.err


@pytest.mark.parametrize("command, values, message", [
    ("cutoff", {"d": 3, "n": 10, "theta": []}, "theta must list at least one offset"),
    ("limit", {"n": 5, "d_list": [], "t_values": [1.0]}, "d-list must list at least one d"),
])
def test_config_file_empty_theta_and_d_list_are_refused(command, values, message, tmp_path,
                                                        capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    assert main([command, "--config", str(cfg)]) == 2
    assert f"invalid configuration: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["inf", "nan", "1,inf"])
def test_non_finite_time_is_refused(t, capsys):
    assert main(["exact", "--d", "3", "--mmax", "3", "--t", t]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "t_grid must be finite" in captured.err


@pytest.mark.parametrize("argv, t, message", [
    ("exact --d 3 --m 2", [math.nan, 1.0], "t_grid must be finite"),
    ("simulate --d 3 --m 2 --strategy optimal -R 100", [-2.0, 1.0], "t_grid must be nonnegative"),
    ("tv --d 3 --n 5", [math.inf], "t_grid must be finite"),
    ("tv --d 3 --n 5", [-1.0], "t_grid must be nonnegative"),
    ("limit --n 3", [math.inf], "t_grid must be finite"),
    ("limit --n 3 --d-list 10", [math.inf], "t_grid must be finite"),
    ("limit --n 3", [1.0, -0.5], "t_grid must be nonnegative"),
    ("limit --n 3 --d-list 10", [1.0, -0.5], "t_grid must be nonnegative"),
    ("exact --d 3 --m 2", [-1.0], "t_grid must be nonnegative"),
    ("simulate --d 3 --m 2 --strategy optimal -R 100", [math.nan], "t_grid must be finite"),
])
def test_every_time_grid_passes_one_rule(argv, t, message, tmp_path, capsys):
    # the same refusal from --t and from a config file's t_values
    assert main([*argv.split(), "--t=" + ",".join(map(str, t))]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_values": t}))  # nan and inf written as NaN / Infinity
    assert main([*argv.split(), "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("argv", [
    "exact --d 3 --m 2",
    "simulate --d 3 --m 2 --strategy optimal -R 100",
    "tv --d 3 --n 10",
    "limit --n 3",
])
def test_generated_grids_hold_at_most_10000_points(argv, capsys):
    assert main([*argv.split(), "--t-stop", "1", "--t-points", "10000"]) == 0
    capsys.readouterr()
    for points in ("10001", "1000000000"):  # refused before the grid is allocated
        assert main([*argv.split(), "--t-points", points]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid configuration: t-points must be <= 10000" in captured.err


def test_validate_marginals_refuses_pairwise_classic_before_any_draw(monkeypatch, capsys):
    def no_draw(*args, **kwargs):
        raise AssertionError("a generator was built")

    monkeypatch.setattr(np.random, "Philox", no_draw)
    argv = "validate-marginals --d 4 --n 5 --strategy pairwise-classic"
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: pairwise-classic has no full-coordinate realization" in captured.err


def test_float_mean_beyond_its_level_cap_is_refused(capsys):
    # n = 1e8 at d = 4 needs mean levels up to 7.5e7, past the 1e7 cap
    assert main(["mean-tau", "--d", "4", "--n", "100000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "at most 10000000; level 75052002 was asked" in captured.err


@pytest.mark.parametrize("argv", [
    "mean-tau --d 4611686018427387904 --m 3",  # 3 d = 3 * 2^62 wrapped the int64 rates
    "laplace --d 10000000000000000000 --m 3",  # d past int64 raised OverflowError
    "mean-tau --d 3002399751580331 --m 3",  # 3 d = 2^53 + 1
])
def test_rates_at_or_above_2_to_the_53_are_refused(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max(m, 1) * d must be below 2^53" in captured.err


def test_rates_just_below_2_to_the_53_run(capsys):
    d = (2**53 - 1) // 3  # 3 d = 2^53 - 1
    assert main(["mean-tau", "--d", str(d), "--m", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # exit rates tend to 1, 2, 3 at levels 1, 2, 3 as d grows
    assert payload["expected_tau_float"] == pytest.approx(1 + 1 / 2 + 1 / 3, rel=1e-12)


@pytest.mark.parametrize("argv, code", [
    ("mean-tau --d 5 --m 2000", 0),
    ("mean-tau --d 5 --m 2001", 2),
    ("mean-tau --d 5 --m 100000", 2),
])
def test_exact_mean_levels_are_bounded(argv, code, capsys):
    start = time.perf_counter()
    assert main(argv.split()) == code
    captured = capsys.readouterr()
    if code == 2:
        assert time.perf_counter() - start < 0.1
        assert captured.out == ""
        assert "exact means run to level at most 2000" in captured.err


@pytest.mark.parametrize("argv, message", [
    ("limit --n 5 --d-list 0,10", "d must be >= 2, got 0"),
    ("limit --n 50001 --d-list 10", "stationary tail runs to n at most 50000"),
    ("exact --d 2 --m 1 --t 1e9", "over 2^20"),
    ("exact --d 3 --m 2 --t-spacing log --t-start 0 --t-stop 10 --t-points 5",
     "log spacing needs t-start > 0"),
    ("tv --d 3 --t 1", "missing required parameter --n"),
    ("cutoff --d 5 --n 100 --theta inf", "t_grid must be finite"),
    ("cutoff --d 5 --n 100 --theta nan", "t_grid must be finite"),
    ("cutoff --d 5 --n 100 --theta 0,inf", "t_grid must be finite"),
    ("simulate --d 4 --m 1000001 --strategy optimal --t 1",
     "starts at level at most 1000000; level 1000001 was asked"),
])
def test_refusals_exit_2_with_no_output(argv, message, capsys):
    start = time.perf_counter()
    assert main(argv.split()) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


_RULE_FLAGS = {"d": "--d", "n": "--n", "m": "--m", "m_max": "--mmax", "workers": "--workers",
               "horizon": "-T", "t_values": "--t", "theta": "--theta"}
_VM = "validate-marginals"
# every parameter rule the CLI leaves to the library, on each subcommand
# that reads the flag: (subcommand, its other flags, config key, value,
# the library's message)
LIBRARY_RULES = [
    *[(command, rest, "d", 1, "d must be >= 2, got 1") for command, rest in [
        ("simulate", "--m 2 --strategy optimal -R 100 --t 1"), ("exact", "--m 2 --t 1"),
        ("laplace", "--m 3"), ("mean-tau", "--m 2 --n 10"), ("tv", "--n 5 --t 1"),
        ("cutoff", "--n 10"), ("verify", "--mmax 3"),
        (_VM, "--n 2 --strategy synchronous -T 1 -R 100")]],
    ("mean-tau", "--d 5 --m 2", "n", 0, "n must be >= 1"),
    ("tv", "--d 3 --t 1", "n", 0, "n must be >= 1, got 0"),
    ("cutoff", "--d 3", "n", 0, "n must be >= 2"),
    ("limit", "--d-list 10 --t 1", "n", 0, "n must be >= 1"),
    (_VM, "--d 2 --strategy synchronous -T 1 -R 100", "n", 0, "n must be >= 1, got 0"),
    ("simulate", "--d 3 --strategy optimal -R 100 --t 1", "m", -1, "m0 must be >= 0"),
    *[(command, rest, "m", -1, "m must be >= 0, got -1")
      for command, rest in [("exact", "--d 3 --t 1"), ("laplace", "--d 5"),
                            ("mean-tau", "--d 5 --n 10")]],
    ("exact", "--d 3 --t 1", "m_max", -1, "m must be >= 0, got -1"),
    ("verify", "--d 4", "m_max", -1, "m_max must be >= 1"),
    ("verify", "--d 4", "m_max", 0, "m_max must be >= 1"),
    ("simulate", "--d 3 --m 2 --strategy optimal -R 100 --t 1", "workers", 0,
     "n_workers must be >= 1"),
    *[(_VM, "--d 2 --n 2 --strategy synchronous -R 100", "horizon", value,
       "horizon must be positive and finite") for value in (math.nan, math.inf)],
    *[(command, rest, "t_values", [], "t_grid must be nonempty") for command, rest in [
        ("simulate", "--d 3 --m 2 --strategy optimal -R 100"), ("exact", "--d 3 --m 2"),
        ("tv", "--d 3 --n 5"), ("limit", "--n 5 --d-list 10")]],
    *[("cutoff", "--d 5 --n 100", "theta", value, "t_grid must be finite")
      for value in ([math.inf], [-math.inf], [-math.inf, 0.0])],
]


@pytest.mark.parametrize("command, rest, key, value, message", LIBRARY_RULES)
def test_library_rules_exit_2_from_a_flag_and_a_config_key(command, rest, key, value, message,
                                                           tmp_path, capsys):
    # a list is written comma-separated ("," lists no time), and attached by
    # "=" so that a leading "-inf" is read as a value, not a flag
    text = (",".join(map(str, value)) or ",") if isinstance(value, list) else str(value)
    flag = [f"{_RULE_FLAGS[key]}={text}"]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))  # nan and inf written as NaN / Infinity
    for argv in ([command, *rest.split(), *flag], [command, *rest.split(), "--config", str(cfg)]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 0.1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {message}" in captured.err
        assert "invalid configuration" not in captured.err


def test_exact_log_spacing_writes_the_geometric_grid(capsys):
    argv = "exact --d 3 --m 2 --t-spacing log --t-start 0.01 --t-stop 10 --t-points 5"
    assert main(argv.split()) == 0
    header, *rows = csv.reader(capsys.readouterr().out.splitlines())
    table = survival_table(3, 2, np.geomspace(0.01, 10, 5))
    assert [float(h.removeprefix("t=")) for h in header[1:]] == table.t_grid.tolist()
    assert [[float(v) for v in row[1:]] for row in rows] == table.values.tolist()


def test_verify_refuses_mmax_above_the_sign_table_bound(capsys):
    start = time.perf_counter()
    assert main(["verify", "--d", "4", "--mmax", "201"]) == 2
    assert time.perf_counter() - start < 0.1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sign tables run to level at most 200" in captured.err
