import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from driftlab import cli
from driftlab.cli import main
from driftlab.harness import format_value, load_experiment_config, run_drift_experiment
from driftlab.oracle import LemmaReport


TINY = """\
space.size=40
evolution.sample_size=30
evolution.rounds=5
experiment.seeds=2
"""

# indicator selection pinned to a zero-mass outcome: every seed dies in round 0
FAILING = """\
space.size=4
reference.safe_mass=1.0
selection.kind=indicator
selection.indices=3
evolution.sample_size=10
evolution.rounds=3
experiment.seeds=2
"""

# the same selection over references whose outcome 3 holds mass 0 (safe mass
# 1.0) or not: every run of the first reference dies in round 0
ENSEMBLE_FAILING = """\
space.size=4
selection.kind=indicator
selection.indices=3
ensemble.safe_masses=1.0,0.9
ensemble.runs_per_ref=3
evolution.sample_size=10
evolution.rounds=3
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


def test_simulate_writes_csv_and_json(tmp_path, tiny_cfg):
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    json_path = tmp_path / "t.json"
    rc = main(
        ["simulate", tiny_cfg, "--csv", str(csv_a), "--json", str(json_path), "--quiet"]
    )
    assert rc == 0
    lines = csv_a.read_text().splitlines()
    assert lines[0] == "round,seed,kl_safety,safe_mass,internal_entropy,coverage,in_safe_term"
    assert len(lines) == 1 + 2 * 6  # header + seeds x (rounds + 1)
    payload = json.loads(json_path.read_text())
    assert len(payload["trajectories"]) == 2
    assert main(["simulate", tiny_cfg, "--csv", str(csv_b), "--quiet"]) == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()


def test_simulate_prints_the_median_of_an_even_seed_count(tmp_path, capsys):
    # six seeds: the median of their low-visibility round counts is the mean
    # of the middle two, which differ here
    path = tmp_path / "six.cfg"
    path.write_text(TINY.replace("experiment.seeds=2", "experiment.seeds=6"))
    result = run_drift_experiment(load_experiment_config(str(path)))
    counts = sorted(result.low_visibility_rounds.values())
    assert counts[2] != counts[3]
    assert main(["simulate", str(path)]) == 0
    median = format_value(statistics.median(counts))
    assert f"low-visibility rounds (monitored mass <= c/N): median {median} of 6\n" in (
        capsys.readouterr().out
    )


def test_a_repeated_probe_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_EXPERIMENT__PROBES", "kl_safety,kl_safety")
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    csv_out, json_out = tmp_path / "d.csv", tmp_path / "d.json"
    argv = ["simulate", str(path), "--csv", str(csv_out), "--json", str(json_out), "--quiet"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "probe 'kl_safety' is requested more than once" in err
    assert not csv_out.exists() and not json_out.exists()


def test_huge_seed_count_is_a_config_error(tmp_path, capsys):
    path = tmp_path / "huge.cfg"
    path.write_text(TINY.replace("experiment.seeds=2", "experiment.seeds=18446744073709551615"))
    assert main(["simulate", str(path), "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


def test_simulate_reports_failures(tmp_path, capsys):
    path = tmp_path / "dead.cfg"
    path.write_text(FAILING)
    rc = main(["simulate", str(path), "--quiet"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "seed 0 failed" in err and "seed 1 failed" in err


def test_an_ensemble_whose_runs_fail_exits_1_in_one_line(tmp_path, capsys):
    path = tmp_path / "dead.cfg"
    path.write_text(ENSEMBLE_FAILING)
    assert main(["ensemble-mi", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "simulation failed: round 0: selection 'indicator' accepts zero total mass; "
        "no training distribution exists\n"
    )


def test_a_compare_arm_whose_seeds_fail_exits_1_with_a_line_per_seed(
    tmp_path, tiny_cfg, capsys
):
    policies = tmp_path / "prune.json"
    policies.write_text('[{"kind": "entropy-release", "params": {"prune_floor": 0.9}}]')
    assert main(["compare", tiny_cfg, "--policies", str(policies), "--quiet"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"entropy-release seed {seed} failed: round 1: prune floor 0.9 removed all of "
        "agent 0's mass"
        for seed in (0, 1)
    ]


@pytest.mark.parametrize("command", ["simulate", "compare", "ensemble-mi"])
def test_seed_rebases_the_sweep_to_start_there(tmp_path, capsys, command):
    # --seed 7 over two seeds runs seeds 7 and 8, as a config listing them
    # does, and not seeds 0 and 1
    text = TINY.replace("evolution.sample_size=30", "evolution.sample_size=5")
    if command == "ensemble-mi":
        text += "ensemble.runs_per_ref=4\n"
    (tmp_path / "base.cfg").write_text(text)
    (tmp_path / "listed.cfg").write_text(text.replace("experiment.seeds=2", "experiment.seeds=7,8"))
    written = {}
    for name, cfg, extra in [
        ("rebased", "base", ["--seed", "7"]), ("listed", "listed", []), ("base", "base", []),
    ]:
        out = tmp_path / f"{name}.json"
        argv = [command, str(tmp_path / f"{cfg}.cfg"), *extra, "--json", str(out), "--quiet"]
        assert main(argv) == 0
        written[name] = out.read_bytes()
    assert written["rebased"] == written["listed"] != written["base"]
    if command == "simulate":
        stored = json.loads(written["rebased"])["trajectories"]
        assert [t["seed"] for t in stored] == [7, 8]


def test_verify_lemmas_with_a_failing_check_exits_1(monkeypatch, capsys):
    failing = LemmaReport("grouping", trials=5, max_violation=0.5, tolerance=1e-12, passed=False)
    monkeypatch.setattr(cli, "run_all_lemma_checks", lambda seed, trials: [failing])
    assert main(["verify-lemmas", "--trials", "5", "--quiet"]) == 1
    assert capsys.readouterr().err == f"lemma check failed: {failing.line()}\n"


def test_verify_lemmas_cli(tmp_path, capsys):
    json_path = tmp_path / "reports.json"
    rc = main(["verify-lemmas", "--trials", "5", "--seed", "0", "--json", str(json_path)])
    assert rc == 0
    out_lines = [l for l in capsys.readouterr().out.splitlines() if ": ok" in l]
    assert len(out_lines) == 6
    payload = json.loads(json_path.read_text())
    assert payload["passed"] is True
    assert len(payload["reports"]) == 6
    assert all(r["passed"] for r in payload["reports"])


def test_verify_lemmas_quiet(capsys):
    assert main(["verify-lemmas", "--trials", "5", "--quiet"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{cfg}", "--csv", "{out}.csv", "--json", "{out}.json"],
        ["simulate", "{failing}"],
        ["compare", "{cfg}", "--json", "{out}.json"],
        ["compare", "{cfg}", "--policies", "{prune}", "--json", "{out}.json"],
        ["ensemble-mi", "{ensemble}", "--csv", "{out}.csv", "--json", "{out}.json"],
        ["verify-lemmas", "--trials", "5", "--json", "{out}.json"],
    ],
)
def test_quiet_silences_stdout_alone(tmp_path, tiny_cfg, capsys, argv):
    # the exit status, stderr and every output file are the same with --quiet
    inputs = {
        "failing": FAILING,
        "prune": '[{"kind": "entropy-release", "params": {"prune_floor": 0.9}}]',
        "ensemble": TINY + "ensemble.runs_per_ref=4\nevolution.rounds=3\n",
    }
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    paths = {name: tmp_path / name for name in inputs}
    stdout, runs = {}, {}
    for quiet in (False, True):
        out = tmp_path / ("quiet" if quiet else "loud")
        flags = ["--quiet"] if quiet else []
        code = main([a.format(cfg=tiny_cfg, out=out, **paths) for a in argv] + flags)
        captured = capsys.readouterr()
        stdout[quiet] = captured.out
        files = {p.suffix: p.read_bytes() for p in tmp_path.glob(out.name + ".*")}
        runs[quiet] = (code, captured.err, files)
    assert stdout[True] == ""
    assert stdout[False]
    loud = tmp_path / "loud"
    assert all(f"{suffix[1:]} -> {loud}{suffix}\n" in stdout[False] for suffix in runs[False][2])
    assert runs[True] == runs[False]


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_verify_lemmas_with_no_trials_exits_2(capsys, trials):
    # a check of zero trials checks nothing, and would read ok
    assert main(["verify-lemmas", "--trials", trials, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: trials must be >= 1, got {trials}\n"


def test_compare_cli_json(tmp_path, tiny_cfg):
    json_path = tmp_path / "cmp.json"
    rc = main(["compare", tiny_cfg, "--json", str(json_path), "--quiet"])
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert payload["baseline"]["name"] == "baseline"
    assert [a["name"] for a in payload["arms"]] == [
        "verifier",
        "cooling",
        "diversity",
        "entropy-release",
    ]
    assert set(payload["paired_kl_diff"]) == {a["name"] for a in payload["arms"]}


def test_compare_cli_policies_file(tmp_path, tiny_cfg):
    policies = tmp_path / "policies.json"
    policies.write_text('[{"name": "soft", "kind": "verifier", "params": {"fn_rate": 0.2}}]')
    json_path = tmp_path / "cmp.json"
    rc = main(
        ["compare", tiny_cfg, "--policies", str(policies), "--json", str(json_path), "--quiet"]
    )
    assert rc == 0
    payload = json.loads(json_path.read_text())
    assert [a["name"] for a in payload["arms"]] == ["soft"]


def test_ensemble_cli_csv(tmp_path):
    path = tmp_path / "ens.cfg"
    path.write_text(TINY + "ensemble.runs_per_ref=4\nevolution.rounds=3\n")
    out = tmp_path / "mi.csv"
    rc = main(["ensemble-mi", str(path), "--csv", str(out), "--quiet"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "round,mi"
    assert len(lines) == 1 + 4
    first_round, first_mi = lines[1].split(",")
    assert first_round == "0"
    assert float(first_mi) == pytest.approx(math.log(2.0), abs=1e-9)


def test_export_csv_matches_simulate(tmp_path, tiny_cfg):
    csv_direct = tmp_path / "direct.csv"
    json_path = tmp_path / "t.json"
    assert (
        main(
            [
                "simulate",
                tiny_cfg,
                "--csv",
                str(csv_direct),
                "--json",
                str(json_path),
                "--quiet",
            ]
        )
        == 0
    )
    exported = tmp_path / "exported.csv"
    assert main(["export", str(json_path), "--format", "csv", "--out", str(exported)]) == 0
    assert exported.read_bytes() == csv_direct.read_bytes()


def test_export_json_round_trip(tmp_path, tiny_cfg):
    json_path = tmp_path / "t.json"
    assert main(["simulate", tiny_cfg, "--json", str(json_path), "--quiet"]) == 0
    round_trip = tmp_path / "r.json"
    assert main(["export", str(json_path), "--format", "json", "--out", str(round_trip)]) == 0
    assert round_trip.read_bytes() == json_path.read_bytes()


def test_export_csv_to_stdout(tmp_path, tiny_cfg, capsys):
    json_path = tmp_path / "t.json"
    csv_path = tmp_path / "t.csv"
    assert (
        main(
            [
                "simulate",
                tiny_cfg,
                "--csv",
                str(csv_path),
                "--json",
                str(json_path),
                "--quiet",
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert main(["export", str(json_path), "--format", "csv"]) == 0
    assert capsys.readouterr().out == csv_path.read_text()


STORED = {
    "seed": 0, "probe_names": ["a"], "rounds": 1, "values": {"a": [0.5, "inf"]},
    "monitors": {"m": [0]}, "monitor_mass": {"m": [1.0, 0.5]},
    "monitor_absent": {"m": [False, True]}, "fired": [[1, "verifier"]], "notes": [],
}


@pytest.mark.parametrize(
    "entry,problem",
    [
        ({"seed": "0"}, "seed of trajectory 0 must be an integer, got '0'"),
        ({"seed": True}, "seed of trajectory 0 must be an integer"),
        ({"rounds": 1.0}, "rounds of seed 0 must be an integer >= 0, got 1.0"),
        ({"rounds": -1}, "rounds of seed 0 must be an integer >= 0"),
        ({"probe_names": "ab"}, "probe_names of seed 0 must be a list of strings"),
        ({"values": {}}, "values of seed 0 must hold one column for each of ['a']"),
        ({"values": {"a": [0.5]}}, "values of seed 0: column 'a' must be a list of 2 cells"),
        ({"values": {"a": [0.5, "x"]}}, "values of seed 0: column 'a' holds 'x', not a float"),
        ({"values": {"a": [0.5, None]}}, "column 'a' holds None, not a float"),
        ({"values": {"a": [0.5, True]}}, "column 'a' holds True, not a float"),
        ({"values": {"a": [0.5, 10**400]}}, "column 'a' holds 1000000"),
        ({"monitors": {"m": ["0"]}}, "monitors of seed 0 must map names to lists of outcomes"),
        ({"monitor_mass": {"m": [1.0]}}, "monitor_mass of seed 0: column 'm' must be a list"),
        ({"monitor_absent": {"m": [0, 1]}}, "monitor_absent of seed 0: column 'm' holds 0"),
        ({"fired": [[2, "verifier"]]}, "fired of seed 0: [2, 'verifier'] is not a [round, text]"),
        ({"notes": [[-1, "x"]]}, "notes of seed 0: [-1, 'x'] is not a [round, text] pair in 0..1"),
        ({"notes": [["1", "x"]]}, "notes of seed 0: ['1', 'x'] is not a [round, text] pair"),
        ({"fired": {"1": "verifier"}}, "fired of seed 0 must be a list of [round, text] pairs"),
        ({"extra": 1}, "trajectory 0 must be an object with keys seed, probe_names, rounds,"),
        (
            {"records": [{"round": 0, "values": {"a": 0.5}}]},
            "trajectory 0 holds per-round records, the layout of driftlab before",
        ),
    ],
)
def test_export_csv_of_a_malformed_trajectory_exits_2(tmp_path, capsys, entry, problem):
    stored = tmp_path / "t.json"
    stored.write_text(json.dumps({"trajectories": [{**STORED, **entry}]}))
    assert main(["export", str(stored), "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert problem in err


def test_export_csv_of_trajectories_with_other_probe_columns_exits_2(tmp_path, capsys):
    other = {**STORED, "seed": 1, "probe_names": ["b"], "values": {"b": [0.5, 0.25]}}
    stored = tmp_path / "t.json"
    stored.write_text(json.dumps({"trajectories": [STORED, other]}))
    out = tmp_path / "out.csv"
    assert main(["export", str(stored), "--format", "csv", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: trajectories disagree on probe columns\n"
    assert not out.exists()


def test_export_of_a_well_formed_trajectory_file(tmp_path, capsys):
    # the file the malformed cases above start from is itself read
    stored = tmp_path / "t.json"
    stored.write_text(json.dumps({"trajectories": [STORED]}))
    assert main(["export", str(stored), "--format", "csv"]) == 0
    assert capsys.readouterr().out == "round,seed,a\n0,0,0.5\n1,0,inf\n"


@pytest.mark.parametrize(
    "payload",
    [
        # the per-round layout that simulate --json wrote before columns
        {"trajectories": [{"seed": 0, "probe_names": ["a"], "monitors": {},
                           "records": [{"round": 0, "values": {"a": 0.5}, "fired": [],
                                        "notes": [], "monitor_mass": {},
                                        "monitor_absent": {}}]}]},
        [STORED],
        STORED,
    ],
    ids=["per-round-records", "bare-list", "single-object"],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_of_a_layout_driftlab_does_not_write_exits_2(tmp_path, capsys, payload, fmt):
    stored = tmp_path / "t.json"
    stored.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(["export", str(stored), "--format", fmt, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "per-round records" in err or '"trajectories" is a non-empty list' in err
    assert not out.exists()


def test_missing_config_exits_2(capsys):
    assert main(["simulate", "/nonexistent/nowhere.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "{bad}"],
        ["compare", "{cfg}", "--policies", "{bad}"],
        ["export", "{bad}", "--format", "csv"],
    ],
)
def test_an_input_that_is_not_utf8_exits_2(tmp_path, tiny_cfg, capsys, argv):
    bad = tmp_path / "bin.in"
    bad.write_bytes(b"\xff\xfe=1\n")
    assert main([a.format(bad=bad, cfg=tiny_cfg) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read") and "Traceback" not in err
    assert repr(str(bad)) in err and "can't decode byte 0xff" in err


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("banana=1\n")
    assert main(["simulate", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_compare_runs_a_policies_arm_and_writes_the_json_flag(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "cmp.json"
    policies = tmp_path / "policies.json"
    policies.write_text('[{"kind": "cooling"}]')
    argv = ["compare", tiny_cfg, "--policies", str(policies), "--json", str(out), "--quiet"]
    assert main(argv) == 0
    payload = json.loads(out.read_text())
    assert [a["name"] for a in payload["arms"]] == ["cooling"]
    # compare writes no CSV, so it takes no CSV target
    with pytest.raises(SystemExit) as exc:
        main(["compare", tiny_cfg, "--csv", str(tmp_path / "cmp.csv"), "--quiet"])
    assert exc.value.code == 2 and "unrecognized arguments: --csv" in capsys.readouterr().err
    assert not (tmp_path / "cmp.csv").exists()


def test_ensemble_output_flags_and_isolation(tmp_path, capsys):
    csv_out, json_out = tmp_path / "mi.csv", tmp_path / "mi.json"
    path = tmp_path / "ens.cfg"
    path.write_text(TINY + "ensemble.runs_per_ref=4\nevolution.rounds=3\n")
    argv = ["ensemble-mi", str(path), "--csv", str(csv_out), "--json", str(json_out), "--quiet"]
    assert main(argv) == 0
    assert len(csv_out.read_text().splitlines()) == 1 + 4
    assert len(json.loads(json_out.read_text())["mi_series"]) == 4
    # the ensemble evolves in isolation: a config cannot name an arm
    path.write_text(TINY + "intervention.kind=verifier\n")
    assert main(["ensemble-mi", str(path), "--quiet"]) == 2
    assert "unknown config keys: intervention.kind" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(TINY + "update.kind=smoothed-mle\nupdate.lam=nan\n")
    assert main(["simulate", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "update.lam" in err


@pytest.mark.parametrize(
    "command,env,problem",
    [
        # an empty list names no reference for the ensemble
        (
            "ensemble-mi", {"DRIFTLAB_ENSEMBLE__SAFE_MASSES": ""},
            "ensemble.safe_masses must be a comma-separated number list",
        ),
        # a zipf reference's safe set is its heaviest fraction of the outcomes
        (
            "simulate",
            {"DRIFTLAB_REFERENCE__GENERATOR": "zipf", "DRIFTLAB_REFERENCE__SAFE_FRACTION": "1.5"},
            "safe fraction must lie in (0, 1), got 1.5",
        ),
    ],
)
def test_bad_values_from_the_environment_exit_2_in_one_line(
    tiny_cfg, capsys, monkeypatch, command, env, problem
):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert main([command, tiny_cfg, "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: {problem}\n"


def test_overflowing_perturbation_sigma_exits_2(tmp_path, capsys):
    cfg = tmp_path / "sigma.cfg"
    cfg.write_text(TINY + "population.init=perturbed\npopulation.sigma=1e300\n")
    assert main(["simulate", str(cfg), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "population.sigma" in err


@pytest.mark.parametrize(
    "command,extra",
    [
        ("simulate", "reference.generator=dirichlet-draw\nreference.draw_seed=-1\n"),
        ("ensemble-mi", "ensemble.quantizer=1e-300\n"),
        # smoothing whose lam * K overflows fails before any seed runs
        ("simulate", "update.kind=smoothed-mle\nupdate.lam=1e308\n"),
        # rules that do not fit the 40-outcome space
        ("simulate", "selection.kind=top-mass\nselection.k=5000\n"),
        ("simulate", "selection.kind=indicator\nselection.indices=0,40\n"),
        ("simulate", "selection.kind=reward-reweight\nselection.reward=0,1,2\n"),
        ("compare", "update.kind=reward-reweighted-mle\nupdate.reward=0,1,2\n"),
        # a probe name is resolved by every command, those that record none too
        ("compare", "experiment.probes=entropy_nope\n"),
        ("ensemble-mi", "experiment.probes=entropy_nope\n"),
        # results are keyed by seed, so a repeat would run twice and keep one
        ("simulate", "experiment.seeds=3,3,4\n"),
    ],
)
def test_bad_configs_exit_2_without_a_traceback(tmp_path, capsys, command, extra):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY + extra)
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "seed 0 failed" not in err


def test_unwritable_output_path_exits_2(tmp_path, tiny_cfg, capsys):
    out = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["simulate", tiny_cfg, "--csv", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output") and "Traceback" not in err


@pytest.mark.parametrize(
    "extra,problem",
    [
        # a config describes the experiment: it names no arm and no output file
        ("intervention.kind=cooling\n", "unknown config keys: intervention.kind"),
        ("intervention.schedule=every:2\n", "unknown config keys: intervention.schedule"),
        ("intervention.params.fp=0.5\n", "unknown config keys: intervention.params.fp"),
        ("output.csv=out.csv\n", "unknown config keys: output.csv"),
        ("output.json=out.json\n", "unknown config keys: output.json"),
        # and it is key=value text, not JSON
        ('{"space": {"size": 40}}\n', "config line 1 is not key=value"),
    ],
)
def test_removed_config_forms_exit_2(tmp_path, capsys, extra, problem):
    path = tmp_path / "bad.cfg"
    path.write_text(extra if extra.startswith("{") else TINY + extra)
    assert main(["simulate", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and problem in err and "Traceback" not in err


@pytest.mark.parametrize(
    "extra,unread",
    [
        # the default identity selection and mle update read none of these
        ("selection.k=5\n", "selection kind 'identity' does not read k"),
        ("update.capacity=7\n", "update kind 'mle' does not read capacity"),
        ("update.alpha_mem=0.9\n", "update kind 'mle' does not read alpha_mem"),
        ("selection.beta=1\nupdate.lam=0.5\n", "does not read beta"),
        # the mixture-loglik reward reads no reward vector
        (
            "update.kind=reward-reweighted-mle\nupdate.reward_source=mixture-loglik\n"
            "update.reward=0,1\n",
            "update kind 'reward-reweighted-mle' does not read reward",
        ),
    ],
)
def test_rule_fields_the_kind_does_not_read_exit_2(tmp_path, capsys, extra, unread):
    path = tmp_path / "unread.cfg"
    path.write_text(TINY + extra)
    assert main(["simulate", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and unread in err and "Traceback" not in err


def test_compare_refuses_a_policies_file_beside_a_config_intervention(tmp_path, capsys):
    # a config cannot name an arm, so none is dropped beside the file's arms
    path = tmp_path / "cooling.cfg"
    path.write_text(TINY + "intervention.kind=cooling\n")
    policies = tmp_path / "policies.json"
    policies.write_text('[{"kind": "verifier"}]')
    assert main(["compare", str(path), "--policies", str(policies), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "intervention" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "arms,problem",
    [
        # the baseline alone compares nothing
        ("[]", "a comparison needs at least one policy arm"),
        # a second "baseline" line would be indistinguishable from the first
        ('[{"name": "baseline", "kind": "verifier"}]', "may not be named 'baseline'"),
        ('[{"kind": "cooling"}, {"name": "baseline", "kind": "verifier"}]', "'baseline'"),
    ],
)
def test_compare_refuses_a_comparison_with_nothing_to_compare(
    tmp_path, tiny_cfg, capsys, arms, problem
):
    policies = tmp_path / "policies.json"
    policies.write_text(arms)
    assert main(["compare", tiny_cfg, "--policies", str(policies)]) == 2
    captured = capsys.readouterr()  # refused before any arm runs or prints
    assert captured.err.startswith("config error:") and problem in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_compare_refuses_a_policy_entry_key_it_does_not_read(tmp_path, tiny_cfg, capsys):
    # misspelt schedule and params would leave the default verifier every round
    policies = tmp_path / "policies.json"
    policies.write_text('[{"kind": "verifier", "shedule": "every:5", "parms": {"fp": 0.9}}]')
    assert main(["compare", tiny_cfg, "--policies", str(policies), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "policy entry 0 has unknown key 'shedule', 'parms'" in err


def test_safe_mass_one_runs_the_mass_term_probe(tmp_path):
    # pi_star's safe entries sum past 1 by rounding at K = 1000
    path = tmp_path / "sure.cfg"
    path.write_text(
        "reference.safe_mass=1.0\nexperiment.probes=mass_term\n"
        "evolution.sample_size=20\nevolution.rounds=2\nexperiment.seeds=2\n"
    )
    assert main(["simulate", str(path), "--quiet"]) == 0


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency: the installed package must not need it
    code = "import sys, driftlab.cli; print('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_simulate_and_compare_leave_numpy_ma_unimported(tmp_path, tiny_cfg):
    # np.unique and np.median import numpy.ma on first use, mid-run; the
    # package sorts instead
    code = (
        "import sys\n"
        "from driftlab.cli import main\n"
        "assert main(['simulate', sys.argv[1], '--quiet']) == 0\n"
        "assert main(['compare', sys.argv[1], '--quiet']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, tiny_cfg],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "command,extra,unread",
    [
        # the default copy init and two-tier generator read none of these
        ("simulate", "population.sigma=0.5\n", "population init 'copy' does not read sigma"),
        ("compare", "population.alpha=3\n", "population init 'copy' does not read alpha"),
        (
            "simulate", "population.init=perturbed\npopulation.alpha=2\n",
            "population init 'perturbed' does not read alpha",
        ),
        ("simulate", "reference.exponent=2.0\n", "generator 'two-tier' does not read exponent"),
        ("ensemble-mi", "reference.alpha=2\n", "generator 'two-tier' does not read alpha"),
        ("simulate", "reference.draw_seed=5\n", "generator 'two-tier' does not read draw_seed"),
        ("compare", "reference.weights=1,2\n", "generator 'two-tier' does not read weights"),
        (
            "simulate", "reference.generator=zipf\nreference.safe_mass=0.8\n",
            "reference generator 'zipf' does not read safe_mass",
        ),
        # the ensemble varies safe_mass itself, over ensemble.safe_masses
        ("ensemble-mi", "reference.generator=zipf\n", "generator 'zipf' does not read safe_mass"),
        ("ensemble-mi", "reference.safe_mass=0.5\n", "from ensemble.safe_masses"),
    ],
)
def test_reference_and_population_fields_the_kind_does_not_read_exit_2(
    tmp_path, capsys, command, extra, unread
):
    path = tmp_path / "unread.cfg"
    path.write_text(TINY + extra)
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and unread in err and "Traceback" not in err


def test_per_agent_datasets_with_the_memory_buffer_exit_2(tmp_path, capsys):
    path = tmp_path / "per-agent.cfg"
    path.write_text(
        TINY + "evolution.per_agent_datasets=true\nupdate.kind=memory-buffer\nupdate.capacity=50\n"
    )
    assert main(["compare", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "per-agent datasets are not supported with the memory-buffer rule" in err


@pytest.mark.parametrize(
    "command,extra",
    [
        # arrays past 2**47 bytes, which no address space holds
        ("simulate", "evolution.rounds=100000000000000\n"),
        ("compare", "space.size=100000000000000\n"),
        ("ensemble-mi", "space.size=100000000000000\n"),
    ],
)
def test_a_run_too_large_for_memory_exits_2(tmp_path, capsys, command, extra):
    path = tmp_path / "huge.cfg"
    path.write_text(TINY + extra)
    assert main([command, str(path), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: the configured run does not fit in memory\n"


# simulate on 2 pool workers, as the pool fixture of test_batch forks them;
# each worker, or in "write" mode the CSV writer once it has written every
# part, touches held.<pid> in the directory argv[2] and sleeps, so a signal
# sent then finds the run, or its output file, mid-way
HELD = """\
import os, sys, time
from driftlab import cli, evolution, harness
evolution.POOL_ELEMENTS = 0
os.sched_getaffinity = lambda pid: {0, 1}
mode, where, out = sys.argv[1:4]

def hold():
    open(os.path.join(where, f"held.{os.getpid()}"), "w").close()
    time.sleep(60)

if mode == "run":
    evolution._Batch.results = lambda batch, ids, pops: hold()
else:
    write = harness._write_text
    def held(path, parts):
        def parts_then_hold():
            yield from parts
            hold()
        write(path, parts_then_hold())
    harness._write_text = held
sys.exit(cli.main(["simulate", sys.argv[4], "--csv", out, "--quiet"]))
"""


def _children(pid: int) -> set[int]:
    """The processes whose parent is pid, read from /proc."""
    found = set()
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:  # it has exited
            continue
        if int(fields[1]) == pid:
            found.add(int(entry))
    return found


SIGNALS = {
    "SIGINT": (signal.SIGINT, 130, "interrupted\n"),
    "SIGTERM": (signal.SIGTERM, 143, "terminated\n"),
}


@pytest.mark.skipif(sys.platform != "linux", reason="forks pool workers and reads /proc")
@pytest.mark.parametrize("name", SIGNALS)
@pytest.mark.parametrize(
    "mode, group", [("run", False), ("run", True), ("write", False)],
    ids=["run", "run-to-its-group", "write"],
)
def test_a_signal_ends_a_run_in_one_line_with_no_worker_or_partial_file_left(
    tmp_path, tiny_cfg, mode, group, name
):
    """A run sent the signal (its process group too, as a terminal's Ctrl-C
    or timeout(1) sends it) while its workers hold, or while it writes its
    CSV, exits with one stderr line, stops its workers and leaves the CSV
    as it was."""
    signum, code, line = SIGNALS[name]
    held = tmp_path / "held"
    held.mkdir()
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = tmp_path / "out.csv"
    out.write_text("old bytes\n")
    proc = subprocess.Popen(
        [sys.executable, "-c", HELD, mode, str(held), str(out), tiny_cfg],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONPATH": pythonpath}, start_new_session=group,
    )
    workers = set()
    try:
        waited = 0.0
        while len(os.listdir(held)) < (2 if mode == "run" else 1):
            assert proc.poll() is None and waited < 60, proc.stderr.read()
            time.sleep(0.05)
            waited += 0.05
        workers = _children(proc.pid)
        (os.killpg if group else os.kill)(proc.pid, signum)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        left = {pid for pid in workers if os.path.exists(f"/proc/{pid}")}
        for pid in left:
            os.kill(pid, signal.SIGKILL)
    assert (proc.returncode, err) == (code, line)
    assert out.read_text() == "old bytes\n" and list(tmp_path.glob("*.tmp")) == []
    holders = {int(entry.split(".")[1]) for entry in os.listdir(held)}
    # a run's workers are the two that held; a write comes after the pool stopped
    assert workers == (holders if mode == "run" else set())
    assert left == set()


# a pooled run_batch of one-seed chunks on 2 workers, as the pool fixture of
# test_batch forks them; it touches argv[1] once the first results are in,
# so that its workers are sending and receiving chunks when it is killed
POOLED = """\
import os, sys
from driftlab import evolution
from driftlab.core import OutcomeSpace, ProbVector
evolution.POOL_ELEMENTS = 0
evolution.BATCH_ELEMENTS = 1
os.sched_getaffinity = lambda pid: {0, 1}
pop = evolution.Population.equal_weights([ProbVector(OutcomeSpace(4), [0.25] * 4)])
seeds = range(20000)
cfg = evolution.EvolutionConfig(sample_size=10, rounds=3)
for i, _ in enumerate(evolution.run_batch((pop for _ in seeds), cfg, seeds)):
    if i == 0:
        open(sys.argv[1], "w").close()
"""


def _running(pid: int) -> bool:
    """Whether pid runs, read from /proc; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:  # it has exited and been reaped
        return False


@pytest.mark.skipif(sys.platform != "linux", reason="forks pool workers and reads /proc")
def test_the_workers_of_a_killed_caller_exit_without_a_traceback(tmp_path):
    """SIGKILL runs no cleanup in the caller, so its workers see it go only
    as their pipes close: each returns from recv or send within 5 s."""
    started, err = tmp_path / "started", tmp_path / "err"
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with open(err, "w") as stderr:
        proc = subprocess.Popen(
            [sys.executable, "-c", POOLED, str(started)], stdout=subprocess.DEVNULL,
            stderr=stderr, env={**os.environ, "PYTHONPATH": pythonpath},
        )
    workers, left = set(), set()
    try:
        waited = 0.0
        while not started.exists():
            assert proc.poll() is None and waited < 60, err.read_text()
            time.sleep(0.05)
            waited += 0.05
        workers = _children(proc.pid)
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 5
        while any(map(_running, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = set(filter(_running, workers))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in filter(_running, workers):
            os.kill(pid, signal.SIGKILL)
    assert len(workers) == 2
    assert left == set()
    assert err.read_text() == ""


def test_main_runs_off_the_main_thread_and_leaves_sigterm_as_it_found_it():
    # only the main thread may set a signal handler
    before, codes = signal.getsignal(signal.SIGTERM), []
    thread = threading.Thread(
        target=lambda: codes.append(main(["verify-lemmas", "--trials", "1", "--quiet"]))
    )
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and codes == [0]
    assert signal.getsignal(signal.SIGTERM) is before
