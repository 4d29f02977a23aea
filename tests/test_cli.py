import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from driftlab import load_trajectory_dicts
from driftlab.cli import main


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
    assert load_trajectory_dicts(str(round_trip)) == load_trajectory_dicts(str(json_path))


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


def test_export_csv_of_a_record_missing_a_probe_value_exits_2(tmp_path, capsys):
    stored = tmp_path / "t.json"
    stored.write_text(json.dumps({"trajectories": [{
        "seed": 0, "probe_names": ["a"], "monitors": {},
        "records": [{"round": 0, "values": {}}],
    }]}))
    assert main(["export", str(stored), "--format", "csv"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "seed 0" in err and "'a'" in err and "round 0" in err


def test_missing_config_exits_2(capsys):
    assert main(["simulate", "/nonexistent/nowhere.cfg"]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("banana=1\n")
    assert main(["simulate", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_compare_runs_config_arm_and_output_keys(tmp_path, capsys):
    out = tmp_path / "cmp.json"
    path = tmp_path / "arm.cfg"
    path.write_text(TINY + f"intervention.kind=cooling\noutput.json={out}\n")
    assert main(["compare", str(path), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    assert [a["name"] for a in payload["arms"]] == ["cooling"]
    # compare writes no CSV, so a CSV target is a config error
    path.write_text(TINY + f"output.csv={tmp_path / 'cmp.csv'}\n")
    assert main(["compare", str(path), "--quiet"]) == 2
    assert "compare writes no CSV" in capsys.readouterr().err
    assert not (tmp_path / "cmp.csv").exists()


def test_ensemble_output_keys_and_isolation(tmp_path, capsys):
    csv_out, json_out = tmp_path / "mi.csv", tmp_path / "mi.json"
    path = tmp_path / "ens.cfg"
    path.write_text(
        TINY + "ensemble.runs_per_ref=4\nevolution.rounds=3\n"
        f"output.csv={csv_out}\noutput.json={json_out}\n"
    )
    assert main(["ensemble-mi", str(path), "--quiet"]) == 0
    assert len(csv_out.read_text().splitlines()) == 1 + 4
    assert len(json.loads(json_out.read_text())["mi_series"]) == 4
    path.write_text(TINY + "intervention.kind=verifier\n")
    assert main(["ensemble-mi", str(path), "--quiet"]) == 2
    assert "comparison runner" in capsys.readouterr().err


def test_non_finite_config_value_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text(TINY + "update.kind=smoothed-mle\nupdate.lam=nan\n")
    assert main(["simulate", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "update.lam" in err


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
        # intervention keys without a kind would be dropped without a word
        ("compare", "intervention.params.fp=0.5\n"),
        ("compare", "intervention.kind=none\nintervention.schedule=every:2\n"),
        # rules that do not fit the 40-outcome space
        ("simulate", "selection.kind=top-mass\nselection.k=5000\n"),
        ("simulate", "selection.kind=indicator\nselection.indices=0,40\n"),
        ("simulate", "selection.kind=reward-reweight\nselection.reward=0,1,2\n"),
        ("compare", "update.kind=reward-reweighted-mle\nupdate.reward=0,1,2\n"),
        ("simulate", "output.csv={tmp}/no/such/dir/out.csv\n"),
        # a probe name is resolved by every command, those that record none too
        ("compare", "experiment.probes=entropy_nope\n"),
        ("ensemble-mi", "experiment.probes=entropy_nope\n"),
    ],
)
def test_bad_configs_exit_2_without_a_traceback(tmp_path, capsys, command, extra):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY + extra.format(tmp=tmp_path))
    assert main([command, str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err
    assert "seed 0 failed" not in err


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
    # the config's cooling arm would otherwise be dropped without a word
    path = tmp_path / "cooling.cfg"
    path.write_text(TINY + "intervention.kind=cooling\n")
    policies = tmp_path / "policies.json"
    policies.write_text('[{"kind": "verifier"}]')
    assert main(["compare", str(path), "--policies", str(policies), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "intervention" in err and "Traceback" not in err


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
