"""Self-tests for the benchmark, on a reduced workload.

    python3 -m pytest bench -q

They check the benchmark's own gates, not driftlab's call counts: those are
expected to change as the round is optimised.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

import run

BENCH_DIR = Path(__file__).resolve().parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

TINY_CFG = """\
space.size=200
reference.generator=two-tier
reference.safe_mass=0.95
reference.safe_fraction=0.5
population.size=4
population.init=copy
evolution.sample_size=50
evolution.rounds=10
selection.kind=identity
update.kind=mle
experiment.seeds=3
experiment.probes=kl_safety,safe_mass,internal_entropy,coverage
"""


@pytest.fixture
def tiny(tmp_path) -> run.Workload:
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(TINY_CFG, encoding="utf-8")
    return run.Workload(
        "simulate", str(cfg), "--csv", "tiny.csv",
        work=3 * 10,
        check=partial(run.check_trajectory_csv, seeds=3, rounds=10),
    )


def test_traced_and_untraced_digests_match(tiny):
    m = run.measure("tiny", tiny, seed=7, seconds=0, trace=True)
    assert m.failed == 0, m.problems
    assert {s["kind"] for s in m.samples} == {"plain", "traced"}
    assert len({s["digest"] for s in m.samples}) == 1


@pytest.mark.parametrize("seed, attempted", [(run.DEFAULT_SEED, 1), (5, 2)])
def test_golden_mismatch_counts_as_failure(tiny, seed, attempted):
    # away from the default seed, an extra run at the default seed meets the golden
    wrong = replace(tiny, golden="0" * 64)
    m = run.measure("tiny", wrong, seed=seed, seconds=0, trace=False)
    assert m.attempted == attempted
    assert m.failed == 1
    assert "golden" in m.problems[0]


def test_driftlab_env_does_not_reach_workload(tiny, monkeypatch):
    monkeypatch.setenv("DRIFTLAB_EVOLUTION__ROUNDS", "3")
    assert not any(k.startswith("DRIFTLAB_") for k in run.clean_env())
    m = run.measure("tiny", tiny, seed=0, seconds=0, trace=False)
    assert m.failed == 0, m.problems  # the shape check expects 10 rounds, not 3
    rows = (run.OUT_DIR / "work" / "tiny" / "tiny.csv").read_text().splitlines()
    assert len(rows) == 1 + 3 * (10 + 1)


def test_metric_names_match_benchmark_json(tiny):
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        m = run.measure("tiny", tiny, seed=0, seconds=0, trace=trace)
        assert m.failed == 0, m.problems
        for name, value in m.metrics.items():
            assert NAME_RE.fullmatch(name) and len(name) <= 64, name
            assert m.units[name], name
            assert isinstance(value, (int, float))
        declared = {e["name"]: e["unit"] for e in spec[section]}
        assert declared == m.units


def test_every_binding_of_a_traced_function_is_wrapped():
    script = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import spans
tracer = spans.Tracer()
originals = {}
import driftlab.cli
for targets in spans.LAYERS.values():
    for t in targets:
        owner, attr, _ = spans._resolve(t)
        originals[id(vars(owner)[attr])] = t
spans.install(tracer)
from driftlab import cli, harness, interventions
from driftlab.interventions import VerifierPolicy
for fn in (interventions.mixture, interventions.kl_divergence, harness.run,
           harness.resolve_probes, harness.mutual_information_plugin,
           cli.load_experiment_config, cli.run_drift_experiment,
           cli.run_intervention_comparison, cli.run_ensemble_mi,
           cli.save_trajectories_csv, VerifierPolicy.filter_dataset):
    assert hasattr(fn, "__wrapped__"), fn
for name, module in list(sys.modules.items()):
    if name.startswith("driftlab"):
        for attr, value in vars(module).items():
            assert id(value) not in originals, (name, attr)
print("ok")
"""
    proc = subprocess.run(
        [sys.executable, "-c", script, str(BENCH_DIR), str(BENCH_DIR.parent / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_fails_without_driftlab_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "drift", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()
