"""The reach: rounds that compute on the outcomes their data reached.

After an update that puts no mass off its data, a chunk's rows are zero
outside the outcomes its datasets and memory buffers hold, and the four
stages run on those columns (evolution._Chunk._reach). These tests run a
fixed grid twice, once as is and once with the reach declined, so that every
stage runs on all K outcomes, and require the same bytes: every probe value,
monitor mass and absence flag, event, kept state and final agent row.
"""

import numpy as np
import pytest

from driftlab import evolution
from driftlab.core import two_tier_reference
from driftlab.errors import SimulationError
from driftlab.evolution import (
    EvolutionConfig,
    SelectionRule,
    UpdateRule,
    chunk_size,
    run_batch,
)
from driftlab.harness import PolicySpec, PopulationSpec, build_population, realize_policy
from driftlab.metrics import probe_names, resolve_probes

K = 4096
M = 3
N = 32
ROUNDS = 12
SEEDS = (0, 1, 2)
REF = two_tier_reference(K, safe_mass=0.9, safe_fraction=0.5)
PROBES = resolve_probes(probe_names(), default_tau=0.001)
MONITORS = {"rare": (0, 1, 2), "unsafe": tuple(range(K // 2, K)), "band": tuple(range(100, 3000))}

UPDATES = {
    "mle": UpdateRule("mle", neighborhood_radius=2),
    # a capacity that is not a multiple of N keeps part of a round's data
    "memory-buffer": UpdateRule(
        "memory-buffer", capacity=50, alpha_mem=0.6, neighborhood_radius=1
    ),
    "reward-fixed": UpdateRule(
        "reward-reweighted-mle", beta=1.5, reward=tuple(np.linspace(0.0, 1.0, K))
    ),
    "reward-mixture-loglik": UpdateRule(
        "reward-reweighted-mle", beta=0.7, reward_source="mixture-loglik"
    ),
}
SELECTIONS = {
    "identity": SelectionRule("identity"),
    "indicator": SelectionRule("indicator", indices=tuple(range(3000))),
    # past round 0 the reach holds at most 3 * M * N + 3 * 50 < 400 outcomes
    "top-mass": SelectionRule("top-mass", k=400),
    "reward-reweight": SelectionRule(
        "reward-reweight", reward=tuple(np.linspace(1.0, 0.0, K)), beta=2.0
    ),
}


def _policy(kind, schedule="every:1", **params):
    return PolicySpec(kind, kind, tuple((k, str(v)) for k, v in params.items()), schedule)


POLICIES = {
    "none": (),
    # inspects 8 of 32 samples: it shortens datasets and never empties one
    "verifier-budget": (_policy("verifier", "kl:0.5", fp=0.3, fn_rate=0.5, budget=8),),
    # inspects every sample and drops nearly all: some rounds empty a block
    "verifier-empties": (_policy("verifier", fp=0.95, fn_rate=0.02, budget=64),),
}

GRID = [
    (update, selection, per_agent, policy)
    for update in UPDATES
    for selection in SELECTIONS
    for per_agent in (False, True)
    for policy in POLICIES
    # per-agent datasets do not combine with the memory-buffer rule
    if not (per_agent and update == "memory-buffer")
]


def _outcome(result):
    """Every byte a run shows."""
    if isinstance(result, SimulationError):
        return ("failed", str(result), result.round_index)
    columns = (result.values, result.monitor_mass, result.monitor_absent)
    return (
        [{k: v.tobytes() for k, v in c.items()} for c in columns],
        result.fired,
        result.notes,
        [a.mass.tobytes() for pop in result.states for a in pop.agents],
        [a.mass.tobytes() for a in result.final_population.agents],
        result.final_population.weights.tobytes(),
    )


def _run(cfg, policies, monkeypatch, reach: bool):
    """The outcomes of SEEDS, and for each chunk-round whether it computed on
    the reach; with reach False the gate declines every round."""
    taken = []
    gate = evolution._Chunk._reach

    def recorded(chunk):
        cols = gate(chunk) if reach else evolution._EVERY
        taken.append(cols.index is not None)
        return cols

    monkeypatch.setattr(evolution._Chunk, "_reach", recorded)
    pops = [build_population(PopulationSpec(M, "perturbed", sigma=0.4), REF, s) for s in SEEDS]
    intervention = [realize_policy(spec, REF) for spec in policies] or None
    results = run_batch(
        pops, cfg, SEEDS, PROBES, intervention, ref=REF, monitors=MONITORS, keep_states=True
    )
    outcomes = [_outcome(result) for result in results]
    monkeypatch.undo()
    return outcomes, taken


def _config(update, selection, per_agent):
    return EvolutionConfig(
        sample_size=N, rounds=ROUNDS, selection=SELECTIONS[selection],
        update=UPDATES[update], per_agent_datasets=per_agent,
    )


def test_the_grid_runs_its_seeds_in_one_chunk():
    assert chunk_size(M, K) >= len(SEEDS)


@pytest.mark.parametrize("update, selection, per_agent, policy", GRID)
def test_rounds_on_the_reach_give_the_bytes_of_rounds_on_every_outcome(
    monkeypatch, update, selection, per_agent, policy
):
    cfg = _config(update, selection, per_agent)
    on_reach, taken = _run(cfg, POLICIES[policy], monkeypatch, reach=True)
    on_every, _ = _run(cfg, POLICIES[policy], monkeypatch, reach=False)
    assert on_reach == on_every
    assert sum(o[0] == "failed" for o in on_reach) < len(SEEDS)
    # the gate is asked once per chunk-round that fits a row
    assert any(taken)
    if policy == "verifier-empties":
        assert not all(taken)  # a round that emptied a block ran on every outcome
    else:
        assert all(taken)


# the stages run on every outcome wherever a row may hold mass off its data
NEVER = {
    "smoothed-mle": (UpdateRule("smoothed-mle", lam=0.5), ()),
    "diversity": (UpdateRule("mle"), (_policy("diversity", "every:3", temperature=1.3, rho=0.1),)),
    "entropy-release": (UpdateRule("mle"), (_policy("entropy-release", gamma=0.1),)),
    "cooling": (UpdateRule("mle"), (_policy("cooling", kl_threshold=0.2, blend=0.5),)),
}


@pytest.mark.parametrize("case", NEVER)
def test_rows_that_may_hold_mass_off_their_data_never_take_the_reach(monkeypatch, case):
    rule, policies = NEVER[case]
    cfg = EvolutionConfig(sample_size=N, rounds=ROUNDS, update=rule)
    outcomes, taken = _run(cfg, policies, monkeypatch, reach=True)
    assert taken and not any(taken)
    assert not any(o[0] == "failed" for o in outcomes)
