"""The seed-batched engine: S seeds run together match each seed run alone.

run_batch advances seeds in lock-step chunks of at most chunk_size(M, K).
These tests shrink that bound to CHUNK seeds, then run SEEDS = CHUNK + 1
seeds together (two chunks, of 3 and 2 seeds), three seeds together, and
every seed alone, over the update x selection x per-agent x policy grid. Each
seed's CSV bytes, full trajectory (probe values, fired policies, notes,
monitor masses and absence flags), final population and failure text must
agree.
"""

import io
import json
import multiprocessing
import operator
import os
import pickle
import signal
import sys
import threading
import traceback
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from driftlab import cli, core, evolution, metrics
from driftlab.core import ProbVector, two_tier_reference
from driftlab.errors import ConfigError, SimulationError
from driftlab.evolution import (
    EvolutionConfig,
    SelectionRule,
    UpdateRule,
    chunk_size,
    run,
    run_batch,
)
from driftlab.harness import (
    PolicySpec,
    PopulationSpec,
    build_population,
    config_from_mapping,
    default_policy_specs,
    parse_policies_json,
    plain,
    realize_policy,
    run_intervention_comparison,
    save_trajectories_csv,
    save_trajectories_json,
)
from driftlab.interventions import (
    CoolingPolicy,
    DiversityPolicy,
    EntropyReleasePolicy,
    Schedule,
    VerifierPolicy,
)
from driftlab.metrics import MetricProbe, probe_names, resolve_probes

K = 12
M = 3
CHUNK = 4
SEEDS = tuple(range(CHUNK + 1))
REF = two_tier_reference(K, safe_mass=0.9, safe_fraction=0.5)
PROBES = resolve_probes(probe_names(), default_tau=0.01)
# a set of 8 or more outcomes is summed pairwise, which a strided row would
# not reproduce bit for bit
MONITORS = {"rare-safe": (0, 1), "unsafe": tuple(range(6, K)), "most": tuple(range(1, K - 1))}

UPDATES = {
    "mle": UpdateRule("mle", neighborhood_radius=1),
    "smoothed-mle": UpdateRule("smoothed-mle", lam=0.5),
    "memory-buffer": UpdateRule("memory-buffer", capacity=20, alpha_mem=0.6),
    "reward-mixture-loglik": UpdateRule(
        "reward-reweighted-mle", beta=0.7, reward_source="mixture-loglik"
    ),
    "reward-fixed": UpdateRule(
        "reward-reweighted-mle", beta=1.5, reward=tuple(np.linspace(0.0, 1.0, K))
    ),
}
SELECTIONS = {
    "identity": SelectionRule("identity"),
    "indicator": SelectionRule("indicator", indices=tuple(range(8))),
    "top-mass": SelectionRule("top-mass", k=5),
    "reward-reweight": SelectionRule(
        "reward-reweight", reward=tuple(np.linspace(1.0, 0.0, K)), beta=2.0
    ),
}


def _policy(kind, schedule="every:1", **params):
    return PolicySpec(kind, kind, tuple((k, str(v)) for k, v in params.items()), schedule)


POLICIES = {
    "none": (),
    "verifier-ragged": (_policy("verifier", fp=0.2, fn_rate=0.4, budget=5),),
    "verifier-annihilation": (_policy("verifier", fp=0.8, fn_rate=0.1),),
    "cooling-partial": (_policy("cooling", kl_threshold=0.2, blend=0.6),),
    "kl-schedules": (
        _policy("verifier", "kl:0.1", fp=0.05, fn_rate=0.3),
        _policy("diversity", "every:2", temperature=1.3, rho=0.1),
        _policy("entropy-release", "kl:0.05", gamma=0.1, prune_floor=0.002,
                anchor="initial", prune_memory="true"),
        _policy("cooling", "kl:0.3", kl_threshold=0.4, blend=1.0),
    ),
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


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(evolution, "BATCH_ELEMENTS", CHUNK * M * K)
    assert chunk_size(M, K) == CHUNK


def _outcome(result):
    """Everything a run shows: CSV and JSON text, and the final population,
    weights and agents, of a run that kept its states; or its failure."""
    if isinstance(result, SimulationError):
        return ("failed", str(result), result.round_index, type(result.__cause__).__name__)
    csv, stored = io.StringIO(), io.StringIO()
    save_trajectories_csv([result], csv)
    save_trajectories_json([result], stored)
    final = result.states[-1]
    return (
        csv.getvalue(),
        stored.getvalue(),
        final.weights.tobytes(),
        [a.mass.tobytes() for a in final.agents],
    )


def _pops(seeds):
    return [
        build_population(PopulationSpec(M, "perturbed", sigma=0.4), REF, seed)
        for seed in seeds
    ]


def _config(update, selection, per_agent):
    return EvolutionConfig(
        sample_size=8, rounds=5, selection=SELECTIONS[selection],
        update=UPDATES[update], per_agent_datasets=per_agent,
    )


def _policies(policy):
    return [realize_policy(s, REF) for s in POLICIES[policy]] or None


def _alone(cfg, seeds, intervention, pops=_pops, ref=REF, monitors=MONITORS):
    outcomes = []
    for pop, seed in zip(pops(seeds), seeds):
        try:
            outcomes.append(_outcome(run(
                pop, cfg, PROBES, intervention, ref=ref, monitors=monitors, keep_states=True,
                seed=seed,
            )))
        except SimulationError as exc:
            outcomes.append(_outcome(exc))
    return outcomes


def _together(cfg, seeds, intervention, pops=_pops, ref=REF, monitors=MONITORS):
    # a generator, as the runners pass: run_batch reads it chunk by chunk
    starts = (pop for pop in pops(seeds))
    return [
        _outcome(result)
        for result in run_batch(
            starts, cfg, seeds, PROBES, intervention, ref=ref, monitors=monitors,
            keep_states=True,
        )
    ]


@pytest.mark.parametrize("update, selection, per_agent, policy", GRID)
def test_seeds_run_together_match_each_seed_alone(
    small_chunks, update, selection, per_agent, policy
):
    cfg = _config(update, selection, per_agent)
    alone = _alone(cfg, SEEDS, _policies(policy))
    assert _together(cfg, SEEDS, _policies(policy)) == alone
    assert _together(cfg, SEEDS[:3], _policies(policy)) == alone[:3]


FAILS_AT = {2: 3, 0: 4}  # seed: the round after whose record it raises


@pytest.mark.parametrize("update, selection, per_agent, policy", GRID)
def test_the_halves_of_a_chunk_that_raised_run_on_as_they_would_have(
    small_chunks, monkeypatch, update, selection, per_agent, policy
):
    # seed 2 raises after recording round 3 and seed 0 after round 4, so
    # their chunk of four runs again to round 3, its half with seed 0 runs
    # from a copy of its rows and again from them to round 4, and so on
    cfg = _config(update, selection, per_agent)
    record = evolution._Chunk._record

    def recorded(chunk, r):
        record(chunk, r)
        if any(r == at and s in chunk.ids for s, at in FAILS_AT.items()):
            raise FloatingPointError("refused")

    def outcomes():
        results = run_batch(
            _pops(SEEDS), cfg, SEEDS, PROBES, _policies(policy),
            ref=REF, monitors=MONITORS, keep_states=True,
        )
        return [_kept(result) for result in results]

    clean = outcomes()
    monkeypatch.setattr(evolution._Chunk, "_record", recorded)
    failing = outcomes()
    for s, at in FAILS_AT.items():
        assert failing[s] == ("failed", f"round {at}: refused", at, "FloatingPointError")
    assert [failing[s] for s in (1, 3, 4)] == [clean[s] for s in (1, 3, 4)]


# a reward selection that accepts only the last outcome, fed by a diversity
# policy that every other round samples mostly from the reference: seeds whose
# dataset then misses that outcome fail mid-run with zero selection mass
FAILING = {
    "space.size": str(K),
    "reference.safe_mass": "0.9",
    "population.size": str(M),
    "population.init": "perturbed",
    "population.sigma": "0.3",
    "evolution.sample_size": "20",
    "evolution.rounds": "8",
    "selection.kind": "reward-reweight",
    "selection.reward": ",".join(["0"] * (K - 1) + ["1"]),
    "selection.beta": "1e4",
}


def _failing():
    """The round settings, seeds and run inputs of the FAILING sweep."""
    cfg = config_from_mapping(FAILING)
    spec = _policy("diversity", "every:2", temperature=1, rho=0.95)
    ref = two_tier_reference(K, safe_mass=0.9, safe_fraction=0.5)
    inputs = dict(
        intervention=[realize_policy(spec, ref)],
        pops=lambda seeds: [build_population(cfg.population, ref, seed) for seed in seeds],
        ref=ref,
        monitors=None,
    )
    return cfg.evolution, tuple(range(3 * CHUNK)), inputs


def test_failing_seeds_leave_their_chunk_and_the_rest_go_on(small_chunks):
    evo, seeds, inputs = _failing()
    alone = _alone(evo, seeds, **inputs)
    assert _together(evo, seeds, **inputs) == alone
    rounds = {o[2] for o in alone if o[0] == "failed"}
    assert len(rounds) > 1 and 0 not in rounds  # seeds fail in different rounds
    assert any(o[0] != "failed" for o in alone)


def _one_agent(*mass):
    return evolution.Population.equal_weights([ProbVector(core.OutcomeSpace(len(mass)), mass)])


def _two(first, second):
    """The population of first's agents and then second's, equally weighted."""
    return evolution.Population.equal_weights(first.agents + second.agents)


# a subnormal alpha_mem leaves subnormal agent masses, and the KL of the
# reference against them overflows log(p / q); under over="raise" each policy
# hook that measures that drift (a kl: schedule or the cooling check) must fail
# the seeds it overflows for, as each seed alone would, and only those
SUBNORMAL_REF = two_tier_reference(7, 1.0, 0.5)
KL_ANY = Schedule("kl-trigger", threshold=0.0, ref=SUBNORMAL_REF)
SUBNORMAL_RUN = (
    [build_population(PopulationSpec(1, "copy"), SUBNORMAL_REF, 0)] * 8,
    EvolutionConfig(
        sample_size=9, rounds=4,
        update=UpdateRule("memory-buffer", capacity=10, alpha_mem=2.225073858507e-311),
    ),
)
# under under="raise", each batched stage and hook whose arithmetic
# underflows for some seeds: a mixture-loglik tilt of the update on a
# sampled outcome of small mixture mass, a fixed reward's tilt of the
# selection (built in round 0, which reads it first) and of the update
# (round 1), the mixture of a subnormal agent, and a diversity blend with
# a subnormal reference entry that underflows on any rows at all
PLAIN, ODD = _one_agent(0.5, 0.5, 0, 0, 0, 0), _one_agent(0.45, 0.45, 0.01, 0.01, 0.04, 0.04)
# its draws of the 0.01 and 0.03 outcomes underflow the tilt, in round 1, or
# in round 2 where the first refit kept them small
LATE = _one_agent(0.41, 0.01, 0.4, 0.15, 0.03, 0)
THREE = core.OutcomeSpace(3)
FLAT = evolution.Population.equal_weights([ProbVector(THREE, [0.2, 0.3, 0.5])] * 2)
TINY = evolution.Population.equal_weights(
    [ProbVector(THREE, [0.5, 0.5 - 1e-310, 1e-310]), ProbVector(THREE, [0.2, 0.3, 0.5])]
)
TINY_REF = core.SafetyReference(ProbVector(THREE, [0.6, 0.4 - 1e-310, 1e-310]), (0, 1), 0.1)
# an agent of weight 1e-307 holds no subnormal product at round 0; refitted,
# its mass on an outcome drawn a few times, or released toward uniform, is
# small enough that the mixture underflows. An every-round release reads no
# mixture: such a seed fails in the same round, where selection mixes
LOPSIDED = evolution.Population(
    (ProbVector(THREE, [1.0, 0.0, 0.0]), ProbVector(THREE, [0.2, 0.3, 0.5])),
    np.array([1e-307, 1.0]),
)
# case -> the populations and round settings, the policy, the raising error
# state, and the round in which each failing seed fails
OVERFLOWING = {
    "kl-cooling": (
        *SUBNORMAL_RUN, CoolingPolicy(SUBNORMAL_REF, kl_threshold=1e9, schedule=KL_ANY),
        "over", {4: 2},
    ),
    "cooling-check": (
        *SUBNORMAL_RUN, CoolingPolicy(SUBNORMAL_REF, kl_threshold=0.1), "over", {1: 3, 4: 2},
    ),
    "kl-diversity": (
        *SUBNORMAL_RUN, DiversityPolicy(SUBNORMAL_REF, schedule=KL_ANY), "over", {4: 2},
    ),
    "kl-release": (*SUBNORMAL_RUN, EntropyReleasePolicy(schedule=KL_ANY), "over", {4: 2}),
    "update": (
        [PLAIN, LATE, LATE, LATE],
        EvolutionConfig(30, 3, update=UpdateRule(
            "reward-reweighted-mle", beta=200, reward_source="mixture-loglik"
        )),
        None, "under", {2: 2, 3: 1},
    ),
    # each seed fits its two agents' datasets in one call, as alone
    "update-per-agent": (
        [_two(PLAIN, PLAIN), _two(PLAIN, ODD), _two(ODD, PLAIN), _two(PLAIN, PLAIN)],
        EvolutionConfig(30, 2, update=UpdateRule(
            "reward-reweighted-mle", beta=200, reward_source="mixture-loglik"
        ), per_agent_datasets=True),
        None, "under", {1: 1, 2: 1},
    ),
    "selection": (
        [PLAIN] * 2,
        EvolutionConfig(30, 3, selection=SelectionRule(
            "reward-reweight", reward=(0, 0, 0, 0, 0, -1), beta=800
        )),
        None, "under", {0: 0, 1: 0},
    ),
    "update-fixed-reward": (
        [PLAIN] * 2,
        EvolutionConfig(30, 3, update=UpdateRule(
            "reward-reweighted-mle", reward=(0, 0, 0, 0, 0, -1), beta=800
        )),
        None, "under", {0: 1, 1: 1},
    ),
    "mixture": ([FLAT, TINY, FLAT], EvolutionConfig(30, 3), None, "under", {1: 0}),
    "every-release": (
        [LOPSIDED] * 4, EvolutionConfig(30, 3), EntropyReleasePolicy(), "under",
        {1: 3, 2: 1, 3: 1},
    ),
    "zero-rows": (
        [FLAT] * 2, EvolutionConfig(30, 3), DiversityPolicy(TINY_REF, temperature=1, rho=0.1),
        "under", {0: 0, 1: 0},
    ),
}


@pytest.mark.parametrize("case", OVERFLOWING)
def test_an_overflowing_policy_hook_fails_only_its_seed(case):
    pops, cfg, policy, raising, failures = OVERFLOWING[case]
    seeds = tuple(range(len(pops)))
    alone = []
    with np.errstate(**{raising: "raise"}):
        together = [
            _outcome(t) for t in run_batch(pops, cfg, seeds, (), policy, keep_states=True)
        ]
        for pop, seed in zip(pops, seeds):
            try:
                alone.append(
                    _outcome(run(pop, cfg, intervention=policy, keep_states=True, seed=seed))
                )
            except SimulationError as exc:
                alone.append(_outcome(exc))
    assert together == alone
    failed = {s: o[2] for s, o in zip(seeds, together) if o[0] == "failed"}
    assert failed == failures
    assert all(together[s][3] == "FloatingPointError" for s in failed)


def test_a_prune_that_empties_an_agent_fails_only_its_seed(small_chunks):
    # an mle agent at uniform over 3 outcomes sits wholly below the floor;
    # a peaked one keeps its top entry
    ref = two_tier_reference(3, safe_mass=0.9, safe_fraction=0.5)
    seeds = tuple(range(3 * CHUNK))
    inputs = dict(
        intervention=EntropyReleasePolicy(gamma=0.01, prune_floor=0.4),
        pops=lambda seeds: [build_population(PopulationSpec(M, "copy"), ref, s) for s in seeds],
        ref=ref,
        monitors=None,
    )
    cfg = EvolutionConfig(sample_size=3, rounds=4, per_agent_datasets=True)
    alone = _alone(cfg, seeds, **inputs)
    assert _together(cfg, seeds, **inputs) == alone
    failed = [o for o in alone if o[0] == "failed"]
    assert 0 < len(failed) < len(seeds)
    assert all("removed all of agent" in o[1] for o in failed)


def test_rows_kept_after_an_update_failure_release_and_cool_as_alone():
    # a tilt that keeps only outcome 0 wipes every dataset that missed it, so
    # about half the seeds fail in round 1's update; the rows the chunk keeps
    # then go through entropy release and cooling, whose reductions must run
    # in the order they would for each seed alone
    rule = UpdateRule("reward-reweighted-mle", beta=1e4, reward=(1.0,) + (0.0,) * (K - 1))
    cfg = EvolutionConfig(sample_size=6, rounds=4, update=rule)
    seeds = tuple(range(8))
    assert chunk_size(M, K) >= len(seeds)
    policies = [
        EntropyReleasePolicy(gamma=0.1, anchor="initial"),
        CoolingPolicy(REF, kl_threshold=0.05, blend=0.5),
    ]
    alone = _alone(cfg, seeds, policies)
    assert _together(cfg, seeds, policies) == alone
    assert [o[2] for o in alone if o[0] == "failed"] == [1] * 4


def _refuse_round_2(r, pt, agents, ref):
    if r == 2 and (pt[:, 0] > pt[:, 1]).any():
        raise ValueError("probe refuses this distribution")
    return np.zeros(len(pt))


def test_a_raising_probe_fails_only_its_seed():
    # a probe that raises for some seeds in round 2 fails those seeds there,
    # as each seed alone; the others keep all five rounds
    ref = two_tier_reference(10, safe_mass=0.9, safe_fraction=0.5)
    pop = build_population(PopulationSpec(2, "copy"), ref, 0)
    cfg = EvolutionConfig(sample_size=20, rounds=4)
    probes = (MetricProbe("refuse", _refuse_round_2),)
    seeds = tuple(range(8))
    kw = {"ref": ref, "keep_states": True}
    together = [_outcome(t) for t in run_batch([pop] * len(seeds), cfg, seeds, probes, **kw)]
    alone = []
    for seed in seeds:
        try:
            alone.append(_outcome(run(pop, cfg, probes, **kw, seed=seed)))
        except SimulationError as exc:
            alone.append(_outcome(exc))
    assert together == alone
    failed = [o for o in together if o[0] == "failed"]
    assert 0 < len(failed) < len(seeds)
    assert all(o[2] == 2 and o[3] == "ValueError" for o in failed)
    kept = [json.loads(o[1])["trajectories"][0] for o in together if o[0] != "failed"]
    assert all(len(td["values"]["refuse"]) == 5 for td in kept)


def _refuse_a_point_mass_in_round_3(r, pt, agents, ref):
    if r == 3 and (pt.max(axis=1) == 1.0).any():
        raise ValueError("probe refuses a point mass")
    return np.zeros(len(pt))


def test_a_failing_seed_costs_its_chunk_one_rerun_and_its_round_per_halving(monkeypatch):
    # seed 5 of 16 starts at (and an mle agent stays on) a point mass, which
    # the probe refuses in round 3; the chunk runs again up to round 3, where
    # its halves run on from, and so on down to seed 5
    ref = two_tier_reference(6, safe_mass=0.9, safe_fraction=0.5)
    flat, point = _one_agent(*[1 / 6] * 6), _one_agent(0, 0, 0, 0, 0, 1.0)
    cfg = EvolutionConfig(sample_size=20, rounds=4)
    seeds = tuple(range(16))
    assert chunk_size(1, 6) >= len(seeds)
    pops = [point if s == 5 else flat for s in seeds]
    refusing = (MetricProbe("refuse", _refuse_a_point_mass_in_round_3),)
    quiet = (MetricProbe("refuse", lambda r, pt, agents, ref: np.zeros(len(pt))),)
    advanced = []
    advance = evolution._Chunk.advance

    def counted(chunk, r):
        advanced.append((len(chunk.ids), r))
        advance(chunk, r)

    monkeypatch.setattr(evolution._Chunk, "advance", counted)
    kw = {"ref": ref, "keep_states": True}
    failing = [_outcome(t) for t in run_batch(pops, cfg, seeds, refusing, **kw)]
    assert advanced == [
        *[(16, r) for r in (0, 1, 2, 3, 0, 1, 2)],  # fails in round 3; again to it
        (8, 3),  # seeds 0-7 fail
        (4, 3), (4, 4),  # 0-3 run on
        (4, 3), (2, 3),  # 4-7 and 4-5 fail
        (1, 3), (1, 4), (1, 3),  # 4 runs on, 5 fails
        (2, 3), (2, 4), (8, 3), (8, 4),  # 6-7 and 8-15 run on
    ]
    assert [o[:3] for o in failing if o[0] == "failed"] == [
        ("failed", "round 3: probe refuses a point mass", 3)
    ]
    assert failing[5][0] == "failed"
    advanced.clear()
    clean = [_outcome(t) for t in run_batch(pops, cfg, seeds, quiet, **kw)]
    assert advanced == [(16, r) for r in range(5)]
    assert failing[:5] + failing[6:] == clean[:5] + clean[6:]
    advanced.clear()
    with pytest.raises(SimulationError):
        run(point, cfg, refusing, ref=ref, seed=5)
    assert advanced == [(1, r) for r in range(4)]


def test_a_failed_seed_keeps_its_traceback_but_no_chunk(monkeypatch):
    # every chunk a failing run builds or copies is freed once the run ends,
    # while the failed seed's cause still shows where it raised
    ref = two_tier_reference(6, safe_mass=0.9, safe_fraction=0.5)
    flat, point = _one_agent(*[1 / 6] * 6), _one_agent(0, 0, 0, 0, 0, 1.0)
    pops = [point if s == 5 else flat for s in range(16)]
    made = []
    init, rows = evolution._Chunk.__init__, evolution._Chunk.rows

    def built(chunk, *args):
        init(chunk, *args)
        made.append(weakref.ref(chunk))

    def copied(chunk, keep):
        made.append(weakref.ref(part := rows(chunk, keep)))
        return part

    monkeypatch.setattr(evolution._Chunk, "__init__", built)
    monkeypatch.setattr(evolution._Chunk, "rows", copied)
    probes = (MetricProbe("refuse", _refuse_a_point_mass_in_round_3),)
    cfg = EvolutionConfig(sample_size=20, rounds=4)
    results = list(run_batch(pops, cfg, range(16), probes, ref=ref))
    assert isinstance(results[5], SimulationError) and len(made) > 2
    assert [chunk() for chunk in made] == [None] * len(made)
    shown = "".join(traceback.format_exception(results[5].__cause__))
    assert "_refuse_a_point_mass_in_round_3" in shown and "advance" in shown


def test_a_raising_verifier_fails_only_its_seed():
    handed = []

    class Writing(VerifierPolicy):
        # writes into the dataset it is handed when that starts with outcome 2
        def filter_dataset(self, data, rng):
            handed.append(data)
            if data[0] == 2:
                data[0] = 0
            return super().filter_dataset(data, rng)

    cfg = EvolutionConfig(sample_size=8, rounds=5)
    seeds = (0, 1, 2)
    writing = Writing(REF, fp=0.1, fn_rate=0.5)
    together = _together(cfg, seeds, writing)
    assert together == _alone(cfg, seeds, writing)
    read_only = "round 4: assignment destination is read-only"
    assert together[1] == ("failed", read_only, 4, "ValueError")
    # the other seeds' datasets never started with outcome 2: they ran as
    # under the plain verifier
    plain = _together(cfg, seeds, VerifierPolicy(REF, fp=0.1, fn_rate=0.5))
    assert [together[0], together[2]] == [plain[0], plain[2]]
    # every dataset handed to the verifier was a read-only view
    assert handed and all(not d.flags.writeable and d.base is not None for d in handed)


def _chunk(intervention=None, **cfg):
    """A chunk of SEEDS that keeps its states, with no probe or monitor."""
    pops = _pops(SEEDS)
    policies = evolution._group_policies(intervention, pops[0].space, M)
    cfg = EvolutionConfig(sample_size=8, **{"rounds": 3, **cfg})
    batch = evolution._Batch(cfg, list(SEEDS), (), None, policies, {}, True, CHUNK)
    return evolution._Chunk(batch, range(len(SEEDS)), pops)


def test_a_chunk_owns_its_agents_as_one_writable_c_contiguous_array():
    # every update and hook writes one array the chunk owns, never a view
    def owned(chunk):
        return chunk.agents.flags.writeable and chunk.agents.flags.c_contiguous

    chunk = _chunk()
    for r in range(3):
        chunk.advance(r)
        assert owned(chunk)
    # each state, the last of every seed included, shares one agent that owns its mass
    for pop in [states[-1] for states in chunk.states] + chunk.states[0][1:]:
        assert all(a is pop.agents[0] for a in pop.agents)
        assert pop.agents[0].mass.flags.owndata
        assert not np.shares_memory(pop.agents[0].mass, chunk.agents)
    assert not np.array_equal(chunk.states[0][1].agents[0].mass, chunk.states[0][2].agents[0].mass)
    # as do the hooks that write it in place, and a verifier that empties some
    # blocks, after which the update writes only the rows it fitted
    policies = (
        EntropyReleasePolicy(gamma=0.1), CoolingPolicy(REF, kl_threshold=1e9),
        VerifierPolicy(REF, fp=1.0, fn_rate=1.0),
    )
    for policy in policies:
        chunk = _chunk([policy])
        for r in range(3):
            chunk.advance(r)
            assert owned(chunk) and chunk.agents.strides[1] != 0
    # as does a per-agent update
    chunk = _chunk(per_agent_datasets=True)
    for r in range(3):
        chunk.advance(r)
        assert owned(chunk) and chunk.agents.strides[1] != 0


def test_the_rows_of_a_chunk_share_nothing_it_writes():
    # rows 1-2 of a chunk after round 2, and a copy of them, share no array
    # with each other or the chunk; the copy runs on first, then the rows,
    # then the chunk, and each ends with the bytes of those rows run unsplit
    def build():
        update = UPDATES["memory-buffer"]
        return _chunk(_policies("kl-schedules"), rounds=6, update=update)

    def ended(chunk, start):
        for r in range(start, 7):
            chunk.advance(r)
        return [
            (
                chunk.fired[s], chunk.notes[s], chunk.memory[s].tobytes(),
                [[a.mass.tobytes() for a in pop.agents] for pop in chunk.states[s]],
                [a.mass.tobytes() for a in chunk.population(s).agents],
            )
            for s in range(len(chunk.ids))
        ]

    expected = ended(build(), 0)[1:3]
    assert any(note == "cooling-rollback" for row in expected for _, note in row[1])
    chunk = build()
    for r in range(3):
        chunk.advance(r)
    part = chunk.rows(slice(1, 3))
    copied = part.rows(slice(None))
    for one, other, keep in [(part, chunk, slice(1, 3)), (copied, part, slice(None))]:
        for name, rows in vars(one).items():
            if isinstance(rows, np.ndarray):
                assert not np.shares_memory(rows, getattr(other, name)), name
        for mine, theirs in zip(one.checkpoints, other.checkpoints):
            assert not np.shares_memory(mine, theirs)
        for name in ("rngs", "fired", "notes", "states"):  # memory is never written
            assert all(map(operator.is_not, getattr(one, name), getattr(other, name)[keep]))
    assert ended(copied, 3) == expected
    assert ended(part, 3) == expected
    assert ended(chunk, 3)[1:3] == expected


def test_an_initial_anchor_reads_the_start_rows_after_an_update_in_place():
    # a verifier that keeps only unsafe samples empties some blocks, so the
    # update writes the rows it fits into the chunk's agents in place; an
    # anchor "initial" still reads each seed's start rows, as an anchor on
    # that seed's own start population does
    ref = two_tier_reference(6, safe_mass=0.9)
    seeds = tuple(range(20))
    cfg = EvolutionConfig(sample_size=3, rounds=4, per_agent_datasets=True)
    verifier = VerifierPolicy(ref, fp=1.0, fn_rate=1.0)

    def start(seed):
        return build_population(PopulationSpec(3, "dirichlet"), ref, seed)

    initial = [verifier, EntropyReleasePolicy(gamma=0.5, anchor="initial")]
    kw = {"ref": ref, "keep_states": True}
    together = run_batch((start(s) for s in seeds), cfg, seeds, PROBES, initial, **kw)
    for seed, result in zip(seeds, together):
        explicit = [verifier, EntropyReleasePolicy(gamma=0.5, anchor=start(seed))]
        alone = run(start(seed), cfg, PROBES, explicit, **kw, seed=seed)
        assert _outcome(result) == _outcome(alone)


def test_a_custom_probe_keeps_agent_rows_that_the_chunk_never_writes():
    # a verifier that keeps only unsafe samples empties some blocks, so the
    # update writes the rows it fits in place, and a cooling threshold of 0
    # rolls every row halfway back in place; the rows a probe kept stay as it
    # was handed them
    ref = two_tier_reference(50, safe_mass=0.9)
    seeds = tuple(range(6))
    cfg = EvolutionConfig(sample_size=8, rounds=6)
    cooling = CoolingPolicy(ref, kl_threshold=0.0, blend=0.5)
    policies = [VerifierPolicy(ref, fp=1.0, fn_rate=1.0), cooling]
    kept = []

    def keeping(r, pt, agents, ref):
        kept.append((agents, agents.copy()))
        return agents[:, 0, 0]

    def results(probes):
        spec = PopulationSpec(M, "perturbed", sigma=0.4)
        starts = (build_population(spec, ref, seed) for seed in seeds)
        return list(run_batch(starts, cfg, seeds, probes, policies, ref=ref, keep_states=True))

    plain = results(PROBES)
    kept_too = results([*PROBES, MetricProbe("keeping", keeping)])
    for a, b in zip(kept_too, plain):
        assert not isinstance(b, SimulationError)
        assert all(a.values[name].tobytes() == b.values[name].tobytes() for name in b.probe_names)
        assert (a.fired, a.notes) == (b.fired, b.notes)
        assert any(text == "cooling-rollback" for _, text in b.notes)
        assert _kept(a)[2:] == _kept(b)[2:]  # all but the CSV and JSON text
    assert len(kept) == cfg.rounds + 1
    for handed, copied in kept:
        assert handed.tobytes() == copied.tobytes() and not handed.flags.writeable


def test_chunk_size_rule():
    assert chunk_size(4, 1000) == 131
    # the wide benchmark population runs as a batch of one, as do 3 agents
    assert chunk_size(4, 100_000) == chunk_size(3, 100_000) == 1
    assert chunk_size(2, 100_000) == 2
    assert chunk_size(1, 2) == 2**18


def test_run_batch_checks_its_runs_where_it_is_called(small_chunks):
    cfg = _config("mle", "identity", False)
    pops = _pops(SEEDS)
    assert list(run_batch([], cfg, [])) == []
    # every check below raises at the call, before any result is asked for
    other = build_population(PopulationSpec(M + 1, "copy"), REF, 0)
    with pytest.raises(ConfigError, match="one space and size"):
        run_batch([pops[0], other], cfg, (0, 1))
    with pytest.raises(ConfigError, match="one population per seed"):
        run_batch(pops, cfg, SEEDS[:1])
    with pytest.raises(ConfigError, match="one population per seed"):
        run_batch(iter(pops[:2]), cfg, SEEDS[:3])
    with pytest.raises(ConfigError, match="one population per seed"):
        run_batch(iter(pops[:1]), cfg, ())
    with pytest.raises(ConfigError, match="64 unsigned bits"):
        run_batch(pops[:2], cfg, (0, 2**64))
    with pytest.raises(ConfigError, match="no reference"):
        run_batch(pops, cfg, SEEDS, PROBES)
    with pytest.raises(ConfigError, match="unknown kind"):
        run_batch(pops, cfg, SEEDS, intervention=object())
    # an unsized iterable of the wrong length fails when the iterator gets there
    results = run_batch(iter(pops), cfg, SEEDS[:CHUNK])
    with pytest.raises(ConfigError, match="one population per seed"):
        list(results)
    results = run_batch(iter(pops[:CHUNK]), cfg, SEEDS)
    with pytest.raises(ConfigError, match="one population per seed"):
        list(results)


def test_a_repeated_probe_name_is_a_config_error_before_any_seed_runs(monkeypatch):
    # values holds one column per probe name, so a repeat would lose one
    ran = []
    monkeypatch.setattr(evolution._Chunk, "advance", lambda chunk, r: ran.append(r))
    cfg = _config("mle", "identity", False)
    twice = resolve_probes(("kl_safety", "safe_mass", "kl_safety"), default_tau=0.01)
    with pytest.raises(ConfigError, match="probe 'kl_safety' is requested more than once"):
        run_batch(_pops(SEEDS), cfg, SEEDS, twice, ref=REF)
    with pytest.raises(ConfigError, match="probe 'kl_safety' is requested more than once"):
        run(_pops(SEEDS[:1])[0], cfg, twice, ref=REF)
    assert ran == []


def test_a_reference_on_another_space_is_one_config_error():
    # the probes would fail every seed in round 0; the call fails instead,
    # before any round runs, and so does run()
    pops = [build_population(PopulationSpec(2, "copy"), REF, s) for s in range(3)]
    cfg = EvolutionConfig(sample_size=5, rounds=2)
    other = two_tier_reference(K + 2)
    mismatch = f"reference lives on {K + 2} outcomes, the populations on {K}"
    with pytest.raises(ConfigError, match=mismatch):
        run_batch(pops, cfg, range(3), PROBES, ref=other)
    with pytest.raises(ConfigError, match="reference lives on"):
        run(pops[0], cfg, PROBES, ref=other, seed=1)
    # the populations' own space passes, and no probes need no reference
    results = run_batch(pops, cfg, range(3), PROBES, ref=REF)
    assert all(not isinstance(t, SimulationError) for t in results)
    assert len(list(run_batch(pops, cfg, range(3)))) == 3


def test_run_batch_builds_one_chunk_of_populations_at_a_time(small_chunks):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(3 * CHUNK))
    built = []

    def pops():
        for pop in _pops(seeds):
            built.append(pop)
            yield pop

    results = run_batch(pops(), cfg, seeds)
    assert len(built) == CHUNK
    for i, _ in enumerate(results):
        # the chunk holding run i has been built, and no later one
        assert len(built) == min(len(seeds), (i // CHUNK + 1) * CHUNK)


def test_each_round_calls_the_four_stages_by_name(small_chunks, monkeypatch):
    """A wrapper bound in place of a stage (a tracer's, say) sees every call
    of every chunk's round, and changes no byte."""
    cfg = _config("mle", "identity", False)
    plain = _together(cfg, SEEDS, None)
    calls = dict.fromkeys(("mixture", "apply_selection", "sample_dataset", "update_agents"), 0)
    for name in calls:
        def counted(*args, _stage=getattr(evolution, name), _name=name, **kwargs):
            calls[_name] += 1
            return _stage(*args, **kwargs)

        monkeypatch.setattr(evolution, name, counted)
    assert _together(cfg, SEEDS, None) == plain
    chunks = -(-len(SEEDS) // CHUNK)
    assert chunks == 2
    # per chunk: the set-up selection, then one of each stage per round
    assert calls == {
        "mixture": chunks * (cfg.rounds + 1),
        "apply_selection": chunks * (cfg.rounds + 1),
        "sample_dataset": chunks * cfg.rounds,
        "update_agents": chunks * cfg.rounds,
    }


def _kl_schedule_run(probes, **kw):
    """Every seed of SEEDS through every policy kind on kl: schedules, with
    the memory buffer their prune reads; the populations and policies are
    built first, as a caller builds them."""
    cfg = _config("memory-buffer", "identity", False)
    pops, policies = _pops(SEEDS), _policies("kl-schedules")

    def results():
        return list(run_batch(pops, cfg, SEEDS, probes, policies, ref=REF, monitors=MONITORS, **kw))

    return cfg, results


def test_each_probe_measures_a_chunk_round_in_one_call(small_chunks, monkeypatch):
    """A probe reads a chunk's rows once per round, and the round wraps no
    row and checks no space again; the only _wrap calls build the returned
    populations, one per distinct agent, over copies."""
    calls = dict.fromkeys((p.name for p in PROBES), 0)

    def counted(probe):
        def evaluator(r, pt, agents, ref):
            calls[probe.name] += 1
            return probe.evaluator(r, pt, agents, ref)

        return MetricProbe(probe.name, evaluator)

    cfg, results = _kl_schedule_run([counted(p) for p in PROBES], keep_states=True)
    wrapped, checked = [], []

    def wrap(space, arr):
        wrapped.append(arr.flags.owndata)
        return core._wrap(space, arr)

    monkeypatch.setattr(evolution, "_wrap", wrap)
    for module in (core, evolution, metrics):
        monkeypatch.setattr(module, "require_same_space", lambda *pair: checked.append(pair))
    trajectories = results()
    assert all(not isinstance(t, SimulationError) for t in trajectories)
    chunks = -(-len(SEEDS) // CHUNK)
    assert calls == dict.fromkeys(calls, chunks * (cfg.rounds + 1))
    assert checked == []
    distinct = sum(len({id(a) for a in p.agents}) for t in trajectories for p in t.states)
    assert wrapped == [True] * distinct


def test_run_batch_hands_no_probe_or_policy_a_wrapped_view(small_chunks, monkeypatch):
    """Probes and policy hooks get the chunk's arrays, never a ProbVector
    around them, so a distribution may keep its support: no one rewrites
    the mass under it."""
    handed = []

    def arrays(args):
        for arg in args:
            if isinstance(arg, tuple):
                yield from arrays(arg)
            else:
                assert not isinstance(arg, ProbVector), arg
                yield arg

    def spied(fn):
        def hook(*args):
            handed.extend(a for a in arrays(args[1:]) if isinstance(a, np.ndarray))
            return fn(*args)

        return hook

    hooks = {
        Schedule: ("fires",),
        VerifierPolicy: ("filter_dataset",),
        DiversityPolicy: ("adjust_training",),
        EntropyReleasePolicy: ("adjust_population", "prune_buffer"),
        CoolingPolicy: ("initial_checkpoint", "cool"),
    }
    for cls, names in hooks.items():
        for name in names:
            monkeypatch.setattr(cls, name, spied(getattr(cls, name)))
    probe = MetricProbe("spy", spied(lambda *args: np.zeros(len(args[1]))))
    wrapped = []

    def wrap(space, arr):
        wrapped.append(arr.flags.owndata)
        return core._wrap(space, arr)

    monkeypatch.setattr(evolution, "_wrap", wrap)
    _, results = _kl_schedule_run([probe], keep_states=True)
    assert all(not isinstance(t, SimulationError) for t in results())
    assert handed
    # only the populations a run returns are wrapped, each over a copy
    assert wrapped and all(wrapped)


@pytest.mark.parametrize(
    "values",
    [
        lambda pt: 0.0,  # one value for the chunk: the per-seed protocol
        lambda pt: np.zeros((len(pt), 1)),
        lambda pt: np.zeros(len(pt) + 1),
    ],
)
def test_a_probe_that_gives_no_value_per_row_fails_its_seeds(small_chunks, values):
    probe = MetricProbe("shapeless", lambda r, pt, agents, ref: values(pt))
    cfg = _config("mle", "identity", False)
    results = list(run_batch(_pops(SEEDS), cfg, SEEDS, [probe], ref=REF))
    assert all(isinstance(e, SimulationError) for e in results)
    assert {(e.round_index, type(e.__cause__)) for e in results} == {(0, ValueError)}
    assert "shapeless" in str(results[0])


def test_a_probe_value_is_never_broadcast_across_seeds(small_chunks):
    # a probe that gives one value whatever the rows: the chunk's call is
    # refused, and each seed gets the value of its own row
    probe = MetricProbe("first", lambda r, pt, agents, ref: pt[:1, 0])
    cfg = _config("mle", "identity", False)
    together = [t.values["first"] for t in run_batch(_pops(SEEDS), cfg, SEEDS, [probe], ref=REF)]
    alone = [
        run(pop, cfg, [probe], ref=REF, seed=seed).values["first"]
        for pop, seed in zip(_pops(SEEDS), SEEDS)
    ]
    assert all(np.array_equal(a, b) for a, b in zip(together, alone))
    assert len({c.tobytes() for c in together}) == len(SEEDS)


# --- the pool of worker processes ---------------------------------------------------


@pytest.fixture
def pool(monkeypatch):
    """Every run of 2 or more chunks goes to a fork pool, as on a machine of
    2 usable CPUs; the list gathers (chunks, workers) of each pool made."""
    monkeypatch.setattr(evolution, "POOL_ELEMENTS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    made = []
    pooled = evolution._pooled

    def counted(batches, chunks, workers):
        spans = (evolution._spans(len(b.seeds), b.width, workers) for b in batches)
        made.append((sum(map(len, spans)), workers))
        return pooled(batches, chunks, workers)

    monkeypatch.setattr(evolution, "_pooled", counted)
    return made


def _kept(result):
    """_outcome, the bytes of every kept state included."""
    if isinstance(result, SimulationError):
        return _outcome(result)
    return _outcome(result) + (
        [(p.weights.tobytes(), [a.mass.tobytes() for a in p.agents]) for p in result.states],
    )


def _read_only(result) -> bool:
    if isinstance(result, SimulationError):
        return True
    pops = result.states
    arrays = [
        *result.values.values(), *result.monitor_mass.values(), *result.monitor_absent.values(),
        *(p.weights for p in pops), *(a.mass for p in pops for a in p.agents),
    ]
    return not any(a.flags.writeable for a in arrays)


# every update, per-agent and policy case of GRID, each under one selection
# in turn (each pooled run forks two workers; all of GRID would add about
# 10 s to the suite), and seed-chunk widths 1, 2 and 4 in turn; for SEEDS and
# 2 workers, width 2 gives chunks of 2, 1, 1 and 1 and width 4 chunks of 3 and 2
_COVER: dict[tuple, list] = {}
for _case in GRID:
    _COVER.setdefault((_case[0], *_case[2:]), []).append(_case)
POOL_GRID = [(*cases[i % len(cases)], (1, 2, 4)[i % 3]) for i, cases in enumerate(_COVER.values())]


@pytest.mark.parametrize("update, selection, per_agent, policy, width", POOL_GRID)
def test_the_pool_gives_the_bytes_of_the_run_in_process(
    monkeypatch, pool, update, selection, per_agent, policy, width
):
    monkeypatch.setattr(evolution, "BATCH_ELEMENTS", width * M * K)
    cfg = _config(update, selection, per_agent)

    def results():
        starts = (pop for pop in _pops(SEEDS))
        return list(run_batch(
            starts, cfg, SEEDS, PROBES, _policies(policy), ref=REF, monitors=MONITORS,
            keep_states=True,
        ))

    pooled = results()
    assert pool == [({1: 5, 2: 4, 4: 2}[width], 2)]
    assert all(_read_only(result) for result in pooled)
    monkeypatch.setattr(evolution, "POOL_ELEMENTS", 2**62)
    assert [_kept(r) for r in pooled] == [_kept(r) for r in results()]
    assert pool == [pool[0]]  # the second run stayed in process


def test_no_pool_is_forked_while_another_thread_runs(pool):
    # a fork copies only the calling thread, so a process of more threads
    # runs its chunks in process
    cfg = _config("mle", "identity", False)
    release = threading.Event()
    kw = {"ref": REF, "keep_states": True}
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        alone = [_kept(r) for r in run_batch(_pops(SEEDS), cfg, SEEDS, PROBES, **kw)]
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive() and pool == []
    assert [_kept(r) for r in run_batch(_pops(SEEDS), cfg, SEEDS, PROBES, **kw)] == alone
    assert len(pool) == 1


def test_one_usable_cpu_runs_in_process(monkeypatch, small_chunks, pool):
    cfg = _config("mle", "identity", False)
    kw = {"ref": REF, "monitors": MONITORS, "keep_states": True}
    pooled = [_kept(r) for r in run_batch(_pops(SEEDS), cfg, SEEDS, PROBES, **kw)]
    assert pool == [(2, 2)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert [_kept(r) for r in run_batch(_pops(SEEDS), cfg, SEEDS, PROBES, **kw)] == pooled
    assert pool == [(2, 2)] and multiprocessing.active_children() == []


def _arrays(obj):
    """Every numpy array that obj holds, through containers and attributes."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, dict):
        for value in obj.values():
            yield from _arrays(value)
    elif isinstance(obj, (list, tuple)):
        for value in obj:
            yield from _arrays(value)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(vars(obj))


@pytest.mark.parametrize("pooled", [True, False])
def test_a_trajectory_does_not_grow_with_the_space(monkeypatch, pool, pooled):
    """Without keep_states a run returns its columns and events, and no
    K-long row, whether a worker sends it back or it ran in process."""
    if not pooled:
        monkeypatch.setattr(evolution, "POOL_ELEMENTS", 2**62)
    cfg = EvolutionConfig(sample_size=8, rounds=3)
    seeds = tuple(range(4))

    def results(k):
        ref = two_tier_reference(k, safe_mass=0.9, safe_fraction=0.5)
        spec = PopulationSpec(M, "perturbed", sigma=0.4)
        pops = [build_population(spec, ref, seed) for seed in seeds]
        got = list(run_batch(pops, cfg, seeds, PROBES, ref=ref, monitors={"rare": (0, 1)}))
        assert not any(isinstance(t, SimulationError) for t in got)
        return got

    wide, narrow = results(10**4), results(10)
    assert pool == ([(2, 2), (2, 2)] if pooled else [])
    assert max(a.size for a in _arrays(wide)) == cfg.rounds + 1
    assert abs(len(pickle.dumps(wide)) - len(pickle.dumps(narrow))) <= 64


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_seeds_split_into_chunks_of_equal_width_a_multiple_of_the_workers(workers):
    for width in range(1, 9):
        for seeds in range(1, 60):
            spans = evolution._spans(seeds, width, workers)
            widths = [len(ids) for ids in spans]
            assert [i for ids in spans for i in ids] == list(range(seeds))
            assert max(widths) <= width and max(widths) - min(widths) <= 1
            assert widths == sorted(widths, reverse=True)
            # the fewest chunks, rounded up to a multiple of the workers
            least = -(-seeds // width)
            if seeds >= workers * -(-least // workers):
                assert len(spans) % workers == 0 and len(spans) - least < workers
            else:  # too few seeds for that: one per chunk
                assert widths == [1] * seeds
    # ensemble-mi's 400 runs at the default M = 4, K = 1000, on 2 workers
    assert [len(ids) for ids in evolution._spans(400, chunk_size(4, 1000), 2)] == [100] * 4
    assert [len(ids) for ids in evolution._spans(41, chunk_size(4, 1000), workers)] == {
        1: [41], 2: [21, 20], 3: [14, 14, 13],
    }[workers]
    # a large space runs one seed per chunk
    for agents in (3, 4):
        assert evolution._spans(5, chunk_size(agents, 100_000), workers) == [
            range(s, s + 1) for s in range(5)
        ]


@pytest.mark.parametrize("seeds, chunks", [(3 * CHUNK, 3), (3 * CHUNK + 1, 6), (2, 2)])
def test_three_cpus_take_a_multiple_of_three_chunks_where_the_seeds_allow(
    monkeypatch, small_chunks, pool, seeds, chunks
):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(seeds))
    pooled = _together(cfg, seeds, None)
    assert pool == [(chunks, min(3, len(seeds)))]
    assert pooled == _alone(cfg, seeds, None)


def test_failing_seeds_fail_alike_in_the_pool(small_chunks, pool):
    evo, seeds, inputs = _failing()
    pooled = _together(evo, seeds, **inputs)
    assert pool == [(4, 2)]  # 12 seeds, 4 chunks of 3
    assert pooled == _alone(evo, seeds, **inputs)
    assert 0 < sum(o[0] == "failed" for o in pooled) < len(seeds)


def test_the_pool_leaves_no_process_behind(small_chunks, pool):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(3 * CHUNK))
    assert len(list(run_batch(_pops(seeds), cfg, seeds))) == len(seeds)
    assert multiprocessing.active_children() == []
    results = run_batch(_pops(seeds), cfg, seeds)
    next(results)
    assert multiprocessing.active_children()  # the pool's workers
    results.close()
    assert multiprocessing.active_children() == []

    def broken(r, pt, agents, ref):
        return pt.no_such_attribute

    # a worker's exception that is no round error reaches the caller as it
    # was, caused by the worker's traceback
    with pytest.raises(AttributeError, match="no_such_attribute") as raised:
        list(run_batch(_pops(seeds), cfg, seeds, [MetricProbe("broken", broken)], ref=REF))
    assert "in broken" in str(raised.value.__cause__)
    assert multiprocessing.active_children() == []
    assert len(pool) == 3


def _dying(monkeypatch):
    """Make every chunk but the first end its worker process at once."""
    results = evolution._Batch.results

    def dying(batch, ids, pops):
        if ids.start > 0:
            os._exit(3)
        return results(batch, ids, pops)

    monkeypatch.setattr(evolution._Batch, "results", dying)


def test_a_worker_that_dies_ends_the_run_with_a_child_process_error(
    monkeypatch, small_chunks, pool
):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(3 * CHUNK))
    _dying(monkeypatch)
    with pytest.raises(ChildProcessError, match="a run_batch worker process exited mid-run"):
        list(run_batch(_pops(seeds), cfg, seeds))
    assert multiprocessing.active_children() == []
    assert pool == [(4, 2)]


def test_a_worker_leaves_sigint_to_its_parent_and_takes_sigterm_at_its_default(pool):
    # forked from a process with a SIGTERM handler, as cli.main installs one,
    # a worker still dies at once when the parent's stop sends it SIGTERM
    def dispositions(r, pt, agents, ref):
        ignored = signal.getsignal(signal.SIGINT) == signal.SIG_IGN
        return np.full(len(pt), ignored and signal.getsignal(signal.SIGTERM) == signal.SIG_DFL)

    cfg = _config("mle", "identity", False)
    probe = MetricProbe("dispositions", dispositions)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        results = list(run_batch(_pops(SEEDS), cfg, SEEDS, [probe], ref=REF))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert pool == [(2, 2)]
    assert all(t.values["dispositions"].all() for t in results)


def test_a_worker_that_dies_fails_the_cli_in_one_line(monkeypatch, tmp_path, capsys, pool):
    path = tmp_path / "four.cfg"
    path.write_text("space.size=40\nevolution.sample_size=30\nevolution.rounds=5\nexperiment.seeds=4\n")
    _dying(monkeypatch)
    assert cli.main(["simulate", str(path), "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "simulation failed: a run_batch worker process exited mid-run\n"
    assert multiprocessing.active_children() == []
    assert pool == [(2, 2)]


def test_a_daemonic_process_runs_in_process(small_chunks, pool):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(3 * CHUNK))
    reader, writer = multiprocessing.Pipe(duplex=False)

    def child():
        results = run_batch(_pops(seeds), cfg, seeds, keep_states=True)
        writer.send(([_outcome(t) for t in results], pool))

    daemon = multiprocessing.get_context("fork").Process(target=child, daemon=True)
    daemon.start()
    assert reader.poll(60)
    outcomes, made = reader.recv()
    daemon.join(10)
    assert daemon.exitcode == 0
    assert made == []  # no pool in the daemon
    assert outcomes == [_outcome(t) for t in run_batch(_pops(seeds), cfg, seeds, keep_states=True)]
    assert pool == [(4, 2)]  # and one here


def test_the_pool_reads_populations_at_most_one_chunk_per_worker_ahead(small_chunks, pool):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(8 * CHUNK))
    built = []

    def pops():
        for pop in _pops(seeds):
            built.append(pop)
            yield pop

    for i, _ in enumerate(run_batch(pops(), cfg, seeds)):
        # run i is in chunk i // CHUNK, and each of the 2 workers holds one later chunk
        assert len(built) <= min(len(seeds), (i // CHUNK + 1 + 2) * CHUNK)
    assert len(built) == len(seeds)
    assert pool == [(8, 2)]


def test_the_pool_raises_a_later_chunks_config_error_after_the_earlier_results(
    small_chunks, pool
):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(4 * CHUNK))  # 4 chunks of CHUNK on 2 workers
    pops = _pops(seeds)
    got = []
    with pytest.raises(ConfigError, match="one population per seed"):
        for result in run_batch(iter(pops[: 2 * CHUNK]), cfg, seeds):
            got.append(result)
    assert len(got) == 2 * CHUNK
    other = build_population(PopulationSpec(M + 1, "copy"), REF, 0)
    got = []
    with pytest.raises(ConfigError, match="one space and size"):
        for result in run_batch(iter([*pops[:CHUNK], other, *pops[CHUNK + 1 :]]), cfg, seeds):
            got.append(result)
    assert len(got) == CHUNK
    with pytest.raises(ConfigError, match="one population per seed"):
        list(run_batch(iter(pops + pops[:1]), cfg, seeds))
    assert multiprocessing.active_children() == []


# --- one pool for the batches of one call ------------------------------------------

ARMS = ("none", "verifier-ragged", "verifier-annihilation", "cooling-partial", "kl-schedules")


def _calls(cfg, seeds, probes=PROBES, **kw):
    """One batch per ARMS policy, as a comparison hands them to the runner."""
    return [
        evolution._prepare(
            (pop for pop in _pops(seeds)), cfg, seeds, probes, _policies(arm), ref=REF, **kw
        )
        for arm in ARMS
    ]


def test_one_runner_call_runs_all_its_batches_on_one_pool(monkeypatch, small_chunks, pool):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(2 * CHUNK))  # two chunks per batch on 2 workers
    kept = {"monitors": MONITORS, "keep_states": True}
    pooled = list(evolution._run_batches(_calls(cfg, seeds, **kept)))
    assert pool == [(2 * len(ARMS), 2)]  # forked once, not once per batch
    monkeypatch.setattr(evolution, "POOL_ELEMENTS", 2**62)
    alone = [
        result
        for arm in ARMS
        for result in run_batch(_pops(seeds), cfg, seeds, PROBES, _policies(arm), ref=REF, **kept)
    ]
    assert [_kept(r) for r in pooled] == [_kept(r) for r in alone]
    assert [_read_only(r) for r in pooled] == [_read_only(r) for r in alone] == [True] * len(alone)
    assert len(pool) == 1  # each batch alone stayed in process

    # and every batch ran on the same two worker processes
    monkeypatch.setattr(evolution, "POOL_ELEMENTS", 0)

    def pid(r, pt, agents, ref):
        return np.full(len(pt), float(os.getpid()))

    results = list(evolution._run_batches(_calls(cfg, seeds, [MetricProbe("pid", pid)])))
    pids = [
        {
            int(v)
            for t in results[k * len(seeds) : (k + 1) * len(seeds)]
            if not isinstance(t, SimulationError)
            for v in t.values["pid"]
        }
        for k in range(len(ARMS))
    ]
    assert len(pids[0]) == 2 and os.getpid() not in pids[0]
    assert all(p == pids[0] for p in pids)


def test_batches_each_too_small_to_fork_stay_in_process_together(monkeypatch, small_chunks, pool):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(2 * CHUNK))
    calls = _calls(cfg, seeds)
    work = calls[0][2]
    assert all(w == work for *_, w in calls)
    # each batch at the bound, so alone it stays in process; five are over it
    monkeypatch.setattr(evolution, "POOL_ELEMENTS", work)
    assert len(list(evolution._run_batches(calls))) == len(ARMS) * len(seeds)
    assert pool == []
    monkeypatch.setattr(evolution, "POOL_ELEMENTS", work - 1)
    assert len(list(evolution._run_batches(_calls(cfg, seeds)))) == len(ARMS) * len(seeds)
    assert pool == [(2 * len(ARMS), 2)]


def test_a_failing_arm_fails_alone_in_a_pooled_comparison(monkeypatch, small_chunks, pool):
    cfg = config_from_mapping({
        "space.size": str(K), "population.size": str(M), "population.init": "perturbed",
        "population.sigma": "0.4", "evolution.sample_size": "8", "evolution.rounds": "5",
        "experiment.seeds": str(2 * CHUNK),
    })
    # the default arms, the entropy release's prune floor above every outcome's mass
    prune_all = parse_policies_json(
        '[{"kind": "entropy-release", "params": {"prune_floor": 0.9}}]'
    )
    specs = (*default_policy_specs()[:3], *prune_all)
    pooled = run_intervention_comparison(cfg, specs)
    assert pool == [(10, 2)]  # five arms of two chunks, one pool
    assert multiprocessing.active_children() == []
    assert pooled.arm("entropy-release").failures == {
        seed: "round 1: prune floor 0.9 removed all of agent 0's mass" for seed in cfg.seeds
    }
    assert not pooled.baseline.failures
    assert not any(arm.failures for arm in pooled.arms[:3])
    monkeypatch.setattr(evolution, "POOL_ELEMENTS", 2**62)
    assert plain(asdict(pooled)) == plain(asdict(run_intervention_comparison(cfg, specs)))
    assert len(pool) == 1


def test_a_later_batchs_worker_error_follows_the_earlier_results(small_chunks, pool):
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(2 * CHUNK))

    def broken(r, pt, agents, ref):
        return pt.no_such_attribute

    probe = MetricProbe("broken", broken)
    last = evolution._prepare(_pops(seeds), cfg, seeds, [probe], ref=REF)
    calls = [*_calls(cfg, seeds)[:2], last]
    got = []
    with pytest.raises(AttributeError, match="no_such_attribute"):
        for result in evolution._run_batches(calls):
            got.append(result)
    assert len(got) == 2 * len(seeds)
    assert multiprocessing.active_children() == []
    # closed in its second batch, the runner stops the pool
    results = evolution._run_batches(_calls(cfg, seeds))
    for _ in range(len(seeds) + 1):
        next(results)
    assert multiprocessing.active_children()
    results.close()
    assert multiprocessing.active_children() == []
    assert pool == [(6, 2), (10, 2)]


@pytest.mark.parametrize("pooled", [True, False])
def test_a_batchs_extra_population_fails_after_that_batchs_results(
    monkeypatch, small_chunks, pool, pooled
):
    if not pooled:
        monkeypatch.setattr(evolution, "POOL_ELEMENTS", 2**62)
    cfg = _config("mle", "identity", False)
    seeds = tuple(range(2 * CHUNK))  # two chunks per batch
    pops = _pops(seeds)
    calls = [
        evolution._prepare(iter(pops + pops[:1]), cfg, seeds, keep_states=True),
        evolution._prepare(pops, cfg, seeds, keep_states=True),
    ]
    got = []
    with pytest.raises(ConfigError, match="one population per seed"):
        for result in evolution._run_batches(calls):
            got.append(result)
    assert multiprocessing.active_children() == []
    assert pool == ([(4, 2)] if pooled else [])
    # every result of the first batch, and none of the second
    expected = run_batch(pops, cfg, seeds, keep_states=True)
    assert [_outcome(r) for r in got] == [_outcome(r) for r in expected]
