"""The reach: rounds that compute on the outcomes each row's data reached.

After an update that puts no mass off its data, a seed's rows are zero
outside the outcomes its datasets and memory buffer hold, and the four
stages run on those columns, one padded index per chunk
(evolution._Chunk._reach). These tests run fixed grids twice, once as is and
once with the reach declined, so that every stage runs on all K outcomes,
and require the same bytes: every probe value, monitor mass and absence
flag, event, kept state, final agent row and failure. On the reach the
registry probes and the monitors measure the rows there, and a reference
with zero entries lets the divergences read finite on it.
"""

import numpy as np
import pytest

from driftlab import evolution
from driftlab.core import OutcomeSpace, SafetyReference, make_prob_vector, two_tier_reference
from driftlab.errors import SimulationError
from driftlab.evolution import (
    EvolutionConfig,
    Population,
    SelectionRule,
    UpdateRule,
    chunk_size,
    run_batch,
)
from driftlab.harness import PolicySpec, PopulationSpec, build_population, realize_policy
from driftlab.metrics import MetricProbe, probe_names, resolve_probes

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
    # past round 0 a row's reach holds at most M * N or N + 50 < 400 outcomes
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
        [pop.weights.tobytes() for pop in result.states],
    )


def _perturbed(ref, seeds):
    return [build_population(PopulationSpec(M, "perturbed", sigma=0.4), ref, s) for s in seeds]


def _run(cfg, policies, monkeypatch, reach: bool, *, ref=REF, pops=None, seeds=SEEDS,
         probes=PROBES, monitors=MONITORS):
    """The outcomes of seeds, which start from pops (perturbed ones of ref by
    default), and for each chunk-round whether it computed on the reach; with
    reach False the gate declines every round."""
    taken = []
    gate = evolution._Chunk._reach

    def recorded(chunk, owner, samples):
        cols, positions = gate(chunk, owner, samples) if reach else (evolution._EVERY, samples)
        taken.append(cols.index is not None)
        return cols, positions

    monkeypatch.setattr(evolution._Chunk, "_reach", recorded)
    pops = _perturbed(ref, seeds) if pops is None else pops
    intervention = [realize_policy(spec, ref) for spec in policies] or None
    results = run_batch(
        pops, cfg, seeds, probes, intervention, ref=ref, monitors=monitors, keep_states=True
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


# the rules with a fixed K-long vector, which a chunk builds once, on a
# space past 10**4: a chunk of 3 rows at M = 3 still holds all three seeds
VECTOR_K = 20_000
VECTOR_REF = two_tier_reference(VECTOR_K, safe_mass=0.9, safe_fraction=0.5)
VECTOR_RULES = {
    "indicator": (
        SelectionRule("indicator", indices=tuple(range(0, VECTOR_K, 3))), UpdateRule("mle")
    ),
    "reward-reweight": (
        SelectionRule("reward-reweight", reward=tuple(np.linspace(1.0, 0.0, VECTOR_K)), beta=3.0),
        UpdateRule("mle"),
    ),
    "reward-fixed": (
        SelectionRule("identity"),
        UpdateRule(
            "reward-reweighted-mle", beta=2.0, reward=tuple(np.linspace(0.0, 1.0, VECTOR_K))
        ),
    ),
}


@pytest.mark.parametrize("per_agent", [False, True])
@pytest.mark.parametrize("case", VECTOR_RULES)
def test_a_rules_vector_at_large_k_gives_the_bytes_of_every_outcome(monkeypatch, case, per_agent):
    assert chunk_size(M, VECTOR_K) >= len(SEEDS)
    selection, update = VECTOR_RULES[case]
    cfg = EvolutionConfig(
        sample_size=N, rounds=6, selection=selection, update=update,
        per_agent_datasets=per_agent,
    )
    run = dict(
        ref=VECTOR_REF, pops=_perturbed(VECTOR_REF, SEEDS),
        probes=resolve_probes(("kl_safety", "safe_mass", "coverage"), default_tau=1e-4),
        monitors={"ends": (0, VECTOR_K - 1), "unsafe": tuple(range(VECTOR_K // 2, VECTOR_K))},
    )
    built = []
    rule_vector = evolution._rule_vector
    monkeypatch.setattr(
        evolution, "_rule_vector", lambda rule, k: built.append(rule) or rule_vector(rule, k)
    )
    on_reach, taken = _run(cfg, (), monkeypatch, True, **run)
    assert built == [selection, update]  # once for the chunk, not once a round
    on_every, _ = _run(cfg, (), monkeypatch, False, **run)
    assert on_reach == on_every
    assert taken and all(taken)
    assert not any(o[0] == "failed" for o in on_reach)


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


# ---------------------------------------------------------------------------
# Rows whose own bound holds in a chunk whose summed bound does not
# ---------------------------------------------------------------------------

ROW_K = 1000
ROW_SEEDS = tuple(range(21))  # 21 * N = 672 samples, past K / 2, in one chunk
ROW_ROUNDS = 5
ROW_REF = two_tier_reference(ROW_K, safe_mass=0.9, safe_fraction=0.5)
ROW_PROBES = resolve_probes(("kl_safety", "internal_entropy"), default_tau=0.001)
ROW_MONITORS = {"ends": (0, ROW_K - 1), "unsafe": tuple(range(ROW_K // 2, ROW_K))}
ROW_UPDATES = {
    **{kind: UPDATES[kind] for kind in ("mle", "memory-buffer", "reward-mixture-loglik")},
    "reward-fixed": UpdateRule(
        "reward-reweighted-mle", beta=1.5, reward=tuple(np.linspace(0.0, 1.0, ROW_K))
    ),
}
ROW_SELECTIONS = {
    "identity": SelectionRule("identity"),
    "indicator": SelectionRule("indicator", indices=tuple(range(600))),
    # past round 0 a row's reach holds at most M * N = 96 or N + 50 outcomes
    "top-mass": SelectionRule("top-mass", k=100),
    "reward-reweight": SelectionRule(
        "reward-reweight", reward=tuple(np.linspace(1.0, 0.0, ROW_K)), beta=2.0
    ),
}
ROW_POLICIES = {
    "none": (),
    # inspects 8 of 32 samples: it shortens datasets and never empties one
    "verifier": (_policy("verifier", fp=0.3, fn_rate=0.5, budget=8),),
}
ROW_GRID = [
    (update, selection, per_agent, policy)
    for update in ROW_UPDATES
    for selection in ROW_SELECTIONS
    for per_agent in (False, True)
    for policy in ROW_POLICIES
    if not (per_agent and update == "memory-buffer")
]


def _ends_heavy(seeds):
    """Perturbed start populations of ROW_REF with a third of each agent's
    mass moved onto each end of the line. Nearly every row then reaches
    outcomes 0 and K - 1 in every round, next to its padding."""
    space = OutcomeSpace(ROW_K)
    pops = []
    for pop in _perturbed(ROW_REF, seeds):
        agents = []
        for agent in pop.agents:
            weights = agent.mass / 3.0
            weights[[0, -1]] += 1.0 / 3.0
            agents.append(make_prob_vector(space, weights))
        pops.append(Population.equal_weights(agents))
    return pops


def _run_rows(cfg, policies, monkeypatch, reach):
    return _run(
        cfg, policies, monkeypatch, reach, ref=ROW_REF, pops=_ends_heavy(ROW_SEEDS),
        seeds=ROW_SEEDS, probes=ROW_PROBES, monitors=ROW_MONITORS,
    )


def test_the_row_grid_fits_each_row_and_not_the_chunk():
    assert chunk_size(M, ROW_K) >= len(ROW_SEEDS)
    # the bound of the chunk, summed over its rows, would decline every round
    assert 2 * len(ROW_SEEDS) * N > ROW_K
    assert 2 * max(M * N, N + UPDATES["memory-buffer"].capacity) <= ROW_K


@pytest.mark.parametrize("update, selection, per_agent, policy", ROW_GRID)
def test_each_row_on_its_own_reach_gives_the_bytes_of_every_outcome(
    monkeypatch, update, selection, per_agent, policy
):
    cfg = EvolutionConfig(
        sample_size=N, rounds=ROW_ROUNDS, selection=ROW_SELECTIONS[selection],
        update=ROW_UPDATES[update], per_agent_datasets=per_agent,
    )
    on_reach, taken = _run_rows(cfg, ROW_POLICIES[policy], monkeypatch, reach=True)
    on_every, _ = _run_rows(cfg, ROW_POLICIES[policy], monkeypatch, reach=False)
    assert on_reach == on_every
    assert sum(o[0] == "failed" for o in on_reach) < len(ROW_SEEDS)
    assert taken and all(taken)


def test_seeds_that_raise_on_their_reach_fail_as_on_every_outcome(monkeypatch):
    # under a raising error state a subnormal blend weight underflows on the
    # buffered outcomes of some rows and not of others, in several rounds;
    # the chunk runs again in halves down to those seeds, each alone on the
    # columns of its own row
    retried = []
    gate = evolution._Chunk._reach

    def spy(chunk, owner, samples):
        cols, positions = gate(chunk, owner, samples)
        if len(chunk.ids) == 1 and cols.index is not None:
            retried.append(len(cols.index))
        return cols, positions

    cfg = EvolutionConfig(
        sample_size=N, rounds=ROW_ROUNDS, selection=SelectionRule("top-mass", k=20),
        update=UpdateRule("memory-buffer", capacity=100, alpha_mem=3e-306),
    )
    outcomes = []
    for reach in (True, False):
        monkeypatch.setattr(evolution._Chunk, "_reach", spy)
        with np.errstate(under="raise"):
            outcomes.append(_run_rows(cfg, (), monkeypatch, reach))
    (on_reach, taken), (on_every, _) = outcomes
    assert on_reach == on_every
    failed = {o[2] for o in on_reach if o[0] == "failed"}
    assert len(failed) > 1 and sum(o[0] == "failed" for o in on_reach) < len(ROW_SEEDS)
    assert all(taken) and retried  # a seed ran alone on its own row's reach


SUBNORMAL = 5e-324


@pytest.mark.parametrize(
    "k_space", [2, 5, 7, 127, 129, 255, 257, 511, 513, 1000, 1023, 1025, 4095, 4097, 100_000]
)
def test_a_reach_row_sum_is_the_sum_of_the_contiguous_dense_row(k_space):
    # sparse rows of mixed magnitudes, subnormals among them, and padding
    rng = np.random.default_rng(k_space)
    rows = 6
    reached = [
        np.sort(rng.choice(k_space, size=min(k_space, w), replace=False))
        for w in rng.integers(1, 40, rows)
    ]
    width = max(len(r) for r in reached)
    index = np.full((rows, width), k_space)
    values = np.zeros((rows, width))
    for s, r in enumerate(reached):
        index[s, : len(r)] = r
        v = rng.random(len(r)) * 10.0 ** rng.integers(-300, 3, len(r))
        v[rng.random(len(r)) < 0.3] = SUBNORMAL * rng.integers(1, 2**20, 1)
        values[s, : len(r)] = v
    zeros = np.zeros(rows * k_space + 1)
    cols = evolution._Columns(index, k_space, zeros)
    dense = np.zeros((rows, k_space))
    for s, r in enumerate(reached):
        dense[s, r] = values[s, : len(r)]
    assert (dense > 0).sum() == sum(len(r) for r in reached)
    assert cols.rowsum(values).tobytes() == dense.sum(axis=1, keepdims=True).tobytes()
    assert cols.dense(values).tobytes() == dense.tobytes()
    assert not zeros.any()  # the scratch is left as it was found
    # a row taken alone sums the same
    for s in range(rows):
        alone = cols[[s]].rowsum(values[[s]])
        assert alone.tobytes() == dense[[s]].sum(axis=1, keepdims=True).tobytes()
    # a sum that raises leaves the borrowed zeros as clean
    huge = evolution._Columns(np.array([[0, k_space - 1]]), k_space, zeros)
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        huge.rowsum(np.array([[1e308, 1e308]]))
    assert not zeros.any()


def test_the_columns_of_every_row_in_order_are_the_columns_themselves():
    index = np.array([[0, 3, 4], [1, 4, 5], [2, 5, 5]])  # K = 5: entries 5 are sinks
    cols = evolution._Columns(index, 5, np.zeros(3 * 5 + 1))
    for every in (np.arange(3), slice(None), np.ones(3, dtype=bool)):
        assert cols[every] is cols
    for rows in (np.array([2, 1, 0]), np.array([0, 0, 1]), np.array([0, 2]), slice(1, 2)):
        taken = cols[rows]
        assert taken is not cols and (taken.index == index[rows]).all()
        assert (taken.dense(np.ones(taken.index.shape)) == cols.dense(np.ones(index.shape))[rows]).all()


@pytest.mark.parametrize("beta", [60, 80])
def test_a_mixture_loglik_tilt_fails_the_same_seeds_on_the_reach_and_off_it(monkeypatch, beta):
    # off a row's data the tilt multiplies a zero count; it is not taken
    # there, so an unsampled outcome of tiny mixture mass cannot underflow it
    # over every outcome when it would not on the reach
    cfg = EvolutionConfig(
        sample_size=N, rounds=ROW_ROUNDS,
        update=UpdateRule("reward-reweighted-mle", beta=beta, reward_source="mixture-loglik"),
    )
    outcomes = []
    for reach in (True, False):
        with np.errstate(under="raise"):
            outcomes.append(_run_rows(cfg, (), monkeypatch, reach))
    (on_reach, taken), (on_every, _) = outcomes
    assert on_reach == on_every
    assert all(taken)
    failed = sum(o[0] == "failed" for o in on_reach)
    assert failed == 0 if beta == 60 else 0 < failed < len(ROW_SEEDS)


# ---------------------------------------------------------------------------
# Probes on the reach against a reference whose support can fit inside it
# ---------------------------------------------------------------------------


def _sparse_reference(k_space, safe, unsafe):
    """pi_star with 0.8 of its mass on the outcomes safe and 0.2 on unsafe,
    zero elsewhere; the safe set is the lower half of the line. A row whose
    reach holds the support reads finite divergences on the reach."""
    mass = np.zeros(k_space)
    mass[list(safe)] = 0.8 / len(safe)
    mass[list(unsafe)] = 0.2 / len(unsafe)
    return SafetyReference(
        make_prob_vector(OutcomeSpace(k_space), mass), tuple(range(k_space // 2)), 0.25
    )


def _leaning(ref, dense_ref, seeds, lean):
    """Perturbed start populations of dense_ref with lean of each agent's mass
    moved onto ref's pi_star: positive everywhere, heaviest on its support."""
    space = ref.pi_star.space
    return [
        Population.equal_weights([
            make_prob_vector(space, (1.0 - lean) * a.mass + lean * ref.pi_star.mass)
            for a in pop.agents
        ])
        for pop in _perturbed(dense_ref, seeds)
    ]


def _dense_reader(t, pt, agents, ref):
    """A custom probe: it gets K-long rows on the reach too."""
    assert pt.shape[1] == agents.shape[2] == ref.pi_star.space.size
    return (agents.sum(axis=1) * pt).sum(axis=1)


SPARSE_REF = _sparse_reference(K, safe=(0, 100, 700, 2047), unsafe=(2048, 4095))
SPARSE_PROBES = (*PROBES, MetricProbe("dense-reader", _dense_reader))
SPARSE_MONITORS = {**MONITORS, "support": (0, 100, 700, 2047, 2048, 4095), "far": (3500, 3501)}
# the probes whose value is finite only where pt holds pi_star's support
FITTING = ("kl_safety", "cross_entropy", "mass_term", "in_safe_term", "out_safe_term")
SPARSE_GRID = [
    (update, selection, per_agent)
    for update in ("mle", "memory-buffer", "reward-mixture-loglik")
    for selection in ("identity", "top-mass")
    for per_agent in (False, True)
    if not (per_agent and update == "memory-buffer")
]


@pytest.mark.parametrize("update, selection, per_agent", SPARSE_GRID)
def test_probes_on_a_reach_that_holds_the_support_give_the_bytes_of_every_outcome(
    monkeypatch, update, selection, per_agent
):
    cfg = _config(update, selection, per_agent)
    run = dict(
        ref=SPARSE_REF, pops=_leaning(SPARSE_REF, REF, SEEDS, 0.6),
        probes=SPARSE_PROBES, monitors=SPARSE_MONITORS,
    )
    on_reach, taken = _run(cfg, (), monkeypatch, True, **run)
    on_every, _ = _run(cfg, (), monkeypatch, False, **run)
    assert on_reach == on_every
    assert taken and all(taken)
    # as custom probes, measured on K-long rows built from the reach
    custom = tuple(MetricProbe(p.name, p.evaluator) for p in SPARSE_PROBES)
    as_custom, _ = _run(cfg, (), monkeypatch, True, **{**run, "probes": custom})
    assert as_custom == on_reach
    # past round 0, which precedes any reach, each probe reads finite for
    # some seed: its reach then held pi_star's support
    for name in FITTING:
        values = [np.frombuffer(o[0][0][name])[1:] for o in on_reach if o[0] != "failed"]
        assert np.isfinite(values).any(), name


WIDE_K = 100_000
WIDE_REF = _sparse_reference(WIDE_K, safe=(0, 7, 31_000, 49_999), unsafe=(50_000, WIDE_K - 1))


def test_one_seed_at_large_k_on_its_reach_gives_the_bytes_of_every_outcome(monkeypatch):
    # a chunk of one row, as every seed of a large space runs: its reach
    # needs no padding; every registry probe, a monitor and kept states
    assert chunk_size(M, WIDE_K) == 1
    cfg = EvolutionConfig(
        sample_size=200, rounds=4,
        update=UpdateRule("memory-buffer", capacity=2000, alpha_mem=0.5, neighborhood_radius=1),
    )
    dense_ref = two_tier_reference(WIDE_K, safe_mass=0.95, safe_fraction=0.5)
    run = dict(
        ref=WIDE_REF, pops=_leaning(WIDE_REF, dense_ref, (0,), 0.5), seeds=(0,),
        probes=resolve_probes(probe_names(), default_tau=1e-4),
        monitors={"support": (0, 7, 31_000, 49_999, 50_000, WIDE_K - 1), "far": (70_000,)},
    )
    on_reach, taken = _run(cfg, (), monkeypatch, True, **run)
    on_every, _ = _run(cfg, (), monkeypatch, False, **run)
    assert on_reach == on_every
    assert taken and all(taken)
    (values, masses, _), *_ = on_reach[0]
    for name in FITTING:  # the buffer holds pi_star's support
        assert np.isfinite(np.frombuffer(values[name])[1:]).all(), name
    assert np.frombuffer(masses["support"]).all()
    assert not np.frombuffer(masses["far"])[1:].any()  # off every reach
