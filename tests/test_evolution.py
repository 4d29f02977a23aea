import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from driftlab import evolution
from driftlab.core import OutcomeSpace, ProbVector, two_tier_reference
from driftlab.errors import ConfigError, DegenerateSelectionError, SimulationError
from driftlab.evolution import (
    EvolutionConfig,
    Population,
    SelectionRule,
    UpdateRule,
    apply_selection,
    make_rng,
    memory_preset,
    mixture,
    neighborhood,
    rl_preset,
    roll_memory,
    run,
    sample_dataset,
    update_agents,
)
from driftlab.harness import trajectory_to_dict
from driftlab.metrics import resolve_probes


def pv(*mass):
    return ProbVector(OutcomeSpace(len(mass)), list(mass))


# The four stages work on a chunk's rows; these run them on one row.


def _rows(pop):
    """A population's weights (1, M) and agents (1, M, K)."""
    return pop.weights[None], np.stack([a.mass for a in pop.agents])[None]


def _mixture(pop):
    return mixture(*_rows(pop))[0]


def _selected(p, rule):
    pt, zero = apply_selection(rule, p.space, p.mass[None])
    assert not zero[0]
    return pt[0]


def _draws(p, n, rng):
    return sample_dataset(p.mass[None], n, [rng])[0]


def _counted(samples, k):
    """Outcome counts (1, K) and size (1,) of one dataset."""
    return evolution._counts(samples, np.array([len(samples)]), k)


def _fitted(rule, samples, k, pbar=None, memory=None):
    """The mass rule fits to samples, and whether the reward tilt wiped it."""
    buffer = None if memory is None else _counted(memory, k)
    pbar = None if pbar is None else pbar[None]
    mass, wiped = update_agents(rule, *_counted(samples, k), pbar, buffer)
    return mass[0], bool(wiped[0])


# --- population / mixture ----------------------------------------------------


def test_mixture_frozen_value():
    pop = Population.equal_weights([pv(0.5, 0.5), pv(0.1, 0.9)])
    assert _mixture(pop).tolist() == [0.3, 0.7]


def test_population_weight_validation():
    agents = [pv(0.5, 0.5), pv(0.1, 0.9)]
    with pytest.raises(ConfigError):
        Population(tuple(agents), np.array([0.5, 0.6]))
    with pytest.raises(ConfigError):
        Population(tuple(agents), np.array([1.0, -0.0001]))
    with pytest.raises(ConfigError):
        Population(tuple(agents), np.array([1.0]))
    with pytest.raises(ConfigError):
        Population.equal_weights([])


def test_population_requires_shared_space():
    from driftlab.errors import SpaceMismatchError

    with pytest.raises(SpaceMismatchError):
        Population.equal_weights([pv(0.5, 0.5), pv(0.2, 0.3, 0.5)])


def test_unequal_weights_respected():
    pop = Population(
        (pv(1.0, 0.0), pv(0.0, 1.0)), np.array([0.25, 0.75])
    )
    assert _mixture(pop).tolist() == [0.25, 0.75]


def _mix_layouts(rng, s, m, k):
    """Agents (S, M, K) in every layout the kernel mixes: the C-contiguous
    array, a Fortran-ordered one, the one-row stride-0 view, and the writable
    strided rows that dropping a row of that view leaves."""
    agents = rng.dirichlet(np.ones(k), size=(s, m))
    row = rng.dirichlet(np.ones(k), size=s + 1)
    view = np.broadcast_to(row[:, None, :], (s + 1, m, k))
    kept = view[np.arange(s + 1) != 1]
    assert kept.flags.writeable and (m == 1 or not kept.flags.c_contiguous)
    return {
        "contiguous": agents,
        "fortran": np.asfortranarray(agents),
        "stride-0": view[:s],
        "kept-rows": kept,
    }


@pytest.mark.parametrize("k", [7, 30, 1000, 100_000])
def test_accumulating_mix_matches_the_broadcast_sum(k):
    # mixture adds agent m = 0..M-1 in turn; the reference is the broadcast-and-sum
    # over a C-contiguous copy of the same agents. Shapes past 2**22 elements are
    # left out: no chunk holds one, as chunk_size runs M * K >= 2**17 one seed at a time
    rng = np.random.default_rng(k)
    for s in (1, 3, 32):
        for m in (1, 2, 3, 4, 6, 7, 13):
            if s * m * k > 2**22:
                continue
            for weights in (np.full((s, m), 1.0 / m), rng.dirichlet(np.ones(m), size=s)):
                for layout, agents in _mix_layouts(rng, s, m, k).items():
                    want = (weights[:, :, None] * np.ascontiguousarray(agents)).sum(axis=1)
                    want /= want.sum(axis=1, keepdims=True)
                    got = mixture(weights, agents)
                    assert got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes(), (s, m, k, layout)


# --- selection ----------------------------------------------------------------


def test_identity_selection_is_noop():
    p = pv(0.3, 0.7)
    assert _selected(p, SelectionRule("identity")).tolist() == [0.3, 0.7]


def test_indicator_selection_renormalizes():
    p = pv(0.2, 0.3, 0.5)
    out = _selected(p, SelectionRule("indicator", indices=(0, 2)))
    np.testing.assert_allclose(out, [2.0 / 7.0, 0.0, 5.0 / 7.0], atol=1e-15)


def test_degenerate_selection_is_hard_error():
    p = pv(0.5, 0.5, 0.0)
    rule = SelectionRule("indicator", indices=(2,))
    pt, zero = apply_selection(rule, p.space, np.stack([p.mass, pv(0.0, 0.5, 0.5).mass]))
    assert zero.tolist() == [True, False]
    assert pt[1].tolist() == [0.0, 0.0, 1.0]
    cfg = EvolutionConfig(sample_size=5, rounds=1, selection=rule)
    with pytest.raises(SimulationError) as err:
        run(Population.equal_weights([p]), cfg)
    assert isinstance(err.value.__cause__, DegenerateSelectionError)
    assert str(err.value.__cause__) == (
        "selection 'indicator' accepts zero total mass; no training distribution exists"
    )


def test_top_mass_selection_tie_break_low_index():
    p = pv(0.25, 0.25, 0.5)
    out = _selected(p, SelectionRule("top-mass", k=2))
    # 0.5 first, then the tie at 0.25 resolves to index 0
    np.testing.assert_allclose(out, [1.0 / 3.0, 0.0, 2.0 / 3.0], atol=1e-15)
    cfg = EvolutionConfig(sample_size=5, rounds=1, selection=SelectionRule("top-mass", k=4))
    with pytest.raises(ConfigError, match="^top-mass k=4 exceeds the space size 3$"):
        evolution.run_batch([Population.equal_weights([p])], cfg, [0])


def test_reward_reweight_frozen_example():
    # acceptance a = exp(r - max r) = (0.5, 1.0) on pbar (0.4, 0.6)
    p = pv(0.4, 0.6)
    rule = SelectionRule("reward-reweight", reward=(math.log(0.5), 0.0), beta=1.0)
    np.testing.assert_allclose(_selected(p, rule), [0.25, 0.75], atol=1e-15)


def test_selection_rule_validation():
    with pytest.raises(ConfigError):
        SelectionRule("nope")
    with pytest.raises(ConfigError):
        SelectionRule("indicator")
    with pytest.raises(ConfigError):
        SelectionRule("top-mass", k=0)
    with pytest.raises(ConfigError):
        SelectionRule("reward-reweight")


@given(
    mass=st.lists(st.floats(1e-4, 1.0), min_size=3, max_size=12),
    beta=st.floats(0.0, 5.0),
)
@settings(max_examples=80, deadline=None)
def test_reward_reweight_preserves_support(mass, beta):
    total = sum(mass)
    p = pv(*[m / total for m in mass])
    reward = tuple(float(i) for i in range(len(mass)))
    out = _selected(p, SelectionRule("reward-reweight", reward=reward, beta=beta))
    assert np.all(out > 0.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)
    if beta > 0.0:
        # tilting toward higher reward never lowers the top outcome's share
        assert out[-1] >= p.mass[-1] - 1e-12


# --- sampling -------------------------------------------------------------------


def test_sampling_deterministic_per_seed():
    p = pv(0.2, 0.3, 0.5)
    a = _draws(p, 1000, make_rng(42))
    b = _draws(p, 1000, make_rng(42))
    c = _draws(p, 1000, make_rng(43))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sampling_never_hits_zero_mass_tail():
    p = pv(0.7, 0.3, 0.0, 0.0)
    draws = _draws(p, 5000, make_rng(0))
    assert draws.max() <= 1


class _ZeroDraws:
    """A generator stub whose uniforms are all exactly 0.0, which rng.random
    returns with probability 2**-53 per draw."""

    def random(self, n):
        return np.zeros(n)


def test_a_zero_uniform_never_draws_a_leading_zero_mass_outcome():
    pt = np.array([[0.0, 0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 1.0], [0.3, 0.7, 0.0, 0.0]])
    draws = sample_dataset(pt, 3, [_ZeroDraws()] * 3)
    assert draws.tolist() == [[1, 1, 1], [3, 3, 3], [0, 0, 0]]


def _unsorted_draw(pt, n, rngs):
    """sample_dataset as it was before the sorted search: one unsorted search per row."""
    cum = np.cumsum(pt, axis=1)
    pos = pt > 0.0
    first_positive = np.argmax(pos, axis=1)
    last_positive = pt.shape[1] - 1 - np.argmax(pos[:, ::-1], axis=1)
    draws = np.empty((len(rngs), n), dtype=np.int64)
    for s, rng in enumerate(rngs):
        draws[s] = cum[s].searchsorted(rng.random(n), side="left")
    np.clip(draws, first_positive[:, None], last_positive[:, None], out=draws)
    return draws


class _CountedDraws:
    """A seeded generator that records its random(n) calls; with a quantum
    its uniforms are floored to multiples of it, so they repeat."""

    def __init__(self, seed, quantum=None):
        self.rng, self.quantum, self.calls = make_rng(seed), quantum, []

    def random(self, n):
        self.calls.append(n)
        u = self.rng.random(n)
        return u if self.quantum is None else np.floor(u / self.quantum) * self.quantum


_DRAW_CASES = 7


def _draw_rows(k, count, first_case):
    """count rows over k outcomes, cycling through the search's edge cases."""
    gen = np.random.default_rng(k + count + first_case)
    rows = np.empty((count, k))
    for i in range(count):
        row = gen.dirichlet(np.ones(k))
        case = (first_case + i) % _DRAW_CASES
        if case == 1:  # leading and trailing zero mass
            row[: max(1, k // 3)] = 0.0
            row[k - k // 3 :] = 0.0
        elif case == 2:  # trailing zero mass only
            row[k - max(1, k // 3) :] = 0.0
        elif case == 3:  # subnormal entries
            row[gen.integers(k, size=max(1, k // 4))] = 5e-324
            row[0] = 2.5e-310
        elif case == 4:  # a single positive outcome
            row[:] = 0.0
            row[gen.integers(k)] = 1.0
        elif case == 5:  # equal masses, whose sums hit dyadic uniforms exactly
            row[:] = 1.0 / k
        rows[i] = row / row.sum()
        if case == 6:  # a cumulative sum that ends below 1, after a zero tail
            rows[i, -1] = 0.0
            rows[i] *= 1.0 - 2.0**-10
    return rows


@pytest.mark.parametrize(
    "rows, k", [(s, k) for s in (1, 3, 32) for k in (2, 7, 1000)] + [(1, 100_000), (3, 100_000)]
)
@pytest.mark.parametrize("uniforms", ["philox", "repeating", "zero"])
def test_sorted_draw_matches_the_unsorted_search_bitwise(rows, k, uniforms):
    n = 257
    for first_case in range(_DRAW_CASES if rows < _DRAW_CASES else 1):
        pt = _draw_rows(k, rows, first_case)
        if uniforms == "zero":
            draws = sample_dataset(pt, n, [_ZeroDraws()] * rows)
            expected = _unsorted_draw(pt, n, [_ZeroDraws()] * rows)
        else:
            quantum = 2.0**-4 if uniforms == "repeating" else None
            rngs = [_CountedDraws(seed, quantum) for seed in range(rows)]
            draws = sample_dataset(pt, n, rngs)
            expected = _unsorted_draw(pt, n, [_CountedDraws(seed, quantum) for seed in range(rows)])
            # one call of n uniforms per generator: the streams are unchanged
            assert [rng.calls for rng in rngs] == [[n]] * rows
        assert draws.dtype == np.int64 and draws.shape == (rows, n)
        assert np.array_equal(draws, expected)


def test_sampling_goodness_of_fit():
    p = pv(0.2, 0.3, 0.5)
    draws = _draws(p, 100_000, make_rng(7))
    counts = np.bincount(draws, minlength=3)
    res = scipy.stats.chisquare(counts, f_exp=np.array([0.2, 0.3, 0.5]) * 100_000)
    assert res.pvalue > 0.001


# --- update rules ----------------------------------------------------------------


def _data(*samples):
    return np.array(samples, dtype=np.int64)


def test_mle_update_frozen():
    mass, wiped = _fitted(UpdateRule("mle"), _data(0, 0, 0, 1), 2)
    assert mass.tolist() == [0.75, 0.25] and not wiped


def test_smoothed_mle_frozen():
    mass, _ = _fitted(UpdateRule("smoothed-mle", lam=1.0), _data(0, 0, 0, 1), 2)
    np.testing.assert_allclose(mass, [4.0 / 6.0, 2.0 / 6.0], atol=1e-15)


def test_memory_buffer_frozen():
    rule = memory_preset(capacity=4, alpha_mem=0.5)
    data = _data(1, 1)
    mass, _ = _fitted(rule, data, 2, memory=roll_memory((0, 0), data, 4))
    # buffer (0,0,1,1) gives (0.5, 0.5); fresh data gives (0, 1); blend halves
    np.testing.assert_allclose(mass, [0.25, 0.75], atol=1e-15)


def test_roll_memory_keeps_most_recent():
    assert roll_memory((1, 2, 3), np.array([4, 5]), 4).tolist() == [2, 3, 4, 5]
    assert roll_memory((), np.array([1]), 3).tolist() == [1]


def test_reward_reweighted_update_fixed():
    rule = UpdateRule(
        "reward-reweighted-mle", beta=1.0, reward=(0.0, math.log(2.0)), reward_source="fixed"
    )
    mass, _ = _fitted(rule, _data(0, 1), 2)
    # counts (1,1) tilted by exp(r - max r) = (0.5, 1)
    np.testing.assert_allclose(mass, [1.0 / 3.0, 2.0 / 3.0], atol=1e-15)


def test_reward_reweighted_update_mixture_loglik():
    mass, _ = _fitted(rl_preset(beta=1.0), _data(0, 1), 2, pbar=pv(0.8, 0.2).mass)
    # tilt = pbar ** 1: counts (1,1) * (0.8, 0.2) -> (0.8, 0.2)
    np.testing.assert_allclose(mass, [0.8, 0.2], atol=1e-15)


def test_reward_tilt_total_annihilation_is_error():
    # all sampled outcomes carry zero mixture mass, tilt kills everything
    _, wiped = _fitted(rl_preset(beta=1.0), _data(0, 0), 2, pbar=pv(0.0, 1.0).mass)
    assert wiped
    # through the round: the indicator selection puts pt on outcome 0, whose
    # mixture mass 1e-200 tilts to 1e-200 ** 2 == 0.0
    cfg = EvolutionConfig(
        sample_size=5, rounds=2, selection=SelectionRule("indicator", indices=(0,)),
        update=rl_preset(beta=2.0),
    )
    with pytest.raises(SimulationError) as err:
        run(Population.equal_weights([pv(1e-200, 1.0)]), cfg)
    assert err.value.round_index == 1
    assert isinstance(err.value.__cause__, ValueError)
    assert str(err.value.__cause__) == evolution._TILT_WIPED


@given(
    counts=st.lists(st.integers(0, 20), min_size=2, max_size=10).filter(
        lambda c: sum(c) > 0
    ),
    lam=st.floats(1e-3, 10.0),
)
@settings(max_examples=80, deadline=None)
def test_smoothed_mle_floor_property(counts, lam):
    k = len(counts)
    samples = [i for i, c in enumerate(counts) for _ in range(c)]
    mass, _ = _fitted(UpdateRule("smoothed-mle", lam=lam), np.array(samples, dtype=np.int64), k)
    n = len(samples)
    floor = lam / (n + lam * k)
    assert np.all(mass >= floor - 1e-15)


def test_neighborhood_dilation():
    s = OutcomeSpace(10)
    assert neighborhood(s, [4], 0).tolist() == [4]
    assert neighborhood(s, [4], 2).tolist() == [2, 3, 4, 5, 6]
    assert neighborhood(s, [0, 9], 1).tolist() == [0, 1, 8, 9]


# --- one round / run ------------------------------------------------------------


def _replay_round(weights, agents, cfg, rng, memory):
    """One bare round of one seed, composed straight from the four stages on
    weights (1, M) and agents (1, M, K) and drawing as run() does: mixture,
    selection, one dataset of n * blocks outcomes, the rolled buffer, then
    the update (agent m fitted to block m with per-agent datasets). Returns
    the agents (1, M, K), dataset, training distribution (1, K) and buffer."""
    _, size, k = agents.shape
    pbar = mixture(weights, agents)
    pt, zero = apply_selection(cfg.selection, OutcomeSpace(k), pbar)
    assert not zero.any()
    n, blocks = cfg.sample_size, size if cfg.per_agent_datasets else 1
    dataset = sample_dataset(pt, n * blocks, [rng])[0]
    rule, buffer = cfg.update, None
    if rule.kind == "memory-buffer":
        memory = roll_memory(memory, dataset, rule.capacity)
        buffer = _counted(memory, k)
    counts, sizes = evolution._counts(dataset, np.full(blocks, n), k)
    pbars = np.repeat(pbar, blocks, axis=0) if rule.reads_mixture else None
    mass, wiped = update_agents(rule, counts, sizes, pbars, buffer)
    assert not wiped.any()
    # one fit per block: every agent's with shared data, agent m's with block m
    return np.broadcast_to(mass[None], agents.shape), dataset, pt, memory


def test_round_composition():
    pop = Population.equal_weights([pv(0.5, 0.5), pv(0.5, 0.5)])
    cfg = EvolutionConfig(sample_size=50, rounds=1)
    replayed, dataset, pt, _ = _replay_round(*_rows(pop), cfg, make_rng(5), ())
    assert len(dataset) == 50
    assert pt.tolist() == [[0.5, 0.5]]
    counts = np.bincount(dataset, minlength=2)
    np.testing.assert_allclose(replayed[0, 0], counts / 50.0, atol=1e-15)
    state = run(pop, cfg, keep_states=True, seed=5).states[1]
    for manual, recorded in zip(replayed[0], state.agents):
        assert np.array_equal(manual, recorded.mass)


def test_per_agent_datasets_give_distinct_agents():
    pop = Population.equal_weights([pv(0.5, 0.5)] * 3)
    cfg = EvolutionConfig(sample_size=51, rounds=1, per_agent_datasets=True)
    replayed, dataset, _, _ = _replay_round(*_rows(pop), cfg, make_rng(5), ())
    assert len(dataset) == 153
    agents = run(pop, cfg, keep_states=True, seed=5).states[1].agents
    masses = [tuple(a.mass.tolist()) for a in agents]
    assert len(set(masses)) > 1
    assert masses == [tuple(row.tolist()) for row in replayed[0]]


def test_the_seed_is_given_to_run_not_to_the_config():
    pop = Population.equal_weights([pv(0.2, 0.3, 0.5)])
    with pytest.raises(TypeError, match="seed"):
        EvolutionConfig(sample_size=5, rounds=3, seed=123)
    cfg = EvolutionConfig(sample_size=5, rounds=3)
    first = run(pop, cfg, keep_states=True).states
    again = run(pop, cfg, keep_states=True, seed=0).states
    other = run(pop, cfg, keep_states=True, seed=123).states
    masses = [[p.agents[0].mass.tobytes() for p in states] for states in (first, again, other)]
    assert masses[0] == masses[1] != masses[2]
    with pytest.raises(ConfigError, match="64 unsigned bits"):
        run(pop, cfg, seed=-1)


def test_per_agent_datasets_rejects_memory_rule():
    with pytest.raises(ConfigError):
        EvolutionConfig(
            sample_size=10, rounds=1, update=memory_preset(capacity=10),
            per_agent_datasets=True,
        )


def test_run_record_structure():
    ref = two_tier_reference(20, safe_mass=0.9, safe_fraction=0.5)
    pop = Population.equal_weights([ref.pi_star] * 2)
    cfg = EvolutionConfig(sample_size=40, rounds=7)
    probes = resolve_probes(("kl_safety", "safe_mass"), default_tau=0.01)
    traj = run(pop, cfg, probes, ref=ref, monitors={"tail": (8, 9)}, seed=1)
    assert traj.rounds == 7
    assert set(traj.values) == {"kl_safety", "safe_mass"}
    columns = [*traj.values.values(), traj.monitor_mass["tail"], traj.monitor_absent["tail"]]
    assert all(column.shape == (8,) for column in columns)
    assert traj.values["kl_safety"][0] == 0.0
    # round 0 precedes any dataset: False in the column, null when exported
    assert traj.monitor_absent["tail"].dtype == bool and not traj.monitor_absent["tail"][0]
    assert trajectory_to_dict(traj)["records"][0]["monitor_absent"] == {"tail": None}
    assert traj.probe_names == ("kl_safety", "safe_mass")


def test_run_probes_require_reference():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    cfg = EvolutionConfig(sample_size=10, rounds=1)
    probes = resolve_probes(("kl_safety",), default_tau=0.01)
    with pytest.raises(ConfigError):
        run(pop, cfg, probes)


_MISFITS = {
    "indicator": dict(selection=SelectionRule("indicator", indices=(0, 3))),
    "top-mass": dict(selection=SelectionRule("top-mass", k=4)),
    "selection reward": dict(selection=SelectionRule("reward-reweight", reward=(0.0, 1.0))),
    "update reward": dict(update=UpdateRule("reward-reweighted-mle", reward=(0.0, 1.0))),
}


@pytest.mark.parametrize("case", _MISFITS)
def test_rules_that_do_not_fit_the_space_fail_at_run_batch_entry(case):
    """A config error for the batch, raised before any round runs, not a
    failed round per seed."""
    pop = Population.equal_weights([pv(0.2, 0.3, 0.5)])
    cfg = EvolutionConfig(sample_size=10, rounds=2, **_MISFITS[case])
    with pytest.raises(ConfigError, match="space|must lie in"):
        evolution.run_batch([pop, pop], cfg, [0, 1])


def test_run_batch_checks_the_reward_length():
    pops = [Population.equal_weights([pv(0.2, 0.3, 0.5)])]
    for owner, rules in (
        ("selection", dict(selection=SelectionRule("reward-reweight", reward=(0.0, 1.0)))),
        ("update", dict(update=UpdateRule("reward-reweighted-mle", reward=(0.0, 1.0)))),
    ):
        cfg = EvolutionConfig(sample_size=5, rounds=1, **rules)
        with pytest.raises(ConfigError, match=f"^{owner} reward vector has length 2, space is 3$"):
            evolution.run_batch(pops, cfg, [0])


def test_rule_fields_the_kind_does_not_read_are_refused():
    with pytest.raises(ConfigError, match="selection kind 'identity' does not read k, beta$"):
        SelectionRule("identity", k=5, beta=1.0)
    with pytest.raises(ConfigError, match="'indicator' does not read reward$"):
        SelectionRule("indicator", indices=(0,), reward=np.zeros(3))
    with pytest.raises(ConfigError, match="update kind 'smoothed-mle' does not read capacity$"):
        UpdateRule("smoothed-mle", lam=1.0, capacity=7)
    with pytest.raises(ConfigError, match="'reward-reweighted-mle' does not read reward$"):
        UpdateRule("reward-reweighted-mle", reward_source="mixture-loglik", reward=(0.0, 1.0))
    # a field at its default is not set, and every kind reads neighborhood_radius
    SelectionRule("identity", indices=[], k=0, reward=None, beta=0.0)
    UpdateRule("mle", lam=0.0, capacity=0, alpha_mem=0.5, reward_source="fixed")
    for rule in (
        UpdateRule("mle", neighborhood_radius=2),
        UpdateRule("smoothed-mle", lam=1.0, neighborhood_radius=2),
        memory_preset(neighborhood_radius=2),
        rl_preset(neighborhood_radius=2),
    ):
        assert rule.neighborhood_radius == 2


def test_run_rejects_empty_monitor():
    pop = Population.equal_weights([pv(0.5, 0.5)])
    cfg = EvolutionConfig(sample_size=10, rounds=1)
    with pytest.raises(ConfigError):
        run(pop, cfg, monitors={"empty": ()})


def test_run_is_deterministic_and_seed_sensitive():
    ref = two_tier_reference(50, safe_mass=0.9, safe_fraction=0.5)
    pop = Population.equal_weights([ref.pi_star] * 2)
    cfg = EvolutionConfig(sample_size=30, rounds=10)
    a = run(pop, cfg, keep_states=True, seed=11)
    b = run(pop, cfg, keep_states=True, seed=11)
    for sa, sb in zip(a.states, b.states):
        for aa, ab in zip(sa.agents, sb.agents):
            assert np.array_equal(aa.mass, ab.mass)
    c = run(pop, cfg, keep_states=True, seed=12)
    assert any(
        not np.array_equal(xa.agents[0].mass, xc.agents[0].mass)
        for xa, xc in zip(a.states, c.states)
    )


def test_per_agent_run_differs_from_shared_run():
    ref = two_tier_reference(1000, safe_mass=0.95, safe_fraction=0.5)
    pop0 = Population.equal_weights([ref.pi_star] * 4)
    shared = run(pop0, EvolutionConfig(sample_size=200, rounds=5), keep_states=True, seed=3)
    per_agent = run(
        pop0,
        EvolutionConfig(sample_size=200, rounds=5, per_agent_datasets=True),
        keep_states=True,
        seed=3,
    )
    final = [tuple(a.mass.tolist()) for a in per_agent.final_population.agents]
    assert len(set(final)) == 4
    assert len({tuple(a.mass.tolist()) for a in shared.final_population.agents}) == 1
    assert not np.array_equal(
        _mixture(shared.final_population), _mixture(per_agent.final_population)
    )


@pytest.mark.parametrize(
    "rule, per_agent, selection",
    [
        (UpdateRule("mle"), False, SelectionRule("identity")),
        (UpdateRule("smoothed-mle", lam=0.5), False, SelectionRule("identity")),
        (UpdateRule("mle"), True, SelectionRule("identity")),
        (UpdateRule("smoothed-mle", lam=0.5), True, SelectionRule("identity")),
        (memory_preset(capacity=60), False, SelectionRule("identity")),
        (rl_preset(beta=1.5), False, SelectionRule("identity")),
        (UpdateRule("mle"), False, SelectionRule("top-mass", k=20)),
        (UpdateRule("mle"), True, SelectionRule("top-mass", k=20)),
    ],
    ids=[
        "mle-shared", "smoothed-mle-shared", "mle-per-agent", "smoothed-mle-per-agent",
        "memory-buffer-shared", "rl-shared", "top-mass-shared", "top-mass-per-agent",
    ],
)
def test_run_matches_manual_round_replay(rule, per_agent, selection):
    """run() must consume randomness exactly like the documented round stages."""
    ref = two_tier_reference(30, safe_mass=0.9, safe_fraction=0.5)
    pop0 = Population.equal_weights([ref.pi_star] * 3)
    cfg = EvolutionConfig(
        sample_size=25, rounds=8, selection=selection, update=rule,
        per_agent_datasets=per_agent,
    )
    traj = run(pop0, cfg, keep_states=True, seed=21)
    rng = make_rng(21)
    (weights, agents), memory = _rows(pop0), ()
    for r in range(1, cfg.rounds + 1):
        agents, dataset, _, memory = _replay_round(weights, agents, cfg, rng, memory)
        assert len(dataset) == (3 if per_agent else 1) * 25
        for manual, recorded in zip(agents[0], traj.states[r].agents):
            assert np.array_equal(manual, recorded.mass)
    # per-agent datasets keep the agents apart; shared data makes them coincide
    assert len({tuple(row.tolist()) for row in agents[0]}) == (3 if per_agent else 1)


def test_per_agent_verifier_annihilation_skips_only_that_agent():
    from driftlab.core import SafetyReference
    from driftlab.interventions import VerifierPolicy

    ref = SafetyReference(pv(0.9, 0.1), [0], 0.2)
    pop0 = Population.equal_weights([pv(0.5, 0.5)] * 4)
    # one sample per agent: the perfect verifier empties exactly the chunks
    # that drew the unsafe outcome (agents 1 and 2 at this seed)
    cfg = EvolutionConfig(sample_size=1, rounds=1, per_agent_datasets=True)
    traj = run(pop0, cfg, intervention=VerifierPolicy(ref), keep_states=True, seed=4)
    masses = [a.mass.tolist() for a in traj.states[1].agents]
    assert masses == [[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [1.0, 0.0]]
    assert traj.fired == ((1, "verifier"),)
    assert traj.notes == ((1, "verifier-annihilation: update skipped"),) * 2


def test_absence_flag_of_an_annihilation_round_reads_the_data_before_that_verifier():
    from driftlab.core import SafetyReference
    from driftlab.interventions import VerifierPolicy

    pi = pv(0.4, 0.3, 0.2, 0.1)
    ref = SafetyReference(pi, (0, 1), 0.35)
    # fp=1 drops every safe sample and fn_rate=0 every unsafe one, so each
    # round's verifier empties the dataset and the update is skipped
    verifier = VerifierPolicy(ref, fp=1.0, fn_rate=0.0)
    cfg = EvolutionConfig(sample_size=20, rounds=3)
    pop0 = Population.equal_weights([pi] * 2)
    traj = run(pop0, cfg, intervention=verifier, monitors={"zero": (0,)}, seed=1)
    assert traj.notes == tuple((r, "verifier-annihilation: update skipped") for r in (1, 2, 3))
    assert np.array_equal(traj.final_population.agents[0].mass, pi.mass)
    # the annihilated block keeps the samples it held before the verifier,
    # and those hit outcome 0: the flag reads "present" although the
    # verifier kept nothing
    assert traj.monitor_absent["zero"].tolist() == [False] * 4


def test_isolation_reference_cannot_touch_dynamics():
    """Bitwise-equal trajectories under different references, same seed."""
    ref_a = two_tier_reference(40, safe_mass=0.9, safe_fraction=0.5)
    ref_b = two_tier_reference(40, safe_mass=0.6, safe_fraction=0.25)
    pop = Population.equal_weights([pv(*([1.0 / 40] * 39 + [1.0 / 40]))] * 2)
    # same initial population measured against two different references
    cfg = EvolutionConfig(sample_size=35, rounds=12)
    probes = resolve_probes(("kl_safety", "safe_mass"), default_tau=0.01)
    ta = run(pop, cfg, probes, ref=ref_a, keep_states=True, seed=3)
    tb = run(pop, cfg, probes, ref=ref_b, keep_states=True, seed=3)
    for sa, sb in zip(ta.states, tb.states):
        for aa, ab in zip(sa.agents, sb.agents):
            assert np.array_equal(aa.mass, ab.mass)
    # the measurements themselves do differ, proving the probes saw different refs
    assert ta.values["safe_mass"][0] != tb.values["safe_mass"][0]


def test_simulation_error_carries_round_index():
    # selection demands an outcome the population gives zero mass: the very
    # first snapshot is already impossible and must fail as a simulation
    # error with the round it died in, not as a bare selection error
    pop = Population.equal_weights([pv(1.0, 0.0)])
    cfg_bad = EvolutionConfig(
        sample_size=5,
        rounds=50,
        selection=SelectionRule("indicator", indices=(1,)),
    )
    with pytest.raises(SimulationError) as err:
        run(pop, cfg_bad, seed=0)
    assert err.value.round_index == 0
    assert isinstance(err.value.__cause__, DegenerateSelectionError)


def test_uniform_population_mixture_unchanged_by_update_shape():
    # with shared data, agents coincide after the update regardless of how
    # distinct they start
    pop = Population.equal_weights([pv(0.9, 0.1), pv(0.1, 0.9)])
    cfg = EvolutionConfig(sample_size=100, rounds=1)
    final = run(pop, cfg, seed=9).final_population
    assert np.array_equal(final.agents[0].mass, final.agents[1].mass)
    replayed = _replay_round(*_rows(pop), cfg, make_rng(9), ())[0]
    assert np.array_equal(replayed[0, 0], final.agents[0].mass)
