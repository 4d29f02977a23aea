"""The self-evolution operator: mixture, selection, sampling, update.

One round maps a population of agent distributions to its successor:

    pbar = sum_m w_m * agent_m                  (mixture)
    pt   = acceptance * pbar / Z                (selection)
    D    = n i.i.d. draws from pt               (sampling)
    each agent := estimator fitted to D         (update)

With per-agent datasets the round draws n * M outcomes instead and agent m is
fitted to its own block of n. _round is the one implementation of this
operator; step() and run() both call it.

This module deliberately knows nothing about the safety reference. It does
not import SafetyReference and no function here accepts one; the closed loop
cannot read the target it is drifting from. Measurement probes and
intervention policies are passed in as opaque callables/objects that may hold
a reference internally, which keeps any such access an explicit, visible
breach at the caller's construction site rather than something the dynamics
could do quietly.

Randomness: a counter-based Philox generator per run, seeded with a 64-bit
integer. Sampling is inverse-CDF over the cumulative mass vector with exact
boundary ties resolved toward the lower index, so trajectories are bit-exact
reproducible for a given (config, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import OutcomeSpace, ProbVector, _derived, require_same_space
from .errors import (
    ConfigError,
    DegenerateSelectionError,
    SimulationError,
    VerifierAnnihilationError,
)

MAX_SEED = 2**64


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one run; 64-bit unsigned seed."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not (0 <= int(seed) < MAX_SEED):
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))


@dataclass(frozen=True, eq=False)
class Population:
    """Immutable snapshot of the agent ensemble and its mixture weights."""

    agents: tuple[ProbVector, ...]
    weights: np.ndarray

    def __post_init__(self):
        if len(self.agents) == 0:
            raise ConfigError("population needs at least one agent")
        space = self.agents[0].space
        for a in self.agents[1:]:
            require_same_space(self.agents[0], a)
        w = np.array(self.weights, dtype=np.float64, copy=True)
        if w.ndim != 1 or w.shape[0] != len(self.agents):
            raise ConfigError(
                f"weights must have shape ({len(self.agents)},), got {w.shape}"
            )
        if not np.all(np.isfinite(w)) or np.any(w < 0.0):
            raise ConfigError("mixture weights must be finite and non-negative")
        total = float(w.sum())
        if abs(total - 1.0) > 1e-6:
            raise ConfigError(f"mixture weights sum to {total!r}, not 1 within 1e-6")
        w /= total
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "agents", tuple(self.agents))
        object.__setattr__(self, "_space", space)

    @property
    def space(self) -> OutcomeSpace:
        return self._space  # type: ignore[attr-defined]

    @property
    def size(self) -> int:
        return len(self.agents)

    @classmethod
    def equal_weights(cls, agents: Sequence[ProbVector]) -> "Population":
        m = len(agents)
        # an empty population is rejected by __post_init__
        return cls(tuple(agents), np.full(m, 1.0 / max(m, 1)))

    def _successor(self, agents: Sequence[ProbVector]) -> "Population":
        """The next population: `agents`, derived from this one's on its
        space, with this one's validated weights."""
        pop = object.__new__(Population)
        object.__setattr__(pop, "agents", tuple(agents))
        object.__setattr__(pop, "weights", self.weights)
        object.__setattr__(pop, "_space", self._space)  # type: ignore[attr-defined]
        return pop


def mixture(pop: Population) -> ProbVector:
    """Weighted mixture of the agent distributions."""
    stacked = np.stack([a.mass for a in pop.agents])
    # broadcast-and-sum instead of a BLAS dot keeps summation order fixed
    pbar = (pop.weights[:, None] * stacked).sum(axis=0)
    return _derived(pop.space, pbar)


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

_SELECTION_KINDS = ("identity", "indicator", "top-mass", "reward-reweight")


def _check_beta(owner: str, beta: float) -> None:
    if not 0.0 <= beta < math.inf:
        raise ConfigError(f"{owner} beta must be finite and >= 0, got {beta}")


def _finite_rewards(owner: str, reward: Sequence[float]) -> tuple[float, ...]:
    """The reward vector as floats; r - max(r) must not overflow to -inf."""
    r = tuple(float(x) for x in reward)
    if not all(math.isfinite(x) for x in r) or (r and not math.isfinite(max(r) - min(r))):
        raise ConfigError(f"{owner} reward entries and their spread must be finite")
    return r


@dataclass(frozen=True)
class SelectionRule:
    """Acceptance-based reshaping of the mixture before sampling.

    kinds:
      identity         a(z) = 1 everywhere
      indicator        a(z) = 1 on a fixed outcome set, else 0 (this is how a
                       safety-verifier selection gets attached: the wrapping
                       intervention constructs it from the safe set, making
                       the reference access explicit at that call site)
      top-mass         a(z) = 1 on the k heaviest mixture outcomes (ties
                       toward the lower index), else 0
      reward-reweight  a(z) = exp(beta * (r(z) - max r)), a softmax-style tilt
                       scaled into (0, 1]

    Acceptance depends only on the current state and the rule's own fixed
    parameters.
    """

    kind: str
    indices: tuple[int, ...] = ()
    k: int = 0
    reward: tuple[float, ...] | None = None
    beta: float = 0.0

    def __post_init__(self):
        if self.kind not in _SELECTION_KINDS:
            raise ConfigError(
                f"unknown selection kind {self.kind!r}; one of {_SELECTION_KINDS}"
            )
        if self.kind == "indicator" and len(self.indices) == 0:
            raise ConfigError("indicator selection needs a non-empty index set")
        if self.kind == "top-mass" and self.k < 1:
            raise ConfigError(f"top-mass selection needs k >= 1, got {self.k}")
        if self.kind == "reward-reweight":
            if self.reward is None:
                raise ConfigError("reward-reweight selection needs a reward vector")
            _check_beta("selection", self.beta)
            object.__setattr__(self, "reward", _finite_rewards("selection", self.reward))
        if self.kind == "indicator":
            object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))


def acceptance_vector(rule: SelectionRule, pbar: ProbVector) -> np.ndarray:
    k_space = pbar.space.size
    if rule.kind == "identity":
        return np.ones(k_space)
    if rule.kind == "indicator":
        idx = pbar.space.validate_indices(rule.indices)
        a = np.zeros(k_space)
        a[idx] = 1.0
        return a
    if rule.kind == "top-mass":
        if rule.k > k_space:
            raise ConfigError(f"top-mass k={rule.k} exceeds the space size {k_space}")
        order = np.argsort(-pbar.mass, kind="stable")
        a = np.zeros(k_space)
        a[order[: rule.k]] = 1.0
        return a
    # reward-reweight; SelectionRule admits no other kind
    r = np.asarray(rule.reward, dtype=np.float64)
    if r.shape[0] != k_space:
        raise ConfigError(
            f"selection reward vector has length {r.shape[0]}, space is {k_space}"
        )
    return np.exp(rule.beta * (r - r.max()))


def apply_selection(pbar: ProbVector, rule: SelectionRule) -> ProbVector:
    """Training distribution pt = a * pbar / Z; zero Z is a hard error."""
    a = acceptance_vector(rule, pbar)
    scaled = a * pbar.mass
    z = float(scaled.sum())
    if z <= 0.0:
        raise DegenerateSelectionError(
            f"selection {rule.kind!r} accepts zero total mass; no training "
            "distribution exists"
        )
    return _derived(pbar.space, scaled / z)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_dataset(pt: ProbVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws from pt as a read-only int64 index array.

    Exact boundary ties go to the lower index.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"sample size must be a positive integer, got {n!r}")
    cum = np.cumsum(pt.mass)
    u = rng.random(int(n))
    idx = np.searchsorted(cum, u, side="left")
    # u beyond the last cumulative point (float shortfall) lands on the last
    # positive-mass outcome, never on trailing zero-mass outcomes
    last_positive = int(np.flatnonzero(pt.mass)[-1])
    samples = np.minimum(idx, last_positive).astype(np.int64)
    samples.setflags(write=False)
    return samples


# ---------------------------------------------------------------------------
# Update rules
# ---------------------------------------------------------------------------

_UPDATE_KINDS = ("mle", "smoothed-mle", "memory-buffer", "reward-reweighted-mle")
_REWARD_SOURCES = ("fixed", "mixture-loglik")


@dataclass(frozen=True)
class UpdateRule:
    """How an agent refits itself to its round dataset.

    kinds:
      mle                   empirical frequencies
      smoothed-mle          (count_i + lam) / (n + lam * K)
      memory-buffer         blend of buffer-empirical and data-empirical,
                            buffer = most recent `capacity` samples seen
      reward-reweighted-mle empirical frequencies tilted by exp(beta * r_i);
                            reward_source "mixture-loglik" uses r = ln pbar_t
                            (self-consistency reward computed from the current
                            mixture), "fixed" uses the given vector

    neighborhood_radius realizes the neighborhood operator on the index line:
    N(A) dilates A by that many indices on each side. It affects absence
    bookkeeping, never the update arithmetic itself.
    """

    kind: str
    lam: float = 0.0
    capacity: int = 0
    alpha_mem: float = 0.5
    beta: float = 0.0
    reward: tuple[float, ...] | None = None
    reward_source: str = "fixed"
    neighborhood_radius: int = 0

    def __post_init__(self):
        if self.kind not in _UPDATE_KINDS:
            raise ConfigError(
                f"unknown update kind {self.kind!r}; one of {_UPDATE_KINDS}"
            )
        if self.kind == "smoothed-mle" and not 0.0 < self.lam < math.inf:
            raise ConfigError(f"smoothed-mle needs a finite lam > 0, got {self.lam}")
        if self.kind == "memory-buffer":
            if self.capacity < 1:
                raise ConfigError(f"memory-buffer needs capacity >= 1, got {self.capacity}")
            if not (0.0 <= self.alpha_mem <= 1.0):
                raise ConfigError(
                    f"memory blend alpha must lie in [0, 1], got {self.alpha_mem}"
                )
        if self.kind == "reward-reweighted-mle":
            if self.reward_source not in _REWARD_SOURCES:
                raise ConfigError(
                    f"unknown reward source {self.reward_source!r}; one of {_REWARD_SOURCES}"
                )
            if self.reward_source == "fixed" and self.reward is None:
                raise ConfigError("fixed-reward update needs a reward vector")
            _check_beta("update", self.beta)
            if self.reward is not None:
                object.__setattr__(self, "reward", _finite_rewards("update", self.reward))
        if self.neighborhood_radius < 0:
            raise ConfigError(
                f"neighborhood radius must be >= 0, got {self.neighborhood_radius}"
            )


def rl_preset(beta: float = 1.0, neighborhood_radius: int = 0) -> UpdateRule:
    """Reward-loop flavor: frequencies tilted by likelihood under the current mixture."""
    return UpdateRule(
        "reward-reweighted-mle",
        beta=beta,
        reward_source="mixture-loglik",
        neighborhood_radius=neighborhood_radius,
    )


def memory_preset(
    capacity: int = 2000, alpha_mem: float = 0.5, neighborhood_radius: int = 0
) -> UpdateRule:
    """Experience-retention flavor: blend of buffered history and fresh data."""
    return UpdateRule(
        "memory-buffer",
        capacity=capacity,
        alpha_mem=alpha_mem,
        neighborhood_radius=neighborhood_radius,
    )


def roll_memory(
    memory: Sequence[int] | np.ndarray, samples: np.ndarray, capacity: int
) -> np.ndarray:
    """Append the round's samples and keep the most recent `capacity` entries."""
    merged = np.concatenate([np.asarray(memory, dtype=np.int64), samples])
    return merged[-capacity:]


def _empirical(space: OutcomeSpace, samples: np.ndarray) -> np.ndarray:
    counts = np.bincount(samples, minlength=space.size).astype(np.float64)
    return counts / float(samples.shape[0])


def update_agents(
    pop: Population,
    samples: np.ndarray,
    rule: UpdateRule,
    memory: Sequence[int] | np.ndarray = (),
) -> Population:
    """Fit the estimator to the int64 `samples` and give the result to every agent.

    Weights are unchanged. In a shared-data round this is the whole update,
    so all agents coincide afterwards; a per-agent round keeps only agent m
    of the fit to agent m's dataset. `memory` is the buffer already rolled
    over this round's samples (see roll_memory), read by the memory-buffer
    rule and ignored by the other kinds.
    """
    if len(samples) == 0:
        raise ValueError("cannot update from an empty dataset")
    space = pop.space
    # an index past K would lengthen the bincount into a wrong-shaped agent
    if int(samples.min()) < 0 or int(samples.max()) >= space.size:
        raise ValueError("dataset contains out-of-space outcome indices")
    n = float(len(samples))
    k_space = space.size

    if rule.kind == "mle":
        mass = _empirical(space, samples)
    elif rule.kind == "smoothed-mle":
        counts = np.bincount(samples, minlength=k_space).astype(np.float64)
        denominator = n + rule.lam * k_space
        if denominator == math.inf:
            raise ValueError(f"smoothing lam={rule.lam} times K={k_space} overflows")
        mass = (counts + rule.lam) / denominator
    elif rule.kind == "memory-buffer":
        if len(memory) == 0:
            raise ValueError("the memory-buffer rule needs the rolled buffer")
        buffer_emp = _empirical(space, np.asarray(memory, dtype=np.int64))
        data_emp = _empirical(space, samples)
        mass = rule.alpha_mem * buffer_emp + (1.0 - rule.alpha_mem) * data_emp
    else:  # reward-reweighted-mle; UpdateRule admits no other kind
        counts = np.bincount(samples, minlength=k_space).astype(np.float64)
        if rule.reward_source == "mixture-loglik":
            pbar = mixture(pop)
            # exp(beta * ln pbar) = pbar ** beta, and 0 ** beta = 0 keeps
            # unsupported outcomes at zero weight without -inf arithmetic
            tilt = pbar.mass ** rule.beta if rule.beta != 0.0 else np.ones(k_space)
        else:
            r = np.asarray(rule.reward, dtype=np.float64)
            if r.shape[0] != k_space:
                raise ConfigError(
                    f"update reward vector has length {r.shape[0]}, space is {k_space}"
                )
            tilt = np.exp(rule.beta * (r - r.max()))
        weighted = counts * tilt
        total = float(weighted.sum())
        if total <= 0.0:
            raise ValueError(
                "reward tilt drove every sampled outcome's weight to zero; "
                "the reweighted estimate is undefined"
            )
        mass = weighted / total

    return pop._successor((_derived(space, mass),) * pop.size)


def neighborhood(space: OutcomeSpace, indices: Iterable[int], radius: int) -> np.ndarray:
    """Dilate an outcome set by `radius` positions on the index line."""
    idx = space.validate_indices(indices)
    if radius == 0 or idx.size == 0:
        return idx
    mask = np.zeros(space.size, dtype=bool)
    for i in idx:
        mask[max(0, int(i) - radius) : min(space.size, int(i) + radius + 1)] = True
    return np.nonzero(mask)[0]


# ---------------------------------------------------------------------------
# Round composition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvolutionConfig:
    """One closed-loop run.

    By default a round draws one dataset of sample_size outcomes and every
    agent refits to it, so all agents coincide after round 1. With
    per_agent_datasets the round draws sample_size * M outcomes in one call
    and agent m refits to the m-th block of sample_size, so agents stay
    distinct.
    """

    sample_size: int
    rounds: int
    selection: SelectionRule = field(default_factory=lambda: SelectionRule("identity"))
    update: UpdateRule = field(default_factory=lambda: UpdateRule("mle"))
    seed: int = 0
    per_agent_datasets: bool = False

    def __post_init__(self):
        if not isinstance(self.sample_size, (int, np.integer)) or self.sample_size < 1:
            raise ConfigError(f"sample_size must be a positive integer, got {self.sample_size!r}")
        if not isinstance(self.rounds, (int, np.integer)) or self.rounds < 1:
            raise ConfigError(f"rounds must be a positive integer, got {self.rounds!r}")
        if not isinstance(self.seed, (int, np.integer)) or isinstance(self.seed, bool):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not (0 <= int(self.seed) < MAX_SEED):
            raise ConfigError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        if self.per_agent_datasets and self.update.kind == "memory-buffer":
            raise ConfigError(
                "per-agent datasets are not supported with the memory-buffer rule"
            )


class StepResult(NamedTuple):
    """One applied round. The first three fields are the operator's output
    proper (with per-agent datasets, dataset holds every agent's block in
    agent order); memory is the buffer as an int64 array, rolled over the
    round's samples under the memory-buffer rule."""

    population: Population
    dataset: np.ndarray
    training_dist: ProbVector
    memory: np.ndarray


# a round that raises one of these aborts the run as a SimulationError
_ROUND_ERRORS = (
    DegenerateSelectionError,
    VerifierAnnihilationError,
    ValueError,
    FloatingPointError,
)


class _Round(NamedTuple):
    """State one _round call hands to the next, plus what its record needs."""

    population: Population
    memory: np.ndarray
    training_dist: ProbVector | None = None  # what the next round samples from
    next_fired: tuple[str, ...] = ()  # diversity policies that shaped it
    datasets: tuple[np.ndarray, ...] = ()  # consumed by this round's update
    fired: tuple[str, ...] = ()
    notes: tuple[str, ...] = ()


def _round(
    prev: _Round,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
    r: int,
    groups: dict[str, list],
    checkpoints: dict[int, Population],
) -> _Round:
    """Round r of the operator; the set-up before round 1 if prev has no pt.

    Round r samples from prev.training_dist, screens each dataset with the
    verifiers in agent order, refits, then applies entropy release and
    cooling. Every call ends by mixing and selecting the resulting population,
    diversity for round r+1 included. That distribution is both what round
    r+1 samples from and what the record of round r measures.
    """
    pop, memory = prev.population, prev.memory
    fired, notes = list(prev.next_fired), []
    datasets: list[np.ndarray] = []
    if prev.training_dist is not None:
        blocks = pop.size if cfg.per_agent_datasets else 1
        draw = sample_dataset(prev.training_dist, cfg.sample_size * blocks, rng)
        datasets = np.split(draw, blocks)
        live = list(range(len(datasets)))
        for pol in groups["verifier"]:
            if not live:
                break
            if pol.fires(r, pop):
                fired.append(pol.kind)
                for m in tuple(live):
                    try:
                        datasets[m] = pol.filter_dataset(datasets[m], rng)
                    except VerifierAnnihilationError:
                        notes.append("verifier-annihilation: update skipped")
                        live.remove(m)
        rule = cfg.update
        if live and cfg.per_agent_datasets:
            agents = list(pop.agents)
            for m in live:
                agents[m] = update_agents(pop, datasets[m], rule).agents[m]
            pop = pop._successor(agents)
        elif live:
            if rule.kind == "memory-buffer":
                memory = roll_memory(memory, datasets[0], rule.capacity)
            pop = update_agents(pop, datasets[0], rule, memory)
        for pol in groups["entropy-release"]:
            if pol.fires(r, pop):
                pop = pol.adjust_population(pop)
                fired.append(pol.kind)
                if getattr(pol, "prune_memory", False) and len(memory):
                    kept = pol.prune_buffer(memory)
                    if len(kept) != len(memory):
                        notes.append(f"memory prune dropped {len(memory) - len(kept)} samples")
                    memory = kept
        for pol in groups["cooling"]:
            if pol.fires(r, pop):
                pop, checkpoints[id(pol)], rolled = pol.cool(pop, checkpoints[id(pol)])
                if rolled:
                    fired.append(pol.kind)
                    notes.append("cooling-rollback")
                else:
                    notes.append("cooling-refresh")
    pt = apply_selection(mixture(pop), cfg.selection)
    next_fired = []
    for pol in groups["diversity"]:
        if pol.fires(r + 1, pop):
            pt = pol.adjust_training(pt)
            next_fired.append(pol.kind)
    return _Round(
        pop, memory, pt, tuple(next_fired), tuple(datasets), tuple(fired), tuple(notes)
    )


def step(
    pop: Population,
    cfg: EvolutionConfig,
    rng: np.random.Generator,
    memory: Sequence[int] | np.ndarray = (),
    round_index: int = 1,
) -> StepResult:
    """Apply one bare round (no interventions)."""
    groups = _group_policies(None)
    start = _Round(pop, np.asarray(memory, dtype=np.int64))
    start = _round(start, cfg, rng, round_index - 1, groups, {})
    out = _round(start, cfg, rng, round_index, groups, {})
    samples = np.concatenate(out.datasets)
    samples.setflags(write=False)
    return StepResult(out.population, samples, start.training_dist, out.memory)


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """Per-round snapshot.

    `values` are probe measurements on P_round, the effective training
    distribution induced by the post-round population (selection applied,
    plus a diversity modification when one is scheduled for the next
    sampling event). The dataset drawn in round r+1 comes from exactly the
    distribution record r describes. monitor_absent[name] says whether the
    data consumed in THIS round (every agent's dataset, after the verifier)
    missed the monitored set's neighborhood entirely (None for record 0,
    which precedes any dataset).
    """

    round: int
    values: dict[str, float]
    fired: tuple[str, ...]
    notes: tuple[str, ...]
    monitor_mass: dict[str, float]
    monitor_absent: dict[str, bool | None]


@dataclass(frozen=True, eq=False)
class Trajectory:
    seed: int
    probe_names: tuple[str, ...]
    records: tuple[TrajectoryRecord, ...]
    monitors: dict[str, tuple[int, ...]]
    final_population: Population
    states: tuple[Population, ...] | None = None

    @property
    def rounds(self) -> int:
        return len(self.records) - 1

    @property
    def initial(self) -> TrajectoryRecord:
        return self.records[0]

    @property
    def terminal(self) -> TrajectoryRecord:
        return self.records[-1]


def _group_policies(intervention) -> dict[str, list]:
    groups: dict[str, list] = {
        kind: [] for kind in ("diversity", "verifier", "entropy-release", "cooling")
    }
    if intervention is None:
        return groups
    policies = (
        list(intervention) if isinstance(intervention, (list, tuple)) else [intervention]
    )
    for pol in policies:
        kind = getattr(pol, "kind", None)
        if kind not in groups:
            raise ConfigError(
                f"intervention object {pol!r} has unknown kind {kind!r}; "
                "expected one of diversity, verifier, entropy-release, cooling"
            )
        groups[kind].append(pol)
    return groups


def run(
    pop0: Population,
    cfg: EvolutionConfig,
    probes: Sequence = (),
    intervention=None,
    *,
    ref=None,
    monitors: Mapping[str, Iterable[int]] | None = None,
    keep_states: bool = False,
    initial_memory: Sequence[int] | np.ndarray = (),
) -> Trajectory:
    """Execute cfg.rounds rounds and record per-round measurements.

    probes are MetricProbe-like objects (name + evaluator(round, pt, pop,
    ref)); they may read the reference because measurement sits outside the
    loop, but the dynamics themselves never touch `ref`. intervention is a
    policy object or sequence of them (see interventions module); multiple
    policies compose in the fixed attachment order diversity -> sampling ->
    verifier -> update -> entropy-release -> cooling regardless of the order
    given. monitors maps names to outcome sets whose training mass and
    dataset-absence flags are recorded every round (the raw material for
    decay estimation). initial_memory seeds the memory-buffer rule's buffer.
    """
    if probes and ref is None:
        raise ConfigError("probes were requested but no reference was given")
    groups = _group_policies(intervention)
    rng = make_rng(cfg.seed)
    space = pop0.space
    radius = cfg.update.neighborhood_radius

    monitor_sets: dict[str, np.ndarray] = {}
    monitor_hoods: dict[str, np.ndarray] = {}
    monitor_names: dict[str, tuple[int, ...]] = {}
    if monitors:
        for name, indices in monitors.items():
            idx = space.validate_indices(indices)
            if idx.size == 0:
                raise ConfigError(f"monitored set {name!r} is empty")
            monitor_sets[name] = idx
            hood_mask = np.zeros(space.size, dtype=bool)
            hood_mask[neighborhood(space, idx, radius)] = True
            monitor_hoods[name] = hood_mask
            monitor_names[name] = tuple(int(i) for i in idx)

    def make_record(r: int, state: _Round) -> TrajectoryRecord:
        pt, pop = state.training_dist, state.population
        values = {p.name: float(p.evaluator(r, pt, pop, ref)) for p in probes}
        mon_mass = {
            name: float(pt.mass[idx].sum()) for name, idx in monitor_sets.items()
        }
        mon_absent = {
            name: None if r == 0 else not any(hood[d].any() for d in state.datasets)
            for name, hood in monitor_hoods.items()
        }
        return TrajectoryRecord(r, values, state.fired, state.notes, mon_mass, mon_absent)

    checkpoints = {id(pol): pol.initial_checkpoint(pop0) for pol in groups["cooling"]}
    state = _Round(pop0, np.asarray(initial_memory, dtype=np.int64))
    records, states = [], []
    for r in range(cfg.rounds + 1):
        try:
            state = _round(state, cfg, rng, r, groups, checkpoints)
            records.append(make_record(r, state))
        except _ROUND_ERRORS as exc:
            raise SimulationError(r, exc) from exc
        if keep_states:
            states.append(state.population)

    return Trajectory(
        seed=int(cfg.seed),
        probe_names=tuple(p.name for p in probes),
        records=tuple(records),
        monitors=monitor_names,
        final_population=state.population,
        states=tuple(states) if keep_states else None,
    )
