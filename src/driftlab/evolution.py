"""The self-evolution operator: mixture, selection, sampling, update.

One round maps a population of agent distributions to its successor:

    pbar = sum_m w_m * agent_m                  (mixture)
    pt   = acceptance * pbar / Z                (selection)
    D    = n i.i.d. draws from pt               (sampling)
    each agent := estimator fitted to D         (update)

With per-agent datasets the round draws n * M outcomes instead and agent m is
fitted to its own block of n.

The engine advances a chunk of S seeds in lock-step. A chunk's agents are one
(S, M, K) array and its training distributions one (S, K) array, so mixture,
selection, the cumulative sums, the update and every renormalization run once
per chunk and round, as do the policy hooks over the rows they fire for.
What is per seed by nature loops over the rows: the draws, verifier
screening, the cooling check and probes. run_batch is the one
entry point; run() is a batch of one, and a seed's trajectory is
byte-identical whichever chunk it runs in.

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
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import OutcomeSpace, ProbVector, _wrap, require_same_space
from .errors import (
    ConfigError,
    DegenerateSelectionError,
    SimulationError,
    VerifierAnnihilationError,
)

MAX_SEED = 2**64

# A chunk holds max(1, BATCH_ELEMENTS // (M * K)) seeds, so an (S, M, K) array it
# makes stays near 2**17 floats (1 MiB), and shared-data agents, one (S, K) row,
# an M-th of that; a population with M * K >= 2**17 runs one seed at a time.
BATCH_ELEMENTS = 2**17


def chunk_size(agents: int, outcomes: int) -> int:
    """Seeds per lock-step chunk for M agents over K outcomes."""
    return max(1, BATCH_ELEMENTS // (agents * outcomes))


def _check_seed(seed) -> int:
    """The seed as an int; it must be a 64-bit unsigned integer."""
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if not (0 <= int(seed) < MAX_SEED):
        raise ConfigError(f"seed must fit in 64 unsigned bits, got {seed}")
    return int(seed)


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator for one run; 64-bit unsigned seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(_check_seed(seed))))


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

    @staticmethod
    def _trusted(space: OutcomeSpace, weights: np.ndarray, agents: tuple) -> "Population":
        pop = object.__new__(Population)
        object.__setattr__(pop, "agents", agents)
        object.__setattr__(pop, "weights", weights)
        object.__setattr__(pop, "_space", space)
        return pop


def _mix(weights: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """Mixtures (S, K) of agents (S, M, K) under weights (S, M), renormalized."""
    # agent m = 0..M-1 added in turn: for any layout of agents, the bits of
    # (weights[:, :, None] * agents).sum(axis=1) on a C-contiguous array
    pbar = np.multiply(weights[:, 0, None], agents[:, 0], order="C")
    for m in range(1, agents.shape[1]):
        pbar += weights[:, m, None] * agents[:, m]
    pbar /= pbar.sum(axis=1, keepdims=True)
    return pbar


def mixture(pop: Population) -> ProbVector:
    """Weighted mixture of the agent distributions."""
    stacked = np.stack([a.mass for a in pop.agents])
    return _wrap(pop.space, _mix(pop.weights[None], stacked[None])[0])


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


def _reward_tilt(owner: str, beta: float, reward: Sequence[float], k_space: int) -> np.ndarray:
    """exp(beta * (r - max r)), each entry in [0, 1].

    r - max r is clamped at -800 / beta first. A product below -745 already
    gives exactly 0, so no weight changes, but beta times a huge reward
    spread can no longer overflow the multiply.
    """
    r = np.asarray(reward, dtype=np.float64)
    if r.shape[0] != k_space:
        raise ConfigError(f"{owner} reward vector has length {r.shape[0]}, space is {k_space}")
    shifted = r - r.max()
    if beta > 0.0:
        shifted = np.maximum(shifted, -800.0 / beta)
    return np.exp(beta * shifted)


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


def _acceptance(rule: SelectionRule, space: OutcomeSpace, pbar: np.ndarray) -> np.ndarray:
    """Acceptance for mixtures pbar (S, K): shape (K,), or (S, K) for top-mass."""
    k_space = space.size
    if rule.kind == "identity":
        return np.ones(k_space)
    if rule.kind == "indicator":
        a = np.zeros(k_space)
        a[space.validate_indices(rule.indices)] = 1.0
        return a
    if rule.kind == "top-mass":
        if rule.k > k_space:
            raise ConfigError(f"top-mass k={rule.k} exceeds the space size {k_space}")
        order = np.argsort(-pbar, axis=1, kind="stable")
        a = np.zeros_like(pbar)
        np.put_along_axis(a, order[:, : rule.k], 1.0, axis=1)
        return a
    # reward-reweight; SelectionRule admits no other kind
    return _reward_tilt("selection", rule.beta, rule.reward, k_space)


def _select(
    rule: SelectionRule, space: OutcomeSpace, pbar: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Training distributions a * pbar / Z (S, K), and the rows with zero Z.

    Those rows hold placeholders; the caller fails them.
    """
    # identity acceptance is all ones, and 1.0 * x == x
    scaled = pbar if rule.kind == "identity" else _acceptance(rule, space, pbar) * pbar
    z = scaled.sum(axis=1, keepdims=True)
    zero = z[:, 0] <= 0.0
    z[zero] = 1.0
    pt = scaled / z
    pt[zero] = 1.0
    pt /= pt.sum(axis=1, keepdims=True)
    return pt, zero


def _zero_selection(rule: SelectionRule) -> DegenerateSelectionError:
    return DegenerateSelectionError(
        f"selection {rule.kind!r} accepts zero total mass; no training distribution exists"
    )


def apply_selection(pbar: ProbVector, rule: SelectionRule) -> ProbVector:
    """Training distribution pt = a * pbar / Z; zero Z is a hard error."""
    pt, zero = _select(rule, pbar.space, pbar.mass[None])
    if zero[0]:
        raise _zero_selection(rule)
    return _wrap(pbar.space, pt[0])


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _draw(pt: np.ndarray, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """n inverse-CDF draws from each row of pt (S, K), row s from rngs[s].

    Returns a read-only (S, n) int64 array; exact boundary ties go to the
    lower index.
    """
    cum = np.cumsum(pt, axis=1)
    # u beyond the last cumulative point (float shortfall) lands on the last
    # positive-mass outcome and u == 0.0 on the first, never on zero-mass ones
    pos = pt > 0.0
    first_positive = np.argmax(pos, axis=1)
    last_positive = pt.shape[1] - 1 - np.argmax(pos[:, ::-1], axis=1)
    draws = np.empty((len(rngs), n), dtype=np.int64)
    for s, rng in enumerate(rngs):
        draws[s] = cum[s].searchsorted(rng.random(n), side="left")
    np.clip(draws, first_positive[:, None], last_positive[:, None], out=draws)
    draws.setflags(write=False)
    return draws


def sample_dataset(pt: ProbVector, n: int, rng: np.random.Generator) -> np.ndarray:
    """n inverse-CDF draws from pt as a read-only int64 index array.

    Exact boundary ties go to the lower index.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ConfigError(f"sample size must be a positive integer, got {n!r}")
    return _draw(pt.mass[None], int(n), [rng])[0]


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

    @property
    def reads_mixture(self) -> bool:
        return self.kind == "reward-reweighted-mle" and self.reward_source == "mixture-loglik"


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


def _counts(datasets: Sequence[np.ndarray], k_space: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome counts (L, K) of L int64 datasets, from one bincount, and
    their sizes (L,) as floats."""
    sizes = np.array([len(d) for d in datasets], dtype=np.int64)
    offsets = np.repeat(np.arange(len(datasets), dtype=np.int64) * k_space, sizes)
    flat = np.concatenate(datasets) + offsets
    counts = np.bincount(flat, minlength=len(datasets) * k_space)
    return counts.reshape(len(datasets), k_space).astype(np.float64), sizes.astype(np.float64)


_TILT_WIPED = (
    "reward tilt drove every sampled outcome's weight to zero; "
    "the reweighted estimate is undefined"
)


def _fit(
    rule: UpdateRule,
    counts: np.ndarray,
    n: np.ndarray,
    pbar: np.ndarray | None = None,
    memory: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Masses (L, K) the rule fits to L datasets with outcome counts (L, K)
    and sizes n (L,), and the rows whose reward tilt zeroed every sampled
    outcome (their masses are placeholders; the caller fails them).

    pbar (L, K) holds the current mixture of each dataset's seed, read by the
    mixture-loglik reward; memory holds the counts and sizes of the rolled
    buffers, read by the memory-buffer rule.
    """
    k_space = counts.shape[1]
    wiped = np.zeros(len(counts), dtype=bool)
    if rule.kind == "mle":
        mass = counts / n[:, None]
    elif rule.kind == "smoothed-mle":
        denominator = n + rule.lam * k_space
        if np.any(denominator == math.inf):
            raise ValueError(f"smoothing lam={rule.lam} times K={k_space} overflows")
        mass = (counts + rule.lam) / denominator[:, None]
    elif rule.kind == "memory-buffer":
        buffer_counts, buffer_sizes = memory
        buffer_emp = buffer_counts / buffer_sizes[:, None]
        mass = rule.alpha_mem * buffer_emp + (1.0 - rule.alpha_mem) * (counts / n[:, None])
    else:  # reward-reweighted-mle; UpdateRule admits no other kind
        if rule.reward_source == "mixture-loglik":
            # exp(beta * ln pbar) = pbar ** beta, and 0 ** beta = 0 keeps
            # unsupported outcomes at zero weight without -inf arithmetic
            tilt = pbar ** rule.beta if rule.beta != 0.0 else np.ones(k_space)
        else:
            tilt = _reward_tilt("update", rule.beta, rule.reward, k_space)
        weighted = counts * tilt
        total = weighted.sum(axis=1, keepdims=True)
        wiped = total[:, 0] <= 0.0
        total[wiped] = 1.0
        mass = weighted / total
        mass[wiped] = 1.0
    mass /= mass.sum(axis=1, keepdims=True)
    return mass, wiped


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
    buffer = None
    if rule.kind == "memory-buffer":
        if len(memory) == 0:
            raise ValueError("the memory-buffer rule needs the rolled buffer")
        buffer = _counts([np.asarray(memory, dtype=np.int64)], space.size)
    pbar = mixture(pop).mass[None] if rule.reads_mixture else None
    counts, n = _counts([samples], space.size)
    mass, wiped = _fit(rule, counts, n, pbar, buffer)
    if wiped[0]:
        raise ValueError(_TILT_WIPED)
    return Population._trusted(space, pop.weights, (_wrap(space, mass[0]),) * pop.size)


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
        _check_seed(self.seed)
        if self.per_agent_datasets and self.update.kind == "memory-buffer":
            raise ConfigError(
                "per-agent datasets are not supported with the memory-buffer rule"
            )


# a round that raises one of these aborts its seed as a SimulationError
_ROUND_ERRORS = (
    DegenerateSelectionError,
    VerifierAnnihilationError,
    ValueError,
    FloatingPointError,
)


def _by_rows(fn, rows: np.ndarray, errors: dict, *arrays):
    """rows and fn(*arrays), each array holding one entry per row. When fn
    raises one of _ROUND_ERRORS, each row runs alone, and those that raise
    leave rows for errors (which keeps a row's first error)."""
    try:
        return rows, fn(*arrays)
    except _ROUND_ERRORS:
        for i, s in enumerate(rows):
            try:
                fn(*(a[i : i + 1] for a in arrays))
            except _ROUND_ERRORS as exc:
                errors.setdefault(int(s), exc)
    kept = ~np.isin(rows, list(errors))
    return rows[kept], fn(*(a[kept] for a in arrays))


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


def _group_policies(intervention, space: OutcomeSpace, size: int) -> dict[str, list]:
    groups: dict[str, list] = {
        kind: [] for kind in ("diversity", "verifier", "entropy-release", "cooling")
    }
    if intervention is None:
        return groups
    for pol in intervention if isinstance(intervention, (list, tuple)) else [intervention]:
        kind = getattr(pol, "kind", None)
        if kind not in groups:
            raise ConfigError(
                f"intervention object {pol!r} has unknown kind {kind!r}; "
                "expected one of diversity, verifier, entropy-release, cooling"
            )
        pol.check_shape(space, size)
        groups[kind].append(pol)
    return groups


class _Chunk:
    """Seeds advanced through the round in lock-step.

    Row i of every per-seed field belongs to run ids[i]. agents (S, M, K)
    and pt (S, K) are rebuilt each round, never changed once a record has
    handed out views of them; a shared-data update of every row leaves them
    one (S, K) array under a read-only stride-0 view, and hooks get agents
    from _own_agents. initial keeps the start rows for entropy release,
    checkpoints one array like them per cooling policy, and pbar mixes
    agents (None while stale). A seed whose round raises one of
    _ROUND_ERRORS goes to `failed` as SimulationError(r) and loses its row;
    the other rows go on.
    """

    _ROW_ARRAYS = ("weights", "agents", "initial", "pbar", "pt")
    _ROW_LISTS = (
        "ids", "rngs", "memory", "datasets", "live", "fired", "notes", "next_fired",
        "records", "states",
    )

    def __init__(self, pops, cfg: EvolutionConfig, rngs, policies, ids):
        rows = range(len(pops))
        self.cfg = cfg
        self.space = pops[0].space
        self.weights = np.stack([p.weights for p in pops])
        self.agents = np.stack([np.stack([a.mass for a in p.agents]) for p in pops])
        self.initial = self.agents if policies["entropy-release"] else None
        self.pbar = self.pt = None
        self.ids, self.rngs, self.policies = list(ids), list(rngs), policies
        self.checkpoints = [pol.initial_checkpoint(self.agents) for pol in policies["cooling"]]
        self.memory = [np.zeros(0, np.int64) for _ in rows]
        for name in ("datasets", "live", "fired", "notes", "next_fired", "records", "states"):
            setattr(self, name, [[] for _ in rows])
        self.failed: dict[int, SimulationError] = {}

    def population(self, s: int) -> Population:
        """Seed s's population over copies of its rows, which outlive the
        chunk; bit-equal rows, as a shared-data update leaves them, share one."""
        agents: list[ProbVector] = []
        for row in self.agents[s]:
            if agents and np.array_equal(agents[-1].mass.view(np.int64), row.view(np.int64)):
                agents.append(agents[-1])
            else:
                agents.append(_wrap(self.space, row.copy()))
        weights = self.weights[s]
        weights.setflags(write=False)
        return Population._trusted(self.space, weights, tuple(agents))

    def _fail(self, errors: Mapping[int, Exception], r: int) -> None:
        if not errors:
            return
        for row, exc in errors.items():
            err = SimulationError(r, exc)
            err.__cause__ = exc
            self.failed[self.ids[row]] = err
        keep = [row not in errors for row in range(len(self.ids))]
        for name in self._ROW_ARRAYS:
            arr = getattr(self, name)
            if arr is not None:
                setattr(self, name, arr[np.asarray(keep)])
        self.checkpoints = [ck[np.asarray(keep)] for ck in self.checkpoints]
        for name in self._ROW_LISTS:
            setattr(self, name, [v for v, k in zip(getattr(self, name), keep) if k])

    def _own_agents(self) -> np.ndarray:
        """agents, copied unless writable and C-contiguous: on strided rows (the
        view, or what _fail keeps of it) a hook would sum K in another order."""
        if not (self.agents.flags.writeable and self.agents.flags.c_contiguous):
            self.agents = self.agents.copy()
        return self.agents

    def _mixture(self) -> np.ndarray:
        """Mixtures (S, K) of the current agents, mixed once per change."""
        if self.pbar is None:
            self.pbar = _mix(self.weights, self.agents)
        return self.pbar

    def _firing(self, pol, r: int, errors: dict) -> np.ndarray:
        """The rows whose schedule has pol act in round r."""
        every = np.arange(len(self.ids))
        rows, fires = _by_rows(partial(pol.schedule.fires, r), every, errors, self._mixture())
        return rows[fires]

    def advance(self, r: int) -> None:
        """Round r; before round 1 (no pt yet) only the set-up selection.

        Round r samples from pt, screens each dataset with the verifiers in
        agent order, refits, then applies entropy release and cooling. It
        ends by mixing and selecting the resulting population, diversity for
        round r+1 included: that pt is what round r+1 samples from and what
        the record of round r measures.
        """
        self.fired = [list(f) for f in self.next_fired]
        self.notes = [[] for _ in self.ids]
        if self.pt is not None:
            blocks = self.agents.shape[1] if self.cfg.per_agent_datasets else 1
            n = self.cfg.sample_size
            draws = _draw(self.pt, n * blocks, self.rngs)
            self.datasets = [list(row.reshape(blocks, n)) for row in draws]
            self.live = [list(range(blocks)) for _ in self.ids]
            for phase in (self._screen, self._update, self._release, self._cool):
                errors: dict[int, Exception] = {}
                phase(r, errors)
                self._fail(errors, r)
        rule = self.cfg.selection
        try:
            self.pt, zero = _select(rule, self.space, self._mixture())
        except _ROUND_ERRORS as exc:  # a rule that does not fit the space
            self._fail(dict.fromkeys(range(len(self.ids)), exc), r)
            return
        self.next_fired = [[] for _ in self.ids]
        errors = {int(s): _zero_selection(rule) for s in np.flatnonzero(zero)}
        self._diversify(r, errors)
        self._fail(errors, r)

    def _screen(self, r: int, errors: dict) -> None:
        for pol in self.policies["verifier"]:
            for s in self._firing(pol, r, errors):
                datasets, live = self.datasets[s], self.live[s]
                if live:
                    self.fired[s].append(pol.kind)
                for m in tuple(live):
                    try:
                        datasets[m] = pol.filter_dataset(datasets[m], self.rngs[s])
                    except VerifierAnnihilationError:
                        self.notes[s].append("verifier-annihilation: update skipped")
                        live.remove(m)

    def _update(self, r: int, errors: dict) -> None:
        rule = self.cfg.update
        rows = [s for s, live in enumerate(self.live) for _ in live]
        blocks = [m for live in self.live for m in live]
        k_space = self.space.size
        if not rows:
            return
        pbar = self._mixture()[rows] if rule.reads_mixture else None
        self.pbar = None
        buffer = None
        if rule.kind == "memory-buffer":  # shared data: one block per row
            for s in rows:
                self.memory[s] = roll_memory(self.memory[s], self.datasets[s][0], rule.capacity)
            buffer = _counts([self.memory[s] for s in rows], k_space)
        try:
            counts, n = _counts([self.datasets[s][m] for s, m in zip(rows, blocks)], k_space)
            mass, wiped = _fit(rule, counts, n, pbar, buffer)
        except _ROUND_ERRORS as exc:  # smoothing overflow fails every fitted seed
            errors.update(dict.fromkeys(rows, exc))
            return
        if self.cfg.per_agent_datasets:
            self._own_agents()[rows, blocks] = mass
        elif len(rows) < len(self.ids):  # the verifier left some seeds unfitted
            self._own_agents()[rows] = mass[:, None, :]
        else:
            self.agents = np.broadcast_to(mass[:, None, :], self.agents.shape)
        errors.update({rows[i]: ValueError(_TILT_WIPED) for i in np.flatnonzero(wiped)})

    def _release(self, r: int, errors: dict) -> None:
        for pol in self.policies["entropy-release"]:
            rows = self._firing(pol, r, errors)
            if not rows.size:
                continue
            at = (self._own_agents()[rows], self.initial[rows])
            rows, released = _by_rows(pol.adjust_population, rows, errors, *at)
            self.agents[rows] = released
            self.pbar = None
            for s in rows:
                self.fired[s].append(pol.kind)
                memory = self.memory[s]
                if pol.prune_memory and len(memory):
                    kept = pol.prune_buffer(memory)
                    dropped = len(memory) - len(kept)
                    if dropped:
                        self.notes[s].append(f"memory prune dropped {dropped} samples")
                    self.memory[s] = kept

    def _cool(self, r: int, errors: dict) -> None:
        for pol, checkpoints in zip(self.policies["cooling"], self.checkpoints):
            rows = self._firing(pol, r, errors)
            pbar = self._mixture()
            for s in rows:
                current = (self._own_agents()[s], pbar[s])
                try:
                    cooled, checkpoints[s], rolled = pol.cool(current, checkpoints[s])
                except _ROUND_ERRORS as exc:
                    errors.setdefault(int(s), exc)
                    continue
                if rolled:
                    self.agents[s] = cooled
                    self.pbar = None
                    self.fired[s].append(pol.kind)
                    self.notes[s].append("cooling-rollback")
                else:
                    self.notes[s].append("cooling-refresh")

    def _diversify(self, r: int, errors: dict) -> None:
        for pol in self.policies["diversity"]:
            rows = self._firing(pol, r + 1, errors)
            rows, tempered = _by_rows(pol.adjust_training, rows, errors, self.pt[rows])
            self.pt[rows] = tempered
            for s in rows:
                self.next_fired[s].append(pol.kind)

    def record(self, r: int, probes, ref, monitor_sets, monitor_hoods, keep_states: bool) -> None:
        """Append round r's TrajectoryRecord (and state) to every row; a seed
        whose probe raises one of _ROUND_ERRORS fails instead."""
        masses = {
            name: np.take(self.pt, idx, axis=1).sum(axis=1).tolist()
            for name, idx in monitor_sets.items()
        }
        absent = {name: self._absent(r, hood) for name, hood in monitor_hoods.items()}
        errors = {}
        self.agents.setflags(write=False)  # a hook that writes copies it first
        for s in range(len(self.ids)):
            values = {}
            if probes:
                pt, agents = _wrap(self.space, self.pt[s]), self.agents[s]
                try:
                    values = {p.name: float(p.evaluator(r, pt, agents, ref)) for p in probes}
                except _ROUND_ERRORS as exc:
                    errors[s] = exc
                    continue
            self.records[s].append(
                TrajectoryRecord(
                    r,
                    values,
                    tuple(self.fired[s]),
                    tuple(self.notes[s]),
                    {name: m[s] for name, m in masses.items()},
                    {name: a[s] for name, a in absent.items()},
                )
            )
            if keep_states:
                self.states[s].append(self.population(s))
        self._fail(errors, r)

    def _absent(self, r: int, hood: np.ndarray) -> list:
        """Per row: did this round's data miss the neighborhood `hood`?"""
        if r == 0:
            return [None] * len(self.ids)
        return [not any(hood[d].any() for d in datasets) for datasets in self.datasets]


# ---------------------------------------------------------------------------
# Trajectories
# ---------------------------------------------------------------------------


_ONE_PER_SEED = "a batch needs one population per seed"


def run_batch(
    pops: Iterable[Population],
    cfg: EvolutionConfig,
    seeds: Sequence[int],
    probes: Sequence = (),
    intervention=None,
    *,
    ref=None,
    monitors: Mapping[str, Iterable[int]] | None = None,
    keep_states: bool = False,
) -> Iterator[Trajectory | SimulationError]:
    """Run the i-th population under cfg with seeds[i], for every i, as run() would.

    cfg's own seed is not read. The populations must share one space and
    size. Seeds advance in lock-step chunks of chunk_size(M, K), and pops is
    read one chunk at a time, so a generator keeps only one chunk of initial
    populations alive. Yields, in input order and chunk by chunk, each
    seed's Trajectory, or the SimulationError of a seed whose run failed;
    the other seeds are unaffected by it. probes, intervention, monitors and
    keep_states apply to every seed, as in run(); an entropy-release anchor
    "initial" is each seed's own start population.

    The arguments and the first chunk's populations are checked here; a
    later chunk's populations, and a pops iterable without len() that is
    longer or shorter than seeds, when the iterator reaches them.
    """
    if probes and ref is None:
        raise ConfigError("probes were requested but no reference was given")
    seeds = [_check_seed(seed) for seed in seeds]
    if hasattr(pops, "__len__") and len(pops) != len(seeds):
        raise ConfigError(_ONE_PER_SEED)
    starts = iter(pops)
    first = next(starts, None)
    if (first is None) != (not seeds):
        raise ConfigError(_ONE_PER_SEED)
    if first is None:
        return iter(())
    starts = chain([first], starts)
    space, size = first.space, first.size
    policies = _group_policies(intervention, space, size)
    radius = cfg.update.neighborhood_radius

    monitor_sets: dict[str, np.ndarray] = {}
    monitor_hoods: dict[str, np.ndarray] = {}
    monitor_names: dict[str, tuple[int, ...]] = {}
    for name, indices in (monitors or {}).items():
        idx = space.validate_indices(indices)
        if idx.size == 0:
            raise ConfigError(f"monitored set {name!r} is empty")
        monitor_sets[name] = idx
        hood_mask = np.zeros(space.size, dtype=bool)
        hood_mask[neighborhood(space, idx, radius)] = True
        monitor_hoods[name] = hood_mask
        monitor_names[name] = tuple(int(i) for i in idx)

    width = chunk_size(size, space.size)

    def take(ids: range) -> _Chunk:
        batch = list(islice(starts, len(ids)))
        if len(batch) < len(ids):
            raise ConfigError(_ONE_PER_SEED)
        if any(p.space != space or p.size != size for p in batch):
            raise ConfigError("the populations of a batch must share one space and size")
        return _Chunk(batch, cfg, [make_rng(seeds[i]) for i in ids], policies, ids)

    def results(chunk: _Chunk) -> Iterator[Trajectory | SimulationError]:
        for lo in range(0, len(seeds), width):
            ids = range(lo, min(lo + width, len(seeds)))
            if lo:
                chunk = take(ids)
            for r in range(cfg.rounds + 1):
                chunk.advance(r)
                if chunk.ids:
                    chunk.record(r, probes, ref, monitor_sets, monitor_hoods, keep_states)
                if not chunk.ids:
                    break
            rows = {i: s for s, i in enumerate(chunk.ids)}
            for i in ids:
                if i in chunk.failed:
                    yield chunk.failed[i]
                    continue
                s = rows[i]
                yield Trajectory(
                    seed=seeds[i],
                    probe_names=tuple(p.name for p in probes),
                    records=tuple(chunk.records[s]),
                    monitors=dict(monitor_names),
                    final_population=chunk.population(s),
                    states=tuple(chunk.states[s]) if keep_states else None,
                )
        if next(starts, None) is not None:
            raise ConfigError(_ONE_PER_SEED)

    return results(take(range(min(width, len(seeds)))))


def run(
    pop0: Population,
    cfg: EvolutionConfig,
    probes: Sequence = (),
    intervention=None,
    *,
    ref=None,
    monitors: Mapping[str, Iterable[int]] | None = None,
    keep_states: bool = False,
) -> Trajectory:
    """Execute cfg.rounds rounds and record per-round measurements.

    probes are MetricProbe-like objects (name + evaluator(round, pt, agents,
    ref), agents being the seed's read-only (M, K) rows); they may read the
    reference because measurement sits outside the loop, but the dynamics
    themselves never touch `ref`. intervention is a policy object or
    sequence of them (see interventions module); multiple policies compose
    in the fixed attachment order diversity -> sampling -> verifier ->
    update -> entropy-release -> cooling regardless of the order given.
    monitors maps names to outcome sets whose training mass and
    dataset-absence flags are recorded every round (the raw material for
    decay estimation). Each seed's memory buffer starts empty. A failed round raises SimulationError. This is run_batch on one seed.
    """
    (result,) = run_batch(
        [pop0],
        cfg,
        [cfg.seed],
        probes,
        intervention,
        ref=ref,
        monitors=monitors,
        keep_states=keep_states,
    )
    if isinstance(result, SimulationError):
        raise result
    return result
