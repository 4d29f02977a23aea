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
The round's data is one (S, B, n) int64 array, from draw to count: B blocks
of n samples per seed (one block, or one per agent), with (S, B) arrays of
filled sizes and live blocks. What is per seed by nature loops over the
rows: the uniforms and their inverse-CDF search (in sorted order), verifier
screening and the cooling check. Each probe measures the chunk's (S, K)
training rows in one call per round. Round r's measurements fill column r
of (S, P, R+1) probe and (S, N, R+1) monitor arrays, whose rows are the
seeds' Trajectory columns. The four stages are mixture, apply_selection,
sample_dataset and update_agents, each over a chunk's rows. run_batch is the
one entry point; run() is a batch of one, and a seed's trajectory is
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
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, islice
from typing import Iterable, Iterator, Mapping, Sequence, Sized

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
# Larger chunks did not pay: in paired bench runs of the ensemble workload
# (M=4, K=1000; 5 rounds of 2**17, 2**19, 2**20, medians; Python 3.11, numpy
# 2.4, 2 cores) they took 0.900, 0.916 and 0.931 s, at 41.0, 49.6 and 54.9 MB
# peak RSS.
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


def mixture(weights: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """Mixtures (S, K) of agents (S, M, K) under weights (S, M), renormalized."""
    # agent m = 0..M-1 added in turn: for any layout of agents, the bits of
    # (weights[:, :, None] * agents).sum(axis=1) on a C-contiguous array
    pbar = np.multiply(weights[:, 0, None], agents[:, 0], order="C")
    for m in range(1, agents.shape[1]):
        pbar += weights[:, m, None] * agents[:, m]
    pbar /= pbar.sum(axis=1, keepdims=True)
    return pbar


# ---------------------------------------------------------------------------
# Selection
# ---------------------------------------------------------------------------

# selection kind -> the rule fields it reads
_SELECTION_KINDS = {
    "identity": (), "indicator": ("indices",), "top-mass": ("k",),
    "reward-reweight": ("reward", "beta"),
}


def _refuse_unread(owner: str, rule, reads: Sequence[str], kind: str = "kind") -> None:
    """ConfigError naming each field of rule, its kind field and reads aside,
    that is set: away from its default, or where the default is None or (),
    holding a value (a vector, holding entries)."""
    unread = []
    for f in fields(rule):
        value = getattr(rule, f.name)
        if f.default is None or f.default == ():
            is_set = value is not None and (not isinstance(value, Sized) or len(value) > 0)
        else:
            is_set = bool(value != f.default)
        if is_set and f.name not in (kind, *reads):
            unread.append(f.name)
    if unread:
        raise ConfigError(
            f"{owner} {kind} {getattr(rule, kind)!r} does not read {', '.join(unread)}"
        )


def _check_beta(owner: str, beta: float) -> None:
    if not 0.0 <= beta < math.inf:
        raise ConfigError(f"{owner} beta must be finite and >= 0, got {beta}")


def _finite_rewards(owner: str, reward: Sequence[float]) -> tuple[float, ...]:
    """The reward vector as floats; r - max(r) must not overflow to -inf."""
    r = tuple(float(x) for x in reward)
    if not all(math.isfinite(x) for x in r) or (r and not math.isfinite(max(r) - min(r))):
        raise ConfigError(f"{owner} reward entries and their spread must be finite")
    return r


def _reward_tilt(beta: float, reward: Sequence[float]) -> np.ndarray:
    """exp(beta * (r - max r)), each entry in [0, 1].

    r - max r is clamped at -800 / beta first. A product below -745 already
    gives exactly 0, so no weight changes, but beta times a huge reward
    spread can no longer overflow the multiply.
    """
    r = np.asarray(reward, dtype=np.float64)
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
                f"unknown selection kind {self.kind!r}; one of {tuple(_SELECTION_KINDS)}"
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
        _refuse_unread("selection", self, _SELECTION_KINDS[self.kind])


def _check_fit(rule: SelectionRule | UpdateRule, space: OutcomeSpace) -> None:
    """ConfigError unless the rule's indices, k or reward vector fit space."""
    if rule.kind == "indicator":
        space.validate_indices(rule.indices)
    if rule.kind == "top-mass" and rule.k > space.size:
        raise ConfigError(f"top-mass k={rule.k} exceeds the space size {space.size}")
    if rule.kind == "reward-reweight" or (
        rule.kind == "reward-reweighted-mle" and not rule.reads_mixture
    ):
        if len(rule.reward) != space.size:
            owner = "selection" if isinstance(rule, SelectionRule) else "update"
            raise ConfigError(
                f"{owner} reward vector has length {len(rule.reward)}, space is {space.size}"
            )


def _acceptance(rule: SelectionRule, space: OutcomeSpace, pbar: np.ndarray) -> np.ndarray:
    """Acceptance for mixtures pbar (S, K): shape (K,), or (S, K) for top-mass.
    The rule fits space (see _check_fit)."""
    k_space = space.size
    if rule.kind == "identity":
        return np.ones(k_space)
    if rule.kind == "indicator":
        a = np.zeros(k_space)
        a[list(rule.indices)] = 1.0
        return a
    if rule.kind == "top-mass":
        order = np.argsort(-pbar, axis=1, kind="stable")
        a = np.zeros_like(pbar)
        np.put_along_axis(a, order[:, : rule.k], 1.0, axis=1)
        return a
    # reward-reweight; SelectionRule admits no other kind
    return _reward_tilt(rule.beta, rule.reward)


def apply_selection(
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


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_dataset(pt: np.ndarray, n: int, rngs: Sequence[np.random.Generator]) -> np.ndarray:
    """n inverse-CDF draws from each row of pt (S, K), row s from rngs[s].

    Returns an (S, n) int64 array; exact boundary ties go to the lower index.
    Each row's uniforms are searched in sorted order, which keeps the binary
    search's branches predictable, and scattered back: every uniform gets
    the index an unsorted search would give it.
    """
    cum = np.cumsum(pt, axis=1)
    # u beyond the last cumulative point (float shortfall) lands on the last
    # positive-mass outcome and u == 0.0 on the first, never on zero-mass ones
    pos = pt > 0.0
    first_positive = np.argmax(pos, axis=1)
    last_positive = pt.shape[1] - 1 - np.argmax(pos[:, ::-1], axis=1)
    uniforms = np.empty((len(rngs), n))
    for s, rng in enumerate(rngs):
        uniforms[s] = rng.random(n)
    rows, order = np.arange(len(rngs))[:, None], np.argsort(uniforms, axis=1)
    uniforms = uniforms[rows, order]
    found = np.empty((len(rngs), n), dtype=np.int64)
    for s in range(len(rngs)):
        found[s] = cum[s].searchsorted(uniforms[s], side="left")
    draws = np.empty_like(found)
    draws[rows, order] = found
    np.clip(draws, first_positive[:, None], last_positive[:, None], out=draws)
    return draws


# ---------------------------------------------------------------------------
# Update rules
# ---------------------------------------------------------------------------

# update kind -> the rule fields it reads besides neighborhood_radius (the
# mixture-loglik reward source reads no reward vector)
_UPDATE_KINDS = {
    "mle": (), "smoothed-mle": ("lam",), "memory-buffer": ("capacity", "alpha_mem"),
    "reward-reweighted-mle": ("beta", "reward_source", "reward"),
}
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
                f"unknown update kind {self.kind!r}; one of {tuple(_UPDATE_KINDS)}"
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
        reads = [n for n in _UPDATE_KINDS[self.kind] if n != "reward" or not self.reads_mixture]
        _refuse_unread("update", self, ("neighborhood_radius", *reads))

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


def _counts(flat: np.ndarray, sizes: np.ndarray, k_space: int) -> tuple[np.ndarray, np.ndarray]:
    """Outcome counts (L, K) of L int64 datasets laid back to back in flat,
    dataset l holding sizes[l] entries, from one bincount; and the sizes
    (L,) as floats."""
    offsets = np.repeat(np.arange(len(sizes), dtype=np.int64) * k_space, sizes)
    counts = np.bincount(flat + offsets, minlength=len(sizes) * k_space)
    return counts.reshape(len(sizes), k_space).astype(np.float64), sizes.astype(np.float64)


_TILT_WIPED = (
    "reward tilt drove every sampled outcome's weight to zero; "
    "the reweighted estimate is undefined"
)


def update_agents(
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
            tilt = _reward_tilt(rule.beta, rule.reward)
        weighted = counts * tilt
        total = weighted.sum(axis=1, keepdims=True)
        wiped = total[:, 0] <= 0.0
        total[wiped] = 1.0
        mass = weighted / total
        mass[wiped] = 1.0
    mass /= mass.sum(axis=1, keepdims=True)
    return mass, wiped


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
    """The round settings of a closed-loop run; the seed is given apart (see
    run and run_batch).

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
    per_agent_datasets: bool = False

    def __post_init__(self):
        if not isinstance(self.sample_size, (int, np.integer)) or self.sample_size < 1:
            raise ConfigError(f"sample_size must be a positive integer, got {self.sample_size!r}")
        if not isinstance(self.rounds, (int, np.integer)) or self.rounds < 1:
            raise ConfigError(f"rounds must be a positive integer, got {self.rounds!r}")
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
    raises one of _ROUND_ERRORS, each row runs alone: those that raise leave
    rows for errors (which keeps a row's first error), and the results of
    the others are joined."""
    try:
        return rows, fn(*arrays)
    except _ROUND_ERRORS:
        pass
    kept, results = [], []
    for i, s in enumerate(rows):
        try:
            result = fn(*(a[i : i + 1] for a in arrays))
        except _ROUND_ERRORS as exc:
            errors.setdefault(int(s), exc)
            continue
        if int(s) not in errors:
            kept.append(i)
            results.append(result)
    if not results:
        return rows[:0], fn(*(a[:0] for a in arrays))
    return rows[kept], np.concatenate(results)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One seed's run as columns: entry r of each read-only array is round r.

    values[name] holds the probe on P_r, the training distribution after
    round r (selection applied, plus any diversity modification scheduled
    for the next sampling event), which round r+1 draws its data from.
    monitor_mass[name] is P_r's mass on the monitored set. monitor_absent[name]
    says whether round r's data (every agent's dataset, as the verifiers left
    it; a dataset a verifier emptied keeps what it held before that verifier)
    missed the set's neighborhood entirely; round 0 precedes any dataset and
    reads False. fired and notes are (round, text) events in the order they
    happened; states, when kept, holds the population after each round.
    """

    seed: int
    probe_names: tuple[str, ...]
    rounds: int
    values: dict[str, np.ndarray]
    monitors: dict[str, tuple[int, ...]]
    monitor_mass: dict[str, np.ndarray]
    monitor_absent: dict[str, np.ndarray]
    fired: tuple[tuple[int, str], ...]
    notes: tuple[tuple[int, str], ...]
    final_population: Population
    states: tuple[Population, ...] | None = None


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
    agents (None while stale). data (S, B, n) holds the round's B datasets
    per seed, of which sizes (S, B) entries are filled: a verifier gets a
    read-only view of the filled front of a block and its kept samples are
    written back there. live (S, B) marks the blocks no verifier emptied;
    an emptied block keeps its samples. record fills column r of values
    (S, P, R+1), masses and absent (S, N, R+1); fired and notes gather
    (round, text) events. A seed whose round raises one of _ROUND_ERRORS
    goes to `failed` as SimulationError(r) and loses its row; the other rows
    go on.
    """

    _ROW_ARRAYS = (
        "weights", "agents", "initial", "pbar", "pt", "data", "sizes", "live",
        "values", "masses", "absent",
    )
    _ROW_LISTS = ("ids", "rngs", "memory", "fired", "notes", "states")

    def __init__(self, pops, cfg: EvolutionConfig, rngs, policies, ids):
        rows = range(len(pops))
        self.cfg = cfg
        self.space = pops[0].space
        self.weights = np.stack([p.weights for p in pops])
        self.agents = np.stack([np.stack([a.mass for a in p.agents]) for p in pops])
        self.initial = self.agents if policies["entropy-release"] else None
        self.pbar = self.pt = self.data = self.sizes = self.live = None
        self.values = self.masses = self.absent = None
        self.ids, self.rngs, self.policies = list(ids), list(rngs), policies
        self.checkpoints = [pol.initial_checkpoint(self.agents) for pol in policies["cooling"]]
        self.memory = [np.zeros(0, np.int64) for _ in rows]
        for name in ("fired", "notes", "states"):
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
            self.failed[self.ids[row]] = SimulationError(r, exc)
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
            self.pbar = mixture(self.weights, self.agents)
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
        if self.pt is not None:
            blocks = self.agents.shape[1] if self.cfg.per_agent_datasets else 1
            n = self.cfg.sample_size
            draws = sample_dataset(self.pt, n * blocks, self.rngs)
            self.data = draws.reshape(len(self.ids), blocks, n)
            self.sizes = np.full((len(self.ids), blocks), n)
            self.live = np.ones((len(self.ids), blocks), dtype=bool)
            for phase in (self._screen, self._update, self._release, self._cool):
                errors: dict[int, Exception] = {}
                phase(r, errors)
                self._fail(errors, r)
        rule = self.cfg.selection
        self.pt, zero = apply_selection(rule, self.space, self._mixture())
        errors = {int(s): _zero_selection(rule) for s in np.flatnonzero(zero)}
        self._diversify(r, errors)
        self._fail(errors, r)

    def _screen(self, r: int, errors: dict) -> None:
        for pol in self.policies["verifier"]:
            for s in self._firing(pol, r, errors):
                blocks = np.flatnonzero(self.live[s])
                if blocks.size:
                    self.fired[s].append((r, pol.kind))
                for m in blocks:
                    block = self.data[s, m, : self.sizes[s, m]]
                    block.setflags(write=False)
                    try:
                        kept = pol.filter_dataset(block, self.rngs[s])
                        self.data[s, m, : len(kept)] = kept
                    except VerifierAnnihilationError:
                        self.notes[s].append((r, "verifier-annihilation: update skipped"))
                        self.live[s, m] = False
                    except _ROUND_ERRORS as exc:  # the seed fails this round
                        errors.setdefault(int(s), exc)
                        break
                    else:
                        self.sizes[s, m] = len(kept)

    def _held(self) -> np.ndarray:
        """The filled positions (S, B, n) of data."""
        return np.arange(self.data.shape[2]) < self.sizes[:, :, None]

    def _update(self, r: int, errors: dict) -> None:
        rule = self.cfg.update
        rows, blocks = np.nonzero(self.live)
        k_space = self.space.size
        if not rows.size:
            return
        pbar = self._mixture()[rows] if rule.reads_mixture else None
        self.pbar = None
        buffer = None
        if rule.kind == "memory-buffer":  # shared data: one block per row
            for s in rows:
                fresh = self.data[s, 0, : self.sizes[s, 0]]
                self.memory[s] = roll_memory(self.memory[s], fresh, rule.capacity)
            memory = [self.memory[s] for s in rows]
            buffer = _counts(np.concatenate(memory), np.array([len(b) for b in memory]), k_space)
        held = self.live[:, :, None] & self._held()
        try:
            counts, n = _counts(self.data[held], self.sizes[self.live], k_space)
            mass, wiped = update_agents(rule, counts, n, pbar, buffer)
        except _ROUND_ERRORS as exc:  # smoothing overflow fails every fitted seed
            errors.update(dict.fromkeys(rows.tolist(), exc))
            return
        if self.cfg.per_agent_datasets:
            self._own_agents()[rows, blocks] = mass
        elif len(rows) < len(self.ids):  # the verifier left some seeds unfitted
            self._own_agents()[rows] = mass[:, None, :]
        else:
            self.agents = np.broadcast_to(mass[:, None, :], self.agents.shape)
        errors.update({int(rows[i]): ValueError(_TILT_WIPED) for i in np.flatnonzero(wiped)})

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
                self.fired[s].append((r, pol.kind))
                memory = self.memory[s]
                if pol.prune_memory and len(memory):
                    kept = pol.prune_buffer(memory)
                    dropped = len(memory) - len(kept)
                    if dropped:
                        self.notes[s].append((r, f"memory prune dropped {dropped} samples"))
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
                    self.fired[s].append((r, pol.kind))
                    self.notes[s].append((r, "cooling-rollback"))
                else:
                    self.notes[s].append((r, "cooling-refresh"))

    def _diversify(self, r: int, errors: dict) -> None:
        for pol in self.policies["diversity"]:
            rows = self._firing(pol, r + 1, errors)
            rows, tempered = _by_rows(pol.adjust_training, rows, errors, self.pt[rows])
            self.pt[rows] = tempered
            if r < self.cfg.rounds:  # an event of round r+1, which samples this pt
                for s in rows:
                    self.fired[s].append((r + 1, pol.kind))

    def record(self, r: int, probes, ref, monitor_sets, monitor_hoods, keep_states: bool) -> None:
        """Fill column r of every row (and keep its state). Each probe measures
        the chunk's rows in one call; a seed for which a probe raises one of
        _ROUND_ERRORS, or which a probe gives no single value, fails instead.
        Round 0 allocates the columns."""
        if r == 0:
            shape = (len(self.ids), len(monitor_sets), self.cfg.rounds + 1)
            self.values = np.empty((shape[0], len(probes), shape[2]))
            self.masses, self.absent = np.empty(shape), np.zeros(shape, dtype=bool)
        held = self._held() if r else None
        for i, (idx, hood) in enumerate(zip(monitor_sets.values(), monitor_hoods.values())):
            self.masses[:, i, r] = np.take(self.pt, idx, axis=1).sum(axis=1)
            if r:  # did this round's data miss the neighborhood?
                self.absent[:, i, r] = ~(hood[self.data] & held).any(axis=(1, 2))
        errors = {}
        self.agents.setflags(write=False)  # a hook that writes copies it first
        self.pt.setflags(write=False)  # the probes read it whole
        if probes:
            every = np.arange(len(self.ids))
            measure = partial(_measure, r, probes, ref)
            rows, values = _by_rows(measure, every, errors, self.pt, self.agents)
            self.values[rows, :, r] = values
        if keep_states:
            for s in range(len(self.ids)):
                if s not in errors:
                    self.states[s].append(self.population(s))
        self._fail(errors, r)


def _measure(r: int, probes, ref, pt: np.ndarray, agents: np.ndarray) -> np.ndarray:
    """The values (S, P) of the probes in round r on the training rows pt
    (S, K) and agent rows agents (S, M, K), each probe called once; a probe
    that gives other than S values raises ValueError."""
    values = np.empty((len(pt), len(probes)))
    if not len(pt):  # every row failed
        return values
    for i, probe in enumerate(probes):
        column = np.asarray(probe.evaluator(r, pt, agents, ref), dtype=np.float64)
        if column.shape != (len(pt),):
            raise ValueError(
                f"probe {probe.name!r} gave shape {column.shape} for {len(pt)} rows"
            )
        values[:, i] = column
    return values


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

    The populations must share one space and size, and ref, when given, that
    space too. Seeds advance in lock-step chunks of chunk_size(M, K), and pops is
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
    if getattr(ref, "space", space) != space:
        raise ConfigError(
            f"the reference lives on {ref.space.size} outcomes, the populations on {space.size}"
        )
    policies = _group_policies(intervention, space, size)
    _check_fit(cfg.selection, space)
    _check_fit(cfg.update, space)
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
    names = tuple(p.name for p in probes)

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
            if rows:  # round 0 was recorded
                for columns in (chunk.values, chunk.masses, chunk.absent):
                    columns.setflags(write=False)
            for i in ids:
                if i in chunk.failed:
                    yield chunk.failed[i]
                    continue
                s = rows[i]
                yield Trajectory(
                    seed=seeds[i],
                    probe_names=names,
                    rounds=cfg.rounds,
                    values=dict(zip(names, chunk.values[s])),
                    monitors=dict(monitor_names),
                    monitor_mass=dict(zip(monitor_names, chunk.masses[s])),
                    monitor_absent=dict(zip(monitor_names, chunk.absent[s])),
                    fired=tuple(chunk.fired[s]),
                    notes=tuple(chunk.notes[s]),
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
    seed: int = 0,
) -> Trajectory:
    """Execute cfg.rounds rounds from pop0 and return the Trajectory of seed.

    probes are MetricProbe-like objects (name + evaluator(round, pt, agents,
    ref) -> S values, pt and agents being a chunk's read-only (S, K) training
    rows and (S, M, K) agent rows); they may read the reference because
    measurement sits outside the loop, but the dynamics themselves never
    touch `ref`. Each probe gives the column values[name].
    intervention is a policy object or sequence of them (see interventions
    module); multiple policies compose in the fixed attachment order
    diversity -> sampling -> verifier -> update -> entropy-release ->
    cooling regardless of the order given. monitors maps names to outcome
    sets whose training mass and dataset-absence flags are recorded every
    round in monitor_mass[name] and monitor_absent[name] (the raw material
    for decay estimation). The memory buffer starts empty. A failed round
    raises SimulationError. This is run_batch on one seed, and gives the
    bytes of run_batch's row for that seed.
    """
    (result,) = run_batch(
        [pop0],
        cfg,
        [seed],
        probes,
        intervention,
        ref=ref,
        monitors=monitors,
        keep_states=keep_states,
    )
    if isinstance(result, SimulationError):
        raise result
    return result
