"""The self-evolution operator: mixture, selection, sampling, update.

One round maps a population of agent distributions to its successor:

    pbar = sum_m w_m * agent_m                  (mixture)
    pt   = acceptance * pbar / Z                (selection)
    D    = n i.i.d. draws from pt               (sampling)
    each agent := estimator fitted to D         (update)

With per-agent datasets the round draws n * M outcomes instead and agent m is
fitted to its own block of n.

The engine advances a chunk of S seeds in lock-step. A chunk's agents are one
(S, M, C) array and its training distributions one (S, C) array, over all K
outcomes or each row's reach (below), so mixture,
selection, the cumulative sums, the update and every renormalization run once
per chunk and round, as do the policy hooks over the rows they fire for.
The round's data is one (S, B, n) int64 array, from draw to count: B blocks
of n samples per seed (one block, or one per agent), with (S, B) arrays of
filled sizes and live blocks. What is per seed by nature loops over the
rows: the uniforms and their inverse-CDF search (in sorted order), verifier
screening and the cooling check. Each probe measures the chunk's training
rows in one call per round. Round r's measurements fill column r of
(S, P, R+1) probe and (S, N, R+1) monitor arrays, whose rows are the seeds'
Trajectory columns. The four stages are mixture, apply_selection,
sample_dataset and update_agents, each over a chunk's rows. A stage, hook
or probe that cannot compute a row raises. A chunk whose round raises runs
again to that round and goes on in halves, down to the seeds that fail
alone (see _Batch.results); a hook or probe may so see a round again.
run_batch is the one public entry point; run() is a batch of one, and a
seed's trajectory is byte-identical whichever chunk it runs in.
A batch with enough work runs its chunks on every usable CPU, in one pool
of worker processes forked once for the call, holding every batch of it (a
comparison's arms are the batches of one call, see _run_batches); a call
whose batches are each smaller, and any where fork is unsafe, stays in
process. Either way a seed's bytes do not depend on the CPU count.

An agent refitted to its own samples holds no mass on an outcome it did not
draw. So after each update the chunk finds each row's reach: the sorted
outcomes of that seed's datasets (as the verifiers left them) and of its
memory buffer. The four stages take a column set, every outcome or the
reach, and until the next update they run on one padded (S, C) index of
the rows' reaches, C being the widest row; a shorter row's extra entries
point at a sink and hold exactly 0.0. The chunk's agents (S, M, C) and pt
(S, C) live on those columns between stages too. Each row sum is still
taken over the dense row (the values at the reach, zeros elsewhere), and
cumsum adds zeros exactly, so either column set gives the same bits. The
monitors and each registry probe's one body measure pt on its columns as
well, either set with the same bits (see metrics); K-long rows are built
only for the readers that need them: policy schedules, custom probes, kept
states, and the agents an update leaves unfitted when the gate declines
the reach. The reach is used only when the rule puts no mass off its data
(mle, memory-buffer, reward-reweighted-mle; not smoothed-mle), every row
was fitted this round (no verifier emptied a block), no diversity,
entropy-release or cooling policy can move mass, and a row's B * n
samples plus its capacity buffered ones are at most K / 2.
That bound is checked first, so small spaces pay one comparison.

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

import copy
import math
import os
import signal
import sys
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Sized

import numpy as np

from .core import OutcomeSpace, ProbVector, _wrap, require_same_space, sorted_unique
from .errors import (
    ConfigError,
    DegenerateSelectionError,
    SimulationError,
    VerifierAnnihilationError,
)

MAX_SEED = 2**64

# A chunk holds at most max(1, BATCH_ELEMENTS // (M * K)) seeds, so an
# (S, M, K) array it makes, its agents included, stays within 2**19 floats
# (4 MiB); a population with M * K > 2**18 runs one seed at a time. On the
# reach a chunk-round costs mostly a fixed amount per numpy call, paid once
# per chunk, so wide chunks pay. In paired
# bench runs (5 alternating rounds of --seconds 5 at seed 0, medians; Python
# 3.11, numpy 2.4.6, 2 cores), with chunks cut as run_batch cuts them, 2**17,
# 2**18, 2**19 and 2**20 took 0.758, 0.706, 0.645 and 0.632 s on the ensemble
# workload (M=4, K=1000), at 38.2, 38.7, 39.8 and 42.9 MB peak RSS, and 0.566,
# 0.504, 0.493 and 0.450 s on drift. 2**20 adds 12 % to ensemble's peak RSS,
# past the benchmark's 10 % bound.
BATCH_ELEMENTS = 2**19


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

    def __setstate__(self, state):
        # numpy unpickles an array writeable; weights read back stay read-only
        self.__dict__.update(state)
        self.weights.setflags(write=False)

    @property
    def space(self) -> OutcomeSpace:
        return self.agents[0].space

    @property
    def size(self) -> int:
        return len(self.agents)

    @classmethod
    def equal_weights(cls, agents: Sequence[ProbVector]) -> "Population":
        m = len(agents)
        # an empty population is rejected by __post_init__
        return cls(tuple(agents), np.full(m, 1.0 / max(m, 1)))

    @staticmethod
    def _trusted(weights: np.ndarray, agents: tuple) -> "Population":
        pop = object.__new__(Population)
        object.__setattr__(pop, "agents", agents)
        object.__setattr__(pop, "weights", weights)
        return pop


class _Columns:
    """The outcomes a round's stages compute on, row by row: every one (index
    None), or each row's reach, the sorted outcomes its own data reached, off
    which that row is zero. index (L, C) holds row l's reach at its front
    and the sink column K behind it, C being the widest row; a row's values
    at its sink entries are exactly 0.0 at every stage. A chunk's pt,
    agents and mixtures live on these columns, as rows (L, C) or (L, M, C).
    Elementwise work runs on them; rowsum sums each row over the dense K
    (the values here, zeros elsewhere), so either column set gives the same
    bits. dense builds K-long rows for a reader that needs them.

    A reach borrows its chunk's zeros, at least L * K + 1 zero floats. In
    them, as in the rows dense makes, entry l * K + k is row l's outcome k,
    and entry L * K, behind the rows, takes every sink entry. cols[rows] are
    the columns of those rows, as a stage called on those rows alone takes
    them.
    """

    def __init__(self, index=None, size: int = 0, zeros=None):
        self.index, self.size, self.zeros = index, size, zeros
        if index is not None:
            rows = np.arange(len(index))[:, None]
            self.sink = index == size
            self.at = index + size * rows  # entry l * K + k
            self.at[self.sink] = len(index) * size
            self.offsets = index.shape[1] * rows

    def __getitem__(self, rows) -> "_Columns":
        if self.index is None:
            return self
        every = np.arange(len(self.index))
        if np.array_equal(every[rows], every):  # every row, in order
            return self
        return _Columns(self.index[rows], self.size, self.zeros)

    def take(self, x: np.ndarray) -> np.ndarray:
        """x on these columns: a vector (K + 1,), whose last entry is the
        sink's 0.0, as rows (L, C), or its first K entries for every outcome;
        and rows (L, K) as (L, C), x itself for every outcome."""
        if x.ndim == 1:
            return x[:-1] if self.index is None else x[self.index]
        if self.index is None:
            return x
        out = x.reshape(-1).take(self.at, mode="clip")
        out[self.sink] = 0.0
        return out

    def dense(self, x: np.ndarray) -> np.ndarray:
        """C-contiguous rows (L, K) of x (L, C), or (L, M, K) of x (L, M, C),
        zero off these columns; x itself for every outcome."""
        if self.index is None:
            return x
        if x.ndim == 3:
            each = self[np.repeat(np.arange(len(x)), x.shape[1])]  # row l once per agent
            return each.dense(x.reshape(-1, x.shape[2])).reshape(*x.shape[:2], self.size)
        out = np.zeros(len(x) * self.size + 1)
        out[self.at] = x
        return out[:-1].reshape(len(x), self.size)

    def outcomes(self, positions: np.ndarray) -> np.ndarray:
        """The outcomes at positions (L, n) among each row's columns."""
        if self.index is None:
            return positions
        return self.index.reshape(-1).take(positions + self.offsets)

    def rowsum(self, x: np.ndarray) -> np.ndarray:
        """Sums (L, 1) of the dense rows of x (L, C)."""
        with self.written(x) as rows:
            return rows.sum(axis=1, keepdims=True)

    @contextmanager
    def written(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """The dense rows (L, K) of x (L, C), to read inside the block: x
        itself for every outcome; on a reach, x written into the borrowed
        zeros, which are cleared on leaving it, even if the block raised.
        Their layout is that of the rows dense makes, so a sum over a block
        of them has dense's bits."""
        if self.index is None:
            yield x
            return
        self.zeros[self.at] = x
        try:
            rows = self.zeros[: len(x) * self.size].reshape(len(x), self.size)
            rows.setflags(write=False)
            yield rows
        finally:
            self.zeros[self.at] = 0.0


_EVERY = _Columns()


def mixture(weights: np.ndarray, agents: np.ndarray, cols: _Columns = _EVERY) -> np.ndarray:
    """Mixtures (S, C) of agents (S, M, C) under weights (S, M), renormalized;
    the C columns are cols (every outcome by default)."""
    # agent m = 0..M-1 added in turn: for the C-contiguous agents a chunk owns and for
    # any layout a caller passes, the bits of (weights[:, :, None] * agents).sum(axis=1)
    pbar = np.multiply(weights[:, 0, None], agents[:, 0], order="C")
    for m in range(1, agents.shape[1]):
        pbar += weights[:, m, None] * agents[:, m]
    pbar /= cols.rowsum(pbar)
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
    """ConfigError unless the rule's indices, k, reward vector or smoothing
    fit space."""
    if rule.kind == "indicator":
        space.validate_indices(rule.indices)
    if rule.kind == "top-mass" and rule.k > space.size:
        raise ConfigError(f"top-mass k={rule.k} exceeds the space size {space.size}")
    # n + lam * K overflows exactly when lam * K does, as n is far below its ulp
    if rule.kind == "smoothed-mle" and rule.lam * space.size == math.inf:
        raise ConfigError(f"smoothing lam={rule.lam} times K={space.size} overflows")
    if rule.kind == "reward-reweight" or (
        rule.kind == "reward-reweighted-mle" and not rule.reads_mixture
    ):
        if len(rule.reward) != space.size:
            owner = "selection" if isinstance(rule, SelectionRule) else "update"
            raise ConfigError(
                f"{owner} reward vector has length {len(rule.reward)}, space is {space.size}"
            )


def _rule_vector(rule: SelectionRule | UpdateRule, k_space: int) -> np.ndarray | None:
    """The fixed weights (K + 1,) a rule puts on the K outcomes, the sink's
    0.0 behind them (see _Columns.take): an indicator's acceptance, and the
    tilt of a reward-reweight selection or a fixed-reward update; None for
    the other rules. The rule fits K outcomes (see _check_fit)."""
    if rule.kind == "indicator":
        a = np.zeros(k_space + 1)
        a[list(rule.indices)] = 1.0
        return a
    if rule.kind == "reward-reweight" or (
        rule.kind == "reward-reweighted-mle" and not rule.reads_mixture
    ):
        return np.append(_reward_tilt(rule.beta, rule.reward), 0.0)
    return None


def _acceptance(
    rule: SelectionRule,
    space: OutcomeSpace,
    pbar: np.ndarray,
    cols: _Columns,
    vector: np.ndarray | None,
) -> np.ndarray:
    """Acceptance for mixtures pbar (S, C) on cols under a rule other than
    identity: shape (C,) from the rule's vector (built here when None), or
    (S, C) for top-mass."""
    if rule.kind == "top-mass":
        # off cols the mixture is zero, so a k past C accepts no more mass
        order = np.argsort(-pbar, axis=1, kind="stable")
        a = np.zeros_like(pbar)
        np.put_along_axis(a, order[:, : rule.k], 1.0, axis=1)
        return a
    if vector is None:  # indicator or reward-reweight
        vector = _rule_vector(rule, space.size)
    return cols.take(vector)


def apply_selection(
    rule: SelectionRule,
    space: OutcomeSpace,
    pbar: np.ndarray,
    cols: _Columns = _EVERY,
    vector: np.ndarray | None = None,
) -> np.ndarray:
    """Training distributions a * pbar / Z (S, C) on cols.

    vector is the rule's _rule_vector over space, built here when None.
    DegenerateSelectionError when a row's Z is zero: the rule accepts no
    mass of that mixture.
    """
    # identity acceptance is all ones, and 1.0 * x == x
    if rule.kind == "identity":
        scaled = pbar
    else:
        scaled = _acceptance(rule, space, pbar, cols, vector) * pbar
    z = cols.rowsum(scaled)
    if (z <= 0.0).any():
        raise DegenerateSelectionError(
            f"selection {rule.kind!r} accepts zero total mass; no training distribution exists"
        )
    pt = scaled / z
    pt /= cols.rowsum(pt)
    return pt


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_dataset(
    pt: np.ndarray, n: int, rngs: Sequence[np.random.Generator], cols: _Columns = _EVERY
) -> np.ndarray:
    """n inverse-CDF draws from each row of pt (S, C) on cols, row s from
    rngs[s].

    Returns an (S, n) int64 array of outcomes; exact boundary ties go to the
    lower index. Each row's uniforms are searched in sorted order, which
    keeps the binary search's branches predictable, and scattered back:
    every uniform gets the index an unsorted search would give it. Adding
    the +0.0 off cols leaves a sequential cumsum as it is, so the search
    on cols finds the outcome the search over all K finds.
    """
    cum = np.cumsum(pt, axis=1)
    # u beyond the last cumulative point (float shortfall) lands on the last
    # positive-mass outcome and u == 0.0 on the first, never on zero-mass ones
    pos = pt > 0.0
    first_positive = np.argmax(pos, axis=1)
    last_positive = pt.shape[1] - 1 - np.argmax(pos[:, ::-1], axis=1)
    uniforms = np.empty((len(rngs), n))
    for s, rng in enumerate(rngs):
        rng.random(out=uniforms[s])  # the stream rng.random(n) draws
    order = np.argsort(uniforms, axis=1)
    order += np.arange(0, uniforms.size, n)[:, None]  # flat positions, row by row
    uniforms = uniforms.reshape(-1)[order]
    found = np.empty((len(rngs), n), dtype=np.int64)
    for s in range(len(rngs)):
        found[s] = cum[s].searchsorted(uniforms[s], side="left")
    draws = np.empty_like(found)
    draws.reshape(-1)[order] = found
    np.clip(draws, first_positive[:, None], last_positive[:, None], out=draws)
    return cols.outcomes(draws)


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
    memory: np.ndarray | None = None,
    cols: _Columns = _EVERY,
    vector: np.ndarray | None = None,
) -> np.ndarray:
    """Masses (L, C) the rule fits to L datasets with outcome counts (L, C)
    on cols and sizes n (L,).

    pbar (L, C) holds the current mixture of each dataset's seed, read by the
    mixture-loglik reward; memory (L, C) the empirical rows of the rolled
    buffers, read by the memory-buffer rule; vector the fixed reward's
    _rule_vector, built here when None. The rule fits the K outcomes (see
    _check_fit); smoothed-mle, which puts mass off the data, is given every
    outcome. ValueError when a row's reward tilt zeroes every sampled
    outcome.
    """
    k_space = counts.shape[1]
    if rule.kind == "mle":
        mass = counts / n[:, None]
    elif rule.kind == "smoothed-mle":
        mass = (counts + rule.lam) / (n + rule.lam * k_space)[:, None]
    elif rule.kind == "memory-buffer":
        mass = rule.alpha_mem * memory + (1.0 - rule.alpha_mem) * (counts / n[:, None])
    else:  # reward-reweighted-mle; UpdateRule admits no other kind
        if rule.reward_source == "mixture-loglik":
            # exp(beta * ln pbar) = pbar ** beta, taken only where the data
            # is: a zero count weighs zero whatever its tilt, and a tilt not
            # taken cannot underflow, on a reach or over every outcome
            tilt = np.power(pbar, rule.beta, out=np.zeros_like(pbar), where=counts > 0.0)
        else:
            if vector is None:
                vector = _rule_vector(rule, len(rule.reward))
            tilt = cols.take(vector)
        weighted = counts * tilt
        total = cols.rowsum(weighted)
        if (total <= 0.0).any():
            raise ValueError(_TILT_WIPED)
        mass = weighted / total
    mass /= cols.rowsum(mass)
    return mass


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


# update kinds whose fit puts no mass off the data it is fitted to
_DATA_BOUND = ("mle", "memory-buffer", "reward-reweighted-mle")

# a round that raises one of these fails its seed as a SimulationError
_ROUND_ERRORS = (
    DegenerateSelectionError,
    VerifierAnnihilationError,
    ValueError,
    FloatingPointError,
)


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
    happened; states, when kept, holds the population after each round, so
    states[-1] is the population the run ends with. A run without
    keep_states, and a trajectory load_trajectories read back, has states
    None.
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
    states: tuple[Population, ...] | None = None

    def __setstate__(self, state):
        # numpy unpickles arrays writeable; columns read back stay read-only
        self.__dict__.update(state)
        for columns in (self.values, self.monitor_mass, self.monitor_absent):
            for column in columns.values():
                column.setflags(write=False)


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
    """Seeds of one _Batch advanced through the round in lock-step.

    Row i of every per-seed field belongs to run ids[i]. cols are the
    columns the stages compute on (see _Columns): each row's reach, which
    _reach finds at each update and off which that row's agents and pt are
    zero, or every outcome. agents (S, M, C), pt (S, C) and pbar, which
    mixes agents (None while stale), live on cols. agents is the chunk's
    one writable, C-contiguous array: an update or entropy release of every
    row builds a new one, and one of some rows and a cooling rollback write
    into it in place, so its rows leave the chunk only as copies. pt and
    pbar are rebuilt each round, never changed once a record has handed out
    views of them. K-long rows are built from cols only for the readers
    that need them: policy schedules and hooks, custom probes, kept states
    (population()), and the agents an update leaves unfitted when the gate
    declines the reach. The hooks that can move mass decline it, so they
    see every outcome. Registry probes and monitors measure pt on cols.
    initial copies the start rows for an entropy release anchored on them,
    and checkpoints one array like them per cooling policy. data (S, B, n)
    holds the round's B datasets per seed, of which sizes (S, B) entries
    are filled: a verifier gets a read-only view of the filled front of a
    block and its kept samples are written back there. live (S, B) marks
    the blocks no verifier emptied; an emptied block keeps its samples.
    _record fills column r of values (S, P, R+1), masses and absent
    (S, N, R+1); fired and notes gather (round, text) events. A round that
    raises one of _ROUND_ERRORS for any row stops the whole chunk, which
    _Batch.results then cuts in halves with rows(). scratch holds what each
    reach borrows, and vectors the selection's and the update's
    _rule_vector, or None where the stage builds its own.
    """

    def __init__(self, batch: _Batch, ids: range, pops: Sequence[Population]):
        rows = range(len(pops))
        self.batch, self.cfg, self.policies = batch, batch.cfg, batch.policies
        self.space = pops[0].space
        self.weights = np.stack([p.weights for p in pops])
        self.agents = np.stack([np.stack([a.mass for a in p.agents]) for p in pops])
        anchored = any(p.anchor == "initial" for p in batch.policies["entropy-release"])
        self.initial = self.agents.copy() if anchored else None
        self.pbar = self.pt = self.data = self.sizes = self.live = None
        shape = (len(pops), len(batch.monitors), self.cfg.rounds + 1)
        self.values = np.empty((shape[0], len(batch.probes), shape[2]))
        self.masses, self.absent = np.empty(shape), np.zeros(shape, dtype=bool)
        self.ids, self.rngs = list(ids), [make_rng(batch.seeds[i]) for i in ids]
        self.checkpoints = [p.initial_checkpoint(self.agents) for p in batch.policies["cooling"]]
        self.memory = [np.zeros(0, np.int64) for _ in rows]
        self.cols, self.scratch = _EVERY, None
        rules = (self.cfg.selection, self.cfg.update)
        try:  # under the error state in which the chunk's rounds run
            self.vectors = [_rule_vector(rule, self.space.size) for rule in rules]
        except _ROUND_ERRORS:  # each stage call builds its own, failing the round there
            self.vectors = [None, None]
        for name in ("fired", "notes", "states"):
            setattr(self, name, [[] for _ in rows])

    def rows(self, keep: slice) -> _Chunk:
        """The rows keep of this chunk, between rounds, as a chunk that
        shares nothing it writes with this one."""
        part = copy.copy(self)
        for name in ("weights", "agents", "initial", "pbar", "pt", "values", "masses", "absent"):
            value = getattr(self, name)
            setattr(part, name, None if value is None else value[keep].copy())
        part.checkpoints = [value[keep].copy() for value in self.checkpoints]
        part.ids, part.memory = self.ids[keep], self.memory[keep]  # a buffer is never written
        part.rngs = copy.deepcopy(self.rngs[keep])
        for name in ("fired", "notes", "states"):
            setattr(part, name, [list(events) for events in getattr(self, name)[keep]])
        part.cols, part.scratch = self.cols[keep], None
        part.data = part.sizes = part.live = None  # each round draws its own
        return part

    def population(self, s: int) -> Population:
        """Seed s's population over copies of its rows, which outlive the
        chunk; bit-equal rows, as a shared-data update leaves them, share one."""
        agents: list[ProbVector] = []
        for row in self.cols[s : s + 1].dense(self.agents[s : s + 1])[0]:
            if agents and np.array_equal(agents[-1].mass.view(np.int64), row.view(np.int64)):
                agents.append(agents[-1])
            else:
                agents.append(_wrap(self.space, row.copy()))
        weights = self.weights[s]
        weights.setflags(write=False)
        return Population._trusted(weights, tuple(agents))

    def _mixture(self) -> np.ndarray:
        """Mixtures (S, C) of the current agents on cols, mixed once per change."""
        if self.pbar is None:
            self.pbar = mixture(self.weights, self.agents, self.cols)
        return self.pbar

    def _firing(self, pol, r: int) -> np.ndarray:
        """The rows whose schedule has pol act in round r."""
        if pol.schedule.reads_mixture:
            mixtures = self.cols.dense(self._mixture())
        else:  # the schedule reads how many rows there are
            mixtures = np.empty((len(self.ids), 0))
        return np.flatnonzero(pol.schedule.fires(r, mixtures))

    def advance(self, r: int) -> None:
        """Round r, as phases; one that raises for any row stops the chunk.

        Round r >= 1 samples from pt, screens each dataset with the
        verifiers in agent order, refits, then applies entropy release and
        cooling. Every round, round 0 included, then mixes and selects the
        population, diversity for round r+1 included: that pt is what round
        r+1 samples from and what the record of round r measures.
        """
        ahead = (self._sample, self._screen, self._update, self._release, self._cool)
        for phase in (*(ahead if r else ()), self._select, self._diversify, self._record):
            phase(r)

    def _sample(self, r: int) -> None:
        blocks = self.agents.shape[1] if self.cfg.per_agent_datasets else 1
        n = self.cfg.sample_size
        draws = sample_dataset(self.pt, n * blocks, self.rngs, self.cols)
        self.data = draws.reshape(len(self.ids), blocks, n)
        self.sizes = np.full((len(self.ids), blocks), n)
        self.live = np.ones((len(self.ids), blocks), dtype=bool)

    def _screen(self, r: int) -> None:
        for pol in self.policies["verifier"]:
            for s in self._firing(pol, r):
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
                    else:
                        self.sizes[s, m] = len(kept)

    def _held(self) -> np.ndarray:
        """The filled positions (S, B, n) of data."""
        return np.arange(self.data.shape[2]) < self.sizes[:, :, None]

    def _reach(self, owner: np.ndarray, samples: np.ndarray) -> tuple[_Columns, np.ndarray]:
        """The columns of this round's update and of the stages after it, and
        the position of each of the update's samples, samples[i] being read
        for chunk row owner[i], among its row's columns. The columns are the
        reach, each row's sorted outcomes of its datasets (as the verifiers
        left them) and memory buffer, when every row is fitted by a rule that
        puts no mass off its data and no hook moves mass; else every outcome,
        at which each sample is its own position. A row's reach is sought
        only when its B * n samples, plus capacity buffered ones, are at most
        K / 2. A chunk of one row, as every chunk of a large space is, has
        no padding to build: its sorted keys are its outcomes."""
        rule, k_space = self.cfg.update, self.space.size
        # a row's samples; capacity is 0 but for the buffer
        per_row = self.data.shape[1] * self.data.shape[2] + rule.capacity
        if (
            rule.kind not in _DATA_BOUND
            or 2 * per_row > k_space
            or not self.live.all()
            or any(self.policies[kind] for kind in ("diversity", "entropy-release", "cooling"))
        ):
            return _EVERY, samples
        rows = len(self.ids)
        if self.scratch is None:
            self.scratch = np.zeros(self.live.size * k_space + 1), np.empty(rows * k_space, np.intp)
        zeros, lookup = self.scratch
        keys = owner * k_space + samples  # entry s * K + k of (S, K) rows
        if rows * k_space < 2**31:
            keys = keys.astype(np.int32)  # sorted in half the time of int64
        reached = sorted_unique(keys)  # row by row, each row's outcomes in order
        if rows == 1:  # about 20 us of a 65 us reach at K = 10**5, 2200 keys
            index, columns = reached.astype(np.int64)[None], np.arange(len(reached))
        else:
            seeds = reached // k_space
            widths = np.bincount(seeds, minlength=rows)
            filled = np.arange(widths.max()) < widths[:, None]
            index = np.full(filled.shape, k_space)
            index[filled] = reached - seeds * k_space
            columns = np.nonzero(filled)[1]
        lookup[reached] = columns
        return _Columns(index, k_space, zeros), lookup[keys]

    def _update(self, r: int) -> None:
        rule = self.cfg.update
        rows, blocks = np.nonzero(self.live)
        if not rows.size:
            return
        sizes = self.sizes[self.live]
        samples = [self.data[self.live[:, :, None] & self._held()]]
        owners = [np.repeat(rows, sizes)]
        if rule.kind == "memory-buffer":  # shared data: one block per row
            for s in rows:
                fresh = self.data[s, 0, : self.sizes[s, 0]]
                self.memory[s] = roll_memory(self.memory[s], fresh, rule.capacity)
            buffers = [self.memory[s] for s in rows]
            lengths = np.array([len(b) for b in buffers])
            samples.extend(buffers)
            owners.append(np.repeat(rows, lengths))
        cols, positions = self._reach(np.concatenate(owners), np.concatenate(samples))
        pbar = None
        if rule.reads_mixture:
            pbar = cols.take(self.cols.dense(self._mixture()))[rows]
        if rows.size < self.live.size:  # the unfitted keep their agents, on every outcome
            self.agents = self.cols.dense(self.agents)
        self.pbar, self.cols = None, cols
        fitted = cols[rows]  # the columns of each dataset
        width = self.space.size if cols.index is None else cols.index.shape[1]
        memory = None
        if rule.kind == "memory-buffer":
            buffered, lengths = _counts(positions[len(samples[0]) :], lengths, width)
            memory = buffered / lengths[:, None]
        counts, n = _counts(positions[: len(samples[0])], sizes, width)
        mass = update_agents(rule, counts, n, pbar, memory, fitted, self.vectors[1])
        if rows.size < self.live.size and self.cfg.per_agent_datasets:
            self.agents[rows, blocks] = mass
        elif rows.size < self.live.size:
            self.agents[rows] = mass[:, None, :]
        elif self.cfg.per_agent_datasets:  # entry s * M + m fits agent m of seed s
            self.agents = mass.reshape(len(self.ids), -1, width)
        else:
            self.agents = np.repeat(mass[:, None, :], self.weights.shape[1], axis=1)

    def _release(self, r: int) -> None:
        for pol in self.policies["entropy-release"]:
            rows = self._firing(pol, r)
            if not rows.size:
                continue
            initial = self.initial if pol.anchor == "initial" else None
            if rows.size == len(self.ids):  # released is a new array like agents
                self.agents = pol.adjust_population(self.agents, initial)
            else:
                initial = None if initial is None else initial[rows]
                self.agents[rows] = pol.adjust_population(self.agents[rows], initial)
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

    def _cool(self, r: int) -> None:
        for pol, checkpoints in zip(self.policies["cooling"], self.checkpoints):
            rows = self._firing(pol, r)
            pbar = self._mixture()
            for s in rows:
                current = (self.agents[s], pbar[s])
                cooled, checkpoints[s], rolled = pol.cool(current, checkpoints[s])
                if rolled:
                    self.agents[s] = cooled
                    self.pbar = None
                    self.fired[s].append((r, pol.kind))
                    self.notes[s].append((r, "cooling-rollback"))
                else:
                    self.notes[s].append((r, "cooling-refresh"))

    def _select(self, r: int) -> None:
        rule, space = self.cfg.selection, self.space
        self.pt = apply_selection(rule, space, self._mixture(), self.cols, self.vectors[0])

    def _diversify(self, r: int) -> None:
        for pol in self.policies["diversity"]:
            rows = self._firing(pol, r + 1)
            self.pt[rows] = pol.adjust_training(self.pt[rows])
            if r < self.cfg.rounds:  # an event of round r+1, which samples this pt
                for s in rows:
                    self.fired[s].append((r + 1, pol.kind))

    def _record(self, r: int) -> None:
        """Fill column r of every row (and keep its state). Each probe measures
        the chunk's rows in one call; one that raises one of _ROUND_ERRORS,
        or gives a row no single value, stops the chunk."""
        batch = self.batch
        held = self._held() if r else None
        self.pt.setflags(write=False)  # the probes read it whole
        with self.cols.written(self.pt) as dense:
            for i, (idx, hood) in enumerate(batch.monitors.values()):
                self.masses[:, i, r] = np.take(dense, idx, axis=1).sum(axis=1)
                if r:  # did this round's data miss the neighborhood?
                    self.absent[:, i, r] = ~(hood[self.data] & held).any(axis=(1, 2))
            if batch.probes:
                at = (self.pt, self.agents, self.cols, dense)
                self.values[:, :, r] = _measure(r, batch.probes, batch.ref, *at)
        if batch.keep_states:
            for s in range(len(self.ids)):
                self.states[s].append(self.population(s))


def _measure(
    r: int, probes, ref, pt: np.ndarray, agents: np.ndarray, cols: _Columns, dense: np.ndarray
) -> np.ndarray:
    """The values (S, P) of the probes in round r on the training rows pt
    (S, C) and agent rows agents (S, M, C) on cols, dense being pt's dense
    rows (S, K), each probe called once; a probe that gives other than S
    values raises ValueError. A registry probe measures pt on cols (its one
    body); any other probe gets K-long read-only rows, built once, its agent
    rows sharing no memory with the chunk's, which the chunk writes in place."""
    values = np.empty((len(pt), len(probes)))
    on_every = None  # pt and agents on every outcome, as evaluator reads them
    for i, probe in enumerate(probes):
        body = getattr(probe, "_body", None)
        if body is not None:
            column = body(pt, cols.index, dense, ref)
        else:
            if on_every is None:  # on a reach, dense builds new agent rows
                agents = agents.copy() if cols.index is None else cols.dense(agents)
                on_every = cols.dense(pt), agents
                for x in on_every:
                    x.setflags(write=False)
            column = probe.evaluator(r, *on_every, ref)
        column = np.asarray(column, dtype=np.float64)
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


@dataclass(frozen=True)
class _Batch:
    """What every chunk of one run_batch call shares, and the chunk loop."""

    cfg: EvolutionConfig
    seeds: list[int]
    probes: Sequence
    ref: object
    policies: dict[str, list]
    monitors: dict[str, tuple[np.ndarray, np.ndarray]]  # name: (outcomes, hood mask)
    keep_states: bool
    width: int  # seeds per chunk at most, chunk_size(M, K)

    def results(self, ids: range, pops: Sequence[Population]) -> list[Trajectory | SimulationError]:
        """The Trajectory, or SimulationError, of each run in ids, which start
        from pops and advance as one chunk (see _results)."""
        return self._results(0, lambda: _Chunk(self, ids, pops))

    def _results(
        self, start: int, build: Callable[[], _Chunk]
    ) -> list[Trajectory | SimulationError]:
        """The results of the chunk that build() gives at the start of round
        `start`; a second call gives it again. When round r raises one of
        _ROUND_ERRORS, a chunk of one seed gives SimulationError(r); a wider
        one is built again, advanced to round r and cut in halves that go on
        from there. A seed's bytes do not depend on its chunk-mates, so each
        ends as it would alone, having run each round at most twice, and
        round r once more per halving: about 2 * r + log2(S) rounds in all."""
        chunk = build()
        try:
            for r in range(start, self.cfg.rounds + 1):
                chunk.advance(r)
        except _ROUND_ERRORS as exc:
            if len(chunk.ids) == 1:
                import traceback  # a failure's import: start-up does not load it

                del chunk, build  # the cause keeps its traceback, whose frames reach here
                traceback.clear_frames(exc.__traceback__)
                return [SimulationError(r, exc)]
        else:
            return self._trajectories(chunk)
        del chunk  # one chunk at a time
        chunk = build()
        del build  # which may hold the start that chunk now is
        for q in range(start, r):
            chunk.advance(q)
        half = len(chunk.ids) // 2
        parts = [chunk.rows(slice(None, half)), chunk.rows(slice(half, None))]
        del chunk
        results = []
        while parts:  # a half's one reference goes to the call that runs it
            results += self._results(r, _copy_then(parts.pop(0)).__next__)
        return results

    def _trajectories(self, chunk: _Chunk) -> list[Trajectory]:
        """The Trajectory of each row of a chunk that ran every round."""
        for columns in (chunk.values, chunk.masses, chunk.absent):
            columns.setflags(write=False)
        names = tuple(p.name for p in self.probes)
        monitors = {name: tuple(idx.tolist()) for name, (idx, _) in self.monitors.items()}
        return [
            Trajectory(
                seed=self.seeds[i],
                probe_names=names,
                rounds=self.cfg.rounds,
                values=dict(zip(names, chunk.values[s])),
                monitors=dict(monitors),
                monitor_mass=dict(zip(monitors, chunk.masses[s])),
                monitor_absent=dict(zip(monitors, chunk.absent[s])),
                fired=tuple(chunk.fired[s]),
                notes=tuple(chunk.notes[s]),
                states=tuple(chunk.states[s]) if self.keep_states else None,
            )
            for s, i in enumerate(chunk.ids)
        ]


def _copy_then(part: _Chunk) -> Iterator[_Chunk]:
    """A copy of part to run, then part itself to run again."""
    yield part.rows(slice(None))
    yield part


# A call forks worker processes only when one of its batches has more than
# POOL_ELEMENTS elements of work, seeds * (rounds + 1) * M * K; a call whose
# batches are each smaller stays in process, however many batches it has. On
# 2 cores (Python 3.11, numpy 2.4.6), with chunks cut as run_batch cuts them,
# the bench workloads that fork ran faster pooled than in process (5
# alternating --seconds 5 rounds at seed 0, medians): compare, whose 40-seed
# arms hold 1.9 * 2**23 elements each, 0.879 against 1.113 s, drift
# (9.6 * 2**23) 0.386 against 0.510 s and ensemble (19 * 2**23) 0.507 against
# 0.831 s. So 2**23 stands. An element on the reach is cheap, though: fresh
# processes of one mle run_batch call (M=4, K=1000, no probes; 10 interleaved
# pairs) ran slower pooled at every size from 0.49 to 9.6 * 2**23 elements
# (0 or 1 wins of 10; at 1.9 * 2**23, 177 against 91 ms), each worker's CPU
# time about half its wall time. The element count no longer tells the
# break-even alone, so summing a call's batches would fork more such runs.
POOL_ELEMENTS = 2**23


def _pool_size(seeds: int, work: int) -> int:
    """How many worker processes run `seeds` seeds of `work` elements in all;
    1 runs them in this process. Workers are forked only where fork is safe
    (Linux, one thread) and allowed (a daemonic process may have no
    children), when at least 2 CPUs are usable."""
    if seeds < 2 or work <= POOL_ELEMENTS or sys.platform != "linux":
        return 1
    cpus = len(os.sched_getaffinity(0))
    if cpus < 2 or threading.active_count() > 1:
        return 1
    import multiprocessing  # here only: a run in process never pays for it

    if multiprocessing.current_process().daemon:
        return 1
    return min(cpus, seeds)


def _spans(seeds: int, width: int, workers: int) -> list[range]:
    """The chunks of seeds 0..seeds-1 for `workers` workers: the fewest no
    wider than width, their count rounded up to a multiple of workers where
    there are seeds enough, and their widths differing by at most one, the
    wider first (as np.array_split cuts). Dealt in turn, the chunks give
    each worker the same share of seeds, give or take one."""
    least = -(-seeds // width)
    chunks = min(seeds, workers * -(-least // workers))
    width, wider = divmod(seeds, chunks)
    edges = [j * width + min(j, wider) for j in range(chunks + 1)]
    return [range(lo, hi) for lo, hi in zip(edges, edges[1:])]


def _serve(batches: Sequence[_Batch], link) -> None:
    """A pool worker: run each chunk that arrives on link, seeds ids of
    batches[k], under the parent's numpy error state, and send back its
    results or the exception that stopped it, until the parent closes link."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent's to handle: it stops the pool
    signal.signal(signal.SIGTERM, signal.SIG_DFL)  # the parent's stop ends the worker at once
    while True:
        try:
            k, ids, pops, errstate = link.recv()
        except EOFError:
            return
        try:
            with np.errstate(**errstate):
                out = batches[k].results(ids, pops)
        except Exception as exc:  # raised again in the parent
            import traceback  # a worker's import: start-up does not load it

            out = (exc, traceback.format_exc())
        link.send(out)


def _received(link) -> list[Trajectory | SimulationError]:
    """The results that a worker sends on link; its exception is raised, with
    the worker's traceback as the cause, and ChildProcessError when the
    worker has died."""
    try:
        out = link.recv()
    except EOFError:
        raise ChildProcessError("a run_batch worker process exited mid-run") from None
    if isinstance(out, tuple):
        exc, trace = out
        raise exc from RuntimeError(f"in a run_batch worker process:\n{trace}")
    return out


def _pooled(batches: Sequence[_Batch], chunks: Iterator[tuple[int, range, list]], workers: int):
    """The results of each chunk (k, ids, pops) of chunks, seeds ids of
    batches[k] from pops, in order and one at a time, from workers forked
    worker processes that hold every batch. Each worker is sent a chunk, then
    its next one as soon as its results are in, so it never writes a result
    while the parent writes to it, and chunk j runs on worker j % workers. A
    ConfigError that chunks raises is raised after the results of every
    chunk sent before it. The workers are stopped however the iteration ends."""
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    links, procs, error = [], [], None

    def send(link) -> bool:
        """Send link the next chunk; False at the end of chunks, or at a
        ConfigError, which is held (chunks then holds no more)."""
        nonlocal error
        try:
            k, ids, pops = next(chunks)
        except StopIteration:
            return False
        except ConfigError as exc:
            error = exc
            return False
        link.send((k, ids, pops, np.geterr()))
        return True

    try:
        for _ in range(workers):
            link, end = ctx.Pipe()
            procs.append(ctx.Process(target=_serve, args=(batches, end), daemon=True))
            procs[-1].start()
            end.close()
            links.append(link)
        busy = deque(link for link in links if send(link))
        while busy:
            link = busy.popleft()
            out = _received(link)
            if send(link):
                busy.append(link)
            yield from out
        if error is not None:
            raise error
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for link in links:
            link.close()


def _prepare(
    pops, cfg, seeds, probes=(), intervention=None, *, ref=None, monitors=None, keep_states=False
) -> tuple[_Batch, Iterator[Population], int] | None:
    """The checks of a run_batch call with these arguments, which it
    documents, and what the call runs: its _Batch, its start populations,
    whose first is checked here and the rest as _chunks reads them, and its
    work, seeds * (rounds + 1) * M * K elements; None when seeds is empty."""
    if probes and ref is None:
        raise ConfigError("probes were requested but no reference was given")
    names = [probe.name for probe in probes]
    for name in names:
        if names.count(name) > 1:  # values holds one column per name
            raise ConfigError(f"probe {name!r} is requested more than once")
    seeds = [_check_seed(seed) for seed in seeds]
    if hasattr(pops, "__len__") and len(pops) != len(seeds):
        raise ConfigError(_ONE_PER_SEED)
    rest = iter(pops)
    first = next(rest, None)
    if (first is None) != (not seeds):
        raise ConfigError(_ONE_PER_SEED)
    if first is None:
        return None
    space, size = first.space, first.size
    if getattr(ref, "space", space) != space:
        raise ConfigError(
            f"the reference lives on {ref.space.size} outcomes, the populations on {space.size}"
        )
    policies = _group_policies(intervention, space, size)
    _check_fit(cfg.selection, space)
    _check_fit(cfg.update, space)
    radius = cfg.update.neighborhood_radius

    checked: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for name, indices in (monitors or {}).items():
        idx = space.validate_indices(indices)
        if idx.size == 0:
            raise ConfigError(f"monitored set {name!r} is empty")
        hood = np.zeros(space.size, dtype=bool)
        hood[neighborhood(space, idx, radius)] = True
        checked[name] = idx, hood

    batch = _Batch(
        cfg, seeds, probes, ref, policies, checked, keep_states, chunk_size(size, space.size)
    )
    work = len(seeds) * (cfg.rounds + 1) * size * space.size
    return batch, chain([first], rest), work


def _chunks(
    calls: Sequence[tuple[_Batch, Iterator[Population], int]], workers: int
) -> Iterator[tuple[int, range, list[Population]]]:
    """(k, ids, pops) for each chunk of each call's batch in turn, cut by
    _spans for workers: seeds ids of batches[k] and their start populations,
    read from the call's populations only when the chunk is asked for and
    checked against the batch's first. Asked for more after a batch's last
    chunk, it checks that the batch's populations hold no more."""
    for k, (batch, starts, _) in enumerate(calls):
        first = None
        for ids in _spans(len(batch.seeds), batch.width, workers):
            pops = list(islice(starts, len(ids)))
            first = first or pops[0]
            if any(pop.space != first.space or pop.size != first.size for pop in pops):
                raise ConfigError("the populations of a batch must share one space and size")
            if len(pops) < len(ids):
                raise ConfigError(_ONE_PER_SEED)
            yield k, ids, pops
        if next(starts, None) is not None:
            raise ConfigError(_ONE_PER_SEED)


def _run_batches(
    calls: Sequence[tuple[_Batch, Iterator[Population], int]],
) -> Iterator[Trajectory | SimulationError]:
    """The results of every (batch, starts, work) call that _prepare made, one
    call after another, each as run_batch gives them. The worker count is
    chosen once, the most that any one batch would take alone, and each
    batch is cut into chunks for it (see _chunks); a pool's workers are
    forked once, holding every batch. The first chunk of the first call's
    populations is read here."""
    batches = [batch for batch, _, _ in calls]
    workers = max(_pool_size(len(batch.seeds), work) for batch, _, work in calls)
    chunks = _chunks(calls, workers)
    # a one-shot iterator: a list passed to chain would hold the first chunk to the end
    chunks = chain(iter([next(chunks)]), chunks)
    if workers > 1:
        return _pooled(batches, chunks, workers)
    return (result for k, ids, pops in chunks for result in batches[k].results(ids, pops))


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
    space too. Yields, in input order and chunk by chunk, each seed's
    Trajectory, or the SimulationError of a seed whose run failed; the other
    seeds are unaffected by it. A chunk whose round fails runs again up to
    that round and goes on from there in halves, down to the seeds that
    fail alone (see _Batch.results), so a probe or policy hook may be
    called again for rounds it has already seen; a failing seed runs each
    round at most about twice. probes, intervention, monitors and
    keep_states apply to every seed, as in run(); an entropy-release anchor
    "initial" is each seed's own start population. Each probe names one
    column of values, so no two probes may share a name.

    Seeds advance in lock-step chunks, as few as chunk_size(M, K) seeds
    wide allows, whose widths differ by at most one. A run of at least 2
    seeds and more than POOL_ELEMENTS elements of work, seeds * (rounds + 1)
    * M * K, runs its chunks on one pool of worker processes forked for the
    call, one per usable CPU and at most one per seed, where fork is safe:
    on Linux, from a process of one thread that is not daemonic. Its chunk
    count is then a multiple of the worker count where the seeds allow, so
    the workers' shares differ by at most one seed. Any other run stays in
    this process. (The runners in harness hand several such calls, one per
    comparison arm, to one pool, forked once when any one of them would
    fork alone and as large as the largest of them would take.)
    A seed's bytes are the same either way, whatever the CPU count. Each
    worker holds one chunk at a time, so at most one chunk of start
    populations per worker is in flight (one chunk in process), and pops is
    read only as chunks are sent. A worker is forked with this call's probes
    and policies: what they record there stays there. A worker's exception
    is raised here with its type and message, the worker's traceback as its
    cause, and a worker that dies mid-run raises ChildProcessError; the
    workers are stopped however the iteration ends.

    The arguments and the first chunk's populations are checked here; a
    later chunk's populations, and a pops iterable without len() that is
    longer or shorter than seeds, when the iterator reaches them.
    """
    call = _prepare(
        pops, cfg, seeds, probes, intervention, ref=ref, monitors=monitors,
        keep_states=keep_states,
    )
    return _run_batches([call]) if call else iter(())


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
    for decay estimation). keep_states keeps the population after each
    round in states, so states[-1] is the population the run ends with. The
    memory buffer starts empty. A failed round raises SimulationError. This
    is run_batch on one seed, and gives the bytes of run_batch's row for
    that seed.
    """
    (result,) = run_batch(
        [pop0], cfg, [seed], probes, intervention, ref=ref, monitors=monitors,
        keep_states=keep_states,
    )
    if isinstance(result, SimulationError):
        raise result
    return result
