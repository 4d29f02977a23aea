"""Mitigation policies that pierce the closed loop in controlled ways.

Each policy object is constructed WITH whatever reference access it needs, so
every isolation breach is visible at one construction site. The evolution
loop only ever calls the policy protocol (check_shape / schedule.fires /
filter_dataset / adjust_training / adjust_population / cool) on its row
arrays, and stays reference-free.

Attachment points compose in a fixed order within a round, regardless of how
policies are listed:

    diversity -> sampling -> verifier -> update -> entropy-release -> cooling

Strategies:
  verifier         drop unsafe samples from the round dataset before the
                   update (imperfect: false-positive rate on safe samples,
                   miss rate on unsafe ones; optional per-round inspection
                   budget models a human reviewer)
  cooling          measure drift of the mixture against the reference; past a
                   threshold, blend the population back toward a checkpoint
                   (blend 1.0 is a full rollback); below it, refresh the
                   checkpoint
  diversity        replace the training distribution with a tempered version
                   mixed with rho of the reference, guaranteeing every
                   reference-supported outcome at least rho * pi_star(z)
                   training mass
  entropy-release  blend each agent toward an anchor (uniform, the initial
                   population or a given one), then prune entries below a
                   floor and renormalize; optionally drop unsafe samples
                   from the memory buffer
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import OutcomeSpace, ProbVector, SafetyReference
from .errors import ConfigError, VerifierAnnihilationError
from .evolution import Population, _refuse_unread
from .evolution import mixture  # noqa: F401  (bench/test_bench.py wants mixture)
from .metrics import _kl_rows
from .metrics import kl_divergence  # noqa: F401  (bench/test_bench.py wants kl_divergence)

# schedule kind -> the fields it reads
_SCHEDULE_KINDS = {"every": ("k",), "kl-trigger": ("threshold", "ref")}


@dataclass(frozen=True, eq=False)
class Schedule:
    """When a policy acts: every k-th round, or when drift crosses a threshold."""

    kind: str = "every"
    k: int = 1
    threshold: float = 0.0
    ref: SafetyReference | None = None

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ConfigError(
                f"unknown schedule kind {self.kind!r}; one of {tuple(_SCHEDULE_KINDS)}"
            )
        if self.kind == "every" and self.k < 1:
            raise ConfigError(f"every-k schedule needs k >= 1, got {self.k}")
        if self.kind == "kl-trigger" and self.ref is None:
            raise ConfigError("kl-trigger schedule needs a reference to measure against")
        if not math.isfinite(self.threshold):
            raise ConfigError(f"schedule threshold must be finite, got {self.threshold}")
        _refuse_unread("schedule", self, _SCHEDULE_KINDS[self.kind])

    def fires(self, round_index: int, mixtures: np.ndarray) -> np.ndarray:
        """The mask (S,) of the mixture rows (S, K) that act in round_index:
        every-k, all or none (it reads only how many rows there are);
        kl-trigger, the rows that drift past the threshold."""
        if self.kind == "every":
            return np.full(len(mixtures), round_index % self.k == 0)
        return _kl_rows(self.ref.pi_star, mixtures) > self.threshold

    @property
    def reads_mixture(self) -> bool:
        """Whether fires reads the mixture rows, not just their count."""
        return self.kind == "kl-trigger"


class _Scheduled:
    def check_shape(self, space: OutcomeSpace, size: int) -> None:
        """ConfigError unless what the policy carries fits `size` agents over `space`."""
        refs = (getattr(self, "ref", None), self.schedule.ref)
        if any(ref is not None and ref.pi_star.space != space for ref in refs):
            raise ConfigError(f"{self.kind} reference does not match the population space")
        for name in ("checkpoint", "anchor"):
            given = getattr(self, name, None)
            if (isinstance(given, ProbVector) and given.space != space) or (
                isinstance(given, Population) and (given.space, given.size) != (space, size)
            ):
                raise ConfigError(f"{self.kind} {name} does not match the population shape")


@dataclass(frozen=True, eq=False)
class VerifierPolicy(_Scheduled):
    """Per-sample safety screen on the round dataset, before the update."""

    ref: SafetyReference
    fp: float = 0.0
    fn_rate: float = 0.0
    budget: int | None = None
    schedule: Schedule = field(default_factory=Schedule)
    kind: str = field(default="verifier", init=False)

    def __post_init__(self):
        if not (0.0 <= self.fp <= 1.0):
            raise ConfigError(f"false-positive rate must lie in [0, 1], got {self.fp}")
        if not (0.0 <= self.fn_rate <= 1.0):
            raise ConfigError(f"miss rate must lie in [0, 1], got {self.fn_rate}")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"inspection budget must be >= 1, got {self.budget}")

    def filter_dataset(self, data: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """The kept samples: safe ones w.p. 1-fp, unsafe ones w.p. fn_rate.

        With a budget only the first `budget` samples are inspected; the rest
        pass through unexamined. Removing every sample raises
        VerifierAnnihilationError (the caller skips that round's update).
        """
        inspected = len(data) if self.budget is None else min(self.budget, len(data))
        head = data[:inspected]
        safe = self.ref.safe_mask[head]
        keep_prob = np.where(safe, 1.0 - self.fp, self.fn_rate)
        keep = rng.random(inspected) < keep_prob
        kept = np.concatenate([head[keep], data[inspected:]])
        if kept.size == 0:
            raise VerifierAnnihilationError(f"verifier removed all {len(data)} samples")
        kept.setflags(write=False)
        return kept


@dataclass(frozen=True, eq=False)
class CoolingPolicy(_Scheduled):
    """Drift check against the reference with checkpoint rollback."""

    ref: SafetyReference
    kl_threshold: float = 0.5
    blend: float = 1.0
    checkpoint: Population | None = None
    schedule: Schedule = field(default_factory=Schedule)
    kind: str = field(default="cooling", init=False)

    def __post_init__(self):
        if not 0.0 <= self.kl_threshold < math.inf:
            raise ConfigError(
                f"cooling threshold must be finite and >= 0, got {self.kl_threshold}"
            )
        if not (0.0 < self.blend <= 1.0):
            raise ConfigError(f"cooling blend must lie in (0, 1], got {self.blend}")

    def initial_checkpoint(self, initial: np.ndarray) -> np.ndarray:
        """Fresh checkpoint rows (S, M, K): the given checkpoint, else `initial`."""
        ck = self.checkpoint
        given = initial if ck is None else np.stack([a.mass for a in ck.agents])
        return np.array(np.broadcast_to(given, initial.shape))

    def cool(self, current: tuple, checkpoint: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
        """(agents, checkpoint, rolled_back) for one seed: its agent rows (M, K)
        and their mixture (K,) in `current`, and its checkpoint rows (M, K).
        Drift within the threshold refreshes the checkpoint to the current rows;
        past it, each agent becomes blend * checkpoint + (1 - blend) * current."""
        agents, pbar = current
        if _kl_rows(self.ref.pi_star, pbar[None])[0] <= self.kl_threshold:
            return agents, agents, False
        if self.blend == 1.0:
            return checkpoint, checkpoint, True
        blended = self.blend * checkpoint + (1.0 - self.blend) * agents
        blended /= blended.sum(axis=1, keepdims=True)
        return blended, checkpoint, True


@dataclass(frozen=True, eq=False)
class DiversityPolicy(_Scheduled):
    """Tempered, reference-mixed training distribution (pre-sampling)."""

    ref: SafetyReference
    temperature: float = 1.5
    rho: float = 0.1
    schedule: Schedule = field(default_factory=Schedule)
    kind: str = field(default="diversity", init=False)

    def __post_init__(self):
        if not 1.0 <= self.temperature < math.inf:
            raise ConfigError(f"temperature must be finite and >= 1, got {self.temperature}")
        if not (0.0 <= self.rho <= 1.0):
            raise ConfigError(f"injection weight rho must lie in [0, 1], got {self.rho}")

    def adjust_training(self, pt: np.ndarray) -> np.ndarray:
        """(1 - rho) * normalize(pt^(1/temperature)) + rho * pi_star, per row of pt (S, K)."""
        if self.temperature == 1.0:
            tempered = pt
        else:
            tempered = pt ** (1.0 / self.temperature)
            tempered /= tempered.sum(axis=1, keepdims=True)
        blended = (1.0 - self.rho) * tempered + self.rho * self.ref.pi_star.mass
        blended /= blended.sum(axis=1, keepdims=True)
        return blended


@dataclass(frozen=True, eq=False)
class EntropyReleasePolicy(_Scheduled):
    """Blend agents toward an anchor distribution, then prune tiny entries.

    anchor is "uniform", "initial" (each seed's own start population), a
    single ProbVector applied to every agent, or a Population supplying one
    anchor per agent. Pruning zeroes entries strictly below
    prune_floor after the blend and renormalizes; emptying an agent entirely
    is an error. prune_memory additionally drops unsafe samples from the
    memory buffer (needs ref, and is the one reference access this strategy
    can make).
    """

    gamma: float = 0.05
    prune_floor: float = 0.0
    anchor: str | ProbVector | Population = "uniform"
    prune_memory: bool = False
    ref: SafetyReference | None = None
    schedule: Schedule = field(default_factory=Schedule)
    kind: str = field(default="entropy-release", init=False)

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ConfigError(f"release weight gamma must lie in (0, 1], got {self.gamma}")
        if not (0.0 <= self.prune_floor < 1.0):
            raise ConfigError(f"prune floor must lie in [0, 1), got {self.prune_floor}")
        if isinstance(self.anchor, str) and self.anchor not in ("uniform", "initial"):
            raise ConfigError(
                "anchor must be uniform, initial, a ProbVector or a Population, "
                f"got {self.anchor!r}"
            )
        if self.prune_memory and self.ref is None:
            raise ConfigError("memory pruning needs a reference to define 'unsafe'")

    def adjust_population(self, agents: np.ndarray, initial: np.ndarray) -> np.ndarray:
        """Released agent rows (S, M, K); anchor "initial" reads `initial`.
        ValueError when the prune empties an agent."""
        if isinstance(self.anchor, ProbVector):
            anchor = self.anchor.mass
        elif isinstance(self.anchor, Population):
            anchor = np.stack([a.mass for a in self.anchor.agents])
        elif self.anchor == "initial":
            anchor = initial
        else:
            anchor = np.full(agents.shape[2], 1.0 / agents.shape[2])
        blended = agents * (1.0 - self.gamma)  # one (S, M, K) array, blended in place
        blended += self.gamma * anchor
        if self.prune_floor > 0.0:
            blended[blended < self.prune_floor] = 0.0
        totals = blended.sum(axis=2, keepdims=True)
        emptied = np.flatnonzero(totals <= 0.0)
        if emptied.size:
            agent = emptied[0] % agents.shape[1]
            raise ValueError(f"prune floor {self.prune_floor} removed all of agent {agent}'s mass")
        # two divisions, as make_prob_vector then ProbVector would do
        blended /= totals
        blended /= blended.sum(axis=2, keepdims=True)
        return blended

    def prune_buffer(self, memory: Sequence[int] | np.ndarray) -> np.ndarray:
        memory = np.asarray(memory, dtype=np.int64)
        return memory[self.ref.safe_mask[memory]]
