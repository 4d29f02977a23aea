"""Mitigation policies that pierce the closed loop in controlled ways.

Each policy object is constructed WITH whatever reference access it needs, so
every isolation breach is visible at one construction site. The evolution
loop only ever calls the policy protocol (fires / filter_dataset /
adjust_training / adjust_population / cool) and stays reference-free.

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
  entropy-release  blend each agent toward an anchor (uniform or a kept
                   initial population), then prune entries below a floor and
                   renormalize; optionally drop unsafe samples from the
                   memory buffer
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import ProbVector, SafetyReference, _derived
from .errors import ConfigError, VerifierAnnihilationError
from .evolution import Population, mixture
from .metrics import kl_divergence

COMPOSITION_ORDER = (
    "diversity",
    "sampling",
    "verifier",
    "update",
    "entropy-release",
    "cooling",
)

_SCHEDULE_KINDS = ("every", "kl-trigger")


@dataclass(frozen=True, eq=False)
class Schedule:
    """When a policy acts: every k-th round, or when drift crosses a threshold."""

    kind: str = "every"
    k: int = 1
    threshold: float = 0.0
    ref: SafetyReference | None = None

    def __post_init__(self):
        if self.kind not in _SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}; one of {_SCHEDULE_KINDS}")
        if self.kind == "every" and self.k < 1:
            raise ConfigError(f"every-k schedule needs k >= 1, got {self.k}")
        if self.kind == "kl-trigger" and self.ref is None:
            raise ConfigError("kl-trigger schedule needs a reference to measure against")
        if not math.isfinite(self.threshold):
            raise ConfigError(f"schedule threshold must be finite, got {self.threshold}")

    def fires(self, round_index: int, pop: Population) -> bool:
        if self.kind == "every":
            return round_index % self.k == 0
        return kl_divergence(self.ref.pi_star, mixture(pop)) > self.threshold


class _Scheduled:
    def fires(self, round_index: int, pop: Population) -> bool:
        return self.schedule.fires(round_index, pop)


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

    def initial_checkpoint(self, pop0: Population) -> Population:
        return self.checkpoint if self.checkpoint is not None else pop0

    def cool(
        self, pop: Population, checkpoint: Population
    ) -> tuple[Population, Population, bool]:
        """Return (population, checkpoint, rolled_back).

        Drift within the threshold refreshes the checkpoint to the current
        population. Past the threshold, each agent is blended
        blend * checkpoint + (1 - blend) * current; the checkpoint is kept.
        """
        if checkpoint.size != pop.size or checkpoint.space != pop.space:
            raise ConfigError("cooling checkpoint does not match the population shape")
        d = kl_divergence(self.ref.pi_star, mixture(pop))
        if d <= self.kl_threshold:
            return pop, pop, False
        if self.blend == 1.0:
            return checkpoint, checkpoint, True
        agents = [
            _derived(pop.space, self.blend * ck.mass + (1.0 - self.blend) * cur.mass)
            for ck, cur in zip(checkpoint.agents, pop.agents)
        ]
        return pop._successor(agents), checkpoint, True


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

    def adjust_training(self, pt: ProbVector) -> ProbVector:
        """(1 - rho) * normalize(pt^(1/temperature)) + rho * pi_star."""
        if self.temperature == 1.0:
            tempered = pt.mass
        else:
            powered = pt.mass ** (1.0 / self.temperature)
            tempered = powered / float(powered.sum())
        blended = (1.0 - self.rho) * tempered + self.rho * self.ref.pi_star.mass
        return _derived(pt.space, blended)


@dataclass(frozen=True, eq=False)
class EntropyReleasePolicy(_Scheduled):
    """Blend agents toward an anchor distribution, then prune tiny entries.

    anchor is the string "uniform", a single ProbVector applied to every
    agent, or a Population supplying one anchor per agent (the usual choice
    being the initial population). Pruning zeroes entries strictly below
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
        if isinstance(self.anchor, str) and self.anchor != "uniform":
            raise ConfigError(
                f"anchor must be 'uniform', a ProbVector, or a Population, got {self.anchor!r}"
            )
        if self.prune_memory and self.ref is None:
            raise ConfigError("memory pruning needs a reference to define 'unsafe'")

    def _anchor_mass(self, index: int, pop: Population) -> np.ndarray:
        if isinstance(self.anchor, str):
            return np.full(pop.space.size, 1.0 / pop.space.size)
        if isinstance(self.anchor, ProbVector):
            return self.anchor.mass
        if self.anchor.size != pop.size or self.anchor.space != pop.space:
            raise ConfigError("anchor population does not match the population shape")
        return self.anchor.agents[index].mass

    def adjust_population(self, pop: Population) -> Population:
        agents = []
        for m, agent in enumerate(pop.agents):
            blended = (1.0 - self.gamma) * agent.mass + self.gamma * self._anchor_mass(m, pop)
            if self.prune_floor > 0.0:
                blended = np.where(blended < self.prune_floor, 0.0, blended)
                if float(blended.sum()) <= 0.0:
                    raise ValueError(
                        f"prune floor {self.prune_floor} removed all of agent {m}'s mass"
                    )
            # two divisions, as make_prob_vector then ProbVector would do
            agents.append(_derived(pop.space, blended / float(blended.sum())))
        return pop._successor(agents)

    def prune_buffer(self, memory: Sequence[int] | np.ndarray) -> np.ndarray:
        memory = np.asarray(memory, dtype=np.int64)
        return memory[self.ref.safe_mask[memory]]
