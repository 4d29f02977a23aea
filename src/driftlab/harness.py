"""Experiment runner: configs, seed sweeps, headline experiments, export.

Config files are flat key=value text with dotted keys (diff-friendly), e.g.

    space.size=1000
    evolution.sample_size=200
    experiment.seeds=20

Every key can be overridden by an environment variable: prefix DRIFTLAB_,
uppercase, dots become double underscores (evolution.sample_size ->
DRIFTLAB_EVOLUTION__SAMPLE_SIZE). The evolution.*, selection.* and update.*
keys make ExperimentConfig.evolution, the EvolutionConfig every runner hands
to run_batch with its seeds. A config describes the experiment only: it names
no mitigation arm and no output file. Arms are the PolicySpecs given to
run_intervention_comparison, and output paths are the command line's.

Experiments:
  run_drift_experiment          isolated seed sweep, trend statistics,
                                terminal-state classification
  run_intervention_comparison   baseline vs. mitigation arms on shared seeds
  run_ensemble_mi               reference-ensemble mutual information decay

The first two sweep cfg.seeds through _sweep, which records a failed seed and
goes on. It runs the sweep once per policy it is given (a comparison's
baseline and arms) as one call of the engine: one pool of worker processes,
forked once with every policy's batch when any one of them would fork
alone. Each ensemble run starts from its own reference, and one failure
fails the ensemble.

Trajectories serialize to CSV (header "round,seed,<probes>", 17 significant
digits, infinities as "inf", seed-major row order) and JSON (each
Trajectory's columns, which load_trajectories reads back); both are
byte-stable for a fixed config and seed.
"""

from __future__ import annotations

import json
import math
import os
import stat
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import groupby, islice, starmap
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    OutcomeSpace,
    SafetyReference,
    _reference_on,
    dirichlet_reference,
    make_prob_vector,
    sorted_unique,
    two_tier_reference,
    zipf_reference,
)
from .errors import ConfigError, SimulationError
from .evolution import (
    MAX_SEED,
    EvolutionConfig,
    Population,
    Trajectory,
    _prepare,
    _refuse_unread,
    _run_batches,
    run,  # noqa: F401  (bench/test_bench.py expects driftlab.harness.run)
    run_batch,
)
from .interventions import (
    CoolingPolicy,
    DiversityPolicy,
    EntropyReleasePolicy,
    Schedule,
    VerifierPolicy,
)
from .metrics import mutual_information_plugin, resolve_probes

ENV_PREFIX = "DRIFTLAB_"
_INIT_STREAM = 0x496E6974  # distinguishes init draws from trajectory draws

# probes the drift experiment needs even when not requested (classification)
_REQUIRED_DRIFT_PROBES = ("safe_mass", "in_safe_term")
DEFAULT_PROBES = ("kl_safety", "safe_mass", "internal_entropy", "coverage")
# largest seed count or range a config may ask for
MAX_SEED_COUNT = 1_000_000
# largest ensemble MI table, (rounds + 1) x references x bins cells
MAX_MI_CELLS = 10_000_000


# ---------------------------------------------------------------------------
# flat-config parsing
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """key=value lines; blank lines and #-comments ignored; later keys win."""
    flat: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno} is not key=value: {raw!r}")
        key, _, value = line.partition("=")
        flat[key.strip()] = value.strip()
    return flat


def _read_text(path: str, what: str) -> str:
    """The UTF-8 text of the file at path; a ConfigError naming it as what
    when it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from exc


def load_config_file(path: str) -> dict[str, str]:
    """Load a key=value config into the flat dotted-key form."""
    return parse_config_text(_read_text(path, "config"))


def apply_env_overrides(
    flat: Mapping[str, str], environ: Mapping[str, str] | None = None
) -> dict[str, str]:
    """Overlay DRIFTLAB_* variables; SECTION__KEY maps to section.key."""
    env = os.environ if environ is None else environ
    merged = dict(flat)
    for name, value in env.items():
        if name.startswith(ENV_PREFIX):
            key = name[len(ENV_PREFIX) :].lower().replace("__", ".")
            merged[key] = value
    return merged


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be an integer, got {value!r}") from exc


def _as_float(key: str, value: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"{key} must be a number, got {value!r}") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return number


def _as_bool(key: str, value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"{key} must be a boolean, got {value!r}")


def _as_floats(key: str, value: str) -> tuple[float, ...]:
    if not value.strip():
        raise ConfigError(f"{key} must be a comma-separated number list")
    return tuple(_as_float(key, part) for part in value.split(","))


def _as_ints(key: str, value: str) -> tuple[int, ...]:
    return tuple(_as_int(key, part) for part in value.split(","))


def parse_seed_spec(value: str) -> tuple[int, ...]:
    """Seed list forms: a count ("20"), a range ("3..7"), or a list ("0,4,9").

    Every seed must lie in [0, MAX_SEED) and a count or range may hold at
    most MAX_SEED_COUNT seeds; both are checked before any tuple is built.
    """
    value = value.strip()
    if ".." in value:
        lo_s, _, hi_s = value.partition("..")
        lo, hi = _as_int("experiment.seeds", lo_s), _as_int("experiment.seeds", hi_s)
        if hi < lo:
            raise ConfigError(f"seed range {value!r} is empty")
        seeds = range(lo, hi + 1)
    elif "," in value:
        seeds = _as_ints("experiment.seeds", value)
        lo, hi = min(seeds), max(seeds)
    else:
        count = _as_int("experiment.seeds", value)
        if count < 1:
            raise ConfigError(f"seed count must be >= 1, got {count}")
        lo, hi = 0, count - 1
        seeds = range(count)
    # a range's len() overflows past 2**63, so count from its bounds
    count = hi - lo + 1 if isinstance(seeds, range) else len(seeds)
    if count > MAX_SEED_COUNT:
        raise ConfigError(f"a seed sweep holds at most {MAX_SEED_COUNT} seeds, got {count}")
    if lo < 0 or hi >= MAX_SEED:
        raise ConfigError(f"seeds must lie in [0, 2**64), got {value!r}")
    return tuple(seeds)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------


# reference generator -> the spec fields it reads besides safe_set and epsilon
_GENERATORS = {
    "two-tier": ("safe_mass", "safe_fraction"), "zipf": ("exponent", "safe_fraction"),
    "dirichlet-draw": ("alpha", "draw_seed", "safe_fraction"), "explicit": ("weights",),
}


@dataclass(frozen=True)
class ReferenceSpec:
    generator: str = "two-tier"
    safe_mass: float = 0.95
    safe_fraction: float = 0.5
    epsilon: float | None = None
    exponent: float = 1.1
    alpha: float = 1.0
    draw_seed: int = 0
    weights: tuple[float, ...] | None = None
    safe_set: str | None = None  # "0,1,2" or "top-fraction:0.5"

    def __post_init__(self):
        if self.generator not in _GENERATORS:
            raise ConfigError(
                f"unknown reference generator {self.generator!r}; one of {', '.join(_GENERATORS)}"
            )
        reads = ("safe_set", "epsilon", *_GENERATORS[self.generator])
        _refuse_unread("reference", self, reads, kind="generator")


# population init -> the spec fields it reads besides size
_INITS = {"copy": (), "perturbed": ("sigma",), "dirichlet": ("alpha",)}


@dataclass(frozen=True)
class PopulationSpec:
    size: int = 4
    init: str = "copy"
    sigma: float = 0.05
    alpha: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise ConfigError(f"population size must be >= 1, got {self.size}")
        if self.init not in _INITS:
            raise ConfigError(
                f"unknown population init {self.init!r}; one of {', '.join(_INITS)}"
            )
        if self.sigma < 0.0:
            raise ConfigError(f"perturbation sigma must be >= 0, got {self.sigma}")
        if self.alpha <= 0.0:
            raise ConfigError(f"dirichlet alpha must be positive, got {self.alpha}")
        _refuse_unread("population", self, ("size", *_INITS[self.init]), kind="init")


@dataclass(frozen=True)
class ExperimentConfig:
    space_size: int = 1000
    reference: ReferenceSpec = field(default_factory=ReferenceSpec)
    population: PopulationSpec = field(default_factory=PopulationSpec)
    evolution: EvolutionConfig = field(default_factory=lambda: EvolutionConfig(200, 100))
    seeds: tuple[int, ...] = tuple(range(20))
    probes: tuple[str, ...] = DEFAULT_PROBES
    delta: float = 0.02
    visibility_c: float = 1.0
    margin: float = 0.05
    tau: float | None = None  # None -> 1 / (10 * sample_size)
    ensemble_safe_masses: tuple[float, ...] = (0.95, 0.75)
    runs_per_ref: int = 200
    quantizer: float = 0.05

    def __post_init__(self):
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        repeated = [s for s, n in Counter(self.seeds).items() if n > 1]
        if repeated:  # results are keyed by seed, so a repeat would overwrite one
            raise ConfigError(f"experiment.seeds repeats seed {repeated[0]}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigError(f"delta must lie in (0, 1), got {self.delta}")
        if not 0.0 < self.margin < math.inf:
            raise ConfigError(f"margin must be finite and positive, got {self.margin}")
        if not 0.0 < self.visibility_c < math.inf:
            raise ConfigError(
                f"visibility_c must be finite and positive, got {self.visibility_c}"
            )
        if not (0.0 < self.quantizer <= 0.5):
            raise ConfigError(f"quantizer must lie in (0, 0.5], got {self.quantizer}")
        # every runner refuses an unknown probe, those that record none too
        resolve_probes(self.probes, default_tau=self.coverage_tau)

    @property
    def coverage_tau(self) -> float:
        return self.tau if self.tau is not None else 1.0 / (10.0 * self.evolution.sample_size)

    def with_seed_base(self, base: int) -> "ExperimentConfig":
        """Rebase the sweep to base..base+n-1 (the --seed override)."""
        return replace(self, seeds=tuple(base + i for i in range(len(self.seeds))))


def _as_text(key: str, value: str) -> str:
    return value


def _as_optional_text(key: str, value: str) -> str | None:
    return value or None


def _as_optional_float(key: str, value: str) -> float | None:
    value = value.strip()
    if not value or value.lower() == "auto":
        return None
    return _as_float(key, value)


def _as_probes(key: str, value: str) -> tuple[str, ...] | None:
    return tuple(p.strip() for p in value.split(",") if p.strip()) if value else None


def _section(section: str, **parsers) -> dict:
    return {f"{section}.{name}": (section, name, parse) for name, parse in parsers.items()}


# The config grammar: flat key -> (the ExperimentConfig field that holds its
# section, None for a top-level field; the field the key sets; its parser).
# The selection and update sections are the rules of the evolution section,
# whose keys follow theirs. A parser that returns None leaves the field at
# its default, as does a key the config leaves out. Keys parse in this order
# and each section is built right after its keys, so a config's first error
# does not depend on the order of its lines.
_CONFIG_KEYS = {
    **_section(
        "reference", generator=_as_text, safe_mass=_as_float, safe_fraction=_as_float,
        epsilon=_as_optional_float, exponent=_as_float, alpha=_as_float,
        draw_seed=_as_int, weights=_as_floats, safe_set=_as_optional_text,
    ),
    **_section("population", size=_as_int, init=_as_text, sigma=_as_float, alpha=_as_float),
    "experiment.probes": (None, "probes", _as_probes),
    "space.size": (None, "space_size", _as_int),
    **_section(
        "selection", kind=_as_text, indices=_as_ints, k=_as_int, beta=_as_float,
        reward=_as_floats,
    ),
    **_section(
        "update", kind=_as_text, lam=_as_float, capacity=_as_int, alpha_mem=_as_float,
        beta=_as_float, reward=_as_floats, reward_source=_as_text,
        neighborhood_radius=_as_int,
    ),
    **_section("evolution", sample_size=_as_int, rounds=_as_int, per_agent_datasets=_as_bool),
    "experiment.seeds": (None, "seeds", lambda key, value: parse_seed_spec(value)),
    "experiment.delta": (None, "delta", _as_float),
    "experiment.visibility_c": (None, "visibility_c", _as_float),
    "experiment.margin": (None, "margin", _as_float),
    "experiment.tau": (None, "tau", _as_optional_float),
    "ensemble.safe_masses": (None, "ensemble_safe_masses", _as_floats),
    "ensemble.runs_per_ref": (None, "runs_per_ref", _as_int),
    "ensemble.quantizer": (None, "quantizer", _as_float),
}
_KNOWN_KEYS = frozenset(_CONFIG_KEYS)


def config_from_mapping(flat: Mapping[str, str]) -> ExperimentConfig:
    """Typed ExperimentConfig from the flat dotted-key mapping."""
    unknown = set(flat) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    defaults = ExperimentConfig()
    values: dict = {}
    rules: dict = {}  # the evolution section's selection and update
    for section, entries in groupby(_CONFIG_KEYS.items(), key=lambda entry: entry[1][0]):
        given = {}
        for key, (_, name, parse) in entries:
            if key in flat and (value := parse(key, flat[key])) is not None:
                given[name] = value
        if section is None:
            values.update(given)
        elif section in ("selection", "update"):
            rules[section] = replace(getattr(defaults.evolution, section), **given)
        elif section == "evolution":
            values[section] = replace(defaults.evolution, **given, **rules)
        else:
            values[section] = replace(getattr(defaults, section), **given)
    return replace(defaults, **values)


def load_experiment_config(path: str, environ: Mapping[str, str] | None = None) -> ExperimentConfig:
    return config_from_mapping(apply_env_overrides(load_config_file(path), environ))


# ---------------------------------------------------------------------------
# reference / population / policy builders
# ---------------------------------------------------------------------------


def build_reference(cfg: ExperimentConfig) -> SafetyReference:
    """The configured reference. reference.safe_set, when given, replaces the
    generator's safe set, parsed against its pi_star, and reference.epsilon
    is checked against the requested set."""
    spec = cfg.reference
    size = cfg.space_size
    if spec.generator == "explicit":
        if spec.weights is None or spec.safe_set is None:
            raise ConfigError(
                "explicit reference needs reference.weights and reference.safe_set"
            )
        space = OutcomeSpace(size)
        try:
            pi = make_prob_vector(space, spec.weights)
        except ValueError as exc:
            raise ConfigError(f"reference.weights: {exc}") from exc
    else:
        # the generator's own set is dropped when a safe set is requested
        eps = None if spec.safe_set else spec.epsilon
        if spec.generator == "two-tier":
            ref = two_tier_reference(size, spec.safe_mass, spec.safe_fraction, eps)
        elif spec.generator == "zipf":
            ref = zipf_reference(size, spec.exponent, spec.safe_fraction, epsilon=eps)
        else:  # dirichlet-draw; ReferenceSpec admits no other generator
            ref = dirichlet_reference(
                size, spec.alpha, spec.draw_seed, spec.safe_fraction, epsilon=eps
            )
        if not spec.safe_set:
            return ref
        pi = ref.pi_star
    if spec.safe_set.startswith("top-fraction:"):
        fraction = _as_float("reference.safe_set", spec.safe_set.split(":", 1)[1])
        return _reference_on(pi, None, fraction, spec.epsilon)
    safe = _as_ints("reference.safe_set", spec.safe_set)
    return _reference_on(pi, safe, spec.safe_fraction, spec.epsilon)


def build_population(spec: PopulationSpec, ref: SafetyReference, seed: int) -> Population:
    """Initial agents for one run; any randomness draws from a dedicated
    stream keyed on (seed, init) so it never consumes trajectory randomness."""
    space = ref.space
    if spec.init == "copy":
        return Population.equal_weights([ref.pi_star] * spec.size)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), _INIT_STREAM)))
    )
    agents = []
    for _ in range(spec.size):
        if spec.init == "perturbed":
            # a sigma whose tilt leaves the float range is reported below
            with np.errstate(over="ignore", invalid="ignore"):
                tilt = np.exp(spec.sigma * rng.standard_normal(space.size))
                weights = ref.pi_star.mass * tilt
            try:
                agents.append(make_prob_vector(space, weights))
            except ValueError as exc:
                raise ConfigError(
                    f"population.sigma={spec.sigma} gives no perturbed agent: {exc}"
                ) from exc
        else:  # dirichlet
            draw = np.maximum(rng.dirichlet(np.full(space.size, spec.alpha)), 1e-300)
            agents.append(make_prob_vector(space, draw))
    return Population.equal_weights(agents)


def parse_schedule(spec: str, ref: SafetyReference) -> Schedule:
    """"every", "every:k", or "kl:threshold"."""
    text = spec.strip() or "every:1"
    head, _, tail = text.partition(":")
    if head == "every":
        return Schedule("every", k=_as_int("schedule", tail) if tail else 1)
    if head == "kl":
        if not tail:
            raise ConfigError("kl-trigger schedule needs a threshold, e.g. kl:0.5")
        return Schedule("kl-trigger", threshold=_as_float("schedule", tail), ref=ref)
    raise ConfigError(f"unknown schedule {spec!r}; use every[:k] or kl:threshold")


def _as_anchor(key: str, value: str) -> str:
    if value not in ("uniform", "initial"):
        raise ConfigError(f"unknown anchor {value!r}; uniform or initial")
    return value


# policy kind -> (class, parameter -> parser); a parameter the arm leaves out
# keeps the class default. Parameters parse in this order.
_POLICY_KINDS = {
    "verifier": (VerifierPolicy, {"fp": _as_float, "fn_rate": _as_float, "budget": _as_int}),
    "cooling": (CoolingPolicy, {"kl_threshold": _as_float, "blend": _as_float}),
    "diversity": (DiversityPolicy, {"temperature": _as_float, "rho": _as_float}),
    "entropy-release": (
        EntropyReleasePolicy,
        {"anchor": _as_anchor, "gamma": _as_float, "prune_floor": _as_float,
         "prune_memory": _as_bool},
    ),
}


@dataclass(frozen=True)
class PolicySpec:
    """Raw mitigation-arm description; realized once per arm against ref."""

    name: str
    kind: str
    params: tuple[tuple[str, str], ...] = ()
    schedule: str = "every:1"


def realize_policy(spec: PolicySpec, ref: SafetyReference):
    """Concrete policy object for every seed of an arm; an 'initial' anchor
    is each seed's own start population."""
    params = dict(spec.params)
    schedule = parse_schedule(spec.schedule, ref)
    if spec.kind not in _POLICY_KINDS:
        raise ConfigError(
            f"unknown intervention kind {spec.kind!r}; one of {', '.join(_POLICY_KINDS)}"
        )
    cls, parsers = _POLICY_KINDS[spec.kind]
    given = {name: parse(name, params.pop(name)) for name, parse in parsers.items() if name in params}
    policy = cls(ref=ref, schedule=schedule, **given)
    if params:
        raise ConfigError(f"unknown parameters for {spec.kind}: {', '.join(sorted(params))}")
    return policy


def default_policy_specs() -> tuple[PolicySpec, ...]:
    """The four mitigation arms with their documented default parameters."""
    return tuple(PolicySpec(kind, kind) for kind in _POLICY_KINDS)


def parse_policies_json(text: str) -> tuple[PolicySpec, ...]:
    """Policy arms from a JSON list of {name?, kind, schedule?, params?}; a
    kind, schedule or parameter value that is not a string is its JSON text."""

    def spelt(value) -> str:
        return value if isinstance(value, str) else json.dumps(value)

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"policies file is not valid JSON: {exc}") from exc
    if not isinstance(data, list):
        raise ConfigError("policies file must hold a JSON list")
    specs = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "kind" not in entry:
            raise ConfigError(f"policy entry {i} must be an object with a 'kind'")
        unread = [repr(key) for key in entry if key not in ("name", "kind", "schedule", "params")]
        if unread:
            raise ConfigError(
                f"policy entry {i} has unknown key {', '.join(unread)}; "
                "one of 'name', 'kind', 'schedule', 'params'"
            )
        if not isinstance(entry.get("name", ""), str):
            raise ConfigError(f"policy entry {i}: name must be a string")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"policy entry {i}: params must be an object")
        specs.append(
            PolicySpec(
                name=entry.get("name", spelt(entry["kind"])),
                kind=spelt(entry["kind"]),
                params=tuple(sorted((k, spelt(v)) for k, v in params.items())),
                schedule=spelt(entry.get("schedule", "every:1")),
            )
        )
    return tuple(specs)


# ---------------------------------------------------------------------------
# trend statistics and terminal classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrendReport:
    """Monotonic-trend summary of one metric across a seed sweep."""

    metric: str
    median_series: tuple[float, ...]
    rank_correlation: float
    first_median: float
    last_median: float


def _average_ranks(arr: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values (equal infinities included) share their mean rank."""
    order = np.argsort(arr, kind="stable")
    ordered = arr[order]
    starts = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    ends = np.append(starts[1:], arr.size)
    group = np.repeat(np.arange(starts.size), ends - starts)
    ranks = np.empty(arr.size)
    ranks[order] = ((starts + 1 + ends) / 2.0)[group]
    return ranks


def spearman_vs_round(series: Sequence[float]) -> float:
    """Rank correlation of a series against its round index: the Pearson
    correlation of average ranks. A constant series, or one holding NaN,
    reads 0."""
    arr = np.asarray(series, dtype=np.float64)
    if arr.size < 2 or np.all(arr == arr[0]) or np.isnan(arr).any():
        return 0.0
    x = np.arange(arr.size, dtype=np.float64)
    x -= x.mean()
    y = _average_ranks(arr)
    y -= y.mean()
    stat = float((x * y).sum() / math.sqrt(float((x * x).sum()) * float((y * y).sum())))
    return max(-1.0, min(1.0, stat))


def column_median(table) -> np.ndarray:
    """Median of each column of table (rows, ...), bit for bit as
    np.median(table, axis=0) gives it: the mean of the sorted column's middle
    entry or two, a sum that starts from 0.0 (so -0.0 reads 0.0). A column
    holding nan, or of no rows, reads nan. A sort, where np.median would
    import numpy.ma."""
    ordered = np.sort(np.asarray(table, dtype=np.float64), axis=0)
    n = len(ordered)
    if n == 0:
        return np.full(ordered.shape[1:], math.nan)
    half = n // 2
    if n % 2:
        middle = 0.0 + ordered[half]
    else:
        middle = (0.0 + ordered[half - 1] + ordered[half]) / 2
    # nan sorts last
    return np.where(np.isnan(ordered[-1]), math.nan, middle)


def compute_trend(metric: str, series_by_seed: Mapping[int, Sequence[float]]) -> TrendReport:
    seeds = sorted(series_by_seed)
    series = tuple(column_median([series_by_seed[s] for s in seeds]).tolist())
    return TrendReport(
        metric=metric,
        median_series=series,
        rank_correlation=spearman_vs_round(series),
        first_median=series[0],
        last_median=series[-1],
    )


def _rose_by(initial: float, terminal: float, margin: float) -> bool:
    if math.isinf(terminal) and not math.isinf(initial):
        return True
    if math.isinf(initial):
        return False
    return terminal - initial >= margin


CLASS_LEAKAGE = "unsafe leakage"
CLASS_COLLAPSE = "safe-mode collapse"
CLASS_STABLE = "stable"


def classify_terminal(trajectory: Trajectory, margin: float) -> str:
    """Terminal-state label from the recorded endpoints.

    "unsafe leakage": safe mass fell by at least `margin`.
    "safe-mode collapse": safe mass held, but the within-safe-set conditional
    divergence rose by at least `margin` (reaching +inf counts as a rise) —
    mass stayed in the safe region yet concentrated on a sub-region of it.
    "stable": neither movement.
    """
    safe_mass, in_safe = trajectory.values["safe_mass"], trajectory.values["in_safe_term"]
    if safe_mass[0] - safe_mass[-1] >= margin:
        return CLASS_LEAKAGE
    if _rose_by(float(in_safe[0]), float(in_safe[-1]), margin):
        return CLASS_COLLAPSE
    return CLASS_STABLE


# ---------------------------------------------------------------------------
# drift experiment
# ---------------------------------------------------------------------------


def monitored_rare_set(ref: SafetyReference, delta: float) -> tuple[int, ...]:
    """Smallest-mass safe outcomes accumulating at least `delta` reference mass.

    This is the canonical rare-but-safe monitored set: big enough to matter
    to the reference, small enough that finite sampling will miss it.
    """
    safe = ref.safe_indices
    masses = ref.pi_star.mass[safe]
    order = np.argsort(masses, kind="stable")
    chosen: list[int] = []
    total = 0.0
    for pos in order:
        chosen.append(int(safe[pos]))
        total += float(masses[pos])
        if total >= delta:
            break
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class DriftResult:
    config: ExperimentConfig
    probes: tuple[str, ...]
    trajectories: dict[int, Trajectory]
    trends: dict[str, TrendReport]
    classifications: dict[int, str]
    failures: dict[int, str]
    monitored_set: tuple[int, ...]
    low_visibility_rounds: dict[int, int]

    def class_counts(self) -> dict[str, int]:
        counts = Counter(self.classifications.values())
        return {label: counts[label] for label in (CLASS_LEAKAGE, CLASS_COLLAPSE, CLASS_STABLE)}


def _sweep(
    cfg: ExperimentConfig, ref: SafetyReference, probes, policies: Sequence, monitors=None
) -> Iterator[tuple[dict[int, Trajectory], dict[int, str]]]:
    """Every seed of cfg from its own start population under cfg.evolution,
    once under each of policies, all on one pool (see run_batch): for each
    policy in turn, the trajectories, and the failure text of each seed
    whose run failed. A policy's pair is yielded as soon as its last seed
    has run, and the next policy's runs start only when it is asked for."""
    calls = [
        _prepare(
            (build_population(cfg.population, ref, seed) for seed in cfg.seeds),
            cfg.evolution, cfg.seeds, probes, policy, ref=ref, monitors=monitors,
        )
        for policy in policies
    ]
    with closing(_run_batches(calls)) as results:  # the pool stops here
        for _ in calls:
            trajectories: dict[int, Trajectory] = {}
            failures: dict[int, str] = {}
            for seed, result in zip(cfg.seeds, results):
                if isinstance(result, SimulationError):
                    failures[seed] = str(result)
                else:
                    trajectories[seed] = result
            yield trajectories, failures


def run_drift_experiment(cfg: ExperimentConfig) -> DriftResult:
    """Isolated seed sweep with trend statistics and terminal classification.

    Per-seed simulation failures are recorded and the sweep continues.
    """
    ref = build_reference(cfg)
    probe_list = list(cfg.probes)
    for required in _REQUIRED_DRIFT_PROBES:
        if required not in probe_list:
            probe_list.append(required)
    probes = resolve_probes(probe_list, default_tau=cfg.coverage_tau)
    monitored = monitored_rare_set(ref, cfg.delta)
    visibility_floor = cfg.visibility_c / cfg.evolution.sample_size
    [(trajectories, failures)] = _sweep(cfg, ref, probes, [None], {"rare-safe": monitored})
    trends = {
        name: compute_trend(name, {seed: t.values[name] for seed, t in trajectories.items()})
        for name in (probe_list if trajectories else ())
    }
    classifications = {
        seed: classify_terminal(traj, cfg.margin) for seed, traj in trajectories.items()
    }
    low_visibility = {
        seed: int(np.count_nonzero(traj.monitor_mass["rare-safe"] <= visibility_floor))
        for seed, traj in trajectories.items()
    }
    return DriftResult(
        config=cfg,
        probes=tuple(probe_list),
        trajectories=trajectories,
        trends=trends,
        classifications=classifications,
        failures=failures,
        monitored_set=monitored,
        low_visibility_rounds=low_visibility,
    )


# ---------------------------------------------------------------------------
# intervention comparison
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ArmSummary:
    name: str
    median_terminal_kl: float
    median_terminal_safe_mass: float
    terminal_kl: dict[int, float]
    terminal_safe_mass: dict[int, float]
    failures: dict[int, str]


@dataclass(frozen=True)
class ComparisonResult:
    baseline: ArmSummary
    arms: tuple[ArmSummary, ...]
    paired_kl_diff: dict[str, dict[int, float]]

    def arm(self, name: str) -> ArmSummary:
        return {summary.name: summary for summary in self.arms}[name]


def paired_difference(arm_value: float, base_value: float) -> float:
    """arm - base; two same-signed infinities compare as indeterminate (nan)."""
    if math.isinf(arm_value) and arm_value == base_value:
        return math.nan
    return arm_value - base_value


def _terminal(trajectories: Mapping[int, Trajectory], failures: dict[int, str]) -> tuple:
    """An arm's terminal KL and safe mass by seed, and its failures."""
    return (
        {seed: float(t.values["kl_safety"][-1]) for seed, t in trajectories.items()},
        {seed: float(t.values["safe_mass"][-1]) for seed, t in trajectories.items()},
        failures,
    )


def run_intervention_comparison(
    cfg: ExperimentConfig, policy_specs: Sequence[PolicySpec] | None = None
) -> ComparisonResult:
    """Baseline plus one arm per policy, all on the same seed list.

    The arms are policy_specs, or the four default policies when it is None.
    Every arm replays the identical (seed, config) pair, so per-seed
    differences are paired comparisons of the same closed loop with and
    without the mitigation.
    """
    specs = default_policy_specs() if policy_specs is None else tuple(policy_specs)
    names = [s.name for s in specs]
    if not names:
        raise ConfigError("a comparison needs at least one policy arm")
    if "baseline" in names:
        raise ConfigError("an arm may not be named 'baseline', the unmitigated run's name")
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate arm names: {names}")
    ref = build_reference(cfg)
    # every arm's policy is realized before any seed runs
    policies = [realize_policy(spec, ref) for spec in specs]
    probes = resolve_probes(("kl_safety", "safe_mass"), default_tau=cfg.coverage_tau)
    # starmap keeps no arm once it is summarised: one arm's trajectories at a time
    terminals = list(starmap(_terminal, _sweep(cfg, ref, probes, [None, *policies])))
    baseline, *arms = (
        ArmSummary(
            name=name,
            median_terminal_kl=float(column_median(list(kl.values()))),
            median_terminal_safe_mass=float(column_median(list(sm.values()))),
            terminal_kl=kl,
            terminal_safe_mass=sm,
            failures=failures,
        )
        for name, (kl, sm, failures) in zip(("baseline", *names), terminals)
    )
    base = baseline.terminal_kl
    paired = {
        arm.name: {s: paired_difference(v, base[s]) for s, v in arm.terminal_kl.items() if s in base}
        for arm in arms
    }
    return ComparisonResult(baseline=baseline, arms=tuple(arms), paired_kl_diff=paired)


# ---------------------------------------------------------------------------
# ensemble mutual information
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleMIResult:
    mi_series: tuple[float, ...]  # index = round, 0..T
    quantizer: float
    bins: int
    runs_per_ref: int
    n_refs: int


def run_ensemble_mi(cfg: ExperimentConfig) -> EnsembleMIResult:
    """How much the evolving state still reveals about which reference it
    started from.

    The references are the configured one with its safe mass set to each of
    ensemble.safe_masses in turn. Each run draws one reference (balanced
    assignment), initializes from it, then evolves in isolation. The state
    statistic is the training mass on a fixed outcome set (the first
    reference's safe set), binned at the quantizer resolution; the series is
    the plug-in mutual information between reference index and binned
    statistic, per round. Post-processing of a Markov chain cannot gain
    information, so the series should fall (up to estimator noise). Of
    cfg.seeds only the first is read: run k uses seed seeds[0] + k, and
    --seed S sets that base.
    """
    n_refs, runs = len(cfg.ensemble_safe_masses), cfg.runs_per_ref
    if n_refs < 2:
        raise ConfigError("degenerate ensemble: need at least 2 references")
    if cfg.reference.safe_mass != ReferenceSpec.safe_mass:
        raise ConfigError(
            "the ensemble sets each reference's safe mass from ensemble.safe_masses; "
            "remove reference.safe_mass"
        )
    if runs < 1:
        raise ConfigError(f"runs_per_ref must be >= 1, got {runs}")
    if n_refs * runs > MAX_SEED_COUNT:
        raise ConfigError(
            f"an ensemble holds at most {MAX_SEED_COUNT} runs, got {n_refs} references "
            f"x {runs} runs_per_ref"
        )
    q = cfg.quantizer
    rounds = cfg.evolution.rounds
    # past the cap the table is too large with any rounds and references, and
    # capping keeps an overflowing 1 / q out of the integer conversion
    bins = int(math.floor(min(1.0 / q, MAX_MI_CELLS) + 0.5)) + 1
    if (rounds + 1) * n_refs * bins > MAX_MI_CELLS:
        raise ConfigError(
            f"ensemble.quantizer={q:g} with {rounds} rounds and {n_refs} references "
            f"needs more than {MAX_MI_CELLS} MI table cells"
        )
    refs = [
        build_reference(replace(cfg, reference=replace(cfg.reference, safe_mass=m)))
        for m in cfg.ensemble_safe_masses
    ]
    statistic_set = refs[0].safe_indices
    base_seed = cfg.seeds[0]

    # run k starts from reference k // runs with seed base_seed + k
    seeds = range(base_seed, base_seed + n_refs * runs)
    results = run_batch(
        (
            build_population(cfg.population, refs[k // runs], seed)
            for k, seed in enumerate(seeds)
        ),
        cfg.evolution,
        seeds,
        monitors={"ens": statistic_set},
    )
    masses = np.empty((len(seeds), rounds + 1))
    for row, traj in enumerate(results):
        if isinstance(traj, SimulationError):
            raise traj
        masses[row] = traj.monitor_mass["ens"]
    # bin_counts[t][i][b] = number of runs of reference i whose statistic sat
    # in bin b at round t
    b = np.minimum(bins - 1, (masses / q).astype(np.int64))
    ref_index = np.repeat(np.arange(n_refs), runs)[:, None]
    cell = (np.arange(rounds + 1) * n_refs + ref_index) * bins + b
    bin_counts = (
        np.bincount(cell.ravel(), minlength=(rounds + 1) * n_refs * bins)
        .reshape(rounds + 1, n_refs, bins)
        .astype(np.float64)
    )

    total = float(n_refs * runs)
    series = tuple(
        float(mutual_information_plugin(bin_counts[t] / total))
        for t in range(rounds + 1)
    )
    return EnsembleMIResult(
        mi_series=series,
        quantizer=q,
        bins=bins,
        runs_per_ref=runs,
        n_refs=n_refs,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


_VALUE_FORMAT = "%.17g"  # 17 significant digits; non-finite floats print as inf, -inf, nan


def format_value(v: float) -> str:
    """Fixed numeric formatting, _VALUE_FORMAT."""
    return _VALUE_FORMAT % float(v)


def plain(x):
    """JSON-ready copy of x, a result turned into dicts, lists and scalars (a
    dataclass through dataclasses.asdict): dict keys become text, tuples and
    arrays lists, and non-finite floats their format_value names."""
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    if isinstance(x, float) and not math.isfinite(x):
        return format_value(x)
    return x


def json_text(payload) -> str:
    """The text of every JSON file driftlab writes: indented, keys sorted."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


# the Trajectory fields that save_trajectories_json stores
_STORED = (
    "seed", "probe_names", "rounds", "monitors", "values", "monitor_mass", "monitor_absent",
    "fired", "notes",
)


def trajectory_to_dict(traj: Trajectory) -> dict:
    """JSON-ready columns of traj: plain of every field but states, so fired
    and notes become [round, text] pairs."""
    return {name: plain(getattr(traj, name)) for name in _STORED}


def _write_text(out, parts: Iterable[str]) -> None:
    """Write each text of parts, in order, to out, a path or an open text
    stream. A missing path, or a regular file of one link that this process
    owns, gets all of parts or keeps what it held: they go to a new file
    beside it, under the umask and an existing file's permission bits,
    which replaces it, or is removed if writing raises; a file this process
    may not write refuses, as open(out, "w") does. Any other path
    (/dev/stdout, a symlink, a file with other links or another owner, or a
    file in a directory that refuses a new file) is written in place."""
    if hasattr(out, "write"):
        for text in parts:
            out.write(text)
        return
    try:
        st = os.lstat(out)
    except FileNotFoundError:
        st = None
    if st is not None and (
        not stat.S_ISREG(st.st_mode)
        or st.st_nlink > 1
        or st.st_uid != os.geteuid()
        or not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK | os.X_OK)
    ):
        with open(out, "w", encoding="utf-8", newline="") as fh:
            _write_text(fh, parts)
        return
    if st is not None:
        open(out, "a").close()  # PermissionError where "w" would raise it
    temporary = f"{os.fspath(out)}.{os.urandom(4).hex()}.tmp"
    fh = open(temporary, "x", encoding="utf-8", newline="")
    try:
        with fh:
            _write_text(fh, parts)
        if st is not None:
            os.chmod(temporary, stat.S_IMODE(st.st_mode))
        os.replace(temporary, out)
    except BaseException:
        os.remove(temporary)
        raise


def save_trajectories_csv(trajectories: Iterable[Trajectory], out) -> None:
    """Header "round,seed,<probes>", then seed-major round rows; out is a path
    or an open text stream."""
    trajectories = sorted(trajectories, key=lambda t: t.seed)
    if not trajectories:
        raise ValueError("no trajectories to export")
    probe_names = trajectories[0].probe_names
    if any(t.probe_names != probe_names for t in trajectories[1:]):
        raise ValueError("trajectories disagree on probe columns")
    if any(len(t.values[name]) != t.rounds + 1 for t in trajectories for name in probe_names):
        raise ValueError("a probe column does not hold one value per round")
    columns = [
        _cell_texts(np.concatenate([t.values[name] for t in trajectories], dtype=np.float64))
        for name in probe_names
    ]

    def text():
        """The file a block of rows at a time, so that it is never held whole."""
        yield "round,seed" + "".join("," + name for name in probe_names) + "\n"
        prefixes = (f"{r},{t.seed}" for t in trajectories for r in range(t.rounds + 1))
        rows = map(",".join, zip(prefixes, *columns))
        while block := list(islice(rows, 4096)):
            yield "\n".join(block) + "\n"

    _write_text(out, text())


def _cell_texts(values: np.ndarray) -> np.ndarray:
    """format_value's text of each entry of values, each distinct double
    formatted once: keyed by its bits, as 0.0 and -0.0 are equal but print
    0 and -0."""
    bits = values.view(np.int64)
    distinct = sorted_unique(bits)
    texts = np.array([_VALUE_FORMAT % v for v in distinct.view(np.float64).tolist()], dtype=object)
    return texts[distinct.searchsorted(bits)]


def save_trajectories_json(trajectories: Iterable[Trajectory], out) -> None:
    """{"trajectories": [...]} of trajectory_to_dict; out is a path or an
    open text stream."""
    _write_text(out, [json_text({"trajectories": [trajectory_to_dict(t) for t in trajectories]})])


def load_trajectories(path: str) -> list[Trajectory]:
    """The trajectories of a file save_trajectories_json wrote, their columns
    read-only arrays; a trajectory read back has no states."""
    text = _read_text(path, "trajectory file")
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise ConfigError(f"trajectory file {path!r} is not valid JSON: {exc}") from exc
    stored = data.get("trajectories") if isinstance(data, dict) else None
    if not isinstance(stored, list) or not stored:
        raise ConfigError(
            f"trajectory file {path!r} must hold an object whose \"trajectories\" is a "
            "non-empty list, as simulate --json writes it"
        )
    try:
        return [_stored_trajectory(i, entry) for i, entry in enumerate(stored)]
    except ValueError as exc:
        raise ConfigError(f"trajectory file {path!r}: {exc}") from None


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# the JSON cells of a float and a bool column, by type or by value: plain
# writes the non-finite floats as their format_value names
_CELLS = {float: ((float,), ("inf", "-inf", "nan")), bool: ((bool,), ())}


def _stored_trajectory(i: int, entry) -> Trajectory:
    """The Trajectory of stored entry i; ValueError names what is wrong."""
    if isinstance(entry, dict) and "records" in entry:
        raise ValueError(
            f"trajectory {i} holds per-round records, the layout of driftlab before "
            "trajectories were stored as columns; write it again with simulate --json"
        )
    if not isinstance(entry, dict) or sorted(entry) != sorted(_STORED):
        raise ValueError(f"trajectory {i} must be an object with keys {', '.join(_STORED)}")
    seed, names, rounds, monitors = map(entry.get, ("seed", "probe_names", "rounds", "monitors"))
    if not _is_int(seed):
        raise ValueError(f"seed of trajectory {i} must be an integer, got {seed!r}")
    if not _is_int(rounds) or rounds < 0:
        raise ValueError(f"rounds of seed {seed} must be an integer >= 0, got {rounds!r}")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise ValueError(f"probe_names of seed {seed} must be a list of strings, got {names!r}")
    if not isinstance(monitors, dict) or not all(
        isinstance(m, list) and all(map(_is_int, m)) for m in monitors.values()
    ):
        raise ValueError(f"monitors of seed {seed} must map names to lists of outcomes")
    columns = {
        key: _stored_columns(entry[key], keys, rounds, kind, f"{key} of seed {seed}")
        for key, keys, kind in (
            ("values", names, float), ("monitor_mass", monitors, float),
            ("monitor_absent", monitors, bool),
        )
    }
    return Trajectory(
        seed=seed, probe_names=tuple(names), rounds=rounds,
        monitors={name: tuple(m) for name, m in monitors.items()}, **columns,
        fired=_stored_events(entry["fired"], rounds, f"fired of seed {seed}"),
        notes=_stored_events(entry["notes"], rounds, f"notes of seed {seed}"),
    )


def _stored_columns(stored, names, rounds: int, kind: type, label: str) -> dict[str, np.ndarray]:
    """One read-only column of kind (float or bool) per name, rounds + 1 cells each."""
    if not isinstance(stored, dict) or sorted(stored) != sorted(names):
        raise ValueError(f"{label} must hold one column for each of {sorted(names)}")
    types, texts = _CELLS[kind]
    columns = {}
    for name in names:
        cells = stored[name]
        if not isinstance(cells, list) or len(cells) != rounds + 1:
            raise ValueError(f"{label}: column {name!r} must be a list of {rounds + 1} cells")
        bad = [c for c in cells if type(c) not in types and c not in texts]
        if bad:
            raise ValueError(f"{label}: column {name!r} holds {bad[0]!r}, not a {kind.__name__}")
        columns[name] = np.array(cells, dtype=kind)
        columns[name].setflags(write=False)
    return columns


def _stored_events(stored, rounds: int, label: str) -> tuple[tuple[int, str], ...]:
    """(round, text) events from [round, text] pairs, each round in 0..rounds."""
    if not isinstance(stored, list):
        raise ValueError(f"{label} must be a list of [round, text] pairs")
    for event in stored:
        if not (
            isinstance(event, list) and len(event) == 2 and _is_int(event[0])
            and 0 <= event[0] <= rounds and isinstance(event[1], str)
        ):
            raise ValueError(f"{label}: {event!r} is not a [round, text] pair in 0..{rounds}")
    return tuple(map(tuple, stored))
