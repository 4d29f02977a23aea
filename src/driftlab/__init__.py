"""Closed-loop drift laboratory for self-training agent collectives.

A population of categorical policies repeatedly trains on data sampled from
its own (selection-shaped) mixture, with no outside data entering the loop.
The package provides the round operator, an external safety reference with
information-theoretic instruments, exact oracles for every inequality those
instruments rely on, four mitigation policies that hook into fixed points of
the round, and a config-driven experiment harness with deterministic CSV and
JSON export.

The names bound here are README's "Public names", and ``__all__`` is derived
from them. Every other name is imported from its module.
"""

import types as _types

from .core import OutcomeSpace, ProbVector, SafetyReference, two_tier_reference
from .errors import (
    ConfigError,
    DegenerateSelectionError,
    SimulationError,
    VerifierAnnihilationError,
)
from .evolution import (
    EvolutionConfig,
    Population,
    SelectionRule,
    Trajectory,
    UpdateRule,
    make_rng,
    roll_memory,
    run,
    run_batch,
)
from .harness import (
    ComparisonResult,
    DriftResult,
    EnsembleMIResult,
    ExperimentConfig,
    build_population,
    build_reference,
    classify_terminal,
    format_value,
    load_experiment_config,
    load_trajectories,
    parse_policies_json,
    realize_policy,
    run_drift_experiment,
    run_ensemble_mi,
    run_intervention_comparison,
    save_trajectories_csv,
    save_trajectories_json,
    trajectory_to_dict,
)
from .interventions import (
    CoolingPolicy,
    DiversityPolicy,
    EntropyReleasePolicy,
    Schedule,
    VerifierPolicy,
)
from .metrics import (
    MetricProbe,
    coverage,
    cross_entropy,
    kl_divergence,
    kl_safe_set_decomposition,
    mutual_information_plugin,
    probe_names,
    resolve_probes,
    shannon_entropy,
)
from .oracle import run_all_lemma_checks

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
]
