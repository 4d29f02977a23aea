"""Byte-level regression gate on trajectory CSV output.

Each case runs a tiny fixed shared-data config and hashes the bytes
save_trajectories_csv writes. The digests were recorded before the round
operator was folded into a single kernel, so they pin the arithmetic and the
random stream of every update kind, every selection kind and the policy hook
points. A change that moves any of them has to say why.

Print the current digests with `python tests/test_golden.py`.
"""

import hashlib

import numpy as np
import pytest

from driftlab import (
    EvolutionConfig,
    PolicySpec,
    PopulationSpec,
    SelectionRule,
    UpdateRule,
    build_population,
    config_from_mapping,
    default_policy_specs,
    memory_preset,
    probe_names,
    realize_policy,
    resolve_probes,
    rl_preset,
    run,
    run_drift_experiment,
    save_trajectories_csv,
    two_tier_reference,
)

K = 24
REF = two_tier_reference(K, safe_mass=0.9, safe_fraction=0.5)
PROBES = resolve_probes(probe_names(), default_tau=0.01)
SEEDS = (0, 1)

UPDATES = {
    "mle": UpdateRule("mle"),
    "smoothed-mle": UpdateRule("smoothed-mle", lam=0.5),
    "memory-buffer": memory_preset(capacity=50, alpha_mem=0.5),
    "reward-mixture-loglik": rl_preset(beta=0.5),
    "reward-fixed": UpdateRule(
        "reward-reweighted-mle",
        beta=1.0,
        reward=tuple(np.linspace(0.0, 1.0, K)),
        reward_source="fixed",
    ),
}

# the update cases above run under identity selection
SELECTIONS = {
    "indicator": SelectionRule("indicator", indices=tuple(range(16))),
    "top-mass": SelectionRule("top-mass", k=10),
    "reward-reweight": SelectionRule(
        "reward-reweight", reward=tuple(np.linspace(1.0, 0.0, K)), beta=2.0
    ),
}

PRUNING_RELEASE = PolicySpec(
    "pruning-release",
    "entropy-release",
    (("gamma", "0.05"), ("prune_memory", "true")),
)


def _csv_digest(tmp_path, update=UpdateRule("mle"), selection=SelectionRule("identity"),
                specs=()):
    trajs = []
    for seed in SEEDS:
        pop0 = build_population(PopulationSpec(3, "perturbed", sigma=0.3), REF, seed)
        cfg = EvolutionConfig(
            sample_size=60, rounds=8, selection=selection, update=update, seed=seed
        )
        policies = [realize_policy(spec, REF, pop0) for spec in specs] or None
        trajs.append(run(pop0, cfg, PROBES, policies, ref=REF))
    return _file_digest(tmp_path, trajs)


def _file_digest(tmp_path, trajs):
    path = tmp_path / "trajectories.csv"
    save_trajectories_csv(trajs, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _drift_digest(tmp_path):
    cfg = config_from_mapping(
        {"space.size": "40", "evolution.rounds": "10", "experiment.seeds": "3"}
    )
    result = run_drift_experiment(cfg)
    return _file_digest(tmp_path, [result.trajectories[s] for s in sorted(result.trajectories)])


CASES = {
    **{f"update-{name}": dict(update=rule) for name, rule in UPDATES.items()},
    **{f"selection-{name}": dict(selection=rule) for name, rule in SELECTIONS.items()},
    "four-default-policies": dict(specs=default_policy_specs()),
    "memory-buffer-prune-memory": dict(
        update=UPDATES["memory-buffer"], specs=(PRUNING_RELEASE,)
    ),
}

GOLDEN = {
    "four-default-policies": "fce69dd81eaf683ce86ed97948466cbeccba4a5f415f321e1fc249483b0cdfd9",
    "memory-buffer-prune-memory": "d0ce955721846a236c8dc65cfae9dbccd12ca810ade484eb854be06d6bacf58f",
    "selection-indicator": "ba16c4bf51846f4cc8eb0e68b372491c2cb49982b4009fded7975bbd12077eb2",
    "selection-reward-reweight": "4f38872b70ff879c4522c5568314cad4761ce11289562c55157094ecf943b8eb",
    "selection-top-mass": "3b48519197469ae54a5ab68ddd86481b136c04572f395b63de265a0d56bd5505",
    "update-memory-buffer": "d3c3157321cb882341196112f3df0a92cdd02cb1885ce479e337521a47688a51",
    "update-mle": "007928a017005ccaa9d4c0c07ad31b8eda56d894dae7e6554a4d36873df1aeb9",
    "update-reward-fixed": "4bed0a809a2744edbf05bdf5b4a4807e6c6cb2d2728acd66d18bc95b79ea2f9d",
    "update-reward-mixture-loglik": "5b761f15bd83dab00f937f323a88649cfce851f2f68330bf400450b53c9bbc3c",
    "update-smoothed-mle": "e2b2f2a95682c80dd069218aadf02b12481f5372814c3cdf2509bb61efea6981",
    "drift-experiment": "59551fd540f7c923606b0dac69b1b8ba802a0839e2c979a0b2cf32be7f65134c",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_csv_matches_golden(name, tmp_path):
    assert _csv_digest(tmp_path, **CASES[name]) == GOLDEN[name]


def test_drift_experiment_csv_matches_golden(tmp_path):
    assert _drift_digest(tmp_path) == GOLDEN["drift-experiment"]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        for name in sorted(CASES):
            print(f'    "{name}": "{_csv_digest(tmp_path, **CASES[name])}",')
        print(f'    "drift-experiment": "{_drift_digest(tmp_path)}",')
