"""Byte-level regression gate on trajectory CSV output.

Each case runs a tiny fixed shared-data config and hashes the bytes
save_trajectories_csv writes. The digests were recorded before the round
operator was folded into a single kernel, so they pin the arithmetic and the
random stream of every update kind, every selection kind and the policy hook
points. A change that moves any of them has to say why.

The JSON goldens below hash the full trajectory export (probe values, fired
policies, notes, monitor masses and absence flags) for what the CSV cases
leave out:
per-agent datasets, population sizes whose equal weights are not exact
binary fractions, ragged verifier datasets, verifier annihilation, partial
cooling rollback, `kl:` schedules, memory pruning under a prune floor, a
comparison in which some seeds fail mid-run, and an ensemble-MI series.
Their values were recorded before the round became seed-batched; the
trajectory digests were recorded again, every value, event, monitor mass and
absence flag equal, when stored trajectories became the Trajectory's columns.

The batch goldens were recorded before the policy hooks moved onto the
chunk's row arrays. Each runs BATCH_SEEDS together in one chunk, and in each
a policy on a `kl:` schedule fires for some seeds and not for others in the
same round, so they pin the per-seed fire masks as well as initial-anchor
release with a prune floor, partial cooling, an explicit cooling checkpoint
and explicit ProbVector and Population anchors.

Print the current digests with `python tests/test_golden.py`.
"""

import hashlib
import json
from dataclasses import asdict

import numpy as np
import pytest

from driftlab.core import two_tier_reference
from driftlab.evolution import (
    EvolutionConfig,
    SelectionRule,
    UpdateRule,
    run,
    run_batch,
)
from driftlab.harness import (
    PolicySpec,
    PopulationSpec,
    build_population,
    config_from_mapping,
    default_policy_specs,
    load_trajectories,
    plain,
    realize_policy,
    run_drift_experiment,
    run_ensemble_mi,
    run_intervention_comparison,
    save_trajectories_csv,
    save_trajectories_json,
)
from driftlab.interventions import CoolingPolicy, EntropyReleasePolicy, Schedule
from driftlab.metrics import probe_names, resolve_probes

K = 24
REF = two_tier_reference(K, safe_mass=0.9, safe_fraction=0.5)
PROBES = resolve_probes(probe_names(), default_tau=0.01)
SEEDS = (0, 1)

UPDATES = {
    "mle": UpdateRule("mle"),
    "smoothed-mle": UpdateRule("smoothed-mle", lam=0.5),
    "memory-buffer": UpdateRule("memory-buffer", capacity=50, alpha_mem=0.5),
    "reward-mixture-loglik": UpdateRule(
        "reward-reweighted-mle", beta=0.5, reward_source="mixture-loglik"
    ),
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
        cfg = EvolutionConfig(sample_size=60, rounds=8, selection=selection, update=update)
        policies = [realize_policy(spec, REF) for spec in specs] or None
        trajs.append(run(pop0, cfg, PROBES, policies, ref=REF, seed=seed))
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


MONITORS = {"rare-safe": (0, 1, 2), "unsafe": tuple(range(12, K))}
JSON_SEEDS = (0, 1, 2)


def _policy(kind, schedule="every:1", **params):
    return PolicySpec(kind, kind, tuple((k, str(v)) for k, v in params.items()), schedule)


def _json_trajectories(update=UpdateRule("mle"), selection=SelectionRule("identity"),
                       specs=(), size=3, per_agent=False, sample_size=60):
    trajs = []
    for seed in JSON_SEEDS:
        pop0 = build_population(PopulationSpec(size, "perturbed", sigma=0.3), REF, seed)
        cfg = EvolutionConfig(
            sample_size=sample_size, rounds=8, selection=selection, update=update,
            per_agent_datasets=per_agent,
        )
        policies = [realize_policy(spec, REF) for spec in specs] or None
        trajs.append(run(pop0, cfg, PROBES, policies, ref=REF, monitors=MONITORS, seed=seed))
    return trajs


def _stored_digest(tmp_path, trajs):
    path = tmp_path / "trajectories.json"
    save_trajectories_json(trajs, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _json_digest(tmp_path, **case):
    return _stored_digest(tmp_path, _json_trajectories(**case))


def _mapping_digest(payload):
    text = json.dumps(payload, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# a reward selection that accepts only outcome 23, fed by a diversity policy
# that every other round samples mostly from the reference: a seed whose
# dataset then misses outcome 23 fails with zero selection mass
FAILING_SEEDS_CONFIG = {
    "space.size": "24",
    "reference.safe_mass": "0.9",
    "population.init": "perturbed",
    "population.sigma": "0.3",
    "evolution.sample_size": "20",
    "evolution.rounds": "8",
    "selection.kind": "reward-reweight",
    "selection.reward": ",".join(["0"] * 23 + ["1"]),
    "selection.beta": "1e4",
    "experiment.seeds": "12",
}
FAILING_SEEDS_ARM = PolicySpec(
    "diversity", "diversity", (("rho", "0.95"), ("temperature", "1")), "every:2"
)


def _failing_seeds_digest():
    result = run_intervention_comparison(
        config_from_mapping(FAILING_SEEDS_CONFIG), (FAILING_SEEDS_ARM,)
    )
    failures = result.arm("diversity").failures
    assert failures and len(failures) < 12
    return _mapping_digest(plain(asdict(result)))


def _ensemble_digest():
    cfg = config_from_mapping(
        {"space.size": "40", "evolution.rounds": "12", "evolution.sample_size": "50",
         "ensemble.runs_per_ref": "15", "population.init": "perturbed"}
    )
    result = run_ensemble_mi(cfg)
    return _mapping_digest([float(v).hex() for v in result.mi_series])


REWARD_FIXED = UPDATES["reward-fixed"]
JSON_CASES = {
    "per-agent-mle": dict(update=UpdateRule("mle", neighborhood_radius=1), per_agent=True),
    "per-agent-smoothed-mle": dict(update=UPDATES["smoothed-mle"], per_agent=True),
    "per-agent-reward-mixture-loglik": dict(
        update=UPDATES["reward-mixture-loglik"], per_agent=True
    ),
    "per-agent-reward-fixed-top-mass": dict(
        update=REWARD_FIXED, selection=SELECTIONS["top-mass"], per_agent=True
    ),
    "population-6": dict(size=6),
    "population-7-per-agent-reward-selection": dict(
        size=7, per_agent=True, selection=SELECTIONS["reward-reweight"]
    ),
    "verifier-ragged": dict(specs=(_policy("verifier", fp=0.1, fn_rate=0.3, budget=40),)),
    "verifier-ragged-per-agent": dict(
        specs=(_policy("verifier", fp=0.2, fn_rate=0.5, budget=25),), per_agent=True
    ),
    "verifier-annihilation": dict(
        specs=(_policy("verifier", fp=0.9, fn_rate=0.0),), sample_size=4
    ),
    "verifier-annihilation-per-agent": dict(
        specs=(_policy("verifier", fp=0.8, fn_rate=0.1),), per_agent=True, sample_size=5
    ),
    "cooling-partial-rollback": dict(
        update=UPDATES["smoothed-mle"],
        specs=(_policy("cooling", kl_threshold=0.2, blend=0.5),),
        per_agent=True,
    ),
    "kl-schedules": dict(
        specs=(
            _policy("verifier", "kl:0.1", fp=0.05, fn_rate=0.2),
            _policy("diversity", "kl:0.2", temperature=1.5, rho=0.1),
            _policy("entropy-release", "kl:0.05", gamma=0.1, prune_floor=0.001),
            _policy("cooling", "kl:0.3", kl_threshold=0.6, blend=0.7),
        ),
    ),
    "memory-buffer-prune-floor": dict(
        update=UpdateRule("memory-buffer", capacity=40, alpha_mem=0.7),
        specs=(
            _policy("verifier", fp=0.0, fn_rate=0.5),
            _policy("entropy-release", "every:2", gamma=0.1, prune_floor=0.02,
                    anchor="initial", prune_memory="true"),
        ),
    ),
}

JSON_GOLDEN = {
    "cooling-partial-rollback": "586583b787e2b4d70874741104fa9c43bfe8521e6bc9d3363c5781205fea1fe7",
    "kl-schedules": "7f2dd2cbbfadcaafd33328c60843209ca96e0c5aed80c9c43ced2d782ac2846e",
    "memory-buffer-prune-floor": "e54cc642f85cece240577e5c21f605ce02e854bed7faaa5684cc69c68845e894",
    "per-agent-mle": "365b7da607795141e60d315788ad4fde62878af9a98ef8965e63e0129a80b4ef",
    "per-agent-reward-fixed-top-mass": "a1da182c6f064d232523e16ed3696ac58e31550d4f929a92d86a91ed8aa36b4a",
    "per-agent-reward-mixture-loglik": "d10ee60abf5ba4347173e7e49050670ecf7ba1149c205e3d48c96bbd521b0544",
    "per-agent-smoothed-mle": "782a379b9c10dac152ea771e42530aa12a648a685740eeb58e5075d0def7cebe",
    "population-6": "10a4d37f8e460cf6a0b4e7f7d1d6639f44d849443b0fe82903788201eb9cb770",
    "population-7-per-agent-reward-selection": "0fa3585c1f7a08e15863e595ff7b353a4d12484d41d71b139f7034acde84d2b5",
    "verifier-annihilation": "28aed7b8d47164b28235af112ca62c35447171635f07788c25149219d40a0549",
    "verifier-annihilation-per-agent": "2227dd645aa14e1abf9e82c6abb3ecd1030163def22d5a4aebfca0b7d05a3f2a",
    "verifier-ragged": "d0b5be2de302c1f96b1d7f42a159c43a11790da8866f829972b1f16c5dccdd05",
    "verifier-ragged-per-agent": "546f56ab250c7f40ec518d940d60930ebea23749d7974526f65ce39baae7d688",
    "comparison-failing-seeds": "8002e2f9a50f80b7a0b2f6330b930d9d3facbf79e3da6a5345ca91debd574ae4",
    "ensemble-mi": "094bec074f7f90bf6ff5ef0a1a7277f15d14bcf35e8712dcd13d33db92881d52",
}


BATCH_SEEDS = tuple(range(10))
SMOOTHED = UPDATES["smoothed-mle"]


def _kl_split(trajs, kind):
    """Some round in which kind's schedule fired for some seeds and not others."""

    def fired(traj):
        # cooling notes a refresh or a rollback whenever its schedule fires
        return {r for r, text in traj.fired if text == kind} | {
            r for r, text in traj.notes if kind == "cooling" and text.startswith("cooling-")
        }

    fired_rounds = [fired(t) for t in trajs]
    return any(len({r in f for f in fired_rounds}) == 2 for r in range(1, trajs[0].rounds + 1))


def _batch_trajectories(policies, split_kind, update=UPDATES["mle"], per_agent=False):
    pops = [
        build_population(PopulationSpec(3, "perturbed", sigma=0.3), REF, seed)
        for seed in BATCH_SEEDS
    ]
    cfg = EvolutionConfig(
        sample_size=60, rounds=8, update=update, per_agent_datasets=per_agent
    )
    intervention = [realize_policy(p, REF) if isinstance(p, PolicySpec) else p for p in policies]
    trajs = list(
        run_batch(pops, cfg, BATCH_SEEDS, PROBES, intervention, ref=REF, monitors=MONITORS)
    )
    assert _kl_split(trajs, split_kind)
    return trajs


def _batch_digest(tmp_path, **case):
    return _stored_digest(tmp_path, _batch_trajectories(**case))


def _kl(threshold):
    return Schedule("kl-trigger", threshold=threshold, ref=REF)


BATCH_CASES = {
    "batch-initial-anchor-prune-floor": dict(
        policies=(
            _policy("entropy-release", "kl:0.15", gamma=0.2, prune_floor=0.01,
                    anchor="initial"),
            _policy("diversity", "kl:0.12", temperature=1.3, rho=0.05),
        ),
        split_kind="entropy-release",
        update=SMOOTHED,
        per_agent=True,
    ),
    "batch-cooling-partial": dict(
        policies=(
            _policy("verifier", "kl:0.3", fp=0.1, fn_rate=0.3, budget=30),
            _policy("cooling", "kl:0.3", kl_threshold=0.5, blend=0.6),
        ),
        split_kind="cooling",
        update=SMOOTHED,
        per_agent=True,
    ),
    "batch-cooling-explicit-checkpoint": dict(
        policies=(
            EntropyReleasePolicy(
                gamma=0.05,
                anchor=build_population(PopulationSpec(3, "dirichlet", alpha=2.0), REF, 98),
            ),
            CoolingPolicy(
                REF,
                kl_threshold=0.5,
                blend=0.5,
                checkpoint=build_population(PopulationSpec(3, "dirichlet", alpha=2.0), REF, 99),
                schedule=_kl(0.3),
            ),
        ),
        split_kind="cooling",
    ),
    "batch-probvector-anchor": dict(
        policies=(
            EntropyReleasePolicy(
                gamma=0.1,
                prune_floor=0.005,
                anchor=build_population(PopulationSpec(1, "dirichlet", alpha=3.0), REF, 7)
                .agents[0],
                schedule=_kl(0.12),
            ),
            _policy("cooling", "every:2", kl_threshold=0.2, blend=1.0),
        ),
        split_kind="entropy-release",
        update=SMOOTHED,
    ),
}

BATCH_GOLDEN = {
    "batch-cooling-explicit-checkpoint": "2b572cf890970dd383333e7cf3f1707a0d934afce0969a059548ceb2ecb3fea6",
    "batch-cooling-partial": "114d9585da2d086b4f7aeef4b1436a69dc2eb2fde4623217f6297c8b0fc6c9bf",
    "batch-initial-anchor-prune-floor": "123b74c2ff84d8c07dd76b8770cd72286ea5a03b0edb6357334dcf3ab2417883",
    "batch-probvector-anchor": "4a53186eeaf90269c8540768443b34343bdc91c9fa9df238d6414399f6de8ffe",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_trajectory_csv_matches_golden(name, tmp_path):
    assert _csv_digest(tmp_path, **CASES[name]) == GOLDEN[name]


def test_drift_experiment_csv_matches_golden(tmp_path):
    assert _drift_digest(tmp_path) == GOLDEN["drift-experiment"]


@pytest.mark.parametrize("name", sorted(JSON_CASES))
def test_trajectory_json_matches_golden(name, tmp_path):
    assert _json_digest(tmp_path, **JSON_CASES[name]) == JSON_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(BATCH_CASES))
def test_batch_json_matches_golden(name, tmp_path):
    assert _batch_digest(tmp_path, **BATCH_CASES[name]) == BATCH_GOLDEN[name]


def _bits(traj):
    """Every column of traj, floats as float.hex, and its events."""

    def hexed(columns):
        return {name: [float(v).hex() for v in column] for name, column in columns.items()}

    return (
        traj.seed, traj.probe_names, traj.rounds, hexed(traj.values), traj.monitors,
        hexed(traj.monitor_mass), {k: c.tolist() for k, c in traj.monitor_absent.items()},
        traj.fired, traj.notes,
    )


@pytest.mark.parametrize("name", sorted(JSON_CASES) + sorted(BATCH_CASES))
def test_stored_trajectories_read_back_bit_for_bit(name, tmp_path):
    if name in JSON_CASES:
        trajs = _json_trajectories(**JSON_CASES[name])
    else:
        trajs = _batch_trajectories(**BATCH_CASES[name])
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    save_trajectories_json(trajs, str(first))
    loaded = load_trajectories(str(first))
    save_trajectories_json(loaded, str(second))
    assert second.read_bytes() == first.read_bytes()
    assert [_bits(t) for t in loaded] == [_bits(t) for t in trajs]


def test_comparison_with_failing_seeds_matches_golden():
    assert _failing_seeds_digest() == JSON_GOLDEN["comparison-failing-seeds"]


def test_ensemble_mi_series_matches_golden():
    assert _ensemble_digest() == JSON_GOLDEN["ensemble-mi"]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = pathlib.Path(tmp)
        for name in sorted(CASES):
            print(f'    "{name}": "{_csv_digest(tmp_path, **CASES[name])}",')
        print(f'    "drift-experiment": "{_drift_digest(tmp_path)}",')
        for name in sorted(JSON_CASES):
            print(f'    "{name}": "{_json_digest(tmp_path, **JSON_CASES[name])}",')
        print(f'    "comparison-failing-seeds": "{_failing_seeds_digest()}",')
        print(f'    "ensemble-mi": "{_ensemble_digest()}",')
        for name in sorted(BATCH_CASES):
            print(f'    "{name}": "{_batch_digest(tmp_path, **BATCH_CASES[name])}",')
