"""Differential goldens for the tabular training and inference paths.

The digests below were recorded from the full-table ``decode``/``encode``
implementation of :class:`~repro.rl.tabular.TabularQAgent` (every Bellman
backup re-encoded the whole Q table, every greedy pick decoded it and broke
ties with ``Generator.choice``).  The scalar fast path — a cached decoded
view plus single-element writes through ``QTensor.set_element`` — must
reproduce them bit for bit: same final Q-table words, same per-episode
rewards and step counts, same campaign results.

The campaign digests cover the paths that write the Q table behind the
agent's back (fault hooks through ``inject_*``, fig5's faulted clones), so
they also prove the cached view is dropped on every such write.
"""

import hashlib
import json

import numpy as np
import pytest

from repro import api
from repro.core.injector import PermanentTrainingFaultHook, TransientTrainingFaultHook
from repro.experiments import GridTabularConfig
from repro.experiments.common import train_tabular
from repro.io.sanitize import canonical_json

TRAINING_EPISODES = 80

TRAINING_GOLDENS = {
    ("clean", 0): "6a63497ffbc2462e66a83fe4841ce366313750cc105a34b422b318b2880e4a05",
    ("clean", 1): "ebfc683752f3781fc6acebf47abb490a637aa923b16777d46322cf66b9e72bf2",
    ("clean", 2): "f0f379e8f6ba208fe2a7ba700fdf126b5540663562fcf78114f18779ede43cc1",
    ("stuck0", 0): "73749eaf020fa9dff01e1fb5d3a3753a0669a4f0f3c5acd83abf7035781a1b6d",
    ("stuck0", 1): "843626c1a856ae4b9ebd0caa08c777ec2fc0f56488a829ba06ba7d5d5961ec83",
    ("stuck0", 2): "5f2e199fda4bad603453dd8250c406b0c9f3055392da43a43d2fc5b6c38b8447",
    ("stuck1", 0): "2b5b5a81339e7e83c58d40e96f13d4487a313d22c28d80e6ff3c8ef96fe665fe",
    ("stuck1", 1): "78fcab67f365a1d79a11cfddeeb1fb64a49fce0a2c6f547c4c9009d33c1eb032",
    ("stuck1", 2): "592040bdb6990c45b902cd0a92f441b079a2eae42d7c14c118187c4c0491d9f7",
    ("stuck1_every_step", 0): "bff48660c3309f6ba26502b440db30ab9ee5ff3451b4b4eb28792da7ac12714f",
    ("stuck1_every_step", 1): "f97da25bade799e5c9eaead8c69c739581b34146a75a4f54e811fff7fe5fab4b",
    ("stuck1_every_step", 2): "0e837112efb5a60f27239afafec8e4c0774aee143e2e938a4e27192aa1fc569a",
    ("transient", 0): "9daf904f221e98f94f4d30bc868f51f649b1a019fda860c8ebb990d22075a893",
    ("transient", 1): "f94f22df355c2f4056bb7b73716d674adf94854f2fe94c27d7f19d69d21fae63",
    ("transient", 2): "f4c4596f10993c2bbd4ca75533435f559a69c215030e9e3c05e26367ff72d1b1",
}

CAMPAIGN_SEED = 7
CAMPAIGN_GOLDENS = {
    "fig2.transient_heatmap": "a162547a157fdcd06b3d151506b52f9c79e7f648a2b193541a4225036b9be824",
    "fig5.inference": "9934c970811c448bfe73e097dc5acccfb4ff5a5218579ae51d56ae621687f933",
    "fig4.transient_convergence": "077a93acb406997ae4588e017b9ba47feeac9ec792959af321c4a8b4f3668014",
}


def _scenario_hooks(scenario, seed):
    rng = np.random.default_rng(1000 + seed)
    if scenario == "clean":
        return []
    if scenario == "stuck0":
        return [PermanentTrainingFaultHook(0.05, 0, rng=rng)]
    if scenario == "stuck1":
        return [PermanentTrainingFaultHook(0.05, 1, rng=rng)]
    if scenario == "stuck1_every_step":
        return [PermanentTrainingFaultHook(0.02, 1, reapply_every_step=True, rng=rng)]
    if scenario == "transient":
        return [TransientTrainingFaultHook(0.05, inject_episode=40, rng=rng)]
    raise KeyError(scenario)


@pytest.mark.parametrize("scenario,seed", sorted(TRAINING_GOLDENS))
def test_tabular_training_matches_golden(scenario, seed):
    agent, _, result = train_tabular(
        GridTabularConfig.fast(),
        np.random.default_rng(seed),
        hooks=_scenario_hooks(scenario, seed),
        episodes=TRAINING_EPISODES,
    )
    payload = {
        "raw": agent.memory_buffers()["qtable"].raw.tolist(),
        "rewards": [r.total_reward for r in result.records],
        "steps": [r.steps for r in result.records],
    }
    digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    assert digest == TRAINING_GOLDENS[(scenario, seed)]


@pytest.mark.parametrize("spec", sorted(CAMPAIGN_GOLDENS))
def test_tabular_campaign_matches_golden(spec):
    artifact = api.run(
        spec,
        {"approach": "tabular", "fast": True},
        execution=api.ExecutionConfig(
            seed=CAMPAIGN_SEED, repetitions=2, workers=1, batch_size=1
        ),
    )
    payload = canonical_json(artifact.result.to_json_dict())
    assert hashlib.sha256(payload.encode()).hexdigest() == CAMPAIGN_GOLDENS[spec]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_integer_tie_break_draws_like_choice(n):
    """``best[rng.integers(len(best))]`` is the draw ``rng.choice(best)`` makes.

    The greedy tie-break relies on this to stay on the recorded trajectories;
    a numpy release that changes ``choice``'s draw fails here first.
    """
    best = np.arange(10, 10 + n)
    via_choice = np.random.default_rng(n)
    via_integers = np.random.default_rng(n)
    for _ in range(2000):
        assert via_choice.choice(best) == best[via_integers.integers(len(best))]
    # The two streams stay aligned after the draws.
    assert via_choice.random() == via_integers.random()
