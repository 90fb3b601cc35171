#!/usr/bin/env python3
"""Offline BERRY training on the navigation task (reduced scale).

Trains a classical DQN policy and a BERRY error-aware policy on the same
navigation environment, then deploys both on a simulated low-voltage
accelerator: the policy parameters are quantized to 8 bits and corrupted by
persistent fault maps at several bit-error rates.  The printed table is the
reduced-scale analogue of the paper's Table I.

Experience collection runs on ``TRAIN_LANES`` lockstep environment lanes
(the batched training core of :mod:`repro.rl.collect`); set it to 1 to
replay the serial trainer bitwise.

Run with (takes roughly half a minute)::

    python examples/offline_navigation.py
"""

import time
from dataclasses import replace

from repro.envs.navigation import NavigationEnv
from repro.experiments.profiles import FAST_PROFILE
from repro.core.modes import train_classical, train_offline_berry
from repro.rl.evaluation import FaultRequest, PolicyRequest, evaluate_many
from repro.utils.rng import spawn_generators
from repro.utils.tables import Table, format_aligned

EVAL_BER_PERCENT = (0.3, 1.0, 3.0)

#: Lockstep experience-collection lanes for both training runs.
TRAIN_LANES = 4


def main() -> None:
    profile = FAST_PROFILE
    dqn_config = replace(profile.dqn, train_lanes=TRAIN_LANES)
    env_rng, classical_rng, berry_rng = spawn_generators(0, 3)
    env = NavigationEnv(profile.navigation, rng=env_rng)
    print(f"environment: {env!r}")

    start = time.time()
    print(
        f"training classical DQN for {profile.training_episodes} episodes "
        f"({TRAIN_LANES} lockstep lanes) ..."
    )
    classical = train_classical(
        env, profile.training_episodes, policy_spec=profile.policy_spec,
        config=dqn_config, rng=classical_rng,
    )
    print(f"training BERRY (p = 1 % injection) for {profile.training_episodes} episodes ...")
    berry = train_offline_berry(
        env, profile.training_episodes, ber_percent=1.0, policy_spec=profile.policy_spec,
        config=dqn_config, rng=berry_rng,
    )
    print(f"training finished in {time.time() - start:.1f} s")

    table = Table(
        title="Success rate under injected bit errors (reduced-scale Table I)",
        columns=["scheme", "error_free_pct"] + [f"p={p:g}%" for p in EVAL_BER_PERCENT],
    )
    schemes = (("classical", classical), ("berry", berry))
    # Every cell of both rows flies side by side in one evaluate_many call.
    requests = []
    for _, trainer in schemes:
        requests.append(PolicyRequest(trainer.q_network, profile.eval_episodes, rng=11))
        requests.extend(
            FaultRequest(
                trainer.q_network, ber_percent=ber,
                num_fault_maps=profile.num_fault_maps,
                episodes_per_map=profile.episodes_per_map, rng=13,
            )
            for ber in EVAL_BER_PERCENT
        )
    cells = iter(evaluate_many(env, requests))
    for name, _ in schemes:
        row = {"scheme": name, "error_free_pct": 100.0 * next(cells).success_rate}
        for ber in EVAL_BER_PERCENT:
            row[f"p={ber:g}%"] = 100.0 * next(cells).success_rate
        table.add_row(**row)

    print()
    print(format_aligned(table))


if __name__ == "__main__":
    main()
