"""Reinforcement-learning substrate: replay buffer, schedules, DQN, evaluation.

The paper's autonomy policies are Deep Q-Networks trained with experience
replay and a periodically synchronised target network (Sec. II-A and
Algorithm 1 lines 2-13).  :class:`~repro.rl.dqn.DqnTrainer` implements that
classical baseline; the BERRY error-aware trainer in :mod:`repro.core.berry`
extends it with the perturbed gradient pass.  Experience collection runs on
``config.train_lanes`` lockstep batched environment lanes
(:mod:`repro.rl.collect`); one lane reproduces the serial loop bitwise.
"""

from repro.rl.replay_buffer import ReplayBuffer, Transition
from repro.rl.schedules import ConstantSchedule, LinearDecay
from repro.rl.collect import LockstepCollector, StepBatch
from repro.rl.dqn import DqnConfig, DqnTrainer, TrainingHistory
from repro.rl.evaluation import (
    FaultRequest,
    GreedyPolicy,
    PolicyEvaluation,
    PolicyRequest,
    RobustnessPoint,
    evaluate_many,
    evaluate_policy,
    evaluate_under_faults,
    robustness_curve,
)

__all__ = [
    "ReplayBuffer",
    "Transition",
    "ConstantSchedule",
    "LinearDecay",
    "DqnConfig",
    "DqnTrainer",
    "TrainingHistory",
    "LockstepCollector",
    "StepBatch",
    "FaultRequest",
    "GreedyPolicy",
    "PolicyEvaluation",
    "PolicyRequest",
    "RobustnessPoint",
    "evaluate_many",
    "evaluate_policy",
    "evaluate_under_faults",
    "robustness_curve",
]
