"""Training telemetry: a sink the trainer's per-episode callback feeds.

:class:`TelemetrySink` turns the existing ``DqnTrainer.train(callback=...)``
hook into live training observability without changing the trainer's
signature: ``sink.attach(trainer)`` returns a callback that, once per
completed episode, derives the headline training signals —

* **env-steps/sec** over the sink's lifetime (collection throughput),
* **replay fill** (buffer occupancy fraction),
* **epsilon** at the current global transition count,
* **loss statistics** over the most recent gradient steps,
* windowed **success rate / mean reward**,

— stores them on :attr:`latest`, pushes the episode-cadence ones into the
process metrics registry as ``train.*`` gauges/histograms (no-ops while
metrics are disabled), and optionally logs a progress line every
``log_every`` episodes.  The ``train.epsilon`` and ``train.replay_fill``
gauges belong to the collector (:mod:`repro.rl.collect`) and the trainer,
which set them per step, so the sink keeps those two values in
:attr:`latest` only and a gauge reads the same with or without a sink.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.obs.metrics import get_metrics
from repro.utils.logging import get_logger

logger = get_logger("obs.sink")


class TelemetrySink:
    """Aggregates per-episode training telemetry from the trainer callback."""

    def __init__(
        self,
        log_every: Optional[int] = None,
        loss_window: int = 100,
    ) -> None:
        if log_every is not None and log_every <= 0:
            raise ValueError(f"log_every must be positive, got {log_every}")
        if loss_window <= 0:
            raise ValueError(f"loss_window must be positive, got {loss_window}")
        self.log_every = log_every
        self.loss_window = loss_window
        self.latest: Dict[str, Any] = {}
        self.episodes_seen = 0
        self._started = time.perf_counter()

    # ------------------------------------------------------------------ wiring
    def attach(
        self,
        trainer,
        callback: Optional[Callable[[int, Any], None]] = None,
    ) -> Callable[[int, Any], None]:
        """A ``(episode, history)`` callback feeding this sink.

        ``callback`` chains an existing user callback after the sink, so
        telemetry composes with whatever the caller already hooks in.
        """

        def _on_episode(episode: int, history) -> None:
            self.on_episode(episode, history, trainer)
            if callback is not None:
                callback(episode, history)

        return _on_episode

    # ------------------------------------------------------------------ recording
    def on_episode(self, episode: int, history, trainer) -> None:
        self.episodes_seen += 1
        elapsed = max(time.perf_counter() - self._started, 1e-9)
        losses: List[float] = history.losses[-self.loss_window:]
        replay_capacity = trainer.replay.capacity
        epsilon = float(trainer.config.epsilon_schedule(history.total_steps))
        window = min(50, history.num_episodes)
        self.latest = {
            "episode": episode,
            "episodes_completed": history.num_episodes,
            "total_steps": history.total_steps,
            "env_steps_per_s": history.total_steps / elapsed,
            "replay_fill": len(trainer.replay) / replay_capacity,
            "epsilon": epsilon,
            "gradient_steps": history.gradient_steps,
            "loss_mean": float(np.mean(losses)) if losses else None,
            "loss_last": float(losses[-1]) if losses else None,
            "success_rate": history.success_rate(window=window) if window else 0.0,
            "mean_reward": history.mean_reward(window=window) if window else 0.0,
        }
        metrics = get_metrics()
        if metrics.enabled:
            metrics.gauge("train.env_steps_per_s").set(self.latest["env_steps_per_s"])
            metrics.counter("train.episodes_observed").inc()
            metrics.histogram("train.episode_reward").observe(
                float(history.episode_rewards[-1])
            )
            if losses:
                metrics.gauge("train.loss_mean").set(self.latest["loss_mean"])
        if self.log_every is not None and self.episodes_seen % self.log_every == 0:
            logger.info(
                "episode %d: %.0f env-steps/s, replay %.0f%%, eps=%.3f, "
                "loss=%.4g, success(last %d)=%.2f",
                episode + 1,
                self.latest["env_steps_per_s"],
                100.0 * self.latest["replay_fill"],
                epsilon,
                self.latest["loss_mean"] if losses else float("nan"),
                window,
                self.latest["success_rate"],
            )

    def summary(self) -> Dict[str, Any]:
        """The most recent telemetry snapshot (empty before the first episode)."""
        return dict(self.latest)
