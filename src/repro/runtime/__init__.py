"""``repro.runtime`` — the parallel sweep-execution engine.

Declarative :class:`JobSpec`/:class:`SweepSpec` units of work flow through a
:class:`SweepRunner` that serves each job from the content-addressed
:class:`ResultCache` (re-runs, and resumed interrupted or sharded runs, are
cache hits) or executes it on a backend (:class:`SerialExecutor` /
:class:`MultiprocessExecutor`), recording progress in the sweep's
:class:`Journal`.
``python -m repro.runtime`` runs any sweep registered in
:mod:`repro.runtime.registry`.

This package deliberately does not import the registry at module scope: the
registry pulls in the experiment modules, which themselves import the core
spec types from here.
"""

from repro.runtime.cache import ResultCache
from repro.runtime.engine import SweepExecutionError, SweepReport, SweepRunner, run_sweep
from repro.runtime.executor import (
    Executor,
    MultiprocessExecutor,
    SerialExecutor,
    make_executor,
    plan_chunks,
)
from repro.runtime.fusion import plan_fusion
from repro.runtime.jobs import (
    JobSpec,
    SweepSpec,
    job_kind,
    registered_kinds,
    run_job,
)
from repro.runtime.journal import Journal, SweepStatus
from repro.runtime.pool import WarmPoolExecutor, shutdown_pool

__all__ = [
    "Executor",
    "JobSpec",
    "Journal",
    "MultiprocessExecutor",
    "ResultCache",
    "SerialExecutor",
    "SweepExecutionError",
    "SweepReport",
    "SweepRunner",
    "SweepSpec",
    "SweepStatus",
    "WarmPoolExecutor",
    "job_kind",
    "make_executor",
    "plan_chunks",
    "plan_fusion",
    "registered_kinds",
    "run_job",
    "run_sweep",
    "shutdown_pool",
]
