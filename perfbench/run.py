"""Repository benchmark: four workloads, end-to-end walls and a layer trace.

Run from the repository root::

    python3 perfbench/run.py --workload rollouts-walls --seed 0 --seconds 30 --trace 0

``--trace 0`` repeats the workload's unit of work (see
:mod:`perfbench.workloads`) until ``--seconds`` is used up, measures
set-up time in fresh processes spread through the run, and reports the
end-to-end metrics named in ``BENCHMARK.json``: ``wall_s`` (the median
timed pass), ``setup_s`` (the median of eleven fresh processes, from
process start until the timed work could begin) and ``peak_rss_mb`` (this
process plus its pool workers).  The work is deterministic, but a shared
cloud host (measured on a 2-vCPU VM) drifts between a fast state and one
up to ~1.6x slower as co-tenants come and go, on a scale of seconds to
minutes, so both times are taken at reference speed by
:class:`perfbench.speed.SpeedGauge`; the info line keeps the raw times.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of :mod:`perfbench.layers` instead.  The last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the environment, the error rate
(failed / attempted operations) and every repetition's times.

Every operation (sweep job, Table I cell, fleet step) is checked against
``perfbench/reference.json``; a mismatch or an exception counts as a
failed operation, and so does every operation of a workload whose input
has no recorded reference.  ``--record-reference`` re-records the
references (one pass per input variant, for ``--workload`` or every
workload) after an intended change of results.

Set-up pins the environment before numpy loads: one BLAS/OpenMP thread,
the numpy compute backend, temp files inside the checkout.  Nothing is
written outside ``.perfbench_work/``, which is removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 11


def pin_environment(workdir: Path) -> None:
    """Fix what the environment could otherwise change; call before numpy loads."""
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    os.environ["REPRO_BACKEND"] = "numpy"
    os.environ.pop("REPRO_TORCH_DEVICE", None)
    os.environ["TMPDIR"] = str(workdir)
    for path in (str(SOURCE), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup", action="store_true",
        help="set the workload up, print 'ready' and its reference/raw speed ratio "
        "and exit (one setup_s sample)",
    )
    parser.add_argument(
        "--record-reference", action="store_true",
        help="record reference digests for every input variant and exit",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- checks
def grouped_digests(workload, digests):
    """``digests`` hashed in groups of ``workload.reference_group``, shortened."""
    size = workload.reference_group
    if size > 1:
        digests = [
            hashlib.sha256("".join(digests[i : i + size]).encode()).hexdigest()
            for i in range(0, len(digests), size)
        ]
    return [digest[:16] for digest in digests]


def expected_ops(workload):
    """The grouped digests one pass of ``workload`` must produce, or None."""
    if not REFERENCE.exists():
        return None
    recorded = json.loads(REFERENCE.read_text())["workloads"].get(workload.name, {})
    ops = recorded.get(workload.reference_key)
    return None if ops is None else ops * workload.reference_repeats


class Checker:
    """Counts attempted and failed operations against the expected digests."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.expected = expected_ops(workload)
        if self.expected is None:
            print(
                f"perfbench: no reference for {workload.name} "
                f"{workload.reference_key}; every operation counts as failed",
                file=sys.stderr,
            )
        self.attempted = 0
        self.failed = 0
        self.path_ok = True

    def check(self, digests) -> None:
        """Score one pass of the unit of work (``digests`` is None if it raised)."""
        count = self.workload.operations
        self.attempted += count
        if digests is None or len(digests) != count or self.expected is None:
            self.failed += count
            return
        size = self.workload.reference_group
        grouped = grouped_digests(self.workload, digests)
        mismatched = sum(
            1 for got, want in zip(grouped, self.expected) if got != want
        ) + abs(len(grouped) - len(self.expected))
        self.failed += min(count, mismatched * size)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.path_ok


# ---------------------------------------------------------------------- measurement
def run_repetition(workload, checker, tracer=None, gauge=None):
    """One prepare -> timed pass -> release cycle; returns its timings.

    With a ``gauge`` the pass is also timed at reference speed
    (``reference_s``); ``wall_s`` is always the raw wall time.
    """
    workload.prepare()
    gc.collect()
    if tracer is not None:
        tracer.install()
    if gauge is not None:
        gauge.start()
    try:
        started = time.perf_counter()
        try:
            output = workload.run()
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            traceback.print_exc(file=sys.stderr)
            output = None
        wall = time.perf_counter() - started
    finally:
        if gauge is not None:
            gauge.stop()
        if tracer is not None:
            tracer.remove()
    checker.path_ok &= output is not None and workload.path_ok()
    checker.check(None if output is None else workload.digests(output))
    counters = workload.counters()
    return {
        "wall_s": wall,
        "reference_s": gauge.reference_s if gauge is not None else None,
        "helper_rss_mb": workload.release(),
        "counters": counters,
    }


def pass_walls(reps):
    return [rep["wall_s"] for rep in reps]


def measure(workload, seconds, trace, probe=None):
    """Repeat the unit until ``seconds`` are used.

    Returns the checker, the untraced and traced repetitions, the tracer
    and the set-up samples.  A further repetition (with ``--trace 1``: a
    further untraced + traced pair) starts only while the elapsed time plus
    half a round stays below ``seconds``; at least one always runs.
    ``probe`` (a set-up sample in a fresh process) runs between rounds, in
    step with the elapsed share of ``seconds``, until it has run
    :data:`SETUP_PROBES` times.
    """
    from perfbench.layers import LAYERS
    from perfbench.speed import SpeedGauge
    from perfbench.trace import LayerTracer

    checker = Checker(workload)
    tracer = LayerTracer(LAYERS) if trace else None
    # Traced runs compare raw walls only: no gauge ticks in their passes.
    gauge = None if trace else SpeedGauge()
    plain, traced, setups = [], [], []
    probes = SETUP_PROBES if probe is not None else 0
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        plain.append(run_repetition(workload, checker, gauge=gauge))
        if tracer is not None:
            traced.append(run_repetition(workload, checker, tracer))
        share = min(1.0, (time.perf_counter() - started) / seconds)
        while len(setups) < probes * share:
            setups.append(probe())
        now = time.perf_counter()
        if now - started + 0.5 * (now - round_started) >= seconds:
            break
    while len(setups) < probes:
        setups.append(probe())
    return checker, plain, traced, tracer, setups


def probe_setup_seconds(args) -> dict:
    """One fresh-process set-up time, from spawn until it prints 'ready'.

    The child gauges its own speed from the start of :func:`main`; the
    whole spawn-to-ready wall is rescaled by the ratio it reports.
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--probe-setup",
    ]
    started = time.perf_counter()
    with subprocess.Popen(
        command, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    ) as child:
        line = child.stdout.readline()
        ready = time.perf_counter() - started
        child.stdout.read()
        code = child.wait(timeout=60)
    words = line.split()
    if len(words) != 2 or words[0] != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return {"wall_s": ready, "reference_s": ready * float(words[1])}


def source_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted((SOURCE / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SOURCE)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy

    from repro.nn.backend import default_backend_name

    sha = None
    if (ROOT / ".git").exists():  # benchmark checkouts are not git repositories
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": source_fingerprint(),
        "nproc": os.cpu_count(),
        "backend": default_backend_name(),
        "blas_threads": os.environ["OMP_NUM_THREADS"],
    }


def declared_metrics(trace: int):
    """The metric names BENCHMARK.json declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return [(entry["name"], entry["unit"]) for entry in declared[key]]


def end_to_end_metrics(plain, setups) -> dict:
    from perfbench.workloads import peak_rss_mb

    return {
        "wall_s": statistics.median(rep["reference_s"] for rep in plain),
        "setup_s": statistics.median(probe["reference_s"] for probe in setups),
        "peak_rss_mb": peak_rss_mb() + max(rep["helper_rss_mb"] for rep in plain),
    }


def per_layer_metrics(plain, traced, tracer) -> dict:
    from perfbench.layers import DERIVED

    traced_walls = pass_walls(traced)
    units = len(traced_walls)
    traced_wall = sum(traced_walls) / units
    named = tracer.self_time_total() / units
    out = tracer.metrics(units)
    checks = tracer.totals["fleet.detect_conflicts"]
    out["fleet.prescreen_ratio"] = checks.counted / checks.rows if checks.rows else 0.0
    counters = traced[-1]["counters"]
    for name in DERIVED:
        out.setdefault(name, counters.get(name, 0.0))
    out["other.self_s"] = traced_wall - named
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = min(traced_walls) - min(pass_walls(plain))
    out["trace.coverage"] = named / traced_wall
    return out


def record_reference(names, workdir: Path) -> None:
    """Write one pass's digests per input variant and workload to reference.json."""
    from perfbench.workloads import INPUT_VARIANTS, WORKLOADS

    recorded = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {"workloads": {}}
    for name in names:
        cls = WORKLOADS[name]
        entries = {}
        for seed in [0] if cls.seed_invariant else range(INPUT_VARIANTS):
            workload = cls(seed, workdir)
            workload.prepare()
            try:
                digests = workload.digests(workload.run())
            finally:
                workload.release()
            grouped = grouped_digests(workload, digests)
            count = len(grouped) // workload.reference_repeats
            if grouped != grouped[:count] * workload.reference_repeats:
                raise RuntimeError(f"{name} seed {seed}: repeated operations disagree")
            entries[workload.reference_key] = grouped[:count]
            print(f"{name} seed {seed}: {len(digests)} operations", flush=True)
        recorded["workloads"][name] = entries
    recorded["format"] = 2
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "version.py").is_file():
        print(f"perfbench: no source tree at {SOURCE}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True)
    pin_environment(workdir)
    gauge = None
    if args.probe_setup:
        from perfbench.speed import SpeedGauge

        gauge = SpeedGauge()
        gauge.start()
    try:
        from repro.nn.backend import set_default_backend
        from repro.runtime import shutdown_pool

        set_default_backend("numpy")
        from perfbench.workloads import WORKLOADS

        try:
            if args.record_reference:
                names = [args.workload] if args.workload else list(WORKLOADS)
                record_reference(names, workdir)
                return 0
            if args.workload not in WORKLOADS:
                print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
                return 2
            workload = WORKLOADS[args.workload](args.seed, workdir)
            if args.probe_setup:
                workload.prepare()
                gauge.stop()
                print(f"ready {gauge.reference_s / gauge.raw_s!r}", flush=True)
                workload.release()
                return 0
            declared = declared_metrics(args.trace)
            probe = None if args.trace else lambda: probe_setup_seconds(args)
            checker, plain, traced, tracer, setups = measure(
                workload, args.seconds, args.trace, probe
            )
            if args.trace:
                values = per_layer_metrics(plain, traced, tracer)
            else:
                values = end_to_end_metrics(plain, setups)
        finally:
            shutdown_pool()
        if set(values) != {name for name, _ in declared}:
            print(
                f"perfbench: measured metrics {sorted(values)} differ from BENCHMARK.json",
                file=sys.stderr,
            )
            return 3
        print(
            json.dumps(
                {
                    "environment": environment(),
                    "error_rate": checker.failed / checker.attempted,
                    "wall_s_passes": pass_walls(plain),
                    "reference_s_passes": [rep["reference_s"] for rep in plain],
                    "setup_s_probes": setups,
                }
            )
        )
        print(
            json.dumps(
                {
                    "correct": checker.correct,
                    "attempted": checker.attempted,
                    "failed": checker.failed,
                    "metrics": {
                        name: {"value": values[name], "unit": unit} for name, unit in declared
                    },
                }
            )
        )
        return 0
    finally:
        if gauge is not None:
            gauge.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
