"""One benchmark run: set-up, timed rounds, checks, metrics."""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

T_START = time.perf_counter()


def process_age_s() -> float:
    """Seconds since this process started, from /proc when it is there."""
    try:
        with open("/proc/self/stat") as f:
            start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_START


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.25 has no mode argument
        blas = {}
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Set up ``workload``, run rounds for ``seconds``, check, and measure.

    Returns the run record: ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (end-to-end, or per-layer when ``trace``), plus context;
    a traced run's record also holds its span list under ``spans``.
    """
    wl = workloads.WORKLOADS[workload](seed, work)
    setup_s = process_age_s()

    tracer = tracing.Tracer()
    meters = {False: workloads.Meter(), True: workloads.Meter()}
    attempted = failed = 0
    problems: list[str] = []
    val_accs: list[float] = []
    model = None
    # A traced run alternates traced and untraced rounds, starting
    # traced, so the untraced ones measure its overhead in the same process.
    start = time.perf_counter()
    index = 0
    while index < 1 + trace or time.perf_counter() - start < seconds:
        traced = trace and index % 2 == 0
        if traced:
            tracer.install()
        try:
            result = workloads.run_round(wl, seed, index, work, meters[traced], tracer.span)
        finally:
            tracer.uninstall()
        attempted += result.attempted
        failed += result.failed
        problems += result.problems
        val_accs += result.val_accs
        model = result.model or model
        index += 1

    if model is None:
        raise RuntimeError("no round trained a model; see the failed operations")
    problems += workloads.run_checks(wl, seed, model)
    if wl.val_margin is not None:
        problems += checks.check_above_chance(val_accs, wl.train_data.num_classes,
                                              wl.val_margin)

    record = {"workload": workload, "seed": seed, "seconds": seconds, "rounds": index,
              "machine": machine_facts()}
    if trace:
        metrics, record["layers"] = _layer_metrics(wl, seed, model, tracer, meters)
        names = sorted({s[0] for s in tracer.spans})
        code = {n: i for i, n in enumerate(names)}
        record["spans"] = {"names": names,
                           "spans": [[code[n], s, e, p] for n, s, e, p in tracer.spans]}
    else:
        metrics = {"setup_s": (setup_s, "s"), **meters[False].metrics()}
    record.update(correct=not problems, attempted=attempted, failed=failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                  problems=problems)
    return record


def _layer_metrics(wl, seed, model, tracer, meters) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run, and a table of the traced spans."""
    self_ms = tracer.self_times()
    metrics = {}
    for metric, span in tracing.SELF_TIME_METRICS.items():
        metrics[metric] = (float(np.median(self_ms.get(span, [np.nan]))), "ms")
    steps = tracer.durations("trainer.step")
    metrics["trainer.step_ms"] = (float(np.median(steps)), "ms")
    metrics["trainer.step_p90_ms"] = (float(np.percentile(steps, 90)), "ms")
    metrics["trainer.evaluate_ms"] = (float(np.median(tracer.durations("trainer.evaluate"))),
                                      "ms")

    rng = np.random.default_rng(workloads.sub_seed(seed, 40))
    params = model.params.copy()
    batch = workloads.one_batch(wl, workloads.sub_seed(seed, 41))
    for name, value in tracing.layer_backward_ms(wl.model_cfg, params, batch.images,
                                                 rng, reps=5).items():
        metrics[name] = (value, "ms")
    for name, value in tracing.step_nodes(wl.model_cfg, params, batch, rng).items():
        metrics[name] = (value, "count")

    traced_s = meters[True].round_seconds / meters[True].rounds
    plain_s = meters[False].round_seconds / meters[False].rounds
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")

    report = {
        "steps": len(steps),
        "self_ms": {name: {"calls": len(v), "median": float(np.median(v)),
                           "total": float(np.sum(v))} for name, v in sorted(self_ms.items())},
        # ru_maxrss is the process's, so peak_rss_mb cannot be split by round.
        "end_to_end_traced": {k: v for k, (v, _) in meters[True].metrics().items()
                              if k != "peak_rss_mb"},
        "end_to_end_untraced": {k: v for k, (v, _) in meters[False].metrics().items()
                                if k != "peak_rss_mb"},
    }
    return metrics, report


