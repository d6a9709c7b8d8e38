"""Benchmark of the qcmoments pipeline through its CLI entry point.

    python3 perfbench/run.py --workload h2-pipeline --seed 1 --seconds 30 \
        --trace 0

Workloads (see ``workloads.py``): ``h2-pipeline``, ``h4-pipeline`` and
``plan-9x4``. One process imports ``qcmoments.cli`` from the checkout's
``src/`` and repeats the workload's command for ``--seconds``: at least once,
and not again when the next repetition would end after them. Every
repetition's outputs are checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics: the
median over repetitions of the command's wall time in reference seconds
(``speed.py``), the median set-up time of three fresh interpreters that
import, warm up and write the config (also in reference seconds), peak RSS,
and the plan's basis count and schedule depth. With ``--trace 1`` the run
alternates untraced and traced repetitions and reports per-layer spans and
counters (``tracer.py``) averaged per traced repetition, plus the tracing
overhead. A line before the last holds the details: medians of the raw wall
time, of every stage time and of |E_L - FCI|, the archive size, and the
machine and thread settings. It is also written to ``perfbench/results/``,
next to the spans of a traced run.

``--tiny`` shrinks every workload to seconds for ``selftest.py``.
"""
import os

# Pin BLAS threads before numpy loads: with two threads a helper thread
# spins on the pipeline's small matrix products and CPU time exceeds wall.
THREAD_SETTINGS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DATA = os.path.join(ROOT, "tests", "data")
SETUP_PROBES = 3

sys.path.insert(0, HERE)
from workloads import NAMES, Workload  # noqa: E402
from tracer import STAGE_SPANS, Tracer  # noqa: E402
from speed import (IMPORT_REFERENCE_S, REFERENCE_S, SpeedGauge,  # noqa: E402
                   import_probe, probe)

# per-layer counters reported as totals per traced repetition: name -> unit
_COUNTERS = {
    "trial.spsa_minimize.evaluations": "count",
    "mitigation.apply_qrem.outcomes_in": "count",
    "mitigation.apply_qrem.outcomes_out": "count",
    "mitigation.clip_to_physical.clipped_mass": "prob",
    "qcm.bootstrap.resamples": "count",
    "qcm.bootstrap.failures": "count",
    "qcm.hamiltonian_powers.terms": "count",
    "planner.MeasurementPlan.dumps.bytes": "B",
    "routing.route_pairs.depth_sum": "count",
    "simulator.run.gates": "count",
    "simulator.run.amplitude_updates": "count",
    "simulator.sample.shots": "count",
    "simulator.sample.outcomes": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="seconds-long variant of each workload")
    p.add_argument("--setup-only", metavar="DIR",
                   help="set up in DIR and exit (one set-up probe)")
    return p.parse_args(argv)


def setup(workload):
    """Imports, lazy scipy imports, warm-up and config writing; returns the
    CLI entry point."""
    sys.path.insert(0, SRC)
    from qcmoments.cli import main
    import numpy as np
    import scipy.linalg      # imported lazily by qcmoments.trial
    import scipy.optimize    # noqa: F401  (idem)
    scipy.linalg.expm(np.zeros((4, 4)))
    probe()                  # the speed gauge's first call is slow
    workload.write_config()
    return main


def setup_seconds(args, work_dir, probes):
    """Median set-up time, in reference seconds, of fresh interpreters that
    only set up, each scaled by the import probes on either side of it; also
    returns their raw wall times."""
    samples, ref, gauge = [], [], [import_probe()]
    for k in range(probes):
        probe_dir = f"{work_dir}-probe{k}"
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", "0", "--setup-only", probe_dir]
        start = time.perf_counter()
        try:
            subprocess.run(cmd + (["--tiny"] if args.tiny else []),
                           check=True, cwd=ROOT)
        finally:
            shutil.rmtree(probe_dir, ignore_errors=True)
        samples.append(time.perf_counter() - start)
        gauge.append(import_probe())
        ref.append(samples[-1] * IMPORT_REFERENCE_S
                   / statistics.fmean(gauge[-2:]))
    return statistics.median(ref), samples


def machine_details():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_SETTINGS},
        "speed_probe_reference_s": REFERENCE_S,
        "import_probe_reference_s": IMPORT_REFERENCE_S,
    }


def repeat(workload, main, seconds, tracer):
    """Repeat the workload for ``seconds``: at least one round, and no
    round that would end after them going by the last round's length.

    With a tracer, each round is an untraced repetition followed by a
    traced one. An untraced repetition runs under a speed gauge: its
    ``wall_s`` is net of the gauge's probes and ``wall_ref_s`` is that time
    in reference seconds. Returns (untraced results, traced results,
    failures).
    """
    plain, traced, failures = [], [], []

    def attempt(sink, run):
        try:
            sink.append(run())
        except Exception as exc:     # a failed operation, not a crash
            traceback.print_exc()
            failures.append(f"{type(exc).__name__}: {exc}")

    def gauged():
        with SpeedGauge() as gauge:
            result = workload.run_once(main)
        result["wall_ref_s"] = gauge.scale(result["wall_s"])
        result["wall_s"] -= gauge.probe_s
        return result

    def with_tracer():
        with tracer:
            return workload.run_once(main)

    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        attempt(plain, gauged)
        if tracer:
            attempt(traced, with_tracer)
            tracer.run_id += 1
        now = time.perf_counter()
        if (now - start) + (now - round_start) > seconds:
            return plain, traced, failures


def _median(results, key):
    return statistics.median(r[key] for r in results)


def end_to_end(plain, setup_s):
    first = plain[0]
    return {
        "wall_ref_s": (_median(plain, "wall_ref_s"), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb":
            (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "measurement_bases": (first["measurement_bases"], "count"),
        "max_schedule_depth": (first["max_schedule_depth"], "count"),
    }


def per_layer(tracer, stats, plain, traced):
    """Per-layer metrics, each averaged per traced repetition."""
    n = max(tracer.run_id, 1)
    out = {}
    for name, s in stats.items():
        if name not in STAGE_SPANS:
            out[f"{name}.calls"] = (s["calls"] / n, "count")
        out[f"{name}.busy_s"] = (s["busy_s"] / n, "s")
        out[f"{name}.self_s"] = (s["self_s"] / n, "s")
    counters = {f"{name}.{key}": v for (name, key), v in
                tracer.counters.items()}
    for name, unit in _COUNTERS.items():
        out[name] = (counters.get(name, 0) / n, unit)

    def ratio(num, den):
        return num / den if den else 0.0

    out["mitigation.symmetry_postselect.acceptance"] = (ratio(
        counters.get("mitigation.symmetry_postselect.acceptance_sum", 0),
        stats["mitigation.symmetry_postselect"]["calls"]), "ratio")
    out["routing.route_pairs.certified_ratio"] = (ratio(
        counters.get("routing.route_pairs.certified", 0),
        stats["routing.route_pairs"]["calls"]), "ratio")
    out["qcm.bootstrap.resamples_per_s"] = (ratio(
        counters.get("qcm.bootstrap.resamples", 0),
        stats["qcm.bootstrap"]["busy_s"]), "1/s")
    archive = [r["archive_bytes"] for r in traced if "archive_bytes" in r]
    out["cli.cmd_run.archive_bytes"] = (
        statistics.median(archive) if archive else 0, "B")
    out["trace.overhead_s"] = (
        _median(traced, "wall_s") - _median(plain, "wall_s"), "s")
    out["trace.spans"] = (len(tracer.spans) / n, "count")
    return out


def layer_split(tracer, stats, traced):
    """Shares that confirm where each workload spends its time."""
    n = max(tracer.run_id, 1)
    wall = _median(traced, "wall_s")
    return {
        "trial.exact_trial_state_of_wall":
            stats["trial.exact_trial_state"]["busy_s"] / n / wall,
        "planner_routing_of_wall":
            tracer.layer_busy({"planner", "routing"}) / n / wall,
        "mitigation_qcm_of_analyze": tracer.layer_busy(
            {"mitigation", "qcm"}) / n / _median(traced, "analyze_s")
        if "analyze_s" in traced[0] else None,
    }


# figures of one repetition reported in the details, with their units
_FIGURES = {"wall_ref_s": "s", "wall_s": "s", "plan_s": "s",
            "optimize_s": "s", "run_s": "s", "analyze_s": "s",
            "e_l_error_mha": "mHa", "archive_bytes": "B"}


def _figure_medians(results):
    if not results:
        return None
    return {k: {"value": _median(results, k), "unit": u}
            for k, u in _FIGURES.items() if k in results[0]}


def details(workload, args, plain, traced, failures, setup_samples):
    return {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "tiny": args.tiny, "seconds": args.seconds,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "untraced_wall_s": [r["wall_s"] for r in plain],
        "untraced_medians": _figure_medians(plain),
        "traced_medians": _figure_medians(traced),
        "setup_samples_s": setup_samples,
        "failures": failures,
        "machine": machine_details(),
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "qcmoments")) or \
            not os.path.isdir(DATA):
        print(f"no qcmoments sources under {SRC} or fixtures under {DATA}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        setup(Workload(args.workload, args.seed, DATA, args.setup_only,
                       args.tiny))
        return 0

    work_dir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    workload = Workload(args.workload, args.seed, DATA, work_dir, args.tiny)
    try:
        cli_main = setup(workload)
        setup_s, setup_samples = None, []
        if not args.trace:
            setup_s, setup_samples = setup_seconds(
                args, work_dir, 1 if args.tiny else SETUP_PROBES)
        tracer = Tracer() if args.trace else None
        plain, traced, failures = repeat(workload, cli_main, args.seconds,
                                         tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not plain or (tracer and not traced):
        print("no repetition succeeded: " + "; ".join(failures),
              file=sys.stderr)
        return 1

    info = details(workload, args, plain, traced, failures, setup_samples)
    stem = os.path.join(results_dir,
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer:
        stats = tracer.per_span()
        metrics = per_layer(tracer, stats, plain, traced)
        info["layer_split"] = layer_split(tracer, stats, traced)
        tracer.write(stem + ".spans.jsonl")
    else:
        metrics = end_to_end(plain, setup_s)
    with open(stem + ".json", "w") as fh:
        json.dump(info, fh, indent=2)
    print(json.dumps(info))
    attempted = len(plain) + len(traced) + len(failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
