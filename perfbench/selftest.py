"""Seconds-long self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at its tiny size, untraced and traced,
and checks that the last stdout line is a passing result that carries every
metric BENCHMARK.json names, with that metric's unit. Exits 1 on a mismatch.
"""
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_run(spec, workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        problems.append("not a passing result: " + json.dumps(
            {k: result.get(k) for k in ("correct", "attempted", "failed")}))
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"missing {m['name']}")
        elif got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} in {got.get('unit')}, "
                            f"not {m['unit']}")
        elif not isinstance(got.get("value"), (int, float)) or \
                (not trace and not got["value"] > 0):
            problems.append(f"{m['name']} = {got.get('value')!r}")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            start = time.perf_counter()
            problems = check_run(spec, workload, trace)
            status = "FAIL" if problems else "ok"
            print(f"{status:4s} {workload} trace={trace} "
                  f"({time.perf_counter() - start:.1f} s)")
            for p in problems:
                print(f"     {p}")
            failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
