"""Benchmark workloads: the CLI commands each one runs and the checks on
their outputs.

A pipeline workload runs ``plan``, ``optimize``, ``run`` and ``analyze``
through ``qcmoments.cli.main`` with exactly the arguments ``pipeline`` passes
them, timing each stage; the benchmark seed is the config's ``master_seed``.
``plan-9x4`` runs the standalone ``plan --modes 9 --order 4``, which takes
no seed. Every repetition's outputs are checked; a failed check fails that
repetition.
"""
import contextlib
import io
import json
import os
import time

NOISE = {"global_q": 0.1, "p01": 0.03, "p10": 0.05}

# H4-chain trial amplitudes: the Powell optimum that the test helper
# tests/fixtures_util.optimized_thetas("h4") returns at commit 7540f90.
# Recomputing it takes minutes of dense exponentials, so the h4 workload pins
# it and skips SPSA (iterations 0 keeps the config's thetas).
H4_THETAS = (0.2078217569360465, 0.056920425909431686,
             0.056920423100753244, 0.08537314814180205)
H4_EXCITATIONS = (((4, 5), (2, 3)), ((6, 7), (2, 3)),
                  ((4, 5), (0, 1)), ((6, 7), (0, 1)))


def _h2_config(tiny):
    # The criterion-7 config with SPSA and the bootstrap both cut by five
    # (one SPSA seed instead of five, 100 resamples instead of 500), so that
    # optimize and analyze keep their shares but a repetition takes about a
    # second: a run then holds a few dozen repetitions and their median
    # averages over this host's slow spells.
    cfg = {
        "integrals": "h2_stretched.fcidump",
        "order": 2,
        "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
        "shots": 100_000,
        "noise": NOISE,
        "spsa": {"iterations": 150, "seeds": 1},
        "bootstrap": {"enabled": True, "resamples": 100},
    }
    if tiny:
        cfg.update(shots=2000, spsa={"iterations": 2, "seeds": 1},
                   bootstrap={"enabled": True, "resamples": 2})
    return cfg


def _h4_config(tiny):
    if tiny:
        # the chain with one orbital frozen at each end: 4 qubits, order 2
        return {
            "integrals": "h4_chain.fcidump",
            "frozen_occupied": [0],
            "frozen_virtual": [3],
            "order": 2,
            "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
            "shots": 2000,
            "noise": NOISE,
            "spsa": {"iterations": 0, "seeds": 1},
            "bootstrap": {"enabled": True, "resamples": 2},
        }
    return {
        "integrals": "h4_chain.fcidump",
        "order": 4,
        "excitations": [
            {"creations": list(c), "annihilations": list(a), "theta": t}
            for (c, a), t in zip(H4_EXCITATIONS, H4_THETAS)],
        "shots": 20_000,
        "noise": NOISE,
        "spsa": {"iterations": 0, "seeds": 1},
        # two resamples: analyze is then eight full analyses (main, five
        # ablation stacks, two resamples) and a repetition about 40 s
        "bootstrap": {"enabled": True, "resamples": 2},
    }


CONFIGS = {"h2-pipeline": _h2_config, "h4-pipeline": _h4_config}
# plan-only workload -> (modes, order) at full and at tiny size
PLAN_ONLY = {"plan-9x4": ((9, 4), (6, 2))}
NAMES = tuple(CONFIGS) + tuple(PLAN_ONLY)
# (workload, tiny) -> (exact ground-state energy or None, RDM elements the
# plan covers)
REFERENCE = {
    ("h2-pipeline", False): (-1.001125164303071, 12),
    ("h2-pipeline", True): (-1.001125164303071, 12),
    ("h4-pipeline", False): (-2.875942809005063, 940),
    ("h4-pipeline", True): (-2.610063627056374, 12),
    ("plan-9x4", False): (None, 2876),
    ("plan-9x4", True): (None, 57),
}
FCI_TOLERANCE = 1e-9


class CheckFailed(Exception):
    """An output of the program is wrong."""


def _check(cond, message):
    if not cond:
        raise CheckFailed(message)


def _cli(main, argv):
    """Run one CLI command, capturing its stdout; returns (seconds, text)."""
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    seconds = time.perf_counter() - start
    _check(code == 0, f"`{argv[0]}` exited with code {code}")
    return seconds, out.getvalue()


def _check_coverage(plan_path, n_elements):
    """The plan lists each expected RDM element once, each with a product."""
    with open(plan_path) as fh:
        coverage = json.load(fh)["coverage"]
    keys = {json.dumps(e, sort_keys=True) for e, _ in coverage}
    _check(len(coverage) == n_elements and len(keys) == n_elements,
           f"plan covers {len(keys)} distinct elements, not {n_elements}")
    _check(all(products for _, products in coverage),
           "an element has no measured product")


def _plan_figures(text):
    summary = json.loads(text.strip().splitlines()[-1])
    return {"measurement_bases": summary["concrete_bases"],
            "max_schedule_depth": summary["max_schedule_depth"]}


class Workload:
    """One workload bound to a seed and a scratch directory."""

    def __init__(self, name, seed, data_dir, work_dir, tiny=False):
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.tiny = tiny
        self.config_path = os.path.join(work_dir, "config.json")
        self._data_dir = data_dir
        self._report = None        # bytes of the first report.json

    def write_config(self):
        os.makedirs(self.work_dir, exist_ok=True)
        if self.name in PLAN_ONLY:
            return
        cfg = {"schema": 1, **CONFIGS[self.name](self.tiny)}
        cfg["integrals"] = os.path.join(self._data_dir, cfg["integrals"])
        cfg["output_dir"] = os.path.join(self.work_dir, "out")
        cfg["master_seed"] = self.seed
        with open(self.config_path, "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)

    def run_once(self, main):
        """One checked command. Returns stage seconds, ``wall_s`` and result
        figures; raises CheckFailed on a wrong output."""
        if self.name in PLAN_ONLY:
            return self._plan_only(main)
        return self._pipeline(main)

    def _plan_only(self, main):
        modes, order = PLAN_ONLY[self.name][int(self.tiny)]
        plan = os.path.join(self.work_dir, "plan.json")
        seconds, text = _cli(main, ["plan", "--modes", str(modes), "--order",
                                    str(order), "--output", plan])
        _check_coverage(plan, REFERENCE[self.name, self.tiny][1])
        return {"wall_s": seconds, "plan_s": seconds, **_plan_figures(text)}

    def _pipeline(self, main):
        out = os.path.join(self.work_dir, "out")
        plan, thetas = os.path.join(out, "plan.json"), \
            os.path.join(out, "thetas.json")
        counts, report = os.path.join(out, "counts"), \
            os.path.join(out, "report.json")
        cfg = self.config_path
        os.makedirs(out, exist_ok=True)
        times = {}
        start = time.perf_counter()
        times["plan_s"], text = _cli(
            main, ["plan", "--config", cfg, "--output", plan])
        times["optimize_s"], _ = _cli(
            main, ["optimize", "--config", cfg, "--output", thetas])
        times["run_s"], _ = _cli(
            main, ["run", "--config", cfg, "--plan", plan, "--thetas", thetas,
                   "--output-dir", counts])
        times["analyze_s"], _ = _cli(
            main, ["analyze", "--config", cfg, "--archive", counts,
                   "--output", report, "--csv",
                   os.path.join(out, "ablation.csv")])
        times["wall_s"] = time.perf_counter() - start

        fci, n_elements = REFERENCE[self.name, self.tiny]
        _check_coverage(plan, n_elements)
        with open(report, "rb") as fh:
            raw = fh.read()
        rep = json.loads(raw)
        _check(abs(rep["fci"] - fci) <= FCI_TOLERANCE,
               f"report FCI {rep['fci']!r} differs from {fci!r}")
        est = rep["estimate"]
        _check(est["e_l"] <= est["h_expect"],
               f"E_L {est['e_l']!r} lies above <H> {est['h_expect']!r}")
        if self._report is None:
            self._report = raw
        _check(raw == self._report,
               "report.json differs from the first same-seed report")
        archive = sum(os.path.getsize(os.path.join(counts, f))
                      for f in os.listdir(counts))
        return {**times, **_plan_figures(text),
                "e_l_error_mha": abs(rep["e_l_error"]) * 1e3,
                "archive_bytes": archive}
