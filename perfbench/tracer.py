"""In-memory spans around calls into the qcmoments layers.

A traced benchmark repetition replaces every binding of each target function
in all loaded ``qcmoments.*`` module namespaces (``cli`` imports names
directly, so patching the defining module alone would miss its calls) and
restores the originals afterwards. Each call records a span
``(name, start, end, parent, run_id)``; spans stay in memory until the run
writes them out. Functions called millions of times (``planner.product_value``,
``mitigation._flip_bit``, ``RDM.get``) are deliberately not targets: their cost
shows in the caller's self time.
"""
import functools
import importlib
import json
import sys
import time


def _qrem_counts(args, kwargs, result):
    return {"outcomes_in": len(args[0].counts), "outcomes_out": len(result)}


def _clip_counts(args, kwargs, result):
    return {"clipped_mass": -sum(v for v in args[0].values() if v < 0.0)}


def _postselect_counts(args, kwargs, result):
    return {"acceptance_sum": result[1]}


def _powers_counts(args, kwargs, result):
    return {"terms": sum(len(p) for p in result)}


def _dumps_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _route_counts(args, kwargs, result):
    return {"certified": int(result.certified), "depth_sum": result.depth}


def _run_counts(args, kwargs, result):
    gates = len(args[0].gates)
    return {"gates": gates, "amplitude_updates": gates << args[0].n_qubits}


def _sample_counts(args, kwargs, result):
    return {"shots": result.shots, "outcomes": len(result.counts)}


def _bootstrap_counts(args, kwargs, result):
    return {"resamples": result.resamples, "failures": result.failures}


# Spans recorded by the traced run, with an optional counter hook that maps
# (args, kwargs, result) of one call to counter increments.
TARGETS = {
    "cli.cmd_plan": None,
    "cli.cmd_optimize": None,
    "cli.cmd_run": None,
    "cli.cmd_analyze": None,
    "integrals.load_fcidump": None,
    "integrals.spin_orbital_hamiltonian": None,
    "fermion.multiply": None,
    "fermion.jordan_wigner": None,
    "fermion.PauliOperator.to_matrix": None,
    "fermion.expectation_from_rdm": None,
    "rdm.RDM.contract": None,
    "simulator.operator_matrix_in_sector": None,
    "simulator.run": _run_counts,
    "simulator.sample": _sample_counts,
    "simulator.exact_diagonalize": None,
    "trial.exact_trial_state": None,
    "trial.spsa_minimize": None,   # evaluations counted by _count_objective
    "planner.enumerate_elements": None,
    "planner.build_plan": None,
    "planner.group_level1": None,
    "planner.group_level2": None,
    "planner.decompose_element": None,
    "planner.build_measurement_circuit": None,
    "planner.MeasurementPlan.dumps": _dumps_counts,
    "planner.MeasurementPlan.loads": None,
    "routing.route_pairs": _route_counts,
    "mitigation.apply_qrem": _qrem_counts,
    "mitigation.assemble_rdm": None,
    "mitigation.clip_to_physical": _clip_counts,
    "mitigation.symmetry_postselect": _postselect_counts,
    "mitigation.rescale_rdm": None,
    "mitigation.mixed_state_value": None,
    "mitigation.check_representability": None,
    "qcm.hamiltonian_powers": _powers_counts,
    "qcm.moments_from_rdm": None,
    "qcm.lanczos_energy": None,
    "qcm.bootstrap": _bootstrap_counts,
}

# The stage spans run once per command, so their call count carries nothing.
STAGE_SPANS = ("cli.cmd_plan", "cli.cmd_optimize", "cli.cmd_run",
               "cli.cmd_analyze")


class Tracer:
    """Records spans and counters while installed; restores on uninstall."""

    def __init__(self):
        self.spans = []            # (name, start, end, parent index, run id)
        self.counters = {}         # (span name, counter) -> total
        self.run_id = 0
        self._stack = []
        self._restore = []

    def _wrap(self, name, func, hook):
        spans, stack, counters = self.spans, self._stack, self.counters
        counts_objective = name == "trial.spsa_minimize"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if counts_objective:
                args = (self._count_objective(args[0]),) + args[1:]
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if hook is not None:
                for key, inc in hook(args, kwargs, result).items():
                    counters[name, key] = counters.get((name, key), 0) + inc
            return result

        return traced

    def _count_objective(self, objective):
        key = ("trial.spsa_minimize", "evaluations")

        def counted(theta):
            self.counters[key] = self.counters.get(key, 0) + 1
            return objective(theta)

        return counted

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qcmoments" or n.startswith("qcmoments.")]
        for name, hook in TARGETS.items():
            parts = name.split(".")
            owner = importlib.import_module("qcmoments." + parts[0])
            if len(parts) == 3:
                cls = getattr(owner, parts[1])
                raw = cls.__dict__[parts[2]]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    new = self._wrap(name, raw, hook)
                setattr(cls, parts[2], new)
                self._restore.append((cls, parts[2], raw))
                continue
            func = getattr(owner, parts[1])
            traced = self._wrap(name, func, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, traced)
                        self._restore.append((module, attr, func))

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as JSON lines: name, start, end, parent, run."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_busy(self, modules) -> float:
        """Busy time of the union of the given modules' spans: the spans of
        those modules that have no ancestor among them."""
        def member(span_name):
            return span_name.split(".")[0] in modules

        total = 0.0
        for name, start, end, parent, _ in self.spans:
            if not member(name):
                continue
            while parent >= 0 and not member(self.spans[parent][0]):
                parent = self.spans[parent][3]
            if parent < 0:
                total += end - start
        return total

    def per_span(self):
        """name -> {calls, busy_s, self_s} summed over all recorded runs."""
        stats = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                 for name in TARGETS}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            s = stats[name]
            s["calls"] += 1
            s["self_s"] += end - start - child[i]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:      # outermost call of this name on the stack
                s["busy_s"] += end - start
        return stats
