"""Checks on what the benchmark harness and the test runner rely on: the
names the tracer wraps, an import and a pipeline free of scipy, a test
path that holds src/, modules that import only what they use, and the
pinned set of values a user can set."""
import argparse
import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

from qcmoments import cli, config
from qcmoments.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load_perfbench("tracer")


def _resolve(name):
    """The object a tracer target name ("module.function" or
    "module.Class.method") names in qcmoments."""
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"qcmoments.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_tracer_targets_resolve():
    # a moved or renamed function would silently drop out of traced runs
    tracer = _load_tracer()
    for name in tracer.TARGETS:
        assert callable(_resolve(name)), name
    with tracer.Tracer():
        for name in tracer.TARGETS:
            assert hasattr(_resolve(name), "__wrapped__"), name


def test_traced_pipeline_feeds_the_benchmark_hooks(tmp_path):
    # the counter hooks read what `run` and `sample` return, so a changed
    # return type fails here rather than only in the benchmark's self-test
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema": 1,
        "integrals": str(ROOT / "tests" / "data" / "h2_stretched.fcidump"),
        "order": 2,
        "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
        "shots": 2000,
        "noise": {"global_q": 0.1, "p01": 0.03, "p10": 0.05},
        "bootstrap": {"enabled": True, "resamples": 2},
        "spsa": {"iterations": 0, "seeds": 1},
        "output_dir": str(tmp_path / "out"),
        "master_seed": 3,
    }))
    with _load_tracer().Tracer() as tracer:
        assert main(["pipeline", "--config", str(cfg)]) == 0
    stats = tracer.per_span()
    for name, counter in (("simulator.run", "gates"),
                          ("simulator.sample", "shots"),
                          ("qcm.bootstrap", "resamples")):
        assert stats[name]["calls"] > 0, name
        assert tracer.counters[name, counter] > 0, name


def test_benchmark_workloads_pass_their_checks(tmp_path):
    # each workload's output checks (plan coverage, plan figures, FCI,
    # report) at its tiny size, so that a change to an output format fails
    # here rather than only in the benchmark's self-test
    workloads = _load_perfbench("workloads")
    names = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert names
    for name in names:
        workload = workloads.Workload(name, 3, str(ROOT / "tests" / "data"),
                                      str(tmp_path / name), tiny=True)
        workload.write_config()
        figures = workload.run_once(main)
        assert figures["measurement_bases"] > 0, name


PRINT_SCIPY_MODULES = ("print(sorted(m for m in sys.modules "
                       "if m == 'scipy' or m.startswith('scipy.')))")


def _python_with_src(code, *args):
    """Stdout of a fresh interpreter that runs `code` with src/ on its
    path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          check=True, capture_output=True, text=True).stdout


def test_cli_import_loads_no_scipy():
    out = _python_with_src("import sys, qcmoments.cli; "
                           + PRINT_SCIPY_MODULES)
    assert out.strip() == "[]"


def test_pipeline_with_spsa_loads_no_scipy(tmp_path):
    # SPSA and its polish run only when the config asks for iterations
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "schema": 1,
        "integrals": str(ROOT / "tests" / "data" / "h2_stretched.fcidump"),
        "order": 2,
        "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
        "shots": 2000,
        "noise": {"global_q": 0.0, "p01": 0.0, "p10": 0.0},
        "bootstrap": {"enabled": True, "resamples": 2},
        "spsa": {"iterations": 2, "seeds": 1},
        "output_dir": str(tmp_path / "out"),
        "master_seed": 3,
    }))
    out = _python_with_src(
        "import sys; from qcmoments.cli import main; "
        "rc = main(['pipeline', '--config', sys.argv[1]]); print(rc); "
        + PRINT_SCIPY_MODULES, str(cfg))
    assert out.splitlines()[-2:] == ["0", "[]"]


# every value a user can set: each subcommand's flags, and the config keys
# (top level, nested objects, excitations). Adding or removing an option
# changes this pin in the same change.
SETTABLE_VALUES = {
    "plan": {"--config", "--modes", "--order", "--output"},
    "optimize": {"--config", "--output"},
    "run": {"--config", "--plan", "--thetas", "--output-dir"},
    "analyze": {"--config", "--archive", "--output", "--csv"},
    "fci": {"--config", "--output"},
    "pipeline": {"--config"},
    "config": {"schema", "integrals", "excitations", "shots", "order",
               "frozen_occupied", "frozen_virtual", "noise", "mitigation",
               "bootstrap", "spsa", "output_dir", "master_seed"},
    "config noise": {"global_q", "p01", "p10", "cnot_q"},
    "config mitigation": {"qrem", "clip", "postselect", "rescale",
                          "calibrate"},
    "config bootstrap": {"enabled", "resamples"},
    "config spsa": {"iterations", "seeds"},
    "config excitations": {"creations", "annihilations", "theta"},
}


def test_settable_values_are_pinned():
    subcommands = next(action for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    found = {name: {flag for action in parser._actions
                    if not isinstance(action, argparse._HelpAction)
                    for flag in action.option_strings}
             for name, parser in subcommands.choices.items()}
    found["config"] = set(config._TOP_KEYS)
    found.update((f"config {key}", set(defaults))
                 for key, defaults in config._DEFAULTS.items())
    found["config excitations"] = set(config._EXCITATION_KEYS)
    assert found == SETTABLE_VALUES
    assert sum(map(len, found.values())) == 46


def _unused_imports(source):
    """Names that `source` imports at any depth but never references as a
    name or as the root of an attribute; ``__future__`` imports aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan_sees_names_and_attribute_roots():
    assert _unused_imports(
        "from __future__ import annotations\nimport os.path\n"
        "import numpy as np\nfrom typing import Iterable\n"
        "from .a import b, c\ndef f():\n    import json\n"
        "    return np.zeros(b)\n") == [
            (2, "os"), (4, "Iterable"), (5, "c"), (7, "json")]


def test_src_modules_use_every_name_they_import():
    # __init__.py re-exports, so only the other modules are scanned
    paths = sorted((ROOT / "src" / "qcmoments").glob("*.py"))
    assert len(paths) > 1
    unused = {path.name: _unused_imports(path.read_text())
              for path in paths if path.name != "__init__.py"}
    assert {k: v for k, v in unused.items() if v} == {}


def test_bare_pytest_finds_the_package():
    # pyproject.toml puts src/ on the test path, so `python -m pytest`
    # needs no PYTHONPATH
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", "tests/test_simulator.py"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _orphans(sources):
    """(module, qualified name) of each function, class or method that the
    modules in `sources` (module name -> source) define and whose name no
    code in `sources` references, as a name, an attribute or an import;
    a dunder method aside. Only modules whose name starts with
    ``qcmoments.`` are checked for definitions."""
    defs, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        scopes = [(tree, "")]
        while scopes:
            node, prefix = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    defs.append((module, prefix + child.name, child.name))
                    if isinstance(child, ast.ClassDef):
                        scopes.append((child, f"{prefix}{child.name}."))
                        continue
                scopes.append((child, prefix))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.asname or node.name)
    return sorted((module, qualname) for module, qualname, name in defs
                  if module.startswith("qcmoments.") and name not in used
                  and not name.startswith("__"))


def test_orphan_scan_sees_calls_attributes_and_imports():
    sources = {
        "qcmoments.a": "def f():\n    return g()\ndef g():\n    pass\n"
                       "class C:\n    def m(self):\n        pass\n"
                       "    def n(self):\n        pass\n"
                       "    def __len__(self):\n        return 0\n"
                       "def h():\n    pass\ndef k():\n    pass\n",
        "qcmoments.b": "from .a import h\nC().m()\n",
        "make": "import qcmoments.a\nqcmoments.a.f()\n",
    }
    assert _orphans(sources) == [("qcmoments.a", "C.n"), ("qcmoments.a", "k")]


#: the definitions of src/ that only the tests and the benchmark tracer's
#: wrapping name: moving an oracle to tests/ or a dict path out of src/
#: shrinks this set, and a definition that loses its last caller joins it
TRACER_ONLY = {
    "fermion.PauliOperator.to_matrix", "fermion.jordan_wigner",
    "mitigation.apply_qrem", "mitigation.assemble_rdm",
    "mitigation.clip_to_physical", "mitigation.mixed_state_value",
    "mitigation.rescale_rdm", "mitigation.symmetry_postselect",
    "qcm.hamiltonian_powers", "qcm.moments_from_rdm",
    "trial.exact_trial_state",
}


def test_src_defines_nothing_that_nothing_names():
    # a function, class or method of src/ must be named elsewhere in src/
    # or scripts/, or be one of TRACER_ONLY, each a benchmark tracer
    # target. The scan matches names, not bindings, so it misses a
    # definition whose name another one shares and uses (as a method
    # `depth` would be kept alive by `Schedule.depth`), and a function that
    # only calls itself
    paths = sorted((ROOT / "src" / "qcmoments").glob("*.py")) + \
        sorted((ROOT / "scripts").glob("*.py"))
    sources = {(f"qcmoments.{p.stem}" if p.parent.name == "qcmoments"
                else p.stem): p.read_text() for p in paths}
    assert {f"{module.removeprefix('qcmoments.')}.{qualname}"
            for module, qualname in _orphans(sources)} == TRACER_ONLY
    assert TRACER_ONLY <= set(_load_tracer().TARGETS)
