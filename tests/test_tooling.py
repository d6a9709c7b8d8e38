"""Checks on what the benchmark harness relies on: the names its tracer
wraps, and an import path free of scipy."""
import importlib
import importlib.util
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    code = ("import sys, qcmoments.cli; print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
