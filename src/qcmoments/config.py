"""Pipeline configuration: a versioned, validated JSON document.

A single master seed drives every random choice in the pipeline; each
component derives its own stream through a declared rule (component tag plus
index fed into a SeedSequence), so runs are bit-reproducible and components
are statistically independent.
"""
from __future__ import annotations

import itertools
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

SCHEMA_VERSION = 1

# component tags for seed derivation; fixed numbering is part of the
# reproducibility contract
COMPONENT_TAGS = {
    "optimize": 1,
    "sample-trial": 2,
    "sample-reference": 3,
    "calibration": 4,
    "bootstrap": 5,
}


class ConfigError(Exception):
    """Invalid or inconsistent pipeline configuration."""


def derive_seed(master_seed: int, component: str, index: int = 0) -> int:
    """Per-component, per-index seed from the master seed."""
    if component not in COMPONENT_TAGS:
        raise ConfigError(f"unknown seed component {component!r}")
    ss = np.random.SeedSequence(
        [int(master_seed), COMPONENT_TAGS[component], int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass
class PipelineConfig:
    integrals: str
    excitations: list                      # [{creations, annihilations, theta}]
    shots: int
    order: int
    frozen_occupied: list
    frozen_virtual: list
    noise: dict
    mitigation: dict
    bootstrap: dict
    spsa: dict
    output_dir: str
    master_seed: int

    def to_json(self) -> dict:
        return {"schema": SCHEMA_VERSION, **asdict(self)}


_TOP_KEYS = {f.name for f in fields(PipelineConfig)} | {"schema"}
_EXCITATION_KEYS = {"creations", "annihilations", "theta"}
# defaults of the nested config objects; their keys are the allowed keys
_DEFAULTS = {
    "noise": {"global_q": 0.0, "p01": 0.0, "p10": 0.0, "cnot_q": None},
    "mitigation": dict.fromkeys(
        ("qrem", "clip", "postselect", "rescale", "calibrate"), True),
    "bootstrap": {"enabled": True, "resamples": 500},
    "spsa": {"iterations": 150, "seeds": 5},
}


# JSON kinds of config values -> the Python types json.load gives them; a
# bool is an int to Python, so it is refused apart for the other kinds
_KINDS = {"integer": int, "number": (int, float), "boolean": bool,
          "string": str, "array": list, "object": dict}
INT64_MAX = 2 ** 63 - 1  # the most counts numpy's int64 sampling can hold


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def typed(value, kind: str, name: str, low=None, high=None):
    """`value` if it is a JSON `kind` in [low, high] (None: unbounded),
    else ConfigError naming `name`: the one rule for the integers of config,
    plan and manifest. A bool is no integer, and a number is finite."""
    if not (isinstance(value, _KINDS[kind])
            and (kind == "boolean") == isinstance(value, bool)
            and (kind != "number" or abs(value) <= sys.float_info.max)):
        raise ConfigError(f"{name} must be a JSON {kind}, not {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"{name} must be >= {low}, not {value!r}")
    if high is not None and value > high:
        raise ConfigError(f"{name} must be <= {high}, not {value!r}")
    return value


def typed_at(doc, path, low=None, high=None, kind="integer", root=""):
    """The values at `path` in the JSON `doc` (keys, entries ``[i]`` and
    ``[*]`` for all, as in ``level1[*].schedule.n_qubits``), as :func:`typed`
    checks them in one pass; only if it fails are they named, `root` + path."""
    steps = [(m[0], m[1] or (None if m[2] == "*" else int(m[2])))
             for m in re.finditer(r"\.?(\w+)|\[(\*|\d+)\]", path)]
    values = [doc]
    for _, step in steps:
        if step is not None:
            values = [v[step] for v in values]
        elif set(map(type, values)) <= {list}:
            values = list(itertools.chain.from_iterable(values))
        else:
            break
    else:
        if set(map(type, values)) <= {_KINDS[kind]} and (not values or (
                (low is None or min(values) >= low)
                and (high is None or max(values) <= high))):
            return values
    named = [(root, doc)]
    for text, step in steps:
        named = [(f"{name}[{i}]", x) for name, v in named
                 for i, x in enumerate(typed(v, "array", name))] \
            if step is None else [(name + text, v[step]) for name, v in named]
    return [typed(v, kind, name, low, high) for name, v in named]


def _theta(value, name: str):
    """`value` if it is a JSON number whose rotation angle 2*theta is
    finite; else ConfigError."""
    _require(abs(2.0 * typed(value, "number", name)) <= sys.float_info.max,
             f"{name} must have a finite rotation angle 2*theta, not "
             f"{value!r}")
    return value


def validate_config(obj: dict, base_dir: str = ".") -> PipelineConfig:
    """Schema-check a parsed config document and resolve its file paths."""
    typed(obj, "object", "config")
    unknown = set(obj) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    schema = typed(obj.get("schema"), "integer", "config schema")
    _require(schema == SCHEMA_VERSION,
             f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
    _require("integrals" in obj, "config requires an 'integrals' path")
    integrals = typed(obj["integrals"], "string", "integrals")
    if not os.path.isabs(integrals):
        integrals = os.path.join(base_dir, integrals)
    _require(os.path.exists(integrals),
             f"integrals file does not exist: {integrals}")

    excitations = typed(obj.get("excitations", []), "array", "excitations")
    for i, exc in enumerate(excitations):
        _require(isinstance(exc, dict)
                 and set(exc) <= _EXCITATION_KEYS
                 and all(isinstance(exc.get(k), list) and len(exc[k]) == 2
                         for k in ("creations", "annihilations")),
                 f"excitation {i} must give two creations and two "
                 "annihilations")
        for m in exc["creations"] + exc["annihilations"]:
            typed(m, "integer", f"excitation {i} mode index", 0)
        _theta(exc.setdefault("theta", 0.0), f"excitation {i} theta")

    def merged(key, kinds):
        sub = dict(_DEFAULTS[key])
        given = typed(obj.get(key, {}), "object", key)
        bad = set(given) - set(sub)
        _require(not bad, f"unknown keys in '{key}': {sorted(bad)}")
        sub.update(given)
        for k, (kind, *bounds) in kinds.items():
            typed(sub[k], kind, f"{key} {k}", *bounds)
        return sub

    # (JSON kind, bounds) of the checked keys of each nested object
    number, flag = ("number",), ("boolean",)
    noise = merged("noise", dict.fromkeys(("global_q", "p01", "p10"), number))
    _require(0.0 <= noise["global_q"] <= 1.0, "global_q outside [0, 1]")
    _require(0.0 <= noise["p01"] < 0.5 and 0.0 <= noise["p10"] < 0.5,
             "readout flip rates must lie in [0, 0.5)")
    if noise["cnot_q"] is not None:
        typed(noise["cnot_q"], "number", "noise cnot_q", 0.0, 1.0)
    mitigation = merged("mitigation",
                        dict.fromkeys(_DEFAULTS["mitigation"], flag))
    _require(not (mitigation["calibrate"] and not mitigation["postselect"]),
             "reference calibration requires symmetry post-selection (the "
             "white-noise model is fitted within the post-selected sector)")
    bootstrap = merged("bootstrap",
                       {"enabled": flag,
                        "resamples": ("integer", 2, INT64_MAX)})
    spsa = merged("spsa",
                  {"iterations": ("integer", 0), "seeds": ("integer", 1)})

    shots = typed(obj.get("shots", 100_000), "integer", "shots", 1, INT64_MAX)
    order = typed(obj.get("order", 2), "integer", "order", 1, 4)
    frozen = {}
    for key in ("frozen_occupied", "frozen_virtual"):
        frozen[key] = sorted(typed_at(obj.setdefault(key, []), "[*]", 0,
                                      root=key))
        _require(len(set(frozen[key])) == len(frozen[key]),
                 f"'{key}' lists an orbital more than once: {obj[key]}")
    output_dir = typed(obj.get("output_dir", "out"), "string", "output_dir")

    return PipelineConfig(
        integrals=integrals,
        excitations=excitations,
        shots=shots,
        order=order,
        noise=noise,
        mitigation=mitigation,
        bootstrap=bootstrap,
        spsa=spsa,
        output_dir=os.path.join(base_dir, output_dir),
        master_seed=typed(obj.get("master_seed", 0), "integer",
                          "master_seed", 0),
        **frozen,
    )


def load_config(path) -> PipelineConfig:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(obj, base_dir=os.path.dirname(os.path.abspath(path)))
