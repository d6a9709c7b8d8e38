"""Pipeline configuration: a versioned, validated JSON document.

A single master seed drives every random choice in the pipeline; each
component derives its own stream through a declared rule (component tag plus
index fed into a SeedSequence), so runs are bit-reproducible and components
are statistically independent.
"""
from __future__ import annotations

import json
import os
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
          "string": str}


def _require(cond, message):
    if not cond:
        raise ConfigError(message)


def _typed(value, kind: str, name: str, low=None):
    """`value` if it is a JSON `kind` and at least `low`; else ConfigError.
    JSON has no NaN or infinity, so a number must be a finite float."""
    _require(isinstance(value, _KINDS[kind])
             and (kind == "boolean") == isinstance(value, bool)
             and (kind != "number" or abs(value) <= sys.float_info.max),
             f"{name} must be a JSON {kind}, not {value!r}")
    _require(low is None or value >= low, f"{name} must be >= {low}")
    return value


def _theta(value, name: str):
    """`value` if it is a JSON number whose rotation angle 2*theta is
    finite; else ConfigError."""
    _require(abs(2.0 * _typed(value, "number", name)) <= sys.float_info.max,
             f"{name} must have a finite rotation angle 2*theta, not "
             f"{value!r}")
    return value


def validate_config(obj: dict, base_dir: str = ".") -> PipelineConfig:
    """Schema-check a parsed config document and resolve its file paths."""
    _require(isinstance(obj, dict), "config must be a JSON object")
    unknown = set(obj) - _TOP_KEYS
    _require(not unknown, f"unknown config keys: {sorted(unknown)}")
    schema = obj.get("schema")
    _require(type(schema) is int and schema == SCHEMA_VERSION,
             f"config schema must be {SCHEMA_VERSION}, got {schema!r}")
    _require("integrals" in obj, "config requires an 'integrals' path")
    integrals = _typed(obj["integrals"], "string", "integrals")
    if not os.path.isabs(integrals):
        integrals = os.path.join(base_dir, integrals)
    _require(os.path.exists(integrals),
             f"integrals file does not exist: {integrals}")

    excitations = obj.get("excitations", [])
    _require(isinstance(excitations, list), "'excitations' must be a list")
    for i, exc in enumerate(excitations):
        _require(isinstance(exc, dict)
                 and set(exc) <= _EXCITATION_KEYS
                 and all(isinstance(exc.get(k), list) and len(exc[k]) == 2
                         for k in ("creations", "annihilations")),
                 f"excitation {i} must give two creations and two "
                 "annihilations")
        for m in exc["creations"] + exc["annihilations"]:
            _typed(m, "integer", f"excitation {i} mode index", 0)
        _theta(exc.setdefault("theta", 0.0), f"excitation {i} theta")

    def merged(key, kinds):
        sub = dict(_DEFAULTS[key])
        given = obj.get(key, {})
        _require(isinstance(given, dict), f"'{key}' must be an object")
        bad = set(given) - set(sub)
        _require(not bad, f"unknown keys in '{key}': {sorted(bad)}")
        sub.update(given)
        for k, (kind, low) in kinds.items():
            _typed(sub[k], kind, f"{key} {k}", low)
        return sub

    # (JSON kind, lower bound) of the checked keys of each nested object
    number, flag = ("number", None), ("boolean", None)
    noise = merged("noise", dict.fromkeys(("global_q", "p01", "p10"), number))
    _require(0.0 <= noise["global_q"] <= 1.0, "global_q outside [0, 1]")
    _require(0.0 <= noise["p01"] < 0.5 and 0.0 <= noise["p10"] < 0.5,
             "readout flip rates must lie in [0, 0.5)")
    _require(noise["cnot_q"] is None or 0.0 <= _typed(
        noise["cnot_q"], "number", "noise cnot_q") <= 1.0,
        "cnot_q outside [0, 1]")
    mitigation = merged("mitigation",
                        dict.fromkeys(_DEFAULTS["mitigation"], flag))
    _require(not (mitigation["calibrate"] and not mitigation["postselect"]),
             "reference calibration requires symmetry post-selection (the "
             "white-noise model is fitted within the post-selected sector)")
    bootstrap = merged("bootstrap",
                       {"enabled": flag, "resamples": ("integer", 2)})
    spsa = merged("spsa",
                  {"iterations": ("integer", 0), "seeds": ("integer", 1)})

    shots = _typed(obj.get("shots", 100_000), "integer", "shots", 1)
    order = _typed(obj.get("order", 2), "integer", "order")
    _require(order in (1, 2, 3, 4), "order must be 1..4")
    frozen = {}
    for key in ("frozen_occupied", "frozen_virtual"):
        orbitals = obj.get(key, [])
        _require(isinstance(orbitals, list), f"'{key}' must be a list")
        frozen[key] = sorted(_typed(p, "integer", f"{key} entry", 0)
                             for p in orbitals)
        _require(len(set(frozen[key])) == len(orbitals),
                 f"'{key}' lists an orbital more than once: {orbitals}")
    output_dir = _typed(obj.get("output_dir", "out"), "string", "output_dir")

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
        master_seed=_typed(obj.get("master_seed", 0), "integer",
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
