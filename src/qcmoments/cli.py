"""Configuration-driven pipeline runner.

Subcommands cover the full experiment life cycle: ``plan`` (measurement
bases), ``optimize`` (trial amplitudes), ``run`` (noisy sampling into a
counts archive), ``analyze`` (``report.json``, as
``analysis.Analyzer.report`` builds it, and the ablation CSV), ``fci``
(exact reference), and ``pipeline`` (all of the above). The commands read
their inputs, call into the library and write its results, all or none,
through one staged writer. ``config.typed`` checks every JSON integer, and
``analysis.measurement_circuits`` the plan of both ``run`` and
``analyze``. Every random choice derives from the config's
master seed, so a repeated run is bit-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import sys

import numpy as np

from .analysis import (
    Analyzer, check_archive_config, load_archive, measurement_circuits,
    parse_plan, read_bytes, sample_counts, system_identity, write_archive,
)
from .config import ConfigError, PipelineConfig, _theta, derive_seed, \
    load_config, typed
from .conventions import interleaved_spins, sz_of
from .integrals import (
    freeze_orbitals, load_fcidump, spin_orbital_hamiltonian,
)
from .planner import build_plan, enumerate_elements
from .simulator import exact_diagonalize
from .trial import Ansatz, Excitation, build_uccd, energy_objective, \
    spsa_minimize


# ---------------------------------------------------------------------------
# shared system construction


def _load_system(cfg: PipelineConfig):
    """Integrals (frozen), Hamiltonian, ansatz, and spin labels."""
    try:
        ints = freeze_orbitals(load_fcidump(cfg.integrals),
                               cfg.frozen_occupied, cfg.frozen_virtual)
    except (ValueError, OSError) as exc:
        raise ConfigError(f"cannot use integrals {cfg.integrals}: {exc}") \
            from exc
    n = ints.n_spin_orbitals
    ne = ints.n_electrons
    if cfg.order != ne:
        raise ConfigError(f"order {cfg.order} cannot give exact moments: "
                          f"the {ne}-electron system needs order {ne}")
    h = spin_orbital_hamiltonian(ints)
    spins = interleaved_spins(n)
    try:
        excitations = [Excitation(tuple(e["creations"]),
                                  tuple(e["annihilations"]),
                                  float(e["theta"]))
                       for e in cfg.excitations]
        ansatz = Ansatz(n, (1 << ne) - 1, excitations, spins=spins)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"invalid excitation for {n} modes: {exc}") \
            from exc
    return ints, h, ansatz


@contextlib.contextmanager
def _writing(path):
    """Turn an OSError raised while writing `path` into a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()


def _write_outputs(blobs: dict):
    """Write each output path's bytes in `blobs`, all or none: every file
    goes to a temporary file beside its path, and only once all are written
    are they renamed into place, in the order given. An OSError is a
    ConfigError naming the output; the temporary files are then removed."""
    staged = []
    try:
        for path, data in blobs.items():
            with _writing(path), open(f"{path}.tmp", "wb") as fh:
                staged.append(path)
                fh.write(data)
        for path in staged:
            with _writing(path):
                os.replace(f"{path}.tmp", path)
    except BaseException:
        for path in staged:
            with contextlib.suppress(OSError):
                os.remove(f"{path}.tmp")
        raise


# ---------------------------------------------------------------------------
# plan


def cmd_plan(args) -> int:
    if (args.config is None) == (args.modes is None):
        raise ConfigError("plan needs exactly one of --config/--modes")
    if args.config is not None:
        if args.order is not None:
            raise ConfigError("plan takes --order only with --modes; a "
                              "config gives its own order")
        cfg = load_config(args.config)
        ints, _, ansatz = _load_system(cfg)
        n, order = ints.n_spin_orbitals, cfg.order
        layout = build_uccd(ansatz).layout
    else:
        n = typed(args.modes, "integer", "plan --modes", 1)
        order = typed(2 if args.order is None else args.order, "integer",
                      "plan --order", 1, min(4, n))
        layout = tuple(range(n))
    spins = interleaved_spins(n)
    elements = enumerate_elements(n, order, spins=spins)
    plan = build_plan(elements, spins, layout=layout)
    _write_outputs({args.output: plan.dumps().encode()})
    print(json.dumps({
        "n_modes": n, "order": order, "elements": len(elements),
        "level1_bases": len(plan.level1), "concrete_bases": len(plan.bases),
        "max_schedule_depth": max((b.schedule.depth for b in plan.level1),
                                  default=0),
        "layout": list(layout)}, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# optimize


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    if not cfg.excitations:
        raise ConfigError("optimize requires at least one excitation")
    _, h, ansatz = _load_system(cfg)
    objective = energy_objective(ansatz, h)
    theta0 = ansatz.thetas
    n_seeds, iters = cfg.spsa["seeds"], cfg.spsa["iterations"]
    if iters == 0:
        best, traces = theta0, [[objective(theta0)]] * n_seeds
    else:
        seeds = [derive_seed(cfg.master_seed, "optimize", i)
                 for i in range(n_seeds)]
        best, traces = spsa_minimize(objective, theta0, seeds, iters)
    energy = objective(best)
    _write_outputs({args.output: _json_bytes({
        "thetas": [float(t) for t in best],
        "energy": energy,
        "traces": [[float(v) for v in tr] for tr in traces],
    })})
    print(f"optimized energy {energy:.10f}")
    return 0


# ---------------------------------------------------------------------------
# run


def _read_thetas(path, n_excitations: int) -> list:
    """The amplitudes of a thetas file, one JSON number per excitation,
    each with a finite rotation angle; ConfigError on any fault."""
    data = read_bytes(path, "thetas file")
    try:
        thetas = json.loads(data)["thetas"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"thetas file {path} is malformed: {exc!r}") \
            from exc
    if not isinstance(thetas, list) or len(thetas) != n_excitations:
        raise ConfigError(
            f"thetas file {path} must hold {n_excitations} finite thetas, "
            f"one per excitation, not {thetas}")
    return [float(_theta(t, f"thetas file {path} entry {i}"))
            for i, t in enumerate(thetas)]


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    ints, _, ansatz = _load_system(cfg)
    n, ne = ints.n_spin_orbitals, ints.n_electrons
    plan_bytes = read_bytes(args.plan, "plan file")
    plan = parse_plan(plan_bytes, f"plan file {args.plan}")
    thetas = _read_thetas(args.thetas, len(ansatz.excitations))
    built = [build_uccd(ansatz.with_thetas(thetas)),
             build_uccd(ansatz.with_thetas([0.0] * len(thetas)))]
    # the amplitudes do not move the qubits, so both states end in the
    # trial layout and share the measurement circuits
    circuits = measurement_circuits(plan, n, cfg.order, built[0].layout,
                                    f"plan file {args.plan}")
    counts = sample_counts(cfg, [b.circuit for b in built], plan.bases,
                           circuits)
    total = int(counts.sum())
    files = write_archive(plan_bytes, counts, {
        "n_qubits": n,
        "n_electrons": ne,
        "n_bases": len(plan.bases),
        "shots_per_basis": cfg.shots,
        "total_shots": total,
        "layout": list(built[0].layout),
        "thetas": thetas,
        "noise": cfg.noise,
        "master_seed": cfg.master_seed,
        **system_identity(cfg),
    })
    with _writing(args.output_dir):
        os.makedirs(args.output_dir, exist_ok=True)
    # manifest.json comes last, so it is renamed into place last
    _write_outputs({os.path.join(args.output_dir, name): data
                    for name, data in files.items()})
    print(f"archived {total} shots over {counts.shape[0]} circuits "
          f"in {args.output_dir}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    ints, h, _ = _load_system(cfg)
    manifest, plan, counts = load_archive(args.archive)
    circuits = measurement_circuits(
        plan, ints.n_spin_orbitals, cfg.order, manifest["layout"],
        f"archive plan in {args.archive}")
    check_archive_config(manifest, cfg, ints.n_electrons)
    report = Analyzer(cfg, plan, circuits, ints.n_electrons, h).report(counts)
    blobs = {args.output: _json_bytes(report)}
    if args.csv:
        table = io.StringIO()
        writer = csv.DictWriter(table, fieldnames=[
            "technique", "h", "e_l", "h_error", "e_l_error", "failed"])
        writer.writeheader()
        writer.writerows(report["ablation"])
        blobs[args.csv] = table.getvalue().encode()
    _write_outputs(blobs)
    estimate = report["estimate"]
    print(f"<H> = {estimate['h_expect']:.6f}  E_L = {estimate['e_l']:.6f}  "
          f"FCI = {report['fci']:.6f}")
    return 0


# ---------------------------------------------------------------------------
# fci and the combined pipeline


def cmd_fci(args) -> int:
    cfg = load_config(args.config)
    ints, h, _ = _load_system(cfg)
    spins = interleaved_spins(ints.n_spin_orbitals)
    sz = sz_of(range(ints.n_electrons), spins)
    energy, _ = exact_diagonalize(h, ints.n_electrons, sz=sz)
    print(f"{energy:.12f}")
    if args.output:
        _write_outputs({args.output: _json_bytes({
            "fci": energy, "n_electrons": ints.n_electrons, "s_z": sz})})
    return 0


def cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    # refused as the stages would refuse them, but before writing anything
    if not cfg.excitations:
        raise ConfigError("optimize requires at least one excitation")
    _load_system(cfg)
    out = cfg.output_dir
    with _writing(out):
        os.makedirs(out, exist_ok=True)
    ns = argparse.Namespace
    cmd_plan(ns(config=args.config, modes=None, order=None,
                output=os.path.join(out, "plan.json")))
    cmd_optimize(ns(config=args.config,
                    output=os.path.join(out, "thetas.json")))
    cmd_run(ns(config=args.config, plan=os.path.join(out, "plan.json"),
               thetas=os.path.join(out, "thetas.json"),
               output_dir=os.path.join(out, "counts")))
    cmd_analyze(ns(config=args.config, archive=os.path.join(out, "counts"),
                   output=os.path.join(out, "report.json"),
                   csv=os.path.join(out, "ablation.csv")))
    return 0


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcmoments",
        description="moment-based ground-state energy pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="build and route measurement bases")
    p.add_argument("--config", default=None)
    p.add_argument("--modes", type=int, default=None)
    p.add_argument("--order", type=int, default=None)  # 2 with --modes
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("optimize", help="optimize trial amplitudes")
    p.add_argument("--config", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("run", help="sample all bases into a counts archive")
    p.add_argument("--config", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--thetas", required=True)
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("analyze", help="mitigate, estimate energies")
    p.add_argument("--config", required=True)
    p.add_argument("--archive", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fci", help="exact sector ground-state energy")
    p.add_argument("--config", required=True)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fci)

    p = sub.add_parser("pipeline", help="plan, optimize, run, and analyze")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_pipeline)
    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector paused: the
    pipeline makes no reference cycles that grow with the problem, so the
    collector would only rescan its many live objects. The collector is
    left as it was found, however the command ends."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
