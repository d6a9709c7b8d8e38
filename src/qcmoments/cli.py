"""Configuration-driven pipeline runner.

Subcommands cover the full experiment life cycle: ``plan`` (measurement
bases), ``optimize`` (trial amplitudes), ``run`` (noisy sampling into a
counts archive), ``analyze`` (mitigation, moments, energies, bootstrap),
``fci`` (exact reference), and ``pipeline`` (all of the above). Every
random choice derives from the config's master seed, so a repeated run is
bit-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from .analysis import (
    ABLATION_STACKS, Analyzer, check_archive_config, load_archive,
    parse_plan, read_bytes, write_archive,
)
from .config import ConfigError, PipelineConfig, derive_seed, load_config
from .conventions import interleaved_spins, sz_of
from .integrals import (
    freeze_orbitals, load_fcidump, spin_orbital_hamiltonian,
)
from .mitigation import sample_calibration
from .planner import build_measurement_circuit, build_plan, \
    enumerate_elements
from .qcm import EnergyEstimate, bootstrap
from .simulator import NoiseSpec, Statevector, exact_diagonalize, \
    noisy_distribution, run, sample
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


def _noise_spec(cfg: PipelineConfig, n_qubits: int) -> NoiseSpec:
    return NoiseSpec.uniform_readout(
        n_qubits, cfg.noise["p01"], cfg.noise["p10"],
        q=cfg.noise["global_q"], cnot_q=cfg.noise["cnot_q"])


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# plan


def _plan_for(cfg_or_args) -> tuple:
    """Build a MeasurementPlan plus its summary dict."""
    if isinstance(cfg_or_args, PipelineConfig):
        cfg = cfg_or_args
        ints, _, ansatz = _load_system(cfg)
        n, order = ints.n_spin_orbitals, cfg.order
        spins = interleaved_spins(n)
        layout = build_uccd(ansatz).layout
        max_depth = cfg.routing_max_depth
    else:
        n, order = cfg_or_args.modes, cfg_or_args.order
        if n < 1 or not 1 <= order <= min(4, n) or \
                cfg_or_args.ilp_max_depth < 1:
            raise ConfigError(
                f"plan needs --modes >= 1, --order in 1..min(4, modes) and "
                f"--ilp-max-depth >= 1, not {n}, {order} and "
                f"{cfg_or_args.ilp_max_depth}")
        pattern = cfg_or_args.spin_pattern
        if pattern == "interleaved":
            spins = interleaved_spins(n)
        else:
            if len(pattern) != n or set(pattern) - {"u", "d"}:
                raise ConfigError(
                    f"spin pattern must be 'interleaved' or a length-{n} "
                    "string over u/d")
            spins = tuple(pattern)
        layout = tuple(range(n))
        max_depth = cfg_or_args.ilp_max_depth
    elements = enumerate_elements(n, order, spins=spins)
    plan = build_plan(elements, spins, max_depth=max_depth, layout=layout)
    max_sched = max((b.schedule.depth for b in plan.level1 if b.schedule),
                    default=0)
    summary = {
        "n_modes": n,
        "order": order,
        "elements": len(elements),
        "level1_bases": len(plan.level1),
        "concrete_bases": len(plan.bases),
        "max_schedule_depth": max_sched,
        "layout": list(layout),
    }
    return plan, summary


def cmd_plan(args) -> int:
    source = load_config(args.config) if args.config else args
    plan, summary = _plan_for(source)
    with open(args.output, "w") as fh:
        fh.write(plan.dumps())
    print(json.dumps(summary, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# optimize


def cmd_optimize(args) -> int:
    cfg = load_config(args.config)
    _, h, ansatz = _load_system(cfg)
    if not ansatz.excitations:
        raise ConfigError("optimize requires at least one excitation")
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
    _write_json(args.output, {
        "thetas": [float(t) for t in best],
        "energy": energy,
        "traces": [[float(v) for v in tr] for tr in traces],
    })
    print(f"optimized energy {energy:.10f}")
    return 0


# ---------------------------------------------------------------------------
# run


def _check_plan(plan, cfg: PipelineConfig, n: int, source: str):
    """ConfigError naming `source` unless `plan` measures the config's RDM
    order over the interleaved spins of its n modes."""
    orders = sorted({e.order for e in plan.coverage})
    if (plan.n_modes, orders, plan.spins) != \
            (n, [cfg.order], interleaved_spins(n)):
        raise ConfigError(
            f"{source} measures order {orders} over {plan.n_modes} modes "
            f"with spins {''.join(plan.spins)!r}, but the config needs order "
            f"{cfg.order} over {n} interleaved modes")


def _measurement_circuits(plan, layout, source: str) -> list:
    """One measurement circuit per concrete basis of the plan; ConfigError
    naming `source` if the plan's routing does not fit `layout`."""
    try:
        return [build_measurement_circuit(b, layout) for b in plan.bases]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"{source} does not fit its layout "
                          f"{list(layout)}: {exc!r}") from exc


def _read_thetas(path, n_excitations: int) -> list:
    """The finite amplitudes of a thetas file, one per excitation;
    ConfigError on any fault."""
    data = read_bytes(path, "thetas file")
    try:
        thetas = [float(t) for t in json.loads(data)["thetas"]]
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"thetas file {path} is malformed: {exc!r}") \
            from exc
    if len(thetas) != n_excitations or not all(map(math.isfinite, thetas)):
        raise ConfigError(
            f"thetas file {path} must hold {n_excitations} finite thetas, "
            f"one per excitation, not {thetas}")
    return thetas


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    ints, _, ansatz = _load_system(cfg)
    n, ne = ints.n_spin_orbitals, ints.n_electrons
    plan_bytes = read_bytes(args.plan, "plan file")
    plan = parse_plan(plan_bytes, f"plan file {args.plan}")
    _check_plan(plan, cfg, n, f"plan file {args.plan}")
    thetas = _read_thetas(args.thetas, len(ansatz.excitations))
    built = [build_uccd(ansatz.with_thetas(thetas)),
             build_uccd(ansatz.with_thetas([0.0] * len(thetas)))]
    noise = _noise_spec(cfg, n)

    # one row per table, in the order Analyzer reads them: calibration
    # zeros and ones, then the trial and the reference state in every basis
    n_bases = len(plan.bases)
    counts = np.zeros((2 * n_bases + 2, 1 << n), dtype=np.int64)
    counts[:2] = sample_calibration(
        noise, n, cfg.shots,
        [derive_seed(cfg.master_seed, "calibration", row) for row in (0, 1)])
    # the amplitudes do not move the qubits, so both states end in the
    # trial layout and share the measurement circuits
    circuits = _measurement_circuits(plan, built[0].layout,
                                     f"plan file {args.plan}")
    # the states stay pure until sampling, so each is prepared once and each
    # basis applies only its measurement circuit to the stack of both; the
    # noise still counts the CNOTs of the whole circuit
    zero = Statevector.basis_state(0, n)
    prepared = np.array([run(b.circuit, zero).amplitudes for b in built])
    ideal = np.empty((2 * n_bases, 1 << n))
    for i, mc in enumerate(circuits):
        ideal[i::n_bases] = np.abs(run(mc.circuit, prepared)) ** 2
    n_cnots = np.add.outer([b.circuit.cnot_count() for b in built],
                           [mc.circuit.cnot_count() for mc in circuits])
    seeds = [derive_seed(cfg.master_seed, tag, i)
             for tag in ("sample-trial", "sample-reference")
             for i in range(n_bases)]
    for row, (p, seed) in enumerate(
            zip(noisy_distribution(ideal, noise, n_cnots.ravel()), seeds)):
        counts[2 + row] = sample(p, cfg.shots, seed=seed).vector(n)

    total = int(counts.sum())
    write_archive(args.output_dir, plan_bytes, counts, {
        "n_qubits": n,
        "n_electrons": ne,
        "n_bases": n_bases,
        "shots_per_basis": cfg.shots,
        "total_shots": total,
        "layout": list(built[0].layout),
        "thetas": thetas,
        "noise": cfg.noise,
        "master_seed": cfg.master_seed,
    })
    print(f"archived {total} shots over {counts.shape[0]} circuits "
          f"in {args.output_dir}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    ints, h, _ = _load_system(cfg)
    manifest, plan, counts = load_archive(args.archive)
    _check_plan(plan, cfg, ints.n_spin_orbitals,
                f"archive plan in {args.archive}")
    check_archive_config(manifest, cfg, ints.n_electrons)
    circuits = _measurement_circuits(plan, tuple(manifest["layout"]),
                                     f"archive plan in {args.archive}")
    analyzer = Analyzer(cfg, plan, circuits, ints.n_electrons, h)

    e_fci = analyzer.e_fci
    main = analyzer.analyze(counts, diagnostics=True)

    ablation = []
    for name, stack in ABLATION_STACKS:
        try:
            res = analyzer.analyze(counts, mitigation=stack)
            ablation.append({
                "technique": name,
                "h": res["h"], "e_l": res["e_l"],
                "h_error": res["h"] - e_fci,
                "e_l_error": res["e_l"] - e_fci,
            })
        except (ValueError, ArithmeticError) as exc:
            ablation.append({"technique": name, "failed": str(exc)})

    std_h = std_el = 0.0
    boot = None
    if cfg.bootstrap["enabled"]:
        boot = bootstrap(
            counts, analyzer.analyze_stack,
            resamples=int(cfg.bootstrap["resamples"]),
            seed=derive_seed(cfg.master_seed, "bootstrap"))
        std_h, std_el = boot.stds["h"], boot.stds["e_l"]

    estimate = EnergyEstimate(
        h_expect=main["h"], e_l=main["e_l"], std_h=std_h, std_el=std_el,
        q_hat=main["q_hat"],
        metadata={
            "mitigation": sorted(k for k, v in cfg.mitigation.items() if v),
            "acceptance": main["acceptance"],
            "resamples": int(cfg.bootstrap["resamples"])
            if cfg.bootstrap["enabled"] else 0,
        })
    report = {
        "schema": 1,
        "estimate": estimate.to_json(),
        "fci": e_fci,
        "h_error": main["h"] - e_fci,
        "e_l_error": main["e_l"] - e_fci,
        "representability": main["representability"],
        "diagnostics": main["diagnostics"],
        "ablation": ablation,
        "bootstrap": boot.to_json() if boot else None,
        "config": cfg.to_json(),
    }
    _write_json(args.output, report)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["technique", "h", "e_l", "h_error",
                                "e_l_error", "failed"])
            writer.writeheader()
            for row in ablation:
                writer.writerow(row)
    print(f"<H> = {main['h']:.6f}  E_L = {main['e_l']:.6f}  "
          f"FCI = {e_fci:.6f}")
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
        _write_json(args.output, {"fci": energy,
                                  "n_electrons": ints.n_electrons,
                                  "s_z": sz})
    return 0


def cmd_pipeline(args) -> int:
    cfg = load_config(args.config)
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    ns = argparse.Namespace
    cmd_plan(ns(config=args.config, output=os.path.join(out, "plan.json")))
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
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--spin-pattern", default="interleaved")
    p.add_argument("--ilp-max-depth", type=int, default=8)
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
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plan" and (args.config is None) == \
                (args.modes is None):
            raise ConfigError("plan needs exactly one of --config/--modes")
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
