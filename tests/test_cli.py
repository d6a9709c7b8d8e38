"""End-to-end tests of the command-line pipeline.

Every test drives the real entry point (``qcmoments.cli.main``) in-process
and checks exit codes, file artifacts, and numerical results against the
exact-diagonalization values of the committed fixtures.
"""
import functools
import gc
import hashlib
import json
import pathlib
import shutil
import sys

import numpy as np
import pytest

from qcmoments import analysis, cli, simulator, trial
from qcmoments.analysis import Analyzer, write_archive
from qcmoments.cli import _load_system, main
from qcmoments.config import ConfigError, derive_seed, load_config, \
    typed_at
from qcmoments.planner import KINDS, MeasurementPlan, \
    build_measurement_circuit, build_plan, enumerate_elements
from qcmoments.qcm import cumulants, lanczos_energy
from qcmoments.simulator import Circuit, run
from qcmoments.trial import build_uccd

from fixtures_util import H2_PATH, H4_PATH
from reference_analysis import analyze, noisy_tables_per_basis, \
    sample_counts_per_basis
from reference_planner import circuit_with_s_in_place, drop_last_product, \
    factor_entries, measured_circuit
from reference_qcm import moments_from_statevector
from reference_simulator import basis_state

# sector FCI / Hartree-Fock energies of the stretched-H2 fixture,
# from exact diagonalization (see tests/test_integrals.py)
H2_FCI = -1.001125164303071
H2_HF = -0.9163768196710556


def write_config(tmp_path, **overrides):
    cfg = {
        "schema": 1,
        "integrals": str(H2_PATH),
        "order": 2,
        "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
        "shots": 20000,
        "noise": {"global_q": 0.0, "p01": 0.0, "p10": 0.0},
        "bootstrap": {"enabled": True, "resamples": 20},
        "spsa": {"iterations": 60, "seeds": 2},
        "output_dir": "out",
        "master_seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# ---------------------------------------------------------------------------
# configuration validation (exit code 2)


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = write_config(tmp_path, typo_key=1)
    assert main(["fci", "--config", str(cfg)]) == 2


def test_schema_version_checked(tmp_path):
    cfg = write_config(tmp_path, schema=99)
    assert main(["fci", "--config", str(cfg)]) == 2


def test_missing_integrals_file(tmp_path):
    cfg = write_config(tmp_path, integrals="no_such_file.fcidump")
    assert main(["fci", "--config", str(cfg)]) == 2


def test_bad_excitation_shape(tmp_path):
    cfg = write_config(
        tmp_path, excitations=[{"creations": [2], "annihilations": [0, 1]}])
    assert main(["fci", "--config", str(cfg)]) == 2


def test_readout_rate_out_of_range(tmp_path):
    cfg = write_config(tmp_path, noise={"p01": 0.6})
    assert main(["fci", "--config", str(cfg)]) == 2


def test_calibrate_requires_postselect(tmp_path):
    cfg = write_config(tmp_path,
                       mitigation={"postselect": False, "calibrate": True})
    assert main(["fci", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("order", [1, 3])
def test_order_other_than_electron_count_rejected(tmp_path, order):
    # only an order-N_e RDM gives exact moments; the two-electron fixture
    # is refused before plan writes anything
    cfg = write_config(tmp_path, order=order,
                       output_dir=str(tmp_path / "out"))
    assert main(["pipeline", "--config", str(cfg)]) == 2
    assert not (tmp_path / "out" / "plan.json").exists()


def test_config_not_json(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("not json {")
    assert main(["fci", "--config", str(path)]) == 2


# a config value of the wrong JSON type or out of range: fault -> overrides
VALUE_FAULTS = {
    "null shots": {"shots": None},
    "null order": {"order": None},
    "null routing_max_depth": {"routing_max_depth": None},
    "null bootstrap resamples": {"bootstrap": {"resamples": None}},
    "string global_q": {"noise": {"global_q": "x"}},
    "global_q above 1": {"noise": {"global_q": 1.5}},
    "negative cnot_q": {"noise": {"cnot_q": -0.1}},
    "cnot_q above 1": {"noise": {"cnot_q": 2}},
    "string excitation index": {"excitations": [
        {"creations": ["a", 3], "annihilations": [0, 1]}]},
    "string shots": {"shots": "abc"},
    "string frozen orbital": {"frozen_occupied": ["a"]},
    "fractional master_seed": {"master_seed": 1.5},
    "boolean schema": {"schema": True},
    "excitation index beyond the modes": {"excitations": [
        {"creations": [2, 9], "annihilations": [0, 1]}]},
    "repeated excitation index": {"excitations": [
        {"creations": [2, 2], "annihilations": [0, 1]}]},
    "NaN theta": {"excitations": [
        {"creations": [2, 3], "annihilations": [0, 1], "theta": float("nan")}]},
    "theta beyond the float range": {"excitations": [
        {"creations": [2, 3], "annihilations": [0, 1], "theta": 10 ** 400}]},
    # counts that numpy's int64 cannot hold
    "shots beyond int64": {"shots": 10 ** 30},
    "bootstrap resamples beyond int64": {"bootstrap": {"resamples": 10 ** 30}},
}


@pytest.mark.parametrize("fault", VALUE_FAULTS)
def test_config_value_faults_exit_2(tmp_path, fault, capsys):
    cfg = write_config(tmp_path, **VALUE_FAULTS[fault])
    assert main(["fci", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err


def test_typed_at_checks_every_value_and_names_a_faulty_one():
    doc = {"a": [{"b": [0, 1]}, {"b": [2, 3]}], "c": [[4], 5], "d": [6, True]}
    assert typed_at(doc, "a[*].b[*]", 0, 3) == [0, 1, 2, 3]
    assert typed_at(doc, "a[1].b[0]") == [2]
    for path, bounds, root, message in [
            ("a[*].b[*]", (0, 2), "", "a[1].b[1] must be <= 2, not 3"),
            ("a[*].b[*]", (1,), "", "a[0].b[0] must be >= 1, not 0"),
            ("c[*][*]", (), "", "c[1] must be a JSON array, not 5"),
            ("d[*]", (), "archive ",
             "archive d[1] must be a JSON integer, not True")]:
        with pytest.raises(ConfigError) as caught:
            typed_at(doc, path, *bounds, root=root)
        assert str(caught.value) == message


@pytest.mark.parametrize("command", ["plan", "pipeline"])
def test_theta_with_an_infinite_rotation_angle_exits_2(tmp_path, command,
                                                       capsys):
    # 1e308 is a finite JSON number, but the block's rotation angle
    # 2 * theta is not
    cfg = write_config(tmp_path, excitations=[
        {"creations": [2, 3], "annihilations": [0, 1], "theta": 1e308}],
        output_dir=str(tmp_path / "out"))
    output = ["--output", str(tmp_path / "plan.json")] \
        if command == "plan" else []
    assert main([command, "--config", str(cfg)] + output) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: excitation 0 theta must "
                          "have a finite rotation angle")
    assert "Traceback" not in err
    assert not (tmp_path / "plan.json").exists()
    assert not (tmp_path / "out").exists()


def test_pipeline_without_an_excitation_writes_nothing(tmp_path, capsys):
    # one active orbital holds both electrons, so there is no excitation for
    # optimize to move, though plan alone accepts the config
    cfg = write_config(tmp_path, integrals=str(H4_PATH), excitations=[],
                       frozen_occupied=[0], frozen_virtual=[3, 2],
                       output_dir=str(tmp_path / "out"))
    assert main(["pipeline", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err == ("configuration error: optimize requires at least one "
                   "excitation\n")
    assert not (tmp_path / "out").exists()


def test_theta_with_a_finite_rotation_angle_is_accepted(tmp_path):
    # 2 * 8e307 is still below the largest float
    cfg = write_config(tmp_path, excitations=[
        {"creations": [2, 3], "annihilations": [0, 1], "theta": 8e307}])
    assert load_config(cfg).excitations[0]["theta"] == 8e307


H2_TEXT = H2_PATH.read_text()


def integrals_file(tmp_path, data):
    """Config overrides that point at an integrals file holding `data`."""
    path = tmp_path / "integrals.fcidump"
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data)
    return {"integrals": str(path)}


# a fault in the integrals or in their freezing: fault -> overrides
INTEGRALS_FAULTS = {
    "frozen orbital beyond the orbitals": lambda tmp: {"frozen_occupied": [9]},
    "orbital frozen both ways": lambda tmp: {"frozen_occupied": [0],
                                             "frozen_virtual": [0]},
    "more frozen electrons than the molecule has": lambda tmp: {
        "frozen_occupied": [0, 1]},
    # each would freeze orbital 0 or 3 once and run at order 2
    "frozen_occupied repeating an orbital": lambda tmp: {
        "integrals": str(H4_PATH), "frozen_occupied": [0, 0]},
    "frozen_virtual repeating an orbital": lambda tmp: {
        "integrals": str(H4_PATH), "frozen_occupied": [0],
        "frozen_virtual": [3, 3]},
    # H2 has two orbitals
    "every orbital frozen, one each way": lambda tmp: {
        "frozen_occupied": [0], "frozen_virtual": [1]},
    "every orbital frozen virtual": lambda tmp: {"frozen_virtual": [1, 0]},
    "header without its end": lambda tmp: integrals_file(
        tmp, H2_TEXT.replace("/", "")),
    "line of six tokens": lambda tmp: integrals_file(
        tmp, H2_TEXT + "0.1 1 1 1 1 1\n"),
    "bytes that are not UTF-8": lambda tmp: integrals_file(
        tmp, H2_TEXT.encode() + b"\xff\xfe\n"),
    "more electrons than spin-orbitals": lambda tmp: integrals_file(
        tmp, H2_TEXT.replace("NELEC=2", "NELEC=5")),
    "integrals naming a directory": lambda tmp: {"integrals": str(tmp)},
    # a NaN integral once gave a finite FCI energy, an infinite one NaN
    "integral that is NaN": lambda tmp: integrals_file(
        tmp, H2_TEXT.replace("0.5548225086497546 1 1 1 1", "nan 1 1 1 1")),
    "integral that is infinite": lambda tmp: integrals_file(
        tmp, H2_TEXT.replace("0.5548225086497546 1 1 1 1", "inf 1 1 1 1")),
}


@pytest.mark.parametrize("fault", INTEGRALS_FAULTS)
def test_integrals_faults_exit_2(tmp_path, fault, capsys):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"),
                       **INTEGRALS_FAULTS[fault](tmp_path))
    for command in ("fci", "pipeline"):
        assert main([command, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["frozen_occupied", "frozen_virtual"])
def test_repeated_frozen_orbital_names_its_key(tmp_path, key, capsys):
    cfg = write_config(tmp_path, **INTEGRALS_FAULTS[
        f"{key} repeating an orbital"](tmp_path))
    assert main(["fci", "--config", str(cfg)]) == 2
    assert f"'{key}' lists an orbital more than once" in \
        capsys.readouterr().err


@pytest.mark.parametrize("fault", ["every orbital frozen, one each way",
                                   "every orbital frozen virtual"])
def test_empty_active_space_names_both_keys(tmp_path, fault, capsys):
    cfg = write_config(tmp_path, **INTEGRALS_FAULTS[fault](tmp_path))
    assert main(["fci", "--config", str(cfg)]) == 2
    assert "frozen_occupied and frozen_virtual freeze all 2 orbitals" in \
        capsys.readouterr().err


def test_fci_ignores_orbital_energy_lines(tmp_path):
    # "e i 0 0 0" lines give orbital energies, which are not Hamiltonian
    # terms; they once overwrote h1 entries of the last orbital
    energies = {}
    for name, text in (("fixture", H2_TEXT), ("with orbital energies",
                       H2_TEXT + " 0.5 1 0 0 0\n -0.25 2 0 0 0\n")):
        out = tmp_path / "fci.json"
        cfg = write_config(tmp_path, **integrals_file(tmp_path, text))
        assert main(["fci", "--config", str(cfg), "--output", str(out)]) == 0
        energies[name] = json.loads(out.read_text())["fci"]
    assert energies["with orbital energies"] == pytest.approx(
        energies["fixture"], abs=1e-12)


# ---------------------------------------------------------------------------
# plan


def test_plan_requires_exactly_one_source(tmp_path):
    out = str(tmp_path / "plan.json")
    assert main(["plan", "--output", out]) == 2
    cfg = write_config(tmp_path)
    assert main(["plan", "--config", str(cfg), "--modes", "4",
                 "--output", out]) == 2


def test_plan_from_flags(tmp_path, capsys):
    # --order is 2 unless given
    out = tmp_path / "plan.json"
    assert main(["plan", "--modes", "4", "--output", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_modes"] == 4 and summary["order"] == 2
    assert summary["elements"] == 12
    assert summary["level1_bases"] == 4
    plan = MeasurementPlan.loads(out.read_text())
    assert plan.n_modes == 4
    assert len(plan.bases) == summary["concrete_bases"]


def test_plan_refuses_order_with_config(tmp_path, capsys):
    # the config gives the order, so a flag that would be ignored is refused
    cfg = write_config(tmp_path)
    out = tmp_path / "plan.json"
    assert main(["plan", "--config", str(cfg), "--order", "4",
                 "--output", str(out)]) == 2
    assert "--order" in capsys.readouterr().err
    assert not out.exists()


def test_plan_routes_beyond_any_fixed_depth(tmp_path, capsys):
    # the basis of sites (0, 16) and (1, 17) needs 9 steps; the search
    # deepens until a schedule fits. Bases of more pairs take the odd-even
    # transposition network, 14 steps at most here.
    out = tmp_path / "plan.json"
    assert main(["plan", "--modes", "18", "--order", "1",
                 "--output", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["max_schedule_depth"] == 14
    plan = MeasurementPlan.loads(out.read_text())
    assert max(b.schedule.depth for b in plan.level1
               if b.schedule.certified) == 9


@pytest.mark.parametrize("flags", [
    ["--modes", "3", "--order", "4"],
    ["--modes", "0"],
    ["--modes", "4", "--order", "0"],
], ids=["order above modes", "no modes", "order 0"])
def test_plan_bad_arguments_exit_2(tmp_path, flags, capsys):
    out = tmp_path / "plan.json"
    assert main(["plan", *flags, "--output", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


def test_plan_from_config_uses_ansatz_layout(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = str(tmp_path / "plan.json")
    assert main(["plan", "--config", str(cfg), "--output", out]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["elements"] == 12
    assert sorted(summary["layout"]) == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# fci / optimize


def test_fci_prints_sector_energy(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "fci.json"
    assert main(["fci", "--config", str(cfg), "--output", str(out)]) == 0
    assert abs(float(capsys.readouterr().out) - H2_FCI) < 1e-9
    doc = json.loads(out.read_text())
    assert doc["n_electrons"] == 2 and doc["s_z"] == 0


def test_optimize_reaches_fci(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "thetas.json"
    assert main(["optimize", "--config", str(cfg), "--output",
                 str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["thetas"]) == 1
    assert len(doc["traces"]) == 2              # one trace per seed
    assert abs(doc["energy"] - H2_FCI) < 1e-6   # single pair: ansatz is exact


def test_optimize_zero_iterations_returns_initial_point(tmp_path):
    cfg = write_config(tmp_path, spsa={"iterations": 0, "seeds": 2})
    out = tmp_path / "thetas.json"
    assert main(["optimize", "--config", str(cfg), "--output",
                 str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["thetas"] == [0.0]
    assert abs(doc["energy"] - H2_HF) < 1e-9


def _count_matrix_builds(monkeypatch):
    """Calls of operator_matrix_in_sector, through every qcmoments binding
    of it, appended to the returned list."""
    original = simulator.operator_matrix_in_sector
    calls = []

    def counting(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("qcmoments") and \
                getattr(module, "operator_matrix_in_sector", None) is original:
            monkeypatch.setattr(module, "operator_matrix_in_sector", counting)
    return calls


@pytest.mark.parametrize("system, iterations", [
    ("h2", 0), ("h2", 3), ("h2", 150), ("h4", 2)])
def test_optimize_builds_each_matrix_once(tmp_path, monkeypatch, system,
                                          iterations):
    # H and each excitation generator, however many objective calls
    overrides = dict(PINNED_PIPELINES[system][0],
                     spsa={"iterations": iterations, "seeds": 1})
    cfg = write_config(tmp_path, **overrides)
    calls = _count_matrix_builds(monkeypatch)
    assert main(["optimize", "--config", str(cfg), "--output",
                 str(tmp_path / "thetas.json")]) == 0
    assert len(calls) == 1 + len(overrides["excitations"])


@pytest.mark.parametrize("integrals, extra, printed, energy", [
    (H2_PATH, {}, "-1.001125164303", -1.001125164303071),
    (H4_PATH, {"order": 4}, "-2.875942809005", -2.875942809005063),
    (H4_PATH, {"frozen_occupied": [0], "frozen_virtual": [3]},
     "-2.610063627056", -2.610063627056374),
], ids=["h2", "h4", "h4_frozen"])
def test_fci_output_is_pinned(tmp_path, capsys, integrals, extra, printed,
                              energy):
    cfg = write_config(tmp_path, integrals=str(integrals), **extra)
    out = tmp_path / "fci.json"
    assert main(["fci", "--config", str(cfg), "--output", str(out)]) == 0
    assert capsys.readouterr().out == printed + "\n"
    assert json.loads(out.read_text())["fci"] == energy


def test_optimize_requires_excitations(tmp_path):
    cfg = write_config(tmp_path, excitations=[])
    assert main(["optimize", "--config", str(cfg),
                 "--output", str(tmp_path / "t.json")]) == 2


# ---------------------------------------------------------------------------
# run


def _plan_and_thetas(tmp_path, cfg):
    plan = tmp_path / "plan.json"
    thetas = tmp_path / "thetas.json"
    assert main(["plan", "--config", str(cfg), "--output", str(plan)]) == 0
    assert main(["optimize", "--config", str(cfg), "--output",
                 str(thetas)]) == 0
    return plan, thetas


def test_run_is_seed_reproducible(tmp_path, capsys):
    cfg = write_config(tmp_path, shots=2000,
                       noise={"global_q": 0.05, "p01": 0.01, "p10": 0.02})
    plan, thetas = _plan_and_thetas(tmp_path, cfg)
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg), "--plan", str(plan),
                     "--thetas", str(thetas), "--output-dir",
                     str(out)]) == 0
        dirs.append(out)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == ["counts.npy", "manifest.json", "plan.json"]
    for f in names:
        assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()


def test_run_rejects_mismatched_plan(tmp_path):
    cfg = write_config(tmp_path)
    _, thetas = _plan_and_thetas(tmp_path, cfg)
    plan8 = tmp_path / "plan8.json"
    assert main(["plan", "--modes", "8", "--order", "1",
                 "--output", str(plan8)]) == 0
    assert main(["run", "--config", str(cfg), "--plan", str(plan8),
                 "--thetas", str(thetas),
                 "--output-dir", str(tmp_path / "c")]) == 2


def test_run_archive_manifest(tmp_path):
    cfg = write_config(tmp_path, shots=1000)
    plan, thetas = _plan_and_thetas(tmp_path, cfg)
    out = tmp_path / "counts"
    assert main(["run", "--config", str(cfg), "--plan", str(plan),
                 "--thetas", str(thetas), "--output-dir", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema"] == 3
    assert manifest["integrals_sha256"] == \
        hashlib.sha256(H2_PATH.read_bytes()).hexdigest()
    assert manifest["frozen_occupied"] == manifest["frozen_virtual"] == []
    assert "files" not in manifest
    assert sorted(manifest["sha256"]) == ["counts.npy", "plan.json"]
    for name, digest in manifest["sha256"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert (out / "plan.json").read_bytes() == plan.read_bytes()
    n_bases = manifest["n_bases"]
    counts = np.load(out / "counts.npy", allow_pickle=False)
    assert counts.dtype == np.dtype("<i8")
    assert counts.shape == (2 * n_bases + 2, 1 << manifest["n_qubits"])
    assert (counts >= 0).all() and (counts.sum(axis=1) == 1000).all()
    assert manifest["total_shots"] == counts.sum() == 1000 * (2 * n_bases + 2)


# plans for the H2 fixture's 4 modes that do not fit its order-2 config:
# case -> (order, spins written into the plan, message)
MISMATCHED_PLANS = {
    "order 1": (1, None, "measures order 1 over 4 modes"),
    "order 3": (3, None, "measures order 3 over 4 modes"),
    "spin pattern uudd": (2, "uudd", "with spins 'uudd'"),
}


def _mismatched_plan(tmp_path, case):
    order, spins, _ = MISMATCHED_PLANS[case]
    plan = tmp_path / "other_plan.json"
    assert main(["plan", "--modes", "4", "--order", str(order),
                 "--output", str(plan)]) == 0
    if spins is not None:
        obj = json.loads(plan.read_text())
        obj["spins"] = spins
        plan.write_text(json.dumps(obj))
    return plan


@pytest.mark.parametrize("case", MISMATCHED_PLANS)
def test_run_plan_mismatch_exits_2(tmp_path, case, capsys):
    cfg = write_config(tmp_path, shots=500)
    _, thetas = _plan_and_thetas(tmp_path, cfg)
    plan = _mismatched_plan(tmp_path, case)
    capsys.readouterr()
    out = tmp_path / "counts"
    assert main(["run", "--config", str(cfg), "--plan", str(plan),
                 "--thetas", str(thetas), "--output-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: plan file ")
    assert MISMATCHED_PLANS[case][2] in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("case", MISMATCHED_PLANS)
def test_analyze_plan_mismatch_exits_2(tmp_path, case, capsys):
    # a well-formed archive, consistent in itself and with the config's
    # manifest fields, whose plan does not fit the config
    cfg = write_config(tmp_path, shots=500)
    plan_bytes = _mismatched_plan(tmp_path, case).read_bytes()
    n_bases = len(MeasurementPlan.loads(plan_bytes.decode()).bases)
    # every table reads |0000> but the calibration-ones table reads |1111>
    counts = np.zeros((2 * n_bases + 2, 16), dtype=np.int64)
    counts[:, 0] = 500
    counts[1, [0, 15]] = 0, 500
    config = load_config(cfg)
    archive = tmp_path / "counts"
    archive.mkdir()
    for name, data in write_archive(plan_bytes, counts, {
            "n_qubits": 4, "n_electrons": 2, "n_bases": n_bases,
            "shots_per_basis": 500, "total_shots": int(counts.sum()),
            "layout": [0, 1, 2, 3], "thetas": [0.0], "noise": config.noise,
            "master_seed": config.master_seed}).items():
        (archive / name).write_bytes(data)
    capsys.readouterr()
    report = tmp_path / "report.json"
    assert main(["analyze", "--config", str(cfg), "--archive", str(archive),
                 "--output", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: archive plan in ")
    assert MISMATCHED_PLANS[case][2] in err and "Traceback" not in err
    assert not report.exists()


@pytest.fixture(scope="module")
def run_inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run_inputs")
    cfg = write_config(tmp, shots=500, spsa={"iterations": 0, "seeds": 1})
    plan, thetas = _plan_and_thetas(tmp, cfg)
    return cfg, plan, thetas


def _edit_json(edit):
    def corrupt(path):
        obj = json.loads(path.read_text())
        path.write_text(json.dumps(edit(obj)))
    return corrupt


def _edit_plan(edit):
    """Corruption that edits the plan's JSON object in place."""
    def apply(plan):
        edit(plan)
        return plan
    return _edit_json(apply)


def _two_site_step(plan):
    """The first routing step of the plan that interacts two sites."""
    return next(step for basis in plan["level1"]
                for step in basis["schedule"]["steps"]
                if len(step["interactions"]) > 1)


def _swap_pair_ids(plan):
    interactions = _two_site_step(plan)["interactions"]
    (a, at_a), (b, at_b) = interactions[:2]
    interactions[:2] = [[b, at_a], [a, at_b]]


def _set_first_product(position, *values):
    """Edit of the entries from `position` on of the first coverage record:
    basis, sign, p, then (kind, i, j) per factor."""
    def edit(plan):
        plan["coverage"][0][1][position:position + len(values)] = values
    return _edit_plan(edit)


def _re_factor_as_im(plan):
    records, at = next((r, at) for r, at in factor_entries(plan)
                       if r[at] == KINDS.index("Re"))
    records[at] = KINDS.index("Im")


def _routed_for_reversed_layout(plan):
    spins = tuple(plan["spins"])
    return json.loads(build_plan(enumerate_elements(4, 2, spins), spins,
                                 layout=(3, 2, 1, 0)).dumps())


def _set_schedules(key, value):
    """Edit that sets `key` of every level-1 schedule to `value`."""
    def edit(plan):
        for basis in plan["level1"]:
            basis["schedule"][key] = value
    return _edit_plan(edit)


def _truncate(path):
    text = path.read_text()
    path.write_text(text[:len(text) // 2])


# input faults of `run`: name -> (file, corruption, message fragment)
RUN_FAULTS = {
    "missing plan file": ("plan", pathlib.Path.unlink,
                          "cannot read plan file"),
    "missing thetas file": ("thetas", pathlib.Path.unlink,
                            "cannot read thetas file"),
    "plan without bases": ("plan", _edit_json(
        lambda p: {k: v for k, v in p.items() if k != "bases"}),
        "is malformed: KeyError('bases')"),
    "plan is a list": ("plan", _edit_json(lambda p: []), "is malformed"),
    "truncated plan": ("plan", _truncate, "is malformed"),
    "schema-1 plan": ("plan", _edit_plan(
        lambda p: p.update(schema=1)), "re-run `plan` to rewrite it"),
    "schema-2 plan": ("plan", _edit_plan(
        lambda p: p.update(schema=2)), "re-run `plan` to rewrite it"),
    "basis kind other than Re or Im": ("plan", _edit_plan(
        lambda p: p["bases"][-1].__setitem__(1, ["X", "Im"])),
        "is not a level-1 basis with Re or Im"),
    "basis without a kind per pair site": ("plan", _edit_plan(
        lambda p: p["bases"][-1].__setitem__(1, ["Im"])),
        "is not a level-1 basis with Re or Im"),
    "coverage product on basis 99": ("plan", _set_first_product(0, 99),
                                     "needs a basis in 0..4"),
    "coverage product on basis -1": ("plan", _set_first_product(0, -1),
                                     "needs a basis in 0..4"),
    "coverage product with sign 2": ("plan", _set_first_product(1, 2),
                                     "a sign of ±1"),
    "coverage factor of kind X": ("plan", _set_first_product(3, 3),
                                  "factors N of a mode"),
    "coverage factor N of no mode": ("plan", _set_first_product(3, 0, 4, 4),
                                     "factors N of a mode"),
    # N0 N1 moved to a basis that pairs mode 1 with 3, or mode 0 with 2
    "number product on basis 1": ("plan", _set_first_product(0, 1),
                                  "pairs only together with its partner's N"),
    "number product on basis 2": ("plan", _set_first_product(0, 2),
                                  "pairs only together with its partner's N"),
    "coverage factor Im where its basis measures Re": (
        "plan", _edit_plan(_re_factor_as_im), "that the basis measures so"),
    "coverage record past its list": ("plan", _edit_plan(
        lambda p: p["coverage"][0][1].pop()), "run past their list"),
    "coverage record with a negative factor count": (
        "plan", _set_first_product(2, -1),
        "has -1 factors, not the plan's order 2"),
    "record with a factor count other than the order": (
        "plan", _set_first_product(2, 3),
        "has 3 factors, not the plan's order 2"),
    "element missing one of its products": (
        "plan", _edit_plan(drop_last_product),
        "= 2 products for its m = 2 cross pairs, not 1"),
    "plan spins as a list": ("plan", _edit_plan(
        lambda p: p.__setitem__("spins", [0, 0, 0, 0])),
        "plan spins [0, 0, 0, 0] must be a string of one 'u' or 'd' per "
        "mode of its 4"),
    "coverage element without products": ("plan", _edit_plan(
        lambda p: p["coverage"][0].__setitem__(1, [])),
        "are empty or run past their list"),
    "duplicate coverage element": ("plan", _edit_plan(
        lambda p: p["coverage"].append(p["coverage"][0])), "and repeats 1"),
    "missing coverage element": ("plan", _edit_plan(
        lambda p: p["coverage"].pop(0)),
        "needs each of the 12 spin-conserving order-2 elements of 4 "
        "interleaved modes once: it lacks 1 of them and adds 0 others"),
    "schedule on 99 qubits": ("plan", _set_schedules("n_qubits", 99),
                              "level1[0].schedule.n_qubits must be <= 4, "
                              "not 99"),
    "schedule certified as a string": (
        "plan", _set_schedules("certified", "no"),
        "level1[0].schedule.certified must be a JSON boolean, not 'no'"),
    "plan routed for another layout": (
        "plan", _edit_json(_routed_for_reversed_layout),
        "does not fit its layout"),
    "swapped pair ids in a routing step": ("plan", _edit_plan(
        _swap_pair_ids), "does not fit its layout"),
    "non-adjacent routed interaction": ("plan", _edit_plan(
        lambda p: _two_site_step(p)["interactions"][0].__setitem__(
            1, [0, 2])), "does not fit its layout"),
    "thetas without the key": ("thetas", _edit_json(
        lambda t: {"energy": t["energy"]}),
        "is malformed: KeyError('thetas')"),
    "thetas of the wrong length": ("thetas", _edit_json(
        lambda t: {"thetas": t["thetas"] * 2}), "must hold 1 finite thetas"),
    "thetas not finite": ("thetas", _edit_json(
        lambda t: {"thetas": [float("nan")]}),
        "entry 0 must be a JSON number, not nan"),
    "theta as a string": ("thetas", _edit_json(
        lambda t: {"thetas": ["0.3"]}),
        "entry 0 must be a JSON number, not '0.3'"),
    "theta as a boolean": ("thetas", _edit_json(
        lambda t: {"thetas": [True]}),
        "entry 0 must be a JSON number, not True"),
    "theta with an infinite rotation angle": ("thetas", _edit_json(
        lambda t: {"thetas": [1e308]}),
        "entry 0 must have a finite rotation angle 2*theta, not 1e+308"),
}


def _faulty_run(run_inputs, tmp_path, fault):
    """`run` arguments on copies of the run inputs with the RUN_FAULTS
    corruption `fault`, and the output directory they name."""
    cfg, plan, thetas = run_inputs
    inputs = {"plan": tmp_path / "plan.json",
              "thetas": tmp_path / "thetas.json"}
    shutil.copy(plan, inputs["plan"])
    shutil.copy(thetas, inputs["thetas"])
    which, corrupt, _ = RUN_FAULTS[fault]
    corrupt(inputs[which])
    out = tmp_path / "counts"
    return ["run", "--config", str(cfg), "--plan", str(inputs["plan"]),
            "--thetas", str(inputs["thetas"]), "--output-dir", str(out)], out


@pytest.mark.parametrize("fault", RUN_FAULTS)
def test_run_input_faults_exit_2(run_inputs, tmp_path, fault, capsys):
    argv, out = _faulty_run(run_inputs, tmp_path, fault)
    message = RUN_FAULTS[fault][2]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.fixture(scope="module")
def run_archive(run_inputs, tmp_path_factory):
    cfg, plan, thetas = run_inputs
    out = tmp_path_factory.mktemp("run_archive") / "counts"
    assert main(["run", "--config", str(cfg), "--plan", str(plan),
                 "--thetas", str(thetas), "--output-dir", str(out)]) == 0
    return out


# every output a command writes: name -> arguments, with {bad} the path that
# cannot be written; a directory output is made with its parents, so only a
# regular file in its path blocks it
WRITE_TARGETS = {
    "plan --output": ["plan", "--modes", "4", "--order", "2",
                      "--output", "{bad}"],
    "optimize --output": ["optimize", "--config", "{cfg}", "--output",
                          "{bad}"],
    "run --output-dir": ["run", "--config", "{cfg}", "--plan", "{plan}",
                         "--thetas", "{thetas}", "--output-dir", "{bad}"],
    "analyze --output": ["analyze", "--config", "{cfg}", "--archive",
                         "{archive}", "--output", "{bad}"],
    "analyze --csv": ["analyze", "--config", "{cfg}", "--archive",
                      "{archive}", "--output", "{report}", "--csv", "{bad}"],
    "fci --output": ["fci", "--config", "{cfg}", "--output", "{bad}"],
    "pipeline output_dir": ["pipeline", "--config", "{pipeline_cfg}"],
}
WRITE_FAULTS = [
    (target, blocker) for target in WRITE_TARGETS
    for blocker in ("missing directory", "regular file")
    if blocker == "regular file"
    or target not in ("run --output-dir", "pipeline output_dir")]


@pytest.mark.parametrize("target, blocker", WRITE_FAULTS)
def test_unwritable_output_exits_2(run_inputs, run_archive, tmp_path, target,
                                   blocker, capsys):
    parent = tmp_path / "blocked"
    if blocker == "regular file":
        parent.write_text("not a directory")
    bad = str(parent / "out")
    cfg, plan, thetas = run_inputs
    paths = dict(bad=bad, cfg=cfg, plan=plan, thetas=thetas,
                 archive=run_archive, report=tmp_path / "report.json",
                 pipeline_cfg=write_config(tmp_path, output_dir=bad))
    before = sorted(tmp_path.iterdir())
    assert main([a.format(**paths) for a in WRITE_TARGETS[target]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {bad}: ")
    assert "Traceback" not in err
    # a command writes all of its outputs or none, and leaves no temporary
    # file behind: analyze --csv leaves no report.json
    assert not (tmp_path / "report.json").exists()
    assert sorted(tmp_path.iterdir()) == before


def test_measurement_circuit_on_prepared_state_is_exact(tmp_path):
    # run prepares each state once and applies every basis's measurement
    # circuit to it; that must give the same amplitudes, bit for bit, as
    # running the whole circuit from |0>
    cfg = write_config(tmp_path)
    plan, _ = _plan_and_thetas(tmp_path, cfg)
    plan = MeasurementPlan.loads(plan.read_text())
    _, _, ansatz = _load_system(load_config(cfg))
    n = ansatz.n_qubits
    zero = basis_state(0, n)
    for thetas in ([0.3], [0.0]):
        built = build_uccd(ansatz.with_thetas(thetas))
        prepared = run(built.circuit, zero)
        assert plan.bases
        for basis in plan.bases:
            mc = measured_circuit(build_measurement_circuit(
                plan.level1[basis.parent], built.layout), basis.kinds)
            whole = Circuit(n).extend(built.circuit).extend(mc)
            assert np.array_equal(run(mc, prepared), run(whole, zero))
            assert whole.cnot_count() == \
                built.circuit.cnot_count() + mc.cnot_count()


@pytest.mark.parametrize("system, reversed_layout", [
    ("h2", False), ("h4", False), ("h4", True)])
def test_sample_counts_equals_one_run_per_basis(tmp_path, system,
                                                reversed_layout):
    # one simulation per routed parent, on the states times each basis's
    # phase vector, draws the count matrix that running every basis's
    # S-in-place circuit on both states draws, bit for bit; also for a plan
    # routed under the reversed layout, with per-CNOT noise
    noise = dict(PINNED_NOISE, cnot_q=0.002 if reversed_layout else None)
    cfg = write_config(tmp_path, **PINNED_PIPELINES[system][0], noise=noise,
                       master_seed=7)
    config = load_config(cfg)
    plan, thetas = _plan_and_thetas(tmp_path, cfg)
    plan = MeasurementPlan.loads(plan.read_text())
    thetas = json.loads(thetas.read_text())["thetas"]
    _, _, ansatz = _load_system(config)
    built = [build_uccd(ansatz.with_thetas(t))
             for t in (thetas, [0.0] * len(thetas))]
    prepared, layout = [b.circuit for b in built], built[0].layout
    if reversed_layout:
        n = ansatz.n_qubits
        layout = tuple(range(n)[::-1])
        plan = build_plan(enumerate_elements(n, config.order, plan.spins),
                          plan.spins, layout=layout)
        # complex amplitudes, which tell S from its inverse
        prepared = [Circuit(n).extend(c).h(0).s(0).h(3) for c in prepared]
    circuits = analysis.measurement_circuits(plan, ansatz.n_qubits,
                                             config.order, layout, "plan")
    # one circuit per parent, and every parent has bases, some several
    assert len(circuits) == len(plan.level1) < len(plan.bases)
    assert {b.parent for b in plan.bases} == set(range(len(circuits)))
    counts = analysis.sample_counts(config, prepared, plan.bases, circuits)
    want = sample_counts_per_basis(config, prepared, [
        circuit_with_s_in_place(plan.level1[b.parent], b.kinds, layout)
        for b in plan.bases])
    assert counts.dtype == want.dtype and np.array_equal(counts, want)


#: largest deviation (Ha) of the calibrated analysis of the exact noisy
#: tables from the noiseless trial state's <H> and E_L
EXACT_TABLE_TOL = 1e-9


@pytest.mark.parametrize("system", ["h2", "h4"])
def test_calibrated_analysis_of_exact_tables_is_exact(tmp_path, system):
    # under the model that the mitigation assumes (one white-noise rate on
    # every basis row, per-qubit readout flips), the calibrated main
    # analysis of the exact noisy tables, with no shot drawn, gives the
    # noiseless trial state's <H> and E_L
    cfg = write_config(tmp_path, **PINNED_PIPELINES[system][0],
                       noise=PINNED_NOISE, master_seed=7)
    config = load_config(cfg)
    assert config.mitigation == analysis.ABLATION_STACKS[-1][1]
    plan, thetas = _plan_and_thetas(tmp_path, cfg)
    plan = MeasurementPlan.loads(plan.read_text())
    thetas = json.loads(thetas.read_text())["thetas"]
    ints, h, ansatz = _load_system(config)
    built = [build_uccd(ansatz.with_thetas(t))
             for t in (thetas, [0.0] * len(thetas))]
    layout = built[0].layout
    circuits = analysis.measurement_circuits(plan, ansatz.n_qubits,
                                             config.order, layout, "plan")
    tables = noisy_tables_per_basis(config, [b.circuit for b in built], [
        circuit_with_s_in_place(plan.level1[b.parent], b.kinds, layout)
        for b in plan.bases])
    got = analyze(Analyzer(config, plan, circuits, ints.n_electrons, h),
                  tables, diagnostics=True)
    m = moments_from_statevector(
        h, trial.exact_trial_state(ansatz.with_thetas(thetas)))
    assert got["q_hat"] > 0.0
    assert abs(got["h"] - m.m1) <= EXACT_TABLE_TOL
    assert abs(got["e_l"] - lanczos_energy(cumulants(m))) <= EXACT_TABLE_TOL


def test_run_simulates_once_per_routed_parent(tmp_path, monkeypatch):
    # on the 8 qubits, the two preparations and one measurement run per
    # level-1 basis of the H4 plan (64 parents of 200 concrete bases); the
    # other runs check the trial's 4-qubit templates
    cfg = write_config(tmp_path, **PINNED_PIPELINES["h4"][0],
                       noise=PINNED_NOISE, master_seed=7)
    plan, thetas = _plan_and_thetas(tmp_path, cfg)
    calls = []
    original = simulator.run

    def counting(circuit, initial):
        calls.append(np.shape(initial))
        return original(circuit, initial)

    for name, module in list(sys.modules.items()):
        if name.startswith("qcmoments") and \
                getattr(module, "run", None) is original:
            monkeypatch.setattr(module, "run", counting)
    assert main(["run", "--config", str(cfg), "--plan", str(plan),
                 "--thetas", str(thetas), "--output-dir",
                 str(tmp_path / "counts")]) == 0
    loaded = MeasurementPlan.loads(plan.read_text())
    assert (len(loaded.level1), len(loaded.bases)) == (64, 200)
    calls = [shape for shape in calls if shape[-1] == 1 << 8]
    assert len(calls) == 2 + len(loaded.level1)
    # each parent's run carries both states of each of its bases
    assert sum(shape[0] for shape in calls[2:]) == 2 * len(loaded.bases)


def test_run_noise_reaches_every_row(tmp_path, monkeypatch):
    # the distribution handed to `sample` for each archive row, rebuilt
    # from the whole circuit with the readout flips as one dense matrix:
    # the calibration rows see the readout flips alone; a basis row is the
    # white-noise mixture at the rate of its circuit's CNOTs, then the flips
    noise = {"global_q": 0.05, "p01": 0.02, "p10": 0.04, "cnot_q": 0.01}
    cfg = write_config(tmp_path, shots=500, noise=noise,
                       spsa={"iterations": 0, "seeds": 1},
                       excitations=[{"creations": [2, 3],
                                     "annihilations": [0, 1],
                                     "theta": 0.3}])
    plan, thetas = _plan_and_thetas(tmp_path, cfg)
    drawn = []
    sample = analysis.sample

    def capturing(distribution, shots, *, seed):
        drawn.append((np.array(distribution), seed))
        return sample(distribution, shots, seed=seed)

    monkeypatch.setattr(analysis, "sample", capturing)
    assert main(["run", "--config", str(cfg), "--plan", str(plan),
                 "--thetas", str(thetas), "--output-dir",
                 str(tmp_path / "counts")]) == 0

    config = load_config(cfg)
    _, _, ansatz = _load_system(config)
    n = ansatz.n_qubits
    flip = np.array([[1 - noise["p01"], noise["p10"]],
                     [noise["p01"], 1 - noise["p10"]]])
    readout = functools.reduce(np.kron, [flip] * n)
    loaded = MeasurementPlan.loads(plan.read_text())
    bases = loaded.bases
    expected = [(readout[:, 0], ("calibration", 0)),
                (readout[:, -1], ("calibration", 1))]
    for tag, theta in (("sample-trial", 0.3), ("sample-reference", 0.0)):
        built = build_uccd(ansatz.with_thetas([theta]))
        for i, basis in enumerate(bases):
            whole = Circuit(n).extend(built.circuit).extend(measured_circuit(
                build_measurement_circuit(loaded.level1[basis.parent],
                                          built.layout), basis.kinds))
            assert whole.cnot_count() > 0
            q = 1 - (1 - noise["global_q"]) * \
                (1 - noise["cnot_q"]) ** whole.cnot_count()
            p = np.abs(run(whole, basis_state(0, n))) ** 2
            expected.append((readout @ ((1 - q) * p + q / 2 ** n), (tag, i)))
    assert len(drawn) == len(expected) == 2 * len(bases) + 2
    for (got, seed), (want, stream) in zip(drawn, expected):
        assert np.allclose(got, want, rtol=0, atol=1e-14), stream
        assert seed == derive_seed(config.master_seed, *stream)


# ---------------------------------------------------------------------------
# analyze / pipeline


def test_noiseless_pipeline_is_accurate(tmp_path):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert abs(report["fci"] - H2_FCI) < 1e-9
    # noiseless sampling of an (exact) optimized trial: only shot noise left
    assert abs(report["h_error"]) < 5e-3
    assert abs(report["e_l_error"]) < 5e-3
    est = report["estimate"]
    assert est["std_h"] >= 0.0 and est["std_el"] >= 0.0
    assert est["q_hat"] == pytest.approx(0.0, abs=0.05)
    # every mitigation stage is benign without noise
    assert all("failed" not in row for row in report["ablation"])
    csv_text = (tmp_path / "out" / "ablation.csv").read_text()
    assert csv_text.splitlines()[0].startswith("technique,")
    assert len(csv_text.splitlines()) == 6


def test_noisy_pipeline_mitigates_to_fci(tmp_path):
    cfg = write_config(
        tmp_path, output_dir=str(tmp_path / "out"),
        noise={"global_q": 0.1, "p01": 0.02, "p10": 0.03})
    assert main(["pipeline", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    est = report["estimate"]
    assert 0.0 < est["q_hat"] < 0.1
    sigma = max(est["std_h"], 1e-4)
    assert abs(report["h_error"]) < max(1.6e-3, 3.0 * sigma)
    # the full stack must beat the unmitigated/partially mitigated rows
    by_name = {row["technique"]: row for row in report["ablation"]}
    full = abs(by_name["calibrated"]["e_l_error"])
    partial = by_name["postselect"]
    assert "failed" in partial or full < abs(partial["e_l_error"])


def _unmitigated_noisy_config(tmp_path):
    return write_config(
        tmp_path, output_dir=str(tmp_path / "out"),
        noise={"global_q": 0.3, "p01": 0.05, "p10": 0.05},
        mitigation={"qrem": False, "clip": False, "postselect": False,
                    "rescale": False, "calibrate": False},
        bootstrap={"enabled": False})


def test_unmitigated_noisy_analysis_fails_cleanly(tmp_path):
    cfg = _unmitigated_noisy_config(tmp_path)
    # heavy unmitigated noise yields unphysical cumulants: a clean numerical
    # failure (exit 3), never a silent wrong answer
    assert main(["pipeline", "--config", str(cfg)]) == 3


def test_pipeline_reports_are_bit_identical(tmp_path):
    cfg = write_config(
        tmp_path, shots=4000, output_dir=str(tmp_path / "out"),
        noise={"global_q": 0.05, "p01": 0.01, "p10": 0.02},
        bootstrap={"enabled": True, "resamples": 10},
        spsa={"iterations": 30, "seeds": 2})
    reports = []
    for _ in range(2):
        assert main(["pipeline", "--config", str(cfg)]) == 0
        reports.append((tmp_path / "out" / "report.json").read_bytes())
    assert reports[0] == reports[1]


# SHA-256 of counts.npy and ablation.csv at master seed 7, recorded before
# sampling and assembly became array passes over all bases: the benchmark's
# H2 pipeline config, and the H4 chain at order 4 with its pinned
# amplitudes, 2,000 shots and no SPSA
PINNED_NOISE = {"global_q": 0.1, "p01": 0.03, "p10": 0.05}
PINNED_H4_EXCITATIONS = [
    ((4, 5), (2, 3), 0.2078217569360465),
    ((6, 7), (2, 3), 0.056920425909431686),
    ((4, 5), (0, 1), 0.056920423100753244),
    ((6, 7), (0, 1), 0.08537314814180205)]
PINNED_PIPELINES = {
    "h2": ({"integrals": str(H2_PATH), "order": 2,
            "excitations": [{"creations": [2, 3], "annihilations": [0, 1]}],
            "shots": 100_000, "spsa": {"iterations": 150, "seeds": 1},
            "bootstrap": {"enabled": True, "resamples": 100}},
           "cafacdb9014b2b45c49f98e6e09c62bc0d7f5198e938a5246e5e90423a0b300e",
           "b9e94c80978984e651cbfaaedda9dd585f981c30ac4bd6b9a160ab541f07f1fe"),
    "h4": ({"integrals": str(H4_PATH), "order": 4,
            "excitations": [{"creations": list(c), "annihilations": list(a),
                             "theta": t}
                            for c, a, t in PINNED_H4_EXCITATIONS],
            "shots": 2000, "spsa": {"iterations": 0, "seeds": 1},
            "bootstrap": {"enabled": True, "resamples": 2}},
           "4a34c723fbab5cabaa4ab3116d8d540aa5302dbe74755a98403e51f367fcb81f",
           "98162ef965e0220c150051739faabd35df6dcd218f8a5661386f5f6b0775257b"),
}


# the seed-7 report's bootstrap block, recorded while the bootstrap still
# analysed its resamples one at a time
PINNED_BOOTSTRAP = {
    "h2": {"failure_reasons": {}, "failures": 0,
           "means": {"e_l": -1.0011727846754597, "h": -0.9997732814078678},
           "resamples": 100,
           "stds": {"e_l": 0.00016609488006901578,
                    "h": 0.0008875535380199856}},
    "h4": {"failure_reasons": {}, "failures": 0,
           "means": {"e_l": -2.8618438375453037, "h": -2.7866629922788175},
           "resamples": 2,
           "stds": {"e_l": 0.000947321837321078, "h": 0.04381986962223419}},
}


@pytest.mark.parametrize("system", PINNED_PIPELINES)
def test_pipeline_outputs_are_pinned(tmp_path, system):
    overrides, counts_digest, ablation_digest = PINNED_PIPELINES[system]
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **overrides, noise=PINNED_NOISE,
                       master_seed=7, output_dir=str(out))
    assert main(["pipeline", "--config", str(cfg)]) == 0
    for name, digest in (("counts/counts.npy", counts_digest),
                         ("ablation.csv", ablation_digest)):
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == \
            digest, name
    boot = json.loads((out / "report.json").read_text())["bootstrap"]
    assert boot == PINNED_BOOTSTRAP[system]


# ---------------------------------------------------------------------------
# the cyclic garbage collector, paused for each command


@pytest.mark.parametrize("collecting", [True, False],
                         ids=["enabled", "disabled"])
@pytest.mark.parametrize("outcome", ["exit 0", "exit 2", "exit 3", "usage"])
def test_main_leaves_the_collector_as_it_found_it(
        run_inputs, tmp_path, monkeypatch, capsys, outcome, collecting):
    if outcome == "exit 2":
        argv = _faulty_run(run_inputs, tmp_path, "missing plan file")[0]
    elif outcome == "exit 3":
        argv = ["pipeline", "--config",
                str(_unmitigated_noisy_config(tmp_path))]
    else:
        # without --output, argparse exits through SystemExit
        argv = ["plan", "--modes", "4"] + (
            ["--output", str(tmp_path / "plan.json")]
            if outcome == "exit 0" else [])
    paused = []
    build_parser = cli.build_parser

    def recording():
        paused.append(not gc.isenabled())
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", recording)
    if not collecting:
        gc.disable()
    try:
        if outcome == "usage":
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == int(outcome[-1])
        assert gc.isenabled() == collecting
    finally:
        gc.enable()
    assert paused == [True]


def _cycles_left(argv):
    """Objects in reference cycles that one `main` call leaves behind,
    counted with the collector off."""
    gc.collect()
    gc.disable()
    try:
        assert main(argv) == 0
        return gc.collect()
    finally:
        gc.enable()


def test_plan_cycles_do_not_grow_with_the_plan(tmp_path, capsys):
    # what is left is argparse's own, so the 9-mode order-4 plan, with its
    # 141 routed bases, leaves what the 4-mode order-2 plan leaves
    out = str(tmp_path / "plan.json")
    assert _cycles_left(["plan", "--modes", "4", "--order", "2",
                         "--output", out]) == \
        _cycles_left(["plan", "--modes", "9", "--order", "4",
                      "--output", out])


def test_pipeline_cycles_do_not_grow_with_the_system(tmp_path, capsys):
    left = []
    for system, (overrides, _, _) in PINNED_PIPELINES.items():
        (tmp_path / system).mkdir()
        cfg = write_config(tmp_path / system, **overrides,
                           noise=PINNED_NOISE, master_seed=7,
                           output_dir=str(tmp_path / system / "out"))
        left.append(_cycles_left(["pipeline", "--config", str(cfg)]))
    assert left[0] == left[1]


@pytest.mark.parametrize("overrides", [
    PINNED_PIPELINES["h2"][0], PINNED_PIPELINES["h4"][0],
    {"integrals": str(H4_PATH), "frozen_occupied": [0],
     "frozen_virtual": [3]}], ids=["h2", "h4", "h4_frozen"])
def test_report_fci_is_the_fci_command_energy(tmp_path, capsys, overrides):
    # the report's errors are taken against the energy that `fci` prints;
    # FCI depends on neither the shots nor the optimizer nor the bootstrap
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **dict(
        overrides, shots=1000, spsa={"iterations": 0, "seeds": 1},
        bootstrap={"enabled": False}), noise=PINNED_NOISE, master_seed=7,
        output_dir=str(out))
    fci = tmp_path / "fci.json"
    assert main(["fci", "--config", str(cfg), "--output", str(fci)]) == 0
    printed = capsys.readouterr().out
    assert main(["pipeline", "--config", str(cfg)]) == 0
    energy = json.loads((out / "report.json").read_text())["fci"]
    assert energy == json.loads(fci.read_text())["fci"]
    assert printed == f"{energy:.12f}\n"


def test_build_uccd_runs_no_simulation(tmp_path, monkeypatch):
    # the trial blocks come from a table: building the pinned H4 ansatz, at
    # its amplitudes and at zero, simulates no circuit
    cfg = write_config(tmp_path, **PINNED_PIPELINES["h4"][0])
    ansatz = _load_system(load_config(cfg))[2]

    def refuse(*args, **kwargs):
        raise AssertionError("build_uccd ran a circuit")

    monkeypatch.setattr(simulator, "run", refuse)
    monkeypatch.setattr(trial, "run", refuse, raising=False)
    for thetas in (ansatz.thetas, [0.0] * 4):
        built = build_uccd(ansatz.with_thetas(thetas))
        assert built.block_kinds == ["template"] * 4


def test_analyze_runs_one_table_pass_per_stack(tmp_path, monkeypatch):
    # the main analysis and the five ablation rows share one table-stage
    # call on a stack of one; the bootstrap's 100 resamples share another
    overrides = PINNED_PIPELINES["h2"][0]
    cfg = write_config(tmp_path, **overrides, noise=PINNED_NOISE,
                       master_seed=7, output_dir=str(tmp_path / "out"))
    sizes = []
    table_pass = Analyzer.element_values

    def counting(self, stack, *args, **kwargs):
        sizes.append(len(stack))
        return table_pass(self, stack, *args, **kwargs)

    monkeypatch.setattr(Analyzer, "element_values", counting)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert sorted(sizes) == [1, 100]


def test_unchained_mitigation_takes_one_more_table_pass(tmp_path,
                                                       monkeypatch):
    # readout inversion without clipping is no ablation row's mitigation,
    # so the main analysis takes a table pass of its own, and it equals
    # the analysis of the archive alone
    out = tmp_path / "out"
    cfg = write_config(tmp_path, **PINNED_PIPELINES["h2"][0],
                       noise=PINNED_NOISE, master_seed=7,
                       mitigation={"clip": False}, output_dir=str(out))
    sizes, analyzers = [], []
    table_pass = Analyzer.element_values

    def counting(self, stack, *args, **kwargs):
        sizes.append(len(stack))
        analyzers.append(self)
        return table_pass(self, stack, *args, **kwargs)

    monkeypatch.setattr(Analyzer, "element_values", counting)
    assert main(["pipeline", "--config", str(cfg)]) == 0
    assert sorted(sizes) == [1, 1, 100]
    report = json.loads((out / "report.json").read_text())
    alone = analyze(analyzers[0], np.load(out / "counts" / "counts.npy"),
                    diagnostics=True)
    assert (report["estimate"]["h_expect"], report["estimate"]["e_l"],
            report["estimate"]["q_hat"], report["representability"],
            report["diagnostics"]) == (alone["h"], alone["e_l"],
                                       alone["q_hat"],
                                       alone["representability"],
                                       alone["diagnostics"])
