"""Compiled analysis against the dict-path references, its array kernels,
and archive loading.

The fixture archives come from the real ``plan``/``optimize``/``run``
commands. Every comparison of the compiled path (qcmoments.analysis) with
the dict path (tests/reference_analysis.py) holds to 1e-10.
"""
import json
import re
import shutil
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fixtures_util import H2_PATH, H4_PATH
from reference_analysis import DictAnalyzer

from qcmoments.analysis import ABLATION_STACKS, Analyzer, load_archive
from qcmoments.cli import _load_system, main
from qcmoments.config import load_config
from qcmoments.mitigation import (
    AssignmentCalibration, clip_rows, clip_to_physical, qrem_rows,
)
from qcmoments.planner import build_measurement_circuit
from qcmoments.qcm import bootstrap, hamiltonian_powers

TOL = 1e-10
NOISE = {"global_q": 0.1, "p01": 0.03, "p10": 0.05}
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def _archive(tmp_path, integrals, order, excitations, shots):
    cfg = {
        "schema": 1, "integrals": str(integrals), "order": order,
        "excitations": excitations, "shots": shots, "noise": NOISE,
        "spsa": {"iterations": 0, "seeds": 1},
        "bootstrap": {"enabled": False}, "master_seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    plan, thetas = tmp_path / "plan.json", tmp_path / "thetas.json"
    counts = tmp_path / "counts"
    assert main(["plan", "--config", str(path), "--output", str(plan)]) == 0
    assert main(["optimize", "--config", str(path), "--output",
                 str(thetas)]) == 0
    assert main(["run", "--config", str(path), "--plan", str(plan),
                 "--thetas", str(thetas), "--output-dir", str(counts)]) == 0
    return path, counts


def _analyzers(config_path, archive):
    cfg = load_config(config_path)
    ints, h, _ = _load_system(cfg)
    manifest, plan, counts = load_archive(archive)
    circuits = [build_measurement_circuit(b, manifest["layout"])
                for b in plan.bases]
    args = (cfg, plan, circuits, ints.n_electrons, hamiltonian_powers(h))
    return Analyzer(*args), DictAnalyzer(*args), counts


@pytest.fixture(scope="module")
def h2(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("h2")
    path, archive = _archive(
        tmp, H2_PATH, 2,
        [{"creations": [2, 3], "annihilations": [0, 1], "theta": 0.3}], 2000)
    return path, archive, _analyzers(path, archive)


@pytest.fixture(scope="module")
def h4(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("h4")
    thetas = (0.21, 0.057, 0.057, 0.085)
    excitations = [((4, 5), (2, 3)), ((6, 7), (2, 3)),
                   ((4, 5), (0, 1)), ((6, 7), (0, 1))]
    path, archive = _archive(
        tmp, H4_PATH, 4,
        [{"creations": list(c), "annihilations": list(a), "theta": t}
         for (c, a), t in zip(excitations, thetas)], 1000)
    return path, archive, _analyzers(path, archive)


def _outcome(analyzer, counts, mitigation, diagnostics):
    """The analysis result, or the failure with its numbers masked."""
    try:
        return analyzer.analyze(counts, mitigation, diagnostics)
    except (ValueError, ArithmeticError) as exc:
        return re.sub(r"[-+]?\d[\d.e+-]*", "#", str(exc))


def _assert_paths_agree(compiled, reference, counts):
    stacks = [(None, None)] + ABLATION_STACKS
    for _, stack in stacks:
        got = _outcome(compiled, counts, stack, True)
        want = _outcome(reference, counts, stack, True)
        if isinstance(want, str):
            assert got == want
            continue
        assert not isinstance(got, str), got
        for key in ("h", "e_l", "q_hat"):
            assert got[key] == pytest.approx(want[key], abs=TOL)
        for which in ("trial", "reference"):
            assert got["diagnostics"]["acceptance"][which] == \
                pytest.approx(want["acceptance"][which], abs=TOL)
        values, _, _ = compiled.element_values(counts, stack)
        rdm = want["rdm"]
        assert values == pytest.approx(
            [rdm.get(e.creations, e.annihilations).real
             for e in compiled.elements], abs=TOL)
        for key, value in got["representability"].items():
            assert value == pytest.approx(want["representability"][key],
                                          abs=TOL)


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
@pytest.mark.parametrize("fixture", ["h2", "h4"])
def test_compiled_analysis_matches_dict_path(fixture, request):
    _, _, (compiled, reference, counts) = request.getfixturevalue(fixture)
    _assert_paths_agree(compiled, reference, counts)
    boots = [bootstrap(counts, a.analyze, resamples=3, seed=17)
             for a in (compiled, reference)]
    assert boots[0].failure_reasons == boots[1].failure_reasons
    for stat in ("means", "stds"):
        got, want = getattr(boots[0], stat), getattr(boots[1], stat)
        assert got == pytest.approx(want, abs=TOL)


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
@PROPERTY
@given(extra=arrays(np.int64, (12, 16), elements=st.integers(0, 60)))
def test_compiled_analysis_matches_dict_path_on_random_tables(h2, extra):
    _, _, (compiled, reference, counts) = h2
    _assert_paths_agree(compiled, reference, counts + extra)


# ---------------------------------------------------------------------------
# array kernels


def _readout_channel(p01, p10):
    """Dense 2^n assignment matrix; qubit q is bit q of the outcome."""
    mats = [np.array([[1 - a, b], [a, 1 - b]]) for a, b in zip(p01, p10)]
    return reduce(np.kron, reversed(mats))


@PROPERTY
@given(data=st.data(), n=st.integers(1, 4))
def test_qrem_rows_inverts_the_tensored_readout_channel(data, n):
    rates = st.floats(0.0, 0.3)
    p01 = data.draw(st.lists(rates, min_size=n, max_size=n))
    p10 = data.draw(st.lists(rates, min_size=n, max_size=n))
    weights = data.draw(arrays(float, (3, 1 << n),
                               elements=st.floats(0.0, 1.0)))
    ideal = (weights + 1e-3) / (weights + 1e-3).sum(axis=1, keepdims=True)
    noisy = ideal @ _readout_channel(p01, p10).T
    cal = AssignmentCalibration.from_flip_rates(p01, p10)
    assert qrem_rows(noisy, cal) == pytest.approx(ideal, abs=1e-12)


@PROPERTY
@given(raw=arrays(float, (4, 8), elements=st.floats(-0.5, 1.0)))
def test_clip_rows_preserves_normalization_and_matches_reference(raw):
    if np.any(np.abs(raw.sum(axis=1)) < 0.05):
        return      # cannot be normalized to a quasi-distribution
    quasi = raw / raw.sum(axis=1, keepdims=True)
    try:
        ref = [clip_to_physical({format(i, "03b"): v
                                 for i, v in enumerate(row)})
               for row in quasi]
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)[:20]):
            clip_rows(quasi)
        return
    out, clipped = clip_rows(quasi)
    assert (out >= 0.0).all()
    assert out.sum(axis=1) == pytest.approx(1.0, abs=1e-12)
    # the first pass zeroes the initial negative mass; later passes add more
    negativity = -np.minimum(quasi, 0.0).sum(axis=1)
    assert (clipped >= negativity - 1e-15).all()
    assert ((clipped > 0.0) == (negativity > 0.0)).all()
    for row, want in zip(out, ref):
        assert row == pytest.approx(
            [want[format(i, "03b")] for i in range(8)], abs=1e-12)


@PROPERTY
@given(weights=arrays(float, (3, 8), elements=st.floats(0.0, 1.0)))
def test_clip_rows_is_identity_on_distributions(weights):
    probs = (weights + 1e-3) / (weights + 1e-3).sum(axis=1, keepdims=True)
    out, clipped = clip_rows(probs)
    assert out == pytest.approx(probs, rel=1e-14, abs=0.0)
    assert (clipped == 0.0).all()


def test_report_records_diagnostics(h2, tmp_path):
    config, archive, (compiled, _, _) = h2
    cfg = json.loads(config.read_text())
    cfg["bootstrap"] = {"enabled": True, "resamples": 20}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    report = tmp_path / "report.json"
    assert main(["analyze", "--config", str(path), "--archive", str(archive),
                 "--output", str(report)]) == 0
    doc = json.loads(report.read_text())
    diag = doc["diagnostics"]
    for which in ("trial", "reference"):
        rates = diag["acceptance"][which]
        assert len(rates) == compiled.n_bases
        assert all(0.0 < r <= 1.0 for r in rates)
        assert np.mean(rates) == pytest.approx(
            doc["estimate"]["metadata"]["acceptance"][which], abs=1e-15)
        assert len(diag["clipped_mass"][which]) == compiled.n_bases
        assert all(m >= 0.0 for m in diag["clipped_mass"][which])
    assert diag["q_hat_clamped"] == (diag["q_hat_fit"] < 0.0)
    assert doc["estimate"]["q_hat"] == max(diag["q_hat_fit"], 0.0)
    boot = doc["bootstrap"]
    assert sum(boot["failure_reasons"].values()) == boot["failures"]


# ---------------------------------------------------------------------------
# archive faults exit 2


def _drop_manifest_key(archive):
    manifest = json.loads((archive / "manifest.json").read_text())
    del manifest["shots_per_basis"]
    (archive / "manifest.json").write_text(json.dumps(manifest))


def _drop_file(archive):
    (archive / "basis_0003_trial.json").unlink()


def _drop_manifest(archive):
    (archive / "manifest.json").unlink()


def _truncate(archive):
    path = archive / "basis_0001_reference.json"
    path.write_text(path.read_text()[:40])


def _edit_counts(edit):
    def corrupt(archive):
        path = archive / "basis_0002_trial.json"
        obj = json.loads(path.read_text())
        obj["counts"] = edit(obj["counts"])
        path.write_text(json.dumps(obj))
    return corrupt


def _rekey(counts, change):
    (bits, c), *rest = counts.items()
    return {change(bits): c, **dict(rest)}


def _shots_mismatch(archive):
    path = archive / "calibration_ones.json"
    obj = json.loads(path.read_text())
    bits = next(iter(obj["counts"]))
    obj["counts"][bits] += 1
    obj["shots"] += 1
    path.write_text(json.dumps(obj))


def _wrong_n_bases(archive):
    manifest = json.loads((archive / "manifest.json").read_text())
    manifest["n_bases"] -= 1
    (archive / "manifest.json").write_text(json.dumps(manifest))


ARCHIVE_FAULTS = {
    "missing manifest key": _drop_manifest_key,
    "missing basis file": _drop_file,
    "missing manifest": _drop_manifest,
    "truncated JSON": _truncate,
    "bitstring too wide": _edit_counts(
        lambda c: _rekey(c, lambda bits: "0" + bits)),
    "bitstring not 0/1": _edit_counts(
        lambda c: _rekey(c, lambda bits: "2" + bits[1:])),
    "counts off the shot total": _edit_counts(
        lambda c: {bits: n + 1 for bits, n in c.items()}),
    "shots off the manifest": _shots_mismatch,
    "n_bases disagrees with the plan": _wrong_n_bases,
}


@pytest.mark.parametrize("fault", ARCHIVE_FAULTS)
def test_archive_faults_exit_2(h2, tmp_path, fault, capsys):
    config, archive, _ = h2
    broken = tmp_path / "counts"
    shutil.copytree(archive, broken)
    ARCHIVE_FAULTS[fault](broken)
    assert main(["analyze", "--config", str(config), "--archive",
                 str(broken), "--output", str(tmp_path / "r.json")]) == 2
    assert "configuration error" in capsys.readouterr().err
