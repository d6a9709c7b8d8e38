"""Compiled analysis against the dict-path references, its array kernels,
and archive loading.

The fixture archives come from the real ``plan``/``optimize``/``run``
commands. Every comparison of the compiled path (qcmoments.analysis) with
the dict path (tests/reference_analysis.py) holds to 1e-10.
"""
import hashlib
import json
import re
import shutil
import warnings
from dataclasses import astuple
from functools import partial, reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fixtures_util import H2_PATH, H4_PATH
from reference_analysis import DictAnalyzer, analyze, analyzer_elements, \
    checked, element_rdm, product_assembly_map
from reference_planner import drop_last_product, factor_entries
from reference_qcm import per_resample_bootstrap

from qcmoments.analysis import (
    ABLATION_STACKS, Analyzer, _assembly_map, load_archive,
)
from qcmoments.cli import _load_system, main
from qcmoments.config import load_config
from qcmoments.mitigation import (
    AssignmentCalibration, clip_rows, clip_to_physical, qrem_rows,
)
from qcmoments.conventions import interleaved_spins
from qcmoments.fermion import jordan_wigner
from qcmoments.planner import KINDS, build_measurement_circuit, \
    build_plan, enumerate_elements
from qcmoments import analysis, qcm
from qcmoments.qcm import (
    MomentSet, bootstrap, moments_from_rdm,
)
from qcmoments.simulator import exact_diagonalize, sector_basis

TOL = 1e-10
NOISE = {"global_q": 0.1, "p01": 0.03, "p10": 0.05}
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)


def _archive(tmp_path, integrals, order, excitations, shots, **extra):
    cfg = {
        "schema": 1, "integrals": str(integrals), "order": order,
        "excitations": excitations, "shots": shots, "noise": NOISE,
        "spsa": {"iterations": 0, "seeds": 1},
        "bootstrap": {"enabled": False}, "master_seed": 5,
        "output_dir": str(tmp_path / "out"), **extra,
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
    circuits = [build_measurement_circuit(p, manifest["layout"])
                for p in plan.level1]
    args = (cfg, plan, circuits, ints.n_electrons, h)
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


@pytest.fixture(scope="module")
def h4_frozen(tmp_path_factory):
    # one orbital frozen at each end: 4 modes, 2 electrons, and a nonzero
    # constant c0 in H from the frozen core
    tmp = tmp_path_factory.mktemp("h4_frozen")
    path, archive = _archive(
        tmp, H4_PATH, 2,
        [{"creations": [2, 3], "annihilations": [0, 1], "theta": 0.2}], 1000,
        frozen_occupied=[0], frozen_virtual=[3])
    return path, archive, _analyzers(path, archive)


def _outcome(analyze_one, counts, mitigation, diagnostics):
    """The result of ``analyze_one(counts, mitigation, diagnostics)``, or
    the failure with its numbers masked."""
    try:
        return analyze_one(counts, mitigation, diagnostics)
    except (ValueError, ArithmeticError) as exc:
        return re.sub(r"[-+]?\d[\d.e+-]*", "#", str(exc))


def _assert_paths_agree(compiled, reference, counts):
    stacks = [(None, None)] + ABLATION_STACKS
    for _, stack in stacks:
        got = _outcome(partial(analyze, compiled), counts, stack, True)
        want = _outcome(reference.analyze, counts, stack, True)
        if isinstance(want, str):
            assert got == want
            continue
        assert not isinstance(got, str), got
        for key in ("h", "e_l", "q_hat"):
            assert got[key] == pytest.approx(want[key], abs=TOL)
        for which in ("trial", "reference"):
            assert got["diagnostics"]["acceptance"][which] == \
                pytest.approx(want["acceptance"][which], abs=TOL)
        values = compiled.element_values(counts[None], stack)[0][0]
        rdm = want["rdm"]
        assert values == pytest.approx(
            [rdm.get(e.creations, e.annihilations).real
             for e in analyzer_elements(compiled)], abs=TOL)
        for key, value in got["representability"].items():
            assert value == pytest.approx(want["representability"][key],
                                          abs=TOL)


def _plan_9x4():
    spins = interleaved_spins(9)
    plan = build_plan(enumerate_elements(9, 4, spins), spins)
    return plan, [build_measurement_circuit(p, range(9)) for p in plan.level1]


@pytest.mark.parametrize("which", ["h4", "plan-9x4"])
def test_table_decode_matches_product_value(which, request):
    # every coverage product, decoded at all 2^n outcomes from the feature
    # table, gives the triplets that product_value gives, bit for bit
    if which == "h4":
        _, archive, _ = request.getfixturevalue("h4")
        manifest, plan, _ = load_archive(archive)
        circuits = [build_measurement_circuit(p, manifest["layout"])
                    for p in plan.level1]
    else:
        plan, circuits = _plan_9x4()
    got = _assembly_map(plan, circuits, np.lexsort(plan.elements.T[::-1]))
    want = product_assembly_map(plan, circuits)
    assert got[0].size > 0
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
@pytest.mark.parametrize("fixture", ["h2", "h4"])
def test_compiled_analysis_matches_dict_path(fixture, request):
    _, _, (compiled, reference, counts) = request.getfixturevalue(fixture)
    _assert_paths_agree(compiled, reference, counts)
    boots = [bootstrap(counts, compiled.analyze_stack, resamples=3, seed=17),
             per_resample_bootstrap(counts, reference.analyze, resamples=3,
                                    seed=17)]
    assert boots[0].failure_reasons == boots[1].failure_reasons
    for stat in ("means", "stds"):
        got, want = getattr(boots[0], stat), getattr(boots[1], stat)
        assert got == pytest.approx(want, abs=TOL)


@pytest.mark.parametrize("fixture", ["h2", "h4", "h4_frozen"])
def test_moment_map_matches_contraction_on_untraced_values(fixture,
                                                           request):
    # random element values whose trace is not 1, as in the unrescaled
    # ablation stacks: the constants c0^k must stay c0^k, not scale with
    # the trace
    _, _, (compiled, reference, _) = request.getfixturevalue(fixture)
    powers = reference.h_powers
    if fixture == "h4_frozen":
        assert abs(powers[0].constant()) > 0.1
    rng = np.random.default_rng(3)
    for _ in range(3):
        values = rng.normal(size=len(compiled.elements))
        assert abs(values[compiled._diagonal].sum() - 1.0) > 1e-3
        got = astuple(compiled.moments(values))
        want = astuple(moments_from_rdm(
            powers, element_rdm(compiled, values), compiled.n_electrons))
        assert got == pytest.approx(want, rel=TOL, abs=TOL)


@pytest.mark.parametrize("fixture", ["h4", "h4_frozen"])
def test_mixed_values_match_per_element_traces(fixture, request):
    # the mixed values read off the sector map against
    # mitigation.mixed_state_value run on each element's own operator (the
    # reference analyzer's values)
    _, _, (compiled, reference, _) = request.getfixturevalue(fixture)
    want = [reference.mixed[e] for e in analyzer_elements(compiled)]
    assert any(want) and not all(want)
    np.testing.assert_allclose(compiled.mixed, want, rtol=0,
                               atol=1e-15)


# the fixtures' sector FCI energies, as exact_diagonalize has given them
FCI = {"h2": -1.001125164303071, "h4": -2.875942809005063,
       "h4_frozen": -2.610063627056374}


@pytest.mark.parametrize("fixture", FCI)
def test_fci_is_the_sz_block_of_the_sector_matrix(fixture, request):
    # analyze reads FCI off the N-electron H it already holds; it is the
    # energy that exact_diagonalize builds from scratch, bit for bit, and
    # the lowest Jordan-Wigner eigenvalue on the same occupations
    path, _, (compiled, _, _) = request.getfixturevalue(fixture)
    _, h, _ = _load_system(load_config(path))
    ne = compiled.n_electrons
    energy, _ = exact_diagonalize(h, ne, sz=compiled.sz)
    assert compiled.e_fci == energy == FCI[fixture]
    masks = sector_basis(h.n_modes, ne, sz=compiled.sz)
    dense = jordan_wigner(h).to_matrix()[np.ix_(masks, masks)]
    assert abs(energy - np.linalg.eigvalsh(dense)[0]) < 1e-10


def test_analyzer_rejects_order_other_than_electron_count(h2):
    path, archive, _ = h2
    cfg = load_config(path)
    _, h, _ = _load_system(cfg)
    manifest, plan, _ = load_archive(archive)
    circuits = [build_measurement_circuit(p, manifest["layout"])
                for p in plan.level1]
    with pytest.raises(ValueError, match="order-3 RDM"):
        Analyzer(cfg, plan, circuits, 3, h)


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
@PROPERTY
@given(extra=arrays(np.int64, (12, 16), elements=st.integers(0, 60)))
def test_compiled_analysis_matches_dict_path_on_random_tables(h2, extra):
    _, _, (compiled, reference, counts) = h2
    _assert_paths_agree(compiled, reference, counts + extra)


# ---------------------------------------------------------------------------
# stacks of count matrices


def _redraws(counts, size, seed):
    """The `size` count matrices that bootstrap draws around `counts`."""
    stacks = []

    def keep(stack):
        stacks.append(stack.copy())
        return [{"x": 0.0}] * len(stack)

    bootstrap(counts, keep, resamples=size, seed=seed)
    return np.concatenate(stacks)


def _alone(analyzer, counts, mitigation):
    """One matrix's analysis, or its failure as (type, message)."""
    try:
        return analyze(analyzer, counts, mitigation)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _stacked(outcome):
    return (type(outcome), str(outcome)) \
        if isinstance(outcome, Exception) else outcome


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
@pytest.mark.parametrize("fixture", ["h2", "h4", "h4_frozen"])
def test_stacked_analysis_equals_each_matrix_alone(fixture, request):
    # each matrix of a stack gets the element values, q̂ and energies it
    # gets analysed alone, byte for byte, under every mitigation stack
    _, _, (compiled, _, counts) = request.getfixturevalue(fixture)
    stack = np.concatenate([counts[None], _redraws(counts, 3, seed=4)])
    for _, mitigation in [(None, None)] + ABLATION_STACKS:
        values, q_hat, failures, _ = compiled.element_values(stack,
                                                             mitigation)
        assert failures == [None] * len(stack)
        for r, matrix in enumerate(stack):
            one, one_q, _, _ = compiled.element_values(matrix[None],
                                                       mitigation)
            assert values[r].tobytes() == one[0].tobytes()
            assert q_hat[r].tobytes() == one_q[0].tobytes()
        got = compiled.analyze_stack(stack, mitigation)
        assert [_stacked(g) for g in got] == \
            [_alone(compiled, m, mitigation) for m in stack]


def test_bootstrap_stacks_spanning_several_chunks_agree(h2, monkeypatch):
    _, _, (compiled, _, counts) = h2
    one = bootstrap(counts, compiled.analyze_stack, resamples=10, seed=8)
    sizes = []

    def pipeline(stack):
        sizes.append(len(stack))
        return compiled.analyze_stack(stack)

    monkeypatch.setattr(qcm, "STACK_ENTRIES", 3 * counts.size + 5)
    several = bootstrap(counts, pipeline, resamples=10, seed=8)
    assert sizes == [3, 3, 3, 1]
    assert several == one


@pytest.fixture(scope="module")
def h2_foreign_rows(tmp_path_factory):
    # trial rows of the h2 fixture's archive rerun at other amplitudes:
    # the doubly excited determinant (pi/2) and an even superposition
    rows = {}
    for name, theta in (("excited", np.pi / 2), ("even", np.pi / 4)):
        tmp = tmp_path_factory.mktemp(f"h2_{name}")
        path, archive = _archive(
            tmp, H2_PATH, 2, [{"creations": [2, 3], "annihilations": [0, 1],
                               "theta": theta}], 2000)
        rows[name] = load_archive(archive)[2][2:]
    return rows


# mitigation stacks of the failure test: the command's own, two that
# reach the post-selection and trace checks without readout inversion, and
# two that part from the ablation chain
FAILURE_STACKS = [None] + [stack for _, stack in ABLATION_STACKS] + [
    {"postselect": True}, {"rescale": True}, {"qrem": True},
    {"qrem": True, "postselect": True, "calibrate": True}]
# the start of each check's message, in pipeline order
FAILURE_CHECKS = ("assignment matrix singular", "post-selection removed all",
                  "RDM trace", "estimated white-noise rate",
                  "negative second cumulant")


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
def test_stacked_failures_are_each_matrix_own(h2, h2_foreign_rows):
    # matrices built to fail at each check, mixed with passing ones: each
    # fails with the message it raises alone, which the dict path gives too
    _, _, (compiled, reference, counts) = h2
    n_bases = compiled.n_bases
    trial = slice(2, 2 + n_bases)
    shots = counts[0].sum()

    def edit(**rows):
        matrix = counts.copy()
        for name, value in rows.items():
            matrix[{"zeros": 0, "trial": trial,
                    "reference": slice(2 + n_bases, None),
                    "basis3": 5}[name]] = value
        return matrix

    # outcome 1 reads qubit 0 as 1; outcome 0 holds no electron
    at = {o: np.eye(16, dtype=counts.dtype)[o] * shots for o in (0, 1)}
    stack = np.stack([
        counts,
        edit(zeros=at[1]),                              # singular flip rates
        edit(trial=at[0]),                  # no mass kept, trace 0
        edit(zeros=at[1], trial=at[0]),     # both: the first check wins
        edit(reference=h2_foreign_rows["excited"][:n_bases]),   # q̂ >= 1
        edit(basis3=h2_foreign_rows["even"][3]),        # c2 far below 0
        _redraws(counts, 2, seed=5)[1],
    ])
    seen = set()
    for mitigation in FAILURE_STACKS:
        got = [_stacked(g) for g in compiled.analyze_stack(stack,
                                                           mitigation)]
        assert got == [_alone(compiled, m, mitigation) for m in stack]
        assert isinstance(got[0], dict) and isinstance(got[-1], dict)
        for g, matrix in zip(got, stack):
            want = _outcome(reference.analyze, matrix, mitigation, False)
            if isinstance(want, str):
                assert re.sub(r"[-+]?\d[\d.e+-]*", "#", g[1]) == want
                seen.update(c for c in FAILURE_CHECKS if want.startswith(c))
            else:
                assert isinstance(g, dict), g
                for key in ("h", "e_l"):
                    assert g[key] == pytest.approx(want[key], abs=TOL)
    assert seen == set(FAILURE_CHECKS)


def test_only_the_main_analysis_warns_of_a_clamped_rate(h2, monkeypatch):
    # a fitted white-noise rate below 0 is clamped to 0 everywhere, but only
    # the main analysis (with diagnostics) warns; the ablation stacks and
    # the bootstrap's stacks stay quiet
    _, _, (compiled, _, counts) = h2
    fit = analysis.fit_white_noise_rate
    monkeypatch.setattr(analysis, "fit_white_noise_rate",
                        lambda *args: fit(*args) - 1.0)
    with pytest.warns(UserWarning, match="clamped to 0"):
        result = analyze(compiled, counts, diagnostics=True)
    assert result["q_hat"] == 0.0 and result["diagnostics"]["q_hat_clamped"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        analyze(compiled, counts)
        compiled.analyze_stack(np.stack([counts, counts]))


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
@pytest.mark.parametrize("fixture", ["h2", "h4"])
def test_report_rows_equal_each_stack_alone(fixture, request):
    # the main analysis and the ablation rows come from one table-stage
    # call, and each equals its own analysis, bit for bit
    _, _, (compiled, _, counts) = request.getfixturevalue(fixture)
    report = compiled.report(counts)
    main = analyze(compiled, counts, diagnostics=True)
    assert (report["estimate"]["h_expect"], report["estimate"]["e_l"],
            report["estimate"]["q_hat"], report["representability"],
            report["diagnostics"]) == (main["h"], main["e_l"], main["q_hat"],
                                       main["representability"],
                                       main["diagnostics"])
    for (name, stack), row in zip(ABLATION_STACKS, report["ablation"]):
        alone = analyze(compiled, counts, stack)
        assert row == {"technique": name, "h": alone["h"],
                       "e_l": alone["e_l"],
                       "h_error": alone["h"] - compiled.e_fci,
                       "e_l_error": alone["e_l"] - compiled.e_fci}


def _table_bytes(table):
    """A table-stage result as bytes and messages, to compare exactly."""
    values, q_hat, failures, per_basis = table
    return (values.tobytes(), q_hat.tobytes(), failures,
            {key: {k: r.tobytes() for k, r in rows.items()}
             for key, rows in per_basis.items() if key != "q_hat_fit"},
            None if per_basis["q_hat_fit"] is None
            else per_basis["q_hat_fit"].tobytes())


def _row(analyzer, table):
    """An ablation row's outcome from its table-stage result."""
    try:
        return analyzer._result(table)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("ignore:estimated white-noise rate")
def test_shared_table_pass_equals_each_stack_alone(h2):
    # matrices whose clip or post-selection fails in a step that several
    # ablation rows share, among random tables: the report's main analysis
    # and every row of its one walk down the chain, failures and their
    # messages included, is the one each stack gives alone
    _, _, (compiled, _, counts) = h2
    n_bases, shots = compiled.n_bases, counts[0].sum()
    rng = np.random.default_rng(12)
    clip_fails = counts.copy()    # totals far off 1 after readout inversion
    clip_fails[2, :2] = [2 ** 60, 1 - 2 ** 60]
    clip_fails[2, 2:] = 0
    post_fails = counts.copy()    # no trial outcome holds two electrons
    post_fails[2:2 + n_bases] = np.eye(16, dtype=counts.dtype)[0] * shots
    matrices = [counts, clip_fails, post_fails] + [
        m + rng.integers(0, 60, size=m.shape)
        for m in (counts, clip_fails, post_fails)]
    # the config's mitigation is the calibrated row's, so the report reads
    # its main analysis off that row
    assert all(compiled.cfg.mitigation.values())
    mitigations = [None] + [stack for _, stack in ABLATION_STACKS]
    failed = []   # the ablation rows' failures
    for matrix in matrices:
        chain = compiled.element_values(matrix[None], chain=True)
        for mitigation, table in zip(mitigations, chain[-1:] + chain):
            alone = compiled.element_values(matrix[None], mitigation)
            assert _table_bytes(table) == _table_bytes(alone)
            assert _row(compiled, table) == \
                _alone(compiled, matrix, mitigation)
        failed.append([table[2][0] for table in chain])
    assert failed[0] == failed[3] == [None] * 5
    for rows in failed[1], failed[4]:
        assert rows[0] is None
        assert all(f.startswith("quasi-probabilities sum to")
                   for f in rows[1:])
    for rows in failed[2], failed[5]:
        assert rows[:2] == [None, None]
        assert all(f == "post-selection removed all probability mass"
                   for f in rows[2:])


def test_result_leaves_its_table_as_it_was(h2):
    # the main analysis can be the same table as an ablation row, so a
    # table read twice gives the same result twice
    _, _, (compiled, _, counts) = h2
    table = compiled.element_values(counts[None])
    for diagnostics in (True, False, True):
        assert compiled._result(table, diagnostics) == \
            compiled._result(table, diagnostics)


def test_report_warns_once_of_a_clamped_rate(h2, monkeypatch):
    # the main analysis and the calibrated row share the clamped fit; only
    # the main analysis warns, once
    _, _, (compiled, _, counts) = h2
    fit = analysis.fit_white_noise_rate
    monkeypatch.setattr(analysis, "fit_white_noise_rate",
                        lambda *args: fit(*args) - 1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = compiled.report(counts)
    assert [str(w.message) for w in caught] == [
        f"estimated white-noise rate {report['diagnostics']['q_hat_fit']} "
        "clamped to 0"]
    assert report["diagnostics"]["q_hat_clamped"]


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
    cal = checked(AssignmentCalibration.from_flip_rates, p01, p10)
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
            checked(clip_rows, quasi)
        return
    out, clipped = checked(clip_rows, quasi)
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
    out, clipped = checked(clip_rows, probs)
    assert out == pytest.approx(probs, rel=1e-14, abs=0.0)
    assert (clipped == 0.0).all()


def test_report_records_c2_clamp(h2, tmp_path, monkeypatch):
    config, archive, (compiled, _, _) = h2
    report = tmp_path / "report.json"
    args = ["analyze", "--config", str(config), "--archive", str(archive),
            "--output", str(report)]
    assert main(args) == 0
    diag = json.loads(report.read_text())["diagnostics"]
    assert diag["c2"] > 0.0 and diag["c2_clamped"] is False
    # moments whose variance lies just below zero, inside the shot-noise
    # floor 3/sqrt(shots): the clamp fires and E_L falls back to <H>
    c2 = -0.1 * 3.0 / np.sqrt(compiled.cfg.shots)
    monkeypatch.setattr(Analyzer, "moments",
                        lambda self, v: MomentSet(-1.0, 1.0 + c2, -1.0, 1.0))
    assert main(args) == 0
    doc = json.loads(report.read_text())
    assert doc["diagnostics"]["c2"] == pytest.approx(c2, rel=1e-12)
    assert doc["diagnostics"]["c2_clamped"] is True
    assert doc["estimate"]["e_l"] == doc["estimate"]["h_expect"] == -1.0


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
    assert set(doc["representability"]) == {"trace_residual",
                                            "min_eigenvalue"}
    assert doc["estimate"]["q_hat"] == max(diag["q_hat_fit"], 0.0)
    boot = doc["bootstrap"]
    assert sum(boot["failure_reasons"].values()) == boot["failures"]


# ---------------------------------------------------------------------------
# archive faults exit 2


def _edit_manifest(edit):
    def corrupt(archive):
        manifest = json.loads((archive / "manifest.json").read_text())
        edit(manifest)
        (archive / "manifest.json").write_text(json.dumps(manifest))
    return corrupt


def _rehash_counts(archive):
    """Record the current SHA-256 of counts.npy, so that a corrupted matrix
    passes the hash check and reaches its own check."""
    digest = hashlib.sha256((archive / "counts.npy").read_bytes()).hexdigest()
    _edit_manifest(lambda m: m["sha256"].update({"counts.npy": digest}))(
        archive)


def _edit_plan(edit):
    """Corrupt the archive's plan and record its new SHA-256, so that the
    plan passes the hash check and reaches its own check."""
    def corrupt(archive):
        plan = json.loads((archive / "plan.json").read_text())
        edit(plan)
        (archive / "plan.json").write_text(json.dumps(plan))
        digest = hashlib.sha256(
            (archive / "plan.json").read_bytes()).hexdigest()
        _edit_manifest(lambda m: m["sha256"].update({"plan.json": digest}))(
            archive)
    return corrupt


def _set_schedules(key, value):
    """Corruption that sets `key` of every level-1 schedule to `value`."""
    def edit(plan):
        for basis in plan["level1"]:
            basis["schedule"][key] = value
    return _edit_plan(edit)


def _re_factor_on_site_0_1(plan):
    # (0, 1) pairs opposite spins, so no basis measures it
    records, at = next((r, at) for r, at in factor_entries(plan)
                       if r[at] == KINDS.index("Re"))
    records[at + 1:at + 3] = [0, 1]


def _edit_counts(edit):
    def corrupt(archive):
        np.save(archive / "counts.npy", edit(np.load(archive / "counts.npy")))
        _rehash_counts(archive)
    return corrupt


def _truncate(archive):
    path = archive / "counts.npy"
    path.write_bytes(path.read_bytes()[:200])
    _rehash_counts(archive)


def _add_count(counts):
    counts[3, 5] += 1       # row 3 is trial basis 1
    return counts


def _negate_count(counts):
    moved = counts[4, 0] + 1    # keeps the row total
    counts[4, 0] -= moved
    counts[4, 1] += moved
    return counts


def _stale_hash(archive):
    # a valid matrix that holds other counts than the run drew
    counts = np.load(archive / "counts.npy")
    counts[2, :2] = counts[2, 1::-1]
    np.save(archive / "counts.npy", counts)


# fault -> (corruption, the part of the error message its own check gives)
ARCHIVE_FAULTS = {
    "missing manifest key": (_edit_manifest(
        lambda m: m.pop("shots_per_basis")), "lacks 'shots_per_basis'"),
    "missing counts file": (
        lambda archive: (archive / "counts.npy").unlink(), "cannot read"),
    "missing manifest": (
        lambda archive: (archive / "manifest.json").unlink(), "cannot read"),
    "truncated counts": (_truncate, "not a readable .npy array"),
    "wrong column count": (_edit_counts(
        lambda c: np.hstack([c, np.zeros((len(c), 1), dtype=c.dtype)])),
        "shape (12, 17)"),
    "negative count": (_edit_counts(_negate_count), "negative count"),
    "non-integer dtype": (_edit_counts(lambda c: c.astype(float)),
                          "float64 array"),
    "counts off the shot total": (_edit_counts(_add_count),
                                  "rows [3] do not sum"),
    "shots off the manifest": (_edit_manifest(
        lambda m: m.__setitem__("shots_per_basis", m["shots_per_basis"] + 1)),
        "do not sum to shots_per_basis 2001"),
    "n_bases disagrees with the plan": (_edit_manifest(
        lambda m: m.__setitem__("n_bases", m["n_bases"] - 1)),
        "disagrees with its plan"),
    "stale hash": (_stale_hash, "does not match the SHA-256"),
    "schema-1 archive": (_edit_manifest(
        lambda m: m.__setitem__("schema", 1)), "has schema 1"),
    "schema-1 plan": (_edit_plan(lambda p: p.update(schema=1)),
                      "re-run `plan` to rewrite it"),
    "schema-2 plan": (_edit_plan(lambda p: p.update(schema=2)),
                      "re-run `plan` to rewrite it"),
    "coverage product on basis 99": (_edit_plan(
        lambda p: p["coverage"][0][1].__setitem__(0, 99)),
        "needs a basis in 0..4"),
    # N0 N1 moved to a basis that pairs mode 1 with 3, or mode 0 with 2
    "number product on basis 1": (_edit_plan(
        lambda p: p["coverage"][0][1].__setitem__(0, 1)),
        "pairs only together with its partner's N"),
    "number product on basis 2": (_edit_plan(
        lambda p: p["coverage"][0][1].__setitem__(0, 2)),
        "pairs only together with its partner's N"),
    "coverage factor on a site its basis lacks": (
        _edit_plan(_re_factor_on_site_0_1), "that the basis measures so"),
    "coverage record past its list": (_edit_plan(
        lambda p: p["coverage"][-1][1].append(0)), "run past their list"),
    "coverage record with a negative factor count": (_edit_plan(
        lambda p: p["coverage"][0][1].__setitem__(2, -1)),
        "has -1 factors, not the plan's order 2"),
    "record with a factor count other than the order": (_edit_plan(
        lambda p: p["coverage"][0][1].__setitem__(2, 3)),
        "has 3 factors, not the plan's order 2"),
    "element missing one of its products": (_edit_plan(drop_last_product),
                                            "= 2 products for its m = 2 "
                                            "cross pairs, not 1"),
    "duplicate coverage element": (_edit_plan(
        lambda p: p["coverage"].append(p["coverage"][-1])), "and repeats 1"),
    "missing coverage element": (_edit_plan(
        lambda p: p["coverage"].pop()),
        "needs each of the 12 spin-conserving order-2 elements"),
    "schedule on 99 qubits": (_set_schedules("n_qubits", 99),
                              "level1[0].schedule.n_qubits must be <= 4, "
                              "not 99"),
    "schedule certified as a string": (
        _set_schedules("certified", "no"),
        "level1[0].schedule.certified must be a JSON boolean, not 'no'"),
    # a valid permutation of the modes that the plan was not routed for
    "layout the routing does not fit": (_edit_manifest(
        lambda m: m.__setitem__("layout", m["layout"][::-1])),
        "does not fit its layout"),
}


def _analyze(config, archive, tmp_path):
    return main(["analyze", "--config", str(config), "--archive",
                 str(archive), "--output", str(tmp_path / "r.json")])


@pytest.mark.parametrize("fault", ARCHIVE_FAULTS)
def test_archive_faults_exit_2(h2, tmp_path, fault, capsys):
    config, archive, _ = h2
    broken = tmp_path / "counts"
    shutil.copytree(archive, broken)
    corrupt, message = ARCHIVE_FAULTS[fault]
    corrupt(broken)
    assert _analyze(config, broken, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert "Traceback" not in err


def _int_leaves(doc, path=""):
    """(path, value) of each JSON integer in `doc`, bools aside, in document
    order; a path reads as ``level1[3].interactions[1][0]``."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _int_leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _int_leaves(value, f"{path}[{i}]")
    elif type(doc) is int:
        yield path, doc


def _set_leaf(path, value):
    """Edit of a JSON document that sets the leaf at `path` to `value`."""
    *steps, last = [key or int(index) for key, index in
                    re.findall(r"(\w+)|\[(\d+)\]", path)]

    def edit(doc):
        reduce(lambda node, step: node[step], steps, doc)[last] = value
    return edit


# the path patterns (list indexes as *) of the integers in the H2 archive's
# plan and manifest; each file's sweep sets the first integer of each
# pattern to true
BOOL_SWEEP = {
    "plan.json": {
        "schema", "n_modes", "level1[*].interactions[*][*]",
        "level1[*].schedule.n_qubits",
        "level1[*].schedule.steps[*].swaps[*][*]",
        "level1[*].schedule.steps[*].interactions[*][*]",
        "level1[*].schedule.steps[*].interactions[*][*][*]",
        "bases[*][*]", "coverage[*][*][*][*]", "coverage[*][*][*]"},
    "manifest.json": {
        "schema", "n_bases", "n_qubits", "n_electrons", "shots_per_basis",
        "total_shots", "master_seed", "layout[*]"},
}
#: the manifest integer that analyze does not read
UNREAD = {"total_shots"}


def test_a_bool_in_place_of_any_integer_exits_2(h2, tmp_path, capsys):
    # Python holds True equal to 1, so only the integer rule tells a JSON
    # true from a 1; run reads every integer of the plan, and analyze
    # every integer of the plan and the manifest but total_shots
    config, archive, _ = h2
    assert _analyze(config, archive, tmp_path) == 0
    estimate = json.loads((tmp_path / "r.json").read_text())["estimate"]
    thetas = config.parent / "thetas.json"

    unrefused = []

    def check(command, code, path):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if not (code == 2 and err.startswith("configuration error: ")
                and path in err):
            unrefused.append((command, path, code))

    for name, edit in (("plan.json", _edit_plan),
                       ("manifest.json", _edit_manifest)):
        first = {}
        for path, _ in _int_leaves(json.loads((archive / name).read_text())):
            first.setdefault(re.sub(r"\[\d+\]", "[*]", path), path)
        assert set(first) == BOOL_SWEEP[name]
        for path in first.values():
            work = tmp_path / name / path
            broken = work / "counts"
            shutil.copytree(archive, broken)
            edit(_set_leaf(path, True))(broken)
            if name == "plan.json":
                check("run", main([
                    "run", "--config", str(config), "--plan",
                    str(broken / "plan.json"), "--thetas", str(thetas),
                    "--output-dir", str(work / "run")]), path)
            code = _analyze(config, broken, work)
            if path in UNREAD:
                assert code == 0 and json.loads(
                    (work / "r.json").read_text())["estimate"] == estimate
            else:
                check("analyze", code, path)
    assert unrefused == []


def test_a_bool_equal_to_a_frozen_orbital_exits_2(h4_frozen, tmp_path,
                                                  capsys):
    # the archive's [false] equals the config's frozen_occupied [0] to
    # Python, so only the integer rule refuses it
    config, archive, _ = h4_frozen
    broken = tmp_path / "counts"
    shutil.copytree(archive, broken)
    _edit_manifest(lambda m: m.update(frozen_occupied=[False]))(broken)
    assert _analyze(config, broken, tmp_path) == 2
    assert capsys.readouterr().err == (
        "configuration error: archive frozen_occupied[0] must be a JSON "
        "integer, not False\n")


def _drop_element(element):
    def edit(coverage):
        coverage.remove(next(c for c in coverage if c[0] == element))
    return edit


# edits of the H4 archive's coverage that analyze once accepted (exit 0, an
# unchanged report after the first drop) or failed on numerically (exit 3)
H4_COVERAGE_FAULTS = {
    "first element repeated": (lambda coverage: coverage.append(coverage[0]),
                               "and repeats 1"),
    "element [[1, 2, 6, 7], [0, 3, 4, 7]] dropped": (
        _drop_element([[1, 2, 6, 7], [0, 3, 4, 7]]), "it lacks 1 of them"),
    "element [[0, 1, 2, 3], [0, 1, 2, 3]] dropped": (
        _drop_element([[0, 1, 2, 3], [0, 1, 2, 3]]), "it lacks 1 of them"),
}


@pytest.mark.parametrize("fault", H4_COVERAGE_FAULTS)
def test_h4_coverage_faults_exit_2(h4, tmp_path, fault, capsys):
    config, archive, _ = h4
    broken = tmp_path / "counts"
    shutil.copytree(archive, broken)
    edit, message = H4_COVERAGE_FAULTS[fault]
    _edit_plan(lambda plan: edit(plan["coverage"]))(broken)
    assert _analyze(config, broken, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: archive plan in ")
    assert message in err and "Traceback" not in err


# each edit makes the config disagree with the archive in one field
CONFIG_MISMATCHES = {
    "shots_per_basis": lambda cfg, manifest: cfg.update(
        shots=cfg["shots"] + 1),
    "noise": lambda cfg, manifest: cfg.update(
        noise={**cfg["noise"], "p10": 0.04}),
    "master_seed": lambda cfg, manifest: cfg.update(
        master_seed=cfg["master_seed"] + 1),
    "n_electrons": lambda cfg, manifest: manifest.update(n_electrons=1),
}


@pytest.mark.parametrize("field", CONFIG_MISMATCHES)
def test_archive_config_mismatch_exits_2(h2, tmp_path, field, capsys):
    config, archive, _ = h2
    broken = tmp_path / "counts"
    shutil.copytree(archive, broken)
    cfg = json.loads(config.read_text())
    _edit_manifest(lambda m: CONFIG_MISMATCHES[field](cfg, m))(broken)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert _analyze(path, broken, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"configuration error: archive {field} " in err
    assert "Traceback" not in err


def test_frozen_orbitals_compare_as_sets(tmp_path):
    # an archive made with frozen_virtual [3, 2] is the system of [2, 3]:
    # one active orbital holding both electrons, so there is no excitation
    # to optimize, and the trial state is the reference, which leaves the
    # calibration's white-noise rate unresolvable
    configs = []
    for name, virtual in (("given", [3, 2]), ("sorted", [2, 3])):
        configs.append(tmp_path / f"{name}.json")
        configs[-1].write_text(json.dumps({
            "schema": 1, "integrals": str(H4_PATH), "order": 2,
            "excitations": [], "shots": 1000, "noise": NOISE,
            "mitigation": {"calibrate": False}, "master_seed": 5,
            "frozen_occupied": [0], "frozen_virtual": virtual}))
    plan, thetas = tmp_path / "plan.json", tmp_path / "thetas.json"
    archive = tmp_path / "counts"
    thetas.write_text(json.dumps({"thetas": []}))
    assert main(["plan", "--config", str(configs[0]), "--output",
                 str(plan)]) == 0
    assert main(["run", "--config", str(configs[0]), "--plan", str(plan),
                 "--thetas", str(thetas), "--output-dir", str(archive)]) == 0
    estimates = []
    for path in configs:
        assert _analyze(path, archive, tmp_path) == 0
        estimates.append(json.loads(
            (tmp_path / "r.json").read_text())["estimate"])
    assert estimates[0] == estimates[1]


@pytest.mark.parametrize("field", ["integrals_sha256", "frozen_virtual"])
def test_archive_of_another_hamiltonian_exits_2(request, tmp_path, field,
                                               capsys):
    # the config's Hamiltonian has the archive's modes and electrons, but
    # one two-electron integral differs, or another orbital is frozen
    if field == "integrals_sha256":
        config, archive, _ = request.getfixturevalue("h2")
        text = H2_PATH.read_text()
        edited = text.replace("0.5548225086497546 1 1 1 1", "0.9 1 1 1 1")
        assert edited != text
        fcidump = tmp_path / "h2.fcidump"
        fcidump.write_text(edited)
        edit = {"integrals": str(fcidump)}
    else:
        config, archive, _ = request.getfixturevalue("h4_frozen")
        edit = {"frozen_virtual": [2]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads(config.read_text()), **edit}))
    assert _analyze(path, archive, tmp_path) == 2
    err = capsys.readouterr().err
    assert f"configuration error: archive {field} " in err
    assert "Traceback" not in err
