"""Moments, cumulants, Lanczos-corrected energy, and bootstrap errors."""
import numpy as np
import pytest
from math import comb

import mpmath

from fixtures_util import (
    dense_fock_matrix, h2_system, h4_system, optimized_thetas, trial_energy,
)
from qcmoments import qcm
from qcmoments.fermion import FermionOperator
from qcmoments.qcm import (
    BootstrapResult, CumulantSet, EnergyEstimate, MomentSet, bootstrap,
    cumulants, hamiltonian_powers, lanczos_energy, moments_from_rdm,
)
from qcmoments.simulator import Statevector, exact_diagonalize, sector_basis
from qcmoments.trial import exact_trial_state

from reference_qcm import (
    moments_from_statevector, per_resample_bootstrap, validate_moments,
)
from reference_rdm import rdm_from_determinant
from reference_simulator import rdm_from_statevector


# ---------------------------------------------------------------------------
# independent oracles


def cumulants_recursive(moments):
    """Direct evaluation of the connected-moment recursion
    c_p = m_p - sum_{j=0}^{p-2} C(p-1, j) c_{j+1} m_{p-1-j}, with m_0 = 1."""
    m = {0: 1.0}
    for p, v in enumerate(moments, start=1):
        m[p] = v
    c = {}
    for p in range(1, 5):
        c[p] = m[p] - sum(comb(p - 1, j) * c[j + 1] * m[p - 1 - j]
                          for j in range(p - 1))
    return (c[1], c[2], c[3], c[4])


def lanczos_mp(c1, c2, c3, c4, dps=60):
    """High-precision direct evaluation of the closed-form estimate."""
    with mpmath.workdps(dps):
        c1, c2, c3, c4 = (mpmath.mpf(repr(float(v))) for v in (c1, c2, c3, c4))
        denom = c3 ** 2 - c2 * c4
        disc = 3 * c3 ** 2 - 2 * c2 * c4
        val = c1 - c2 ** 2 / denom * (mpmath.sqrt(disc) - c3)
        return float(val)


def random_state_and_hamiltonian(rng, n_qubits=4):
    dim = 1 << n_qubits
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hmat = (a + a.conj().T) / 2.0
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return v, hmat


def matrix_moments(v, hmat):
    cur = v
    out = []
    for _ in range(4):
        cur = hmat @ cur
        out.append(float(np.real(np.vdot(v, cur))))
    return MomentSet(*out)


# ---------------------------------------------------------------------------
# cumulants


def test_cumulants_of_eigenstate_vanish_beyond_first():
    for e in (-1.7, 0.0, 2.5):
        c = cumulants(MomentSet(e, e ** 2, e ** 3, e ** 4))
        assert c.c1 == pytest.approx(e, abs=1e-12)
        assert abs(c.c2) < 1e-12 and abs(c.c3) < 1e-12 and abs(c.c4) < 1e-12


def test_cumulants_hand_worked_example():
    c = cumulants(MomentSet(0.0, 1.0, 0.0, 1.0))
    assert c.as_tuple() == pytest.approx((0.0, 1.0, 0.0, -2.0), abs=1e-14)


def test_cumulants_match_recursive_evaluator_on_random_states():
    rng = np.random.default_rng(11)
    for _ in range(50):
        v, hmat = random_state_and_hamiltonian(rng)
        m = matrix_moments(v, hmat)
        got = cumulants(m).as_tuple()
        want = cumulants_recursive(m.as_tuple())
        assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_moment_variance_validation():
    validate_moments(MomentSet(0.5, 0.25, 0.1, 0.1))
    with pytest.raises(ValueError, match="negative variance"):
        validate_moments(MomentSet(1.0, 0.5, 0.1, 0.1))


# ---------------------------------------------------------------------------
# Lanczos energy


def test_eigenstate_fixed_point():
    for e in (-2.0, -0.5, 0.0, 3.25):
        assert lanczos_energy(CumulantSet(e, 0.0, 0.0, 0.0)) == \
            pytest.approx(e, abs=1e-12)


def test_hand_worked_plus_state():
    # H = Z, state |+>: exact ground energy -1
    c = cumulants(MomentSet(0.0, 1.0, 0.0, 1.0))
    assert c.as_tuple() == pytest.approx((0.0, 1.0, 0.0, -2.0), abs=1e-14)
    assert lanczos_energy(c) == pytest.approx(-1.0, abs=1e-12)


def test_hand_worked_biased_two_level_state():
    # H = Z, state sqrt(0.9)|0> + sqrt(0.1)|1>
    c = CumulantSet(0.8, 0.36, -0.576, 0.6624)
    assert lanczos_energy(c) == pytest.approx(-1.0, abs=1e-12)


def test_two_level_exactness_random_fixtures():
    rng = np.random.default_rng(23)
    for _ in range(100):
        e0, e1 = sorted(rng.normal(scale=2.0, size=2))
        if e1 - e0 < 0.1:
            continue  # keep c2 well above the zero-variance guard
        p = rng.uniform(0.05, 0.95)
        m = MomentSet(*[p * e0 ** k + (1 - p) * e1 ** k for k in (1, 2, 3, 4)])
        assert lanczos_energy(cumulants(m)) == pytest.approx(e0, abs=1e-9)


def test_matches_high_precision_evaluation_on_random_states():
    rng = np.random.default_rng(37)
    for _ in range(50):
        v, hmat = random_state_and_hamiltonian(rng)
        c = cumulants(matrix_moments(v, hmat))
        got = lanczos_energy(c)
        want = lanczos_mp(*c.as_tuple())
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_shift_covariance():
    rng = np.random.default_rng(41)
    v, hmat = random_state_and_hamiltonian(rng)
    m = matrix_moments(v, hmat)
    c = cumulants(m)
    e = lanczos_energy(c)
    for lam in rng.normal(scale=3.0, size=5):
        m_shift = matrix_moments(v, hmat + lam * np.eye(hmat.shape[0]))
        c_shift = cumulants(m_shift)
        assert c_shift.c1 == pytest.approx(c.c1 + lam, abs=1e-8)
        assert c_shift.c2 == pytest.approx(c.c2, abs=1e-8)
        assert c_shift.c3 == pytest.approx(c.c3, abs=1e-7)
        assert c_shift.c4 == pytest.approx(c.c4, abs=1e-6)
        assert lanczos_energy(c_shift) == pytest.approx(e + lam, abs=1e-7)


def test_scale_covariance():
    rng = np.random.default_rng(43)
    v, hmat = random_state_and_hamiltonian(rng)
    e = lanczos_energy(cumulants(matrix_moments(v, hmat)))
    for s in (0.5, 2.0, 7.3):
        e_scaled = lanczos_energy(cumulants(matrix_moments(v, s * hmat)))
        assert e_scaled == pytest.approx(s * e, rel=1e-9)


def test_degenerate_denominator_series_guard():
    # family with c3^2 - c2 c4 = delta approaching the indeterminate point;
    # the guard must agree with high-precision direct evaluation nearby and
    # be continuous at delta = 0
    c1, c2, c3 = 0.3, 0.7, 0.9
    limit = lanczos_energy(CumulantSet(c1, c2, c3, c3 ** 2 / c2))
    assert limit == pytest.approx(c1 - c2 ** 2 / c3, abs=1e-12)
    for delta in (1e-4, 1e-6, 1e-8, -1e-4, -1e-6, -1e-8):
        c4 = (c3 ** 2 - delta) / c2
        got = lanczos_energy(CumulantSet(c1, c2, c3, c4))
        want = lanczos_mp(c1, c2, c3, c4)
        assert got == pytest.approx(want, abs=1e-9)
        assert abs(got - limit) < 1.0 * abs(delta) + 1e-9


def test_degenerate_with_nonpositive_c3_raises():
    with pytest.raises(ValueError, match="diverges"):
        lanczos_energy(CumulantSet(0.0, 1.0, -0.5, 0.25))


def test_negative_c2_clamped_or_rejected():
    assert lanczos_energy(CumulantSet(0.4, -1e-12, 0.1, 0.1)) == \
        pytest.approx(0.4)
    with pytest.raises(ValueError, match="second cumulant"):
        lanczos_energy(CumulantSet(0.4, -0.2, 0.1, 0.1))


def test_negative_discriminant_rejected():
    # 3 c3^2 - 2 c2 c4 < 0 needs c2 c4 large and positive
    with pytest.raises(ValueError, match="discriminant"):
        lanczos_energy(CumulantSet(0.0, 1.0, 0.1, 5.0))


# ---------------------------------------------------------------------------
# moments from RDMs and statevectors


def test_identity_hamiltonian_moments_are_unity():
    ident = FermionOperator.identity(4)
    rdm = rdm_from_determinant((0, 1), 4, 2)
    m = moments_from_rdm(hamiltonian_powers(ident), rdm, 2)
    assert m.as_tuple() == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=1e-12)


def test_hf_determinant_moments_match_statevector_oracle():
    _, h, _ = h2_system()
    powers = hamiltonian_powers(h)
    rdm = rdm_from_determinant((0, 1), 4, 2)
    m = moments_from_rdm(powers, rdm, 2)
    oracle = moments_from_statevector(h, Statevector.basis_state(0b0011, 4))
    assert m.as_tuple() == pytest.approx(oracle.as_tuple(), abs=1e-9)


def test_random_sector_state_moments_match_oracle():
    _, h, _ = h2_system()
    powers = hamiltonian_powers(h)
    rng = np.random.default_rng(5)
    basis = sector_basis(4, 2, sz=0)
    for _ in range(10):
        amps = np.zeros(16, dtype=complex)
        coef = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        coef /= np.linalg.norm(coef)
        for mask, a in zip(basis, coef):
            amps[mask] = a
        state = Statevector(amps, 4)
        rdm = rdm_from_statevector(state, 2, 2)
        m = moments_from_rdm(powers, rdm, 2)
        oracle = moments_from_statevector(h, state)
        assert m.as_tuple() == pytest.approx(oracle.as_tuple(), abs=1e-9)
        validate_moments(m)


def test_moments_from_rdm_requires_four_powers():
    _, h, _ = h2_system()
    with pytest.raises(ValueError, match="four powers"):
        moments_from_rdm([h], rdm_from_determinant((0, 1), 4, 2), 2)


@pytest.mark.parametrize("which,n_electrons,detune", [
    ("h2", 2, 0.9),   # the single-excitation optimum is exact; detune it so
                      # both estimators carry a nonzero error
    ("h4", 4, 1.0),
])
def test_lanczos_closer_to_fci_than_h_expect(which, n_electrons, detune):
    _, h, ansatz = h2_system() if which == "h2" else h4_system()
    thetas = [detune * t for t in optimized_thetas(which)]
    state = exact_trial_state(ansatz.with_thetas(thetas))
    m = moments_from_statevector(h, state)
    e_l = lanczos_energy(cumulants(m))
    e_fci, _ = exact_diagonalize(h, n_electrons, sz=0)
    assert abs(e_l - e_fci) < abs(m.m1 - e_fci)


@pytest.mark.parametrize("which,n_electrons", [("h2", 2), ("h4", 4)])
def test_white_noise_robustness(which, n_electrons):
    _, h, ansatz = h2_system() if which == "h2" else h4_system()
    hmat = dense_fock_matrix(which)
    dim = hmat.shape[0]
    traces = [float(np.trace(np.linalg.matrix_power(hmat, p)).real) / dim
              for p in range(1, 5)]
    state = exact_trial_state(ansatz.with_thetas(optimized_thetas(which)))
    m0 = moments_from_statevector(h, state)
    e_l0 = lanczos_energy(cumulants(m0))
    for q in (0.05, 0.1, 0.2, 0.3):
        mq = MomentSet(*[(1 - q) * v + q * t
                         for v, t in zip(m0.as_tuple(), traces)])
        e_lq = lanczos_energy(cumulants(mq))
        assert abs(e_lq - e_l0) <= abs(mq.m1 - m0.m1)


# ---------------------------------------------------------------------------
# bootstrap


def _mean_z(stack):
    """Toy estimator: <Z> of the one-qubit counts table (a count-matrix
    row) of each resample in a stack."""
    return [{"z": (c[0] - c[1]) / c.sum()} for c in stack[:, 0]]


def test_bootstrap_deterministic_outcomes_have_zero_std():
    table = np.array([[1000, 0]])
    res = bootstrap(table, _mean_z, resamples=50, seed=3)
    assert res.stds["z"] == 0.0
    assert res.means["z"] == 1.0
    assert res.failures == 0


def test_bootstrap_std_scales_as_inverse_sqrt_shots():
    stds = []
    for shots in (10 ** 3, 10 ** 4, 10 ** 5):
        table = np.array([[shots // 2, shots - shots // 2]])
        res = bootstrap(table, _mean_z, resamples=300, seed=7)
        stds.append(res.stds["z"])
    for s_small, s_large in zip(stds, stds[1:]):
        ratio = s_small / s_large
        assert np.sqrt(10.0) / 1.5 < ratio < np.sqrt(10.0) * 1.5


def test_bootstrap_deterministic_given_seed():
    table = np.array([[600, 400]])
    r1 = bootstrap(table, _mean_z, resamples=40, seed=9)
    r2 = bootstrap(table, _mean_z, resamples=40, seed=9)
    assert r1.means == r2.means and r1.stds == r2.stds


def test_bootstrap_failure_fraction_aborts():
    table = np.array([[500, 500]])

    def flaky(stack):
        return [ValueError("always fails") for _ in stack]

    with pytest.raises(ValueError, match="failure fraction"):
        bootstrap(table, flaky, resamples=20, seed=1)


def test_bootstrap_partial_failures_reported():
    table = np.array([[500, 500]])
    calls = {"n": 0}

    def sometimes(stack):
        outcomes = []
        for outcome in _mean_z(stack):
            calls["n"] += 1
            outcomes.append(ValueError("one bad resample")
                            if calls["n"] == 1 else outcome)
        return outcomes

    res = bootstrap(table, sometimes, resamples=30, seed=2)
    assert res.failures == 1
    assert res.resamples == 30
    assert res.failure_reasons == {"one bad resample": 1}


@pytest.mark.parametrize("seed", [0, 7, 2024])
def test_bootstrap_draws_match_the_per_resample_loop(seed, monkeypatch):
    # the stacked draws are the per-resample loop's, byte for byte, when
    # the resamples (10) do not fill the last stack (4 per stack)
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 40, size=(5, 8)) * (rng.random((5, 8)) < 0.7)
    counts[:, 0] += 1
    stacks, matrices = [], []

    def stacked(stack):
        stacks.append(stack.copy())
        return [{"z": float(m[0, 0])} for m in stack]

    def one(matrix):
        matrices.append(matrix.copy())
        return {"z": float(matrix[0, 0])}

    monkeypatch.setattr(qcm, "STACK_ENTRIES", 4 * counts.size)
    got = bootstrap(counts, stacked, resamples=10, seed=seed)
    want = per_resample_bootstrap(counts, one, resamples=10, seed=seed)
    assert [len(s) for s in stacks] == [4, 4, 2]
    drawn = np.concatenate(stacks)
    assert drawn.dtype == np.stack(matrices).dtype
    assert drawn.tobytes() == np.stack(matrices).tobytes()
    assert got == want


def test_bootstrap_requires_two_resamples():
    table = np.array([[10, 0]])
    with pytest.raises(ValueError, match="resamples"):
        bootstrap(table, _mean_z, resamples=1, seed=0)


# ---------------------------------------------------------------------------
# energy-estimate container


def test_energy_estimate_rejects_negative_std():
    with pytest.raises(ValueError, match="nonnegative"):
        EnergyEstimate(-1.0, -1.0, std_h=-0.1)
