"""Counts post-processing and error mitigation.

Pipeline order: readout-error inversion (per-qubit assignment-matrix
inverses), clipping of negative quasi-probabilities, symmetry post-selection
on electron number and S_z, RDM assembly from the measurement plan, trace
rescaling, N-representability reporting on a density matrix, and a global
white-noise calibration against a reference state.

Each table step exists twice. The ``*_rows`` functions act on a matrix with
one table per row over integer outcomes and make up the compiled analysis
(:mod:`qcmoments.analysis`). The bitstring-dict functions (``apply_qrem``,
``clip_to_physical``, ``symmetry_postselect``, ``assemble_rdm``,
``rescale_rdm``) and ``mixed_state_value`` are the references that the tests
check the compiled path against.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fermion import FermionOperator
from .planner import MeasurementPlan, product_value
from .rdm import RDM
from .simulator import (
    CountsTable, NoiseSpec, apply_1q, apply_term_to_mask,
    noisy_distribution, sample, sector_basis,
)

# ---------------------------------------------------------------------------
# readout calibration and inversion


@dataclass
class AssignmentCalibration:
    """Per-qubit 2x2 readout assignment matrices and their inverses."""

    matrices: np.ndarray   # shape (n, 2, 2); column y holds p(read x | true y)
    inverses: np.ndarray

    def __post_init__(self):
        self.matrices = np.asarray(self.matrices, dtype=float)
        self.inverses = np.asarray(self.inverses, dtype=float)
        n = self.matrices.shape[0]
        if not np.allclose(self.matrices.sum(axis=1), 1.0, atol=1e-10):
            raise ValueError("assignment matrix columns must sum to 1")
        eye = np.einsum("nij,njk->nik", self.inverses, self.matrices)
        if not np.allclose(eye, np.broadcast_to(np.eye(2), (n, 2, 2)),
                           atol=1e-10):
            raise ValueError("inverses do not match the assignment matrices")

    @property
    def n_qubits(self) -> int:
        return self.matrices.shape[0]

    @classmethod
    def from_flip_rates(cls, p01, p10) -> "AssignmentCalibration":
        p01, p10 = np.atleast_1d(p01).astype(float), \
            np.atleast_1d(p10).astype(float)
        n = p01.size
        mats = np.empty((n, 2, 2))
        for q in range(n):
            det = 1.0 - p01[q] - p10[q]
            if det <= 1e-9 or p01[q] >= 0.5 or p10[q] >= 0.5:
                raise ValueError(
                    f"assignment matrix singular on qubit {q}: "
                    f"flip rates {p01[q]:.3f}/{p10[q]:.3f}")
            mats[q] = [[1 - p01[q], p10[q]], [p01[q], 1 - p10[q]]]
        invs = np.linalg.inv(mats)
        return cls(mats, invs)


def outcome_bits(n_qubits: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: entry (i, q) is bit q of outcome i."""
    return np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits) & 1


def calibration_from_counts(zeros, ones) -> AssignmentCalibration:
    """Per-qubit flip rates from the count vectors (over integer outcomes)
    of an all-zeros and an all-ones preparation."""
    zeros, ones = np.asarray(zeros), np.asarray(ones)
    bits = outcome_bits(zeros.size.bit_length() - 1)
    p01 = zeros @ bits / zeros.sum()
    p10 = ones @ (1 - bits) / ones.sum()
    return AssignmentCalibration.from_flip_rates(p01, p10)


def sample_calibration(noise: NoiseSpec, n_qubits: int, shots: int,
                       seeds) -> np.ndarray:
    """Count vectors (rows, over integer outcomes) of an all-zeros and an
    all-ones preparation, sampled with ``seeds[0]`` and ``seeds[1]``. The
    preparations are gate-free, so they see the readout flips of ``noise``
    only."""
    readout = NoiseSpec(readout_flip=noise.readout_flip)
    ideal = np.zeros((2, 1 << n_qubits))
    ideal[0, 0] = ideal[1, -1] = 1.0
    rows = noisy_distribution(ideal, readout, (0, 0))
    return np.array([sample(p, shots, seed=seed).vector(n_qubits)
                     for p, seed in zip(rows, seeds)])


def qrem_rows(probs: np.ndarray, cal: AssignmentCalibration) -> np.ndarray:
    """Readout inversion of each row (a distribution over integer outcomes)
    by the tensor product of the per-qubit inverses, one qubit at a time."""
    if probs.shape[1] != 1 << cal.n_qubits:
        raise ValueError("calibration does not cover all qubits")
    for q, inv in enumerate(cal.inverses):
        probs = apply_1q(probs, inv, q)
    return probs


def _flip_bit(bits: str, q: int) -> str:
    i = len(bits) - 1 - q
    return bits[:i] + ("0" if bits[i] == "1" else "1") + bits[i + 1:]


def apply_qrem(counts: CountsTable, cal: AssignmentCalibration) -> dict:
    """Per-qubit inverse applied tensor-wise on the observed sparse support.

    Returns a bitstring -> quasi-probability dict (entries may be negative),
    its strings printed most-significant qubit first. Reference for
    :func:`qrem_rows`.
    """
    n = cal.n_qubits
    if counts.outcomes[-1] >> n:
        raise ValueError("calibration does not cover all qubits")
    probs = {format(o, f"0{n}b"): c / counts.shots
             for o, c in zip(counts.outcomes.tolist(), counts.counts.tolist())}
    for q in range(n):
        inv = cal.inverses[q]
        out: dict = {}
        for bits in set(probs) | {_flip_bit(b, q) for b in probs}:
            b = int(bits[-1 - q])
            v = inv[b, 0] * probs.get(bits if b == 0 else _flip_bit(bits, q),
                                      0.0) \
                + inv[b, 1] * probs.get(bits if b == 1 else _flip_bit(bits, q),
                                        0.0)
            if v != 0.0:
                out[bits] = v
        probs = out
    return probs


#: largest deviation from 1 allowed of a quasi-distribution's total
CLIP_TOL = 1e-6


def clip_to_physical(quasi: dict) -> dict:
    """Zero negative entries, redistributing their mass evenly over the
    remaining positive entries, iterated to a fixed point.

    Reference for :func:`clip_rows`.
    """
    total = sum(quasi.values())
    if abs(total - 1.0) > CLIP_TOL:
        raise ValueError(f"quasi-probabilities sum to {total}, not 1")
    entries = dict(sorted(quasi.items()))
    removed = set()
    while True:
        negatives = [b for b, v in entries.items() if v < 0.0]
        if not negatives:
            break
        mass = sum(entries[b] for b in negatives)
        for b in negatives:
            entries[b] = 0.0
            removed.add(b)
        positive = [b for b, v in entries.items()
                    if v > 0.0 and b not in removed]
        if not positive:
            raise ValueError("no positive probability mass to redistribute to")
        share = mass / len(positive)
        for b in positive:
            entries[b] += share
    norm = sum(entries.values())
    return {b: v / norm for b, v in entries.items()}


def clip_rows(quasi: np.ndarray):
    """:func:`clip_to_physical` on every row at once.

    Returns the clipped rows and, per row, the negative mass zeroed over
    all iterations.
    """
    totals = quasi.sum(axis=1)
    bad = np.flatnonzero(np.abs(totals - 1.0) > CLIP_TOL)
    if bad.size:
        raise ValueError(f"quasi-probabilities sum to {totals[bad[0]]}, not 1")
    out = quasi.copy()
    clipped = np.zeros(len(out))
    rows = np.flatnonzero((out < 0.0).any(axis=1))
    while rows.size:
        sub = out[rows]
        negative = sub < 0.0
        mass = np.where(negative, sub, 0.0).sum(axis=1)
        sub[negative] = 0.0
        positive = sub > 0.0
        n_positive = positive.sum(axis=1)
        if not n_positive.all():
            raise ValueError("no positive probability mass to redistribute to")
        sub = np.where(positive, sub + (mass / n_positive)[:, None], sub)
        out[rows] = sub
        clipped[rows] -= mass
        rows = rows[(sub < 0.0).any(axis=1)]
    return out / out.sum(axis=1, keepdims=True), clipped


def symmetry_postselect(probs: dict, n_electrons: int, s_z: float,
                        spins) -> tuple[dict, float]:
    """Keep outcomes with the right electron number and S_z; renormalize.

    `spins` labels each bit position ("u"/"d") in the measured register.
    Reference for :func:`postselect_mask` with :func:`postselect_rows`.
    """
    accepted = {}
    total = 0.0
    for bits, p in probs.items():
        total += p
        occ = [q for q in range(len(bits)) if bits[-1 - q] == "1"]
        if len(occ) != n_electrons:
            continue
        up = sum(1 for q in occ if spins[q] == "u")
        if abs(0.5 * (up - (len(occ) - up)) - s_z) > 1e-12:
            continue
        accepted[bits] = p
    mass = sum(accepted.values())
    if mass <= 0.0:
        raise ValueError("post-selection removed all probability mass")
    rate = mass / total
    return {b: p / mass for b, p in accepted.items()}, rate


def postselect_mask(n_electrons: int, s_z: float, spins) -> np.ndarray:
    """Outcomes (integer indices) with the right electron number and S_z;
    `spins` labels each bit position as in :func:`symmetry_postselect`."""
    bits = outcome_bits(len(spins))
    n_occ = bits.sum(axis=1)
    up = bits @ np.array([s == "u" for s in spins], dtype=int)
    return (n_occ == n_electrons) & (np.abs(up - 0.5 * n_occ - s_z) <= 1e-12)


def postselect_rows(probs: np.ndarray, masks: np.ndarray):
    """Post-select row i on ``masks[i]`` and renormalize; returns the rows
    and their acceptance rates."""
    accepted = np.where(masks, probs, 0.0)
    mass = accepted.sum(axis=1)
    if (mass <= 0.0).any():
        raise ValueError("post-selection removed all probability mass")
    return accepted / mass[:, None], mass / probs.sum(axis=1)


# ---------------------------------------------------------------------------
# RDM assembly


def assemble_rdm(plan: MeasurementPlan, circuits, tables,
                 n_electrons: int) -> RDM:
    """Average decoded eigenvalue products into the canonical RDM storage.

    `circuits[i]` is the MeasurementCircuit and `tables[i]` the (possibly
    mitigated) bitstring -> probability dict for plan basis i. Reference for
    the assembly map of :class:`qcmoments.analysis.Analyzer`.
    """
    if len(circuits) != len(plan.bases) or len(tables) != len(plan.bases):
        raise ValueError("per-basis circuits/tables do not match the plan")
    order = next(iter(plan.coverage)).order if plan.coverage else 0
    # measured elements use ascending annihilation order; canonical RDM
    # storage applies annihilations in descending order
    reversal = -1.0 if (order * (order - 1) // 2) % 2 else 1.0
    rdm = RDM(order, plan.n_modes, n_electrons)
    for e in sorted(plan.coverage):
        value = 0.0
        for b_idx, sign, factors in plan.coverage[e]:
            mc, table = circuits[b_idx], tables[b_idx]
            if mc is None or table is None:
                raise ValueError(f"basis {b_idx} covering {e} is unavailable")
            mean = sum(p * product_value(mc, factors, int(bits, 2))
                       for bits, p in table.items())
            value += sign * mean
        rdm.set(e.creations, e.annihilations, reversal * value)
    return rdm


def rescale_rdm(rdm: RDM) -> RDM:
    """Scale so the trace matches C(N_e, p) exactly.

    Reference for the rescale step of :class:`qcmoments.analysis.Analyzer`.
    """
    ideal = rdm.ideal_trace()
    actual = rdm.trace()
    if abs(actual) < 1e-6 * ideal:
        raise ValueError(f"RDM trace {actual} too close to zero to rescale")
    return rdm.scaled(ideal / actual)


def check_representability(density: np.ndarray, ideal_trace: float) -> dict:
    """Necessary N-representability conditions of a Hermitian density
    matrix: the deviation of its trace from `ideal_trace` and its smallest
    eigenvalue. Reporting only, never mutates."""
    return {"trace_residual": float(abs(np.trace(density).real
                                        - ideal_trace)),
            "min_eigenvalue": float(np.linalg.eigvalsh(density)[0])}


# ---------------------------------------------------------------------------
# global white-noise calibration


#: norm of mixed_value - ideal_ref at or below which the white-noise rate
#: counts as unresolvable
WHITE_NOISE_RESOLUTION = 1e-6


def fit_white_noise_rate(noisy_ref, ideal_ref, mixed_value) -> float:
    """Least-squares white-noise rate q of noisy = (1 − q)·ideal + q·mixed.

    Arguments are scalars or arrays of matching shape (one entry per
    observable). With d = mixed_value − ideal_ref,
    q̂ = Σ (noisy_ref − ideal_ref)·d / Σ d², which for scalars is
    (noisy_ref − ideal_ref)/d. Unresolvable when |d| <=
    ``WHITE_NOISE_RESOLUTION`` (the Euclidean norm for arrays); q̂ >= 1 is
    an error. Not clamped.
    """
    d = np.asarray(mixed_value, dtype=float) - ideal_ref
    if np.linalg.norm(d) <= WHITE_NOISE_RESOLUTION:
        raise ValueError("reference elements equal the mixed-state values; "
                         "white-noise rate is unresolvable")
    q_hat = float(np.vdot(np.asarray(noisy_ref) - ideal_ref, d)
                  / np.vdot(d, d))
    if q_hat >= 1.0:
        raise ValueError(f"estimated white-noise rate {q_hat} >= 1")
    return q_hat


def reference_calibrate(noisy_trial, q_fit, mixed_value):
    """Invert a white-noise rate fitted on a reference state.

    q̂ is `q_fit` (from :func:`fit_white_noise_rate`), clamped to 0 with a
    warning when negative; corrected = (noisy_trial − q̂·mixed_value)/(1 − q̂),
    elementwise for arrays. Returns (q̂, corrected).
    """
    if q_fit < 0.0:
        warnings.warn(f"estimated white-noise rate {q_fit} clamped to 0")
        q_fit = 0.0
    return q_fit, (noisy_trial - q_fit * mixed_value) / (1.0 - q_fit)


def mixed_state_value(op: FermionOperator, n_electrons: int, sz=None,
                      spins=None) -> float:
    """Tr(op) / dim over the symmetry sector surviving post-selection."""
    basis = sector_basis(op.n_modes, n_electrons, sz=sz, spins=spins)
    if not basis:
        raise ValueError("empty symmetry sector")
    trace = 0.0
    for (dags, anns), c in op.terms.items():
        if sorted(dags) != sorted(anns):
            continue  # no diagonal entries
        for mask in basis:
            res = apply_term_to_mask(dags, anns, mask)
            if res is not None:
                trace += res[1] * c
    return float(trace.real / len(basis))

