"""Counts post-processing and error mitigation.

Pipeline order: readout-error inversion (per-qubit assignment-matrix
inverses, from ``simulator.assignment_matrices`` of the flip rates on the
all-zeros and all-ones rows that ``analysis.sample_counts`` draws with the
basis tables), clipping of negative quasi-probabilities, symmetry
post-selection on electron number and S_z, RDM assembly from the
measurement plan, trace rescaling, N-representability reporting on a
density matrix, and a global white-noise calibration against a reference
state.

Each table step exists twice. The ``*_rows`` functions act on tables over
integer outcomes, one per row, and make up the compiled analysis
(:mod:`qcmoments.analysis`). They, ``calibration_from_counts`` and
``fit_white_noise_rate`` take leading stack axes: the bootstrap's resamples,
in stacks of ``qcm.STACK_ENTRIES`` counts, with each entry's own QREM
inverses broadcast. A failed check records its message in the entry's slot
of a ``failures`` list (:func:`fail`); only the scalar tail (moments,
cumulants, E_L) runs per matrix. The bitstring-dict functions (``apply_qrem``,
``clip_to_physical``, ``symmetry_postselect``, ``assemble_rdm``,
``rescale_rdm``) and ``mixed_state_value`` are the references that the
tests check the compiled path against.
"""
from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .fermion import FermionOperator, reversal_sign
from .planner import MeasurementPlan, product_value
from .rdm import RDM
from .simulator import (
    CountsTable, apply_1q, apply_terms, assignment_matrices, sector_basis,
)

# ---------------------------------------------------------------------------
# readout calibration and inversion


def fail(bad, message, failures):
    """Fail each stack entry (all axes of `bad` but the last) with a True in
    `bad` by message(k) of its first such flat index k, in the entry's slot
    of `failures` unless an earlier check has filled it."""
    rows = np.reshape(bad, (-1, np.shape(bad)[-1]))
    for i in np.flatnonzero(rows.any(axis=1)):
        k = i * rows.shape[1] + int(rows[i].argmax())
        failures[i] = failures[i] or message(k)


@dataclass
class AssignmentCalibration:
    """Per-qubit 2x2 readout assignment matrices and their inverses."""

    matrices: np.ndarray   # (..., n, 2, 2); column y holds p(read x | true y)
    inverses: np.ndarray
    failures: InitVar[list]

    def __post_init__(self, failures):
        self.matrices = np.asarray(self.matrices, dtype=float)
        self.inverses = np.asarray(self.inverses, dtype=float)
        fail(~np.isclose(self.matrices.sum(axis=-2), 1.0,
                         atol=1e-10).all(axis=-1),
             lambda k: "assignment matrix columns must sum to 1", failures)
        eye = np.einsum("...ij,...jk->...ik", self.inverses, self.matrices)
        fail(~np.isclose(eye, np.eye(2), atol=1e-10).all(axis=(-2, -1)),
             lambda k: "inverses do not match the assignment matrices",
             failures)

    @property
    def n_qubits(self) -> int:
        return self.matrices.shape[-3]

    @classmethod
    def from_flip_rates(cls, p01, p10, failures):
        """From flip rates (..., n); a singular qubit fails its entry."""
        p01, p10 = (np.atleast_1d(p).astype(float) for p in (p01, p10))
        singular = (1.0 - p01 - p10 <= 1e-9) | (p01 >= 0.5) | (p10 >= 0.5)
        fail(singular, lambda k: "assignment matrix singular on qubit "
             f"{k % p01.shape[-1]}: flip rates {p01.flat[k]:.3f}/"
             f"{p10.flat[k]:.3f}", failures)
        mats = assignment_matrices(p01, p10)
        mats[singular] = np.eye(2)     # a recorded failure; inv stays finite
        return cls(mats, np.linalg.inv(mats), failures)


def outcome_bits(n_qubits: int) -> np.ndarray:
    """(2^n, n) 0/1 matrix: entry (i, q) is bit q of outcome i."""
    return np.arange(1 << n_qubits)[:, None] >> np.arange(n_qubits) & 1


def calibration_from_counts(zeros, ones, failures):
    """Per-qubit flip rates from the count vectors (over integer outcomes,
    with optional stack axes) of an all-zeros and an all-ones preparation."""
    zeros, ones = np.asarray(zeros), np.asarray(ones)
    bits = outcome_bits(zeros.shape[-1].bit_length() - 1)
    p01 = zeros @ bits / zeros.sum(axis=-1, keepdims=True)
    p10 = ones @ (1 - bits) / ones.sum(axis=-1, keepdims=True)
    return AssignmentCalibration.from_flip_rates(p01, p10, failures)


def qrem_rows(probs: np.ndarray, cal: AssignmentCalibration) -> np.ndarray:
    """Readout inversion of each row (a distribution over integer outcomes)
    by the tensor product of the per-qubit inverses, one qubit at a time.
    Each stack entry of `probs` (..., rows, 2^n) gets its own inverses from
    `cal`."""
    if probs.shape[-1] != 1 << cal.n_qubits:
        raise ValueError("calibration does not cover all qubits")
    for q in range(cal.n_qubits):
        probs = apply_1q(probs, cal.inverses[..., q, :, :], q)
    return probs


def apply_qrem(counts: CountsTable, cal: AssignmentCalibration) -> dict:
    """Per-qubit inverse applied tensor-wise on the observed sparse support,
    over integer outcomes.

    Returns a bitstring -> quasi-probability dict (entries may be negative)
    in increasing outcome order, its strings printed most-significant qubit
    first. Reference for :func:`qrem_rows`.
    """
    n = cal.n_qubits
    if counts.outcomes[-1] >> n:
        raise ValueError("calibration does not cover all qubits")
    probs = {o: c / counts.shots
             for o, c in zip(counts.outcomes.tolist(), counts.counts.tolist())}
    for q in range(n):
        inv, bit = cal.inverses[q].tolist(), 1 << q
        out: dict = {}
        for o in set(probs) | {o ^ bit for o in probs}:
            row = inv[o >> q & 1]
            v = row[0] * probs.get(o & ~bit, 0.0) \
                + row[1] * probs.get(o | bit, 0.0)
            if v != 0.0:
                out[o] = v
        probs = out
    return {format(o, f"0{n}b"): probs[o] for o in sorted(probs)}


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


def clip_rows(quasi: np.ndarray, failures):
    """:func:`clip_to_physical` on every row of `quasi` (..., rows, 2^n).

    Returns the clipped rows and, per row, the negative mass zeroed over
    all iterations.
    """
    totals = quasi.sum(axis=-1)
    fail(np.abs(totals - 1.0) > CLIP_TOL, lambda k: "quasi-probabilities "
         f"sum to {totals.flat[k]}, not 1", failures)
    out = quasi.reshape(-1, quasi.shape[-1]).copy()
    clipped = np.zeros(len(out))
    stranded = np.zeros(len(out), dtype=bool)
    rows = np.flatnonzero((out < 0.0).any(axis=1))
    while rows.size:
        sub = out[rows]
        negative = sub < 0.0
        mass = np.where(negative, sub, 0.0).sum(axis=1)
        sub[negative] = 0.0
        positive = sub > 0.0
        n_positive = positive.sum(axis=1)
        stranded[rows[n_positive == 0]] = True
        fail(stranded.reshape(totals.shape), lambda k: "no positive "
             "probability mass to redistribute to", failures)
        np.add(sub, (mass / np.maximum(n_positive, 1))[:, None], out=sub,
               where=positive)
        out[rows] = sub
        clipped[rows] -= mass
        rows = rows[(sub < 0.0).any(axis=1)]
    out = out.reshape(quasi.shape)
    return out / out.sum(axis=-1, keepdims=True), clipped.reshape(totals.shape)


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
    `spins` labels each bit position as in :func:`symmetry_postselect`, and
    a (k x n) array of labels gives the k masks of its rows."""
    bits = outcome_bits(np.shape(spins)[-1])
    n_occ = bits.sum(axis=1)
    up = (np.asarray(spins) == "u").astype(int) @ bits.T
    return (n_occ == n_electrons) & (np.abs(up - 0.5 * n_occ - s_z) <= 1e-12)


def postselect_rows(probs: np.ndarray, masks: np.ndarray, failures):
    """Post-select row i of each stack entry of `probs` (..., rows, 2^n) on
    ``masks[i]`` and renormalize; returns the rows and acceptance rates."""
    accepted = np.where(masks, probs, 0.0)
    mass = accepted.sum(axis=-1)
    fail(mass <= 0.0,
         lambda k: "post-selection removed all probability mass", failures)
    return accepted / mass[..., None], mass / probs.sum(axis=-1)


# ---------------------------------------------------------------------------
# RDM assembly


def assemble_rdm(plan: MeasurementPlan, circuits, tables,
                 n_electrons: int) -> RDM:
    """Average decoded eigenvalue products into the canonical RDM storage.

    `circuits[p]` is the MeasurementCircuit of level-1 basis p, and
    `tables[i]` the (possibly mitigated) bitstring -> probability dict for
    plan basis i, which is decoded by its parent's circuit. Reference for
    the assembly map of :class:`qcmoments.analysis.Analyzer`.
    """
    if len(circuits) != len(plan.level1) or len(tables) != len(plan.bases):
        raise ValueError("circuits/tables do not match the plan")
    coverage = plan.coverage()
    # measured elements use ascending annihilation order; canonical RDM
    # storage applies annihilations in descending order
    reversal = reversal_sign(plan.order)
    # each table as (outcome indices, probabilities), decoded an array at once
    arrays = [None if t is None else
              (np.fromiter((int(bits, 2) for bits in t), np.int64, len(t)),
               np.fromiter(t.values(), float, len(t))) for t in tables]
    rdm = RDM(plan.order, plan.n_modes, n_electrons)
    for e in sorted(coverage):
        value = 0.0
        for b_idx, sign, factors in coverage[e]:
            mc = circuits[plan.bases[b_idx].parent]
            table = arrays[b_idx]
            if mc is None or table is None:
                raise ValueError(f"basis {b_idx} covering {e} is unavailable")
            outcomes, probs = table
            value += sign * float(np.sum(
                probs * product_value(mc, factors, outcomes)))
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


def fit_white_noise_rate(noisy_ref, ideal_ref, mixed_value, failures):
    """Least-squares white-noise rate q of noisy = (1 − q)·ideal + q·mixed.

    Arguments are scalars or arrays of matching shape (one entry per
    observable), and `noisy_ref` may carry stack axes. With d = mixed_value
    − ideal_ref, q̂ = Σ (noisy_ref − ideal_ref)·d / Σ d² (one ``np.vdot``
    per entry), which for scalars is (noisy_ref − ideal_ref)/d.
    Unresolvable when |d| <= ``WHITE_NOISE_RESOLUTION`` (the Euclidean
    norm for arrays); q̂ >= 1 fails its entry. Not clamped.
    """
    d = np.asarray(mixed_value, dtype=float) - ideal_ref
    noisy = np.asarray(noisy_ref) - ideal_ref
    stack = noisy.shape[:noisy.ndim - d.ndim]
    fail(np.full(stack + (1,), np.linalg.norm(d) <= WHITE_NOISE_RESOLUTION),
         lambda k: "reference elements equal the mixed-state values; "
         "white-noise rate is unresolvable", failures)
    q_hat = np.reshape([np.vdot(x, d) for x in noisy.reshape(-1, d.size)],
                       stack) / np.vdot(d, d)
    fail(q_hat[..., None] >= 1.0, lambda k: "estimated white-noise rate "
         f"{float(q_hat.flat[k])} >= 1", failures)
    return q_hat if stack else float(q_hat)


def reference_calibrate(noisy_trial, q_fit, mixed_value):
    """Invert a white-noise rate fitted on a reference state.

    q̂ is `q_fit` (from :func:`fit_white_noise_rate`), clamped to 0 with a
    warning when negative; corrected = (noisy_trial − q̂·mixed_value)/(1 − q̂),
    elementwise for arrays, by row for stacked q_fit. Returns (q̂, corrected).
    """
    q_fit = np.asarray(q_fit, dtype=float)
    for q in q_fit[q_fit < 0.0]:
        warnings.warn(f"estimated white-noise rate {q} clamped to 0")
    q_hat = np.where(q_fit < 0.0, 0.0, q_fit)
    scale = q_hat[..., None] if q_hat.ndim else q_hat
    return q_hat, (noisy_trial - scale * mixed_value) / (1.0 - scale)


def mixed_state_value(op: FermionOperator, n_electrons: int, sz=None,
                      spins=None) -> float:
    """Tr(op) / dim over the symmetry sector surviving post-selection."""
    basis = sector_basis(op.n_modes, n_electrons, sz=sz, spins=spins)
    if not basis:
        raise ValueError("empty symmetry sector")
    new, signs, alive = apply_terms(list(op.terms), basis)
    coeffs = np.array(list(op.terms.values()), dtype=complex)
    trace = coeffs @ np.sum(signs * (alive & (new == basis)), axis=1)
    return float(trace.real / len(basis))
