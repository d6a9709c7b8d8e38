"""Moment oracles (statevector moments and the variance condition) and the
per-resample bootstrap loop that ``qcm.bootstrap`` stacks."""
import numpy as np

from qcmoments.fermion import FermionOperator
from qcmoments.qcm import BootstrapResult, MomentSet
from qcmoments.simulator import Statevector, operator_matrix_in_sector


def moments_from_statevector(h: FermionOperator,
                             state: Statevector) -> MomentSet:
    """Oracle moments via the dense Fock-space matrix of H."""
    if h.n_modes != state.n_qubits:
        raise ValueError("mode-count mismatch")
    basis = list(range(1 << h.n_modes))
    mat = operator_matrix_in_sector(h, basis)
    vec = state.amplitudes
    vals = []
    cur = vec
    for _ in range(4):
        cur = mat @ cur
        vals.append(float(np.real(np.vdot(vec, cur))))
    return MomentSet(*vals)


def validate_moments(m: MomentSet, tol: float = 1e-9) -> MomentSet:
    """Variance nonnegativity; holds for moments of any valid state."""
    if m.m2 < m.m1 ** 2 - tol:
        raise ValueError(
            f"moment set has negative variance: m2 - m1^2 = "
            f"{m.m2 - m.m1 ** 2}")
    return m


def per_resample_bootstrap(counts, pipeline, resamples: int = 500,
                           seed: int = 0) -> BootstrapResult:
    """``qcm.bootstrap`` as it ran before it stacked its resamples: the
    same draws, one resample at a time, each through ``pipeline`` (one
    count matrix -> mapping of estimator name to value; a failure raises).
    The oracle for the draw stream and the statistics."""
    if resamples < 2:
        raise ValueError("resamples must be >= 2")
    counts = np.asarray(counts)
    children = np.random.SeedSequence(seed).spawn(resamples)
    supports = [np.flatnonzero(row) for row in counts]
    shots = counts.sum(axis=1)
    probs = []
    for row, support in zip(counts, supports):
        p = row[support].astype(float)
        probs.append(p / p.sum())
    flat = np.concatenate([i * counts.shape[1] + s
                           for i, s in enumerate(supports)])
    samples = []
    reasons: dict = {}
    for child in children:
        rng = np.random.default_rng(child)
        redrawn = np.zeros_like(counts)
        redrawn.flat[flat] = np.concatenate(
            [rng.multinomial(n, p) for n, p in zip(shots, probs)])
        try:
            samples.append(dict(pipeline(redrawn)))
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            reasons[str(exc)] = reasons.get(str(exc), 0) + 1
    failures = sum(reasons.values())
    if failures > 0.1 * resamples:
        raise ValueError(
            f"bootstrap failure fraction {failures}/{resamples} exceeds 10%")
    names = sorted(samples[0])
    means = {k: float(np.mean([s[k] for s in samples])) for k in names}
    stds = {k: float(np.std([s[k] for s in samples], ddof=1)) for k in names}
    return BootstrapResult(means, stds, resamples, failures, reasons)
