"""Hamiltonian moments, cumulants, and the Lanczos-corrected energy.

The ground-state estimate is built from the first four Hamiltonian moments
<H^p> of a trial state: moments are converted to cumulants c_1..c_4 by the
connected-moment recursion, and the analytic second-order Lanczos expansion

    E_L = c1 - c2^2/(c3^2 - c2 c4) (sqrt(3 c3^2 - 2 c2 c4) - c3)

gives an energy below <H> = c1 that is exact for eigenstates and for any
state over a two-eigenvalue Hamiltonian. Moments come from an assembled
reduced density matrix. Bootstrap resampling of the per-basis count tables
propagates shot noise through the full analysis pipeline, in stacks.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .fermion import FermionOperator, expectation_from_rdm, multiply
from .rdm import RDM

# ---------------------------------------------------------------------------
# domain types


@dataclass
class MomentSet:
    """First four Hamiltonian moments <H^p> (Ha, Ha^2, Ha^3, Ha^4)."""

    m1: float
    m2: float
    m3: float
    m4: float

    def as_tuple(self) -> tuple:
        return (self.m1, self.m2, self.m3, self.m4)


@dataclass
class CumulantSet:
    """Connected moments c_1..c_4 derived from a MomentSet."""

    c1: float
    c2: float
    c3: float
    c4: float

    def as_tuple(self) -> tuple:
        return (self.c1, self.c2, self.c3, self.c4)


@dataclass
class EnergyEstimate:
    """Both energy estimators with bootstrap uncertainties and provenance."""

    h_expect: float
    e_l: float
    std_h: float = 0.0
    std_el: float = 0.0
    q_hat: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.std_h < 0.0 or self.std_el < 0.0:
            raise ValueError("standard deviations must be nonnegative")

    def to_json(self) -> dict:
        return {
            "h_expect": float(self.h_expect),
            "e_l": float(self.e_l),
            "std_h": float(self.std_h),
            "std_el": float(self.std_el),
            "q_hat": float(self.q_hat),
            "metadata": self.metadata,
        }


# ---------------------------------------------------------------------------
# cumulants and the Lanczos energy


def cumulants(m: MomentSet) -> CumulantSet:
    """Connected-moment recursion, expanded in closed form.

    c_p = m_p - sum_{j=0}^{p-2} C(p-1, j) c_{j+1} m_{p-1-j}.
    """
    c1 = m.m1
    c2 = m.m2 - m.m1 ** 2
    c3 = m.m3 - 3.0 * m.m1 * m.m2 + 2.0 * m.m1 ** 3
    c4 = m.m4 - m.m1 * m.m3 - 3.0 * c2 * m.m2 - 3.0 * c3 * m.m1
    return CumulantSet(c1, c2, c3, c4)


def _cumulant_scale(c: CumulantSet) -> float:
    """Characteristic energy scale, for dimensionally consistent tolerances."""
    return max(1.0, abs(c.c1), abs(c.c2) ** 0.5, abs(c.c3) ** (1.0 / 3.0),
               abs(c.c4) ** 0.25)


#: relative tolerance, in units of the cumulant scale, below which c2, the
#: discriminant and the denominators of :func:`lanczos_energy` count as zero
LANCZOS_TOL = 1e-9


def lanczos_energy(c: CumulantSet) -> float:
    """Second-order Lanczos ground-state estimate from four cumulants.

    The closed form is an indeterminate 0/0 at c3^2 = c2 c4 (every eigenstate
    lands there). Writing D = 3 c3^2 - 2 c2 c4, the identity
    D - c3^2 = 2 (c3^2 - c2 c4) turns the correction into
    2 c2^2 / (sqrt(D) + c3) whenever c3 >= 0 -- an algebraically exact,
    cancellation-free form with no denominator singularity. For c3 < 0 the
    limit genuinely diverges, so a vanishing denominator is an error.
    """
    u = _cumulant_scale(c)
    c2 = c.c2
    if c2 < 0.0:
        if c2 < -LANCZOS_TOL * u * u:
            raise ValueError(f"negative second cumulant {c2}: "
                             "inconsistent or excessively noisy moments")
        c2 = 0.0
    if c2 < LANCZOS_TOL * u * u:
        return c.c1  # zero-variance state: already an eigenstate
    disc = 3.0 * c.c3 ** 2 - 2.0 * c2 * c.c4
    if disc < 0.0:
        if disc < -LANCZOS_TOL * u ** 6:
            raise ValueError(f"negative discriminant {disc}: "
                             "inconsistent or excessively noisy moments")
        disc = 0.0
    if c.c3 >= 0.0:
        denom = sqrt(disc) + c.c3
        if denom <= LANCZOS_TOL * u ** 3:
            raise ValueError(
                "degenerate cumulants with vanishing c3: the Lanczos "
                "correction diverges (inconsistent moments)")
        return c.c1 - 2.0 * c2 ** 2 / denom
    denom = c.c3 ** 2 - c2 * c.c4
    if abs(denom) <= LANCZOS_TOL * (c.c3 ** 2 + abs(c2 * c.c4)):
        raise ValueError(
            "degenerate cumulants with negative c3: the Lanczos "
            "correction diverges (inconsistent moments)")
    return c.c1 - c2 ** 2 / denom * (sqrt(disc) - c.c3)


# ---------------------------------------------------------------------------
# moments


def hamiltonian_powers(h: FermionOperator) -> list:
    """Normal-ordered [H, H^2, H^3, H^4]."""
    powers = [h]
    for _ in range(3):
        powers.append(multiply(powers[-1], h))
    return powers


def moments_from_rdm(h_powers, rdm: RDM, n_electrons: int) -> MomentSet:
    """Moments by contracting each normal-ordered power against the RDM.

    Terms of order above the electron number are exact zeros and are dropped
    inside the contraction. Reference for the linear moment map of
    :class:`qcmoments.analysis.Analyzer`.
    """
    if len(h_powers) != 4:
        raise ValueError("expected the four powers [H, H^2, H^3, H^4]")
    vals = [expectation_from_rdm(hp, rdm, n_electrons) for hp in h_powers]
    return MomentSet(*vals)


# ---------------------------------------------------------------------------
# bootstrap resampling


@dataclass
class BootstrapResult:
    means: dict
    stds: dict
    resamples: int
    failures: int
    #: message of each distinct failure -> number of resamples that hit it
    failure_reasons: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"means": {k: float(v) for k, v in sorted(self.means.items())},
                "stds": {k: float(v) for k, v in sorted(self.stds.items())},
                "resamples": self.resamples, "failures": self.failures,
                "failure_reasons": dict(sorted(self.failure_reasons.items()))}


#: count entries per stack handed to the pipeline: one stack holds 100 H2
#: resamples (19,200 entries), and an H4 resample (102,912) is alone
STACK_ENTRIES = 1 << 17


def bootstrap(counts, pipeline, resamples: int = 500,
              seed: int = 0) -> BootstrapResult:
    """Multinomial resampling of per-basis counts through a full pipeline.

    ``counts`` is an integer matrix with one table per row, indexed by
    integer outcome. Each resample independently redraws every row at its
    own shot count over the row's observed support, in ascending outcome
    order (bases are measured in separate runs, so there are no cross-basis
    correlations to preserve). ``pipeline`` (``Analyzer.analyze_stack``:
    one table-stage pass per stack, the scalar tail per matrix) takes the
    redrawn matrices in stacks (R x rows x outcomes) of at most
    ``STACK_ENTRIES`` entries (or one matrix) and returns per matrix a
    mapping of estimator name to value or the exception it fails with.
    Failed resamples are recorded by message and excluded; more than 10%
    failures aborts. Deterministic for a fixed seed, whatever the stack.
    """
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
    per_stack = max(1, STACK_ENTRIES // counts.size)
    samples = []
    reasons: dict = {}
    for start in range(0, resamples, per_stack):
        chunk = children[start:start + per_stack]
        redrawn = np.zeros((len(chunk),) + counts.shape, dtype=counts.dtype)
        for matrix, rng in zip(redrawn, map(np.random.default_rng, chunk)):
            matrix.flat[flat] = np.concatenate(
                [rng.multinomial(n, p) for n, p in zip(shots, probs)])
        for outcome in pipeline(redrawn):
            if isinstance(outcome, Exception):
                reasons[str(outcome)] = reasons.get(str(outcome), 0) + 1
            else:
                samples.append(dict(outcome))
    failures = sum(reasons.values())
    if failures > 0.1 * resamples:
        raise ValueError(
            f"bootstrap failure fraction {failures}/{resamples} exceeds 10%")
    names = sorted(samples[0])
    means = {k: float(np.mean([s[k] for s in samples])) for k in names}
    stds = {k: float(np.std([s[k] for s in samples], ddof=1)) for k in names}
    return BootstrapResult(means, stds, resamples, failures, reasons)
