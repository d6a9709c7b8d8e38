"""Compiled analysis of a counts archive: mitigation, RDM assembly, moments
and energies as array maps over integer outcomes.

An archive is loaded into one (tables x 2^n) integer count matrix with rows
[calibration zeros, calibration ones, trial basis 0..B-1, reference basis
0..B-1]; column i counts the outcome whose bit q is qubit q's reading.
:class:`Analyzer` compiles, once per plan and Hamiltonian, every map that
an analysis needs:

- post-selection: one boolean outcome mask per basis;
- RDM assembly: (element, flat outcome index, eigenvalue) triplets, so one
  ``np.bincount`` assembles every element of a group of bases;
- moments: each <H^p> as a constant plus a weight vector over the element
  values, found by pushing every term of H^p down the contraction ladder
  once; the trace and the white-noise fit are linear in the same values.

Each analysis then applies QREM qubit by qubit, clips, post-selects,
assembles and contracts with array operations. The dict-path functions
(``mitigation.apply_qrem``, ``clip_to_physical``, ``symmetry_postselect``,
``assemble_rdm``, ``rescale_rdm``, ``qcm.moments_from_rdm``,
``fermion.expectation_from_rdm``, ``RDM.contract``) are the references that
the tests check this path against.
"""
from __future__ import annotations

import json
import os
import warnings
from math import comb

import numpy as np

from .config import ConfigError, PipelineConfig
from .conventions import sz_of
from .fermion import FermionOperator
from .mitigation import (
    calibration_from_counts, check_representability, clip_rows,
    fit_white_noise_rate, mixed_state_value, postselect_mask,
    postselect_rows, qrem_rows, reference_calibrate,
)
from .planner import MeasurementPlan, product_value
from .qcm import CumulantSet, MomentSet, cumulants, lanczos_energy
from .rdm import RDM, _sort_signed, rdm_from_determinant
from .simulator import CountsTable

ABLATION_STACKS = [
    ("raw", {}),
    ("qrem", {"qrem": True, "clip": True}),
    ("postselect", {"qrem": True, "clip": True, "postselect": True}),
    ("rescale", {"qrem": True, "clip": True, "postselect": True,
                 "rescale": True}),
    ("calibrated", {"qrem": True, "clip": True, "postselect": True,
                    "rescale": True, "calibrate": True}),
]

# ---------------------------------------------------------------------------
# archive loading


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read archive file {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"archive file {path} is not valid JSON: {exc}") \
            from exc


def load_archive(archive_dir):
    """(manifest, plan, count matrix) of a ``run`` archive.

    Every fault in the archive (a missing file or manifest key, bad JSON, a
    malformed outcome or count, a shot total other than the manifest's, a
    plan that disagrees with the manifest) raises ConfigError.
    """
    manifest = _read_json(os.path.join(archive_dir, "manifest.json"))
    plan_path = os.path.join(archive_dir, "plan.json")
    try:
        plan = MeasurementPlan.from_json(_read_json(plan_path))
    except (ValueError, KeyError, IndexError, TypeError,
            AttributeError) as exc:
        raise ConfigError(f"archive plan {plan_path} is malformed: {exc!r}") \
            from exc
    try:
        files = manifest["files"]
        n_bases = manifest["n_bases"]
        shots = manifest["shots_per_basis"]
        n_qubits = manifest["n_qubits"]
        layout = list(manifest["layout"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"archive manifest lacks {exc}") from exc
    if n_bases != len(plan.bases) or n_qubits != plan.n_modes:
        raise ConfigError(
            f"archive manifest ({n_bases} bases, {n_qubits} qubits) "
            f"disagrees with its plan ({len(plan.bases)} bases, "
            f"{plan.n_modes} modes)")
    if not all(isinstance(m, int) for m in layout) or \
            sorted(layout) != list(range(plan.n_modes)):
        raise ConfigError(f"archive layout {layout} is not a permutation "
                          f"of the {plan.n_modes} modes")
    if not isinstance(shots, int) or shots < 1:
        raise ConfigError(f"archive shots_per_basis {shots!r} is not a "
                          "positive integer")
    try:
        names = [files["calibration_zeros"], files["calibration_ones"]]
        names += [files[f"{which}_{i}"] for which in ("trial", "reference")
                  for i in range(n_bases)]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"archive manifest lacks file {exc}") from exc
    counts = np.zeros((len(names), 1 << plan.n_modes), dtype=np.int64)
    for row, name in zip(counts, names):
        path = os.path.join(archive_dir, name)
        obj = _read_json(path)
        try:
            table = CountsTable.from_json(obj)
            row[:] = table.vector(plan.n_modes)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ConfigError(f"archive file {path}: {exc!r}") from exc
        if table.shots != shots:
            raise ConfigError(f"archive file {path} holds {table.shots} "
                              f"shots, not {shots}")
    return manifest, plan, counts


# ---------------------------------------------------------------------------
# compilation


def position_spins(mc, spins, n_qubits):
    """Spin label of each measured bit position after routing."""
    pos_spins = [None] * n_qubits
    for mode, pos in mc.mode_positions.items():
        pos_spins[pos] = spins[mode]
    for lo, hi, mode_lo in mc.site_positions.values():
        pos_spins[lo] = pos_spins[hi] = spins[mode_lo]  # same-spin pairs
    return pos_spins


def _assembly_map(plan, circuits, elements, order):
    """(element, flat outcome index, weight) triplets: element k's value is
    the sum of weight * probs.flat[index] over its triplets, where probs is
    the (bases x 2^n) matrix of mitigated distributions."""
    outcomes = np.arange(1 << plan.n_modes)
    # measured elements use ascending annihilation order; canonical RDM
    # storage applies annihilations in descending order
    reversal = -1.0 if (order * (order - 1) // 2) % 2 else 1.0
    elem, flat, weight = [], [], []
    for k, e in enumerate(elements):
        for b_idx, sign, factors in plan.coverage[e]:
            values = product_value(circuits[b_idx], factors, outcomes)
            nonzero = np.flatnonzero(values)
            elem.append(np.full(nonzero.size, k))
            flat.append(b_idx * outcomes.size + nonzero)
            weight.append(reversal * sign * values[nonzero])
    return np.concatenate(elem), np.concatenate(flat), np.concatenate(weight)


def _moment_map(h_powers, elements, order, n_modes, n_electrons):
    """(weights, constants, errors) with <H^k> = constants[k] +
    weights[k] . v for element values v (RDM entries in `elements` order).

    Follows fermion.expectation_from_rdm term by term: a term of order
    q < p is read from the RDM contracted p - q times, so its coefficient is
    pushed up the contraction ladder (over the repeated index, with the
    sorting sign and the 1/(N_e - q) prefactor of RDM.contract) until it
    lands on order-p elements. errors[k] is the ValueError message that
    evaluating power k raises on any RDM, or None.
    """
    index = {}
    for k, e in enumerate(elements):
        index[e.creations, e.annihilations] = k
        index[e.annihilations, e.creations] = k
    weights = np.zeros((len(h_powers), len(elements)), dtype=complex)
    constants = np.zeros(len(h_powers), dtype=complex)
    errors = [None] * len(h_powers)
    if n_electrons < order:
        return weights, constants, [
            "contraction undefined: N_e <= target order"] * len(h_powers)
    for k, hp in enumerate(h_powers):
        levels = [{} for _ in range(order + 1)]
        for (dags, anns), c in hp.terms.items():
            if len(dags) != len(anns):
                continue  # zero on fixed-particle-number states
            q = len(dags)
            if q > order:
                if q > n_electrons:
                    continue
                errors[k] = (f"order-{q} term needs an order-{q} RDM "
                             f"(have {order}, N_e = {n_electrons})")
                break
            if q == 0:
                constants[k] += c
                continue
            sign = -1 if (q * (q - 1) // 2) % 2 else 1
            levels[q][dags, anns] = levels[q].get((dags, anns), 0) + c * sign
        for q in range(1, order):
            upper = levels[q + 1]
            for (sub, sup), w in levels[q].items():
                for l in range(n_modes):
                    if l in sub or l in sup:
                        continue
                    sub2, s1 = _sort_signed(sub + (l,))
                    sup2, s2 = _sort_signed(sup + (l,))
                    upper[sub2, sup2] = upper.get((sub2, sup2), 0) + \
                        w * (s1 * s2) / (n_electrons - q)
        for key, w in levels[order].items():
            j = index.get(key)
            if j is not None:
                weights[k, j] += w
    return weights, constants, errors


class Analyzer:
    """Counts -> energies, compiled once per plan and Hamiltonian and
    reusable for every mitigation stack and bootstrap resample.

    ``analyze`` takes a count matrix with rows [calibration zeros,
    calibration ones, trial basis 0..B-1, reference basis 0..B-1].
    """

    def __init__(self, cfg: PipelineConfig, plan: MeasurementPlan,
                 circuits, n_electrons: int, h_powers):
        if len(h_powers) != 4:
            raise ValueError("expected the four powers [H, H^2, H^3, H^4]")
        self.cfg = cfg
        self.n_qubits = n = plan.n_modes
        self.n_bases = len(plan.bases)
        self.n_electrons = n_electrons
        self.spins = plan.spins
        occ = tuple(range(n_electrons))
        self.sz = sz_of(occ, self.spins)
        self.elements = sorted(plan.coverage)
        self.order = self.elements[0].order
        self.masks = np.array([
            postselect_mask(n_electrons, self.sz,
                            position_spins(mc, self.spins, n))
            for mc in circuits])
        self._elem, self._flat, self._weight = _assembly_map(
            plan, circuits, self.elements, self.order)
        self._diagonal = np.array([e.creations == e.annihilations
                                   for e in self.elements])
        self._moment_weights, self._moment_constants, self._moment_errors = \
            _moment_map(h_powers, self.elements, self.order, n, n_electrons)
        ideal = rdm_from_determinant(occ, n, self.order)
        self.ideal_ref = np.array([ideal.get(e.creations, e.annihilations).real
                                   for e in self.elements])
        self._mixed = None

    def mixed_values(self) -> np.ndarray:
        """Each element's value in the maximally mixed post-selected state."""
        if self._mixed is None:
            self._mixed = np.array([
                mixed_state_value(
                    FermionOperator.from_ops(
                        self.n_qubits,
                        [(s, True) for s in e.creations]
                        + [(t, False) for t in reversed(e.annihilations)]),
                    self.n_electrons, sz=self.sz, spins=self.spins)
                for e in self.elements])
        return self._mixed

    def assemble(self, probs: np.ndarray) -> np.ndarray:
        """Element values from the (bases x 2^n) mitigated distributions."""
        return np.bincount(self._elem,
                           weights=probs.ravel()[self._flat] * self._weight,
                           minlength=len(self.elements))

    def rescale(self, values: np.ndarray) -> np.ndarray:
        """Scale so the trace matches C(N_e, p), as mitigation.rescale_rdm."""
        ideal = float(comb(self.n_electrons, self.order))
        actual = float(values[self._diagonal].sum())
        if abs(actual) < 1e-6 * ideal:
            raise ValueError(f"RDM trace {actual} too close to zero to "
                             "rescale")
        return values * (ideal / actual)

    def moments(self, values: np.ndarray) -> MomentSet:
        """The four moments, as qcm.moments_from_rdm on the same RDM."""
        totals = self._moment_weights @ values + self._moment_constants
        for total, error in zip(totals, self._moment_errors):
            if error is not None:
                raise ValueError(error)
            if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
                raise ValueError(f"non-negligible imaginary expectation "
                                 f"{total}")
        return MomentSet(*(float(t.real) for t in totals))

    def rdm(self, values: np.ndarray) -> RDM:
        out = RDM(self.order, self.n_qubits, self.n_electrons)
        for e, v in zip(self.elements, values):
            out.set(e.creations, e.annihilations, v)
        return out

    def element_values(self, counts, mitigation=None, diagnostics=False):
        """Mitigated trial RDM element values (in ``elements`` order), q̂,
        and with ``diagnostics`` a dict of per-basis post-selection
        acceptance and clipped mass, the unclamped fitted q̂ and whether it
        was clamped (None without diagnostics)."""
        mit = dict(self.cfg.mitigation if mitigation is None else mitigation)
        cal = calibration_from_counts(counts[0], counts[1]) \
            if mit.get("qrem") else None
        n_bases = self.n_bases
        values, acceptance, clipped = {}, {}, {}
        for which, start in (("trial", 2), ("reference", 2 + n_bases)):
            block = counts[start:start + n_bases]
            probs = block / block.sum(axis=1, keepdims=True)
            clipped[which] = np.zeros(n_bases)
            if cal is not None:
                probs = qrem_rows(probs, cal)
                if mit.get("clip"):
                    probs, clipped[which] = clip_rows(probs)
            acceptance[which] = np.ones(n_bases)
            if mit.get("postselect"):
                probs, acceptance[which] = postselect_rows(probs, self.masks)
            values[which] = self.assemble(probs)
            if mit.get("rescale"):
                values[which] = self.rescale(values[which])
        v = values["trial"]
        q_hat = 0.0
        if mit.get("calibrate"):
            # the main analysis warns when q̂ is clamped; the ablation
            # stacks and bootstrap resamples stay quiet
            with warnings.catch_warnings():
                if not diagnostics:
                    warnings.simplefilter("ignore")
                q_hat, corrected = reference_calibrate(
                    v, values["reference"], self.ideal_ref,
                    self.mixed_values(), tolerance=1e-6)
            if q_hat > 0.0:
                v = corrected
                if mit.get("rescale"):
                    v = self.rescale(v)
        if not diagnostics:
            return v, q_hat, None
        q_fit = fit_white_noise_rate(
            values["reference"], self.ideal_ref, self.mixed_values(),
            tolerance=1e-6) if mit.get("calibrate") else None
        return v, q_hat, {
            "acceptance": {k: [float(x) for x in r]
                           for k, r in acceptance.items()},
            "clipped_mass": {k: [float(x) for x in r]
                             for k, r in clipped.items()},
            "q_hat_fit": q_fit,
            "q_hat_clamped": q_fit is not None and q_fit != q_hat,
        }

    def analyze(self, counts, mitigation=None, diagnostics=False):
        """<H> and E_L; with ``diagnostics`` also q̂, the mean acceptance,
        the representability report and the per-basis diagnostics."""
        v, q_hat, diag = self.element_values(counts, mitigation, diagnostics)
        m = self.moments(v)
        c = cumulants(m)
        # a slightly negative variance is consistent with shot noise around
        # an (almost) exact trial state; clamp it and report E_L = <H>,
        # which is the correct zero-variance limit
        noise_floor = 3.0 / np.sqrt(self.cfg.shots)
        if -noise_floor < c.c2 < 0.0:
            c = CumulantSet(c.c1, 0.0, c.c3, c.c4)
        result = {"h": m.m1, "e_l": lanczos_energy(c)}
        if diagnostics:
            result.update(
                q_hat=q_hat,
                acceptance={k: float(np.mean(r))
                            for k, r in diag["acceptance"].items()},
                representability=check_representability(
                    self.rdm(v)).to_json(),
                diagnostics=diag)
        return result
