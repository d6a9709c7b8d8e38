"""Compiled analysis of a counts archive: mitigation, RDM assembly, moments
and energies as array maps over integer outcomes.

An archive holds one (tables x 2^n) integer count matrix with rows
[calibration zeros, calibration ones, trial basis 0..B-1, reference basis
0..B-1]; column i counts the outcome whose bit q is qubit q's reading.
:class:`Analyzer` compiles, once per plan and Hamiltonian, every map that
an analysis needs:

- post-selection: one boolean outcome mask per basis;
- RDM assembly: (element, flat outcome index, eigenvalue) triplets decoded
  from one outcome-feature table, so one ``np.bincount`` assembles every
  element of a group of bases;
- the sector map: the RDM order must equal N_e, so each element is one
  entry of the density matrix D over the N_e-electron occupations, at a
  (row, column, sign). Read off it are each <H^k> as the constant c0^k plus
  a weight vector over the element values (from the k-th power of H's
  sector matrix, whose S_z block also gives FCI), the diagonal that the
  trace sums, the Hartree-Fock and maximally mixed values of the
  white-noise fit, and D itself for the representability check.

A stack of count matrices (one, or bootstrap resamples) is mitigated and
assembled in array passes; the moments and E_L run per matrix. The
dict-path functions (``mitigation.apply_qrem``, ``clip_to_physical``,
``symmetry_postselect``, ``assemble_rdm``, ``rescale_rdm``,
``mixed_state_value``, ``qcm.moments_from_rdm``,
``fermion.expectation_from_rdm``, ``RDM.contract``) and, for the decode,
``planner.product_value`` are the references the tests check it against.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import warnings
from math import comb

import numpy as np

from .config import ConfigError, PipelineConfig
from .conventions import sz_of
from .fermion import FermionOperator
from .mitigation import (
    calibration_from_counts, check_representability, clip_rows, fail,
    fit_white_noise_rate, postselect_mask, postselect_rows, qrem_rows,
    reference_calibrate,
)
from .planner import MeasurementPlan
from .qcm import CumulantSet, MomentSet, cumulants, lanczos_energy
from .simulator import (
    apply_terms, locate, operator_matrix_in_sector, sector_basis,
)

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
# archive files


#: version of the archive layout that ``write_archive`` writes and
#: ``load_archive`` reads
ARCHIVE_SCHEMA = 2


def write_archive(archive_dir, plan_bytes: bytes, counts, manifest: dict):
    """Write ``plan.json`` (the plan bytes as given, not re-serialized),
    ``counts.npy`` (the count matrix as little-endian int64) and
    ``manifest.json``: the given fields plus the schema and the SHA-256 of
    the other two files. Same inputs give byte-identical files."""
    buffer = io.BytesIO()
    np.save(buffer, np.asarray(counts, dtype="<i8"), allow_pickle=False)
    blobs = {"plan.json": plan_bytes, "counts.npy": buffer.getvalue()}
    os.makedirs(archive_dir, exist_ok=True)
    for name, data in blobs.items():
        with open(os.path.join(archive_dir, name), "wb") as fh:
            fh.write(data)
    manifest = {**manifest, "schema": ARCHIVE_SCHEMA,
                "sha256": {name: hashlib.sha256(data).hexdigest()
                           for name, data in blobs.items()}}
    with open(os.path.join(archive_dir, "manifest.json"), "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_bytes(path, what: str = "archive file") -> bytes:
    """The bytes of an input file; ConfigError if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def parse_plan(data: bytes, source: str) -> MeasurementPlan:
    """The plan held in `data`; ConfigError naming `source` if it is not
    a well-formed plan."""
    try:
        return MeasurementPlan.loads(data.decode())
    except (ValueError, KeyError, IndexError, TypeError,
            AttributeError) as exc:
        raise ConfigError(f"{source} is malformed: {exc!r}") from exc


def load_archive(archive_dir):
    """(manifest, plan, count matrix) of a ``run`` archive.

    The archive holds ``manifest.json``, ``plan.json`` and ``counts.npy``;
    the manifest records the SHA-256 of the other two. Every fault (a
    missing file or manifest key, another schema, a hash mismatch, bad
    JSON, a count matrix of another dtype or shape, a negative count, a
    row that does not sum to ``shots_per_basis``, a plan that disagrees
    with the manifest) raises ConfigError.
    """
    path = os.path.join(archive_dir, "manifest.json")
    try:
        manifest = json.loads(read_bytes(path))
    except ValueError as exc:
        raise ConfigError(f"archive file {path} is not valid JSON: {exc}") \
            from exc
    schema = manifest.get("schema") if isinstance(manifest, dict) else None
    if schema != ARCHIVE_SCHEMA:
        raise ConfigError(
            f"archive {archive_dir} has schema {schema!r}, but this version "
            f"reads schema {ARCHIVE_SCHEMA} only; re-run `run` to rewrite it")
    try:
        digests = dict(manifest["sha256"])
        n_bases = manifest["n_bases"]
        shots = manifest["shots_per_basis"]
        n_qubits = manifest["n_qubits"]
        layout = list(manifest["layout"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"archive manifest lacks {exc}") from exc
    blobs = {}
    for name in ("plan.json", "counts.npy"):
        path = os.path.join(archive_dir, name)
        blobs[name] = read_bytes(path)
        if hashlib.sha256(blobs[name]).hexdigest() != digests.get(name):
            raise ConfigError(f"archive file {path} does not match the "
                              "SHA-256 its manifest records")
    plan = parse_plan(blobs["plan.json"], f"archive plan in {archive_dir}")
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
    path = os.path.join(archive_dir, "counts.npy")
    try:
        counts = np.load(io.BytesIO(blobs["counts.npy"]), allow_pickle=False)
    except (ValueError, EOFError, OSError) as exc:
        raise ConfigError(f"archive file {path} is not a readable .npy "
                          f"array: {exc}") from exc
    shape = (2 * n_bases + 2, 1 << plan.n_modes)
    if counts.dtype != np.dtype("<i8") or counts.shape != shape:
        raise ConfigError(f"archive file {path} holds a {counts.dtype} "
                          f"array of shape {counts.shape}, not int64 of "
                          f"shape {shape}")
    if np.any(counts < 0):
        raise ConfigError(f"archive file {path} holds a negative count")
    off = np.flatnonzero(counts.sum(axis=1) != shots)
    if off.size:
        raise ConfigError(f"archive file {path}: rows {off.tolist()} do "
                          f"not sum to shots_per_basis {shots}")
    return manifest, plan, counts


def check_archive_config(manifest, cfg: PipelineConfig, n_electrons: int):
    """ConfigError naming the first manifest field that disagrees with
    the config analysing the archive."""
    for field, want in (("shots_per_basis", cfg.shots), ("noise", cfg.noise),
                        ("master_seed", cfg.master_seed),
                        ("n_electrons", n_electrons)):
        if manifest.get(field) != want:
            raise ConfigError(
                f"archive {field} {manifest.get(field)!r} differs from the "
                f"config's {want!r}")


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


#: coverage products decoded per array pass of :func:`_assembly_map`
_CHUNK = 128


def _assembly_map(plan, circuits, elements, order):
    """(element, flat outcome index, weight) triplets in element, product,
    outcome order: element k's value is the sum of weight * probs.flat[index]
    over its triplets, for the (bases x 2^n) mitigated distributions probs.

    Each coverage product is decoded as ``planner.product_value`` does: a
    coefficient times rows of one table over the outcomes, which holds all
    ones (padding), each bit q (row 1 + q), and for positions lo, hi the
    pair value (bit_hi - bit_lo) / 2 (row 1 + n + lo n + hi) and, n^2 rows
    further on, the joint occupation."""
    n = plan.n_modes
    bits = (np.arange(1 << n) >> np.arange(n)[:, None] & 1).astype(float)
    table = np.concatenate([
        np.ones((1, 1 << n)), bits,
        (0.5 * (bits[None] - bits[:, None])).reshape(n * n, -1),
        (bits[:, None] * bits[None]).reshape(n * n, -1)])
    # measured elements use ascending annihilation order; canonical RDM
    # storage applies annihilations in descending order
    reversal = -1.0 if (order * (order - 1) // 2) % 2 else 1.0
    products, rows = [], []     # (element, basis, coefficient), table rows
    for k, e in enumerate(elements):
        for b_idx, sign, factors in plan.coverage[e]:
            mc, coef, r, handled = circuits[b_idx], reversal * sign, [], set()
            for kind, idx in factors:
                if kind != "N":
                    lo, hi, mode_lo = mc.site_positions[tuple(idx)]
                    r.append(1 + n + lo * n + hi)
                    if kind == "Im" and mode_lo != idx[0]:
                        coef = -coef    # the lower mode sat on the high qubit
                elif idx[0] in mc.mode_positions:
                    r.append(1 + mc.mode_positions[idx[0]])
                elif idx[0] not in handled:     # joint occupation of a site
                    site = next(s for s in mc.site_positions if idx[0] in s)
                    lo, hi, _ = mc.site_positions[site]
                    r.append(1 + n + n * n + lo * n + hi)
                    handled.update(site)
            products.append((k, b_idx, coef))
            rows.append(r)
    width = max(map(len, rows))
    index = np.array([r + [0] * (width - len(r)) for r in rows])
    elem, basis, coef = (np.array(c) for c in zip(*products))
    triplets = []
    for start in range(0, len(rows), _CHUNK):
        part = slice(start, start + _CHUNK)
        values = coef[part, None] * table[index[part, 0]]
        for column in index[part, 1:].T:
            values *= table[column]
        p, outcome = np.nonzero(values)
        triplets.append((elem[start + p], basis[start + p] << n | outcome,
                         values[p, outcome]))
    return tuple(np.concatenate(t) for t in zip(*triplets))


def _sector_map(elements, basis):
    """(rows, cols, signs) of each element in the density matrix D over the
    N_e-electron occupations `basis`: at order N_e, element a†_C a_A
    (annihilations applied in descending order, as RDM entries are stored)
    takes occupation A to ±C, so its value v sits at D[rows, cols] =
    D[cols, rows] = signs * v."""
    # RDM storage applies annihilations in descending order
    order = elements[0].order
    reversal = -1 if (order * (order - 1) // 2) % 2 else 1
    masks = np.array([sum(1 << m for m in e.annihilations)
                      for e in elements])
    new, signs, _ = apply_terms([(e.creations, e.annihilations)
                                 for e in elements], masks[:, None])
    return (locate(basis, new[:, 0])[0], locate(basis, masks)[0],
            reversal * signs[:, 0])


def _moment_map(h_n, c0, rows, cols, signs):
    """(weights, constants) with <H^(k+1)> = constants[k] + weights[k] . v
    for the element values v at the (rows, cols, signs) of
    :func:`_sector_map`, from H's sector matrix `h_n` and constant `c0`.

    <H^k> is the trace of D against the sector matrix H_N^k. The constant
    c0^k of the normal-ordered H^k is split off as P_k = H_N^k - c0^k, so
    the map is the one that qcm.moments_from_rdm applies, also to element
    values whose trace is not 1.
    """
    off_diagonal = rows != cols
    power = identity = np.eye(len(h_n))
    weights, constants = [], []
    for k in range(1, 5):
        power = power @ h_n
        p_k = power - c0 ** k * identity
        weights.append(signs * (p_k[cols, rows]
                                + np.where(off_diagonal, p_k[rows, cols], 0)))
        constants.append(c0 ** k)
    return np.array(weights), np.array(constants)


class Analyzer:
    """Counts -> energies, compiled once per plan and Hamiltonian and
    reusable for every mitigation stack and bootstrap resample.

    ``analyze`` takes a count matrix with rows [calibration zeros,
    calibration ones, trial basis 0..B-1, reference basis 0..B-1].
    """

    def __init__(self, cfg: PipelineConfig, plan: MeasurementPlan,
                 circuits, n_electrons: int, h: FermionOperator):
        self.cfg = cfg
        self.n_qubits = n = plan.n_modes
        self.n_bases = len(plan.bases)
        self.n_electrons = n_electrons
        self.spins = plan.spins
        occ = tuple(range(n_electrons))
        self.sz = sz_of(occ, self.spins)
        self.elements = sorted(plan.coverage)
        self.order = self.elements[0].order
        if self.order != n_electrons:
            raise ValueError(f"exact moments need an order-{n_electrons} "
                             f"RDM, not order {self.order}")
        self.masks = np.array([
            postselect_mask(n_electrons, self.sz,
                            position_spins(mc, self.spins, n))
            for mc in circuits])
        self._elem, self._flat, self._weight = _assembly_map(
            plan, circuits, self.elements, self.order)
        # every quantity below is read off one map of the elements into the
        # density matrix D over the N_e-electron occupations
        basis = np.array(sector_basis(n, n_electrons))
        self._rows, self._cols, self._signs = _sector_map(self.elements,
                                                          basis)
        h_n = operator_matrix_in_sector(h, basis)
        self._moment_weights, self._moment_constants = _moment_map(
            h_n, h.constant(), self._rows, self._cols, self._signs)
        self._diagonal = self._rows == self._cols
        # Hartree-Fock reference: D = |HF><HF|
        hf = (1 << n_electrons) - 1
        self.ideal_ref = (self._diagonal
                          & (basis[self._rows] == hf)).astype(float)
        # the post-selected sector's maximally mixed state, and FCI: the
        # lowest eigenvalue of H's block there, as exact_diagonalize builds it
        in_sector = postselect_mask(n_electrons, self.sz, self.spins)[basis]
        self.mixed = np.where(self._diagonal & in_sector[self._rows],
                              1 / np.count_nonzero(in_sector), 0.0)
        block = np.ix_(in_sector, in_sector)
        self.e_fci = float(np.linalg.eigh(h_n[block])[0][0])
        self._dim = len(basis)

    def assemble(self, probs: np.ndarray) -> np.ndarray:
        """Element values (R x elements) from a stack of (bases x 2^n)
        mitigated distributions; each bin sums in triplet order."""
        size = len(self.elements)
        bins = (np.arange(len(probs))[:, None] * size + self._elem).ravel()
        weights = probs.reshape(len(probs), -1)[:, self._flat] * self._weight
        return np.bincount(bins, weights=weights.ravel(),
                           minlength=len(probs) * size).reshape(-1, size)

    def rescale(self, values, failures):
        """Scale each row so the trace matches C(N_e, p), as rescale_rdm;
        a trace near zero fails its row (see mitigation.fail)."""
        ideal = float(comb(self.n_electrons, self.order))
        # a C-ordered copy sums each row pairwise, as a single row sums
        actual = np.ascontiguousarray(values[:, self._diagonal]).sum(axis=-1)
        fail((np.abs(actual) < 1e-6 * ideal)[:, None],
             lambda k: f"RDM trace {float(actual[k])} too close to zero "
             "to rescale", failures)
        return values * (ideal / actual)[:, None]

    def moments(self, values: np.ndarray) -> MomentSet:
        """The four moments <H^k> = c0^k + weights[k] . values, the map
        that qcm.moments_from_rdm applies to the same RDM."""
        totals = self._moment_weights @ values + self._moment_constants
        for total in totals:
            if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
                raise ValueError(f"non-negligible imaginary expectation "
                                 f"{total}")
        return MomentSet(*(float(t.real) for t in totals))

    def element_values(self, stack, mitigation=None):
        """The table stage, one array pass over a stack (R x tables x 2^n):
        trial element values (R x elements), q̂ (R,), each matrix's failure
        (its message alone, or None), and the per-basis acceptance and
        clipped mass (R x bases) with the fitted q̂ (None uncalibrated)."""
        mit = dict(self.cfg.mitigation if mitigation is None else mitigation)
        failures = [None] * len(stack)
        n_bases, shape = self.n_bases, (len(stack), self.n_bases)
        values, acceptance, clipped = {}, {}, {}
        # a failed matrix runs on unread
        with np.errstate(divide="ignore", invalid="ignore"):
            cal = calibration_from_counts(stack[:, 0], stack[:, 1], failures) \
                if mit.get("qrem") else None
            for which, start in (("trial", 2), ("reference", 2 + n_bases)):
                block = stack[:, start:start + n_bases]
                probs = block / block.sum(axis=-1, keepdims=True)
                clipped[which] = np.zeros(shape)
                if cal is not None:
                    probs = qrem_rows(probs, cal)
                    if mit.get("clip"):
                        probs, clipped[which] = clip_rows(probs, failures)
                acceptance[which] = np.ones(shape)
                if mit.get("postselect"):
                    probs, acceptance[which] = postselect_rows(
                        probs, self.masks, failures)
                values[which] = self.assemble(probs)
                if mit.get("rescale"):
                    values[which] = self.rescale(values[which], failures)
            v = values["trial"]
            q_hat, q_fit = np.zeros(len(stack)), None
            if mit.get("calibrate"):
                q_fit = fit_white_noise_rate(values["reference"],
                                             self.ideal_ref, self.mixed,
                                             failures)
                q_fit[[f is not None for f in failures]] = np.nan
                q_hat, corrected = reference_calibrate(v, q_fit, self.mixed)
                # where q̂ = 0, corrected is v, already rescaled
                if mit.get("rescale"):
                    corrected = self.rescale(corrected, failures)
                v = np.where((q_hat > 0.0)[:, None], corrected, v)
        return v, q_hat, failures, dict(
            acceptance=acceptance, clipped_mass=clipped, q_hat_fit=q_fit)

    def energies(self, values):
        """(<H>, E_L), the unclamped c2 and its clamp, from element values."""
        m = self.moments(values)
        c = cumulants(m)
        # a slightly negative variance is shot noise around an (almost)
        # exact trial state: clamp it, so E_L = <H>, the zero-variance limit
        noise_floor = 3.0 / np.sqrt(self.cfg.shots)
        c2, clamped = float(c.c2), bool(-noise_floor < c.c2 < 0.0)
        if clamped:
            c = CumulantSet(c.c1, 0.0, c.c3, c.c4)
        return {"h": m.m1, "e_l": lanczos_energy(c)}, c2, clamped

    def analyze_stack(self, stack, mitigation=None):
        """<H> and E_L of each count matrix of a stack, or the error it
        raises alone; only :meth:`energies` runs per matrix. A clamped q̂
        does not warn."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values, _, failures, _ = self.element_values(stack, mitigation)
        results = []
        for v, failure in zip(values, failures):
            try:
                if failure is not None:
                    raise ValueError(failure)
                results.append(self.energies(v)[0])
            except (ValueError, ArithmeticError) as exc:
                results.append(exc)
        return results

    def analyze(self, counts, mitigation=None, diagnostics=False):
        """<H> and E_L of one count matrix, a stack of one; raises its failure.
        ``diagnostics`` (the main analysis) warns of a clamped q̂ and adds
        q̂, acceptance, representability and the per-basis diagnostics."""
        with warnings.catch_warnings():
            if not diagnostics:
                warnings.simplefilter("ignore")
            (v,), (q_hat,), (failure,), per_basis = self.element_values(
                np.asarray(counts)[None], mitigation)
        if failure is not None:
            raise ValueError(failure)
        result, c2, c2_clamped = self.energies(v)
        if not diagnostics:
            return result
        q_fit = per_basis.pop("q_hat_fit")
        diag = {key: {k: r[0].tolist() for k, r in rows.items()}
                for key, rows in per_basis.items()}
        diag.update(
            q_hat_fit=None if q_fit is None else float(q_fit[0]),
            q_hat_clamped=q_fit is not None and bool(q_fit[0] != q_hat),
            c2=c2, c2_clamped=c2_clamped)
        # D over the N_e-electron occupations has trace 1
        density = np.zeros((self._dim, self._dim))
        density[self._rows, self._cols] = density[self._cols, self._rows] = \
            self._signs * v
        result.update(
            q_hat=float(q_hat),
            acceptance={k: float(np.mean(r))
                        for k, r in diag["acceptance"].items()},
            representability=check_representability(density, 1.0),
            diagnostics=diag)
        return result
