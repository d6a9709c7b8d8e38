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
  sector matrix), the diagonal that the trace sums, the Hartree-Fock and
  maximally mixed values of the white-noise fit, and D itself for the
  representability check.

Each analysis then applies QREM qubit by qubit, clips, post-selects,
assembles and contracts with array operations; no dict RDM is built. The
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
    calibration_from_counts, check_representability, clip_rows,
    fit_white_noise_rate, postselect_mask, postselect_rows, qrem_rows,
    reference_calibrate,
)
from .planner import MeasurementPlan
from .qcm import CumulantSet, MomentSet, cumulants, lanczos_energy
from .simulator import (
    apply_term_to_mask, operator_matrix_in_sector, sector_basis,
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
    index = {mask: i for i, mask in enumerate(basis)}
    # RDM storage applies annihilations in descending order
    order = elements[0].order
    reversal = -1 if (order * (order - 1) // 2) % 2 else 1
    rows, cols, signs = [], [], []
    for e in elements:
        mask = sum(1 << m for m in e.annihilations)
        new_mask, sign = apply_term_to_mask(e.creations, e.annihilations,
                                            mask)
        rows.append(index[new_mask])
        cols.append(index[mask])
        signs.append(reversal * sign)
    return np.array(rows), np.array(cols), np.array(signs)


def _moment_map(h, basis, rows, cols, signs):
    """(weights, constants) with <H^(k+1)> = constants[k] + weights[k] . v
    for the element values v at the (rows, cols, signs) of
    :func:`_sector_map`.

    <H^k> is the trace of D against the sector matrix H_N^k. The constant
    c0^k of the normal-ordered H^k is split off as P_k = H_N^k - c0^k, so
    the map is the one that qcm.moments_from_rdm applies, also to element
    values whose trace is not 1.
    """
    off_diagonal = rows != cols
    h_n = operator_matrix_in_sector(h, basis)
    c0 = h.constant()
    power = identity = np.eye(len(basis))
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
        basis = sector_basis(n, n_electrons)
        self._rows, self._cols, self._signs = _sector_map(self.elements,
                                                          basis)
        self._moment_weights, self._moment_constants = _moment_map(
            h, basis, self._rows, self._cols, self._signs)
        self._diagonal = self._rows == self._cols
        # Hartree-Fock reference: D = |HF><HF|
        hf = (1 << n_electrons) - 1
        self.ideal_ref = (self._diagonal
                          & (self._rows == basis.index(hf))).astype(float)
        # maximally mixed state of the post-selected sector: the
        # occupations with the reference's spin-up count
        up = sum(1 << m for m, s in enumerate(self.spins) if s == "u")
        n_up = bin(hf & up).count("1")
        in_sector = np.array([bin(mask & up).count("1") == n_up
                              for mask in basis])
        self.mixed = np.where(self._diagonal & in_sector[self._rows],
                              1 / np.count_nonzero(in_sector), 0.0)
        self._dim = len(basis)

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
        """The four moments <H^k> = c0^k + weights[k] . values, the map
        that qcm.moments_from_rdm applies to the same RDM."""
        totals = self._moment_weights @ values + self._moment_constants
        for total in totals:
            if abs(total.imag) > 1e-8 * max(1.0, abs(total.real)):
                raise ValueError(f"non-negligible imaginary expectation "
                                 f"{total}")
        return MomentSet(*(float(t.real) for t in totals))

    def density_matrix(self, values: np.ndarray) -> np.ndarray:
        """The density matrix D over the N_e-electron occupations that the
        element values fill."""
        out = np.zeros((self._dim, self._dim))
        out[self._rows, self._cols] = out[self._cols, self._rows] = \
            self._signs * values
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
        q_hat, q_fit = 0.0, None
        if mit.get("calibrate"):
            q_fit = fit_white_noise_rate(values["reference"], self.ideal_ref,
                                         self.mixed)
            # the main analysis warns when q̂ is clamped; the ablation
            # stacks and bootstrap resamples stay quiet
            with warnings.catch_warnings():
                if not diagnostics:
                    warnings.simplefilter("ignore")
                q_hat, corrected = reference_calibrate(v, q_fit, self.mixed)
            if q_hat > 0.0:
                v = corrected
                if mit.get("rescale"):
                    v = self.rescale(v)
        if not diagnostics:
            return v, q_hat, None
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
        the representability report and the per-basis diagnostics, which
        then hold the unclamped c2 and whether it was clamped to 0."""
        v, q_hat, diag = self.element_values(counts, mitigation, diagnostics)
        m = self.moments(v)
        c = cumulants(m)
        # a slightly negative variance is consistent with shot noise around
        # an (almost) exact trial state; clamp it and report E_L = <H>,
        # which is the correct zero-variance limit
        noise_floor = 3.0 / np.sqrt(self.cfg.shots)
        clamped = bool(-noise_floor < c.c2 < 0.0)
        if diagnostics:
            diag.update(c2=float(c.c2), c2_clamped=clamped)
        if clamped:
            c = CumulantSet(c.c1, 0.0, c.c3, c.c4)
        result = {"h": m.m1, "e_l": lanczos_energy(c)}
        if diagnostics:
            result.update(
                q_hat=q_hat,
                acceptance={k: float(np.mean(r))
                            for k, r in diag["acceptance"].items()},
                # at order N_e, D has trace C(N_e, N_e) = 1
                representability=check_representability(
                    self.density_matrix(v), 1.0),
                diagnostics=diag)
        return result
