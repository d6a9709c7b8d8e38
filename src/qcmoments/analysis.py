"""Counts archives and their compiled analysis: sampling, mitigation, RDM
assembly, moments and energies as array maps over integer outcomes.

An archive holds one (tables x 2^n) integer count matrix with rows
[calibration zeros, calibration ones, trial basis 0..B-1, reference basis
0..B-1]; column i counts the outcome whose bit q is qubit q's reading.
This module alone knows that row layout: :func:`sample_counts` simulates
each parent's circuit once for all its concrete bases and draws every row
in one noisy pass, :func:`write_archive` and :func:`load_archive` store and
check it, and :class:`Analyzer` reads it. :func:`measurement_circuits`
checks a plan against its config and gives one circuit per level-1 basis:
concrete basis ``b`` is measured by ``circuits[b.parent]``.
:class:`Analyzer` compiles, once per plan and Hamiltonian, every map that
an analysis needs:

- post-selection: one boolean outcome mask per basis, its parent's;
- RDM assembly: (element, flat outcome index, eigenvalue) triplets decoded
  from one outcome-feature table, at rows read off the plan's coverage
  arrays, so one ``np.bincount`` assembles every element of a group of
  bases;
- the sector map: the RDM order must equal N_e, so each element is one
  entry of the density matrix D over the N_e-electron occupations, at a
  (row, column, sign). Read off it are each <H^k> as the constant c0^k plus
  a weight vector over the element values (from the k-th power of H's
  sector matrix), the diagonal that the trace sums, the Hartree-Fock and
  maximally mixed values of the white-noise fit, and D itself for the
  representability check. FCI is ``simulator.exact_diagonalize``'s, as the
  ``fci`` command prints it.

A stack of count matrices (one, or bootstrap resamples) is mitigated and
assembled in array passes; the moments and E_L run per matrix. The rows of
:data:`ABLATION_STACKS` form one chain, and one walk down it reads each row
where its steps end. :meth:`Analyzer.report` alone lays out
``report.json``: the main analysis with its diagnostics, the ablation, the
bootstrap and the errors against FCI. The dict-path functions
(``mitigation.apply_qrem``, ``clip_to_physical``, ``symmetry_postselect``,
``assemble_rdm``, ``rescale_rdm``, ``mixed_state_value``,
``qcm.moments_from_rdm``, ``fermion.expectation_from_rdm``,
``RDM.contract``) and, for the decode, ``planner.product_value`` are the
references the tests check it against.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import warnings
from math import comb

import numpy as np

from .config import ConfigError, PipelineConfig, derive_seed, typed, typed_at
from .conventions import interleaved_spins, sz_of
from .fermion import FermionOperator, reversal_sign
from .mitigation import (
    calibration_from_counts, check_representability, clip_rows, fail,
    fit_white_noise_rate, outcome_bits, postselect_mask, postselect_rows,
    qrem_rows, reference_calibrate,
)
from .planner import IM, N, MeasurementPlan, build_measurement_circuit, \
    enumerate_elements
from .qcm import CumulantSet, MomentSet, bootstrap, cumulants, \
    lanczos_energy
from .simulator import (
    apply_terms, assignment_matrices, check_norm, exact_diagonalize, locate,
    noisy_distribution, operator_matrix_in_sector, run, sample, sector_basis,
    white_noise_rate,
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
ARCHIVE_SCHEMA = 3


def sample_counts(cfg: PipelineConfig, prepared, bases,
                  circuits) -> np.ndarray:
    """The archive's count matrix of ``cfg.shots`` draws per row, for the
    preparation circuits `prepared` (trial, reference), the B concrete
    `bases` and their parents' measurement `circuits`. The calibration rows
    are |0...0> and |1...1> under readout flips alone; a basis row gets
    white noise at the rate of its CNOTs. Each state is prepared once (norm
    checked). Each parent's ``routed`` circuit runs once, on the stack of
    both states times each of its bases' phase vectors (i per bit that a
    leading S acts on): that product is exact, so each basis gets its whole
    circuit's probabilities bit for bit. One pass adds all noise, then the
    rows are drawn in order, each from its own seed."""
    n = prepared[0].n_qubits
    n_bases, dim = len(bases), 1 << n
    noise = cfg.noise
    flips = assignment_matrices(np.full(n, noise["p01"]),
                                np.full(n, noise["p10"]))
    zero = np.eye(1, dim)[0]
    states = np.array([run(circuit, zero) for circuit in prepared])
    for amps in states:
        check_norm(amps)
    ideal = np.zeros((2 * n_bases + 2, dim))
    ideal[0, 0] = ideal[1, -1] = 1.0
    parents = {}
    for b, basis in enumerate(bases):
        parents.setdefault(basis.parent, []).append(b)
    bits = outcome_bits(n)
    for parent, rows in parents.items():
        mc = circuits[parent]
        phases = [np.array([1, 1j, -1, -1j])[bits[:, mc.phased(
            bases[b].kinds)].sum(axis=1) % 4] for b in rows]
        stack = (np.array(phases)[:, None] * states).reshape(-1, dim)
        probs = np.abs(run(mc.routed, stack)) ** 2
        ideal[2 + np.array(rows)] = probs[0::2]
        ideal[2 + n_bases + np.array(rows)] = probs[1::2]
    cnots = {p: circuits[p].routed.cnot_count() for p in parents}
    q = [0.0, 0.0] + [
        white_noise_rate(noise["global_q"], noise["cnot_q"],
                         n + cnots[b.parent])
        for n in [c.cnot_count() for c in prepared] for b in bases]
    seeds = [derive_seed(cfg.master_seed, tag, i) for tag, count in (
        ("calibration", 2), ("sample-trial", n_bases),
        ("sample-reference", n_bases)) for i in range(count)]
    counts = np.empty(ideal.shape, dtype=np.int64)
    for row, (p, seed) in enumerate(zip(
            noisy_distribution(ideal, q, flips), seeds)):
        counts[row] = sample(p, cfg.shots, seed=seed).vector(n)
    return counts


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
    a well-formed plan, its integers following the config's rule."""
    try:
        return MeasurementPlan.loads(data.decode())
    except (ConfigError, ValueError, KeyError, IndexError, TypeError,
            AttributeError) as exc:
        raise ConfigError(f"{source} is malformed: {exc!r}") from exc


def load_archive(archive_dir):
    """(manifest, plan, count matrix) of a ``run`` archive.

    The archive holds ``manifest.json``, ``plan.json`` and ``counts.npy``;
    the manifest records the SHA-256 of the other two. Every fault (a
    missing file or manifest key, another schema, a hash mismatch, bad
    JSON or integers, a count matrix of another dtype or shape, a negative
    count, a row that does not sum to ``shots_per_basis``, a plan that
    disagrees with the manifest) raises ConfigError.
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
        n_bases = typed(manifest["n_bases"], "integer", "archive n_bases")
        n_qubits = typed(manifest["n_qubits"], "integer", "archive n_qubits")
        shots = typed(manifest["shots_per_basis"], "integer",
                      "archive shots_per_basis", 1)
        layout = typed_at(manifest, "layout[*]", 0, n_qubits - 1,
                          root="archive ")
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
    if sorted(layout) != list(range(plan.n_modes)):
        raise ConfigError(f"archive layout {layout} is not a permutation "
                          f"of the {plan.n_modes} modes")
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


def system_identity(cfg: PipelineConfig) -> dict:
    """Manifest fields that tie an archive to its Hamiltonian: the SHA-256
    of the integrals file's bytes and the frozen orbitals."""
    data = read_bytes(cfg.integrals, "integrals file")
    return {"integrals_sha256": hashlib.sha256(data).hexdigest(),
            "frozen_occupied": cfg.frozen_occupied,
            "frozen_virtual": cfg.frozen_virtual}


def check_archive_config(manifest, cfg: PipelineConfig, n_electrons: int):
    """ConfigError naming the first manifest field that disagrees with
    the config analysing the archive; a bool equal to 1 or 0 disagrees."""
    for field, want in (("shots_per_basis", cfg.shots), ("noise", cfg.noise),
                        ("master_seed", cfg.master_seed),
                        ("n_electrons", n_electrons),
                        *system_identity(cfg).items()):
        if manifest.get(field) != want:
            raise ConfigError(
                f"archive {field} {manifest.get(field)!r} differs from the "
                f"config's {want!r}")
    for path in ("master_seed", "n_electrons", "frozen_occupied[*]",
                 "frozen_virtual[*]"):
        typed_at(manifest, path, root="archive ")


def measurement_circuits(plan, n_modes, order, layout, source) -> list:
    """One measurement circuit per level-1 basis of `plan`, serving each
    concrete basis ``b`` as ``circuits[b.parent]``; ConfigError naming
    `source` unless the plan measures `order` over the interleaved spins of
    `n_modes` modes, covers each spin-conserving element of that order once
    (as enumerate_elements gives them) and is routed for `layout`."""
    spins = interleaved_spins(n_modes)
    want = {e.creations + e.annihilations
            for e in enumerate_elements(n_modes, order, spins)}
    have = set(map(tuple, plan.elements.tolist()))
    if (plan.n_modes, plan.order, plan.spins, len(plan.elements), have) != (
            n_modes, order, spins, len(want), want):
        raise ConfigError(
            f"{source} measures order {plan.order} over {plan.n_modes} "
            f"modes with spins {''.join(plan.spins)!r}, but the config needs "
            f"each of the {len(want)} spin-conserving order-{order} elements "
            f"of {n_modes} interleaved modes once: it lacks "
            f"{len(want - have)} of them and adds {len(have - want)} others, "
            f"and repeats {len(plan.elements) - len(have)}")
    try:
        return [build_measurement_circuit(p, layout) for p in plan.level1]
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ConfigError(f"{source} does not fit its layout "
                          f"{list(layout)}: {exc!r}") from exc


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


def _assembly_map(plan, circuits, rank):
    """(element, flat outcome index, weight) triplets in element, product,
    outcome order, element k being the plan's element rank[k]: element k's
    value is the sum of weight * probs.flat[index] over its triplets, for
    the (bases x 2^n) mitigated distributions probs and the measurement
    `circuits` of the plan's level-1 bases.

    Each coverage product is decoded as ``planner.product_value`` does: a
    coefficient times p rows of one table over the outcomes, which holds
    each bit q (row q), and for positions lo, hi the pair value
    (bit_hi - bit_lo) / 2 (row n + lo n + hi) and, n^2 rows further on, the
    joint occupation. The (products, p) table rows of the plan's factors
    are read at once from per-parent arrays of the circuits' positions."""
    n = plan.n_modes
    bits = outcome_bits(n).T.astype(float)
    table = np.concatenate([
        bits, (0.5 * (bits[None] - bits[:, None])).reshape(n * n, -1),
        (bits[:, None] * bits[None]).reshape(n * n, -1)])
    # per parent: the row of N of each mode (its bit, or the joint
    # occupation of the site that absorbed it), the row of Re/Im at each
    # site, and whether the site's lower mode sat on the high qubit, which
    # flips an Im factor's sign
    number_row = np.zeros((len(circuits), n), dtype=np.int64)
    pair_row = np.zeros((len(circuits), n, n), dtype=np.int64)
    flipped = np.zeros((len(circuits), n, n), dtype=bool)
    for p, mc in enumerate(circuits):
        for mode, pos in mc.mode_positions.items():
            number_row[p, mode] = pos
        for (i, j), (lo, hi, mode_lo) in mc.site_positions.items():
            pair_row[p, i, j] = n + lo * n + hi
            number_row[p, [i, j]] = n + n * n + lo * n + hi
            flipped[p, i, j] = mode_lo != i
    kind, i, j = plan.factors.transpose(2, 0, 1)
    parent = np.array([b.parent for b in plan.bases], dtype=np.int64)[
        plan.product_basis][:, None]
    # a joint occupation is 0 or 1, so reading it for each of its site's
    # modes that a product holds gives the value that product_value gives
    index = np.where(kind == N, number_row[parent, i], pair_row[parent, i, j])
    # each Im factor whose site's lower mode sat on the high qubit flips the
    # sign; measured elements use ascending annihilation order, and
    # canonical RDM storage applies annihilations in descending order
    flips = ((kind == IM) & flipped[parent, i, j]).sum(axis=1)
    coef = reversal_sign(plan.order) * plan.product_sign * (-1.0) ** flips
    # the products of element 0, element 1, ... in plan order
    elem = np.repeat(np.argsort(rank), np.diff(plan.product_offsets))
    order = np.argsort(elem, kind="stable")
    elem, basis = elem[order], plan.product_basis[order]
    coef, index = coef[order], index[order]
    triplets = []
    for start in range(0, len(index), _CHUNK):
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
    (annihilations applied in descending order, as RDM entries are stored;
    a row C + A of `elements`) takes occupation A to ±C, so its value v
    sits at D[rows, cols] = D[cols, rows] = signs * v."""
    p = elements.shape[1] // 2
    masks = (1 << elements[:, p:]).sum(axis=1)
    new, signs, _ = apply_terms([(e[:p], e[p:]) for e in elements.tolist()],
                                masks[:, None])
    return (locate(basis, new[:, 0])[0], locate(basis, masks)[0],
            reversal_sign(p) * signs[:, 0])


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

    :meth:`report` takes a count matrix with rows [calibration zeros,
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
        # the elements as rows C + A in (C, A) order
        rank = np.lexsort(plan.elements.T[::-1])
        self.elements = plan.elements[rank]
        self.order = plan.order
        if self.order != n_electrons:
            raise ValueError(f"exact moments need an order-{n_electrons} "
                             f"RDM, not order {self.order}")
        # one mask per parent, which all its bases share
        self.masks = postselect_mask(n_electrons, self.sz, [
            position_spins(mc, self.spins, n) for mc in circuits])[
            [b.parent for b in plan.bases]]
        self._elem, self._flat, self._weight = _assembly_map(
            plan, circuits, rank)
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
        # the post-selected sector's maximally mixed state
        in_sector = postselect_mask(n_electrons, self.sz, self.spins)[basis]
        self.mixed = np.where(self._diagonal & in_sector[self._rows],
                              1 / np.count_nonzero(in_sector), 0.0)
        self.e_fci = exact_diagonalize(h, n_electrons, sz=self.sz)[0]
        self._dim = len(basis)

    def assemble(self, probs: np.ndarray) -> np.ndarray:
        """Element values (R x elements) from a stack of (bases x 2^n)
        mitigated distributions; each bin sums in triplet order."""
        size = len(self.elements)
        bins = (np.arange(len(probs))[:, None] * size + self._elem).ravel()
        weights = probs.reshape(len(probs), -1).take(self._flat, axis=1) \
            * self._weight
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

    def element_values(self, stack, mitigation=None, chain=False):
        """The table stage of a stack (R x tables x 2^n) under `mitigation`
        (None: the config's): trial element values (R x elements), q̂ (R,),
        each matrix's failure (its message alone, or None), and the
        per-basis acceptance and clipped mass (R x bases) with the fitted q̂
        (None uncalibrated). With `chain`, one walk with every step on gives
        that for each :data:`ABLATION_STACKS` row, in order: a row reads the
        tables where its last table step ends, and each table read is
        assembled once, before the next block's tables are made. Each step
        fails matrices in a list of its own; a row fails with the first
        failure among its steps', as alone. Nothing warns here."""
        rows = [m for _, m in ABLATION_STACKS] if chain else [
            self.cfg.mitigation if mitigation is None else mitigation]
        mit, size, shape = rows[-1], len(stack), (len(stack), self.n_bases)
        steps = []  # (first row that takes it, failures) of each step run

        def failures(step):
            first = next(r for r, m in enumerate(rows) if m.get(step))
            steps.append((first, out := [None] * size))
            return out

        # a failed matrix runs on unread
        with np.errstate(divide="ignore", invalid="ignore"), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cal = mit.get("qrem") and calibration_from_counts(
                stack[:, 0], stack[:, 1], failures("qrem"))
            blocks = []
            for start in (2, 2 + self.n_bases):
                block = stack[:, start:start + self.n_bases]
                probs = block / block.sum(axis=-1, keepdims=True)
                clipped, acceptance = np.zeros(shape), np.ones(shape)
                tables = [probs] if chain else []
                if cal:
                    probs = qrem_rows(probs, cal)
                    if mit.get("clip"):
                        probs, clipped = clip_rows(probs, failures("clip"))
                    tables += [probs] if chain else []
                if mit.get("postselect"):
                    probs, acceptance = postselect_rows(
                        probs, self.masks, failures("postselect"))
                tables.append(probs)
                values = [self.assemble(table) for table in tables]
                del probs, tables
                if mit.get("rescale"):
                    rescaled = self.rescale(values[-1], failures("rescale"))
                blocks.append([(rescaled if m.get("rescale") else values[
                    min(r, len(values) - 1)],  # table r, or the last
                    clipped if m.get("clip") else np.zeros(shape),
                    acceptance if m.get("postselect") else np.ones(shape))
                    for r, m in enumerate(rows)])
            results = []
            for r, (m, trial, ref) in enumerate(zip(rows, *blocks)):
                v, q_hat, q_fit = trial[0], np.zeros(size), None
                if m.get("calibrate"):
                    fit = failures("calibrate")
                    q_fit = fit_white_noise_rate(ref[0], self.ideal_ref,
                                                 self.mixed, fit)
                    q_hat, corrected = reference_calibrate(v, q_fit,
                                                           self.mixed)
                    # where q̂ = 0, corrected is v, already rescaled
                    if m.get("rescale"):
                        corrected = self.rescale(corrected, fit)
                    v = np.where((q_hat > 0.0)[:, None], corrected, v)
                # each matrix's first failure in the row's steps, or None
                first = [next(filter(None, fs), None) for fs in zip(
                    [None] * size, *(out for row, out in steps if row <= r))]
                results.append((v, q_hat, first, dict(
                    acceptance=dict(trial=trial[2], reference=ref[2]),
                    clipped_mass=dict(trial=trial[1], reference=ref[1]),
                    q_hat_fit=q_fit)))
        return results if chain else results[0]

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

    def _result(self, table, diagnostics=False):
        """<H> and E_L from the table stage `table` of a stack of one; raises
        its failure. ``diagnostics`` (the main analysis) warns of a clamped
        q̂ and adds q̂, acceptance, representability and the per-basis
        diagnostics."""
        (v,), (q_hat,), (failure,), per_basis = table
        if failure is not None:
            raise ValueError(failure)
        q_fit = per_basis["q_hat_fit"]
        q_clamped = q_fit is not None and bool(q_fit[0] != q_hat)
        if q_clamped and diagnostics:
            warnings.warn(f"estimated white-noise rate {q_fit[0]} clamped "
                          "to 0")
        result, c2, c2_clamped = self.energies(v)
        if not diagnostics:
            return result
        diag = {key: {k: r[0].tolist() for k, r in per_basis[key].items()}
                for key in ("acceptance", "clipped_mass")}
        diag.update(
            q_hat_fit=None if q_fit is None else float(q_fit[0]),
            q_hat_clamped=q_clamped, c2=c2, c2_clamped=c2_clamped)
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

    def report(self, counts) -> dict:
        """The whole ``report.json`` of one count matrix: the main analysis
        with its diagnostics, one ablation row per :data:`ABLATION_STACKS`
        entry (``{"technique", "failed"}`` where the stack fails), the
        bootstrap over :meth:`analyze_stack` when the config enables it, the
        errors against FCI and the config. The ablation rows come from one
        walk down the chain; the main analysis is the row whose steps are
        the config's, or one more walk if no row's are."""
        cfg, e_fci = self.cfg, self.e_fci
        stack = np.asarray(counts)[None]
        rows = self.element_values(stack, chain=True)
        on = {k for k, v in cfg.mitigation.items() if v}
        main = next((row for (_, m), row in zip(ABLATION_STACKS, rows)
                     if set(m) == on), None) or self.element_values(stack)
        main = self._result(main, diagnostics=True)
        ablation = []
        for (name, _), row in zip(ABLATION_STACKS, rows):
            try:
                res = self._result(row)
            except (ValueError, ArithmeticError) as exc:
                ablation.append({"technique": name, "failed": str(exc)})
                continue
            ablation.append({"technique": name, "h": res["h"],
                             "e_l": res["e_l"], "h_error": res["h"] - e_fci,
                             "e_l_error": res["e_l"] - e_fci})
        boot = None
        if cfg.bootstrap["enabled"]:
            boot = bootstrap(counts, self.analyze_stack,
                             resamples=int(cfg.bootstrap["resamples"]),
                             seed=derive_seed(cfg.master_seed, "bootstrap"))
        stds = boot.stds if boot else {"h": 0.0, "e_l": 0.0}
        return {
            "schema": 1,
            "estimate": {
                "h_expect": main["h"], "e_l": main["e_l"],
                "std_h": stds["h"], "std_el": stds["e_l"],
                "q_hat": main["q_hat"],
                "metadata": {
                    "mitigation": sorted(k for k, v in cfg.mitigation.items()
                                         if v),
                    "acceptance": main["acceptance"],
                    "resamples": boot.resamples if boot else 0,
                }},
            "fci": e_fci,
            "h_error": main["h"] - e_fci,
            "e_l_error": main["e_l"] - e_fci,
            "representability": main["representability"],
            "diagnostics": main["diagnostics"],
            "ablation": ablation,
            "bootstrap": boot.to_json() if boot else None,
            "config": cfg.to_json(),
        }
