"""Dict-path analysis: the reference that the compiled
:class:`qcmoments.analysis.Analyzer` is checked against.

It chains the bitstring-dict mitigation functions, ``assemble_rdm`` and
``moments_from_rdm`` table by table, as the command line did before the
analysis was compiled into array maps. ``product_assembly_map`` builds the
assembly triplets one product at a time, as before they were decoded from
an outcome-feature table. ``sample_counts_per_basis`` draws an archive's
count matrix with one simulation per measurement circuit, as before the
concrete bases of one parent shared theirs. ``analyze`` is the compiled
analysis of one count matrix alone.
"""
import warnings

import numpy as np

from qcmoments.analysis import position_spins
from qcmoments.config import derive_seed
from qcmoments.conventions import sz_of
from qcmoments.mitigation import (
    AssignmentCalibration, apply_qrem, assemble_rdm, calibration_from_counts,
    clip_to_physical, fit_white_noise_rate, mixed_state_value,
    reference_calibrate, rescale_rdm, symmetry_postselect,
)
from qcmoments.planner import RdmElement, product_value
from qcmoments.qcm import (
    CumulantSet, cumulants, lanczos_energy,
    moments_from_rdm,
)
from qcmoments.rdm import RDM
from qcmoments.simulator import (
    CountsTable, assignment_matrices, noisy_distribution, run, sample,
    white_noise_rate,
)

from fixtures_util import shared_powers
from reference_fermion import from_ops
from reference_rdm import rdm_from_determinant, rdm_representability


def analyzer_elements(analyzer):
    """An Analyzer's element rows as RdmElements, in its order."""
    p = analyzer.order
    return [RdmElement(tuple(e[:p]), tuple(e[p:]))
            for e in analyzer.elements.tolist()]


def product_assembly_map(plan, circuits):
    """The (element, flat outcome index, weight) triplets of
    ``analysis._assembly_map`` over the plan's elements in sorted order,
    decoded one coverage product at a time by ``planner.product_value``."""
    outcomes = np.arange(1 << plan.n_modes)
    order = plan.order
    reversal = -1.0 if (order * (order - 1) // 2) % 2 else 1.0
    coverage = plan.coverage()
    elem, flat, weight = [], [], []
    for k, e in enumerate(sorted(coverage)):
        for b_idx, sign, factors in coverage[e]:
            values = product_value(circuits[plan.bases[b_idx].parent],
                                   factors, outcomes)
            nonzero = np.flatnonzero(values)
            elem.append(np.full(nonzero.size, k))
            flat.append(b_idx * outcomes.size + nonzero)
            weight.append(reversal * sign * values[nonzero])
    return np.concatenate(elem), np.concatenate(flat), np.concatenate(weight)


def sample_counts_per_basis(cfg, prepared, circuits):
    """``analysis.sample_counts`` of the preparation circuits `prepared`
    and the whole measurement circuits `circuits`: each circuit runs on
    the stack of both prepared states, one circuit at a time."""
    n = prepared[0].n_qubits
    n_bases, dim = len(circuits), 1 << n
    noise = cfg.noise
    zero = np.eye(1, dim)[0]
    states = np.array([run(circuit, zero) for circuit in prepared])
    ideal = np.zeros((2 * n_bases + 2, dim))
    ideal[0, 0] = ideal[1, -1] = 1.0
    for i, circuit in enumerate(circuits):
        ideal[2 + i::n_bases] = np.abs(run(circuit, states)) ** 2
    q = [0.0, 0.0] + [
        white_noise_rate(noise["global_q"], noise["cnot_q"],
                         c.cnot_count() + circuit.cnot_count())
        for c in prepared for circuit in circuits]
    seeds = [derive_seed(cfg.master_seed, tag, i) for tag, count in (
        ("calibration", 2), ("sample-trial", n_bases),
        ("sample-reference", n_bases)) for i in range(count)]
    flips = assignment_matrices(np.full(n, noise["p01"]),
                                np.full(n, noise["p10"]))
    return np.array([sample(p, cfg.shots, seed=seed).vector(n) for p, seed
                     in zip(noisy_distribution(ideal, q, flips), seeds)])


def analyze(analyzer, counts, mitigation=None, diagnostics=False):
    """<H> and E_L of one count matrix under ``Analyzer`` `analyzer`: the
    table stage of a stack of one, then its result; raises its failure.
    ``diagnostics`` adds what the main analysis of ``report.json`` holds."""
    table = analyzer.element_values(np.asarray(counts)[None], mitigation)
    return analyzer._result(table, diagnostics)


def bits_to_string(bits: int, n_qubits: int) -> str:
    """Outcome index as a bitstring, most-significant qubit first."""
    return format(bits, f"0{n_qubits}b")


def bitstring_probabilities(table: CountsTable, n_qubits: int) -> dict:
    """A CountsTable as the bitstring -> probability dict of the dict path."""
    return {bits_to_string(o, n_qubits): c / table.shots
            for o, c in zip(table.outcomes.tolist(), table.counts.tolist())}


def checked(function, *args):
    """``function(*args, failures)`` with the one failure slot of an
    unstacked call: raises the ValueError it records, else returns its
    result. A failed call runs on unread, as in the compiled analysis."""
    failures = [None]
    with np.errstate(divide="ignore", invalid="ignore"):
        result = function(*args, failures)
    if failures[0] is not None:
        raise ValueError(failures[0])
    return result


def identity_calibration(n_qubits: int) -> AssignmentCalibration:
    """Readout calibration of a register without readout errors."""
    eye = np.broadcast_to(np.eye(2), (n_qubits, 2, 2)).copy()
    return checked(AssignmentCalibration, eye, eye.copy())


def counts_tables(counts):
    """Count-matrix rows as CountsTables."""
    return [CountsTable(np.flatnonzero(row), row[row > 0], int(row.sum()))
            for row in counts]


def element_rdm(analyzer, values) -> RDM:
    """The dict RDM that holds element values given in the order of an
    Analyzer's ``elements``."""
    out = RDM(analyzer.order, analyzer.n_qubits, analyzer.n_electrons)
    for e, v in zip(analyzer_elements(analyzer), values):
        out.set(e.creations, e.annihilations, v)
    return out


class DictAnalyzer:
    """Counts -> energies through the dict-path reference functions.

    It takes the same arguments as the compiled Analyzer, builds the
    normal-ordered powers of ``h`` with ``qcm.hamiltonian_powers`` (once per
    session, through ``fixtures_util.shared_powers``) and contracts them
    against the RDM; ``analyze`` takes the same count matrix.
    """

    def __init__(self, cfg, plan, circuits, n_electrons, h):
        self.cfg = cfg
        self.plan = plan
        self.circuits = circuits
        self.n_electrons = n_electrons
        self.h_powers = shared_powers(h)
        self.n_qubits = plan.n_modes
        self.spins = plan.spins
        occ = tuple(range(n_electrons))
        self.sz = sz_of(occ, self.spins)
        self.ideal_ref = rdm_from_determinant(occ, self.n_qubits, plan.order)
        mixed = {}
        for e in plan.coverage():
            ops = [(s, True) for s in e.creations] + \
                [(t, False) for t in reversed(e.annihilations)]
            op = from_ops(self.n_qubits, ops)
            mixed[e] = mixed_state_value(op, n_electrons, sz=self.sz,
                                         spins=self.spins)
        self.mixed = mixed
        self._memo, self._memo_counts = {}, None

    def _mitigated(self, table, cal, clip):
        """QREM, then clipping if `clip`, memoised by the table's and the
        calibration's bytes and the flag: the mitigation stacks that share
        them share the result, which no later step mutates. The memo holds
        one count matrix's tables."""
        key = (table.outcomes.tobytes(), table.counts.tobytes(), table.shots,
               cal.inverses.tobytes(), bool(clip))
        if key not in self._memo:
            probs = apply_qrem(table, cal)
            self._memo[key] = clip_to_physical(probs) if clip else probs
        return self._memo[key]

    def _table(self, table, mc, mit, cal):
        if mit.get("qrem"):
            probs = self._mitigated(table, cal, mit.get("clip"))
        else:
            probs = bitstring_probabilities(table, self.n_qubits)
        rate = 1.0
        if mit.get("postselect"):
            probs, rate = symmetry_postselect(
                probs, self.n_electrons, self.sz,
                position_spins(mc, self.spins, self.n_qubits))
        return probs, rate

    def analyze(self, counts, mitigation=None, diagnostics=False):
        mit = dict(self.cfg.mitigation if mitigation is None else mitigation)
        if self._memo_counts != counts.tobytes():
            self._memo, self._memo_counts = {}, counts.tobytes()
        tables = counts_tables(counts)
        cal = checked(calibration_from_counts, counts[0], counts[1]) \
            if mit.get("qrem") else None
        n_bases = len(self.plan.bases)
        rdms, rates = {}, {}
        for which, offset in (("trial", 2), ("reference", 2 + n_bases)):
            prob_tables, acc = [], []
            for i in range(n_bases):
                probs, rate = self._table(
                    tables[offset + i],
                    self.circuits[self.plan.bases[i].parent], mit, cal)
                prob_tables.append(probs)
                acc.append(rate)
            rdm = assemble_rdm(self.plan, self.circuits, prob_tables,
                               self.n_electrons)
            if mit.get("rescale"):
                rdm = rescale_rdm(rdm)
            rdms[which] = rdm
            rates[which] = acc
        q_hat = 0.0
        rdm = rdms["trial"]
        if mit.get("calibrate"):
            elements = list(self.mixed)

            def values(r):
                return np.array([r.get(e.creations, e.annihilations).real
                                 for e in elements])

            mixed = np.array([self.mixed[e] for e in elements])
            q_fit = checked(fit_white_noise_rate, values(rdms["reference"]),
                            values(self.ideal_ref), mixed)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q_hat, corrected = reference_calibrate(values(rdm), q_fit,
                                                       mixed)
            if q_hat > 0.0:
                # the trial RDM was assembled for this call alone
                for e, v in zip(elements, corrected):
                    rdm.set(e.creations, e.annihilations, v)
                if mit.get("rescale"):
                    rdm = rescale_rdm(rdm)
        m = moments_from_rdm(self.h_powers, rdm, self.n_electrons)
        c = cumulants(m)
        noise_floor = 3.0 / np.sqrt(self.cfg.shots)
        if -noise_floor < c.c2 < 0.0:
            c = CumulantSet(c.c1, 0.0, c.c3, c.c4)
        result = {"h": m.m1, "e_l": lanczos_energy(c)}
        if diagnostics:
            result.update(q_hat=q_hat, acceptance=rates, rdm=rdm,
                          representability=rdm_representability(rdm))
        return result
