"""Dict-path analysis: the reference that the compiled
:class:`qcmoments.analysis.Analyzer` is checked against.

It chains the bitstring-dict mitigation functions, ``assemble_rdm`` and
``moments_from_rdm`` table by table, as the command line did before the
analysis was compiled into array maps.
"""
import warnings

import numpy as np

from qcmoments.analysis import position_spins
from qcmoments.conventions import bits_to_string, sz_of
from qcmoments.fermion import FermionOperator
from qcmoments.mitigation import (
    apply_qrem, assemble_rdm, calibration_from_counts,
    check_representability, clip_to_physical, mixed_state_value,
    reference_calibrate, rescale_rdm, symmetry_postselect,
)
from qcmoments.qcm import (
    CumulantSet, cumulants, lanczos_energy, moments_from_rdm,
)
from qcmoments.rdm import rdm_from_determinant
from qcmoments.simulator import CountsTable


def counts_tables(counts, n_qubits):
    """Count-matrix rows as bitstring-keyed CountsTables."""
    return [CountsTable({bits_to_string(int(i), n_qubits): int(row[i])
                         for i in np.flatnonzero(row)}, int(row.sum()))
            for row in counts]


class DictAnalyzer:
    """Counts -> energies through the dict-path reference functions.

    ``analyze`` takes the same count matrix as the compiled Analyzer.
    """

    def __init__(self, cfg, plan, circuits, n_electrons, h_powers):
        self.cfg = cfg
        self.plan = plan
        self.circuits = circuits
        self.n_electrons = n_electrons
        self.h_powers = h_powers
        self.n_qubits = plan.n_modes
        self.spins = plan.spins
        occ = tuple(range(n_electrons))
        self.sz = sz_of(occ, self.spins)
        order = next(iter(plan.coverage)).order
        self.ideal_ref = rdm_from_determinant(occ, self.n_qubits, order)
        mixed = {}
        for e in plan.coverage:
            ops = [(s, True) for s in e.creations] + \
                [(t, False) for t in reversed(e.annihilations)]
            op = FermionOperator.from_ops(self.n_qubits, ops)
            mixed[e] = mixed_state_value(op, n_electrons, sz=self.sz,
                                         spins=self.spins)
        self.mixed = mixed

    def _table(self, table, mc, mit, cal):
        if mit.get("qrem"):
            probs = apply_qrem(table, cal)
            if mit.get("clip"):
                probs = clip_to_physical(probs)
        else:
            probs = table.probabilities()
        rate = 1.0
        if mit.get("postselect"):
            probs, rate = symmetry_postselect(
                probs, self.n_electrons, self.sz,
                position_spins(mc, self.spins, self.n_qubits))
        return probs, rate

    def analyze(self, counts, mitigation=None, diagnostics=False):
        mit = dict(self.cfg.mitigation if mitigation is None else mitigation)
        tables = counts_tables(counts, self.n_qubits)
        cal = calibration_from_counts(counts[0], counts[1]) \
            if mit.get("qrem") else None
        n_bases = len(self.plan.bases)
        rdms, rates = {}, {}
        for which, offset in (("trial", 2), ("reference", 2 + n_bases)):
            prob_tables, acc = [], []
            for i in range(n_bases):
                probs, rate = self._table(tables[offset + i],
                                          self.circuits[i], mit, cal)
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
            elements = list(self.plan.coverage)

            def values(r):
                return np.array([r.get(e.creations, e.annihilations).real
                                 for e in elements])

            mixed = np.array([self.mixed[e] for e in elements])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                q_hat, corrected = reference_calibrate(
                    values(rdm), values(rdms["reference"]),
                    values(self.ideal_ref), mixed, tolerance=1e-6)
            if q_hat > 0.0:
                rdm = rdm.copy()
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
                          representability=check_representability(
                              rdm).to_json())
        return result
