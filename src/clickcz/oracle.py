"""Independent verification: dense density matrices, exhaustive outcome
enumeration, fidelity metrics, and golden reproduction of the reference
tables and stated probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from . import states, tables
from .fock import Branch, Ensemble, FockVector, ModeMismatchError, PureState
from .gadgets import GadgetResult, a2c, b2g, cz_gate, cz_full_pipeline, ecc_optics, ecc, g2a

if TYPE_CHECKING:
    import numpy as np

PHASE_TOL = 1e-12


# -- dense density matrices ------------------------------------------------------
# Only this section uses numpy, and each function here that needs it imports
# it, so that enumerating and verifying start without it.


@dataclass(frozen=True)
class DensityMatrix:
    """Dense matrix over the truncated basis actually spanned by a mixture."""

    basis: tuple[FockVector, ...]
    matrix: np.ndarray

    @property
    def trace(self) -> float:
        return float(self.matrix.trace().real)

    @property
    def hermiticity_defect(self) -> float:
        return float(abs(self.matrix - self.matrix.conj().T).max())

    @property
    def min_eigenvalue(self) -> float:
        import numpy as np

        return float(np.min(np.linalg.eigvalsh(self.matrix)))

    def vector_of(self, state: PureState) -> np.ndarray:
        import numpy as np

        index = {vec: i for i, vec in enumerate(self.basis)}
        out = np.zeros(len(self.basis), dtype=complex)
        for vec, amp in state.items():
            if vec not in index:
                raise ModeMismatchError(f"{vec} outside the density-matrix basis")
            out[index[vec]] = amp
        return out


def _support_basis(branches: Sequence[Branch]) -> tuple[FockVector, ...]:
    support: set[FockVector] = set()
    modes = None
    for branch in branches:
        if modes is None:
            modes = branch.state.modes
        elif branch.state.modes != modes:
            raise ModeMismatchError("branches do not share a mode count")
        support.update(vec for vec, _ in branch.state.items())
    return tuple(sorted(support))


def density_of(ensemble: Ensemble, keep_only: bool = False) -> DensityMatrix:
    """Σ weight·|ψ⟩⟨ψ| over branches; renormalized when restricted to kept."""
    import numpy as np

    branches = ensemble.kept() if keep_only else ensemble.branches
    if not branches:
        raise ValueError("no branches selected")
    basis = _support_basis(branches)
    index = {vec: i for i, vec in enumerate(basis)}
    rho = np.zeros((len(basis), len(basis)), dtype=complex)
    total = 0.0
    for branch in branches:
        vec = np.zeros(len(basis), dtype=complex)
        for k, amp in branch.state.items():
            vec[index[k]] = amp
        rho += branch.weight * np.outer(vec, vec.conj())
        total += branch.weight
    if keep_only:
        rho /= total
    return DensityMatrix(basis, rho)


def mixture_density(parts: Sequence[tuple[float, PureState]]) -> DensityMatrix:
    """Density matrix of an explicitly specified mixture (reference route)."""
    branches = tuple(Branch(w, s) for w, s in parts)
    return density_of(Ensemble(branches))


def fidelity(rho: DensityMatrix, psi: PureState) -> float:
    """⟨ψ|ρ|ψ⟩ for a pure target state."""
    vec = rho.vector_of(psi)
    return float((vec.conj() @ rho.matrix @ vec).real)


def density_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Max absolute entry difference over the union of the two bases."""
    import numpy as np

    basis = tuple(sorted(set(a.basis) | set(b.basis)))
    index = {vec: i for i, vec in enumerate(basis)}

    def lift(d: DensityMatrix) -> np.ndarray:
        out = np.zeros((len(basis), len(basis)), dtype=complex)
        rows = [index[v] for v in d.basis]
        out[np.ix_(rows, rows)] = d.matrix
        return out

    return float(np.max(np.abs(lift(a) - lift(b))))


# -- exhaustive outcome enumeration ----------------------------------------------


class OutcomeRow(NamedTuple):
    """One branch as a report reads it; a named tuple, so equality is tuple equality."""

    label: str
    disposition: str
    probability: float
    state: PureState


def _default_cz_input() -> PureState:
    return states.product_two_qubit((1, 1), (1, 1))


GADGETS: dict[str, Callable[[PureState | None], GadgetResult]] = {
    "b2g": lambda s: b2g(s if s is not None else states.bell_phi_plus().tensor(states.bell_phi_plus())),
    "g2a": lambda s: g2a(s if s is not None else states.ghz_plus().tensor(states.ghz_plus())),
    "a2c": lambda s: GadgetResult(
        a2c(s if s is not None else states.basis_two_qubit("HH"), 0, 1)
    ),
    "cz": lambda s: cz_gate(s if s is not None else _default_cz_input()),
    "pipeline": lambda s: cz_full_pipeline(s if s is not None else _default_cz_input()),
}


def enumerate_exact(gadget: str, input_state: PureState | None = None) -> list[OutcomeRow]:
    """All measurement branches of a registered gadget, canonically sorted.

    The CLI builds its rows through ``outcome_rows`` directly; the readers of
    this entry point are the tests and the ``perfbench/tracing.py`` boundaries.
    """
    if gadget not in GADGETS:
        raise ValueError(f"unknown gadget {gadget!r}; expected one of {sorted(GADGETS)}")
    return outcome_rows(GADGETS[gadget](input_state).ensemble)


def outcome_rows(ensemble: Ensemble) -> list[OutcomeRow]:
    """One row per branch, in canonical order.

    Ties are broken by the sorted support of the state, computed once per
    distinct state object (branches share states after ``Ensemble.then``).
    """
    rows = [
        OutcomeRow(b.label, b.disposition, b.weight, b.state) for b in ensemble.branches
    ]
    distinct = {id(r.state): r.state for r in rows}
    support = {key: tuple(sorted(state._amps)) for key, state in distinct.items()}
    rows.sort(key=lambda r: (r.label, r.disposition, -r.probability, support[id(r.state)]))
    return rows


def aggregate_probabilities(rows: Sequence[OutcomeRow]) -> list[tuple[str, str, float]]:
    """Total probability per (label, disposition), sorted by label.

    The rows must come in ``outcome_rows`` order, where each key is one run
    of consecutive rows; a run is summed in row order. A key that sorts
    before the key of the run ahead of it raises ``ValueError``.
    """
    out: list[tuple[str, str, float]] = []
    label = disposition = None
    total = 0.0
    for row in rows:
        if row.label != label or row.disposition != disposition:
            if label is not None:
                if (row.label, row.disposition) < (label, disposition):
                    raise ValueError(
                        f"row {(row.label, row.disposition)} comes after "
                        f"{(label, disposition)}; rows must be in outcome_rows order"
                    )
                out.append((label, disposition, total))
            label, disposition, total = row.label, row.disposition, 0.0
        total += row.probability
    if label is not None:
        out.append((label, disposition, total))
    return out


# -- golden-table verification ----------------------------------------------------


@dataclass(frozen=True)
class RowReport:
    key: str
    matched: bool
    max_deviation: float
    phase: complex


@dataclass(frozen=True)
class TableReport:
    table_id: int
    rows: tuple[RowReport, ...] = field(default_factory=tuple)

    @property
    def matched(self) -> bool:
        return all(r.matched for r in self.rows)


def match_up_to_phase(
    actual: PureState,
    golden: Mapping[FockVector, complex],
    tol: float = PHASE_TOL,
) -> tuple[bool, float, complex]:
    """Compare against reference amplitudes after global-phase alignment.

    The phase reference is the largest-magnitude golden amplitude, ties
    broken by canonical basis order.
    """
    ref_vec = min(golden, key=lambda v: (-abs(golden[v]), v))
    actual_ref = actual.amplitude(ref_vec)
    if abs(actual_ref) < tol:
        return False, float("inf"), 1.0 + 0j
    phase = (golden[ref_vec] / abs(golden[ref_vec])) / (actual_ref / abs(actual_ref))
    vectors = set(golden) | {vec for vec, _ in actual.items()}
    deviation = max(
        abs(golden.get(vec, 0j) - phase * actual.amplitude(vec)) for vec in vectors
    )
    return deviation <= tol, deviation, phase


def _two_mode_input(key: str) -> PureState:
    occ = {"H": (1, 0), "V": (0, 1), "0": (0, 0)}
    return PureState(2, {(occ[key[0]], occ[key[1]]): 1.0})


def _verify_filter_table(table_id: int, goldens: Mapping[str, Mapping]) -> TableReport:
    """Tables 1 and 2: the error filter's pre-detection output per input key."""
    rows = []
    for key, golden in goldens.items():
        pre, rail_order = ecc_optics(_two_mode_input(key), 0, 1)
        assert rail_order == (0, 1, 2, 3)
        ok, dev, phase = match_up_to_phase(pre, golden)
        rows.append(RowReport(key, ok, dev, phase))
    return TableReport(table_id, tuple(rows))


def _verify_table3() -> TableReport:
    double_ghz = states.ghz_plus().tensor(states.ghz_plus())
    ensemble = ecc(double_ghz, 1, 4)
    rows = []
    for branch in ensemble.kept():
        label = branch.record[-1].label
        golden = tables.TABLE3["5,6" if label in ("5", "6") else "3,4"]
        ok, dev, phase = match_up_to_phase(branch.state, golden)
        weight_ok = abs(branch.weight - 0.125) <= PHASE_TOL
        rows.append(RowReport(label, ok and weight_ok, dev, phase))
    rows.sort(key=lambda r: r.key)
    return TableReport(3, tuple(rows))


def _verify_table4() -> TableReport:
    inputs = [states.basis_two_qubit(k) for k in ("HH", "HV", "VH", "VV")]
    inputs.append(states.two_qubit(0.5, 0.5j, -0.5, 0.5))
    per_label: dict[str, tuple[bool, float]] = {
        label: (True, 0.0) for label in tables.TABLE4_LABELS
    }
    for state in inputs:
        target = states.controlled_phase_of(state).normalized()
        golden = dict(target.items())
        result = cz_gate(state)
        seen = set()
        for branch in result.success_branches():
            pair = branch.record[-2].label + branch.record[-1].label
            seen.add(pair)
            ok, dev, _ = match_up_to_phase(branch.state, golden)
            if abs(branch.weight - tables.TABLE4_PROBABILITY) > PHASE_TOL:
                ok = False
            prev_ok, prev_dev = per_label[pair]
            per_label[pair] = (prev_ok and ok, max(prev_dev, dev))
        for label in tables.TABLE4_LABELS:
            if label not in seen:
                per_label[label] = (False, float("inf"))
    rows = tuple(
        RowReport(label, ok, dev, 1.0 + 0j)
        for label, (ok, dev) in sorted(per_label.items())
    )
    return TableReport(4, rows)


def verify_table(table_id: int) -> TableReport:
    """Re-run the relevant gadget and compare against the golden table."""
    verifiers = {
        1: lambda: _verify_filter_table(1, tables.TABLE1),
        2: lambda: _verify_filter_table(2, {k: tables.table2_state(k) for k in tables.TABLE2}),
        3: _verify_table3,
        4: _verify_table4,
    }
    if table_id not in verifiers:
        raise ValueError(f"table id must be 1..4, got {table_id}")
    return verifiers[table_id]()


def verify_all_tables() -> list[TableReport]:
    return [verify_table(i) for i in (1, 2, 3, 4)]


# -- reference mixtures ------------------------------------------------------------


def partial_ghz_density() -> DensityMatrix:
    """The mixture (2|GHZ+⟩⟨GHZ+| + |V0H⟩⟨V0H|)/3, built directly."""
    return mixture_density(
        [(2.0 / 3.0, states.ghz_plus()), (1.0 / 3.0, states.v0h())]
    )
