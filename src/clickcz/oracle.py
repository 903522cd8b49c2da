"""Independent verification: dense density matrices, exhaustive outcome
enumeration, fidelity metrics, and golden reproduction of the reference
tables and stated probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from . import states, tables
from .fock import NORM_TOL, Branch, Ensemble, FockVector, ModeMismatchError, PureState
from .gadgets import GadgetResult, a2c, b2g, cz_gate, cz_full_pipeline, ecc_optics, ecc, g2a

if TYPE_CHECKING:
    import numpy as np


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


def enumerate_exact(gadget: str, input_state: PureState | None = None) -> list[Branch]:
    """All branches of a registered gadget, sorted by (label, disposition,
    -weight, support): ``outcome_table``'s order, with whole branches.

    The CLI reads the table directly; the tests and the
    ``perfbench/tracing.py`` boundaries read this.
    """
    if gadget not in GADGETS:
        raise ValueError(f"unknown gadget {gadget!r}; expected one of {sorted(GADGETS)}")
    return sorted(
        GADGETS[gadget](input_state).ensemble.branches,
        key=lambda b: (b.label, b.disposition, -b.weight, tuple(sorted(b.state._amps))),
    )


# A table member: the weight and state of one branch.
_Member = tuple[float, PureState]


def _stage_groups(
    children: Sequence[Branch], after_record: bool
) -> list[tuple[str, str, list[_Member]]]:
    """A stage's branches grouped by (the text each adds to its parent's
    label, disposition), in stage order within a group.

    After a parent's record, a record adds ``"+"`` and its own label, and an
    empty record adds nothing; after an empty record, the text is the label.
    So one parent's groups go to distinct table keys.
    """
    groups: dict[tuple[str, str], list[_Member]] = {}
    for b in children:
        text = "+".join([e.label for e in b.record])
        if after_record and b.record:
            text = "+" + text
        groups.setdefault((text, b.disposition), []).append((b.weight, b.state))
    return [(text, disposition, members) for (text, disposition), members in groups.items()]


def outcome_table(ensemble: Ensemble) -> dict[tuple[str, str], list[_Member]]:
    """The ensemble's (weight, state) pairs grouped by (label, disposition),
    in canonical order.

    It reads the ensemble's factors (``Ensemble.then`` keeps them), not the
    product: each parent's label is joined once, each distinct stage result
    is grouped once, and a parent adds each of its stage groups to the table
    at once, weighted ``parent.weight * child.weight`` as ``then`` weights
    them. Members are collected in the product's order. The keys come out
    sorted; within a group of more than one member, the members are sorted
    stably by (-weight, sorted support of the state), so full ties keep
    ensemble order. That sort runs once, on the product weights: a tie that
    rounding makes in a product is broken by the support. Flattened, this
    is every branch sorted by (label, disposition, -weight, support).
    """
    groups: dict[tuple[str, str], list[_Member]] = {}
    # each distinct stage result's groups, for a parent with a record and without
    staged: dict[tuple[int, bool], list[tuple[str, str, list[_Member]]]] = {}
    for parent, children in ensemble._factors():
        label = "+".join([e.label for e in parent.record])
        if children is None:
            groups.setdefault((label, parent.disposition), []).append((parent.weight, parent.state))
            continue
        after_record = bool(parent.record)
        parts = staged.get((id(children), after_record))
        if parts is None:
            parts = staged[id(children), after_record] = _stage_groups(children, after_record)
        weight = parent.weight
        for text, disposition, members in parts:
            key = (label + text if after_record else text, disposition)
            groups.setdefault(key, []).extend([(weight * w, s) for w, s in members])

    # the support is computed once per distinct state object; the ensemble
    # keeps every state alive, so no id is reused meanwhile
    supports: dict[int, tuple[FockVector, ...]] = {}

    def tie_break(member: _Member) -> tuple[float, tuple[FockVector, ...]]:
        weight, state = member
        support = supports.get(id(state))
        if support is None:
            support = supports[id(state)] = tuple(sorted(state._amps))
        return -weight, support

    table = {key: groups[key] for key in sorted(groups)}
    for group in table.values():
        if len(group) > 1:
            group.sort(key=tie_break)
    return table


def aggregate_probabilities(
    table: Mapping[tuple[str, str], Sequence[_Member]],
) -> list[tuple[str, str, float]]:
    """Total probability per (label, disposition) of an ``outcome_table``.

    The weights of each group's (weight, state) pairs are summed from 0.0 in
    group order. The keys must
    come in ``outcome_table`` order; a key that sorts before the one ahead
    of it raises ``ValueError``.
    """
    out: list[tuple[str, str, float]] = []
    previous = None
    for key, group in table.items():
        if previous is not None and key < previous:
            raise ValueError(
                f"key {key} comes after {previous}; the table must be in outcome_table order"
            )
        # a += loop, not sum(), which Python 3.12 made compensated
        total = 0.0
        for weight, _ in group:
            total += weight
        out.append((*key, total))
        previous = key
    return out


# -- golden-table verification ----------------------------------------------------


@dataclass(frozen=True)
class RowReport:
    key: str
    matched: bool
    max_deviation: float


@dataclass(frozen=True)
class TableReport:
    table_id: int
    rows: tuple[RowReport, ...] = field(default_factory=tuple)

    @property
    def matched(self) -> bool:
        return all(r.matched for r in self.rows)


def match_up_to_phase(
    actual: PureState, golden: Mapping[FockVector, complex]
) -> tuple[bool, float, complex]:
    """Compare against reference amplitudes after global-phase alignment, to NORM_TOL.

    The phase reference is the largest-magnitude golden amplitude, ties
    broken by canonical basis order.
    """
    ref_vec = min(golden, key=lambda v: (-abs(golden[v]), v))
    actual_ref = actual.amplitude(ref_vec)
    if abs(actual_ref) < NORM_TOL:
        return False, float("inf"), 1.0 + 0j
    phase = (golden[ref_vec] / abs(golden[ref_vec])) / (actual_ref / abs(actual_ref))
    vectors = set(golden) | {vec for vec, _ in actual.items()}
    deviation = max(
        abs(golden.get(vec, 0j) - phase * actual.amplitude(vec)) for vec in vectors
    )
    return deviation <= NORM_TOL, deviation, phase


def _verify_filter_table(table_id: int, goldens: Mapping[str, Mapping]) -> TableReport:
    """Tables 1 and 2: the error filter's pre-detection output per input key."""
    rows = []
    for key, golden in goldens.items():
        pre, rail_order = ecc_optics(PureState(2, {states._ket(key): 1.0}), 0, 1)
        assert rail_order == (0, 1, 2, 3)
        ok, dev, _ = match_up_to_phase(pre, golden)
        rows.append(RowReport(key, ok, dev))
    return TableReport(table_id, tuple(rows))


def _verify_table3() -> TableReport:
    double_ghz = states.ghz_plus().tensor(states.ghz_plus())
    ensemble = ecc(double_ghz, 1, 4)
    rows = []
    for branch in ensemble.kept():
        label = branch.record[-1].label
        golden = tables.TABLE3["5,6" if label in ("5", "6") else "3,4"]
        ok, dev, _ = match_up_to_phase(branch.state, golden)
        weight_ok = abs(branch.weight - 0.125) <= NORM_TOL
        rows.append(RowReport(label, ok and weight_ok, dev))
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
            if abs(branch.weight - tables.TABLE4_PROBABILITY) > NORM_TOL:
                ok = False
            prev_ok, prev_dev = per_label[pair]
            per_label[pair] = (prev_ok and ok, max(prev_dev, dev))
        for label in tables.TABLE4_LABELS:
            if label not in seen:
                per_label[label] = (False, float("inf"))
    rows = tuple(RowReport(label, ok, dev) for label, (ok, dev) in sorted(per_label.items()))
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
