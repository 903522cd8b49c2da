"""Property suite: invariants that must hold for arbitrary states/elements."""

import cmath
import functools
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from clickcz import detection, gadgets, states
from clickcz.cli import RunReport, _dumps_indented
from clickcz.detection import RuleAction, _readout, measure_nr, pid, pid_split, trace_out
from clickcz.elements import (
    _two_rail_transform,
    apply_bs,
    apply_circuit,
    apply_element,
    apply_pbs,
    apply_pdps,
    apply_pr,
    bs,
    pbs,
    pdps,
    pr,
    ps,
)
from clickcz.fock import (
    DEFAULT_PHOTON_CAP,
    PRUNE_EPS,
    Branch,
    ConsistencyError,
    Ensemble,
    FeedForwardError,
    OutcomeEvent,
    PureState,
    _agree,
)
from clickcz.oracle import outcome_table

from conftest import resolved

TOL = 1e-12

occupancies = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def sparse_states(draw, modes=st.integers(1, 3), max_terms=4):
    m = draw(modes)
    n_terms = draw(st.integers(1, max_terms))
    amps = {}
    for _ in range(n_terms):
        vec = tuple(draw(occupancies) for _ in range(m))
        if sum(h + v for h, v in vec) > 6:
            continue
        re = draw(st.floats(-1, 1, allow_nan=False))
        im = draw(st.floats(-1, 1, allow_nan=False))
        amps[vec] = complex(re, im)
    state = PureState(m, amps)
    if state.norm2 < 1e-6:
        return PureState.vacuum(m)
    return state.normalized()


@st.composite
def elements_for(draw, modes: int):
    kind = draw(st.sampled_from(["PR", "PS", "PDPS", "BS", "PBS"]))
    angle = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    if kind in ("PR", "PS", "PDPS"):
        target = draw(st.integers(0, modes - 1))
        if kind == "PR":
            return pr(target, angle)
        return ps(target, angle) if kind == "PS" else pdps(target, angle)
    a = draw(st.integers(0, modes - 1))
    b = draw(st.integers(0, modes - 1).filter(lambda x: x != a))
    return bs(a, b) if kind == "BS" else pbs(a, b)


@given(data=st.data(), psi=sparse_states(modes=st.just(3)))
@settings(max_examples=300, deadline=None)
def test_every_element_is_unitary(data, psi):
    element = data.draw(elements_for(3))
    out = apply_element(psi, element)
    assert abs(out.norm2 - psi.norm2) <= TOL


@given(data=st.data(), vec=st.tuples(occupancies, occupancies, occupancies))
@settings(max_examples=300, deadline=None)
def test_photon_number_conserved_term_by_term(data, vec):
    total = sum(h + v for h, v in vec)
    if total > 6:
        return
    element = data.draw(elements_for(3))
    out = apply_element(PureState(3, {vec: 1.0}), element)
    for out_vec, _ in out.items():
        assert sum(h + v for h, v in out_vec) == total


@given(psi=sparse_states(modes=st.just(2)), theta=st.floats(-2, 2, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_rotation_inverse(psi, theta):
    back = apply_element(apply_element(psi, pr(0, theta)), pr(0, -theta))
    for vec, amp in psi.items():
        assert abs(back.amplitude(vec) - amp) <= 1e-11


@given(psi=sparse_states(modes=st.just(2)), phi=st.floats(-2, 2, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_phase_inverse(psi, phi):
    back = apply_element(apply_element(psi, pdps(0, phi)), pdps(0, -phi))
    for vec, amp in psi.items():
        assert abs(back.amplitude(vec) - amp) <= 1e-11


@given(psi=sparse_states(modes=st.just(2)))
@settings(max_examples=200, deadline=None)
def test_splitters_are_self_inverse(psi):
    for element in (bs(0, 1), pbs(0, 1)):
        back = apply_element(apply_element(psi, element), element)
        for vec, amp in psi.items():
            assert abs(back.amplitude(vec) - amp) <= 1e-11


@given(data=st.data(), psi=sparse_states(modes=st.just(4)))
@settings(max_examples=200, deadline=None)
def test_disjoint_elements_commute(data, psi):
    from dataclasses import replace

    first = data.draw(elements_for(2))
    second_raw = data.draw(elements_for(2))
    shifted = replace(second_raw, targets=tuple(t + 2 for t in second_raw.targets))
    ab = apply_element(apply_element(psi, first), shifted)
    ba = apply_element(apply_element(psi, shifted), first)
    for vec, amp in ab.items():
        assert abs(ba.amplitude(vec) - amp) <= 1e-11


@given(a=sparse_states(modes=st.just(2)), b=sparse_states(modes=st.just(2)))
@settings(max_examples=200, deadline=None)
def test_tensor_norm_multiplies(a, b):
    def heaviest(state):
        return max(sum(h + v for h, v in vec) for vec, _ in state.items())

    assume(heaviest(a) + heaviest(b) <= 8)
    assert abs(a.tensor(b).norm2 - a.norm2 * b.norm2) <= TOL


@given(psi=sparse_states(modes=st.just(4)), perm=st.permutations(range(4)))
@settings(max_examples=200, deadline=None)
def test_reorder_roundtrip(psi, perm):
    perm = tuple(perm)
    inverse = tuple(perm.index(i) for i in range(4))
    back = psi.reorder_modes(perm).reorder_modes(inverse)
    assert dict(back.items()) == dict(psi.items())


@given(psi=sparse_states(modes=st.just(3)), mode=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_trace_out_preserves_weight(psi, mode):
    ens = Ensemble.pure(psi)
    assert abs(trace_out(ens, mode).total_weight - ens.total_weight) <= TOL


@given(psi=sparse_states(modes=st.just(3)), mode=st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_measurement_weights_complete(psi, mode):
    out = measure_nr(psi, (mode,), site="det")
    assert abs(out.total_weight - psi.norm2) <= TOL
    for branch in out.branches:
        assert branch.state.is_normalized()


PASSTHROUGH = {
    "Hn0": RuleAction(),
    "0Vn": RuleAction(),
    "00": RuleAction(),
    "HnVn": RuleAction(),
}


def test_pid_is_blind_on_the_computational_basis():
    # observing which detector fired says nothing about H vs V
    h_out = pid(states.qubit(1, 0), 0, PASSTHROUGH)
    v_out = pid(states.qubit(0, 1), 0, PASSTHROUGH)
    for out in (h_out, v_out):
        dist = {b.record[-1].label: b.weight for b in out.branches}
        assert dist["Hn0"] == pytest.approx(0.5, abs=TOL)
        assert dist["0Vn"] == pytest.approx(0.5, abs=TOL)


@given(
    re_a=st.floats(-1, 1, allow_nan=False),
    im_a=st.floats(-1, 1, allow_nan=False),
    re_b=st.floats(-1, 1, allow_nan=False),
    im_b=st.floats(-1, 1, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_pid_counts_one_photon_for_any_polarization(re_a, im_a, re_b, im_b):
    # the photon-number readout is faithful regardless of polarization:
    # exactly one detector clicks, never zero, never both
    alpha, beta = complex(re_a, im_a), complex(re_b, im_b)
    if abs(alpha) ** 2 + abs(beta) ** 2 < 1e-4:
        return
    out = pid(states.qubit(alpha, beta), 0, PASSTHROUGH)
    assert abs(out.total_weight - 1.0) <= TOL
    for branch in out.branches:
        assert branch.record[-1].label in ("Hn0", "0Vn")


def _assert_survives_revalidation(state: PureState) -> None:
    again = PureState(state.modes, dict(state.items()), photon_cap=state.photon_cap)
    assert (again.modes, again.photon_cap) == (state.modes, state.photon_cap)
    assert again.items() == state.items()
    for _vec, amp in state.items():
        assert type(amp) is complex
        assert cmath.isfinite(amp) and abs(amp) >= PRUNE_EPS


@given(data=st.data(), psi=sparse_states(modes=st.just(3)))
@settings(max_examples=200, deadline=None)
def test_trusted_results_survive_revalidation(data, psi):
    outputs = []
    for element in data.draw(st.lists(elements_for(3), min_size=1, max_size=6)):
        psi = apply_element(psi, element)
        outputs.append(psi)
    outputs += [
        psi.scaled(data.draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=10))),
        psi.reorder_modes(data.draw(st.permutations(range(3)))),
        psi.tensor(PureState(1, {((1, 0),): 0.6, ((0, 1),): 0.8j})),
    ]
    outputs += [b.state for b in measure_nr(psi, (data.draw(st.integers(0, 2)),), "m").branches]
    for state in outputs:
        _assert_survives_revalidation(state)


def _reference_two_rail(state, rail_a, rail_b, u):
    """Direct per-term expansion of a 2x2 creation-operator map, for comparison."""
    (ma, pa), (mb, pb) = rail_a, rail_b
    out = {}
    for vec, amp in state.items():
        n_a, n_b = vec[ma][pa], vec[mb][pb]
        base = amp / math.sqrt(math.factorial(n_a) * math.factorial(n_b))
        for i in range(n_a + 1):
            for j in range(n_b + 1):
                k_a, k_b = i + j, n_a + n_b - i - j
                coeff = (
                    base
                    * math.comb(n_a, i) * u[0][0] ** i * u[1][0] ** (n_a - i)
                    * math.comb(n_b, j) * u[0][1] ** j * u[1][1] ** (n_b - j)
                    * math.sqrt(math.factorial(k_a) * math.factorial(k_b))
                )
                mut = [list(m) for m in vec]
                mut[ma][pa] = k_a
                mut[mb][pb] = k_b
                new_vec = tuple(tuple(m) for m in mut)
                out[new_vec] = out.get(new_vec, 0j) + coeff
    return out


rails = st.tuples(st.integers(0, 2), st.integers(0, 1))
entries = st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False)


@given(
    psi=sparse_states(modes=st.just(3)),
    pair=st.tuples(rails, rails).filter(lambda p: p[0] != p[1]),
    u=st.tuples(st.tuples(entries, entries), st.tuples(entries, entries)),
)
@settings(max_examples=300, deadline=None)
def test_two_rail_transform_matches_direct_expansion(psi, pair, u):
    out = _two_rail_transform(psi, pair[0], pair[1], u)
    expected = _reference_two_rail(psi, pair[0], pair[1], u)
    for vec in set(expected) | {v for v, _ in out.items()}:
        assert abs(out.amplitude(vec) - expected.get(vec, 0j)) <= TOL


# -- detector readout ---------------------------------------------------------------


def _pid_reference(state, modes, site):
    split, fresh = pid_split(state, modes[0])
    return measure_nr(split, (modes[0], fresh), site)


def _ecc_reference(state, modes, site):
    mode_a, mode_b = modes
    pre = apply_pr(apply_pr(state, mode_a, math.pi / 4), mode_b, math.pi / 4)
    pre = apply_pbs(pre, mode_a, mode_b)
    pre = apply_pdps(apply_pdps(pre, mode_a, math.pi / 4), mode_b, math.pi / 4)
    split, rail_va = pid_split(pre, mode_a)
    split, rail_vb = pid_split(split, mode_b)
    return measure_nr(split, (mode_a, mode_b, rail_va, rail_vb), site)


def _a2c_reference(state, modes, site):
    mode_x, mode_y = modes
    split, rail_vx = pid_split(apply_bs(state, mode_x, mode_y), mode_x)
    split, rail_vy = pid_split(split, mode_y)
    return measure_nr(split, (mode_x, mode_y, rail_vx, rail_vy), site)


# Each site's circuit, its number of measured modes, and the
# site's optics written independently as kernel calls on the whole state,
# each PID as ``pid_split``, followed by ``measure_nr``.
READOUT_SITES = {
    "pid": (detection._PID_CIRCUIT, 1, _pid_reference),
    "ecc": (gadgets._ECC_CIRCUIT, 2, _ecc_reference),
    "a2c": (gadgets._A2C_CIRCUIT, 2, _a2c_reference),
}

readout_occupancies = st.sampled_from([(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)])


@st.composite
def readout_states(draw):
    """States on 3-5 modes with amplitudes well clear of the prune threshold."""
    m = draw(st.integers(3, 5))
    amps = {}
    for _ in range(draw(st.integers(1, 6))):
        vec = tuple(draw(readout_occupancies) for _ in range(m))
        if sum(h + v for h, v in vec) <= DEFAULT_PHOTON_CAP:
            amps[vec] = draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1))
    assume(amps)
    return PureState(m, amps).normalized()


@pytest.mark.parametrize("name", sorted(READOUT_SITES))
@given(data=st.data(), psi=readout_states())
@settings(max_examples=100, deadline=None)
def test_readout_matches_optics_then_measurement(name, data, psi):
    circuit, k, reference = READOUT_SITES[name]
    modes = tuple(data.draw(st.permutations(range(psi.modes)))[:k])
    try:
        expected = reference(psi, modes, "s").branches
    except ConsistencyError:  # three or more clicks at a fusion site
        event("inconsistent")
        with pytest.raises(ConsistencyError):
            _readout(psi, resolved(psi.modes, ((modes, circuit, "s"),)))
        return
    got = _readout(psi, resolved(psi.modes, ((modes, circuit, "s"),))).branches
    # same sectors in the same order: records, supports and amplitudes agree
    assert [b.record for b in got] == [b.record for b in expected]
    for mine, ref in zip(got, expected):
        assert abs(mine.weight - ref.weight) <= TOL
        assert mine.state.modes == ref.state.modes
        assert mine.state._amps.keys() == ref.state._amps.keys()
        for vec, amp in ref.state._amps.items():
            assert abs(mine.state._amps[vec] - amp) <= TOL


# -- deciding readout ---------------------------------------------------------------


@st.composite
def rule_actions(draw, modes):
    """A keep action with up to three elements on ``modes`` modes, or a discard,
    which takes none.

    Angles lie on a grid of π/2**20, so no amplitude lands within rounding
    of ``PRUNE_EPS``: the reference prunes after every element and the
    table once, so a term at the threshold could be kept by one and not
    the other. Tiny angles are pinned in ``test_detection.py``.
    """
    if draw(st.booleans()):
        return RuleAction(disposition="discard")
    elements = []
    for _ in range(draw(st.integers(0, 3)) if modes else 0):
        kind = draw(st.sampled_from(["PR", "PS", "PDPS", "BS", "PBS"][: 5 if modes > 1 else 3]))
        angle = draw(st.integers(-(2**20), 2**20)) * math.pi / 2**20
        if kind in ("BS", "PBS"):
            pair = draw(st.permutations(range(modes)))[:2]
            elements.append(bs(*pair) if kind == "BS" else pbs(*pair))
        else:
            make = {"PR": pr, "PS": ps, "PDPS": pdps}[kind]
            elements.append(make(draw(st.integers(0, modes - 1)), angle))
    return RuleAction(tuple(elements))


def _chained(psi, sites):
    """Each site read by its own ``_readout`` on every survivor of the one before."""
    ensemble = _readout(psi, resolved(psi.modes, sites[:1]))
    for site in sites[1:]:
        ensemble = Ensemble(
            tuple(
                Branch(parent.weight * b.weight, b.state, parent.record + b.record)
                for parent in ensemble.branches
                for b in _readout(parent.state, resolved(parent.state.modes, (site,))).branches
            )
        )
    return ensemble


def _decided(ensemble, rules):
    """Each branch looked up by its joined labels and corrected element by element.

    As ``_decide`` documents, a kept state that agrees (``_agree``: every
    amplitude within ``PRUNE_EPS``) with one its action corrected before
    takes that earlier correction, which can differ from its own by more
    than the 1e-15 the comparison allows.
    """
    out = []
    corrected: dict = {}
    for b in ensemble.branches:
        key = "".join(e.label for e in b.record)
        if key not in rules:
            raise FeedForwardError(f"no feed-forward rule for outcome {key!r}")
        action = rules[key]
        state = b.state
        if action.disposition == "keep" and action.elements:
            done = corrected.setdefault(id(action), [])
            earlier = [after for before, after in done if _agree(before, state)]
            if earlier:
                state = earlier[0]
            else:
                done.append((state, apply_circuit(state, action.elements)))
                state = done[-1][1]
        out.append(Branch(b.weight, state, b.record, action.disposition))
    return out


@pytest.mark.parametrize("first", sorted(READOUT_SITES))
@given(data=st.data(), psi=readout_states())
@settings(max_examples=100, deadline=None)
def test_deciding_readout_matches_composition(first, data, psi):
    second = data.draw(st.sampled_from(sorted(READOUT_SITES)))
    names = [first, second][: data.draw(st.integers(1, 2))]
    sites, left = [], psi.modes
    for i, name in enumerate(names):
        circuit, k, _reference = READOUT_SITES[name]
        if k > left:
            break
        modes = tuple(data.draw(st.permutations(range(left)))[:k])
        sites.append((modes, circuit, f"s{i}"))
        left -= k
    event(f"{len(sites)} sites")
    try:
        chained = _chained(psi, sites)
    except ConsistencyError:  # three or more clicks at a fusion site
        with pytest.raises(ConsistencyError):
            _readout(psi, resolved(psi.modes, sites), {})
        return
    keys = sorted({"".join(e.label for e in b.record) for b in chained.branches})
    rules = {key: data.draw(rule_actions(left)) for key in keys}
    if data.draw(st.integers(0, 9)) == 0:  # an outcome without a rule
        del rules[data.draw(st.sampled_from(keys))]
    try:
        expected = _decided(chained, rules)
    except FeedForwardError as exc:
        with pytest.raises(FeedForwardError, match=re.escape(str(exc))):
            _readout(psi, resolved(psi.modes, sites), rules)
        return
    got = _readout(psi, resolved(psi.modes, sites), rules).branches
    # same order, records, dispositions and weights bit for bit; corrections to 1e-15
    assert [b.record for b in got] == [b.record for b in expected]
    assert [b.disposition for b in got] == [b.disposition for b in expected]
    assert [b.weight for b in got] == [b.weight for b in expected]
    for mine, ref in zip(got, expected):
        assert mine.state.modes == ref.state.modes
        assert mine.state._amps.keys() == ref.state._amps.keys()
        for vec, amp in ref.state._amps.items():
            assert abs(mine.state._amps[vec] - amp) <= 1e-15


# -- permanents: an oracle for multi-photon optics ------------------------------------


def _rail_matrix(elements, modes):
    """The circuit's linear map of the 2·modes rails, rail 2·mode + pol (pol 0
    for H, 1 for V): column r is the image of rail r's creation operator.

    Each element's 2×2 rail map is written here as the ``elements`` module
    docstring states it, on the (first, second) rail pair it acts on.
    """
    u = np.eye(2 * modes, dtype=complex)
    for e in elements:
        h, v = 2 * e.targets[0], 2 * e.targets[0] + 1
        if e.kind == "PR":
            c, s = math.cos(e.theta), math.sin(e.theta)
            maps = [((h, v), ((c, -s), (s, c)))]
        elif e.kind == "PS":
            phase = cmath.exp(1j * e.phi)
            maps = [((h, v), ((phase, 0), (0, phase)))]
        elif e.kind == "PDPS":
            maps = [((h, v), ((1, 0), (0, cmath.exp(1j * e.phi))))]
        elif e.kind == "PBS":
            maps = [((v, 2 * e.targets[1] + 1), ((0, 1), (1, 0)))]
        else:
            r = 1 / math.sqrt(2)
            h_b, v_b = 2 * e.targets[1], 2 * e.targets[1] + 1
            maps = [((h, h_b), ((r, r), (r, -r))), ((v, v_b), ((r, r), (r, -r)))]
        step = np.eye(2 * modes, dtype=complex)
        for (i, j), ((m00, m01), (m10, m11)) in maps:
            step[i, i], step[i, j], step[j, i], step[j, j] = m00, m01, m10, m11
        u = step @ u
    return u


@functools.cache
def _subsets(k):
    """Every column subset of a k×k matrix as a 0/1 row, and its Ryser sign."""
    rows = np.array(list(itertools.product((0, 1), repeat=k)), dtype=float).reshape(2**k, k)
    return rows.T, (-1.0) ** (k - rows.sum(axis=1))


def _permanent(a):
    """Ryser's formula: Σ over column subsets S of (−1)^(k−|S|) ∏_i Σ_{j∈S} a_ij."""
    columns, signs = _subsets(len(a))
    return complex(np.sum(signs * np.prod(a @ columns, axis=0)))


def _rails(vec):
    return [n for occ in vec for n in occ]


def _fock_vectors(modes, photons):
    """Every occupancy of ``modes`` modes holding ``photons`` photons."""
    for combo in itertools.combinations_with_replacement(range(2 * modes), photons):
        counts = [combo.count(r) for r in range(2 * modes)]
        yield tuple(zip(counts[::2], counts[1::2]))


def _transition(u, out, inp):
    """⟨out|U|inp⟩ = Perm(U with rail j's row taken out_j times and rail i's
    column inp_i times) / √(∏ inp_i! ∏ out_j!)."""
    rows = [r for r, n in enumerate(_rails(out)) for _ in range(n)]
    cols = [r for r, n in enumerate(_rails(inp)) for _ in range(n)]
    norm = math.prod(math.factorial(n) for n in _rails(out) + _rails(inp))
    return _permanent(u[np.ix_(rows, cols)]) / math.sqrt(norm)


@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_apply_circuit_matches_permanents(data):
    modes = data.draw(st.integers(2, 4))
    elements = data.draw(st.lists(elements_for(modes), min_size=1, max_size=8))
    amps = {}
    for photons in data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3)):
        vec = data.draw(st.sampled_from(list(_fock_vectors(modes, photons))))
        amps[vec] = data.draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1))
    state = PureState(modes, amps).normalized()
    assert state.photon_cap == DEFAULT_PHOTON_CAP
    u = _rail_matrix(elements, modes)
    expected = {}
    for inp, amp in state.items():
        for out in _fock_vectors(modes, sum(_rails(inp))):
            expected[out] = expected.get(out, 0j) + amp * _transition(u, out, inp)
    got = apply_circuit(state, elements)
    for vec in set(expected) | {v for v, _ in got.items()}:
        assert abs(got.amplitude(vec) - expected.get(vec, 0j)) <= TOL


@pytest.mark.parametrize(
    "circuit, measured",
    [(detection._PID_CIRCUIT, 1), (gadgets._ECC_CIRCUIT, 2), (gadgets._A2C_CIRCUIT, 2)],
    ids=["pid", "ecc", "a2c"],
)
def test_site_tables_match_permanents(circuit, measured):
    # every head of up to four photons, padded with vacuum to the span
    span = 1 + max(t for e in circuit.elements for t in e.targets)
    u = _rail_matrix(circuit.elements, span)
    for photons in range(5):
        for head in _fock_vectors(measured, photons):
            image = dict(circuit.image(head))
            padded = head + ((0, 0),) * (span - measured)
            for out in _fock_vectors(span, photons):
                assert abs(image.get(out, 0j) - _transition(u, out, padded)) <= TOL


# -- report writer -----------------------------------------------------------------

_SHARED = object()  # stands for one shared subtree, substituted after drawing

json_scalars = (
    st.text(st.characters(blacklist_categories=("Cs",)))
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "a\nb", "\u2028", "é", "\U0001f600"])
    | st.integers()
    | st.integers(-(10**40), 10**40)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf])
    | st.floats().map(np.float64)
    | st.booleans()
    | st.none()
)


def json_trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=4), children, max_size=4),
        max_leaves=20,
    )


def _substitute(tree, shared):
    if tree is _SHARED:
        return shared
    if isinstance(tree, dict):
        return {k: _substitute(v, shared) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_substitute(v, shared) for v in tree)
    return tree


@given(
    tree=json_trees(json_scalars | st.just(_SHARED)),
    shared=json_trees(json_scalars),
)
@settings(max_examples=200, deadline=None)
def test_report_writer_matches_stdlib(tree, shared):
    # the shared subtree sits at several positions and depths, at depth 3 also
    # inside a container that is itself shared
    deep = {"deep": [shared, "between", shared]}
    doc = [
        _substitute(tree, shared),
        shared,
        {"other": [1, "two"]},
        shared,
        deep,
        [[shared]],
        deep,
        [{"last": shared}],
    ]
    report = RunReport("x", "enumerate", [], None, {"value": doc})
    expected = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    assert report.to_json() == expected
    # at depth d, the text is the doc's as the value of d nested keys
    wrapper = doc
    for depth in (1, 2, 3):
        wrapper = {"k": wrapper}
        head = "".join("{\n" + "  " * level + '"k": ' for level in range(1, depth + 1))
        tail = "".join("\n" + "  " * level + "}" for level in reversed(range(depth)))
        expected = json.dumps(wrapper, sort_keys=True, indent=2)
        assert head + _dumps_indented(doc, depth) + tail == expected


# Few states, labels and weights, so keys and supports collide often: "" is
# an empty label, and a record may be empty; each child weight may be moved
# one ulp, and a parent weight may be a zero of either sign.
_TABLE_STATES = [PureState(1, {(vec,): amp}) for vec in ((1, 0), (0, 1)) for amp in (1.0, -1.0)]
_BASE_WEIGHTS = [0.75, 0.5, 0.25, 0.006009615384615382]


@st.composite
def table_branches(draw, weights):
    labels = draw(st.lists(st.sampled_from(["a", ""]), max_size=2))
    return Branch(
        draw(weights),
        draw(st.sampled_from(_TABLE_STATES)),
        tuple(OutcomeEvent("s", (), label) for label in labels),
        draw(st.sampled_from(["keep", "discard"])),
    )


parent_weights = st.sampled_from([0.0, -0.0, 0.7, 0.007812499999999994, *_BASE_WEIGHTS])
child_weights = st.sampled_from(_BASE_WEIGHTS).flatmap(
    lambda w: st.sampled_from([w, math.nextafter(w, 0.0), math.nextafter(w, 1.0)])
)


@given(
    parents=st.lists(table_branches(parent_weights), min_size=2, max_size=8),
    stages=st.lists(st.lists(table_branches(child_weights), max_size=6), min_size=1, max_size=3),
    twice=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_staged_outcome_table_matches_flattened(parents, stages, twice):
    # each parent adds sorted runs and a key fed more than once is sorted
    # from them; that must equal sorting the product, bit for bit
    def stage(state):
        return Ensemble(tuple(stages[_TABLE_STATES.index(state) % len(stages)]))

    staged = Ensemble(tuple(parents)).then(stage)
    if twice:
        staged = staged.then(stage)
    table = outcome_table(staged)
    flattened = outcome_table(Ensemble(staged.branches))
    runs = [(key, [(repr(w), id(s)) for w, s in group]) for key, group in table.items()]
    assert runs == [
        (key, [(repr(w), id(s)) for w, s in group]) for key, group in flattened.items()
    ]
    feeders: dict = {}
    for i, (parent, children) in enumerate(staged._factors()):
        for b in [parent] if children is None else children:
            record = b.record if children is None else parent.record + b.record
            key = ("+".join([e.label for e in record]), b.disposition)
            feeders.setdefault(key, set()).add(i)
    event(f"keys fed by more than one parent: {min(sum(len(f) > 1 for f in feeders.values()), 3)}")
