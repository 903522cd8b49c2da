"""Property suite: invariants that must hold for arbitrary states/elements."""

import cmath
import json
import math
import re

import numpy as np
import pytest
from hypothesis import assume, event, given, settings, strategies as st

from clickcz import detection, gadgets, states
from clickcz.cli import _dumps_indented
from clickcz.detection import RuleAction, _readout, measure_nr, pid, pid_split, trace_out
from clickcz.elements import (
    _two_rail_transform,
    apply_bs,
    apply_circuit,
    apply_element,
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
    PureState,
    _agree,
)

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
    pre, rails = gadgets.ecc_optics(state, *modes)
    return measure_nr(pre, rails, site)


def _a2c_reference(state, modes, site):
    mode_x, mode_y = modes
    split, rail_vx = pid_split(apply_bs(state, mode_x, mode_y), mode_x)
    split, rail_vy = pid_split(split, mode_y)
    return measure_nr(split, (mode_x, mode_y, rail_vx, rail_vy), site)


# Each site's circuit, its number of measured modes, and the
# site's optics written independently as element calls on the whole state
# (``pid_split``, ``ecc_optics``) followed by ``measure_nr``.
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


# -- report writer -----------------------------------------------------------------

_SHARED = object()  # stands for one shared subtree, substituted after drawing

json_scalars = (
    st.text(st.characters(blacklist_categories=("Cs",)))
    | st.sampled_from(['"', "\\", "\x00", "\x1f", "\u2028", "é", "\U0001f600"])
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
    # the shared subtree sits at several positions and depths; it is met again
    # at depth 1 and at depth 3 after other fragments have been written, and
    # at depth 3 inside a container that is itself met again
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
    expected = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert _dumps_indented(doc) + "\n" == expected
