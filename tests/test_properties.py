"""Property suite: invariants that must hold for arbitrary states/elements."""

import cmath
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from clickcz.detection import RuleAction, measure_nr, pid
from clickcz.elements import _two_rail_transform, apply_element, bs, pbs, pdps, pr, ps
from clickcz.fock import PRUNE_EPS, Ensemble, PureState, trace_out
from clickcz import states

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
    out = measure_nr(psi, (mode,), site="det", site_kind="raw")
    assert abs(out.total_weight - psi.norm2) <= TOL
    for branch in out.branches:
        assert branch.state.is_normalized(TOL)


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
