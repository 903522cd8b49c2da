import math

import pytest

from clickcz.elements import (
    ElementDescriptor,
    _expansion,
    apply_bs,
    apply_element,
    apply_pbs,
    apply_pdps,
    apply_pr,
    apply_ps,
    bs,
    pbs,
    pdps,
    pr,
    ps,
)
from clickcz.fock import DEFAULT_PHOTON_CAP, CapacityError, PureState
from clickcz.gadgets import cz_gate
from clickcz import states

from conftest import assert_states_equal, random_state

H = (1, 0)
V = (0, 1)
E = (0, 0)
SQ2 = math.sqrt(2.0)


class TestPolarizationRotator:
    def test_zero_angle_is_identity(self, rng):
        psi = random_state(rng, 2)
        assert_states_equal(apply_pr(psi, 0, 0.0), psi)

    def test_quarter_rotation_of_h(self):
        out = apply_pr(PureState(1, {(H,): 1.0}), 0, math.pi / 4)
        assert out.amplitude((H,)) == pytest.approx(1 / SQ2)
        assert out.amplitude((V,)) == pytest.approx(1 / SQ2)

    def test_quarter_rotation_of_v_has_sign(self):
        out = apply_pr(PureState(1, {(V,): 1.0}), 0, math.pi / 4)
        assert out.amplitude((H,)) == pytest.approx(-1 / SQ2)
        assert out.amplitude((V,)) == pytest.approx(1 / SQ2)

    def test_quarter_rotation_of_hv_pair(self):
        # (a†_H + a†_V)(−a†_H + a†_V)/2 on vacuum = (|V²⟩ − |H²⟩)/√2
        out = apply_pr(PureState(1, {((1, 1),): 1.0}), 0, math.pi / 4)
        assert out.amplitude(((0, 2),)) == pytest.approx(1 / SQ2)
        assert out.amplitude(((2, 0),)) == pytest.approx(-1 / SQ2)
        assert out.amplitude(((1, 1),)) == pytest.approx(0.0)

    def test_half_rotation_exchanges_rails(self):
        out = apply_pr(states.qubit(1, 0), 0, math.pi / 2)
        assert out.amplitude((V,)) == pytest.approx(1.0)
        out = apply_pr(states.qubit(0, 1), 0, math.pi / 2)
        assert out.amplitude((H,)) == pytest.approx(-1.0)

    def test_inverse_rotation(self, rng):
        psi = random_state(rng, 1)
        back = apply_pr(apply_pr(psi, 0, 0.7), 0, -0.7)
        assert_states_equal(back, psi)


class TestPhaseShifters:
    def test_ps_pi_flips_single_photon(self):
        out = apply_ps(PureState(1, {(V,): 1.0}), 0, math.pi)
        assert out.amplitude((V,)) == pytest.approx(-1.0)

    def test_ps_on_vacuum_does_nothing(self):
        out = apply_ps(PureState.vacuum(1), 0, math.pi / 2)
        assert out.amplitude((E,)) == pytest.approx(1.0)

    def test_ps_counts_all_photons(self):
        out = apply_ps(PureState(1, {((1, 1),): 1.0}), 0, math.pi / 2)
        assert out.amplitude(((1, 1),)) == pytest.approx(-1.0)

    def test_pdps_ignores_horizontal(self):
        out = apply_pdps(PureState(1, {(H,): 1.0}), 0, math.pi)
        assert out.amplitude((H,)) == pytest.approx(1.0)

    def test_pdps_counts_vertical_photons(self):
        out = apply_pdps(PureState(1, {((0, 2),): 1.0}), 0, math.pi / 4)
        assert out.amplitude(((0, 2),)) == pytest.approx(1j)

    def test_pdps_repairs_the_chain_sign(self):
        out = apply_pdps(states.phi_minus(2), 0, math.pi)
        assert_states_equal(out, states.phi_plus(2))

    def test_pdps_inverse(self, rng):
        psi = random_state(rng, 1)
        back = apply_pdps(apply_pdps(psi, 0, 1.1), 0, -1.1)
        assert_states_equal(back, psi)


class TestPolarizingBeamSplitter:
    def test_h_transmitted(self):
        out = apply_pbs(PureState(2, {(H, E): 1.0}), 0, 1)
        assert out.amplitude((H, E)) == pytest.approx(1.0)

    def test_v_reflected_without_phase(self):
        out = apply_pbs(PureState(2, {(V, E): 1.0}), 0, 1)
        assert out.amplitude((E, V)) == pytest.approx(1.0)

    def test_double_bell_fusion_terms(self):
        # the four-term state behind the fusion PBS, inner modes exchanged
        pair = states.bell_phi_plus().tensor(states.bell_phi_plus())
        out = apply_pbs(pair, 1, 2).reorder_modes((0, 1, 3, 2))
        assert out.amplitude((H, H, H, H)) == pytest.approx(0.5)
        assert out.amplitude((V, V, V, V)) == pytest.approx(0.5)
        assert out.amplitude((V, E, H, (1, 1))) == pytest.approx(0.5)
        assert out.amplitude((H, (1, 1), V, E)) == pytest.approx(0.5)

    def test_self_inverse(self, rng):
        psi = random_state(rng, 2)
        assert_states_equal(apply_pbs(apply_pbs(psi, 0, 1), 0, 1), psi)


class TestBeamSplitter:
    def test_single_photon_split(self):
        out = apply_bs(PureState(2, {(H, E): 1.0}), 0, 1)
        assert out.amplitude((H, E)) == pytest.approx(1 / SQ2)
        assert out.amplitude((E, H)) == pytest.approx(1 / SQ2)

    def test_hong_ou_mandel_bunching(self):
        out = apply_bs(PureState(2, {(H, H): 1.0}), 0, 1)
        assert out.amplitude(((2, 0), E)) == pytest.approx(1 / SQ2)
        assert out.amplitude((E, (2, 0))) == pytest.approx(-1 / SQ2)
        assert out.amplitude((H, H)) == pytest.approx(0.0)

    def test_polarization_preserving(self):
        out = apply_bs(PureState(2, {(V, E): 1.0}), 0, 1)
        assert out.amplitude((V, E)) == pytest.approx(1 / SQ2)
        assert out.amplitude((E, V)) == pytest.approx(1 / SQ2)

    def test_pinned_convention_is_self_inverse(self, rng):
        psi = random_state(rng, 2)
        assert_states_equal(apply_bs(apply_bs(psi, 0, 1), 0, 1), psi)


class TestDispatch:
    def test_descriptor_matches_direct_call(self, rng):
        psi = random_state(rng, 2)
        cases = [
            (pdps(0, math.pi), apply_pdps(psi, 0, math.pi)),
            (pr(0, math.pi / 4), apply_pr(psi, 0, math.pi / 4)),
            (ps(1, 0.3), apply_ps(psi, 1, 0.3)),
            (bs(0, 1), apply_bs(psi, 0, 1)),
            (pbs(0, 1), apply_pbs(psi, 0, 1)),
        ]
        for desc, expected in cases:
            assert_states_equal(apply_element(psi, desc), expected)

    def test_pdps_pi_flips_v(self):
        out = apply_element(PureState(1, {(V,): 1.0}), pdps(0, math.pi))
        assert out.amplitude((V,)) == pytest.approx(-1.0)

    @pytest.mark.parametrize("kernel, kind", [(apply_pbs, "PBS"), (apply_bs, "BS")])
    def test_same_mode_twice_raises(self, kernel, kind):
        with pytest.raises(ValueError, match=f"{kind} needs two distinct modes"):
            kernel(PureState(2, {(H, V): 1.0}), 1, 1)


class TestDescriptors:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            ElementDescriptor("BS", (0,))
        with pytest.raises(ValueError):
            ElementDescriptor("PR", (0, 1), theta=1.0)
        with pytest.raises(ValueError):
            ElementDescriptor("PBS", (2, 2))
        with pytest.raises(ValueError):
            ElementDescriptor("PS", (0,))
        with pytest.raises(ValueError):
            ElementDescriptor("XYZ", (0,))

    @pytest.mark.parametrize(
        "kind, targets, angles, message",
        [
            ("BS", (0, 1), {"theta": 0.7}, "BS takes no theta"),
            ("PBS", (0, 1), {"phi": 0.2}, "PBS takes no phi"),
            ("PS", (0,), {"phi": 0.1, "theta": 0.5}, "PS takes no theta"),
            ("PDPS", (0,), {"phi": 0.1, "theta": 0.5}, "PDPS takes no theta"),
            ("PR", (0,), {"theta": 0.3, "phi": 2.0}, "PR takes no phi"),
        ],
    )
    def test_angle_the_kind_does_not_read_rejected(self, kind, targets, angles, message):
        with pytest.raises(ValueError, match=message):
            ElementDescriptor(kind, targets, **angles)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"kind": "BS", "targets": [1, 2], "theta": 0.7}, "BS takes no theta"),
            ({"kind": "PS", "targets": [1], "phi": 0.1, "theta": 0.5}, "PS takes no theta"),
            ({"kind": "PR", "targets": [1], "theta": 0.3, "phi": 2.0}, "PR takes no phi"),
            ({"kind": "PBS", "targets": [1, 2], "thetta": 1}, r"unknown element key\(s\)"),
        ],
        ids=["bs-theta", "ps-theta", "pr-phi", "misspelt-key"],
    )
    def test_json_keys_the_kind_does_not_read_rejected(self, data, message):
        with pytest.raises(ValueError, match=message):
            ElementDescriptor.from_json_dict(data)

    def test_json_descriptor_must_be_an_object(self):
        with pytest.raises(TypeError, match="must be an object"):
            ElementDescriptor.from_json_dict(["PBS", [1, 2]])

    @pytest.mark.parametrize("target", [1.5, 0.0, True, "0", None])
    def test_non_integer_target_rejected(self, target):
        # a float used to fail deep in a kernel, and True passed as mode 1
        with pytest.raises(TypeError, match="target must be an integer"):
            pr(target, 0.3)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            pdps(-1, 1.0)
        with pytest.raises(ValueError, match="non-negative"):
            ElementDescriptor("BS", (0, -2))

    def test_targets_stored_as_a_tuple(self):
        desc = ElementDescriptor("PBS", [0, 1])
        assert desc.targets == (0, 1)
        assert hash(desc) == hash(pbs(0, 1))

    def test_circuit_file_dict_loads(self):
        data = {"kind": "PR", "targets": [4], "theta": math.pi / 2}
        assert ElementDescriptor.from_json_dict(data) == pr(3, math.pi / 2)

    def test_targets_are_one_based(self):
        data = {"kind": "PBS", "targets": [1, 5]}
        assert ElementDescriptor.from_json_dict(data) == pbs(0, 4)
        with pytest.raises(ValueError, match="targets are 1-based"):
            ElementDescriptor.from_json_dict({"kind": "PBS", "targets": [0, 1]})

    @pytest.mark.parametrize("make", [pr, ps, pdps])
    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected(self, make, angle):
        with pytest.raises(ValueError, match="must be finite"):
            make(0, angle)

    def test_non_finite_angle_rejected_by_constructor(self):
        with pytest.raises(ValueError, match="theta must be finite"):
            ElementDescriptor("PR", (0,), math.inf)
        with pytest.raises(ValueError, match="phi must be finite"):
            ElementDescriptor("PS", (0,), phi=math.nan)


class TestConservation:
    @pytest.mark.parametrize(
        "element",
        [pr(0, 0.4), ps(0, 1.2), pdps(1, 0.9), bs(0, 1), pbs(1, 2)],
        ids=lambda e: e.kind,
    )
    def test_norm_and_photon_number(self, element, rng):
        for _ in range(20):
            psi = random_state(rng, 3)
            out = apply_element(psi, element)
            assert out.norm2 == pytest.approx(psi.norm2, abs=1e-12)
            totals_in = {sum(h + v for h, v in vec) for vec, _ in psi.items()}
            totals_out = {sum(h + v for h, v in vec) for vec, _ in out.items()}
            assert totals_out <= totals_in

    def test_disjoint_elements_commute(self, rng):
        for _ in range(10):
            psi = random_state(rng, 4)
            ab = apply_bs(apply_pr(psi, 0, 0.3), 2, 3)
            ba = apply_pr(apply_bs(psi, 2, 3), 0, 0.3)
            assert_states_equal(ab, ba)


class TestTrustedPath:
    """Kernel results skip re-validation; these pin what that relies on."""

    def test_tensor_past_the_cap_still_raises(self):
        left = PureState(2, {(H, (2, 0)): 0.6, (E, E): 0.8}, photon_cap=4)
        right = PureState(1, {((1, 1),): 1.0}, photon_cap=3)
        assert len(left.tensor(PureState.vacuum(1))) == 2
        with pytest.raises(CapacityError):
            left.tensor(right)

    def test_expansion_cache_is_keyed_by_photon_counts(self, rng):
        cap = DEFAULT_PHOTON_CAP
        every_occupancy = {
            ((n_h, n_v),): 1.0 for n_h in range(cap + 1) for n_v in range(cap + 1 - n_h)
        }
        psi = PureState(1, every_occupancy).normalized()
        _expansion.cache_clear()
        for _ in range(500):
            psi = apply_pr(psi, 0, rng.uniform(-math.pi, math.pi))
        assert 0 < _expansion.cache_info().currsize <= (cap + 1) ** 2

    def test_cz_gate_reads_no_canonical_order(self, monkeypatch):
        psi, ancilla = states.two_qubit(1, 1j, -1, 0.5), states.t1_prime()
        calls = []
        items = PureState.items

        def counting(self):
            calls.append(self)
            return items(self)

        monkeypatch.setattr(PureState, "items", counting)
        cz_gate(psi, ancilla=ancilla)
        assert calls == []
