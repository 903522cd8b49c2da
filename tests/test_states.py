import math

import pytest

from clickcz import states, tables

H = (1, 0)
V = (0, 1)
E = (0, 0)


def test_qubit_normalizes():
    psi = states.qubit(3, 4)
    assert psi.norm2 == pytest.approx(1.0)
    assert psi.amplitude((H,)) == pytest.approx(0.6)


def test_qubit_rejects_null():
    with pytest.raises(ValueError):
        states.qubit(0, 0)


def test_bell_pair():
    bell = states.bell_phi_plus()
    assert bell.amplitude((H, H)) == pytest.approx(1 / math.sqrt(2))
    assert bell.amplitude((V, V)) == pytest.approx(1 / math.sqrt(2))


def test_chain_endpoints():
    assert states.phi_plus(1).amplitude((H,)) == pytest.approx(1 / math.sqrt(2))
    chain = states.phi_plus(5)
    assert chain.modes == 5
    assert chain.is_normalized()


def test_ghz_signs():
    assert states.ghz_minus().amplitude((V, V, V)) == pytest.approx(-1 / math.sqrt(2))


def test_error_component_layout():
    psi = states.v0h()
    assert psi.amplitude((V, E, H)) == pytest.approx(1.0)


def test_ancilla_sign_convention():
    t1 = states.t1_prime()
    assert t1.is_normalized()
    assert t1.amplitude((H, V, V, H)) == pytest.approx(0.5)
    assert t1.amplitude((V, H, V, H)) == pytest.approx(0.5)
    assert t1.amplitude((V, H, H, V)) == pytest.approx(0.5)
    assert t1.amplitude((H, V, H, V)) == pytest.approx(-0.5)


def test_controlled_phase_action():
    psi = states.two_qubit(1, 1, 1, 1)
    out = states.controlled_phase_of(psi)
    assert out.amplitude((V, V)) == pytest.approx(-0.5)
    assert out.amplitude((H, H)) == pytest.approx(0.5)


def test_basis_labels():
    assert states.basis_two_qubit("HV").amplitude((H, V)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        states.basis_two_qubit("HX")


def test_product_two_qubit():
    psi = states.product_two_qubit((1, 1), (1, -1))
    assert psi.amplitude((H, H)) == pytest.approx(0.5)
    assert psi.amplitude((H, V)) == pytest.approx(-0.5)
    assert psi.amplitude((V, V)) == pytest.approx(-0.5)


class TestKet:
    """``_ket`` is the one reader of ket letters, for states and tables alike."""

    @pytest.mark.parametrize(
        "letter, occupancy",
        [("0", E), ("H", H), ("V", V), ("2", (2, 0)), ("w", (0, 2))],
    )
    def test_each_letter(self, letter, occupancy):
        assert states._ket(letter) == (occupancy,)
        assert states._ket("0" + letter + "H") == (E, occupancy, H)

    def test_unknown_letter_raises(self):
        with pytest.raises(KeyError):
            states._ket("H.V")

    def test_empty_mode_is_not_a_v_photon(self):
        # a reader that took every letter but H for V would still pass the
        # table-3 kets, which hold no empty mode
        assert states._ket("H0") == (H, E)
        assert states._ket("H0") != (H, V)

    def test_two_photon_shorthand_kets(self):
        assert tables.SHORTHAND_KETS["7"] == ((2, 0), E, E, E)
        assert tables.SHORTHAND_KETS["8"] == (E, (2, 0), E, E)
        assert tables.SHORTHAND_KETS["9"] == (E, E, (0, 2), E)
        assert tables.SHORTHAND_KETS["10"] == (E, E, E, (0, 2))
