"""Constructors for the named resource states used throughout the pipeline."""

from __future__ import annotations

import math
from typing import Sequence

from .fock import PureState

H = (1, 0)
V = (0, 1)
EMPTY = (0, 0)

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _ket(letters: str) -> tuple[tuple[int, int], ...]:
    """Occupancy vector of a product ket, one letter per mode: '0' empty,
    'H' or 'V' one photon, '2' two H photons, 'w' two V photons."""
    table = {"0": EMPTY, "H": H, "V": V, "2": (2, 0), "w": (0, 2)}
    return tuple(table[c] for c in letters)


def qubit(alpha: complex, beta: complex) -> PureState:
    """Single dual-rail qubit α|H⟩ + β|V⟩ on one spatial mode."""
    norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    if norm <= 0:
        raise ValueError("qubit amplitudes cannot both vanish")
    return PureState(1, {(H,): alpha / norm, (V,): beta / norm})


def two_qubit(a_hh: complex, a_hv: complex, a_vh: complex, a_vv: complex) -> PureState:
    """Two dual-rail qubits on two modes, possibly entangled."""
    norm = math.sqrt(abs(a_hh) ** 2 + abs(a_hv) ** 2 + abs(a_vh) ** 2 + abs(a_vv) ** 2)
    if norm <= 0:
        raise ValueError("two-qubit amplitudes cannot all vanish")
    return PureState(
        2,
        {
            _ket("HH"): a_hh / norm,
            _ket("HV"): a_hv / norm,
            _ket("VH"): a_vh / norm,
            _ket("VV"): a_vv / norm,
        },
    )


def phi_plus(d: int = 2) -> PureState:
    """Polarization-entangled chain (|H⟩^⊗d + |V⟩^⊗d)/√2; d=2 is the Bell pair."""
    if d < 1:
        raise ValueError("chain length must be at least 1")
    return PureState(d, {(H,) * d: _INV_SQRT2, (V,) * d: _INV_SQRT2})


def phi_minus(d: int = 2) -> PureState:
    return PureState(d, {(H,) * d: _INV_SQRT2, (V,) * d: -_INV_SQRT2})


def bell_phi_plus() -> PureState:
    """(|HH⟩ + |VV⟩)/√2, the raw resource of the pipeline."""
    return phi_plus(2)


def ghz_plus() -> PureState:
    """(|HHH⟩ + |VVV⟩)/√2."""
    return phi_plus(3)


def ghz_minus() -> PureState:
    """(|HHH⟩ − |VVV⟩)/√2."""
    return phi_minus(3)


def v0h() -> PureState:
    """The error component |V 0 H⟩ left behind by the Bell-to-GHZ converter."""
    return PureState(3, {_ket("V0H"): 1.0})


def t1_prime() -> PureState:
    """Four-qubit gate ancilla (|HVVH⟩ + |VHVH⟩ + |VHHV⟩ − |HVHV⟩)/2."""
    return PureState(
        4,
        {
            _ket("HVVH"): 0.5,
            _ket("VHVH"): 0.5,
            _ket("VHHV"): 0.5,
            _ket("HVHV"): -0.5,
        },
    )


def controlled_phase_of(state: PureState) -> PureState:
    """The ideal controlled-phase image of a two-qubit dual-rail state."""
    if state.modes != 2:
        raise ValueError("controlled-phase target needs a two-mode state")
    vv = _ket("VV")
    amps = {vec: (-amp if vec == vv else amp) for vec, amp in state.items()}
    return PureState(2, amps, photon_cap=state.photon_cap)


def basis_two_qubit(name: str) -> PureState:
    """One of the four computational product states 'HH', 'HV', 'VH', 'VV'."""
    if sorted(name) not in (["H", "H"], ["H", "V"], ["V", "V"]) or len(name) != 2:
        raise ValueError(f"not a two-qubit basis label: {name!r}")
    return PureState(2, {_ket(name): 1.0})


def product_two_qubit(
    first: Sequence[complex], second: Sequence[complex]
) -> PureState:
    """Product state (α|H⟩+β|V⟩) ⊗ (γ|H⟩+δ|V⟩)."""
    a, b = first
    c, d = second
    return two_qubit(a * c, a * d, b * c, b * d)
