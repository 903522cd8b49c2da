"""Reference amplitude tables for the error-filter and gate validation.

The four tables are the behavioral contract of the gadget chain:

1. error-filter output for every single-photon input of the two filtered
   modes (the signatures that herald a damaged register pair),
2. error-filter pre-detection output for every two-photon product input,
3. the state left on the four untouched register modes after each kept
   filter outcome,
4. the controlled-phase truth table realized after outcome-conditioned
   post-processing.

Amplitudes are exact multiples of powers of e^{iπ/4} and 2^{-1/2}.
"""

from __future__ import annotations

import cmath
import math

from .fock import FockVector
from .states import _ket

OMEGA = cmath.exp(1j * math.pi / 4)
OMEGA_BAR = OMEGA.conjugate()

# The ten shorthand detector kets over rails (H_a, H_b, V_a, V_b).
SHORTHAND_KETS: dict[str, FockVector] = {
    "1": _ket("0H0V"),
    "2": _ket("H0V0"),
    "3": _ket("H00V"),
    "4": _ket("0HV0"),
    "5": _ket("HH00"),
    "6": _ket("00VV"),
    "7": _ket("2000"),
    "8": _ket("0200"),
    "9": _ket("00w0"),
    "10": _ket("000w"),
}

_P1 = _ket("H000")
_P2 = _ket("0H00")
_P3 = _ket("00V0")
_P4 = _ket("000V")

# Table 1: single-photon filter inputs (two-mode kets) -> four-rail outputs.
TABLE1: dict[str, dict[FockVector, complex]] = {
    # photon enters the second filter mode
    "0H": {_P2: 0.5, _P1: -0.5 * OMEGA, _P4: 0.5, _P3: 0.5 * OMEGA},
    "0V": {_P2: -0.5, _P1: -0.5 * OMEGA, _P4: -0.5, _P3: 0.5 * OMEGA},
    # photon enters the first filter mode
    "H0": {_P1: 0.5, _P2: -0.5 * OMEGA, _P3: 0.5, _P4: 0.5 * OMEGA},
    "V0": {_P1: -0.5, _P2: -0.5 * OMEGA, _P3: -0.5, _P4: 0.5 * OMEGA},
}

_INV_SQRT8 = 1.0 / math.sqrt(8.0)
_I_OMEGA = 1j * OMEGA  # e^{3iπ/4}

# Table 2: two-photon filter inputs -> four-rail pre-detection outputs,
# written over the shorthand kets and normalized.
TABLE2: dict[str, dict[str, complex]] = {
    "HH": {
        "3": OMEGA_BAR, "4": OMEGA_BAR,
        "5": OMEGA, "6": OMEGA,
        "7": -OMEGA, "8": -OMEGA, "9": OMEGA, "10": OMEGA,
    },
    "HV": {
        "3": -OMEGA, "4": -OMEGA,
        "5": _I_OMEGA, "6": _I_OMEGA,
        "7": -OMEGA, "8": OMEGA, "9": OMEGA, "10": -OMEGA,
    },
    "VH": {
        "3": -OMEGA, "4": -OMEGA,
        "5": _I_OMEGA, "6": _I_OMEGA,
        "7": OMEGA, "8": -OMEGA, "9": -OMEGA, "10": OMEGA,
    },
    "VV": {
        "3": OMEGA_BAR, "4": OMEGA_BAR,
        "5": OMEGA, "6": OMEGA,
        "7": OMEGA, "8": OMEGA, "9": -OMEGA, "10": -OMEGA,
    },
}


def table2_state(key: str) -> dict[FockVector, complex]:
    """Table 2 row as a normalized four-rail amplitude map."""
    return {
        SHORTHAND_KETS[k]: amp * _INV_SQRT8 for k, amp in TABLE2[key].items()
    }


# Table 3: kept filter outcome -> state of the four untouched modes, for a
# pure double-GHZ input.  Keyed by outcome label class.
TABLE3: dict[str, dict[FockVector, complex]] = {
    "5,6": {
        _ket("HHHH"): 0.5 * OMEGA,
        _ket("HHVV"): 0.5j * OMEGA,
        _ket("VVHH"): 0.5j * OMEGA,
        _ket("VVVV"): 0.5 * OMEGA,
    },
    "3,4": {
        _ket("HHHH"): 0.5 * OMEGA_BAR,
        _ket("HHVV"): -0.5j * OMEGA_BAR,
        _ket("VVHH"): -0.5j * OMEGA_BAR,
        _ket("VVVV"): 0.5 * OMEGA_BAR,
    },
}

# Table 4: the sixteen kept outcome pairs of the two gate fusions.  Each
# pair label maps to the probability it occurs with (for any normalized
# two-qubit input) and rows group into eight classes that share one
# post-processing rule; the rule data itself lives in the gadgets module.
TABLE4_LABELS: tuple[str, ...] = tuple(
    f"{a}{b}" for a in "1234" for b in "1234"
)
TABLE4_PROBABILITY = 1.0 / 64.0
