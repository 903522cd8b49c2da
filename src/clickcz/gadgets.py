"""Heralded gate gadgets: Bell-to-GHZ, error filter, ancilla conversion,
fusion, and the end-to-end controlled-phase pipeline.

Every gadget returns all measurement branches, discarded ones included, so
that probability bookkeeping stays complete.  Success probabilities are
recomputed from branch weights on every access.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from . import states
from .detection import RuleAction, _Circuit, _pid_optics, _readout, _resolve, pid
from .elements import apply_pbs, bs, pbs, pdps, pr, ps
from .fock import Branch, Ensemble, PureState, SimulatorError

PI = math.pi


def _require_normalized(state: PureState, what: str) -> None:
    """Reject an input whose norm² is off from 1 by more than NORM_TOL."""
    if not state.is_normalized():
        raise SimulatorError(f"{what} must be normalized, got norm² {state.norm2!r}")


def _require_qubits(state: PureState, modes: int, what: str) -> None:
    """Reject a state that is not ``modes`` dual-rail qubits, one photon per mode."""
    if state.modes != modes:
        raise ValueError(f"{what} must be a {modes}-mode state")
    for vec in state._amps:
        if any(n_h + n_v != 1 for n_h, n_v in vec):
            raise SimulatorError(f"{what} must hold one photon per mode, got term {vec}")


@dataclass(frozen=True)
class GadgetResult:
    """All branches of a gadget run; heralded success is the kept ones."""

    ensemble: Ensemble

    @property
    def success_probability(self) -> float:
        return self.ensemble.keep_weight

    def success_branches(self) -> tuple[Branch, ...]:
        return self.ensemble.kept()


# -- Bell pairs to a partial GHZ mixture ----------------------------------------

B2G_RULES = {
    # one or more photons on the rotated H rail: fix the sign of the V chain
    "Hn0": RuleAction(elements=(pdps(0, PI),)),
    "0Vn": RuleAction(),
    "00": RuleAction(disposition="discard"),
    "HnVn": RuleAction(disposition="discard"),
}


def b2g(state: PureState, site: str = "b2g") -> GadgetResult:
    """Convert two Bell pairs (modes 0..3) into the partial-GHZ mixture.

    A PBS fuses the two inner modes, the leftover mode is read out with a
    PID, and the click pattern conditions a corrective phase.  Silent
    detectors herald failure.
    """
    if state.modes != 4:
        raise ValueError("Bell-to-GHZ conversion expects a 4-mode input")
    _require_normalized(state, "Bell-to-GHZ input")
    return GadgetResult(pid(apply_pbs(state, 1, 2), 2, B2G_RULES, site=site))


# -- error filter on the fragile register modes ---------------------------------

# A PID on each of modes 0 and 1, onto fresh V rails 2 and 3, so a two-mode
# site reads its rails as (H_0, H_1, V_0, V_1).
_PID_SPLITS = _pid_optics(0, 2) + _pid_optics(1, 3)

# The error filter's optics on modes (0, 1), up to its detectors: a π/4
# rotation of each, a PBS, a π/4 phase on each output's V photons, then a PID
# on each. Tables 1 and 2 pin its image of each filter input.
_ECC_CIRCUIT = _Circuit(
    (pr(0, PI / 4), pr(1, PI / 4), pbs(0, 1), pdps(0, PI / 4), pdps(1, PI / 4)) + _PID_SPLITS
)


ECC_RULES = {
    **{label: RuleAction() for label in ("3", "4", "5", "6")},
    **{
        label: RuleAction(disposition="discard")
        for label in ("1", "2", "one-click", "silent")
    },
}


def ecc(state: PureState, mode_a: int, mode_b: int) -> Ensemble:
    """Error filter: two-click outcomes 3..6 are kept, everything else is not.

    A register pair damaged upstream can put at most one photon into the
    filter, so it can never produce two clicks; silence on all four rails
    is the unique double-damage signature.

    The optics are ``_ECC_CIRCUIT``. ``g2a`` reads the same filter itself
    (``G2A_RULES``); this entry point is read by table 3's verification
    (``oracle._verify_table3``), demo 04 and the ``perfbench`` tracer.
    """
    site = _resolve(((mode_a, mode_b), _ECC_CIRCUIT, "ecc"), state.modes)
    return _readout(state, (site,), ECC_RULES)


# -- GHZ pair to the four-qubit gate ancilla ------------------------------------

# Deterministic conversion shared by all kept filter outcomes.
_G2A_CONVERSION = (
    pr(1, PI / 2),
    pr(2, PI / 2),
    pdps(1, PI / 2),
    pdps(2, -PI / 2),
)

# The filter's discards stand; kept outcomes are steered onto the ancilla.
# Outcomes 5/6 and 3/4 each share one action, so agreeing states are corrected once.
G2A_RULES = {
    **ECC_RULES,
    **dict.fromkeys(("5", "6"), RuleAction(elements=(pdps(1, PI), pdps(2, PI)) + _G2A_CONVERSION)),
    **dict.fromkeys(("3", "4"), RuleAction(elements=(ps(0, PI / 2),) + _G2A_CONVERSION)),
}

# The filter on the second mode of each 3-mode register.
_G2A_SITE = _resolve(((1, 4), _ECC_CIRCUIT, "g2a/ecc"), 6)


def g2a(input_ensemble: Ensemble | PureState) -> GadgetResult:
    """Convert two partial-GHZ registers (6 modes) into the gate ancilla.

    The second mode of each register runs through the error filter, read
    out once and decided once by ``G2A_RULES``; kept outcomes are steered
    onto the four-qubit ancilla by outcome-conditioned phases followed by a
    fixed conversion.  Every kept branch ends in the same state including
    its global phase.
    """
    if isinstance(input_ensemble, PureState):
        input_ensemble = Ensemble.pure(input_ensemble)

    def convert(registers: PureState) -> Ensemble:
        if registers.modes != 6:
            raise ValueError("ancilla conversion expects 6-mode registers")
        _require_normalized(registers, "ancilla conversion input")
        return _readout(registers, (_G2A_SITE,), G2A_RULES)

    return GadgetResult(input_ensemble.then(convert))


# -- fusion of a computational rail with an ancilla rail -------------------------

A2C_RULES = {
    **{label: RuleAction() for label in ("1", "2", "3", "4", "5", "6")},
    "one-click": RuleAction(disposition="discard"),
    "silent": RuleAction(disposition="discard"),
}


# The 50:50 splitter on modes (0, 1), then a PID on each output.
_A2C_CIRCUIT = _Circuit((bs(0, 1),) + _PID_SPLITS)


def a2c(state: PureState, mode_x: int, mode_y: int) -> Ensemble:
    """Gate fusion: 50:50 splitter then PID readout of both outputs.

    Exactly two clicks herald success; a single click means the photons
    bunched and the attempt is discarded.
    """
    _require_normalized(state, "fusion input")
    site = _resolve(((mode_x, mode_y), _A2C_CIRCUIT, "a2c"), state.modes)
    return _readout(state, (site,), A2C_RULES)


# -- controlled-phase gate -------------------------------------------------------

# Post-processing on the two surviving modes, keyed by the fusion outcome
# pair.  Derived by requiring every kept branch to equal the exact
# controlled-phase image of the input, global phase included: outcomes 1/2
# teleport with a bit-flip that a π/2 rotation undoes, outcomes 3/4 without.
# The 16 pairs need 8 corrections; each is one action for its two pairs, so
# a readout corrects their equal states once.
_R0 = pr(0, PI / 2)
_R1 = pr(1, PI / 2)
_Z0 = pdps(0, PI)
_Z1 = pdps(1, PI)
_P = ps(0, PI)

CZ_RULES = {
    pair: action
    for pairs, action in (
        (("11", "22"), RuleAction(elements=(_R0, _R1, _Z1))),
        (("12", "21"), RuleAction(elements=(_R0, _R1, _Z1, _P))),
        (("31", "42"), RuleAction(elements=(_R1, _Z0, _P))),
        (("41", "32"), RuleAction(elements=(_R1, _Z0))),
        (("13", "24"), RuleAction(elements=(_R0, _Z0, _P))),
        (("14", "23"), RuleAction(elements=(_R0, _Z0))),
        (("33", "44"), RuleAction(elements=(_Z1, _P))),
        (("34", "43"), RuleAction(elements=(_Z1,))),
    )
    for pair in pairs
}

# The joint readout of both fusions: a discard at either one discards the
# pair; two-click pairs outside CZ_RULES have no rule and raise.
_CZ_PAIR_RULES = {
    **{
        a + b: RuleAction(disposition="discard")
        for a, first in A2C_RULES.items()
        for b, second in A2C_RULES.items()
        if "discard" in (first.disposition, second.disposition)
    },
    **CZ_RULES,
}


# The default ancilla; states are immutable, so one copy serves every call.
_T1_PRIME = states.t1_prime()

# Modes are fused where the tensor product puts them, (q1, q2, a1..a4):
# (q1, a1) first, leaving (q2, a2, a3, a4), then (a4, q2), leaving (a2, a3).
_CZ_SITES = (
    _resolve(((0, 2), _A2C_CIRCUIT, "a2c1"), 6),
    _resolve(((3, 0), _A2C_CIRCUIT, "a2c2"), 4),
)


def cz_gate(input_state: PureState, ancilla: PureState | None = None) -> GadgetResult:
    """Controlled-phase gate on a two-mode dual-rail input.

    The input qubits fuse with the outer ancilla rails; the two inner
    ancilla rails carry the gate output after outcome-paired corrections.
    """
    _require_qubits(input_state, 2, "controlled-phase input")
    if ancilla is None:
        ancilla = _T1_PRIME
    else:
        _require_qubits(ancilla, 4, "ancilla")
    _require_normalized(input_state, "controlled-phase input")
    _require_normalized(ancilla, "ancilla")

    # the two fusions are one readout, decided by outcome pair
    return GadgetResult(_readout(input_state.tensor(ancilla), _CZ_SITES, _CZ_PAIR_RULES))


# -- the whole pipeline ----------------------------------------------------------


@functools.cache
def ancilla_stage() -> Ensemble:
    """Two Bell-to-GHZ runs and the ancilla conversion: every branch of the
    ancilla stage, kept or not. Its ``keep_weight`` is the paper's ancilla
    rate, 1/8.

    It reads no input, so it is built on the first call, not at import, and
    that one ensemble of immutable branches serves every pipeline call.
    """
    pairs = states.bell_phi_plus().tensor(states.bell_phi_plus())
    first, second = (b2g(pairs, site=site).ensemble for site in ("b2g1", "b2g2"))
    return g2a(first.combine(second)).ensemble


def cz_full_pipeline(input_state: PureState) -> GadgetResult:
    """Compose two Bell-to-GHZ runs, the ancilla conversion, and the gate.

    Returns every branch of the whole tree: failed conversions keep their
    partial records, successes end in the exact controlled-phase image of
    the input. Only the gate reads the input; the stage before it is built
    once per process (``ancilla_stage``), which also gives its rate.
    """
    _require_qubits(input_state, 2, "controlled-phase input")
    _require_normalized(input_state, "controlled-phase input")
    gated = ancilla_stage().then(lambda ancilla: cz_gate(input_state, ancilla=ancilla).ensemble)
    return GadgetResult(gated)
