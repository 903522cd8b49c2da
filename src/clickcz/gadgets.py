"""Heralded gate gadgets: Bell-to-GHZ, error filter, ancilla conversion,
fusion, and the end-to-end controlled-phase pipeline.

Every gadget returns all measurement branches, discarded ones included, so
that probability bookkeeping stays complete.  Success probabilities are
recomputed from branch weights on every access.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import states
from .detection import RuleAction, _readout, pid, pid_split
from .elements import apply_bs, apply_pbs, apply_pdps, apply_pr, pdps, pr, ps
from .fock import Branch, Ensemble, PureState, SimulatorError

PI = math.pi


def _require_normalized(state: PureState, what: str) -> None:
    """Reject an input whose norm² is off from 1 by more than NORM_TOL."""
    if not state.is_normalized():
        raise SimulatorError(f"{what} must be normalized, got norm² {state.norm2!r}")


def _require_two_qubits(state: PureState) -> None:
    """Reject a controlled-phase input that is not two dual-rail qubits."""
    if state.modes != 2:
        raise ValueError("controlled-phase input must be a 2-mode state")
    for vec in state._amps:
        if any(n_h + n_v != 1 for n_h, n_v in vec):
            raise SimulatorError(
                f"controlled-phase input must hold one photon per mode, got term {vec}"
            )


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


def ecc_optics(
    state: PureState, mode_a: int, mode_b: int
) -> tuple[PureState, tuple[int, int, int, int]]:
    """Run the error-filter optics, stopping just before the detectors.

    Both target modes are rotated by π/4, fused on a PBS, and the vertical
    photons pick up a π/4 phase on each output before the PID rail split.
    Returns the widened state and the four detector rails in reporting
    order (H_a, H_b, V_a, V_b).
    """
    out = apply_pr(state, mode_a, PI / 4)
    out = apply_pr(out, mode_b, PI / 4)
    out = apply_pbs(out, mode_a, mode_b)
    out = apply_pdps(out, mode_a, PI / 4)
    out = apply_pdps(out, mode_b, PI / 4)
    out, rail_va = pid_split(out, mode_a)
    out, rail_vb = pid_split(out, mode_b)
    return out, (mode_a, mode_b, rail_va, rail_vb)


def _ecc_site_optics(pair: PureState) -> tuple[PureState, tuple[int, int, int, int]]:
    return ecc_optics(pair, 0, 1)


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

    ``g2a`` reads the filter itself (``G2A_RULES``); this entry point is read
    by table 3's verification (``oracle._verify_table3``), demo 04 and the
    ``perfbench`` tracer.
    """
    return _readout(state, (((mode_a, mode_b), _ecc_site_optics, "ecc", "fusion"),), ECC_RULES)


# -- GHZ pair to the four-qubit gate ancilla ------------------------------------

# Deterministic conversion shared by all kept filter outcomes.
_G2A_CONVERSION = (
    pr(1, PI / 2),
    pr(2, PI / 2),
    pdps(1, PI / 2),
    pdps(2, -PI / 2),
)

# The filter's discards stand; kept outcomes are steered onto the ancilla.
G2A_RULES = {
    **ECC_RULES,
    "5": RuleAction(elements=(pdps(1, PI), pdps(2, PI)) + _G2A_CONVERSION),
    "6": RuleAction(elements=(pdps(1, PI), pdps(2, PI)) + _G2A_CONVERSION),
    "3": RuleAction(elements=(ps(0, PI / 2),) + _G2A_CONVERSION),
    "4": RuleAction(elements=(ps(0, PI / 2),) + _G2A_CONVERSION),
}


def g2a(input_ensemble: Ensemble | PureState, site: str = "g2a") -> GadgetResult:
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
        error_filter = ((1, 4), _ecc_site_optics, f"{site}/ecc", "fusion")
        return _readout(registers, (error_filter,), G2A_RULES)

    return GadgetResult(input_ensemble.then(convert))


# -- fusion of a computational rail with an ancilla rail -------------------------

A2C_RULES = {
    **{label: RuleAction() for label in ("1", "2", "3", "4", "5", "6")},
    "one-click": RuleAction(disposition="discard"),
    "silent": RuleAction(disposition="discard"),
}


def _a2c_optics(pair: PureState) -> tuple[PureState, tuple[int, int, int, int]]:
    mixed = apply_bs(pair, 0, 1)
    split, rail_vx = pid_split(mixed, 0)
    split, rail_vy = pid_split(split, 1)
    return split, (0, 1, rail_vx, rail_vy)


def a2c(state: PureState, mode_x: int, mode_y: int) -> Ensemble:
    """Gate fusion: 50:50 splitter then PID readout of both outputs.

    Exactly two clicks herald success; a single click means the photons
    bunched and the attempt is discarded.
    """
    _require_normalized(state, "fusion input")
    return _readout(state, (((mode_x, mode_y), _a2c_optics, "a2c", "fusion"),), A2C_RULES)


# -- controlled-phase gate -------------------------------------------------------

# Post-processing on the two surviving modes, keyed by the fusion outcome
# pair.  Derived by requiring every kept branch to equal the exact
# controlled-phase image of the input, global phase included: outcomes 1/2
# teleport with a bit-flip that a π/2 rotation undoes, outcomes 3/4 without.
_R0 = pr(0, PI / 2)
_R1 = pr(1, PI / 2)
_Z0 = pdps(0, PI)
_Z1 = pdps(1, PI)
_P = ps(0, PI)

CZ_RULES = {
    "11": RuleAction(elements=(_R0, _R1, _Z1)),
    "22": RuleAction(elements=(_R0, _R1, _Z1)),
    "12": RuleAction(elements=(_R0, _R1, _Z1, _P)),
    "21": RuleAction(elements=(_R0, _R1, _Z1, _P)),
    "31": RuleAction(elements=(_R1, _Z0, _P)),
    "42": RuleAction(elements=(_R1, _Z0, _P)),
    "41": RuleAction(elements=(_R1, _Z0)),
    "32": RuleAction(elements=(_R1, _Z0)),
    "13": RuleAction(elements=(_R0, _Z0, _P)),
    "24": RuleAction(elements=(_R0, _Z0, _P)),
    "14": RuleAction(elements=(_R0, _Z0)),
    "23": RuleAction(elements=(_R0, _Z0)),
    "33": RuleAction(elements=(_Z1, _P)),
    "44": RuleAction(elements=(_Z1, _P)),
    "34": RuleAction(elements=(_Z1,)),
    "43": RuleAction(elements=(_Z1,)),
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


def cz_gate(input_state: PureState, ancilla: PureState | None = None) -> GadgetResult:
    """Controlled-phase gate on a two-mode dual-rail input.

    The input qubits fuse with the outer ancilla rails; the two inner
    ancilla rails carry the gate output after outcome-paired corrections.
    """
    _require_two_qubits(input_state)
    if ancilla is None:
        ancilla = states.t1_prime()
    if ancilla.modes != 4:
        raise ValueError("ancilla must be a 4-mode state")
    _require_normalized(input_state, "controlled-phase input")
    _require_normalized(ancilla, "ancilla")

    # Modes are fused where the tensor product puts them, (q1, q2, a1..a4):
    # (q1, a1) first, leaving (q2, a2, a3, a4), then (a4, q2), leaving
    # (a2, a3). The two fusions are one readout, decided by outcome pair.
    sites = (((0, 2), _a2c_optics, "a2c1", "fusion"), ((3, 0), _a2c_optics, "a2c2", "fusion"))
    return GadgetResult(_readout(input_state.tensor(ancilla), sites, _CZ_PAIR_RULES))


# -- the whole pipeline ----------------------------------------------------------


@dataclass(frozen=True)
class PipelineResult(GadgetResult):
    """Controlled-phase pipeline outcome with the ancilla stage broken out."""

    # probability that four Bell pairs yielded the gate ancilla
    ancilla_probability: float


def cz_full_pipeline(input_state: PureState) -> PipelineResult:
    """Compose two Bell-to-GHZ runs, the ancilla conversion, and the gate.

    Returns every branch of the whole tree: failed conversions keep their
    partial records, successes end in the exact controlled-phase image of
    the input.
    """
    _require_two_qubits(input_state)
    _require_normalized(input_state, "controlled-phase input")
    # both conversions start from the same Bell pairs, so the second reuses
    # the first's branches under its own site name
    bell = states.bell_phi_plus()
    first = b2g(bell.tensor(bell), site="b2g1").ensemble
    second = Ensemble(
        tuple(
            Branch(b.weight, b.state, tuple(replace(e, site="b2g2") for e in b.record))
            for b in first.branches
        )
    )
    registers = first.combine(second)
    converted = g2a(registers).ensemble
    gated = converted.then(lambda ancilla: cz_gate(input_state, ancilla=ancilla))
    return PipelineResult(gated, ancilla_probability=converted.keep_weight)
