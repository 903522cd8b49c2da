"""Bucket-detector semantics, measurement branching, and classical feed-forward.

Detectors distinguish no photons from some photons, nothing more.  A click
pattern over a set of rails is therefore the only classical information a
measurement yields.  Within one pattern, branches with different photon
content of the measured rails are kept as separate mixture components:
detection destroys coherence between photon-number sectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .elements import ElementDescriptor, apply_circuit, apply_pbs, apply_pr
from .fock import (
    Branch,
    ConsistencyError,
    Ensemble,
    FeedForwardError,
    FockVector,
    OutcomeEvent,
    PureState,
)

ClickPattern = tuple[bool, ...]

# Two-click patterns at a four-rail fusion site, keyed by the clicking rail
# pair. Rails are ordered (H_a, H_b, V_a, V_b).
_FUSION_TWO_CLICK = {
    frozenset({1, 3}): "1",
    frozenset({0, 2}): "2",
    frozenset({0, 3}): "3",
    frozenset({1, 2}): "4",
    frozenset({0, 1}): "5",
    frozenset({2, 3}): "6",
}

PID_LABELS = ("Hn0", "0Vn", "00", "HnVn")


def interpret_pattern(pattern: Sequence[bool], site_kind: str) -> str:
    """Map a click pattern to its classical outcome label.

    ``site_kind`` is ``"pid"`` for the two rails behind a single PID and
    ``"fusion"`` for the four rails behind a pair of PIDs.  At a fusion site,
    single clicks collapse into one discard class because a bucket detector
    cannot count the photons it absorbed.
    """
    pattern = tuple(bool(c) for c in pattern)
    clicks = [i for i, c in enumerate(pattern) if c]
    if site_kind == "pid":
        if len(pattern) != 2:
            raise ConsistencyError(f"PID site expects 2 rails, got {len(pattern)}")
        return {
            (True, False): "Hn0",
            (False, True): "0Vn",
            (False, False): "00",
            (True, True): "HnVn",
        }[pattern]
    if site_kind == "fusion":
        if len(pattern) != 4:
            raise ConsistencyError(f"fusion site expects 4 rails, got {len(pattern)}")
        if len(clicks) == 0:
            return "silent"
        if len(clicks) == 1:
            return "one-click"
        if len(clicks) == 2:
            return _FUSION_TWO_CLICK[frozenset(clicks)]
        raise ConsistencyError(
            f"{len(clicks)} clicks are impossible at a two-photon fusion site"
        )
    raise ValueError(f"unknown site kind {site_kind!r}")


def _picker(indices: Sequence[int]) -> Callable[[FockVector], tuple]:
    """A function returning the tuple of a vector's entries at ``indices``."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda vec: tuple([vec[i] for i in indices])


def measure_nr(
    state: PureState,
    modes: Sequence[int],
    site: str,
    site_kind: str | None = None,
) -> Ensemble:
    """Measure the given modes with non-number-resolving detectors.

    Branches are keyed by the exact photon content of the measured modes
    (so e.g. one and two photons on the same rail become separate branches
    sharing a click-pattern label).  Measured modes are removed from the
    surviving states; weights are the Born probabilities; zero-probability
    patterns are omitted.
    """
    modes = tuple(modes)
    for m in modes:
        if not 0 <= m < state.modes:
            raise ValueError(f"mode {m} out of range")
    if len(set(modes)) != len(modes):
        raise ValueError("measured modes must be distinct")
    if site_kind is None:
        site_kind = {2: "pid", 4: "fusion"}.get(len(modes), "raw")

    keep_idx = [i for i in range(state.modes) if i not in set(modes)]
    sector_of, rest_of = _picker(modes), _picker(keep_idx)
    sectors: dict[tuple, dict[FockVector, complex]] = {}
    for vec, amp in state._amps.items():
        sectors.setdefault(sector_of(vec), {})[rest_of(vec)] = amp

    branches: list[Branch] = []
    for sector in sorted(sectors):
        sub = sectors[sector]
        weight = sum(abs(a) ** 2 for a in sub.values())
        if weight <= 0.0:
            continue
        pattern = tuple(occ[0] + occ[1] > 0 for occ in sector)
        if site_kind == "raw":
            label = "".join("1" if c else "0" for c in pattern)
        else:
            label = interpret_pattern(pattern, site_kind)
        scale = 1.0 / math.sqrt(weight)
        post = PureState._trusted(
            len(keep_idx), {v: a * scale for v, a in sub.items()}, state.photon_cap
        )
        event = OutcomeEvent(site=site, pattern=pattern, label=label)
        branches.append(Branch(weight, post, (event,)))
    return Ensemble(tuple(branches))


@dataclass(frozen=True)
class RuleAction:
    """Feed-forward response to one outcome label."""

    elements: tuple[ElementDescriptor, ...] = ()
    disposition: str = "keep"


# A feed-forward rule maps each reachable outcome label to its action.
FeedForwardRule = Mapping[str, RuleAction]


def apply_feed_forward(ensemble: Ensemble, rules: FeedForwardRule) -> Ensemble:
    """Apply per-outcome corrective elements and dispositions to fresh branches.

    A branch is looked up by its outcome labels joined without a separator:
    one label for a single readout (``"Hn0"``), two for a joint one
    (``"13"``). Stages apply their rules before ``Ensemble.then`` prefixes
    the parent's record, so a record holds only the stage's own readout.
    The action's disposition goes on every event of that readout. An
    outcome with no rule is a hard error rather than a silent keep.
    """
    out: list[Branch] = []
    for branch in ensemble.branches:
        key = "".join(e.label for e in branch.record)
        action = rules.get(key)
        if action is None:
            raise FeedForwardError(f"no feed-forward rule for outcome {key!r}")
        state = branch.state
        if action.disposition == "keep" and action.elements:
            state = apply_circuit(state, action.elements)
        record = tuple(
            e
            if e.disposition == action.disposition
            else OutcomeEvent(e.site, e.pattern, e.label, action.disposition)
            for e in branch.record
        )
        out.append(Branch(branch.weight, state, record))
    return Ensemble(tuple(out))


def pid_split(state: PureState, mode: int) -> tuple[PureState, int]:
    """Expand one mode into its two PID detector rails.

    A polarization rotation by π/4 followed by a PBS onto a fresh mode
    separates the rotated H and V components.  Returns the new state and the
    index of the fresh V rail (the H rail keeps the original index).
    """
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range")
    rotated = apply_pr(state, mode, math.pi / 4)
    widened = rotated.tensor(PureState.vacuum(1, photon_cap=state.photon_cap))
    fresh = widened.modes - 1
    return apply_pbs(widened, mode, fresh), fresh


def pid(
    state: PureState,
    mode: int,
    rules: FeedForwardRule,
    site: str = "pid",
) -> Ensemble:
    """Polarization-independent detection of one mode with feed-forward.

    The mode is split into two rails, both rails are measured with bucket
    detectors, the rule's corrective elements run per branch, and the two
    measured rails disappear from the surviving states.  Corrective element
    targets refer to post-measurement mode indices.
    """
    split, fresh = pid_split(state, mode)
    measured = measure_nr(split, (mode, fresh), site=site, site_kind="pid")
    return apply_feed_forward(measured, rules)
