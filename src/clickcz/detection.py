"""Bucket-detector semantics, measurement branching, and classical feed-forward.

Detectors distinguish no photons from some photons, nothing more.  A click
pattern over a set of rails is therefore the only classical information a
measurement yields.  Within one pattern, branches with different photon
content of the measured rails are kept as separate mixture components:
detection destroys coherence between photon-number sectors.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, NamedTuple, Sequence

from .elements import ElementDescriptor, apply_circuit, apply_pbs, apply_pr, pbs, pr
from .fock import (
    Branch,
    ConsistencyError,
    Ensemble,
    FeedForwardError,
    FockVector,
    OutcomeEvent,
    PRUNE_EPS,
    PureState,
    _integer,
    _reuse,
    total_photons,
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


def interpret_pattern(pattern: Sequence[bool]) -> str:
    """Map a click pattern to its classical outcome label, by its rail count.

    Two rails are the H and V rails behind a single PID, and four are the
    rails behind a pair of PIDs at a fusion site, where single clicks
    collapse into one discard class because a bucket detector cannot count
    the photons it absorbed. Any other count reads as a raw bit string.
    """
    pattern = tuple(bool(c) for c in pattern)
    if len(pattern) == 2:
        return {
            (True, False): "Hn0",
            (False, True): "0Vn",
            (False, False): "00",
            (True, True): "HnVn",
        }[pattern]
    if len(pattern) != 4:
        return "".join("1" if c else "0" for c in pattern)
    clicks = [i for i, c in enumerate(pattern) if c]
    if len(clicks) == 0:
        return "silent"
    if len(clicks) == 1:
        return "one-click"
    if len(clicks) == 2:
        return _FUSION_TWO_CLICK[frozenset(clicks)]
    raise ConsistencyError(f"{len(clicks)} clicks are impossible at a two-photon fusion site")


def _picker(indices: Sequence[int]) -> Callable[[FockVector], tuple]:
    """A function returning the tuple of a vector's entries at ``indices``."""
    if len(indices) >= 2:
        return itemgetter(*indices)
    return lambda vec: tuple([vec[i] for i in indices])


@functools.lru_cache(maxsize=None)
def _reading(sector: FockVector) -> tuple[ClickPattern, str]:
    """Click pattern and outcome label of one photon-number sector.

    Cached per sector; sectors hold at most the photon cap.
    """
    pattern = tuple(n_h + n_v > 0 for n_h, n_v in sector)
    return pattern, interpret_pattern(pattern)


# A table coefficient of at most this magnitude is the rounding residue of an
# exact zero (cos(π/2) = 6.1e-17; the largest met is 2.2e-16). It stays below
# the smallest real coefficient the tests pin, sin²(2⁻²⁴) = 3.6e-15; no
# library table has a real coefficient below 0.354.
_RESIDUE = 4 * sys.float_info.epsilon


@dataclass(frozen=True)
class _Circuit:
    """Elements on modes 0 up to the highest target, read through a table.

    The table is the circuit's own: the image of each occupancy it has met,
    so the photon cap bounds it; no module-level cache is keyed on an angle.
    Each image is filled scaled by 2^50, so the kernels prune nothing, and
    then drops the coefficients of magnitude at most ``_RESIDUE``.
    """

    elements: tuple[ElementDescriptor, ...] = ()
    _span: int = field(init=False, repr=False, compare=False)
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        elements = tuple(self.elements)
        if not all(isinstance(e, ElementDescriptor) for e in elements):
            raise TypeError(f"circuit elements must be ElementDescriptors, got {elements}")
        object.__setattr__(self, "elements", elements)
        top = max((t for e in elements for t in e.targets), default=-1)
        object.__setattr__(self, "_span", top + 1)

    def image(self, head: FockVector) -> tuple[tuple[FockVector, complex], ...]:
        """The image of |head⟩ padded with vacuum to the span, residues dropped."""
        images = self._table.get(head)
        if images is None:
            span = self._span
            padded = head + ((0, 0),) * (span - len(head))
            # a power of two scales exactly and keeps the kernels' pruning off
            one = PureState._trusted(span, {padded: 2.0**50 + 0j}, total_photons(head))
            images = apply_circuit(one, self.elements)._amps.items()
            unit = ((v, c * 2.0**-50) for v, c in images)
            images = self._table[head] = tuple((v, c) for v, c in unit if abs(c) > _RESIDUE)
        return images

    def apply(self, state: PureState) -> PureState:
        """``apply_circuit(state, self.elements)``, read from the table."""
        span = self._span
        if span > state.modes:
            return apply_circuit(state, self.elements)  # raises the kernels' ValueError
        out: dict[FockVector, complex] = {}
        for vec, amp in state._amps.items():
            tail = vec[span:]
            for new_head, coeff in self.image(vec[:span]):
                new = new_head + tail
                out[new] = out.get(new, 0j) + amp * coeff
        return PureState._trusted(state.modes, out, state.photon_cap)


@dataclass(frozen=True)
class RuleAction(_Circuit):
    """A feed-forward circuit with its disposition, ``"keep"`` or ``"discard"``;
    a discard is never corrected, so it takes no elements."""

    disposition: str = "keep"

    def __post_init__(self) -> None:
        if self.disposition not in ("keep", "discard"):
            raise ValueError(f"disposition must be keep or discard, got {self.disposition!r}")
        super().__post_init__()
        if self.disposition == "discard" and self.elements:
            raise ValueError("a discard takes no corrective elements")


# A feed-forward rule maps each reachable outcome label to its action.
FeedForwardRule = Mapping[str, RuleAction]


class _Site(NamedTuple):
    """A site resolved against the width of the level it reads.

    The pickers split a term into the measured occupancy and the rest;
    ``events`` maps each sector met to its ``OutcomeEvent``, built once per
    site, so a site resolved at module level builds each once per process.
    The photon cap bounds it.
    """

    occ_of: Callable[[FockVector], tuple]
    rest_of: Callable[[FockVector], tuple]
    width: int
    rest: int
    circuit: _Circuit | None
    name: str
    events: dict[FockVector, OutcomeEvent]


def _resolve(site: tuple, width: int) -> _Site:
    """Check a (modes, circuit or None, name) site against ``width`` modes.

    A mode that is not an integer raises ``TypeError``, and one out of range
    or repeated ``ValueError``. A site whose modes are fixed is resolved once,
    at module level; one whose modes are arguments, by its entry point.
    """
    modes, circuit, name = site
    modes = tuple(_integer(m, "a measured mode") for m in modes)
    measured = set(modes)
    if len(measured) != len(modes):
        raise ValueError("measured modes must be distinct")
    for m in modes:
        if not 0 <= m < width:
            raise ValueError(f"mode {m} out of range")
    rest = [i for i in range(width) if i not in measured]
    return _Site(_picker(modes), _picker(rest), width, len(rest), circuit, name, {})


def _read(state: PureState, site: _Site) -> list[tuple[float, PureState, OutcomeEvent]]:
    """(weight, normalized surviving state, event) per sector.

    Sectors come out sorted; terms below ``PRUNE_EPS`` are dropped, and
    sectors left empty omitted. Every mode of a site circuit's ``image`` is
    a detector rail, in reporting order.
    """
    occ_of, rest_of, _width, rest, circuit, name, events = site
    sectors: dict[FockVector, dict[FockVector, complex]] = {}
    for vec, amp in state._amps.items():
        occ = occ_of(vec)
        sub = sectors.get(occ)
        if sub is None:
            sub = sectors[occ] = {}
        sub[rest_of(vec)] = amp
    if circuit is not None:
        groups, sectors = sectors, {}
        for occ, terms in groups.items():
            for sector, coeff in circuit.image(occ):
                sub = sectors.get(sector)
                if sub is None:
                    # adding to 0j turns a -0.0 part into 0.0, as the sums in
                    # the element kernels do, so reports print the same zeros
                    sectors[sector] = {v: 0j + a * coeff for v, a in terms.items()}
                    continue
                for vec, amp in terms.items():
                    sub[vec] = sub.get(vec, 0j) + amp * coeff
    out = []
    cap = state.photon_cap
    for sector in sorted(sectors):
        sub = sectors[sector]
        mags = list(map(abs, sub.values()))
        if min(mags) < PRUNE_EPS:
            sub = {v: a for (v, a), m in zip(sub.items(), mags) if m >= PRUNE_EPS}
            if not sub:
                continue
            mags = [m for m in mags if m >= PRUNE_EPS]
        weight = sum([m**2 for m in mags])
        scale = 1.0 / math.sqrt(weight)
        amps = {v: a * scale for v, a in sub.items()}
        if scale < 1.0:
            # a sector of an unnormalized state: scaling down can push a kept
            # term below PRUNE_EPS, and no larger scale can
            amps = {v: a for v, a in amps.items() if abs(a) >= PRUNE_EPS}
        post = PureState._pruned(rest, amps, cap)
        event = events.get(sector)
        if event is None:
            event = events[sector] = OutcomeEvent(name, *_reading(sector))
        out.append((weight, post, event))
    return out


def _decide(
    weight, state, record, rules: FeedForwardRule | None, key: str, corrected: dict
) -> Branch:
    """Build one branch, decided by the rule of ``key``, its labels joined (``"13"``).

    The action's disposition goes on the branch, and a kept state gets the
    action's correction. An outcome with no rule is a hard error, not a
    silent keep; ``rules=None`` keeps every branch as read.

    ``corrected`` maps ``id(action)`` to its ``_reuse`` pairs over one readout,
    so a state that agrees with an earlier one gets that corrected state.
    """
    if rules is None:
        return Branch(weight, state, record)
    action = rules.get(key)
    if action is None:
        raise FeedForwardError(f"no feed-forward rule for outcome {key!r}")
    if action.disposition == "keep" and action.elements:
        state = _reuse(corrected.setdefault(id(action), []), state, action.apply)
    return Branch(weight, state, record, action.disposition)


def _readout(
    state: PureState, sites: Sequence[_Site], rules: FeedForwardRule | None = None
) -> Ensemble:
    """Read each resolved site in turn.

    Each site reads every survivor of the one before, with weights
    multiplied and labels joined into the rule key; the rules decide each
    branch once, after every site is read: the sites read one by one, then
    ``apply_feed_forward``, but every branch built once. Each action
    corrects each distinct kept state once. A site resolved for another
    width than the level it reads raises ``ValueError`` before any term is
    read.
    """
    width = state.modes
    for site in sites:
        if site.width != width:
            raise ValueError(f"site {site.name!r} reads {site.width} modes, not {width}")
        width = site.rest
    level: list[tuple[float, PureState, tuple[OutcomeEvent, ...], str]] = [(1.0, state, (), "")]
    for site in sites:
        level = [
            (w * sw, post, rs + (e,), key + e.label)
            for w, parent, rs, key in level
            for sw, post, e in _read(parent, site)
        ]
    corrected: dict = {}
    return Ensemble(
        tuple([_decide(w, post, rs, rules, key, corrected) for w, post, rs, key in level])
    )


def measure_nr(state: PureState, modes: Sequence[int], site: str) -> Ensemble:
    """Measure the given modes with non-number-resolving detectors.

    Branches are keyed by the exact photon content of the measured modes
    (so e.g. one and two photons on the same rail become separate branches
    sharing a click-pattern label).  Measured modes are removed from the
    surviving states; weights are the Born probabilities; zero-probability
    patterns are omitted. Labels follow the number of modes read, as
    ``interpret_pattern`` reads rails.
    """
    return _readout(state, (_resolve((modes, None, site), state.modes),))


def trace_out(ensemble: Ensemble, mode: int) -> Ensemble:
    """Discard one mode, splitting each branch per that mode's occupancy.

    Each branch's mode is measured as by ``measure_nr``; weights are
    multiplied by the marginal probability of each occupancy, and records
    and dispositions are unchanged. No library path calls it: it is kept
    for the analysis of what a failed gate leaves (ROADMAP item 3).
    """
    return Ensemble(
        tuple(
            Branch(branch.weight * b.weight, b.state, branch.record, branch.disposition)
            for branch in ensemble.branches
            for b in measure_nr(branch.state, (mode,), "trace").branches
        )
    )


def apply_feed_forward(ensemble: Ensemble, rules: FeedForwardRule) -> Ensemble:
    """Decide the branches of a ``measure_nr`` readout as ``_readout`` does.

    Each branch's record is the rule's key, and the rule alone sets its
    disposition. Apply it before ``Ensemble.then`` prefixes the parent's
    record. No library path calls it; its readers are the tests and the
    ``perfbench/tracing.py`` boundaries.
    """
    corrected: dict = {}
    decided = [
        _decide(b.weight, b.state, b.record, rules, "".join([e.label for e in b.record]), corrected)
        for b in ensemble.branches
    ]
    return Ensemble(tuple(decided))


def pid_split(state: PureState, mode: int) -> tuple[PureState, int]:
    """Expand one mode into its two PID detector rails.

    A polarization rotation by π/4 followed by a PBS onto a fresh mode
    separates the rotated H and V components.  Returns the new state and the
    index of the fresh V rail (the H rail keeps the original index).

    Sites read ``_PID_CIRCUIT`` instead; this form is read by
    ``gadgets.ecc_optics``, the property tests and the ``perfbench`` tracer.
    """
    rotated = apply_pr(state, mode, math.pi / 4)
    widened = rotated.tensor(PureState.vacuum(1, photon_cap=state.photon_cap))
    fresh = widened.modes - 1
    return apply_pbs(widened, mode, fresh), fresh


# ``pid_split`` of mode 0 as a site circuit, the fresh V rail on mode 1.
_PID_CIRCUIT = _Circuit((pr(0, math.pi / 4), pbs(0, 1)))


def pid(
    state: PureState,
    mode: int,
    rules: FeedForwardRule,
    site: str = "pid",
) -> Ensemble:
    """Polarization-independent detection of one mode with feed-forward.

    The mode is split into two rails, both rails are measured with bucket
    detectors, the rule's corrective elements run once per distinct kept
    state and action, and the two measured rails disappear from the
    surviving states.  Corrective element targets refer to post-measurement
    mode indices.
    """
    return _readout(state, (_resolve(((mode,), _PID_CIRCUIT, site), state.modes),), rules)
