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
from dataclasses import dataclass, field
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
    PRUNE_EPS,
    PureState,
    _once_per_state,
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


def _partition(
    state: PureState, modes: tuple[int, ...]
) -> tuple[dict[FockVector, dict[FockVector, complex]], int]:
    """Group the terms by the occupancy of ``modes``: occupancy → rest → amplitude.

    The rest is the term with the measured modes removed. Also returns the
    number of modes left. A mode out of range or repeated raises
    ``ValueError`` before any term is read.
    """
    measured = set(modes)
    if len(measured) != len(modes):
        raise ValueError("measured modes must be distinct")
    for m in modes:
        if not 0 <= m < state.modes:
            raise ValueError(f"mode {m} out of range")
    rest = [i for i in range(state.modes) if i not in measured]
    occ_of, rest_of = _picker(modes), _picker(rest)
    groups: dict[FockVector, dict[FockVector, complex]] = {}
    for vec, amp in state._amps.items():
        groups.setdefault(occ_of(vec), {})[rest_of(vec)] = amp
    return groups, len(rest)


@functools.lru_cache(maxsize=None)
def _reading(sector: FockVector, site_kind: str) -> tuple[ClickPattern, str]:
    """Click pattern and outcome label of one photon-number sector.

    Cached per sector and site kind; sectors hold at most the photon cap.
    """
    pattern = tuple(n_h + n_v > 0 for n_h, n_v in sector)
    if site_kind == "raw":
        return pattern, "".join("1" if c else "0" for c in pattern)
    return pattern, interpret_pattern(pattern, site_kind)


# The optics in front of a site's detectors: maps a state of the measured
# modes alone to the state on the detector rails and the rails in reporting
# order. Every output mode must be a detector rail.
Optics = Callable[[PureState], tuple[PureState, tuple[int, ...]]]


@functools.lru_cache(maxsize=None)
def _transfer(optics: Optics, occ: FockVector) -> tuple[tuple[FockVector, complex], ...]:
    """Detector-rail image of the measured modes' occupancy ``occ``.

    Runs the site's optics on the one-term state |occ⟩ and returns its
    (sector, coefficient) pairs. Keyed by the optics and the occupancy only,
    so the photon cap bounds the cache; ``optics`` must be a module-level
    function, not a closure made per call.
    """
    local = PureState._trusted(len(occ), {occ: 1 + 0j}, total_photons(occ))
    out, rails = optics(local)
    sector_of = _picker(rails)
    return tuple((sector_of(vec), amp) for vec, amp in out._amps.items())


@dataclass(frozen=True)
class RuleAction:
    """Feed-forward response to one outcome label: ``"keep"`` or ``"discard"``.

    Kept branches get the ``elements`` through a table the action owns: the
    image of each occupancy of modes 0 up to the highest target, filled on
    first use by ``apply_circuit`` on that occupancy alone.
    """

    elements: tuple[ElementDescriptor, ...] = ()
    disposition: str = "keep"
    _span: int = field(init=False, repr=False, compare=False)
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.disposition not in ("keep", "discard"):
            raise ValueError(f"disposition must be keep or discard, got {self.disposition!r}")
        elements = tuple(self.elements)
        if not all(isinstance(e, ElementDescriptor) for e in elements):
            raise TypeError(f"feed-forward elements must be ElementDescriptors, got {elements}")
        object.__setattr__(self, "elements", elements)
        top = max((t for e in elements for t in e.targets), default=-1)
        object.__setattr__(self, "_span", top + 1)

    def _correct(self, state: PureState) -> PureState:
        """``apply_circuit(state, self.elements)``, read from the table."""
        span, table = self._span, self._table
        if span > state.modes:
            return apply_circuit(state, self.elements)  # raises the kernels' ValueError
        out: dict[FockVector, complex] = {}
        for vec, amp in state._amps.items():
            head, tail = vec[:span], vec[span:]
            images = table.get(head)
            if images is None:
                # a power of two scales exactly and keeps the kernels' pruning off
                one = PureState._trusted(span, {head: 2.0**50 + 0j}, total_photons(head))
                images = apply_circuit(one, self.elements)._amps.items()
                images = table[head] = tuple((v, c * 2.0**-50) for v, c in images)
            for new_head, coeff in images:
                new = new_head + tail
                out[new] = out.get(new, 0j) + amp * coeff
        return PureState._trusted(state.modes, out, state.photon_cap)


# A feed-forward rule maps each reachable outcome label to its action.
FeedForwardRule = Mapping[str, RuleAction]


def _read(site: tuple, state: PureState) -> list[tuple[float, PureState, tuple]]:
    """(weight, normalized surviving state, (site, pattern, label)) per sector.

    Sectors come out sorted; terms below ``PRUNE_EPS`` are dropped, and
    sectors left empty omitted. The optics act on each occupancy once.
    """
    modes, optics, name, site_kind = site
    sectors, rest = _partition(state, tuple(modes))
    if optics is not None:
        groups, sectors = sectors, {}
        for occ, terms in groups.items():
            for sector, coeff in _transfer(optics, occ):
                sub = sectors.get(sector)
                if sub is None:
                    # adding to 0j turns a -0.0 part into 0.0, as the sums in
                    # the element kernels do, so reports print the same zeros
                    sectors[sector] = {v: 0j + a * coeff for v, a in terms.items()}
                    continue
                for vec, amp in terms.items():
                    sub[vec] = sub.get(vec, 0j) + amp * coeff
    out = []
    for sector in sorted(sectors):
        sub = sectors[sector]
        if min(map(abs, sub.values())) < PRUNE_EPS:
            sub = {v: a for v, a in sub.items() if abs(a) >= PRUNE_EPS}
            if not sub:
                continue
        weight = sum([abs(a) ** 2 for a in sub.values()])
        scale = 1.0 / math.sqrt(weight)
        post = PureState._trusted(rest, {v: a * scale for v, a in sub.items()}, state.photon_cap)
        out.append((weight, post, (name, *_reading(sector, site_kind))))
    return out


def _decide(weight, state, readings, rules: FeedForwardRule | None, events: dict) -> Branch:
    """Build one branch, decided by the rule of its labels joined (``"13"``).

    An outcome with no rule is a hard error, not a silent keep. The action's
    disposition goes on every event (``events`` reuses equal ones).
    """
    disposition = "keep"
    if rules is not None:
        key = "".join([r[2] for r in readings])
        action = rules.get(key)
        if action is None:
            raise FeedForwardError(f"no feed-forward rule for outcome {key!r}")
        disposition = action.disposition
        if disposition == "keep" and action.elements:
            state = action._correct(state)
    record = []
    for r in readings:
        event = events.get((r, disposition))
        if event is None:
            event = events[r, disposition] = OutcomeEvent(*r, disposition)
        record.append(event)
    return Branch(weight, state, tuple(record))


def _readout(
    state: PureState, sites: Sequence[tuple], rules: FeedForwardRule | None = None
) -> Ensemble:
    """Read each site, a (modes, optics or None, name, kind) tuple, in turn.

    Each site reads the survivors of the one before, once per distinct state
    (``fock._once_per_state``, as ``Ensemble.then`` stages), with weights
    multiplied: the sites chained by ``then``, then ``apply_feed_forward``,
    but every branch built once.
    """
    level: list[tuple[float, PureState, tuple]] = [(1.0, state, ())]
    for site in sites:
        read = _once_per_state(functools.partial(_read, site))
        level = [
            (w * sw, post, rs + (r,)) for w, parent, rs in level for sw, post, r in read(parent)
        ]
    events: dict = {}
    return Ensemble(tuple([_decide(w, post, rs, rules, events) for w, post, rs in level]))


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
    if site_kind is None:
        site_kind = {2: "pid", 4: "fusion"}.get(len(modes), "raw")
    return _readout(state, ((modes, None, site, site_kind),))


def trace_out(ensemble: Ensemble, mode: int) -> Ensemble:
    """Discard one mode, splitting each branch per that mode's occupancy.

    Each branch's mode is measured as by ``measure_nr``; weights are
    multiplied by the marginal probability of each occupancy, and records
    are unchanged. No library path calls it: it is kept for the analysis of
    what a failed gate leaves (ROADMAP item 3).
    """
    return Ensemble(
        tuple(
            Branch(branch.weight * b.weight, b.state, branch.record)
            for branch in ensemble.branches
            for b in measure_nr(branch.state, (mode,), "trace", "raw").branches
        )
    )


def apply_feed_forward(ensemble: Ensemble, rules: FeedForwardRule) -> Ensemble:
    """Decide the branches of a ``measure_nr`` readout as ``_readout`` does.

    Apply it before ``Ensemble.then`` prefixes the parent's record, since
    the whole record is the rule's key. No library path calls it; its
    readers are the tests and the ``perfbench/tracing.py`` boundaries.
    """
    events: dict = {}
    out = []
    for b in ensemble.branches:
        readings = [(e.site, e.pattern, e.label) for e in b.record]
        out.append(_decide(b.weight, b.state, readings, rules, events))
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


def _pid_optics(state: PureState) -> tuple[PureState, tuple[int, int]]:
    split, fresh = pid_split(state, 0)
    return split, (0, fresh)


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
    return _readout(state, (((mode,), _pid_optics, site, "pid"),), rules)
