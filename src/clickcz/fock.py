"""Sparse multi-mode bosonic states with two polarization rails (H, V) per spatial mode.

A basis vector assigns an occupancy pair ``(n_h, n_v)`` to each spatial mode.
Pure states are sparse complex-amplitude maps over such vectors; measurement
results are collected into weighted ensembles of renormalized pure states.
All values are immutable: every operation returns a new object.

The public ``PureState`` constructor is the validating boundary: it checks
every term's mode count, occupancies, photon count and amplitude. Results of
operations that cannot change the counts (tensor products within the cap,
mode permutations, scaling, element kernels, measurement) are built through
the trusted ``PureState._trusted`` path, which only prunes negligible terms.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

DEFAULT_PHOTON_CAP = 8
PRUNE_EPS = 1e-14
NORM_TOL = 1e-12


class SimulatorError(Exception):
    """Base class for simulator failures."""


class CapacityError(SimulatorError):
    """A basis vector would exceed the configured photon cap."""


class ModeMismatchError(SimulatorError):
    """Two states with different spatial mode counts were combined."""


class FeedForwardError(SimulatorError):
    """A measured click pattern has no feed-forward rule."""


class ConsistencyError(SimulatorError):
    """A click pattern or reference check is internally impossible."""


# A basis vector is a tuple of (n_h, n_v) pairs, one per spatial mode.
FockVector = tuple[tuple[int, int], ...]

VACUUM_MODE: tuple[int, int] = (0, 0)


def _integer(value: object, what: str) -> int:
    """An integer; floats, strings and booleans are rejected, not truncated."""
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise TypeError(f"{what} must be an integer, got {value!r}")
    return operator.index(value)


def _json_number(value: object, what: str) -> float:
    """A finite number; strings, booleans, NaN and infinities are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return number


def _known_keys(data: object, keys: Sequence[str], what: str) -> None:
    """Refuse a non-mapping (``TypeError``) or a key outside ``keys`` (``ValueError``)."""
    if not isinstance(data, Mapping):
        raise TypeError(f"the {what} must be an object, got {type(data).__name__}")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ValueError(f"unknown {what} key(s) {unknown}")


def as_fock_vector(modes: Iterable[Sequence[int]]) -> FockVector:
    """Coerce nested sequences into a canonical basis-vector tuple.

    Every mode must be an ``(n_h, n_v)`` pair of non-negative integers: a
    float or boolean count raises ``TypeError``, anything else ``ValueError``.
    """
    vec = []
    for m in modes:
        if len(m) != 2:
            raise ValueError(f"occupancy {m!r} is not an (n_h, n_v) pair")
        n_h, n_v = (_integer(n, "an occupancy") for n in m)
        if n_h < 0 or n_v < 0:
            raise ValueError(f"negative occupancy {m!r}")
        vec.append((n_h, n_v))
    return tuple(vec)


def total_photons(vec: FockVector) -> int:
    return sum(map(sum, vec))


class PureState:
    """Sparse pure state: mapping from basis vectors to complex amplitudes.

    May be sub-normalized (or super-normalized, e.g. right after a raw
    creation operator); the gadget entry points require normalized input.
    Amplitudes below the prune threshold are dropped so that interference
    cancellation cannot leave phantom terms behind.

    The constructor validates its input: ``modes`` and ``photon_cap`` must be
    non-negative integers (``TypeError`` for a float, string or boolean,
    ``ValueError`` below zero), every basis vector must have
    ``modes`` entries, each an ``(n_h, n_v)`` pair of non-negative integers
    (checked by ``as_fock_vector``), and at most ``photon_cap`` photons, and
    every amplitude must be finite. Library operations whose results satisfy
    these by construction skip the checks through ``_trusted``.
    """

    __slots__ = ("modes", "photon_cap", "_amps")

    def __init__(
        self,
        modes: int,
        amplitudes: Mapping[FockVector, complex] | None = None,
        *,
        photon_cap: int = DEFAULT_PHOTON_CAP,
    ) -> None:
        self.modes = _integer(modes, "modes")
        self.photon_cap = _integer(photon_cap, "photon_cap")
        if self.modes < 0 or self.photon_cap < 0:
            raise ValueError(f"negative modes {modes!r} or photon_cap {photon_cap!r}")
        amps: dict[FockVector, complex] = {}
        for vec, amp in (amplitudes or {}).items():
            if len(vec) != self.modes:
                raise ModeMismatchError(
                    f"basis vector {vec} has {len(vec)} modes, state has {self.modes}"
                )
            vec = as_fock_vector(vec)
            if not cmath.isfinite(amp):
                raise ValueError(f"non-finite amplitude {amp} at {vec}")
            if abs(amp) < PRUNE_EPS:
                continue
            n = total_photons(vec)
            if n > self.photon_cap:
                raise CapacityError(
                    f"{n} photons in {vec} exceeds the cap of {self.photon_cap}"
                )
            amps[vec] = complex(amp)
        self._amps = amps

    @classmethod
    def _trusted(
        cls, modes: int, amplitudes: dict[FockVector, complex], photon_cap: int
    ) -> "PureState":
        """Build a result whose mode and photon counts are known to hold.

        Only prunes: the caller guarantees that every vector has ``modes``
        entries and at most ``photon_cap`` photons, and that every amplitude
        is a finite complex number. The state takes ownership of the dict.
        """
        if amplitudes and min(map(abs, amplitudes.values())) < PRUNE_EPS:
            amplitudes = {v: a for v, a in amplitudes.items() if abs(a) >= PRUNE_EPS}
        return cls._pruned(modes, amplitudes, photon_cap)

    @classmethod
    def _pruned(
        cls, modes: int, amplitudes: dict[FockVector, complex], photon_cap: int
    ) -> "PureState":
        """``_trusted`` for a caller that has pruned already: no amplitude is
        below ``PRUNE_EPS``, so none is scanned."""
        state = object.__new__(cls)
        state.modes = modes
        state.photon_cap = photon_cap
        state._amps = amplitudes
        return state

    def _max_photons(self) -> int:
        """Largest photon count of any term (0 for the zero state)."""
        return max(map(total_photons, self._amps), default=0)

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def vacuum(modes: int, *, photon_cap: int = DEFAULT_PHOTON_CAP) -> "PureState":
        return PureState(modes, {(VACUUM_MODE,) * modes: 1.0}, photon_cap=photon_cap)

    # -- basic queries ---------------------------------------------------------

    def items(self) -> list[tuple[FockVector, complex]]:
        """Terms in canonical (lexicographic) basis order."""
        return sorted(self._amps.items())

    def amplitude(self, vec: Sequence[Sequence[int]]) -> complex:
        return self._amps.get(as_fock_vector(vec), 0j)

    def __len__(self) -> int:
        return len(self._amps)

    @property
    def norm2(self) -> float:
        return sum((abs(a) ** 2 for a in self._amps.values()), 0.0)

    def is_normalized(self) -> bool:
        return abs(self.norm2 - 1.0) <= NORM_TOL

    def normalized(self) -> "PureState":
        n2 = self.norm2
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero state")
        scale = 1.0 / math.sqrt(n2)
        return self.scaled(scale)

    def scaled(self, factor: complex) -> "PureState":
        if not cmath.isfinite(factor):
            raise ValueError(f"non-finite scale factor {factor}")
        return PureState._trusted(
            self.modes, {v: a * factor for v, a in self._amps.items()}, self.photon_cap
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        terms = ", ".join(f"{v}: {a:.4g}" for v, a in self.items())
        return f"PureState({self.modes}, {{{terms}}})"

    # -- algebra ---------------------------------------------------------------

    def tensor(self, other: "PureState") -> "PureState":
        """Tensor product; the other state's modes are appended after ours."""
        cap = max(self.photon_cap, other.photon_cap)
        amps: dict[FockVector, complex] = {}
        for va, aa in self._amps.items():
            for vb, ab in other._amps.items():
                amps[va + vb] = aa * ab
        modes = self.modes + other.modes
        # each factor is within its own cap, so appending vacuum is always safe
        added = other._max_photons()
        if added and self._max_photons() + added > cap:
            return PureState(modes, amps, photon_cap=cap)  # raises CapacityError
        return PureState._trusted(modes, amps, cap)

    def reorder_modes(self, permutation: Sequence[int]) -> "PureState":
        """Permute spatial modes: new mode ``i`` is old mode ``permutation[i]``.

        Rail occupancies are commuting labels, so amplitudes are unchanged.
        """
        perm = tuple(_integer(p, "a mode index") for p in permutation)
        if sorted(perm) != list(range(self.modes)):
            raise ValueError(f"{perm} is not a permutation of 0..{self.modes - 1}")
        amps = {
            tuple(vec[p] for p in perm): amp for vec, amp in self._amps.items()
        }
        return PureState._trusted(self.modes, amps, self.photon_cap)

    def inner_product(self, other: "PureState") -> complex:
        """⟨self|other⟩ over the sparse intersection."""
        if self.modes != other.modes:
            raise ModeMismatchError(
                f"inner product between {self.modes}- and {other.modes}-mode states"
            )
        amps = other._amps
        return sum((a.conjugate() * amps[v] for v, a in self._amps.items() if v in amps), 0j)

    def equal_up_to_global_phase(self, other: "PureState") -> bool:
        """True iff |⟨self|other⟩| ≥ 1 − NORM_TOL. Both states must be normalized."""
        return abs(self.inner_product(other)) >= 1.0 - NORM_TOL

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Canonical JSON form with terms in canonical basis order."""
        return {
            "modes": self.modes,
            "terms": [
                {"occ": [list(m) for m in vec], "re": amp.real, "im": amp.imag}
                for vec, amp in self.items()
            ],
        }

    @staticmethod
    def from_json_dict(data: Mapping) -> "PureState":
        """Load the ``to_json_dict`` form, rejecting anything it cannot write.

        ``modes`` is an integer, every ``occ`` a list of integer pairs, and
        ``re``/``im`` finite numbers; the norm² must be finite too. Any other
        key, at the top or in a term, raises ``ValueError``.
        """
        _known_keys(data, ("modes", "terms"), "state")
        modes = _integer(data["modes"], "modes")
        amps: dict[FockVector, complex] = {}
        for term in data["terms"]:
            _known_keys(term, ("occ", "re", "im"), "term")
            vec = as_fock_vector(term["occ"])
            if vec in amps:
                raise ValueError(f"duplicate term {vec}")
            amps[vec] = complex(
                _json_number(term["re"], "re"), _json_number(term.get("im", 0.0), "im")
            )
        try:
            norm2 = sum(abs(a) ** 2 for a in amps.values())
        except OverflowError:
            norm2 = math.inf
        if not math.isfinite(norm2):
            raise ValueError("the norm² of the state overflows")
        return PureState(modes, amps)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "PureState":
        return PureState.from_json_dict(json.loads(text))


def creation_apply(state: PureState, mode: int, rail: str) -> PureState:
    """Apply the creation operator for one rail; the √(n+1) factor is kept.

    The result is intentionally not normalized.
    """
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range for {state.modes}-mode state")
    if rail not in ("H", "V"):
        raise ValueError(f"rail must be 'H' or 'V', got {rail!r}")
    idx = 0 if rail == "H" else 1
    amps: dict[FockVector, complex] = {}
    for vec, amp in state._amps.items():
        occ = vec[mode]
        n = occ[idx]
        if total_photons(vec) + 1 > state.photon_cap:
            raise CapacityError(
                f"creation on {vec} would exceed the photon cap {state.photon_cap}"
            )
        new_occ = (n + 1, occ[1]) if idx == 0 else (occ[0], n + 1)
        new_vec = vec[:mode] + (new_occ,) + vec[mode + 1 :]
        amps[new_vec] = amps.get(new_vec, 0j) + amp * math.sqrt(n + 1)
    return PureState(state.modes, amps, photon_cap=state.photon_cap)


def _agree(a: PureState, b: PureState) -> bool:
    """The one sameness test: same modes, cap and support, every amplitude within PRUNE_EPS."""
    amps = b._amps
    if a.modes != b.modes or a.photon_cap != b.photon_cap or len(a._amps) != len(amps):
        return False
    if a._amps == amps:
        return True
    # equal sizes, so every key of ``a`` found in ``b`` means equal supports
    for vec, amp in a._amps.items():
        other = amps.get(vec)
        if other is None or abs(amp - other) >= PRUNE_EPS:
            return False
    return True


def _reuse(done: list, state: PureState, make: Callable[[PureState], object]):
    """The result of the first (state, result) pair of ``done`` whose state
    agrees (``_agree``) with ``state``, else ``make(state)``, appended."""
    for seen, result in done:
        if _agree(seen, state):
            return result
    result = make(state)
    done.append((state, result))
    return result


# -- measurement records and ensembles -----------------------------------------


class OutcomeEvent(NamedTuple):
    """One detection event: where it happened, what clicked, how it was read."""

    site: str
    pattern: tuple[bool, ...]
    label: str


class Branch(NamedTuple):
    """A weighted pure state, its outcome record, and the decision on it.

    A named tuple, so it is cheap to build and immutable, and equality is
    tuple equality. ``disposition`` is ``"keep"`` or ``"discard"``: one
    decision for the whole branch, made once by its stage's rule. The record
    holds only the readings; ``label`` joins them on each read.
    """

    weight: float
    state: PureState
    record: tuple[OutcomeEvent, ...] = ()
    disposition: str = "keep"

    @property
    def label(self) -> str:
        """Joined outcome labels, e.g. ``'Hn0'`` or ``'3+1'`` for two sites."""
        return "+".join([e.label for e in self.record])


@dataclass(frozen=True)
class Ensemble:
    """Weighted collection of pure-state branches (a classical mixture)."""

    branches: tuple[Branch, ...] = field(default_factory=tuple)

    @staticmethod
    def pure(state: PureState) -> "Ensemble":
        return Ensemble((Branch(1.0, state),))

    @property
    def total_weight(self) -> float:
        return sum((b.weight for b in self.branches), 0.0)

    @property
    def keep_weight(self) -> float:
        return sum((b.weight for b in self.branches if b.disposition == "keep"), 0.0)

    def kept(self) -> tuple[Branch, ...]:
        return tuple(b for b in self.branches if b.disposition == "keep")

    def then(self, stage: Callable[[PureState], "Ensemble"]) -> "Ensemble":
        """Chain a heralded stage onto every kept branch.

        ``stage`` maps a state to an ensemble. Each kept parent becomes one
        branch per stage branch, with weights multiplied, records concatenated
        and the stage branch's disposition; every parent not ``"keep"`` passes
        through unchanged, as the same object.

        The stage runs here, once per distinct kept state: a parent whose
        state agrees (``_reuse``) with one staged before in this call gets
        that result, the same objects, so ``stage`` must be a pure function.
        The result keeps the (parent, stage branches) pairs and builds the
        product ``branches`` when they are first read, in parent order and
        then stage order; ``oracle.outcome_table`` reads the pairs instead.
        """
        staged: list[tuple[PureState, Sequence[Branch]]] = []

        def run(state: PureState) -> Sequence[Branch]:
            return stage(state).branches

        pairs = []
        for parent in self.branches:
            kept = parent.disposition == "keep"
            pairs.append((parent, _reuse(staged, parent.state, run) if kept else None))
        return _Staged(tuple(pairs))

    def _factors(self) -> Iterable[tuple[Branch, Sequence[Branch] | None]]:
        """(parent, stage branches) pairs whose product is ``branches``;
        ``None`` marks a parent that passes through, as every branch of an
        ensemble not built by ``then`` does."""
        return zip(self.branches, itertools.repeat(None))

    def __eq__(self, other: object) -> bool:
        """Equal branches, whether or not either side was built by ``then``."""
        if not isinstance(other, Ensemble):
            return NotImplemented
        return self.branches == other.branches

    def __hash__(self) -> int:
        return hash(self.branches)

    def combine(self, other: "Ensemble") -> "Ensemble":
        """Branch-wise product: states tensored, weights multiplied.

        A pair is kept only when both factors are ``"keep"``.
        """
        out = [
            Branch(
                a.weight * b.weight,
                a.state.tensor(b.state),
                a.record + b.record,
                "keep" if a.disposition == b.disposition == "keep" else "discard",
            )
            for a in self.branches
            for b in other.branches
        ]
        return Ensemble(tuple(out))


class _Staged(Ensemble):
    """``Ensemble.then``'s result: its (parent, stage branches) pairs, and
    the product ``branches``, built once on first read."""

    def __init__(self, pairs: tuple[tuple[Branch, Sequence[Branch] | None], ...]) -> None:
        object.__setattr__(self, "_pairs", pairs)

    def _factors(self) -> tuple[tuple[Branch, Sequence[Branch] | None], ...]:
        return self._pairs

    @functools.cached_property
    def branches(self) -> tuple[Branch, ...]:
        out: list[Branch] = []
        for parent, children in self._pairs:
            if children is None:
                out.append(parent)
                continue
            weight, record = parent.weight, parent.record
            out += [
                Branch(weight * b.weight, b.state, record + b.record, b.disposition)
                for b in children
            ]
        return tuple(out)
