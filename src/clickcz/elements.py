"""Linear-optical elements as creation-operator transformations.

Five elements act on the rail structure of a state:

* ``PR(theta)``  rotates the polarization basis of one mode,
* ``PS(phi)``    phases every photon in one mode,
* ``PDPS(phi)``  phases only vertically polarized photons in one mode,
* ``PBS``        transmits H and exchanges the V rails of two modes,
* ``BS``         50:50 polarization-preserving splitter on two modes.

The beam splitter uses the real (Hadamard) convention
``a → (a + b)/√2, b → (a − b)/√2``; the polarizing beam splitter reflects
with unit coefficient.  Both choices are pinned by the end-to-end
controlled-phase validation in the test suite.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .fock import FockVector, PureState, _integer, _json_number

Matrix2 = tuple[tuple[complex, complex], tuple[complex, complex]]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

KINDS = ("BS", "PBS", "PR", "PS", "PDPS")
_ARITY = {"BS": 2, "PBS": 2, "PR": 1, "PS": 1, "PDPS": 1}
# The one angle each kind reads; BS and PBS read none.
_ANGLE = {"BS": None, "PBS": None, "PR": "theta", "PS": "phi", "PDPS": "phi"}
_JSON_KEYS = frozenset({"kind", "targets", "theta", "phi"})


@dataclass(frozen=True)
class ElementDescriptor:
    """One linear-optical element: kind, angle parameter, target modes.

    PR reads ``theta``, PS and PDPS read ``phi``, and BS and PBS read no
    angle; a missing angle, or one the kind does not read, raises
    ``ValueError``.
    """

    kind: str
    targets: tuple[int, ...]
    theta: float | None = None
    phi: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown element kind {self.kind!r}")
        object.__setattr__(self, "targets", tuple(_integer(t, "a target") for t in self.targets))
        if min(self.targets, default=0) < 0:
            raise ValueError(f"targets must be non-negative, got {self.targets}")
        if len(self.targets) != _ARITY[self.kind]:
            raise ValueError(
                f"{self.kind} takes {_ARITY[self.kind]} target(s), got {self.targets}"
            )
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"targets must be distinct, got {self.targets}")
        for name, angle in (("theta", self.theta), ("phi", self.phi)):
            if angle is None:
                if name == _ANGLE[self.kind]:
                    raise ValueError(f"{self.kind} requires {name}")
            elif name != _ANGLE[self.kind]:
                raise ValueError(f"{self.kind} takes no {name}, got {name}={angle!r}")
            elif not math.isfinite(angle):
                raise ValueError(f"{name} must be finite, got {angle!r}")

    @staticmethod
    def from_json_dict(data: Mapping) -> "ElementDescriptor":
        """Load the circuit-file form (1-based targets); an unknown key raises ``ValueError``."""
        if not isinstance(data, Mapping):
            raise TypeError(f"an element descriptor must be an object, got {data!r}")
        unknown = [key for key in data if key not in _JSON_KEYS]
        if unknown:
            raise ValueError(f"unknown element key(s) {unknown}")
        targets = tuple(_integer(t, "a target") for t in data["targets"])
        if min(targets, default=1) < 1:
            raise ValueError(f"targets are 1-based, got {targets}")
        return ElementDescriptor(
            kind=str(data["kind"]),
            targets=tuple(t - 1 for t in targets),
            theta=_json_number(data["theta"], "theta") if "theta" in data else None,
            phi=_json_number(data["phi"], "phi") if "phi" in data else None,
        )


def pr(mode: int, theta: float) -> ElementDescriptor:
    return ElementDescriptor("PR", (mode,), theta=theta)


def ps(mode: int, phi: float) -> ElementDescriptor:
    return ElementDescriptor("PS", (mode,), phi=phi)


def pdps(mode: int, phi: float) -> ElementDescriptor:
    return ElementDescriptor("PDPS", (mode,), phi=phi)


def pbs(mode_a: int, mode_b: int) -> ElementDescriptor:
    return ElementDescriptor("PBS", (mode_a, mode_b))


def bs(mode_a: int, mode_b: int) -> ElementDescriptor:
    return ElementDescriptor("BS", (mode_a, mode_b))


def _check_mode(state: PureState, mode: int) -> None:
    if not 0 <= mode < state.modes:
        raise ValueError(f"mode {mode} out of range for {state.modes}-mode state")


def _phase_map(state: PureState, mode: int, phi: float, count_h: bool) -> PureState:
    """Multiply each term by exp(i*phi*n) with n the counted photons at ``mode``."""
    _check_mode(state, mode)
    phases: dict[int, complex] = {}
    amps: dict[FockVector, complex] = {}
    for vec, amp in state._amps.items():
        n_h, n_v = vec[mode]
        n = n_h + n_v if count_h else n_v
        phase = phases.get(n)
        if phase is None:
            phase = phases[n] = cmath.exp(1j * phi * n)
        amps[vec] = amp * phase
    return PureState._trusted(state.modes, amps, state.photon_cap)


@functools.lru_cache(maxsize=None)
def _expansion(n_a: int, n_b: int) -> tuple[tuple[int, int, int, int, float], ...]:
    """Angle-free terms of the substituted monomial a^n_a b^n_b on the vacuum.

    Substituting ``a → u00 a + u10 b`` and ``b → u01 a + u11 b`` into
    ``a^n_a b^n_b / √(n_a! n_b!)`` and expanding both binomials gives one
    term per ``(i, j)``: ``c · u00^i u10^(n_a−i) u01^j u11^(n_b−j)`` times the
    basis vector with ``k_a = i + j`` photons on rail a and ``k_b`` on rail b,
    where ``c = C(n_a, i) C(n_b, j) √(k_a! k_b! / (n_a! n_b!))``.  Keyed by
    photon counts only, so the photon cap bounds the cache.
    """
    norm = math.factorial(n_a) * math.factorial(n_b)
    terms = []
    for i in range(n_a + 1):
        for j in range(n_b + 1):
            k_a = i + j
            k_b = n_a + n_b - k_a
            ratio = math.factorial(k_a) * math.factorial(k_b) / norm
            c = math.comb(n_a, i) * math.comb(n_b, j) * math.sqrt(ratio)
            terms.append((i, j, k_a, k_b, c))
    return tuple(terms)


def _two_rail_transform(
    state: PureState,
    rail_a: tuple[int, int],
    rail_b: tuple[int, int],
    u: Matrix2,
) -> PureState:
    """Apply a 2x2 creation-operator map to two distinct rails.

    ``rail = (mode, pol)`` with pol 0 for H, 1 for V.  The image of rail a's
    creation operator is column 0 of ``u``; rail b's is column 1.  Expansion
    of the substituted monomials carries the bosonic factorial factors.
    """
    (ma, pa), (mb, pb) = rail_a, rail_b
    # per occupancy pair of the two modes: their new occupancies and the
    # expansion coefficient with this call's matrix folded in
    images: dict[tuple, list[tuple[tuple[int, int], tuple[int, int], complex]]] = {}
    out: dict[FockVector, complex] = {}
    for vec, amp in state._amps.items():
        key = (vec[ma], vec[mb])
        if key[0][pa] == 0 and key[1][pb] == 0:
            out[vec] = out.get(vec, 0j) + amp
            continue
        terms = images.get(key)
        if terms is None:
            terms = images[key] = _rail_images(key, pa, pb, ma == mb, u)
        buf = list(vec)
        for occ_a, occ_b, coeff in terms:
            buf[ma] = occ_a
            buf[mb] = occ_b
            new_vec = tuple(buf)
            out[new_vec] = out.get(new_vec, 0j) + amp * coeff
    return PureState._trusted(state.modes, out, state.photon_cap)


def _rail_images(
    key: tuple[tuple[int, int], tuple[int, int]],
    pa: int,
    pb: int,
    same_mode: bool,
    u: Matrix2,
) -> list[tuple[tuple[int, int], tuple[int, int], complex]]:
    """Images of one occupancy pair: (new occupancy a, new occupancy b, coefficient).

    When both rails sit on one mode, occupancy b carries both new rail
    counts, since the caller writes it after a. Terms whose coefficient
    vanishes are dropped.
    """
    (u00, u01), (u10, u11) = u
    occ_a, occ_b = key
    n_a, n_b = occ_a[pa], occ_b[pb]
    out = []
    for i, j, k_a, k_b, c in _expansion(n_a, n_b):
        coeff = c * u00**i * u10 ** (n_a - i) * u01**j * u11 ** (n_b - j)
        if coeff == 0:
            continue
        new_a = _with_rail(occ_a, pa, k_a)
        new_b = _with_rail(new_a if same_mode else occ_b, pb, k_b)
        out.append((new_a, new_b, coeff))
    return out


def _with_rail(occ: tuple[int, int], pol: int, n: int) -> tuple[int, int]:
    return (n, occ[1]) if pol == 0 else (occ[0], n)


def apply_pr(state: PureState, mode: int, theta: float) -> PureState:
    """Polarization rotation: a†_H → cosθ a†_H + sinθ a†_V, a†_V → −sinθ a†_H + cosθ a†_V."""
    _check_mode(state, mode)
    c, s = math.cos(theta), math.sin(theta)
    u: Matrix2 = ((c, -s), (s, c))
    return _two_rail_transform(state, (mode, 0), (mode, 1), u)


def apply_ps(state: PureState, mode: int, phi: float) -> PureState:
    """Phase shifter: each term gains exp(i*phi*(n_H + n_V)) at ``mode``."""
    return _phase_map(state, mode, phi, count_h=True)


def apply_pdps(state: PureState, mode: int, phi: float) -> PureState:
    """Polarization-dependent phase shifter: phases V photons only."""
    return _phase_map(state, mode, phi, count_h=False)


def apply_pbs(state: PureState, mode_a: int, mode_b: int) -> PureState:
    """Polarizing beam splitter: H transmitted, V rails exchanged, no extra phase."""
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise ValueError("PBS needs two distinct modes")
    swap: Matrix2 = ((0, 1), (1, 0))
    return _two_rail_transform(state, (mode_a, 1), (mode_b, 1), swap)


def apply_bs(state: PureState, mode_a: int, mode_b: int) -> PureState:
    """50:50 beam splitter applied identically to the H and V rails."""
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise ValueError("BS needs two distinct modes")
    h: Matrix2 = ((_INV_SQRT2, _INV_SQRT2), (_INV_SQRT2, -_INV_SQRT2))
    state = _two_rail_transform(state, (mode_a, 0), (mode_b, 0), h)
    return _two_rail_transform(state, (mode_a, 1), (mode_b, 1), h)


def apply_element(state: PureState, element: ElementDescriptor) -> PureState:
    """Dispatch one descriptor to its concrete transformation."""
    kind = element.kind
    if kind == "PR":
        return apply_pr(state, element.targets[0], element.theta)
    if kind == "PS":
        return apply_ps(state, element.targets[0], element.phi)
    if kind == "PDPS":
        return apply_pdps(state, element.targets[0], element.phi)
    if kind == "PBS":
        return apply_pbs(state, element.targets[0], element.targets[1])
    if kind == "BS":
        return apply_bs(state, element.targets[0], element.targets[1])
    raise ValueError(f"unknown element kind {kind!r}")


def apply_circuit(state: PureState, elements: Sequence[ElementDescriptor]) -> PureState:
    for element in elements:
        state = apply_element(state, element)
    return state
