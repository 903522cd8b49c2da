import random

import pytest

from clickcz.detection import _resolve
from clickcz.fock import PureState


def random_state(rng: random.Random, modes: int = 3, max_terms: int = 4) -> PureState:
    """Normalized sparse state with small occupancies, for property checks."""
    amps = {}
    for _ in range(rng.randint(1, max_terms)):
        vec = tuple(
            (rng.randint(0, 1), rng.randint(0, 1)) for _ in range(modes)
        )
        amps[vec] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    state = PureState(modes, amps)
    if state.norm2 == 0:
        return PureState.vacuum(modes)
    return state.normalized()


def assert_states_equal(actual: PureState, expected: PureState, tol: float = 1e-12):
    vectors = {v for v, _ in actual.items()} | {v for v, _ in expected.items()}
    for vec in vectors:
        a, e = actual.amplitude(vec), expected.amplitude(vec)
        assert abs(a - e) <= tol, f"amplitude at {vec}: {a} != {e}"


def resolved(width: int, sites) -> tuple:
    """(modes, circuit or None, name) sites resolved for ``_readout`` in turn,
    each against the modes the one before leaves."""
    out = []
    for site in sites:
        out.append(_resolve(site, width))
        width = out[-1].rest
    return tuple(out)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240803)
