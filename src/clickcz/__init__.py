"""Polarization-encoded linear-optics simulator with bucket detectors.

The package simulates circuits built from five linear-optical elements on
dual-rail (H/V) states, measures with detectors that only distinguish
"no photons" from "some photons", and composes these into the heralded
gadget chain that realizes a controlled-phase gate.

Import each name from its defining module (``from clickcz.fock import
PureState``); the package binds only its modules.
"""

from . import detection, elements, fock, gadgets, oracle, states, tables  # noqa: F401

__version__ = "0.1.0"
