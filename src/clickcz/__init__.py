"""Polarization-encoded linear-optics simulator with bucket detectors.

The package simulates circuits built from five linear-optical elements on
dual-rail (H/V) states, measures with detectors that only distinguish
"no photons" from "some photons", and composes these into the heralded
gadget chain that realizes a controlled-phase gate.
"""

from .fock import (
    Branch,
    CapacityError,
    ConsistencyError,
    DEFAULT_PHOTON_CAP,
    Ensemble,
    FeedForwardError,
    ModeMismatchError,
    OutcomeEvent,
    PureState,
    SimulatorError,
    creation_apply,
)
from .elements import (
    ElementDescriptor,
    apply_bs,
    apply_circuit,
    apply_element,
    apply_pbs,
    apply_pdps,
    apply_pr,
    apply_ps,
    bs,
    pbs,
    pdps,
    pr,
    ps,
)
from .detection import (
    FeedForwardRule,
    RuleAction,
    apply_feed_forward,
    interpret_pattern,
    measure_nr,
    pid,
    pid_split,
    trace_out,
)
from .gadgets import (
    A2C_RULES,
    B2G_RULES,
    CZ_RULES,
    ECC_RULES,
    G2A_RULES,
    GadgetResult,
    PipelineResult,
    a2c,
    b2g,
    cz_full_pipeline,
    cz_gate,
    ecc,
    ecc_optics,
    g2a,
)
from .oracle import (
    DensityMatrix,
    OutcomeRow,
    TableReport,
    density_of,
    enumerate_exact,
    fidelity,
    match_up_to_phase,
    outcome_rows,
    verify_all_tables,
    verify_table,
)
from . import states, tables

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
