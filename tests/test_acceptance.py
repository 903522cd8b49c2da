"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. All tolerances are pinned here, not configurable.
"""

import math
import random

from clickcz.cli import ExperimentConfig, main, run
from clickcz.detection import pid
from clickcz.elements import apply_element, bs, pbs, pdps, pr, ps
from clickcz.fock import PureState
from clickcz.gadgets import B2G_RULES, a2c, ancilla_stage, b2g, cz_full_pipeline, cz_gate, ecc, g2a
from clickcz.oracle import (
    density_of,
    density_distance,
    partial_ghz_density,
    verify_table,
)
from clickcz import states

TOL = 1e-12


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_b2g_mixture():
    pair = states.bell_phi_plus().tensor(states.bell_phi_plus())
    result = b2g(pair)

    keep = result.success_probability
    assert abs(keep - 0.75) <= TOL

    rho = density_of(result.ensemble, keep_only=True)
    assert density_distance(rho, partial_ghz_density()) <= TOL

    ghz = states.ghz_plus()
    pure_ghz = sum(
        b.weight for b in result.ensemble.kept()
        if b.state.equal_up_to_global_phase(ghz)
    )
    assert abs(pure_ghz - 0.5) <= TOL
    report(1, "B2G keep 3/4, kept mixture (2|GHZ+><GHZ+|+|V0H><V0H|)/3, pure GHZ 1/2")


def test_criterion_2_pid_chain():
    for d in range(2, 6):
        out = pid(states.phi_plus(d), d - 1, B2G_RULES, site="pid-chain")
        assert abs(out.keep_weight - 1.0) <= TOL
        target = states.phi_plus(d - 1)
        for branch in out.branches:
            fid = abs(branch.state.inner_product(target)) ** 2
            assert fid >= 1.0 - TOL
    report(2, "PID chain d=2..5 returns the shorter chain with probability 1")


def test_criterion_3_table_reproduction():
    for table_id in (1, 2, 3):
        table = verify_table(table_id)
        assert table.matched, f"table {table_id} rows failed"
        for row in table.rows:
            assert row.max_deviation <= TOL

    for name in ("HH", "HV", "VH", "VV"):
        result = cz_gate(states.basis_two_qubit(name))
        kept = result.success_branches()
        assert len(kept) == 16
        for branch in kept:
            assert abs(branch.weight - 1 / 64) <= TOL
    report(3, "tables 1-3 reproduced at 1e-12; 16 gate outcomes at 1/64 each")


def test_criterion_4_g2a():
    double_ghz = states.ghz_plus().tensor(states.ghz_plus())
    result = g2a(double_ghz)
    assert abs(result.success_probability - 0.5) <= TOL
    t1 = states.t1_prime()
    for branch in result.success_branches():
        assert branch.state.equal_up_to_global_phase(t1)

    for left, right in ((states.ghz_plus(), states.v0h()),
                        (states.v0h(), states.ghz_plus())):
        poisoned = g2a(left.tensor(right))
        assert poisoned.success_probability == 0.0

    silent = ecc(states.v0h().tensor(states.v0h()), 1, 4)
    assert len(silent.branches) == 1
    assert silent.branches[0].record[-1].label == "silent"
    assert abs(silent.branches[0].weight - 1.0) <= TOL
    report(4, "G2A: success 1/2 onto |t1'>, damaged inputs herald 0, silence for double damage")


def _random_two_qubit(rng: random.Random) -> PureState:
    if rng.random() < 0.5:
        return states.product_two_qubit(
            (complex(rng.gauss(0, 1), rng.gauss(0, 1)),
             complex(rng.gauss(0, 1), rng.gauss(0, 1))),
            (complex(rng.gauss(0, 1), rng.gauss(0, 1)),
             complex(rng.gauss(0, 1), rng.gauss(0, 1))),
        )
    return states.two_qubit(
        *(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
    )


def test_criterion_5_controlled_phase_correctness():
    rng = random.Random(20240501)
    inputs = [states.basis_two_qubit(n) for n in ("HH", "HV", "VH", "VV")]
    inputs += [_random_two_qubit(rng) for _ in range(100)]
    for psi in inputs:
        result = cz_gate(psi)
        assert abs(result.success_probability - 0.25) <= TOL
        target = states.controlled_phase_of(psi)
        for branch in result.success_branches():
            assert branch.state.equal_up_to_global_phase(target)
    report(5, "CZ exact on 4 basis + 100 random inputs, success 1/4 regardless of input")


def test_criterion_6_pipeline_probabilities():
    psi = states.product_two_qubit((1, 1), (1, 1))
    result = cz_full_pipeline(psi)
    assert abs(ancilla_stage().keep_weight - 1 / 8) <= TOL
    assert abs(result.success_probability - 1 / 32) <= TOL
    target = states.controlled_phase_of(psi)
    for branch in result.success_branches():
        assert abs(abs(branch.state.inner_product(target)) - 1.0) <= TOL
    report(6, "pipeline: ancilla 1/8, total success 1/32, conditioned fidelity 1")


def test_criterion_7_property_suites():
    rng = random.Random(987654)

    def random_state(modes: int) -> PureState:
        amps = {}
        for _ in range(rng.randint(1, 4)):
            vec = tuple((rng.randint(0, 1), rng.randint(0, 1)) for _ in range(modes))
            amps[vec] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        state = PureState(modes, amps)
        return state.normalized() if state.norm2 > 1e-9 else PureState.vacuum(modes)

    elements = [
        lambda: pr(rng.randrange(3), rng.uniform(-math.pi, math.pi)),
        lambda: ps(rng.randrange(3), rng.uniform(-math.pi, math.pi)),
        lambda: pdps(rng.randrange(3), rng.uniform(-math.pi, math.pi)),
        lambda: bs(*rng.sample(range(3), 2)),
        lambda: pbs(*rng.sample(range(3), 2)),
    ]
    for i in range(1000):
        psi = random_state(3)
        element = elements[i % len(elements)]()
        out = apply_element(psi, element)
        assert abs(out.norm2 - psi.norm2) <= TOL
        totals_in = {sum(h + v for h, v in vec) for vec, _ in psi.items()}
        for vec, _ in out.items():
            assert sum(h + v for h, v in vec) in totals_in

    pair = states.bell_phi_plus().tensor(states.bell_phi_plus())
    ensembles = {
        "b2g": b2g(pair).ensemble,
        "ecc": ecc(states.ghz_plus().tensor(states.ghz_plus()), 1, 4),
        "g2a": g2a(states.ghz_plus().tensor(states.ghz_plus())).ensemble,
        "a2c": a2c(states.basis_two_qubit("HH"), 0, 1),
        "cz": cz_gate(states.basis_two_qubit("HV")).ensemble,
        "pipeline": cz_full_pipeline(states.basis_two_qubit("HH")).ensemble,
    }
    for name, ensemble in ensembles.items():
        assert abs(ensemble.total_weight - 1.0) <= TOL, name

    from clickcz.detection import RuleAction

    passthrough = {label: RuleAction() for label in ("Hn0", "0Vn", "00", "HnVn")}
    h_out = pid(states.qubit(1, 0), 0, passthrough)
    v_out = pid(states.qubit(0, 1), 0, passthrough)
    h_dist = sorted((b.record[-1].label, round(b.weight, 14)) for b in h_out.branches)
    v_dist = sorted((b.record[-1].label, round(b.weight, 14)) for b in v_out.branches)
    assert h_dist == v_dist
    report(7, "1000-state unitarity/conservation, branch completeness, PID blindness")


def test_criterion_8_monte_carlo(tmp_path):
    config = ExperimentConfig(
        experiment="cz", mode="sample", samples=100_000, seed=20240803
    )
    report_obj, code = run(config)
    assert code == 0
    keep = sum(
        o["frequency"] for o in report_obj.outcomes if o["disposition"] == "keep"
    )
    sigma = math.sqrt(0.25 * 0.75 / 100_000)
    assert abs(keep - 0.25) <= 4 * sigma

    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    args = [
        "--experiment", "cz", "--mode", "sample",
        "--samples", "100000", "--seed", "20240803",
    ]
    for path in paths:
        assert main(args + ["--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    report(8, "sampled keep frequency within 4 sigma of 1/4 and byte-reproducible")
