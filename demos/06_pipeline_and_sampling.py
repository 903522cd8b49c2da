"""The whole pipeline, enumerated exactly and then sampled.

Four Bell pairs feed two converter runs, the error filter distills the
gate ancilla (probability 1/8), and the gate itself succeeds a quarter of
the time, for 1/32 overall.  A seeded Monte Carlo run of the gate stage
reproduces the enumerated keep rate within binomial error bars.

Run with: python3 demos/06_pipeline_and_sampling.py
"""

import math

from clickcz import states
from clickcz.cli import ExperimentConfig, run
from clickcz.gadgets import ancilla_stage, cz_full_pipeline


def main():
    psi = states.two_qubit(1, 1j, 1, -1j)
    result = cz_full_pipeline(psi)
    print(f"ancilla preparation probability: {ancilla_stage().keep_weight:.6f} (= 1/8)")
    print(f"total pipeline success:          {result.success_probability:.6f} (= 1/32)")

    target = states.controlled_phase_of(psi)
    fidelities = [
        abs(branch.state.inner_product(target)) ** 2
        for branch in result.success_branches()
    ]
    print(f"success branches: {len(fidelities)}, worst fidelity {min(fidelities):.12f}")

    print("\nMonte Carlo check of the gate stage (N = 100000, seed 7):")
    exact, _ = run(ExperimentConfig(experiment="cz"))
    sampled, _ = run(
        ExperimentConfig(experiment="cz", mode="sample", samples=100_000, seed=7)
    )
    exact_keep = sum(
        o["probability"] for o in exact.outcomes if o["disposition"] == "keep"
    )
    sampled_keep = sum(
        o["frequency"] for o in sampled.outcomes if o["disposition"] == "keep"
    )
    sigma = math.sqrt(exact_keep * (1 - exact_keep) / 100_000)
    print(f"  enumerated keep probability: {exact_keep:.6f}")
    print(f"  sampled keep frequency:      {sampled_keep:.6f}")
    print(f"  deviation: {abs(sampled_keep - exact_keep) / sigma:.2f} sigma")


if __name__ == "__main__":
    main()
