"""The heralded controlled-phase gate in action.

Both input qubits fuse with the outer rails of the four-qubit ancilla; the
surviving inner rails carry the gate output once the outcome-paired
corrections run.  All sixteen kept click patterns give the exact gate
image, each with probability 1/64.

Run with: python3 demos/05_controlled_phase_gate.py
"""

from clickcz import states
from clickcz.gadgets import cz_gate


def main():
    psi = states.product_two_qubit((1, 1), (1, 1))
    target = states.controlled_phase_of(psi)

    print("input  (|H>+|V>)(|H>+|V>)/2, expected output (|HH>+|HV>+|VH>-|VV>)/2")
    result = cz_gate(psi)
    print(f"success probability: {result.success_probability:.4f} (= 1/4)\n")

    print("kept outcome pairs:")
    for branch in result.success_branches():
        pair = branch.record[-2].label + branch.record[-1].label
        ok = branch.state.equal_up_to_global_phase(target)
        print(
            f"  |{pair}>  weight {branch.weight:.6f}  "
            f"matches CZ(input): {ok}"
        )

    print("\nexact amplitudes of one success branch:")
    for vec, amp in result.success_branches()[0].state.items():
        print(f"  {vec}: {amp:.4f}")


if __name__ == "__main__":
    main()
