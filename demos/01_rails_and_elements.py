"""States, rails, and the five optical elements.

Walks through the sparse dual-rail representation and shows each element
acting on small states, including two-photon interference on the 50:50
splitter.

Run with: python3 demos/01_rails_and_elements.py
"""

import math

from clickcz.fock import PureState, creation_apply
from clickcz.elements import apply_bs, apply_pbs, apply_pdps, apply_pr, apply_ps


def show(title, state):
    print(f"\n{title}")
    for vec, amp in state.items():
        print(f"  {vec}  amplitude {amp:.4f}")


def main():
    print("Each spatial mode carries two rails: (n_H, n_V).")

    vac = PureState.vacuum(1)
    one_h = creation_apply(vac, 0, "H")
    show("a†_H |vac> =", one_h)
    show("a†_H a†_H |vac> (note the bosonic sqrt(2)) =", creation_apply(one_h, 0, "H"))

    show("PR(pi/4) on |H>:", apply_pr(one_h, 0, math.pi / 4))
    one_v = creation_apply(vac, 0, "V")
    show("PR(pi/4) on |V> (mind the sign):", apply_pr(one_v, 0, math.pi / 4))

    show("PS(pi) phases every photon:", apply_ps(one_v, 0, math.pi))
    show("PDPS(pi) phases only V photons:", apply_pdps(one_h.tensor(one_v), 1, math.pi))

    hv = one_h.tensor(one_v)
    show("PBS keeps H, swaps V across modes:", apply_pbs(hv, 0, 1))

    hh = one_h.tensor(one_h)
    show("50:50 BS on |H>|H> bunches the photons (Hong-Ou-Mandel):",
         apply_bs(hh, 0, 1))


if __name__ == "__main__":
    main()
