"""When M is positive semidefinite the tree collapses to one node.

For PSD coupling the nominal problem is solvable by complementary
pivoting, its solution set is a polyhedron, and the rows that can carry a
positive value anywhere on that polyhedron are exactly the support the
robust problem needs.  So instead of branching over 2^n supports,
bnb_solve (with its default psd="auto"):

  1. runs Lemke's method on (M, q) at u = 0,
  2. probes each row's maximum over the nominal solution set,
  3. starts the search at the support fixed to the positive-capable rows,
     where one node LP decides the matter.

The script runs that forced start next to the full tree search
(psd="off") and compares work counts.
"""

import numpy as np

from aarlcp import (
    Instance,
    NotPsd,
    SolveOptions,
    bnb_solve,
    check_psd,
    compute_lin_hull,
    compute_support_p,
    lemke_nominal,
    psd_solve,
)

TREE = SolveOptions(psd="off")


def desk_example():
    # rank-one coupling: row 2 of M is zero, so z2 never feeds back
    return Instance(
        M=np.array([[2.0, 0.0], [0.0, 0.0]]),
        q=np.array([-2.0, 1.0]),
        T=np.array([[0.5, 0.0], [0.0, 0.5]]),
        Theta=np.array([[1, 0], [-1, 0], [0, 1], [0, -1]], dtype=float),
        zeta=np.array([-0.5, -0.5, -0.5, -0.5]),
    )


def random_gram(rng, n, rank):
    G = rng.standard_normal((rank, n))
    return G.T @ G


def main():
    inst = desk_example()
    basis = compute_lin_hull(inst)

    print("== the pieces, one at a time ==")
    print(f"M PSD: {check_psd(inst.M)}")
    zbar = lemke_nominal(inst.M, inst.q)
    print(f"nominal solution from pivoting: {zbar}")
    support = compute_support_p(inst.M, inst.q, zbar)
    print(f"positive-capable rows: {sorted(support)}")

    print()
    print("== forced start vs full tree search ==")
    fast = bnb_solve(inst, basis)
    slow = bnb_solve(inst, basis, TREE)
    print(f"forced:   {fast.status.value}, {fast.nodes_explored} node, "
          f"{fast.lp_calls} LP call, support {sorted(fast.support_p)}")
    print(f"tree:     {slow.status.value}, {slow.nodes_explored} nodes, "
          f"{slow.lp_calls} LP calls")
    print(f"shortcut policy r = {fast.policy.r}, verified: "
          f"{fast.verification.verified}")

    print()
    print("== agreement on random PSD draws ==")
    rng = np.random.default_rng(7)
    agree = 0
    trials = 25
    for _ in range(trials):
        n = int(rng.integers(2, 6))
        M = random_gram(rng, n, rank=int(rng.integers(1, n + 1)))
        rad = rng.uniform(0.3, 1.0)
        k = 2
        box = np.vstack([np.eye(k), -np.eye(k)])
        cand = Instance(
            M=M,
            q=rng.standard_normal(n),
            T=rng.standard_normal((n, k)) * 0.5,
            Theta=box,
            zeta=np.full(2 * k, -rad),
        )
        b = compute_lin_hull(cand)
        fast = psd_solve(cand, b)
        slow = bnb_solve(cand, b, TREE)
        agree += int(fast.status is slow.status)
    print(f"status agreement: {agree}/{trials}")

    print()
    print("== a non-PSD instance is refused by the shortcut ==")
    skew = Instance(
        M=np.array([[0.0, 1.0], [-1.0, 0.0]]) + np.array([[0.0, 0.0], [0.0, -1.0]]),
        q=np.array([1.0, 1.0]),
        T=np.zeros((2, 1)),
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array([-1.0, -1.0]),
    )
    basis = compute_lin_hull(skew)
    try:
        psd_solve(skew, basis)
    except NotPsd as exc:
        print(f"psd_solve: {exc}")
    rep = bnb_solve(skew, basis)
    print(f"bnb_solve falls back to the tree search: {rep.status.value}, "
          f"forced start: {rep.forced}")


if __name__ == "__main__":
    main()
