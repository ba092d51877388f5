"""Complementarity plus a block of free variables tied by equations.

Some models carry variables y with no sign or complementarity condition
of their own; they are pinned to the rest through equations

    V z(u) + W y + p + P u = 0,

and they feed back into the w side through N.  Two regimes matter:

  y constant      the block is decided once, before u is revealed
  y adjustable    the block follows its own affine rule y(u) = E u + s

Freeing the block can only help: every constant-block policy is also an
adjustable-block policy with E = 0.  The last section shows a model
where that inclusion is strict.

The same tree search and certifier as for pure instances handle the
block: bnb_solve reads it off the instance.
"""

import numpy as np

from aarlcp import Instance, MixedExtension, bnb_solve, compute_lin_hull


def segment_box(radius=1.0):
    return np.array([[1.0], [-1.0]]), np.array([-radius, -radius])


def one_dim(coupling, y_adjustable=True):
    """Single complementarity row, single free variable.

    With no coupling (N = 0) the equation fixes y = 3 independently and
    the z-part solves its own problem: r = 2, D = -1/2.  Switching the
    coupling on (N = 1) pushes y's value into the w row and the solution
    moves to r = 1/2.
    """
    Theta, zeta = segment_box()
    return Instance(
        M=np.array([[2.0]]),
        q=np.array([-4.0]),
        T=np.array([[1.0]]),
        Theta=Theta,
        zeta=zeta,
        mixed=MixedExtension(
            V=np.array([[0.0]]),
            W=np.array([[1.0]]),
            N=np.array([[coupling]]),
            p=np.array([-3.0]),
            P=np.array([[0.0]]),
            y_adjustable=y_adjustable,
        ),
    )


def coupled_pair(y_adjustable):
    """The adjustability gap: the equation pins y = -z(u).

    The slack row reads w = 2 z + y - 4 + u = z - 4 + u once y is
    substituted.  Keeping it at zero needs z(u) = 4 - u, so y itself has
    to move with u; a constant block cannot comply.
    """
    Theta, zeta = segment_box()
    return Instance(
        M=np.array([[2.0]]),
        q=np.array([-4.0]),
        T=np.array([[1.0]]),
        Theta=Theta,
        zeta=zeta,
        mixed=MixedExtension(
            V=np.array([[1.0]]),
            W=np.array([[1.0]]),
            N=np.array([[1.0]]),
            p=np.array([0.0]),
            P=np.array([[0.0]]),
            y_adjustable=y_adjustable,
        ),
    )


def report(tag, inst):
    basis = compute_lin_hull(inst)
    rep = bnb_solve(inst, basis)
    print(f"{tag}: {rep.status.value}")
    if rep.policy is not None:
        pol = rep.policy
        print(f"  r = {pol.r}, D = {pol.D.ravel()}")
        print(f"  s = {pol.s}, E = {pol.E.ravel()}")
        v = rep.verification
        print(
            f"  residuals: nominal {v.nominal_residual:.1e},"
            f" direction {v.direction_residual:.1e},"
            f" equations {v.equality_residual:.1e}"
        )
    return rep


def main():
    print("== decoupled block ==")
    report("solve", one_dim(0.0))

    print()
    print("== coupled block ==")
    report("solve", one_dim(1.0))

    print()
    print("== adjustability can be the difference ==")
    report("block adjustable", coupled_pair(True))
    report("block constant  ", coupled_pair(False))


if __name__ == "__main__":
    main()
