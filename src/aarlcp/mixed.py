"""Instances with a free variable block tied to the decision by equations.

The free block y gets its own affine rule y(u) = E u + s, carried by the
E and s fields of :class:`Policy`.  The equation block must hold
identically over the whole set, which on the hull basis means one nominal
equation plus one equation per basis vector.  Everything else reuses the
pure machinery: the formulation in :mod:`milp` declares the E and s columns
and the coupling rows once, so node LPs, the tree search and the big-M
export all cover the free block.
"""

from __future__ import annotations

import numpy as np

from .core import EPS_FEAS, EPS_ZERO, Instance, Policy, policy_matches_instance
from .errors import DimensionMismatch
from .linhull import LinHullBasis
from .milp import NodeLpBuilder, SolveOptions, SolveReport, _run_search
from .verify import VerifyReport, certify_affine


def verify_mixed(
    inst: Instance,
    basis: LinHullBasis,
    pol: Policy,
    tol: float = EPS_FEAS,
    eps_zero: float = EPS_ZERO,
) -> VerifyReport:
    """Certify a policy pair against an instance with a free block.

    On top of the pure checks, the equation block must vanish at the
    nominal point and along every hull basis vector; those residuals land
    in the report's equality fields.
    """
    if inst.mixed is None:
        raise DimensionMismatch("instance has no free block")
    policy_matches_instance(inst, pol)
    mx = inst.mixed

    r = pol.r.copy()
    r[r <= eps_zero] = 0.0
    E, s = pol.E, pol.s
    w_lin = inst.M @ pol.D + mx.N @ E + inst.T
    w_const = inst.M @ r + mx.N @ s + inst.q
    report = certify_affine(
        inst.Theta, inst.zeta, basis.vectors, r, pol.D, w_lin, w_const, tol
    )

    eq_res = float(np.abs(mx.V @ r + mx.W @ s + mx.p).max())
    dir_mat = mx.V @ pol.D + mx.W @ E + mx.P
    eq_dir = 0.0
    for v in basis.vectors:
        d = np.abs(dir_mat @ v)
        if d.size:
            eq_dir = max(eq_dir, float(d.max()))

    violations = list(report.violations)
    if eq_res > tol:
        violations.append(
            f"free-block equations off at the nominal point: residual {eq_res:g}"
        )
    if eq_dir > tol:
        violations.append(
            f"free-block equations vary along the hull: residual {eq_dir:g}"
        )
    report.violations = tuple(violations)
    report.equality_residual = eq_res
    report.equality_direction_residual = eq_dir
    return report


def mixed_solve(
    inst: Instance, basis: LinHullBasis, opts: SolveOptions | None = None
) -> SolveReport:
    """Tree search for instances with a free block.

    Identical search to the pure solver; only certification changes.
    """
    if inst.mixed is None:
        raise DimensionMismatch("instance has no free block; use bnb_solve")
    opts = opts or SolveOptions()
    builder = NodeLpBuilder(inst, basis)
    return _run_search(
        builder,
        opts,
        lambda pol: verify_mixed(inst, basis, pol, opts.verify_tol, opts.eps_zero),
    )
