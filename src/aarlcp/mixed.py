"""Checked entry points for instances with a free variable block.

The free block y gets its own affine rule y(u) = E u + s, carried by the
E and s fields of :class:`Policy`.  The equation block must hold
identically over the whole set, which on the hull basis means one nominal
equation plus one equation per basis vector.  The formulation in
:mod:`milp` declares the E and s columns and the coupling rows once, so
:func:`milp.bnb_solve` and :func:`verify.verify_policy` cover the free
block themselves.  The two functions here do the same and refuse an
instance without one.
"""

from __future__ import annotations

from .core import EPS_FEAS, Instance, Policy
from .errors import DimensionMismatch
from .linhull import LinHullBasis
from .milp import SolveOptions, SolveReport, bnb_solve
from .verify import VerifyReport, verify_policy


def verify_mixed(
    inst: Instance,
    basis: LinHullBasis,
    pol: Policy,
    tol: float = EPS_FEAS,
) -> VerifyReport:
    """:func:`verify_policy` for an instance that must have a free block."""
    if inst.mixed is None:
        raise DimensionMismatch("instance has no free block")
    return verify_policy(inst, basis, pol, tol)


def mixed_solve(
    inst: Instance, basis: LinHullBasis, opts: SolveOptions | None = None
) -> SolveReport:
    """:func:`bnb_solve` for an instance that must have a free block."""
    if inst.mixed is None:
        raise DimensionMismatch("instance has no free block; use bnb_solve")
    return bnb_solve(inst, basis, opts)
