"""Certification of affine policies, and an exhaustive support-set oracle.

A policy is accepted when the rows with positive nominal value satisfy the
tight nominal and direction conditions, and when both affine pieces stay
nonnegative over the whole uncertainty set, and, on an instance with a
free block, when the block's equations hold identically over the set.  The
nonnegativity side is checked with a minimization LP per row over the set,
independent of whatever dual reasoning produced the policy.  Slack rows
are measured relative to their data (see :func:`verify_policy`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from . import lp
from .core import EPS_FEAS, EPS_ZERO, Instance, Policy, policy_matches_instance
from .errors import NotCompact, NumericalFailure, OracleLimitExceeded
from .linhull import LinHullBasis

if TYPE_CHECKING:
    from .milp import SolveReport


@dataclass(eq=False)
class VerifyReport:
    """Residuals, per-row minima, and the verdict of a certification run.

    support: rows whose truncated nominal value is strictly positive.
    nominal_residual: worst violation of the tight nominal condition on the
        support rows.
    direction_residual: worst violation of the tight direction condition on
        the support rows, over all hull basis vectors.
    min_z / min_w: per-row minima of the two affine pieces over the set.
    nominal_residual, direction_residual and min_w are in the slack units
    certify_affine was given: from verify_policy, each row's scaled units.
    violations: human-readable failures; empty exactly when verified.
    equality_residual / equality_direction_residual: worst violation of the
        free block's equations at the nominal point and along the hull
        basis; None on an instance without a free block.
    """

    support: frozenset[int]
    nominal_residual: float
    direction_residual: float
    min_z: np.ndarray
    min_w: np.ndarray
    violations: tuple[str, ...] = ()
    equality_residual: float | None = None
    equality_direction_residual: float | None = None

    @property
    def verified(self) -> bool:
        return not self.violations

    @property
    def verdict(self) -> str:
        return "verified" if self.verified else "violations"


def _min_over_set(tab, c, tol) -> float:
    """Minimum of c @ u over the set, via maximizing the negation."""
    if not np.any(c):
        return 0.0
    res = tab.maximize(-np.asarray(c, float), tol)
    if res.status is lp.LpStatus.UNBOUNDED:
        raise NotCompact("minimization over the uncertainty set is unbounded")
    return -res.value


def certify_affine(
    basis: LinHullBasis,
    r_trunc: np.ndarray,
    D: np.ndarray,
    w_lin: np.ndarray,
    w_const: np.ndarray,
    tol: float,
) -> VerifyReport:
    """Shared certification core.

    r_trunc must already be truncated at the zero threshold; w_lin and
    w_const describe the slack piece w(u) = w_lin @ u + w_const computed
    from the truncated policy.  The 2n minimizations over the set all start
    from the basis's phase-one tableau, and a piece that does not vary over
    the set runs none.  Raises NotCompact when a piece is unbounded below.
    """
    n = len(r_trunc)
    support = sorted(i for i in range(n) if r_trunc[i] > 0.0)

    nominal_residual = 0.0
    direction_residual = 0.0
    if support:
        nominal_residual = float(np.abs(w_const[support]).max())
        for v in basis.vectors:
            d = np.abs(w_lin[support] @ v)
            if d.size:
                direction_residual = max(direction_residual, float(d.max()))

    tab = basis.tableau
    min_z = np.zeros(n)
    min_w = np.zeros(n)
    for i in range(n):
        min_z[i] = r_trunc[i] + _min_over_set(tab, D[i], tol)
        min_w[i] = w_const[i] + _min_over_set(tab, w_lin[i], tol)

    violations = []
    if nominal_residual > tol:
        violations.append(
            f"tight nominal condition violated on the support: residual {nominal_residual:g}"
        )
    if direction_residual > tol:
        violations.append(
            f"tight direction condition violated on the support: residual {direction_residual:g}"
        )
    for i in range(n):
        if min_z[i] < -tol:
            violations.append(f"decision row {i} dips to {min_z[i]:g} over the set")
        if min_w[i] < -tol:
            violations.append(f"slack row {i} dips to {min_w[i]:g} over the set")

    return VerifyReport(
        support=frozenset(support),
        nominal_residual=nominal_residual,
        direction_residual=direction_residual,
        min_z=min_z,
        min_w=min_w,
        violations=tuple(violations),
    )


def verify_policy(
    inst: Instance,
    basis: LinHullBasis,
    pol: Policy,
    tol: float = EPS_FEAS,
) -> VerifyReport:
    """Certify an affine policy, with its free-block pair on a mixed instance.

    Entries of r at or below EPS_ZERO are truncated to zero first and the
    truncated rule is what gets certified.  On a mixed instance the free
    block's rule (E, s) feeds the slack piece, and the equation block must
    also vanish at the nominal point and along every hull basis vector;
    those residuals land in the report's equality fields, unscaled.  Slack
    row i is divided by max(1, ||[M_i q_i T_i N_i]||_inf) before the check,
    so a row with norm at most 1 keeps the absolute bound tol and a larger
    one is held to tol relative to its data.
    """
    policy_matches_instance(inst, pol)
    mx = inst.mixed
    r = pol.r.copy()
    r[r <= EPS_ZERO] = 0.0
    data = [inst.M, inst.q[:, None], inst.T]
    if mx is None:
        w_lin = inst.M @ pol.D + inst.T
        w_const = inst.M @ r + inst.q
    else:
        data.append(mx.N)
        w_lin = inst.M @ pol.D + mx.N @ pol.E + inst.T
        w_const = inst.M @ r + mx.N @ pol.s + inst.q
    scale = np.maximum(1.0, np.abs(np.hstack(data)).max(axis=1))
    report = certify_affine(
        basis, r, pol.D, w_lin / scale[:, None], w_const / scale, tol
    )
    if mx is None:
        return report

    # an empty free block (m = 0) has no equation and so no residual
    eq_res = float(np.abs(mx.V @ r + mx.W @ pol.s + mx.p).max(initial=0.0))
    dir_mat = mx.V @ pol.D + mx.W @ pol.E + mx.P
    eq_dir = 0.0
    for v in basis.vectors:
        eq_dir = max(eq_dir, float(np.abs(dir_mat @ v).max(initial=0.0)))
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


def oracle_enumerate(
    inst: Instance,
    basis: LinHullBasis,
    tol: float = 1e-8,
    limit: int = 16,
) -> "SolveReport":
    """Exhaustive search over all support vectors, smallest supports first.

    Each support is probed in two stages.  The equality stage keeps, of the
    node LP, the w_dual_value and w_dual_match rows of every x_i = 1, which
    hold exactly when its nominal_comp and direction_comp rows do, and the
    coupling rows, under the node LP's bounds
    (:meth:`NodeLpBuilder.support_model`).  The nonnegativity stage is the
    full node LP.  The first feasible support wins and its policy
    is certified before being returned; NumericalFailure is raised when it
    fails certification.  Certification runs at max(tol, EPS_FEAS), which
    the report's tolerances name verify_tol.  The returned report carries a
    tally of how the losing supports failed.
    """
    from .milp import NodeLpBuilder, SolveReport, SolveStatus

    n = inst.n
    if n > limit:
        raise OracleLimitExceeded(
            f"instance has {n} rows; enumeration is capped at {limit}"
        )
    builder = NodeLpBuilder(inst, basis)
    verify_tol = max(tol, EPS_FEAS)
    lp_calls = lp_pivots = tested = eq_infeasible = nonneg_infeasible = 0
    policy = report = found = None
    supports = itertools.chain.from_iterable(
        itertools.combinations(range(n), size) for size in range(n + 1)
    )
    for supp in supports:
        fixed = tuple(1 if i in supp else 0 for i in range(n))
        tested += 1
        probe = lp.lp_feasible(builder.support_model(fixed), tol)
        lp_calls += 1
        lp_pivots += probe.pivots
        if probe.status is lp.LpStatus.INFEASIBLE:
            eq_infeasible += 1
            continue
        res = lp.lp_feasible(builder.model(fixed), tol)
        lp_calls += 1
        lp_pivots += res.pivots
        if res.status is lp.LpStatus.INFEASIBLE:
            nonneg_infeasible += 1
            continue
        policy = builder.extract_policy(res.point, fixed)
        report = verify_policy(inst, basis, policy, verify_tol)
        if not report.verified:
            raise NumericalFailure(
                "enumeration returned a policy that fails certification: "
                + "; ".join(report.violations)
            )
        found = tuple(int(i) for i in supp)
        break
    return SolveReport(
        status=SolveStatus.INFEASIBLE if policy is None else SolveStatus.FEASIBLE,
        policy=policy,
        nodes_explored=tested,
        lp_calls=lp_calls,
        verification=report,
        tolerances={"tol": tol, "eps_zero": EPS_ZERO, "verify_tol": verify_tol},
        tally={
            "tested": tested,
            "equality_infeasible": eq_infeasible,
            "nonnegativity_infeasible": nonneg_infeasible,
            "feasible_support": found,
        },
        lp_pivots=lp_pivots,
    )
