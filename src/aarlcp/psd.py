"""Shortcut for positive semidefinite matrices.

When the square matrix is PSD, the nominal problem (uncertainty frozen at
zero) has a convex polyhedral solution set, and the only support vector an
affine rule can use is the set of indices that some nominal solution makes
positive.  :func:`forced_support` finds it: solve the nominal problem by
complementary pivoting, then read off the maximal support.
:func:`milp.bnb_solve` starts its search at that support, so the tree
collapses to a single node; :func:`psd_solve` is that search with the
shortcut required.
"""

from __future__ import annotations

import numpy as np

from . import lp
from .core import EPS_ZERO, Instance
from .errors import DimensionMismatch, NotPsd, NumericalFailure
from .linhull import LinHullBasis
from .verify import verify_policy  # noqa: F401  (a binding the benchmark tracer checks)


def check_psd(M: np.ndarray, tol: float = 1e-9) -> bool:
    """Positive semidefiniteness of the symmetric part, by pivoted Cholesky.

    Runs full-pivoting outer-product elimination on (M + M^T)/2; the matrix
    is PSD exactly when every pivot stays nonnegative and whatever remains
    after the pivots run out is negligible.  A diagonal entry below
    -10 thresh answers False up front: each elimination step subtracts
    a^2 / pivot >= 0 from it and it never becomes a pivot, so it would
    still fail the final test.
    """
    S = np.asarray(M, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise DimensionMismatch("square matrix required")
    A = 0.5 * (S + S.T)
    thresh = tol * max(1.0, float(np.abs(np.diag(A)).sum()))
    if np.diag(A).min(initial=0.0) < -10.0 * thresh:
        return False
    while A.shape[0]:
        d = np.diag(A)
        j = int(np.argmax(d))
        if d[j] <= thresh:
            return bool(np.all(np.abs(A) <= 10.0 * thresh))
        perm = [j] + [t for t in range(A.shape[0]) if t != j]
        A = A[np.ix_(perm, perm)]
        a = A[1:, 0]
        A = A[1:, 1:] - np.outer(a, a) / A[0, 0]
    return True


def lemke_nominal(
    M: np.ndarray, q: np.ndarray, tol: float = 1e-9
) -> np.ndarray | None:
    """Solve the nominal problem by complementary pivoting.

    Requires a PSD matrix, where a secondary ray proves there is no solution
    at all; returns None in that case, otherwise a solution vector.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    if M.shape != (n, n):
        raise DimensionMismatch("matrix and vector sizes disagree")
    if not check_psd(M, tol):
        raise NotPsd("matrix is not positive semidefinite")
    if np.all(q >= -tol):
        return np.zeros(n)

    # Columns: w_0..w_{n-1}, z_0..z_{n-1}, the covering column, rhs.
    zcov = 2 * n
    T = np.zeros((n, 2 * n + 2))
    T[:, :n] = np.eye(n)
    T[:, n : 2 * n] = -M
    T[:, zcov] = -1.0
    T[:, -1] = q
    basis = list(range(n))
    buf = np.empty_like(T)

    t = int(np.argmin(q))
    lp._pivot(T, t, zcov, buf)
    basis[t] = zcov
    entering = n + t  # complement of the w that just left

    cap = 1000 + 100 * n
    for _ in range(cap):
        col = T[:, entering]
        candidates = [i for i in range(n) if col[i] > tol]
        if not candidates:
            return None  # secondary ray
        ratios = T[candidates, -1] / col[candidates]
        best = ratios.min()
        window = tol * (1.0 + abs(best))
        tied = [i for i, rho in zip(candidates, ratios) if rho <= best + window]
        row = next((i for i in tied if basis[i] == zcov), None)
        if row is None:
            row = min(tied, key=lambda i: basis[i])
        leaving = basis[row]
        lp._pivot(T, row, entering, buf)
        basis[row] = entering
        if leaving == zcov:
            z = np.zeros(n)
            for i, b in enumerate(basis):
                if n <= b < 2 * n:
                    z[b - n] = T[i, -1]
            z = np.maximum(z, 0.0)
            w = M @ z + q
            scale = max(1.0, float(np.abs(q).max()))
            if w.min() < -1e-6 * scale or abs(z @ w) > 1e-6 * scale * max(
                1.0, float(z.max())
            ):
                raise NumericalFailure("pivoting returned an inconsistent point")
            return z
        entering = leaving + n if leaving < n else leaving - n
    raise NumericalFailure("complementary pivoting exceeded its iteration cap")


def solution_set_rows(
    M: np.ndarray, q: np.ndarray, zbar: np.ndarray, tol: float = 1e-8
) -> list[tuple[np.ndarray, str, float]]:
    """Linear rows cutting out the full nominal solution set around zbar.

    For PSD matrices the solution set is exactly the nonnegative vectors
    that keep the slack nonnegative, reproduce the inner product of zbar
    with q, and agree with zbar under the symmetrized matrix.
    """
    M = np.asarray(M, dtype=float)
    q = np.asarray(q, dtype=float)
    zbar = np.asarray(zbar, dtype=float)
    n = q.shape[0]
    scale = max(1.0, float(np.abs(q).max()), float(np.abs(zbar).max()))
    w = M @ zbar + q
    if zbar.min() < -tol * scale or w.min() < -tol * scale or abs(
        zbar @ w
    ) > tol * scale * scale:
        raise ValueError("reference point does not solve the nominal problem")
    S = M + M.T
    rows: list[tuple[np.ndarray, str, float]] = []
    for i in range(n):
        rows.append((M[i].copy(), lp.GE, -q[i]))
    rows.append((q.copy(), lp.EQ, float(q @ zbar)))
    target = S @ zbar
    for i in range(n):
        rows.append((S[i].copy(), lp.EQ, float(target[i])))
    return rows


def compute_support_p(
    M: np.ndarray,
    q: np.ndarray,
    zbar: np.ndarray,
    tol: float = 1e-8,
) -> frozenset:
    """Indices some nominal solution makes positive.

    Every solution z of a monotone problem has z^T w(zbar) = 0, so an index
    whose slack w_i(zbar) is clearly positive is pinned to z_i = 0 and not
    probed; a maximum there would only be LP noise.  Every other index gets
    one maximization, all from one phase one over the solution set rows.
    """
    n = q.shape[0]
    model = lp.LpModel(n)
    model.rows = solution_set_rows(M, q, zbar, tol)
    scale = max(1.0, float(np.abs(q).max()), float(np.abs(zbar).max()))
    pinned = M @ zbar + q > tol * scale
    model.rows += [(row, lp.EQ, 0.0) for row in np.eye(n)[pinned]]
    tab = lp.lp_feasible(model, tol).tableau
    if tab is None:
        raise NumericalFailure("solution set probe infeasible around a valid point")
    members = set()
    for i in range(n):
        if pinned[i]:
            continue
        objective = np.zeros(n)
        objective[i] = 1.0
        res = tab.maximize(objective, tol)
        if res.status is lp.LpStatus.UNBOUNDED or res.value > EPS_ZERO:
            members.add(i)
    return frozenset(members)


def forced_support(inst: Instance, tol: float = 1e-8) -> tuple | None:
    """(zbar, support) for a pure instance with a PSD matrix: a nominal
    solution and the indices some nominal solution makes positive.

    Returns None when the nominal problem has no solution, so no affine
    rule exists; raises NotPsd when the matrix is not PSD.
    """
    zbar = lemke_nominal(inst.M, inst.q, max(tol, 1e-9))
    if zbar is None:
        return None
    return zbar, compute_support_p(inst.M, inst.q, zbar, tol)


def psd_solve(inst: Instance, basis: LinHullBasis, tol: float = 1e-8):
    """:func:`milp.bnb_solve` with the forced support required: raises
    DimensionMismatch on a mixed instance and NotPsd on a matrix that is
    not PSD."""
    from .milp import SolveOptions, bnb_solve

    return bnb_solve(inst, basis, SolveOptions(tol=tol, psd="force"))
