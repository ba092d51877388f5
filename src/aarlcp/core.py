"""Problem data model, dense elimination kernels, and instance validation.

An instance bundles the square coupling matrix, the nominal vector, the
uncertainty channel, and a polyhedral uncertainty set in inequality form
``{u : Theta @ u >= zeta}``.  All arrays are dense float64 and are frozen
after construction, so instances can be shared freely.

The standing assumption on the set (compact, origin in its relative
interior) is written once, as the faults of set_pass; validate reports it
as booleans and linhull.compute_lin_hull raises its first fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import lp
from .errors import (
    AarlcpError,
    DimensionMismatch,
    EmptyUncertaintySet,
    NotCompact,
    RelintViolation,
)

# Entries of a policy vector at or below this threshold count as zero when
# the support set is read off.
EPS_ZERO = 1e-9

# Default residual tolerance for feasibility and verification checks.
EPS_FEAS = 1e-7


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def as_matrix(data, name: str = "matrix") -> np.ndarray:
    """Coerce to a read-only 2-D float array, rejecting non-finite entries."""
    arr = np.array(data, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return _freeze(arr)


def as_vector(data, name: str = "vector") -> np.ndarray:
    arr = np.array(data, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return _freeze(arr)


def _rref(a: np.ndarray, tol: float):
    """Reduced row echelon form with partial pivoting.

    Returns the reduced matrix and the pivot column list.  Candidate pivots
    whose magnitude is at most tol times the largest magnitude of the input
    are treated as zero.
    """
    m = np.array(a, dtype=float, order="C")
    rows, cols = m.shape
    scale = max(1.0, float(np.abs(m).max())) if m.size else 1.0
    thresh = tol * scale
    piv_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        i = r + int(np.argmax(np.abs(m[r:, c])))
        if abs(m[i, c]) <= thresh:
            continue
        if i != r:
            m[[r, i]] = m[[i, r]]
        lp._pivot(m, r, c)
        piv_cols.append(c)
        r += 1
    return m, piv_cols


def matrix_rank(a, tol: float = 1e-10) -> int:
    """Rank by the same elimination that backs the kernel computation."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] == 0 or a.shape[1] == 0:
        return 0
    return len(_rref(a, tol)[1])


def rref_kernel_basis(a, tol: float = 1e-10) -> list[np.ndarray]:
    """Basis of the nullspace {v : a @ v = 0} via row reduction.

    Vectors come back linearly independent, one per free column, ordered by
    that free column.  A matrix with no rows maps everything to zero, so the
    standard basis comes back.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    rows, cols = a.shape
    if cols == 0:
        return []
    if rows == 0:
        return [np.eye(cols)[i] for i in range(cols)]
    red, piv_cols = _rref(a, tol)
    pivset = set(piv_cols)
    basis = []
    for f in range(cols):
        if f in pivset:
            continue
        v = np.zeros(cols)
        v[f] = 1.0
        for prow, pcol in enumerate(piv_cols):
            v[pcol] = -red[prow, f]
        basis.append(v)
    return basis


@dataclass(frozen=True, eq=False)
class MixedExtension:
    """Equality-coupled free variables attached to an instance.

    The free block y enters through ``V z + W y + p(u) = 0`` with
    ``p(u) = p + P u``, and feeds the complementarity side through N.
    When y_adjustable is set, y follows its own affine rule in u.
    """

    V: np.ndarray
    W: np.ndarray
    N: np.ndarray
    p: np.ndarray
    P: np.ndarray
    y_adjustable: bool = False

    def __post_init__(self):
        V = as_matrix(self.V, "V")
        m = V.shape[0]
        W = as_matrix(self.W, "W")
        N = as_matrix(self.N, "N")
        p = as_vector(self.p, "p")
        P = as_matrix(self.P, "P")
        if W.shape != (m, m):
            raise DimensionMismatch(f"W must be {m}x{m}, got {W.shape}")
        if p.shape != (m,):
            raise DimensionMismatch(f"p must have length {m}, got {p.shape}")
        if P.shape[0] != m:
            raise DimensionMismatch(f"P must have {m} rows, got {P.shape}")
        for name, val in (("V", V), ("W", W), ("N", N), ("p", p), ("P", P)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "y_adjustable", bool(self.y_adjustable))

    @property
    def m(self) -> int:
        return self.V.shape[0]


@dataclass(frozen=True, eq=False)
class Instance:
    """Uncertain complementarity data.

    M is n x n, q has length n, the channel T is n x k, and the uncertainty
    set is {u in R^k : Theta @ u >= zeta} with Theta g x k.  The first h
    decision rows are here-and-now: their policy rows are pinned to zero.
    """

    M: np.ndarray
    q: np.ndarray
    T: np.ndarray
    Theta: np.ndarray
    zeta: np.ndarray
    h: int = 0
    mixed: MixedExtension | None = None

    def __post_init__(self):
        M = as_matrix(self.M, "M")
        n = M.shape[0]
        if M.shape != (n, n):
            raise DimensionMismatch(f"M must be square, got {M.shape}")
        q = as_vector(self.q, "q")
        if q.shape != (n,):
            raise DimensionMismatch(f"q must have length {n}, got {q.shape}")
        T = as_matrix(self.T, "T")
        if T.shape[0] != n:
            raise DimensionMismatch(f"T must have {n} rows, got {T.shape}")
        k = T.shape[1]
        Theta = as_matrix(self.Theta, "Theta")
        if Theta.shape[1] != k:
            raise DimensionMismatch(
                f"Theta must have {k} columns, got {Theta.shape}"
            )
        zeta = as_vector(self.zeta, "zeta")
        if zeta.shape != (Theta.shape[0],):
            raise DimensionMismatch(
                f"zeta must have length {Theta.shape[0]}, got {zeta.shape}"
            )
        h = int(self.h)
        if not 0 <= h < n:
            raise DimensionMismatch(f"h must satisfy 0 <= h < n, got {h}")
        if self.mixed is not None:
            mx = self.mixed
            if mx.V.shape[1] != n:
                raise DimensionMismatch(
                    f"V must have {n} columns, got {mx.V.shape}"
                )
            if mx.N.shape != (n, mx.m):
                raise DimensionMismatch(
                    f"N must be {n}x{mx.m}, got {mx.N.shape}"
                )
            if mx.P.shape != (mx.m, k):
                raise DimensionMismatch(
                    f"P must be {mx.m}x{k}, got {mx.P.shape}"
                )
        for name, val in (("M", M), ("q", q), ("T", T), ("Theta", Theta), ("zeta", zeta)):
            object.__setattr__(self, name, val)
        object.__setattr__(self, "h", h)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def k(self) -> int:
        return self.T.shape[1]

    @property
    def g(self) -> int:
        return self.Theta.shape[0]


@dataclass(frozen=True, eq=False)
class Policy:
    """Affine decision rule z(u) = D @ u + r with support indicator x.

    The optional pair (E, s) carries the affine rule of the free block of a
    mixed instance.  r must be nonnegative; entries below -EPS_ZERO are
    rejected and tiny negatives are clamped to zero.
    """

    D: np.ndarray
    r: np.ndarray
    x: np.ndarray
    E: np.ndarray | None = None
    s: np.ndarray | None = None

    def __post_init__(self):
        D = as_matrix(self.D, "D")
        r = np.array(self.r, dtype=float)
        if r.ndim != 1 or r.shape[0] != D.shape[0]:
            raise DimensionMismatch(
                f"r must have length {D.shape[0]}, got shape {r.shape}"
            )
        if not np.all(np.isfinite(r)):
            raise ValueError("r contains non-finite entries")
        if np.any(r < -EPS_ZERO):
            raise ValueError("r has negative entries")
        r[r < 0.0] = 0.0
        xf = np.array(self.x, dtype=float)
        if xf.shape != (D.shape[0],):
            raise DimensionMismatch(
                f"x must have length {D.shape[0]}, got shape {xf.shape}"
            )
        if not np.all(np.isfinite(xf)):
            raise ValueError("x contains non-finite entries")
        xi = np.rint(xf).astype(int)
        if np.any((xi != 0) & (xi != 1)) or np.any(np.abs(xf - xi) > 1e-9):
            raise ValueError("x entries must be 0 or 1")
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "r", _freeze(r))
        object.__setattr__(self, "x", _freeze(xi))
        if self.E is not None:
            object.__setattr__(self, "E", as_matrix(self.E, "E"))
        if self.s is not None:
            object.__setattr__(self, "s", as_vector(self.s, "s"))

    @property
    def n(self) -> int:
        return self.D.shape[0]

    @property
    def k(self) -> int:
        return self.D.shape[1]


def policy_matches_instance(inst: Instance, pol: Policy) -> None:
    """Shape and pinning checks of a policy against an instance."""
    if pol.D.shape != (inst.n, inst.k):
        raise DimensionMismatch(
            f"D must be {inst.n}x{inst.k}, got {pol.D.shape}"
        )
    if inst.h and np.any(np.abs(pol.D[: inst.h]) > 0):
        raise ValueError(f"first {inst.h} rows of D must be zero")
    if inst.mixed is None:
        if pol.E is not None or pol.s is not None:
            raise DimensionMismatch("policy carries a free block but the instance has none")
    else:
        m = inst.mixed.m
        if pol.E is None or pol.s is None:
            raise DimensionMismatch("the instance has a free block; the policy needs both E and s")
        if pol.E.shape != (m, inst.k):
            raise DimensionMismatch(f"E must be {m}x{inst.k}, got {pol.E.shape}")
        if pol.s.shape != (m,):
            raise DimensionMismatch(f"s must have length {m}, got {pol.s.shape}")


def uncertainty_lp(Theta: np.ndarray, zeta: np.ndarray, objective) -> lp.LpModel:
    """Model for maximizing a linear functional over {u : Theta u >= zeta}."""
    g, k = Theta.shape
    model = lp.LpModel(k, objective)
    model.set_free()
    for j in range(g):
        model.add_row(Theta[j], lp.GE, zeta[j])
    return model


def uncertainty_tableau(
    Theta: np.ndarray, zeta: np.ndarray, tol: float = 1e-8
) -> lp.Tableau:
    """Phase one over {u : Theta u >= zeta}.

    Every maximization over the set starts from this one tableau through
    lp.Tableau.maximize, so a set runs phase one once, whatever the number
    of objectives.  Raises EmptyUncertaintySet when the set has no points.
    """
    probe = uncertainty_lp(Theta, zeta, np.zeros(Theta.shape[1]))
    tab = lp.lp_feasible(probe, tol).tableau
    if tab is None:
        raise EmptyUncertaintySet("the uncertainty set is empty")
    return tab


@dataclass(frozen=True)
class SetPass:
    """Outcome of set_pass over {u : Theta u >= zeta}.

    tableau: the set's phase-one tableau (uncertainty_tableau).
    compact: every coordinate has a finite maximum and minimum over the set.
    tight: rows whose maximum equals their right-hand side, so the row is
    tight on the whole set.
    unbounded: rows whose maximum is unbounded; only a set that is not
    compact has any.
    faults: every breach of the standing assumption, in row order, as the
    error to raise for it: NotCompact for an unbounded row, RelintViolation
    for a tight row with |zeta_j| > tol or another row with zeta_j >= -tol,
    and last NotCompact for a set that is not compact.  Empty exactly when
    the set is compact with the origin in its relative interior.
    """

    tableau: lp.Tableau
    compact: bool
    tight: tuple[int, ...]
    unbounded: tuple[int, ...]
    faults: tuple[AarlcpError, ...]


def set_pass(Theta: np.ndarray, zeta: np.ndarray, tol: float = 1e-8) -> SetPass:
    """Compactness, implicit equalities and the origin rule of
    {u : Theta u >= zeta}.

    Runs phase one once, then every maximization from its tableau: the 2k
    coordinate maxima, then the row maxima that are still needed.  A row is
    tight on the whole set exactly when its maximum is within
    tol * max(1, |zeta_j|) of zeta_j.  A point of the set with
    Theta_j u - zeta_j above that threshold proves the maximum above it, so
    once the set is known to be compact, a row that the phase-one point or
    an earlier maximum's point leaves that slack is strict without an LP
    of its own (Telgen, Management Science 29(10), 1983).  On a set that is
    not compact every row is maximized, so the unbounded rows are all
    found.  Raises EmptyUncertaintySet when the set has no points.
    """
    tab = uncertainty_tableau(Theta, zeta, tol)
    g, k = Theta.shape
    threshold = tol * np.maximum(1.0, np.abs(zeta))
    slack = Theta @ tab.point() - zeta  # the largest slack seen so far

    compact = True
    for j in range(k):
        for sgn in (1.0, -1.0):
            c = np.zeros(k)
            c[j] = sgn
            res = tab.maximize(c, tol)
            if res.status is lp.LpStatus.UNBOUNDED:
                compact = False
            else:
                np.maximum(slack, Theta @ res.point - zeta, out=slack)

    tight: list[int] = []
    unbounded: list[int] = []
    faults: list[AarlcpError] = []
    for j in range(g):
        is_tight = False
        if not (compact and slack[j] > threshold[j]):
            res = tab.maximize(Theta[j], tol)
            if res.status is lp.LpStatus.UNBOUNDED:
                unbounded.append(j)
                faults.append(NotCompact(f"direction of row {j} is unbounded over the set"))
            else:
                is_tight = abs(res.value - zeta[j]) <= threshold[j]
                np.maximum(slack, Theta @ res.point - zeta, out=slack)
        if is_tight:
            tight.append(j)
            if abs(zeta[j]) > tol:
                faults.append(
                    RelintViolation(f"row {j} is tight everywhere with nonzero right-hand side")
                )
        elif zeta[j] >= -tol:
            faults.append(RelintViolation(f"row {j} does not hold strictly at the origin"))
    if not compact:
        faults.append(NotCompact("the set is unbounded along a coordinate direction"))
    return SetPass(tab, compact, tuple(tight), tuple(unbounded), tuple(faults))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the standing-assumption checks on an instance."""

    compact: bool
    zero_in_relint: bool
    t_full_column_rank: bool
    implicit_equality_rows: frozenset[int]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.compact and self.zero_in_relint


def validate(inst: Instance, tol: float = 1e-8) -> ValidationReport:
    """Check compactness of the uncertainty set, membership of the origin in
    its relative interior, and the column rank of the channel.

    Both set checks come from one set_pass, whose faults
    linhull.compute_lin_hull raises: the origin is in the relative interior
    when no fault is a RelintViolation.  Raises EmptyUncertaintySet when
    the set has no points at all.
    """
    sp = set_pass(inst.Theta, inst.zeta, tol)
    t_full = matrix_rank(inst.T, tol) == inst.k
    return ValidationReport(
        compact=sp.compact,
        zero_in_relint=not any(isinstance(f, RelintViolation) for f in sp.faults),
        t_full_column_rank=t_full,
        implicit_equality_rows=frozenset(sp.tight),
        warnings=() if t_full else ("T rank-deficient",),
    )
