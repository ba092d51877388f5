"""Dense two-phase primal simplex solver.

Every linear subproblem in the package runs through this module: direction
maximizations over the uncertainty polyhedron, verification minimizations,
support probes, and the node relaxations inside the tree search.  Problems
are desk scale by design, so the solver keeps a dense tableau and trades
sparsity tricks for predictable, debuggable behavior.

A model is built row by row and then solved.  Solving never mutates the
model, so a model may be solved more than once and models may share their
bound arrays.

Phase one never reads the objective, so a row set that is maximized
against several objectives runs it once: :func:`lp_feasible` returns its
phase-one tableau in :attr:`LpResult.tableau`, and
:meth:`Tableau.maximize` runs phase two for one objective on a copy of it.
:func:`lp_solve` is exactly that pair, so every path shares one simplex.

Every variable is nonnegative, free or fixed at zero; no other bounds are
accepted.  Internals, in brief: a free variable is split into positive and
negative parts, and rows are equilibrated.  A :class:`Tableau` holds one
row set.  :func:`phase_one` builds it from a model, cutting the columns of
the variables with bounds [0, 0]; only the rows whose slack cannot start
basic get an artificial, which phase one drives to zero.  An artificial
has no column: it is a virtual basis index above every real column, and
once it leaves the basis it is gone.  :meth:`Tableau.cut` derives a
tableau that fixes more variables at zero (``zero=``) and makes rows
equations (``tight=``): the variables' columns and the rows' slack columns
leave the tableau, and a row whose basic variable lost its column keeps
that value as an artificial's, or zero when the value is within the
tolerance, which is rounding residue.  The tree search cuts a parent's
tableau by the fixing of a child, which adds no rows, so the child's phase
one starts from the parent's basis.  Pricing is Dantzig's rule until a
long run of degenerate pivots switches the loop to Bland's rule, which is
kept until the phase ends.

The pivot loop works in place: each phase allocates one tableau-sized
buffer, which the rank-1 update of every pivot fills through BLAS, and one
row-sized buffer for the ratio test; the purge of a phase one shares one
update buffer among its pivots too.  The update writes the pivot column's
unit vector exactly, so no pivot writes it again.  A step reads the minimum
ratio from one argmin, then takes the first row within a relative 1e-12 of
it (the row of Bland's rule among those ties), so argmin's own row never
decides.  Its guard on the right-hand side (zero the entries in (-1e-9, 0),
fail below -1e-6), read from one argmin too, runs only after a pivot that
left some entry negative.  Every tableau is kept free of -0.0, which makes
the BLAS update agree bit for bit with an elementwise one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import NumericalFailure

LE = "<="
EQ = "="
GE = ">="

_RELATIONS = (LE, EQ, GE)

# Entries smaller than this are never accepted as pivots, independent of the
# caller's feasibility tolerance.
_PIV_EPS = 1e-9


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    """Outcome of a solve.

    value and point are filled only for OPTIMAL.  The point lives in the
    model's original variable space.  pivots counts the simplex pivots of
    both phases.  tableau is set only by :func:`lp_feasible` on a feasible
    model: the phase-one tableau, ready for :meth:`Tableau.maximize`.
    """

    status: LpStatus
    value: float | None = None
    point: np.ndarray | None = None
    pivots: int = 0
    tableau: Tableau | None = field(default=None, repr=False)


class LpModel:
    """Maximize ``objective @ x`` subject to rows and variable bounds.

    Variables default to the bounds [0, +inf); use :meth:`set_free` to
    free them.  The bounds of each variable must be [0, +inf), (-inf, +inf)
    or [0, 0]: a solve raises ValueError on any other pair.  Rows are
    (coefficients, relation, rhs) with relation one of "<=", "=", ">=".
    A non-finite objective, coefficient or rhs raises ValueError.
    """

    def __init__(self, num_vars: int, objective=None):
        self.num_vars = int(num_vars)
        if objective is None:
            self.objective = np.zeros(self.num_vars)
        else:
            self.objective = np.asarray(objective, dtype=float).copy()
            if self.objective.shape != (self.num_vars,):
                raise ValueError("objective length does not match num_vars")
            if not np.isfinite(self.objective).all():
                raise ValueError("objective contains non-finite entries")
        self.rows: list[tuple[np.ndarray, str, float]] = []
        self.lower = np.zeros(self.num_vars)
        self.upper = np.full(self.num_vars, np.inf)

    def add_row(self, coeffs, relation: str, rhs: float) -> None:
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (self.num_vars,):
            raise ValueError("row length does not match num_vars")
        if relation not in _RELATIONS:
            raise ValueError(f"unknown relation {relation!r}")
        rhs = float(rhs)
        if not (np.isfinite(coeffs).all() and np.isfinite(rhs)):
            raise ValueError("row contains non-finite entries")
        self.rows.append((coeffs, relation, rhs))

    def set_free(self, indices=None) -> None:
        if indices is None:
            self.lower[:] = -np.inf
            self.upper[:] = np.inf
        else:
            for i in np.atleast_1d(indices):
                self.lower[int(i)] = -np.inf
                self.upper[int(i)] = np.inf


def lp_solve(model: LpModel, tol: float = 1e-8) -> LpResult:
    """Solve the model to optimality, infeasibility, or unboundedness."""
    tab = phase_one(model, tol)
    if not tab.feasible:
        return LpResult(LpStatus.INFEASIBLE, pivots=tab.pivots)
    return tab.maximize(model.objective, tol)


def lp_feasible(model: LpModel, tol: float = 1e-8) -> LpResult:
    """Feasibility probe: phase one only, objective untouched.

    Returns OPTIMAL with some feasible point and the phase-one tableau, or
    INFEASIBLE.  Never UNBOUNDED.
    """
    tab = phase_one(model, tol)
    if not tab.feasible:
        return LpResult(LpStatus.INFEASIBLE, pivots=tab.pivots)
    x = tab.point()
    return LpResult(LpStatus.OPTIMAL, float(model.objective @ x), x, tab.pivots, tab)


def _pivot(T: np.ndarray, r: int, j: int, buf: np.ndarray | None = None) -> None:
    """Pivot on ``T[r, j]`` in place.  ``buf``, a C-ordered float array
    shaped like ``T``, holds the rank-1 update; the loop and the purge pass
    one so that no pivot allocates a tableau-sized array.  The update is a
    BLAS outer product, which gives +0.0 for a zero product where an
    elementwise one may give -0.0; that changes no bit of a tableau free of
    -0.0.  Dividing the pivot row by a positive entry keeps it free; after a
    negative one, as the purge may take, adding 0.0 clears the -0.0 the
    division leaves.  The update writes column j exactly, so it is not
    written again: the pivot becomes piv / piv == 1.0, and every other entry
    x becomes x - x * 1.0 == +0.0."""
    if buf is None:
        buf = np.empty(T.shape)
    row, piv = T[r], T[r, j]
    row /= piv
    if piv < 0.0:
        row += 0.0
    col = T.T[j].copy()
    col[r] = 0.0
    np.dot(col[:, None], T[r : r + 1], out=buf)
    T -= buf


def _price_out(T: np.ndarray, basis: np.ndarray) -> None:
    # Basic columns are exact unit columns, so a row whose basic cost is
    # zero stays zero while the others are priced out, and skipping it up
    # front subtracts the same rows in the same order.
    for r in np.flatnonzero(T[-1, basis]):
        T[-1, :] -= T[-1, basis[r]] * T[r, :]


def _iterate(T: np.ndarray, basis: np.ndarray, nact: int, tol: float):
    """Run the pivot loop on the priced tableau.  Returns "optimal" or
    "unbounded" with the number of pivots; raises NumericalFailure when
    safeguards run out.  With no column to price (nact = 0) the tableau is
    optimal as it stands.

    ``T`` is pivoted in place and never rebound, so the reduced-cost and
    right-hand-side views stay valid for the whole loop.  The update and
    ratio buffers belong to this call and are never shared with another.
    """
    if not nact:
        return "optimal", 0
    m = T.shape[0] - 1
    red = T[-1, :nact]
    if not m:
        # no row to leave: argmin below would raise on the empty ratios
        return ("optimal" if red[red.argmax()] <= tol else "unbounded"), 0
    bland = False
    degen_run = 0
    bland_pivots = 0
    total_pivots = 0
    budget = 50 * (T.shape[0] + T.shape[1])
    hard_cap = 10 * budget
    rhs = T[:m, -1]
    buf = np.empty(T.shape)
    ratios = np.empty(m)
    pos = np.empty(m, dtype=bool)
    while True:
        if bland:
            cand = np.nonzero(red > tol)[0]
            if cand.size == 0:
                return "optimal", total_pivots
            j = int(cand[0])
        else:
            j = int(red.argmax())
            if red[j] <= tol:
                return "optimal", total_pivots
        col = T[:m, j]
        np.greater(col, _PIV_EPS, out=pos)
        ratios.fill(np.inf)
        np.divide(rhs, col, out=ratios, where=pos)
        best = float(ratios[ratios.argmin()])
        # a ratio may overflow to inf: only no candidate row means unbounded
        if best == np.inf and not pos.any():
            return "unbounded", total_pivots
        # the leaving row is the first tie within thr (Bland: the tie with
        # the lowest basic index), not argmin's row
        thr = best + 1e-12 * (1.0 + abs(best))
        np.less_equal(ratios, thr, out=pos)
        if bland:
            ties = np.flatnonzero(pos)
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(pos.argmax())
        _pivot(T, r, j, buf)
        basis[r] = j
        if rhs[rhs.argmin()] < 0.0:
            small = (rhs < 0.0) & (rhs > -1e-9)
            if small.any():
                rhs[small] = 0.0
            if (rhs < -1e-6).any():
                raise NumericalFailure("tableau right-hand side went negative")
        total_pivots += 1
        if best <= tol:
            degen_run += 1
            if not bland and degen_run >= 10 * max(m, 1):
                bland = True
        else:
            degen_run = 0
        if bland:
            bland_pivots += 1
            if bland_pivots > budget:
                raise NumericalFailure("pivot limit exhausted")
        if total_pivots > hard_cap:
            raise NumericalFailure("pivot limit exhausted")


def phase_one(model: LpModel, tol: float = 1e-8) -> "Tableau":
    """Cold phase one: the tableau of every row of the model, with the
    columns of the variables with bounds [0, 0] cut.

    The rows are written in the standard-form columns, equilibrated over
    the columns they keep and flipped to a nonnegative right-hand side.
    Rows whose slack can start basic need no artificial; every other row
    starts with an artificial basic, and phase one minimizes their sum.

    Raises ValueError unless every variable is nonnegative, free or fixed
    at zero."""
    lower, upper = model.lower, model.upper
    free = (lower == -np.inf) & (upper == np.inf)
    zero = (lower == 0.0) & (upper == 0.0)
    nonnegative = (lower == 0.0) & (upper == np.inf)
    if not (free | zero | nonnegative).all():
        raise ValueError("variable bounds must be [0, inf), (-inf, inf) or [0, 0]")
    var = np.repeat(np.arange(model.num_vars), np.where(free, 2, 1))
    # a free variable's second column is its negative part
    sign = np.where(np.diff(var, prepend=-1) == 0, -1.0, 1.0)
    keep = ~zero[var]
    m = len(model.rows)
    C = np.zeros((m, model.num_vars))
    b = np.zeros(m)
    for r, (coeffs, _, rhs) in enumerate(model.rows):
        C[r], b[r] = coeffs, rhs
    rels = np.array([rel for _, rel, _ in model.rows], dtype=object)
    eq = rels == EQ
    rows = (C, b.copy(), np.where(rels == GE, -1.0, 1.0), eq, np.abs(b).max(initial=0.0))
    A = C[:, var] * sign
    # Row equilibration keeps big coefficients (for example big-M rows)
    # from washing out the tolerances.  Cut columns do not count, so rows
    # are scaled as if those columns never existed.
    big = np.abs(A[:, keep]).max(axis=1, initial=0.0)
    scale = np.maximum(1.0, np.maximum(big, np.abs(b)))
    A /= scale[:, None]
    b /= scale
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    # Columns: the kept structural ones, then the slacks.  -1 marks an
    # artificial: every row but an LE one after the flip starts with one.
    carry = np.flatnonzero(keep)
    slack_row = np.flatnonzero(~eq)
    cols = len(carry) + np.arange(len(slack_row))
    le = (rels[slack_row] == LE) != flip[slack_row]
    T = np.zeros((m + 1, len(carry) + len(slack_row) + 1))
    T[:m, : len(carry)] = A[:, carry]
    T[:m, -1] = b
    T[slack_row, cols] = np.where(le, 1.0, -1.0)
    basis = np.full(m, -1)
    basis[slack_row[le]] = cols[le]
    T[:m] += 0.0  # the flips and signs leave -0.0; see _pivot
    return Tableau(model.num_vars, var[keep], sign[keep], slack_row, rows, T, basis, tol)


class Tableau:
    """Phase-one tableau of one row set.

    It holds the standard-form transform of the variables: x_i is
    sign[c] * y[c] summed over the structural columns c with var[c] = i,
    and y >= 0.  A nonnegative variable has one column, a free one two, and
    a variable fixed at zero none.  T has one column per real variable
    (structural and slack, n_real in all) and the right-hand side, and one
    row per constraint and the cost row; basis gives each row's basic
    column.  :func:`phase_one` builds a tableau from a model, and
    :meth:`cut` derives one with fewer columns from another.  A tableau is
    never mutated once built, so sibling nodes may both cut their parent's,
    and a search may keep one on its stack.

    slack_row gives, for each slack column (columns len(var) up), the index
    of its row in the model, as :meth:`cut` takes it in tight; it is
    ascending, since :func:`phase_one` places the slacks in row order and
    :meth:`cut` only drops some.  feasible is
    False when phase one ended above the tolerance; such a tableau cannot
    be cut.  pivots counts the pivots of the phase one that built this
    tableau.  The unscaled rows are kept for the residual guard of
    :meth:`point`, including rows the purge dropped as redundant.

    The constructor takes the equilibrated rows with -1 in basis for each
    row that starts with an artificial.  An artificial has no column: its
    basis entry is a virtual index from n_real up, so Bland's rule lets it
    leave last, and once it leaves it is gone.  The constructor runs phase
    one and purges the artificials still basic at zero.
    """

    def __init__(self, num_vars, var, sign, slack_row, rows, T, basis, tol):
        self.num_vars, self.var, self.sign, self.slack_row = num_vars, var, sign, slack_row
        self._rows = rows
        n_real = T.shape[1] - 1
        art = np.flatnonzero(basis < 0)
        basis[art] = n_real + np.arange(len(art))
        pivots = 0
        feasible = True
        if len(art):
            # The phase-one cost row, priced out: the sum of the artificial
            # rows.  Its right-hand side is the artificials' sum, so
            # infeasibility shows up as a positive entry.
            T[-1] = T[art].sum(axis=0)
            status, pivots = _iterate(T, basis, n_real, tol)
            if status == "unbounded":
                raise NumericalFailure("phase one reported unbounded")
            feasible = not T[-1, -1] > tol
            if feasible:
                T, basis, purged = _purge_artificials(T, basis, n_real)
                pivots += purged
        self.T, self.basis, self.n_real = T, basis, n_real
        self.feasible, self.pivots = feasible, pivots

    def cut(self, zero=(), tight=(), tol: float = 1e-8) -> "Tableau":
        """This tableau with variables fixed at zero and rows made equations.

        zero lists variables whose columns are cut, so they never enter.
        tight lists rows, by their index in the model, whose slack column is
        cut: each becomes an equation, and the residual guard of
        :meth:`point` holds it to both sides; a row without a slack column,
        an equation, stays as it is.  A row whose basic column is cut, a
        variable's or a slack, starts with an artificial at its value, which
        phase one drives to zero; a value within tol is rounding residue and
        starts at zero.  No row is added, so phase one starts from this
        tableau's basis.
        """
        if not self.feasible:
            raise ValueError("an infeasible tableau cannot be cut")
        ns, m = len(self.var), len(self.basis)
        fixed = np.zeros(self.num_vars, dtype=bool)
        fixed[np.asarray(zero, dtype=int)] = True
        # one entry per column of T, the right-hand side's last and kept
        keep = np.ones(self.n_real + 1, dtype=bool)
        keep[:ns] = ~fixed[self.var]
        rows = self._rows
        tight = np.asarray(tight, dtype=int)
        if len(tight):
            # slack_row is sorted; a tight row without a slack column stays
            at = np.searchsorted(self.slack_row, tight)
            hit = at < len(self.slack_row)
            hit[hit] = self.slack_row[at[hit]] == tight[hit]
            keep[ns + at[hit]] = False
            C, rhs, sign, eq, big = rows
            eq = eq.copy()
            eq[tight] = True
            rows = (C, rhs, sign, eq, big)
        # the cost row comes along: phase one and maximize rewrite it
        # before they read it
        T = np.compress(keep, self.T, axis=1)
        place = np.cumsum(keep) - 1
        basis = np.where(keep[self.basis], place[self.basis], -1)
        T[:m, -1][(basis < 0) & (T[:m, -1] <= tol)] = 0.0
        var, sign = self.var[keep[:ns]], self.sign[keep[:ns]]
        slack_row = self.slack_row[keep[ns:-1]]
        return Tableau(self.num_vars, var, sign, slack_row, rows, T, basis, tol)

    def maximize(self, objective, tol: float = 1e-8) -> LpResult:
        """Phase two for one objective over this tableau's rows.

        Runs on a copy, so the tableau stays as it is.  Returns OPTIMAL or
        UNBOUNDED; pivots adds this tableau's own pivots, so for a cold
        tableau the result equals :func:`lp_solve` on the same rows.
        """
        if not self.feasible:
            raise ValueError("an infeasible tableau has no maximum")
        objective = np.asarray(objective, dtype=float)
        T, basis = self.T.copy(), self.basis.copy()
        T[-1, :] = 0.0
        T[-1, : len(self.var)] = objective[self.var] * self.sign + 0.0  # no -0.0
        _price_out(T, basis)
        status, pivots = _iterate(T, basis, self.n_real, tol)
        pivots += self.pivots
        if status == "unbounded":
            return LpResult(LpStatus.UNBOUNDED, pivots=pivots)
        x = self._point(T, basis)
        return LpResult(LpStatus.OPTIMAL, float(objective @ x), x, pivots)

    def point(self) -> np.ndarray:
        """The basic solution in the original variables.

        Raises NumericalFailure when the point is not finite, or when the
        worst miss of any row, rows the purge dropped included, is not at
        most 1e-5 times the largest of 1 and every |rhs|.  That is one
        threshold for all rows, not one per row: a catastrophic-failure
        detector only; fine-grained residual checks are the callers' and
        the tests' job.
        """
        return self._point(self.T, self.basis)

    def _point(self, T: np.ndarray, basis: np.ndarray) -> np.ndarray:
        y = np.zeros(self.n_real)
        y[basis] = T[: len(basis), -1]
        ns = len(self.var)
        x = np.bincount(self.var, weights=self.sign * y[:ns], minlength=self.num_vars)

        if not np.isfinite(x).all():
            raise NumericalFailure("solution failed the residual check")
        # sign makes each miss positive (GE rows flip, EQ rows take |d|), so
        # one max covers the rows; a NaN miss fails the negated test
        C, rhs, sign, eq, big = self._rows
        d = C @ x - rhs
        d *= sign
        np.abs(d, out=d, where=eq)
        if not d.max(initial=0.0) <= 1e-5 * max(1.0, big):
            raise NumericalFailure("solution failed the residual check")
        return x


def _purge_artificials(T: np.ndarray, basis: np.ndarray, n_real: int):
    """Pivot a real column into each row whose basic variable is still an
    artificial (a virtual index from n_real up), or drop the row when it
    has no usable entry, being redundant.  Returns the tableau, the basis
    and the number of pivots."""
    drop = []
    pivots = 0
    buf = np.empty(T.shape)
    # a pivot changes the basis entry of its own row only
    for r in np.flatnonzero(basis >= n_real):
        row = np.abs(T[r, :n_real])
        if row.max(initial=0.0) > _PIV_EPS:
            j = int(row.argmax())
            _pivot(T, r, j, buf)
            basis[r] = j
            pivots += 1
        else:
            drop.append(r)
    if drop:
        T = np.delete(T, drop, axis=0)
        basis = np.delete(basis, drop)
    return T, basis, pivots
