"""Binary-support feasibility reformulation.

The search for an affine rule is driven by a support vector x in {0,1}^n:
row i is tight (x_i = 1, nominal value free to be positive) or off
(x_i = 0, nominal value pinned to zero).

Every row family of the reformulation is declared once, by a method of
:class:`Formulation` that returns a :class:`Family`: a tag, relations,
right-hand sides and one coefficient block per column group, each a
Kronecker product of the data.  Families are rendered two ways, block by
block.  Node LPs (:class:`NodeLpBuilder`) run on the formulation's own
columns, render four of the eleven families as rows and write every
fixing as an exact cut, so they add no rows below the root and no big-M
rows exist there; its docstring describes that layer.  The big-M export,
which relaxes each indicator row by a big-M multiple of its binary for
hand-off to external integer programming tools and names the rows and
columns, lives in :mod:`aarlcp.export`.  Both, and so the tree search
(:func:`bnb_solve`), cover pure and mixed instances alike.  On a pure
instance with a positive semidefinite matrix the search starts at the one
support an affine rule can use (:func:`psd.forced_support`), not at the
unfixed root, so it runs a single node.

Row families:

* z_dual_value / z_dual_match: a nonnegative multiplier per set row
  certifies that the decision rule stays nonnegative on the whole set.
* w_dual_value / w_dual_match: the same certificate for the slack rule.
* here_and_now: the first h decision rows do not react to the uncertainty.
* mixed_nominal / mixed_direction: equality coupling of the free block.
* mixed_pin: a pinned free block does not react to the uncertainty.
* indicator rows: x_i = 1 pins the slack rule of row i to zero at the
  nominal point (nominal_comp) and along the hull (direction_comp);
  x_i = 0 pins r_i to zero (support_link).  Node LPs cut columns and a
  slack instead of carrying any of them.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from . import lp
from .core import EPS_FEAS, EPS_ZERO, Instance, MixedExtension, Policy
from .errors import DimensionMismatch, NodeLimitExceeded, NotPsd, NumericalFailure
from .linhull import LinHullBasis
from .psd import forced_support
from .verify import VerifyReport, verify_policy

TAG_SUPPORT_LINK = "support_link"
TAG_NOMINAL_COMP = "nominal_comp"
TAG_DIRECTION_COMP = "direction_comp"
TAG_Z_DUAL_VALUE = "z_dual_value"
TAG_Z_DUAL_MATCH = "z_dual_match"
TAG_W_DUAL_VALUE = "w_dual_value"
TAG_W_DUAL_MATCH = "w_dual_match"
TAG_HERE_AND_NOW = "here_and_now"
TAG_MIXED_NOMINAL = "mixed_nominal"
TAG_MIXED_DIRECTION = "mixed_direction"
TAG_MIXED_PIN = "mixed_pin"

# Also the row order of the export.
ALL_TAGS = (
    TAG_SUPPORT_LINK,
    TAG_NOMINAL_COMP,
    TAG_DIRECTION_COMP,
    TAG_Z_DUAL_VALUE,
    TAG_Z_DUAL_MATCH,
    TAG_W_DUAL_VALUE,
    TAG_W_DUAL_MATCH,
    TAG_HERE_AND_NOW,
    TAG_MIXED_NOMINAL,
    TAG_MIXED_DIRECTION,
    TAG_MIXED_PIN,
)

UNFIXED = -1


class SolveStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"


@dataclass
class SolveOptions:
    tol: float = 1e-8
    node_limit: int | None = None  # None for the default budget, else >= 1
    branching: str = "heuristic"  # or "index"
    # Start at the support a PSD matrix forces: "auto" when the instance is
    # pure and its matrix PSD, "force" always (raising otherwise), or "off".
    psd: str = "auto"
    # The search is serial and ignores this field.  It is accepted, with a
    # DeprecationWarning when True, only because bench/run.py still passes it.
    parallel: bool = False

    def __post_init__(self):
        """Raise ValueError on a tolerance that is not finite and positive,
        an unknown branching rule or PSD mode, or a bad node limit."""
        tol = self.tol
        real = isinstance(tol, (int, float, np.integer, np.floating))
        if isinstance(tol, bool) or not (real and 0 < tol < np.inf):
            raise ValueError(f"tol must be finite and positive, not {tol!r}")
        if self.branching not in ("heuristic", "index"):
            raise ValueError(f"unknown branching rule {self.branching!r}")
        if self.psd not in ("auto", "force", "off"):
            raise ValueError(f"unknown PSD mode {self.psd!r}")
        limit = self.node_limit
        integral = isinstance(limit, (int, np.integer)) and not isinstance(limit, bool)
        if limit is not None and not (integral and limit >= 1):
            raise ValueError(f"node limit must be an integer >= 1, not {limit!r}")
        if self.parallel:
            msg = "SolveOptions.parallel is ignored: the search is serial"
            warnings.warn(msg, DeprecationWarning, stacklevel=3)


@dataclass(eq=False)
class SolveReport:
    """Outcome of a search.

    lp_calls counts node LPs: one per node, plus a cold re-solve wherever a
    warm-started node failed its residual guard.  lp_pivots is the pivot
    total of those LPs.  forced is True when the search started at the
    support a PSD matrix forces; nominal is then the nominal solution (None
    when there is none) and support_p that support.
    """

    status: SolveStatus
    policy: Policy | None = None
    nodes_explored: int = 0
    lp_calls: int = 0
    verification: VerifyReport | None = None
    tolerances: dict = field(default_factory=dict)
    tally: dict | None = None
    lp_pivots: int = 0
    forced: bool = False
    nominal: np.ndarray | None = None
    support_p: frozenset = frozenset()


def _normalize_fixed(node, n: int) -> tuple[int, ...]:
    fixed = tuple(node)
    if len(fixed) != n:
        raise DimensionMismatch(f"fixed vector must have length {n}")
    if any(f not in (UNFIXED, 0, 1) for f in fixed):
        raise ValueError("fixed entries must be 1, 0, or UNFIXED")
    return tuple(int(f) for f in fixed)


@dataclass(eq=False)
class Family:
    """One row family: rows over np.ndindex(*shape), each with relation rel
    and its entry of rhs.

    blocks maps column groups of :class:`Formulation` to coefficient blocks,
    one row per family row and one column per column of the group, in the
    order the export writes the terms.  An indicator family (i not None)
    holds row t only where x_{i[t]} = value.  Its rows are equations; the
    export splits each into a "<=" and a ">=" half, and lower says how the
    ">=" half goes out: relaxed by the big-M constant ("bigm"), as is
    because every policy meets it ("plain"), or not at all because it is a
    variable bound ("bound").
    """

    tag: str
    shape: tuple[int, ...]
    rel: str
    rhs: np.ndarray
    blocks: dict[str, np.ndarray]
    i: np.ndarray | None = None
    value: int = 1
    lower: str = "bigm"


class Formulation:
    """Column layout and row families of the reformulation of one instance.

    Column groups, in order: r (n), the multipliers A of the decision rows
    (g per row), the multipliers C of the slack rows, the free block's s (m)
    and E (m x k), and D (n x k); each group numbers its columns row-major,
    and cols maps each group to them.  s, E and D are free, the rest
    nonnegative.  D comes last, so node LPs, which carry every group but D,
    run on the first columns.  A pure instance gets an empty free block
    (m = 0), and hull holds the hull vectors, one per row.  Each family is
    the method named after its tag, and its blocks are Kronecker products
    of the data: w_dual_match, for one, is
    [C: I_n x Theta^T | D: -M x I_k | E: -N x I_k].
    """

    def __init__(self, inst: Instance, hull: np.ndarray):
        self.inst = inst
        n, k, g = inst.n, inst.k, inst.g
        self.mixed = inst.mixed
        if inst.mixed is None:
            empty = np.zeros((0, n)), np.zeros((0, 0)), np.zeros((n, 0)), np.zeros(0)
            self.mixed = MixedExtension(*empty, P=np.zeros((0, k)))
        m = self.mixed.m
        self.hull = hull
        start = np.cumsum([0, n, g * n, g * n, m, m * k, n * k])
        self.r = np.arange(start[0], start[1])
        self.A = np.arange(start[1], start[2]).reshape(n, g)
        self.C = np.arange(start[2], start[3]).reshape(n, g)
        self.s = np.arange(start[3], start[4])
        self.E = np.arange(start[4], start[5]).reshape(m, k)
        self.D = np.arange(start[5], start[6]).reshape(n, k)
        self.total = int(start[-1])
        self.cols = {group: getattr(self, group).ravel() for group in "rACsED"}

    def z_dual_value(self) -> Family:
        n = self.inst.n
        blocks = {"A": np.kron(np.eye(n), self.inst.zeta), "r": np.eye(n)}
        return Family(TAG_Z_DUAL_VALUE, (n,), lp.GE, np.zeros(n), blocks)

    def z_dual_match(self) -> Family:
        n, k = self.inst.n, self.inst.k
        blocks = {"A": np.kron(np.eye(n), self.inst.Theta.T), "D": -np.eye(n * k)}
        return Family(TAG_Z_DUAL_MATCH, (n, k), lp.EQ, np.zeros(n * k), blocks)

    def w_dual_value(self) -> Family:
        inst = self.inst
        blocks = {"C": np.kron(np.eye(inst.n), inst.zeta), "r": inst.M, "s": self.mixed.N}
        return Family(TAG_W_DUAL_VALUE, (inst.n,), lp.GE, -inst.q, blocks)

    def w_dual_match(self) -> Family:
        inst, eye = self.inst, np.eye(self.inst.k)
        blocks = {
            "C": np.kron(np.eye(inst.n), inst.Theta.T),
            "D": -np.kron(inst.M, eye),
            "E": -np.kron(self.mixed.N, eye),
        }
        return Family(TAG_W_DUAL_MATCH, inst.T.shape, lp.EQ, inst.T.ravel(), blocks)

    def here_and_now(self) -> Family:
        h, k = self.inst.h, self.inst.k
        blocks = {"D": np.eye(h * k, self.inst.n * k)}
        return Family(TAG_HERE_AND_NOW, (h, k), lp.EQ, np.zeros(h * k), blocks)

    def mixed_nominal(self) -> Family:
        mx = self.mixed
        return Family(TAG_MIXED_NOMINAL, (mx.m,), lp.EQ, -mx.p, {"r": mx.V, "s": mx.W})

    def mixed_direction(self) -> Family:
        # rows run over the hull vectors first, then over the equations
        mx, hull, k = self.mixed, self.hull, self.inst.k
        rows = len(hull) * mx.m
        blocks = {
            "D": np.einsum("jc,ai->jaic", hull, mx.V).reshape(rows, self.inst.n * k),
            "E": np.einsum("jc,ab->jabc", hull, mx.W).reshape(rows, mx.m * k),
        }
        rhs = -(hull @ mx.P.T).ravel()
        return Family(TAG_MIXED_DIRECTION, (len(hull), mx.m), lp.EQ, rhs, blocks)

    def mixed_pin(self) -> Family:
        mx, k = self.mixed, self.inst.k
        m = 0 if mx.y_adjustable else mx.m
        blocks = {"E": np.eye(m * k, mx.m * k)}
        return Family(TAG_MIXED_PIN, (m, k), lp.EQ, np.zeros(m * k), blocks)

    def nominal_comp(self) -> Family:
        # the ">=" half says the slack is nonnegative at the nominal point,
        # which the w_dual_value rows already imply
        inst, i = self.inst, np.arange(self.inst.n)
        blocks = {"r": inst.M, "s": self.mixed.N}
        return Family(TAG_NOMINAL_COMP, (inst.n,), lp.EQ, -inst.q, blocks, i, 1, "plain")

    def direction_comp(self) -> Family:
        inst, hull = self.inst, self.hull
        blocks = {"D": np.kron(inst.M, hull), "E": np.kron(self.mixed.N, hull)}
        rhs = -(inst.T @ hull.T).ravel()
        i = np.repeat(np.arange(inst.n), len(hull))
        return Family(TAG_DIRECTION_COMP, (inst.n, len(hull)), lp.EQ, rhs, blocks, i)

    def support_link(self) -> Family:
        n = self.inst.n
        rhs, blocks = np.zeros(n), {"r": np.eye(n)}
        return Family(TAG_SUPPORT_LINK, (n,), lp.EQ, rhs, blocks, np.arange(n), 0, "bound")


class NodeLpBuilder:
    """Assembles node LPs for one instance and hull basis.

    :attr:`form` is built on the instance in hull coordinates u = B v, B the
    k x d matrix of the hull vectors, with the hull I_d, so zeta < 0, and
    with each row of [M q T N] divided by its infinity norm, which maps
    every policy to itself and only rescales the C multipliers.
    Certification and the export keep the given data.  Node LPs carry the
    formulation's first :attr:`total` columns, every group but D, and render
    four families as rows: w_dual_value, w_dual_match, mixed_nominal and
    mixed_direction.  The other seven are bounds or cuts:

    * z_dual_match: node LPs carry no D columns.  Those rows say
      D_i = Theta^T A_i, so every row is rendered with D replaced by that
      product, and a family's D block folds into its A columns.
    * z_dual_value: node column r_i holds sigma_i = r_i + zeta^T A_i, so a
      family's r block is written into the sigma columns and folded into
      the A columns as -block x zeta, and z_dual_value row i is the bound
      sigma_i >= 0.
    * here_and_now: A_i has the bounds [0, 0] for i < h, so D_i is zero.
      That is exact: from any feasible point, A_i = 0 with r_i kept raises
      sigma_i by -zeta^T A_i >= 0, and no other row reads A_i.
    * mixed_pin: a pinned free block has E in [0, 0].
    * support_link, nominal_comp and direction_comp: the fixings below.

    Only the export writes the seven as rows.  :meth:`lift` maps a node
    point back to the formulation's columns.

    A fixing is a cut: it forces a whole block of columns to zero, and node
    LPs drop them instead of carrying indicator rows.  x_i = 0 fixes
    r_i = sigma_i - zeta^T A_i, a sum of nonnegative terms, at zero, so
    sigma_i and A_i are zero.  x_i = 1 pins the nominal slack to zero, so
    w_dual_value implies C_i = 0, and node LPs cut the slack of w_dual_value
    row i as well.  With C_i gone, that row at zero slack is nominal_comp
    and the w_dual_match rows of i are direction_comp.

    The rendered rows are built once, with the row positions of each family,
    and so is the table of every :meth:`fixing`: the columns it zeroes and
    the rows whose slack it cuts.  Warm and cold nodes read that one table.
    :meth:`lp.Tableau.cut` cuts a warm child out of its parent's phase-one
    tableau, which the tree search keeps on its stack, with no new rows, so
    no node tableau has more rows than the root's.  For a cold solve,
    :meth:`model` writes each cut row as an equation and gives the zeroed
    columns the bounds [0, 0], so :func:`lp.phase_one` cuts the same
    columns.  Models share the bound arrays of the unfixed root, which the
    solver never mutates.
    """

    def __init__(self, inst: Instance, basis: LinHullBasis):
        self._B = basis.matrix
        form = self.form = Formulation(_hull_scaled(inst, basis), np.eye(basis.dimension))
        self.n = n = inst.n
        self.total = form.total - form.D.size
        self._zeta = form.inst.zeta

        lower = np.zeros(self.total)
        lower[form.s] = lower[form.E] = -np.inf
        upper = np.full(self.total, np.inf)
        upper[form.A[: inst.h]] = 0.0  # here_and_now
        if not form.mixed.y_adjustable:
            lower[form.E] = upper[form.E] = 0.0
        self._lower, self._upper = lower, upper
        for arr in (lower, upper):
            arr.setflags(write=False)

        # the position of each rendered row, per family, in the family's shape
        self._static, at = [], {}
        for tag in (TAG_W_DUAL_VALUE, TAG_W_DUAL_MATCH, TAG_MIXED_NOMINAL, TAG_MIXED_DIRECTION):
            fam = getattr(form, tag)()
            at[tag] = len(self._static) + np.arange(len(fam.rhs)).reshape(fam.shape)
            self._static += self._rows(fam)
        value, match = at[TAG_W_DUAL_VALUE], at[TAG_W_DUAL_MATCH]
        none = np.zeros(0, dtype=int)
        self._fixing: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        for i in range(n):
            self._fixing[i, 0] = (np.append(form.r[i], form.A[i]), none)
            self._fixing[i, 1] = (form.C[i], value[i : i + 1])
        self._support_rows = np.column_stack([value, match])
        self._coupling = np.append(at[TAG_MIXED_NOMINAL], at[TAG_MIXED_DIRECTION])

    def _rows(self, fam: Family) -> list:
        """(coefficients, relation, rhs) of each row of a family, in node
        columns, with D_i = Theta^T A_i folded into the A columns and
        r_i = sigma_i - zeta^T A_i into the sigma and A columns."""
        form, inst = self.form, self.form.inst
        coeffs = np.zeros((len(fam.rhs), self.total))
        for group, block in fam.blocks.items():
            if group == "D":
                group = "A"
                block = block.reshape(len(coeffs) * inst.n, inst.k) @ inst.Theta.T
                block = block.reshape(len(coeffs), inst.n * inst.g)
            elif group == "r":
                fold = block[:, :, None] * self._zeta
                coeffs[:, form.cols["A"]] -= fold.reshape(len(coeffs), inst.n * inst.g)
            coeffs[:, form.cols[group]] += block
        return [(row, fam.rel, rhs) for row, rhs in zip(coeffs, fam.rhs)]

    def model(self, node) -> lp.LpModel:
        """Full node LP: the rendered rows and root bounds, cut by the
        :meth:`fixing` of every fixed entry."""
        return self._model(_normalize_fixed(node, self.n))

    def _model(self, fixed: tuple[int, ...]) -> lp.LpModel:
        model = lp.LpModel(self.total)
        model.rows = list(self._static)
        model.lower, model.upper = self._lower, self._upper
        zero = []
        for i, f in enumerate(fixed):
            if f == UNFIXED:
                continue
            cols, tight = self._fixing[i, f]
            zero.append(cols)
            for p in tight:
                coeffs, _, rhs = model.rows[p]
                model.rows[p] = (coeffs, lp.EQ, rhs)
        if zero:
            # the forced columns are nonnegative, so lower is 0 already
            model.upper = self._upper.copy()
            model.upper[np.concatenate(zero)] = 0.0
        return model

    def fixing(self, i: int, value: int) -> tuple[np.ndarray, np.ndarray]:
        """(zero, tight) of fixing entry i to value, as
        :meth:`lp.Tableau.cut` takes them; a fixing adds no rows.  zero
        lists the node columns it forces to zero: sigma_i and all of A_i for
        value 0, all of C_i for value 1.  tight lists the rows of
        :meth:`model` whose slack it cuts: w_dual_value row i for value 1,
        none for value 0."""
        return self._fixing[i, value]

    def support_model(self, node) -> lp.LpModel:
        """The equality stage of the enumeration oracle: :meth:`model` cut
        down to the w_dual_value row and the w_dual_match rows of every
        x_i = 1, then the coupling rows, with the same bounds.

        With C_i cut, the w_dual_value equation of x_i = 1 is nominal_comp
        and its w_dual_match rows are direction_comp, whose hull is I_d.
        The full node LP keeps these rows, so this stays its relaxation."""
        fixed = _normalize_fixed(node, self.n)
        model = self._model(fixed)
        ones = [i for i, f in enumerate(fixed) if f == 1]
        keep = np.append(self._support_rows[ones], self._coupling)
        model.rows = [model.rows[p] for p in keep]
        return model

    def r_of(self, point: np.ndarray) -> np.ndarray:
        """The nominal rule r_i = sigma_i - zeta^T A_i of a node LP point."""
        return point[self.form.r] - point[self.form.A] @ self._zeta

    def lift(self, point: np.ndarray) -> np.ndarray:
        """A node LP point in all the formulation's columns, which are in
        hull coordinates: r in place of sigma, and D_i = Theta^T A_i
        appended as the last group.  D_i is exactly zero for i < h, whose
        A_i are cut."""
        A = point[self.form.A]
        out = np.concatenate((point, (A @ self.form.inst.Theta).ravel()))
        out[self.form.r] = self.r_of(point)
        return out

    def extract_policy(self, point, node) -> Policy:
        """Read the affine rule off a node LP point at a fully fixed node,
        mapped back to u by a left inverse B^+ of B: D = D' B^+, E = E' B^+.
        Its first h rows of D are exactly zero, as those of D' are."""
        fixed = _normalize_fixed(node, self.n)
        if any(f == UNFIXED for f in fixed):
            raise ValueError("policy extraction needs a fully fixed node")
        form = self.form
        point = self.lift(point)
        left = np.linalg.solve(self._B.T @ self._B, self._B.T)  # B^+, B has full rank
        D = point[form.D] @ left
        r = np.maximum(point[form.r], 0.0)
        E = s = None
        if form.inst.mixed is not None:  # a pinned block's E columns are cut, so zero
            s, E = point[form.s], point[form.E] @ left
        return Policy(D=D, r=r, x=np.array(fixed, dtype=int), E=E, s=s)


def _hull_scaled(inst: Instance, basis: LinHullBasis) -> Instance:
    """The instance in hull coordinates (:meth:`LinHullBasis.coordinates`),
    with each row of [M q T N] divided by its infinity norm (zero rows
    stay); the free block's own rows stay as they are."""
    inst = basis.coordinates(inst)
    mixed = inst.mixed
    N = mixed.N if mixed is not None else np.zeros((inst.n, 0))
    norm = np.abs(np.column_stack([inst.M, inst.q, inst.T, N])).max(axis=1)
    d = np.where(norm > 0.0, norm, 1.0)
    col = d[:, None]
    if mixed is not None:
        mixed = replace(mixed, N=N / col)
    return replace(inst, M=inst.M / col, q=inst.q / d, T=inst.T / col, mixed=mixed)


class _Budget:
    """Node counter with a hard cap, plus the node-LP tallies of one search."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0
        self.lp_calls = 0
        self.pivots = 0

    def tick(self) -> None:
        self.used += 1
        if self.used > self.limit:
            raise NodeLimitExceeded(
                f"node budget of {self.limit} exhausted without a conclusion"
            )

    def spend(self, pivots: int) -> None:
        """Count one node LP and its pivots."""
        self.lp_calls += 1
        self.pivots += pivots


def _branch_choice(fixed, rhat, opts):
    unfixed = [i for i, f in enumerate(fixed) if f == UNFIXED]
    if opts.branching == "index":
        return unfixed[0], 0
    i = max(unfixed, key=lambda t: (rhat[t], -t))
    first = 1 if rhat[i] > EPS_ZERO else 0
    return i, first


def _with(fixed, i, val):
    out = list(fixed)
    out[i] = val
    return tuple(out)


def _node_lp(builder, fixed, parent, key, tol, budget):
    """Phase one at one node: (tableau, point), the point None if infeasible.

    A node with a parent cuts the parent's tableau by the fixing of key,
    its one new (index, value).  If that warm solve fails, by its residual
    guard or otherwise, the node is solved once more, cold, from its full
    model; a failure there propagates.  A node without a parent is solved
    cold.  Every attempt counts as an LP call.
    """
    if parent is not None:
        tab = None
        zero, tight = builder.fixing(*key)
        try:
            tab = parent.cut(zero, tight, tol)
            return tab, (tab.point() if tab.feasible else None)
        except NumericalFailure:
            pass
        finally:
            budget.spend(tab.pivots if tab is not None else 0)
    tab = lp.phase_one(builder.model(fixed), tol)
    budget.spend(tab.pivots)
    return tab, (tab.point() if tab.feasible else None)


def _dfs(builder, opts, budget, root):
    """Depth-first search from the fixing root, which is solved cold.

    A stack entry is a fixing, the phase-one tableau of its parent and the
    (index, value) the child adds; the tableau is shared by both children
    and never changed.  Returns (fixed, point) of the first feasible leaf,
    or None when the tree is exhausted.
    """
    stack = [(root, None, None)]
    while stack:
        fixed, parent, key = stack.pop()
        budget.tick()
        tab, point = _node_lp(builder, fixed, parent, key, opts.tol, budget)
        if point is None:
            continue
        if all(f != UNFIXED for f in fixed):
            return fixed, point
        i, first = _branch_choice(fixed, builder.r_of(point), opts)
        stack.append((_with(fixed, i, 1 - first), tab, (i, 1 - first)))
        stack.append((_with(fixed, i, first), tab, (i, first)))
    return None


def bnb_solve(
    inst: Instance, basis: LinHullBasis, opts: SolveOptions | None = None
) -> SolveReport:
    """Search support vectors depth first, pruning by node LP infeasibility.

    Pure and mixed instances take the same search: the node LPs carry the
    free block's columns and coupling rows whenever the instance has one,
    and certification checks its equations.  A pure instance with a PSD
    matrix (opts.psd "auto" or "force") starts at the support of
    :func:`psd.forced_support`, so one node runs, or none without a nominal
    solution; "force" raises DimensionMismatch on a mixed instance and
    NotPsd on a matrix that is not PSD.  Feasible results always carry a
    policy that passed certification; Infeasible means the tree below the
    start was exhausted.  lp_calls counts node LPs, lp_pivots their pivots.
    """
    opts = opts or SolveOptions()
    tolerances = {
        "tol": opts.tol,
        "eps_zero": EPS_ZERO,
        "verify_tol": EPS_FEAS,
    }
    root, shortcut = tuple([UNFIXED] * inst.n), {}
    if opts.psd == "force" and inst.mixed is not None:
        raise DimensionMismatch("the PSD shortcut covers pure instances only")
    if opts.psd != "off" and inst.mixed is None:
        try:
            start = forced_support(inst, opts.tol)
        except NotPsd:
            if opts.psd == "force":
                raise
        else:
            if start is None:
                return SolveReport(
                    SolveStatus.INFEASIBLE, tolerances=tolerances, forced=True
                )
            zbar, support = start
            root = tuple(int(i in support) for i in range(inst.n))
            shortcut = {"forced": True, "nominal": zbar, "support_p": support}

    builder = NodeLpBuilder(inst, basis)
    # a full binary tree over n indices has 2^(n+1) - 1 nodes counting the
    # root, so this default lets an exhaustive run finish for n <= 20
    budget = _Budget(opts.node_limit or 2 ** min(builder.n + 1, 21))
    leaf = _dfs(builder, opts, budget, root)
    status, policy, report = SolveStatus.INFEASIBLE, None, None
    if leaf is not None:
        status = SolveStatus.FEASIBLE
        policy = builder.extract_policy(leaf[1], leaf[0])
        report = verify_policy(inst, basis, policy, EPS_FEAS)
        if not report.verified:
            raise NumericalFailure(
                "search returned a policy that fails certification: "
                + "; ".join(report.violations)
            )
    return SolveReport(
        status=status,
        policy=policy,
        nodes_explored=budget.used,
        lp_calls=budget.lp_calls,
        verification=report,
        tolerances=tolerances,
        lp_pivots=budget.pivots,
        **shortcut,
    )
