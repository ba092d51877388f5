"""Shared instance builders and independent oracles for the tests.

The oracles here deliberately avoid the library's own reasoning: box minima
are computed from closed forms, sets are probed by rejection sampling, and
the exported big-M text is solved by brute-force enumeration over the
binaries with one continuous LP per assignment.
"""

import itertools

import numpy as np

from aarlcp import Instance, MixedExtension
from aarlcp import lp, milp
from aarlcp.errors import NumericalFailure


def box_set(k, radius=1.0):
    """Theta, zeta for the box of the given radius around the origin."""
    rows = []
    rhs = []
    for c in range(k):
        e = np.zeros(k)
        e[c] = 1.0
        rows += [e, -e]
        rhs += [-radius, -radius]
    return np.array(rows), np.array(rhs)


def golden_instance():
    """Two rows, singular matrix, diagonal set {-2 <= u1 = u2 <= 2}."""
    return Instance(
        M=np.array([[1.0, -1.0], [1.0, -1.0]]),
        q=np.array([-1.0, -1.0]),
        T=np.eye(2),
        Theta=np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]]),
        zeta=np.array([0.0, 0.0, -2.0, -2.0]),
    )


def reduction_instance(q):
    """Singleton set {0}; feasibility collapses to the nominal problem."""
    return Instance(
        M=np.array([[0.0, 0.0], [1.0, 0.0]]),
        q=np.asarray(q, dtype=float),
        T=np.array([[1.0], [1.0]]),
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array([0.0, 0.0]),
    )


def export_1d_instance():
    """One row over [-1, 1]; the unique policy needs r = 2."""
    return Instance(
        M=np.array([[2.0]]),
        q=np.array([-4.0]),
        T=np.array([[1.0]]),
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array([-1.0, -1.0]),
    )


def export_mixed_instance():
    """Pinned two-variable free block, h = 1 and a two-vector hull: every
    row family of the export writes rows.  The set is the unit box cut by
    the implicit equality u3 = u1 + u2."""
    Theta, zeta = box_set(3)
    tight = np.array([[1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    mx = MixedExtension(
        V=np.array([[1.0, -2.0, 0.5], [0.0, 1.5, -1.0]]),
        W=np.array([[3.0, 0.25], [-1.0, 2.0]]),
        N=np.array([[0.5, 0.0], [-1.0, 2.0], [0.0, -0.75]]),
        p=np.array([1.5, -0.5]),
        P=np.array([[0.25, -1.0, 0.0], [1.0, 0.5, -2.0]]),
        y_adjustable=False,
    )
    return Instance(
        M=np.array([[2.0, -0.5, 0.0], [1.0, 3.0, -1.25], [0.0, 0.75, 1.0]]),
        q=np.array([-1.0, 0.25, -2.0]),
        T=np.array([[1.0, 0.5, 0.0], [-1.5, 2.0, 1.0], [0.0, 0.0, -0.5]]),
        Theta=np.vstack([Theta, tight]),
        zeta=np.append(zeta, [0.0, 0.0]),
        h=1,
        mixed=mx,
    )


def psd_desk_instance():
    Theta, zeta = box_set(2, 0.5)
    return Instance(
        M=np.array([[2.0, 0.0], [0.0, 0.0]]),
        q=np.array([-2.0, 1.0]),
        T=np.eye(2),
        Theta=Theta,
        zeta=zeta,
    )


def psd_infeasible_instance():
    # identity matrix, but the set is too wide for any affine rule
    Theta, zeta = box_set(2, 2.0)
    return Instance(
        M=np.eye(2),
        q=np.array([-1.0, -1.0]),
        T=np.eye(2),
        Theta=Theta,
        zeta=zeta,
    )


def mixed_1d(coupling, y_adjustable=True):
    """One complementarity row, one free variable fixed by y = 3."""
    mx = MixedExtension(
        V=np.array([[0.0]]),
        W=np.array([[1.0]]),
        N=np.array([[coupling]]),
        p=np.array([-3.0]),
        P=np.array([[0.0]]),
        y_adjustable=y_adjustable,
    )
    return Instance(
        M=np.array([[2.0]]),
        q=np.array([-4.0]),
        T=np.array([[1.0]]),
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array([-1.0, -1.0]),
        mixed=mx,
    )


def coupled_mixed_instance(y_adjustable):
    """Equality ties y to -z, and the slack needs y to move with u.

    Feasible only when the free block is adjustable."""
    mx = MixedExtension(
        V=np.array([[1.0]]),
        W=np.array([[1.0]]),
        N=np.array([[1.0]]),
        p=np.array([0.0]),
        P=np.array([[0.0]]),
        y_adjustable=y_adjustable,
    )
    return Instance(
        M=np.array([[2.0]]),
        q=np.array([-4.0]),
        T=np.array([[1.0]]),
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array([-1.0, -1.0]),
        mixed=mx,
    )


def random_set(rng, k, g, tight_pair=False):
    """Compact polyhedron with 0 in the relative interior, exactly g rows.

    Always starts from a box (compactness), then spends the remaining rows
    on random cuts, or on one implicit-equality pair when asked.
    """
    radius = float(rng.uniform(0.5, 2.0))
    rows = []
    rhs = []
    for c in range(k):
        e = np.zeros(k)
        e[c] = 1.0
        rows += [e, -e]
        rhs += [-radius, -radius]
    if len(rows) > g:
        raise ValueError("g too small for a box")
    if tight_pair and g - len(rows) >= 2 and k >= 2:
        v = rng.standard_normal(k)
        v /= np.linalg.norm(v)
        rows += [v, -v]
        rhs += [0.0, 0.0]
    while len(rows) < g:
        v = rng.standard_normal(k)
        nv = np.linalg.norm(v)
        if nv < 1e-6:
            continue
        rows.append(v / nv)
        rhs.append(-float(rng.uniform(0.3, 2.0)))
    return np.array(rows), np.array(rhs)


def random_instance(rng, n, k, g, tight_pair=False):
    Theta, zeta = random_set(rng, k, g, tight_pair)
    return Instance(
        M=rng.standard_normal((n, n)),
        q=rng.standard_normal(n),
        T=rng.standard_normal((n, k)),
        Theta=Theta,
        zeta=zeta,
    )


def planted_instance(rng, n, k, g, tight_pair=False, M=None, size=None):
    """Instance built around a known feasible policy; returns (inst, support).

    M is drawn standard normal and the support size from 1..n unless given.
    """
    Theta, zeta = random_set(rng, k, g, tight_pair)
    # the set sits inside the max box radius 2, so the L1 norm bounds minima
    if size is None:
        size = int(rng.integers(1, n + 1))
    S = set(int(i) for i in rng.choice(n, size=size, replace=False))
    D = np.zeros((n, k))
    r = np.zeros(n)
    for i in S:
        D[i] = rng.standard_normal(k) * 0.3
        r[i] = 2.0 * np.abs(D[i]).sum() + rng.uniform(0.1, 1.0)
    if M is None:
        M = rng.standard_normal((n, n))
    T = rng.standard_normal((n, k))
    q = rng.standard_normal(n)
    for i in range(n):
        if i in S:
            T[i] = -M[i] @ D
            q[i] = -float(M[i] @ r)
        else:
            q[i] = -float(M[i] @ r) + 2.0 * np.abs(M[i] @ D + T[i]).sum() + float(
                rng.uniform(0.05, 0.5)
            )
    return Instance(M=M, q=q, T=T, Theta=Theta, zeta=zeta), S


def gram_matrix(rng, n):
    """PSD matrix G^T G, rank-deficient when G has fewer rows than n."""
    G = rng.standard_normal((int(rng.integers(n // 2, n + 1)), n))
    return G.T @ G


def permuted_instance(rng, inst):
    """The same pure problem with rows, coordinates and set rows reordered.

    Complementarity rows follow a permutation p (M -> M[p][:, p]); the
    uncertainty vector is replaced by a signed permutation of itself, which
    maps the set and the channels onto each other exactly.  Policies map one
    to one, so the status is unchanged, and no arithmetic rounds.
    """
    p = rng.permutation(inst.n)
    cols = rng.permutation(inst.k)
    signs = rng.choice((-1.0, 1.0), size=inst.k)
    rows = rng.permutation(inst.g)
    return Instance(
        M=inst.M[p][:, p],
        q=inst.q[p],
        T=inst.T[p][:, cols] * signs,
        Theta=inst.Theta[rows][:, cols] * signs,
        zeta=inst.zeta[rows],
    )


def planted_mixed_instance(rng, n, m, k, g=None, tight_pair=False):
    """Mixed pair built around a pinned-block feasible policy.

    Returns (pinned, freed, support): identical data, only the
    adjustability flag differs.  The planted policy keeps the free block
    constant, so the pinned variant is feasible by construction.  The set
    is random_set's with g rows (2 k by default).
    """
    Theta, zeta = random_set(rng, k, 2 * k if g is None else g, tight_pair)
    size = int(rng.integers(0, n + 1))
    S = set(int(i) for i in rng.choice(n, size=size, replace=False))
    D = np.zeros((n, k))
    r = np.zeros(n)
    for i in S:
        D[i] = rng.standard_normal(k) * 0.3
        r[i] = 2.0 * np.abs(D[i]).sum() + rng.uniform(0.1, 1.0)
    y = rng.standard_normal(m)
    V = rng.standard_normal((m, n)) * 0.5
    W = rng.standard_normal((m, m)) + 2.0 * np.eye(m)
    N = rng.standard_normal((n, m)) * 0.5
    P = -(V @ D)
    p = -(V @ r + W @ y)
    M = rng.standard_normal((n, n))
    T = rng.standard_normal((n, k))
    q = np.zeros(n)
    for i in range(n):
        if i in S:
            T[i] = -(M[i] @ D)
            q[i] = -float(M[i] @ r + N[i] @ y)
        else:
            q[i] = -float(M[i] @ r + N[i] @ y) + 2.0 * np.abs(
                M[i] @ D + T[i]
            ).sum() + float(rng.uniform(0.05, 0.5))
    common = dict(M=M, q=q, T=T, Theta=Theta, zeta=zeta)
    pinned = Instance(
        mixed=MixedExtension(V=V, W=W, N=N, p=p, P=P, y_adjustable=False),
        **common,
    )
    freed = Instance(
        mixed=MixedExtension(V=V, W=W, N=N, p=p, P=P, y_adjustable=True),
        **common,
    )
    return pinned, freed, S


def affine_min_on_box(c, const, radius):
    """Exact minimum of c @ u + const over the box of the given radius."""
    return const - radius * float(np.abs(np.asarray(c)).sum())


def sample_points(rng, Theta, zeta, count=200, radius=2.5):
    """Points of the set, by rejection from a covering box; includes 0."""
    k = Theta.shape[1]
    points = [np.zeros(k)]
    tries = 0
    while len(points) < count and tries < 200 * count:
        u = rng.uniform(-radius, radius, size=k)
        if np.all(Theta @ u >= zeta - 1e-12):
            points.append(u)
        tries += 1
    return np.array(points)


def bigm_status(parsed, tol=1e-8):
    """Solve a parsed big-M model by enumerating the binaries.

    Returns "feasible" or "infeasible".  Each assignment substitutes the
    binaries into the rows and asks the LP solver about what remains.
    """
    bins = list(parsed.binaries)
    binset = set(bins)
    cont = [v for v in parsed.variables() if v not in binset]
    idx = {v: i for i, v in enumerate(cont)}

    for assign in itertools.product((0.0, 1.0), repeat=len(bins)):
        bval = dict(zip(bins, assign))
        model = lp.LpModel(len(cont))
        model.set_free([idx[name] for name in parsed.bounds if name in idx])
        consistent = True
        for _, terms, rel, rhs in parsed.rows:
            coeffs = np.zeros(len(cont))
            shift = 0.0
            for var, c in terms.items():
                if var in bval:
                    shift += c * bval[var]
                else:
                    coeffs[idx[var]] += c
            b = rhs - shift
            if np.any(coeffs):
                model.add_row(coeffs, rel, b)
                continue
            # constant row: check it outright
            if rel == lp.LE and b < -tol:
                consistent = False
            elif rel == lp.GE and b > tol:
                consistent = False
            elif rel == lp.EQ and abs(b) > tol:
                consistent = False
            if not consistent:
                break
        if not consistent:
            continue
        if lp.lp_feasible(model, tol).status is lp.LpStatus.OPTIMAL:
            return "feasible"
    return "infeasible"


def highs_status(parsed):
    """Solve a parsed big-M model with HiGHS (scipy.optimize.milp).

    Returns "feasible" or "infeasible"; needs scipy, unlike the rest of
    this module.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp as highs_milp

    names = parsed.variables()
    col = {v: j for j, v in enumerate(names)}
    A = np.zeros((len(parsed.rows), len(names)))
    lo = np.full(len(parsed.rows), -np.inf)
    hi = np.full(len(parsed.rows), np.inf)
    for i, (_, terms, rel, rhs) in enumerate(parsed.rows):
        for var, c in terms.items():
            A[i, col[var]] = c
        if rel != lp.LE:
            lo[i] = rhs
        if rel != lp.GE:
            hi[i] = rhs
    binary = np.isin(names, parsed.binaries)
    lower = np.where(np.isin(names, list(parsed.bounds)), -np.inf, 0.0)
    upper = np.where(binary, 1.0, np.inf)
    res = highs_milp(
        np.zeros(len(names)),
        constraints=LinearConstraint(A, lo, hi),
        integrality=binary.astype(int),
        bounds=Bounds(lower, upper),
    )
    if res.status not in (0, 2):
        raise RuntimeError(f"HiGHS gave no verdict: {res.message}")
    return "feasible" if res.status == 0 else "infeasible"


# The pivot kernel of ``lp`` as it was before the in-place rewrite: one
# allocation per ratio test and per rank-1 update, and the right-hand-side
# guard on every pivot.  The differential test runs these verbatim copies as
# the oracle for ``lp._pivot``, ``lp._price_out`` and ``lp._iterate``, which
# must pivot identically, bit for bit.


def reference_pivot(T: np.ndarray, r: int, j: int) -> None:
    T[r, :] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= np.outer(col, T[r, :])
    T[:, j] = 0.0
    T[r, j] = 1.0


def reference_price_out(T: np.ndarray, basis: np.ndarray) -> None:
    m = T.shape[0] - 1
    for r in range(m):
        cb = T[-1, basis[r]]
        if cb != 0.0:
            T[-1, :] -= cb * T[r, :]


def reference_iterate(T: np.ndarray, basis: np.ndarray, nact: int, tol: float):
    """Run the pivot loop on the priced tableau.  Returns "optimal" or
    "unbounded" with the number of pivots; raises NumericalFailure when
    safeguards run out."""
    m = T.shape[0] - 1
    bland = False
    degen_run = 0
    bland_pivots = 0
    total_pivots = 0
    budget = 50 * (T.shape[0] + T.shape[1])
    hard_cap = 10 * budget
    while True:
        red = T[-1, :nact]
        if bland:
            cand = np.nonzero(red > tol)[0]
            if cand.size == 0:
                return "optimal", total_pivots
            j = int(cand[0])
        else:
            j = int(np.argmax(red))
            if red[j] <= tol:
                return "optimal", total_pivots
        col = T[:m, j]
        pos = col > lp._PIV_EPS
        if not pos.any():
            return "unbounded", total_pivots
        rhs = T[:m, -1]
        ratios = np.full(m, np.inf)
        ratios[pos] = rhs[pos] / col[pos]
        best = float(ratios.min())
        ties = np.nonzero(ratios <= best + 1e-12 * (1.0 + abs(best)))[0]
        if bland:
            r = int(ties[np.argmin(basis[ties])])
        else:
            r = int(ties[0])
        reference_pivot(T, r, j)
        basis[r] = j
        rhs = T[:m, -1]
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


# Implicit-equality detection as it was before core.set_pass: every
# coordinate and every row maximized from the set's phase-one tableau.  The
# differential test requires the set pass to match it.


def reference_implicit_equalities(
    tab: lp.Tableau, Theta: np.ndarray, zeta: np.ndarray, tol: float = 1e-8
) -> tuple[list[int], list[int]]:
    tight: list[int] = []
    unbounded: list[int] = []
    for j in range(Theta.shape[0]):
        res = tab.maximize(Theta[j], tol)
        if res.status is lp.LpStatus.UNBOUNDED:
            unbounded.append(j)
        elif abs(res.value - zeta[j]) <= tol * max(1.0, abs(zeta[j])):
            tight.append(j)
    return tight, unbounded


def reference_compact(tab: lp.Tableau, k: int, tol: float = 1e-8) -> bool:
    compact = True
    for j in range(k):
        for sgn in (1.0, -1.0):
            c = np.zeros(k)
            c[j] = sgn
            if tab.maximize(c, tol).status is lp.LpStatus.UNBOUNDED:
                compact = False
    return compact


def seeded_sets(seed, count):
    """count (kind, Theta, zeta) sets of five kinds, in turn: random_set
    with a tight pair, duplicated rows, rows scaled by 1e6 or 1e-6, a
    singleton, and a strip that leaves some coordinates unbounded."""
    rng = np.random.default_rng(seed)
    kinds = ("tight", "duplicated", "scaled", "singleton", "strip")
    out = []
    for t in range(count):
        kind = kinds[t % len(kinds)]
        k = int(rng.integers(2, 4))
        g = 2 * k + int(rng.integers(2, 5))
        Theta, zeta = random_set(rng, k, g, tight_pair=kind != "singleton")
        if kind == "duplicated":
            dup = rng.choice(g, size=int(rng.integers(1, 4)))
            Theta, zeta = np.vstack([Theta, Theta[dup]]), np.concatenate([zeta, zeta[dup]])
        elif kind == "scaled":
            s = 10.0 ** rng.choice([-6.0, 0.0, 6.0], size=g)
            Theta, zeta = Theta * s[:, None], zeta * s
        elif kind == "singleton":
            # the box collapses to one point, origin or not
            p = rng.choice([0.0, 1.0], size=k) * rng.uniform(-1.0, 1.0, size=k)
            zeta = zeta.copy()
            zeta[: 2 * k] = np.ravel(np.column_stack([p, -p]))
            zeta[2 * k :] = np.minimum(zeta[2 * k :], Theta[2 * k :] @ p - 0.5)
            if t % 2:
                # box rows scaled by 1e6 around a point off the origin, each
                # 1e-4 loose: tight within tol * |zeta_j|, but not within tol
                p = rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.1, 1.0, size=k)
                Theta[: 2 * k] *= 1e6
                zeta[: 2 * k] = 1e6 * np.ravel(np.column_stack([p, -p])) - 1e-4
                zeta[2 * k :] = np.minimum(zeta[2 * k :], Theta[2 * k :] @ p - 0.5)
        elif kind == "strip":
            # drop the box rows of some coordinates; the cuts may still bound them
            free = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
            keep = [j for j in range(g) if j >= 2 * k or j // 2 not in free]
            Theta, zeta = Theta[keep], zeta[keep]
            if rng.uniform() < 0.5:  # and no row bounds them: a cylinder
                Theta[:, free] = 0.0
        order = rng.permutation(len(zeta))
        out.append((kind, Theta[order], zeta[order]))
    return out


def count_lp_calls(monkeypatch):
    """Names of the lp_solve, lp_feasible and Tableau.maximize calls made
    through the lp module until the test ends, in call order."""
    calls = []

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return wrapper

    for name in ("lp_solve", "lp_feasible"):
        monkeypatch.setattr(lp, name, counted(name, getattr(lp, name)))
    maximize = counted("maximize", lp.Tableau.maximize)
    monkeypatch.setattr(lp.Tableau, "maximize", maximize)
    return calls


def search_answer(report):
    """Status, node and LP tallies and policy bytes of a search report."""
    pol = report.policy
    arrays = () if pol is None else (pol.D, pol.r, pol.x, pol.E, pol.s)
    policy = tuple(None if a is None else a.tobytes() for a in arrays)
    tallies = (report.nodes_explored, report.lp_calls, report.lp_pivots)
    return report.status, tallies, policy


def dense_rows(form, fam) -> np.ndarray:
    """A family's rows in all the formulation's columns, one per row."""
    out = np.zeros((len(fam.rhs), form.total))
    for group, block in fam.blocks.items():
        out[:, form.cols[group]] = block
    return out


def node_map(builder) -> np.ndarray:
    """Z with x_full = Z @ x for a node point x: the identity on the
    columns node LPs keep, D_i = Theta^T A_i, and r_i = sigma_i - zeta^T A_i,
    where node column r_i holds sigma_i and Theta and zeta are those of the
    builder's formulation, which is in hull coordinates (zeta < 0)."""
    form = builder.form
    kept = np.setdiff1d(np.arange(form.total), form.D.ravel())
    pos = np.full(form.total, -1)
    pos[kept] = np.arange(len(kept))
    Z = np.zeros((form.total, len(kept)))
    Z[kept, np.arange(len(kept))] = 1.0
    for i in range(builder.n):
        Z[np.ix_(form.D[i], pos[form.A[i]])] = form.inst.Theta.T
        Z[form.r[i], pos[form.A[i]]] = -form.inst.zeta
    return Z


def reference_node_model(builder, fixed) -> lp.LpModel:
    """A node LP as built before fixings cut columns.

    Every node column keeps its default bounds, and x_i = 0 adds the
    support_link row r_i = 0.  The rows are the builder's formulation rows,
    rendered as dense rows times :func:`node_map` and in the same order as
    before: the always-valid rows, then the indicator rows of each fixed
    entry.
    """
    form = builder.form
    Z = node_map(builder)
    root = builder.model([milp.UNFIXED] * builder.n)
    model = lp.LpModel(builder.total)
    model.lower, model.upper = root.lower.copy(), root.upper.copy()
    static = (
        milp.TAG_Z_DUAL_VALUE,
        milp.TAG_W_DUAL_VALUE,
        milp.TAG_W_DUAL_MATCH,
        milp.TAG_HERE_AND_NOW,
        milp.TAG_MIXED_NOMINAL,
        milp.TAG_MIXED_DIRECTION,
        milp.TAG_MIXED_PIN,
    )
    indicators = (milp.TAG_NOMINAL_COMP, milp.TAG_DIRECTION_COMP, milp.TAG_SUPPORT_LINK)

    def add(fam, holds):
        for coeffs, rhs in zip(dense_rows(form, fam)[holds] @ Z, fam.rhs[holds]):
            model.add_row(coeffs, fam.rel, rhs)

    for tag in static:
        add(getattr(form, tag)(), slice(None))
    for i, f in enumerate(fixed):
        for tag in indicators:
            fam = getattr(form, tag)()
            add(fam, (fam.i == i) & (fam.value == f))
    return model


def reference_support_model(builder, fixed) -> lp.LpModel:
    """The enumeration oracle's equality stage as written out row by row:
    the coupling rows and the nominal_comp and direction_comp rows of every
    x_i = 1, as dense rows times :func:`node_map`, under the bounds of the
    node LP of the same fixing."""
    form = builder.form
    Z = node_map(builder)
    node = builder.model(fixed)
    model = lp.LpModel(builder.total)
    model.lower, model.upper = node.lower.copy(), node.upper.copy()
    ones = [i for i, f in enumerate(fixed) if f == 1]
    tags = (
        milp.TAG_MIXED_NOMINAL,
        milp.TAG_MIXED_DIRECTION,
        milp.TAG_NOMINAL_COMP,
        milp.TAG_DIRECTION_COMP,
    )
    for tag in tags:
        fam = getattr(form, tag)()
        holds = slice(None) if fam.i is None else np.isin(fam.i, ones)
        for coeffs, rhs in zip(dense_rows(form, fam)[holds] @ Z, fam.rhs[holds]):
            model.add_row(coeffs, fam.rel, rhs)
    return model
