"""Solver-level tests: known optima, status handling, and a vertex oracle."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aarlcp import bnb_solve, compute_lin_hull, lp
from aarlcp.errors import NumericalFailure
from support import (
    planted_instance,
    random_set,
    reference_iterate,
    reference_pivot,
    reference_price_out,
)


def test_simple_maximum():
    model = lp.LpModel(2, [1.0, 1.0])
    model.add_row([1.0, 1.0], lp.LE, 1.0)
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.point.sum() == pytest.approx(1.0, abs=1e-9)


def test_unbounded():
    model = lp.LpModel(1, [1.0])
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.UNBOUNDED


def test_infeasible():
    model = lp.LpModel(1, [1.0])
    model.add_row([1.0], lp.LE, -1.0)
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.INFEASIBLE


def test_equality_rows():
    model = lp.LpModel(3, [0.0, 0.0, 1.0])
    model.add_row([1.0, 1.0, 0.0], lp.EQ, 4.0)
    model.add_row([1.0, -1.0, 0.0], lp.EQ, 2.0)
    model.add_row([0.0, 1.0, 1.0], lp.LE, 5.0)
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.OPTIMAL
    assert res.point[0] == pytest.approx(3.0, abs=1e-8)
    assert res.point[1] == pytest.approx(1.0, abs=1e-8)
    assert res.value == pytest.approx(4.0, abs=1e-8)


def test_redundant_equalities_survive_phase_one():
    # same row twice: one artificial stays basic at zero and must be purged
    model = lp.LpModel(2, [1.0, 0.0])
    model.add_row([1.0, 1.0], lp.EQ, 2.0)
    model.add_row([1.0, 1.0], lp.EQ, 2.0)
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-9)
    assert lp.phase_one(model).T.shape[0] == 2  # one row and the cost row


def test_phase_one_has_no_artificial_columns(monkeypatch):
    # An artificial is a virtual basis index from n_real up with no column,
    # so phase one prices the real columns alone and a leaving artificial
    # cannot come back.
    calls = []
    real_iterate = lp._iterate

    def iterate(T, basis, nact, tol):
        calls.append((T.shape[1], nact, sorted(basis.tolist())))
        return real_iterate(T, basis, nact, tol)

    monkeypatch.setattr(lp, "_iterate", iterate)
    model = lp.LpModel(3)
    model.add_row([1.0, 1.0, 1.0], lp.GE, 1.0)
    model.add_row([1.0, -1.0, 0.0], lp.EQ, 0.5)
    model.add_row([0.0, 1.0, 2.0], lp.LE, 4.0)
    tab = lp.phase_one(model)
    # three structural columns and the slacks of the GE and LE rows
    assert tab.n_real == 5 and tab.T.shape == (4, 6)
    assert calls == [(6, 5, [4, 5, 6])]
    assert (tab.basis < tab.n_real).all()
    # a cut that zeroes a basic column: its row's value becomes an
    # artificial's, and the column is gone before phase one
    basic = int(tab.var[tab.basis[tab.basis < 3][0]])
    child = tab.cut(zero=[basic])
    assert child.n_real == 4 and child.T.shape[1] == 5
    assert calls[1][:2] == (5, 4) and calls[1][2][-1] == 4
    assert (child.basis < child.n_real).all()
    assert basic not in child.var.tolist()


def test_free_variables():
    model = lp.LpModel(2, [1.0, 0.0])
    model.set_free()
    model.add_row([1.0, 1.0], lp.LE, 0.0)
    model.add_row([1.0, -1.0], lp.LE, 4.0)
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-8)


def test_bad_bounds_rejected():
    # a variable is nonnegative, free or fixed at zero; a finite bound
    # belongs in a row
    rule = r"\[0, inf\), \(-inf, inf\) or \[0, 0\]"
    for lower, upper in (
        (2.0, 2.0),
        (1.0, np.inf),
        (-np.inf, 0.0),
        (2.0, 1.0),
        (0.0, 1.0),
        (np.nan, np.inf),
    ):
        model = lp.LpModel(2)
        model.lower[1], model.upper[1] = lower, upper
        for solve in (lp.lp_solve, lp.lp_feasible, lp.phase_one):
            with pytest.raises(ValueError, match=rule):
                solve(model)


@pytest.mark.parametrize(
    "objective, coeffs, rhs",
    [
        (None, [1.0], np.nan),
        (None, [1.0], np.inf),
        (None, [1.0], -np.inf),
        (None, [np.nan], 1.0),
        (None, [np.inf], 1.0),
        ([np.nan], [1.0], 1.0),
        ([-np.inf], [1.0], 1.0),
    ],
    ids=["nan-rhs", "inf-rhs", "-inf-rhs", "nan-coeff", "inf-coeff", "nan-obj", "-inf-obj"],
)
def test_model_rejects_non_finite_input(objective, coeffs, rhs):
    # such a model used to solve as UNBOUNDED or run out of pivots
    with pytest.raises(ValueError, match="non-finite"):
        lp.LpModel(1, objective).add_row(coeffs, lp.LE, rhs)


def test_phase_one_without_usable_columns():
    # x fixed at zero leaves no column to price or purge with
    for rhs, status in ((1.0, lp.LpStatus.INFEASIBLE), (0.0, lp.LpStatus.OPTIMAL)):
        model = lp.LpModel(1, [1.0])
        model.lower[0] = model.upper[0] = 0.0
        model.add_row([1.0], lp.EQ, rhs)
        for solve in (lp.lp_feasible, lp.lp_solve):
            res = solve(model)
            assert res.status is status and res.pivots == 0
            if status is lp.LpStatus.OPTIMAL:
                assert res.point.tolist() == [0.0] and res.value == 0.0


def test_degenerate_cycling_guard():
    # the classic cycling construction; must terminate at 0.05
    model = lp.LpModel(4, [0.75, -150.0, 0.02, -6.0])
    model.add_row([0.25, -60.0, -0.04, 9.0], lp.LE, 0.0)
    model.add_row([0.5, -90.0, -0.02, 3.0], lp.LE, 0.0)
    model.add_row([0.0, 0.0, 1.0, 0.0], lp.LE, 1.0)
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.OPTIMAL
    assert res.value == pytest.approx(0.05, abs=1e-8)


def test_feasibility_probe_returns_a_point():
    model = lp.LpModel(2)
    model.add_row([1.0, 1.0], lp.GE, 1.0)
    model.add_row([1.0, -1.0], lp.EQ, 0.25)
    res = lp.lp_feasible(model)
    assert res.status is lp.LpStatus.OPTIMAL
    p = res.point
    assert p[0] + p[1] >= 1.0 - 1e-8
    assert p[0] - p[1] == pytest.approx(0.25, abs=1e-8)
    assert np.all(p >= -1e-9)


def test_feasibility_probe_never_unbounded():
    model = lp.LpModel(1, [1.0])
    res = lp.lp_feasible(model)
    assert res.status is lp.LpStatus.OPTIMAL


def _vertex_max(A, b, c):
    """Max of c @ u over {A u >= b} by enumerating basic points; A must
    describe a bounded nonempty region."""
    best = None
    g = A.shape[0]
    for i, j in itertools.combinations(range(g), 2):
        sub = A[[i, j]]
        if abs(np.linalg.det(sub)) < 1e-9:
            continue
        u = np.linalg.solve(sub, np.array([b[i], b[j]]))
        if np.all(A @ u >= b - 1e-7):
            val = float(c @ u)
            best = val if best is None else max(best, val)
    return best


def test_against_vertex_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(60):
        radius = rng.uniform(0.5, 3.0)
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([-radius] * 4)
        extra = rng.integers(0, 3)
        for _ in range(extra):
            v = rng.standard_normal(2)
            nv = np.linalg.norm(v)
            if nv < 1e-6:
                continue
            A = np.vstack([A, v / nv])
            b = np.append(b, -rng.uniform(0.2, 2.0))
        c = rng.standard_normal(2)
        model = lp.LpModel(2, c)
        model.set_free()
        for row, rr in zip(A, b):
            model.add_row(row, lp.GE, rr)
        res = lp.lp_solve(model)
        want = _vertex_max(A, b, c)
        assert res.status is lp.LpStatus.OPTIMAL
        assert res.value == pytest.approx(want, abs=1e-6)


@settings(deadline=None, max_examples=50)
@given(
    st.lists(
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        min_size=1,
        max_size=4,
    ),
    st.floats(min_value=0.1, max_value=3.0, allow_nan=False),
)
def test_box_maximum_closed_form(cs, radius):
    c = np.array(cs)
    k = len(c)
    model = lp.LpModel(k, c)
    model.set_free()
    for t in range(k):
        e = np.zeros(k)
        e[t] = 1.0
        model.add_row(e, lp.GE, -radius)
        model.add_row(-e, lp.GE, -radius)
    res = lp.lp_solve(model)
    assert res.status is lp.LpStatus.OPTIMAL
    assert res.value == pytest.approx(radius * np.abs(c).sum(), abs=1e-7)


def test_model_not_mutated_by_solve():
    model = lp.LpModel(2, [1.0, 0.0])
    model.add_row([1.0, 1.0], lp.LE, 3.0)
    rows_before = [(row.copy(), rel, rhs) for row, rel, rhs in model.rows]
    lower = model.lower.copy()
    lp.lp_solve(model)
    assert np.array_equal(model.lower, lower)
    for (row0, _, _), (row1, _, _) in zip(rows_before, model.rows):
        assert np.array_equal(row0, row1)


def test_pivot_budget_is_finite():
    # a healthy model must not trip the failure guard
    rng = np.random.default_rng(3)
    model = lp.LpModel(6, rng.standard_normal(6))
    for _ in range(10):
        model.add_row(rng.standard_normal(6), lp.LE, abs(rng.standard_normal()) + 0.5)
    try:
        res = lp.lp_solve(model)
        assert res.status in (lp.LpStatus.OPTIMAL, lp.LpStatus.UNBOUNDED)
    except NumericalFailure:
        pytest.fail("well-conditioned model tripped the pivot budget")


def _batch_model(rng):
    """Equality-heavy LP with duplicated, combined and zero-rhs rows, and
    upper bounds on some nonnegative variables as rows of their own; about
    half of the draws are feasible by construction."""
    n = int(rng.integers(3, 8))
    model = lp.LpModel(n)
    free = rng.uniform(size=n) < 0.3
    model.set_free(np.nonzero(free)[0])
    bounds = [
        (np.eye(n)[i], lp.LE, float(rng.uniform(1.0, 3.0)))
        for i in np.nonzero(~free & (rng.uniform(size=n) < 0.3))[0]
    ]
    x0 = np.where(free, rng.normal(size=n), rng.uniform(0.0, 1.0, size=n))
    if rng.uniform() < 0.3:
        x0[rng.uniform(size=n) < 0.5] = 0.0  # degenerate vertex
    planted = rng.uniform() < 0.5
    rows = []
    for _ in range(int(rng.integers(2, n + 3))):
        kind = rng.uniform()
        if rows and kind < 0.2:
            a = rows[int(rng.integers(len(rows)))][0].copy()  # duplicate
        elif len(rows) >= 2 and kind < 0.4:
            a = rows[0][0] - 2.0 * rows[1][0]  # combination
        else:
            a = rng.integers(-3, 4, size=n).astype(float)
        rel = lp.EQ if rng.uniform() < 0.7 else (lp.LE, lp.GE)[int(rng.integers(2))]
        b = float(a @ x0) if planted else float(rng.integers(-3, 4))
        rows.append((a, rel, b))
    for a, rel, b in rows + bounds:
        model.add_row(a, rel, b)
    return model


def test_fixed_variables_are_constants():
    # bounds [0, 0]: the cold batch cuts the column; a free variable has two
    model = lp.LpModel(3, [1.0, 1.0, 1.0])
    model.set_free([0])
    model.lower[1] = model.upper[1] = 0.0
    model.add_row([1.0, 1.0, 1.0], lp.LE, 5.0)
    model.add_row([1.0, 0.0, 0.0], lp.EQ, 2.0)
    tab = lp.phase_one(model)
    assert tab.var.tolist() == [0, 0, 2] and tab.T.shape == (3, 5)
    res = lp.lp_solve(model)
    assert res.value == pytest.approx(5.0)
    assert res.point.tolist() == pytest.approx([2.0, 0.0, 3.0])


def test_extend_fixes_variables_at_zero():
    """A cut that fixes variables at zero agrees with a cold solve that
    gives them zero bounds, and cuts every column they had; the point of
    the tableau it cuts meets every row and bound."""
    rng = np.random.default_rng(19)
    feasible = 0
    for _ in range(150):
        model = _batch_model(rng)
        zero = np.flatnonzero(rng.uniform(size=model.num_vars) < 0.4)
        cold = lp.LpModel(model.num_vars)
        cold.rows = model.rows
        cold.lower, cold.upper = model.lower.copy(), model.upper.copy()
        cold.lower[zero] = cold.upper[zero] = 0.0
        whole = lp.phase_one(cold).feasible
        tab = lp.phase_one(model)
        if not tab.feasible:
            continue
        x = tab.point()
        assert np.all(x >= model.lower - 1e-9) and _worst_miss(model, x) <= 1e-8
        tab = tab.cut(zero=zero)
        assert tab.feasible is whole
        if whole:
            feasible += 1
            x = tab.point()
            assert not x[zero].any() and not np.isin(tab.var, zero).any()
            assert _worst_miss(model, x) <= 1e-8
    assert feasible >= 30


def test_extend_cuts_the_slacks_of_tight_rows():
    """A cut that lists rows in tight agrees with a cold solve that writes
    those rows as equations, with or without fixings: over draws where a
    cut slack was basic, and where the tight row was a GE row flipped to
    LE, its slack starting basic."""
    rng = np.random.default_rng(23)
    feasible = basic = flipped = drawn = 0
    for _ in range(240):
        model = _batch_model(rng)
        tab = lp.phase_one(model)
        if not tab.feasible:
            continue
        drawn += 1
        tight = np.flatnonzero(rng.uniform(size=len(model.rows)) < 0.5)
        zero = np.zeros(0, dtype=int)
        if rng.uniform() < 0.5:
            zero = np.flatnonzero(rng.uniform(size=model.num_vars) < 0.2)
        slacks = len(tab.var) + np.flatnonzero(np.isin(tab.slack_row, tight))
        basic += bool(np.isin(tab.basis, slacks).any())
        flipped += any(model.rows[t][1] == lp.GE and model.rows[t][2] < 0 for t in tight)
        cold = lp.LpModel(model.num_vars)
        cold.rows = [
            (a, lp.EQ if t in tight else rel, b) for t, (a, rel, b) in enumerate(model.rows)
        ]
        cold.lower, cold.upper = model.lower.copy(), model.upper.copy()
        cold.lower[zero] = cold.upper[zero] = 0.0
        whole = lp.phase_one(cold).feasible
        tab = tab.cut(zero=zero, tight=tight)
        assert tab.feasible is whole
        if whole:
            feasible += 1
            x = tab.point()
            assert not x[zero].any()
            assert _worst_miss(cold, x) <= 1e-8
    assert drawn >= 150 and feasible >= 30 and basic >= 10 and flipped >= 3


def _worst_miss(model, x):
    worst = 0.0
    for a, rel, b in model.rows:
        d = float(a @ x) - b
        worst = max(worst, d if rel == lp.LE else -d if rel == lp.GE else abs(d))
    return worst


def test_extend_leaves_the_parent_alone():
    model = lp.LpModel(3)
    model.add_row([1.0, 1.0, 1.0], lp.EQ, 2.0)
    parent = lp.phase_one(model)
    T, basis = parent.T.copy(), parent.basis.copy()
    infeasible = parent.cut(zero=[0, 1, 2])
    assert not infeasible.feasible
    with pytest.raises(ValueError):
        infeasible.cut()
    child = parent.cut(zero=[1, 2])
    assert child.feasible
    assert child.point().tolist() == pytest.approx([2.0, 0.0, 0.0])
    assert np.array_equal(parent.T, T) and np.array_equal(parent.basis, basis)


def test_pivots_counted():
    model = lp.LpModel(2, [1.0, 1.0])
    model.add_row([1.0, 1.0], lp.LE, 1.0)
    model.add_row([1.0, -1.0], lp.EQ, 0.0)
    assert lp.lp_feasible(model).pivots >= 1
    assert lp.lp_solve(model).pivots >= lp.lp_feasible(model).pivots


def _set_model(rng):
    """Free variables over a random_set polytope with an implicit-equality
    pair (zeta = 0); half of the draws lose the box rows of the first
    coordinate, so some objectives are unbounded."""
    k = int(rng.integers(2, 5))
    Theta, zeta = random_set(rng, k, 2 * k + 3, tight_pair=True)
    if rng.uniform() < 0.5:
        Theta, zeta = Theta[2:], zeta[2:]
    model = lp.LpModel(k)
    model.set_free()
    for a, b in zip(Theta, zeta):
        model.add_row(a, lp.GE, b)
    return model


def test_maximize_matches_lp_solve():
    rng = np.random.default_rng(41)
    seen = set()
    infeasible = 0
    for t in range(120):
        model = (_set_model if t % 2 else _batch_model)(rng)
        tab = lp.lp_feasible(model).tableau
        if tab is None:
            infeasible += 1
            with pytest.raises(ValueError):
                lp.phase_one(model).maximize(np.ones(model.num_vars))
            continue
        T, basis = tab.T.copy(), tab.basis.copy()
        for _ in range(4):
            c = rng.normal(size=model.num_vars)
            fresh = lp.LpModel(model.num_vars, c)
            fresh.rows = list(model.rows)
            fresh.lower, fresh.upper = model.lower.copy(), model.upper.copy()
            ref = lp.lp_solve(fresh)
            got = tab.maximize(c)
            assert got.status is ref.status
            assert got.value == ref.value
            assert got.pivots == ref.pivots
            if ref.point is None:
                assert got.point is None
            else:
                assert np.array_equal(got.point, ref.point)
            seen.add(got.status)
        assert np.array_equal(tab.T, T) and np.array_equal(tab.basis, basis)
    assert seen == {lp.LpStatus.OPTIMAL, lp.LpStatus.UNBOUNDED}
    assert 10 <= infeasible <= 60


def _identical(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _outcome(loop, T, basis, nact, tol):
    """(status, pivots) of a pivot loop, or the message of its failure."""
    try:
        return loop(T, basis, nact, tol)
    except NumericalFailure as exc:
        return str(exc)


def _both_loops(T, basis, nact, tol=1e-8, loop=None):
    """Run the reference loop on a copy of a priced tableau and ``loop``
    (lp's by default) on the tableau itself; they must agree bit for bit.
    Returns the outcome."""
    want_T, want_basis = T.copy(), basis.copy()
    want = _outcome(reference_iterate, want_T, want_basis, nact, tol)
    got = _outcome(loop or lp._iterate, T, basis, nact, tol)
    assert got == want
    assert _identical(T, want_T) and _identical(basis, want_basis)
    return got


def _check_kernel(monkeypatch):
    """Route lp's kernel through wrappers that replay each call on a copy
    with the reference kernel and require the same result, tableau and
    basis.  Returns the outcome of every pivot loop, in call order."""
    outcomes = []
    real_pivot, real_price_out, real_iterate = lp._pivot, lp._price_out, lp._iterate

    def pivot(T, r, j, buf=None):
        want = T.copy()
        reference_pivot(want, r, j)
        real_pivot(T, r, j, buf)
        assert _identical(T, want)

    def price_out(T, basis):
        want = T.copy()
        reference_price_out(want, basis)
        real_price_out(T, basis)
        assert _identical(T, want)

    def iterate(T, basis, nact, tol):
        got = _both_loops(T, basis, nact, tol, real_iterate)
        outcomes.append(got)
        if isinstance(got, str):
            raise NumericalFailure(got)
        return got

    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(lp, "_price_out", price_out)
    monkeypatch.setattr(lp, "_iterate", iterate)
    return outcomes


def test_kernel_matches_reference(monkeypatch):
    outcomes = _check_kernel(monkeypatch)
    rng = np.random.default_rng(29)
    for t in range(120):
        model = (_set_model if t % 2 else _batch_model)(rng)
        model.objective = rng.normal(size=model.num_vars)
        tab = lp.phase_one(model)
        if tab.feasible:
            tab.maximize(model.objective)
            tab.cut(zero=np.flatnonzero(rng.uniform(size=model.num_vars) < 0.4))
    # cold roots and warm children of two search trees
    for seed in (70, 158):
        inst, _ = planted_instance(np.random.default_rng(seed), 6, 3, 8)
        assert bnb_solve(inst, compute_lin_hull(inst)).nodes_explored >= 20
    assert len(outcomes) >= 300
    assert {o[0] for o in outcomes} == {"optimal", "unbounded"}


def _has_negative_zero(T):
    return bool((np.signbit(T) & (T == 0)).any())


def test_kernel_sees_no_negative_zero(monkeypatch):
    # The BLAS rank-1 update gives +0.0 for a zero product where the
    # reference gives -0.0; the two agree bit for bit only on tableaux free
    # of -0.0.  These wrappers sit under those of _check_kernel.
    seen = []
    real_pivot, real_iterate = lp._pivot, lp._iterate

    def pivot(T, r, j, buf=None):
        assert not _has_negative_zero(T)
        real_pivot(T, r, j, buf)
        assert not _has_negative_zero(T)
        seen.append(T.shape)

    def iterate(T, basis, nact, tol):
        assert not _has_negative_zero(T)
        return real_iterate(T, basis, nact, tol)

    monkeypatch.setattr(lp, "_pivot", pivot)
    monkeypatch.setattr(lp, "_iterate", iterate)
    test_kernel_matches_reference(monkeypatch)
    assert len(seen) >= 1000


def test_pivot_on_a_negative_entry_matches_reference():
    # The purge pivots on an entry of either sign.  Dividing the pivot row
    # by a negative entry turns +0.0 into -0.0, which the kernel must clear.
    rng = np.random.default_rng(5)
    for _ in range(50):
        T = rng.normal(size=(5, 8)) * (rng.uniform(size=(5, 8)) < 0.5) + 0.0
        r, j = int(rng.integers(0, 4)), int(rng.integers(0, 7))
        T[r, j] = -0.5 - abs(T[r, j])
        assert (T[r] == 0).any()
        want = T.copy()
        reference_pivot(want, r, j)
        lp._pivot(T, r, j)
        assert _identical(T, want) and not _has_negative_zero(T)


def _degenerate_tableau(seed):
    """Slack basis, zero right-hand side and log-uniform entries: every
    pivot is degenerate."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 4)), int(rng.integers(4, 8))
    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = rng.choice((-1.0, 1.0), size=(m, n)) * 10.0 ** rng.uniform(-2, 2, (m, n))
    T[:m, n : n + m] = np.eye(m)
    T[-1, :n] = rng.choice((-1.0, 1.0), size=n) * 10.0 ** rng.uniform(-2, 2, n)
    return T, np.arange(n, n + m), n + m


def test_kernel_edge_tableaux():
    # no rows: a positive reduced cost is unbounded, none is optimal
    assert _both_loops(np.array([[1.0, 0.0]]), np.zeros(0, dtype=int), 1) == ("unbounded", 0)
    assert _both_loops(np.array([[-1.0, 0.0]]), np.zeros(0, dtype=int), 1) == ("optimal", 0)
    # column 0 has no positive entry
    T = np.array([[-1.0, 1.0, 0.0, 2.0], [0.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    assert _both_loops(T, np.array([1, 2]), 3) == ("unbounded", 0)
    # both rows tie in the ratio test; Dantzig's rule takes the first
    T = np.array([[1.0, 1.0, 0.0, 1.0], [2.0, 0.0, 1.0, 2.0], [1.0, 0.0, 0.0, 0.0]])
    basis = np.array([1, 2])
    assert _both_loops(T, basis, 3) == ("optimal", 1)
    assert basis.tolist() == [0, 2]
    # a near tie: ratios [1 + 1e-13, 1.0], so argmin points at row 1, but
    # row 0 is within the tie threshold and comes first, so it leaves; the
    # guard then zeroes row 1's right-hand side of -1e-13
    T = np.array([[1.0, 1.0, 0.0, 1.0 + 1e-13], [1.0, 0.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0]])
    basis = np.array([1, 2])
    assert _both_loops(T, basis, 3) == ("optimal", 1)
    assert basis.tolist() == [0, 2] and T[1, -1] == 0.0
    # Seed found by a search over _degenerate_tableau draws: Dantzig's rule
    # makes 10 * m = 20 degenerate pivots, so the loop switches to Bland's
    # rule, which ends it one pivot later.
    T, basis, nact = _degenerate_tableau(146742)
    m = T.shape[0] - 1
    assert m == 2 and not T[:m, -1].any()
    assert _both_loops(T, basis, nact) == ("optimal", 10 * m + 1)


def test_iterate_without_columns_is_optimal():
    # two rows with artificials basic and no real column to enter
    T = np.array([[1.0], [0.0], [1.0]])
    basis = np.array([0, 1])
    assert lp._iterate(T, basis, 0, 1e-8) == ("optimal", 0)
    assert T.tolist() == [[1.0], [0.0], [1.0]] and basis.tolist() == [0, 1]


def _guard_tableau(rhs1):
    """x0 pivots into row 0; row 1 has right-hand side rhs1 and a zero in
    x0's column, so the pivot leaves it as it is."""
    T = np.array([[1.0, 1.0, 0.0, 1.0], [0.0, 0.0, 1.0, rhs1], [1.0, 0.0, 0.0, 0.0]])
    return T, np.array([1, 2])


def test_iterate_raises_on_negative_rhs():
    T, basis = _guard_tableau(-1e-3)
    with pytest.raises(NumericalFailure, match="tableau right-hand side went negative"):
        lp._iterate(T, basis, 3, 1e-8)


def test_iterate_zeroes_tiny_negative_rhs():
    T, basis = _guard_tableau(-5e-10)
    assert lp._iterate(T, basis, 3, 1e-8) == ("optimal", 1)
    assert T[1, -1] == 0.0


def _shifted(second, shift, tight=()):
    """Phase-one tableau of x0 = 1 and the second row over x0, x1 >= 0, cut
    to make the rows in tight equations, with the basic value of x0 moved
    by shift."""
    model = lp.LpModel(2)
    model.add_row([1.0, 0.0], lp.EQ, 1.0)
    model.add_row(*second)
    tab = lp.phase_one(model)
    if len(tight):
        tab = tab.cut(tight=tight)
    tab.T[list(tab.basis).index(0), -1] += shift
    return tab


def test_point_residual_guard():
    # The guard compares the worst miss of any row with 1e-5 times the
    # largest |rhs| of any row, here 100: x0 = 1 may be missed by 1e-4.
    far = ([0.0, 1.0], lp.LE, 100.0)
    assert _shifted(far, 1e-4).point()[0] == pytest.approx(1.0 + 1e-4)
    assert _shifted(([100.0, 0.0], lp.LE, 100.0), -1e-4).point()[0] < 1.0
    with pytest.raises(NumericalFailure, match="solution failed the residual check"):
        _shifted(far, 2e-3).point()
    # the row 100 x0 ~ 100 is missed by 1e-2 > 1e-3, x0 = 1 only by 1e-4
    for second, shift in (
        (([100.0, 0.0], lp.LE, 100.0), 1e-4),
        (([100.0, 0.0], lp.GE, 100.0), -1e-4),
        (([100.0, 0.0], lp.EQ, 100.0), -1e-4),
    ):
        tab = _shifted(second, shift)
        if second[1] == lp.EQ:
            assert tab.T.shape[0] == 2  # the purge dropped the redundant row
        with pytest.raises(NumericalFailure, match="solution failed the residual check"):
            tab.point()
    # 100 x0 >= 100 is missed by nothing at x0 = 1 + 1e-4, but once a cut
    # makes it an equation, by 1e-2
    ge = ([100.0, 0.0], lp.GE, 100.0)
    assert _shifted(ge, 1e-4).point()[0] > 1.0
    with pytest.raises(NumericalFailure, match="solution failed the residual check"):
        _shifted(ge, 1e-4, tight=[1]).point()


def test_point_rejects_non_finite():
    # a NaN used to slip through: max(worst, nan) kept worst
    for bad in (np.nan, np.inf, -np.inf):
        model = lp.LpModel(1)
        model.add_row([1.0], lp.EQ, 1.0)
        tab = lp.phase_one(model)
        assert tab.point().tolist() == [1.0]
        tab.T[0, -1] = bad
        with pytest.raises(NumericalFailure, match="solution failed the residual check"):
            tab.point()
