"""Node LPs, the tree search, and the big-M export with its reader."""

import dataclasses
import itertools
import pathlib

import numpy as np
import pytest

from aarlcp import (
    MilpModel,
    MilpRow,
    NodeLimitExceeded,
    NumericalFailure,
    NodeLpBuilder,
    SolveOptions,
    SolveStatus,
    UNFIXED,
    bnb_solve,
    build_milp,
    compute_lin_hull,
    default_big_m,
    export_milp,
    lp,
    mixed_solve,
    oracle_enumerate,
    parse_lp_text,
    verify_policy,
)
from aarlcp.cli import read_instance
from aarlcp.milp import (
    ALL_TAGS,
    TAG_DIRECTION_COMP,
    TAG_HERE_AND_NOW,
    TAG_MIXED_DIRECTION,
    TAG_MIXED_NOMINAL,
    TAG_MIXED_PIN,
    TAG_NOMINAL_COMP,
    TAG_SUPPORT_LINK,
    TAG_W_DUAL_MATCH,
    TAG_W_DUAL_VALUE,
    TAG_Z_DUAL_MATCH,
    TAG_Z_DUAL_VALUE,
)
from support import (
    bigm_status,
    coupled_mixed_instance,
    dense_rows,
    export_1d_instance,
    export_mixed_instance,
    golden_instance,
    highs_status,
    mixed_1d,
    node_map,
    planted_instance,
    planted_mixed_instance,
    random_instance,
    reduction_instance,
    reference_node_model,
    reference_support_model,
    search_answer,
)


def test_node_lp_fixing_logic():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    builder = NodeLpBuilder(inst, basis)

    root = lp.lp_feasible(builder.model((UNFIXED, UNFIXED)))
    assert root.status is lp.LpStatus.OPTIMAL

    good = lp.lp_feasible(builder.model((1, 1)))
    assert good.status is lp.LpStatus.OPTIMAL
    pol = builder.extract_policy(good.point, (1, 1))
    assert verify_policy(inst, basis, pol).verified

    # empty support cannot clear q = (-1,-1)
    bad = lp.lp_feasible(builder.model((0, 0)))
    assert bad.status is lp.LpStatus.INFEASIBLE


def test_extract_policy_needs_full_fixing():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    builder = NodeLpBuilder(inst, basis)
    res = lp.lp_feasible(builder.model((1, UNFIXED)))
    with pytest.raises(ValueError):
        builder.extract_policy(res.point, (1, UNFIXED))
    # entries are checked before they are read as integers, not truncated
    with pytest.raises(ValueError):
        builder.model([0.7, 1.2])
    with pytest.raises(ValueError):
        builder.extract_policy(res.point, [True, 1.9])
    with pytest.raises(ValueError):
        builder.support_model([1, 0.5])


def test_solve_golden():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    report = bnb_solve(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    assert report.verification.verified
    assert report.nodes_explored >= 1
    assert report.lp_calls == report.nodes_explored
    assert np.array_equal(report.policy.x, [1, 1])


def test_solve_reductions():
    expected = {
        (2.0, 1.0): SolveStatus.FEASIBLE,
        (0.0, -1.0): SolveStatus.FEASIBLE,
        (0.5, -0.5): SolveStatus.INFEASIBLE,
    }
    for q, want in expected.items():
        inst = reduction_instance(q)
        basis = compute_lin_hull(inst)
        assert bnb_solve(inst, basis).status is want


def test_branching_does_not_assume_monotonicity():
    # empty support is feasible, full support is not: the search must
    # treat both children honestly rather than assume 1 dominates 0
    from aarlcp import Instance

    inst = Instance(
        M=np.array([[1.0]]),
        q=np.ones(1),
        T=np.zeros((1, 1)),
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array([-1.0, -1.0]),
    )
    basis = compute_lin_hull(inst)
    report = bnb_solve(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    assert np.array_equal(report.policy.x, [0])


def test_node_limit_enforced():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    with pytest.raises(NodeLimitExceeded):
        bnb_solve(inst, basis, SolveOptions(node_limit=1))


def test_parallel_matches_sequential():
    # the field is accepted and ignored: the search is serial either way
    rng = np.random.default_rng(31)
    cases = [planted_instance(rng, 4, 2, 5)[0] for _ in range(6)]
    cases.append(random_instance(rng, 3, 2, 5))
    for inst in cases:
        basis = compute_lin_hull(inst)
        with pytest.warns(DeprecationWarning, match="parallel is ignored"):
            opts = SolveOptions(parallel=True)
        assert search_answer(bnb_solve(inst, basis, opts)) == search_answer(
            bnb_solve(inst, basis)
        )


@pytest.mark.parametrize(
    "bad",
    [
        {"branching": "idx"},
        {"branching": ""},
        {"node_limit": 0},
        {"node_limit": -3},
        {"node_limit": 2.5},
        {"node_limit": True},
        {"tol": -1.0},
        {"tol": 0.0},
        {"tol": np.nan},
        {"tol": np.inf},
        {"tol": "1e-8"},
        {"tol": None},
        {"tol": True},
        {"tol": False},
        {"psd": "sometimes"},
    ],
)
def test_solve_options_reject_bad_values(bad):
    with pytest.raises(ValueError):
        SolveOptions(**bad)


def test_row_scaling_keeps_the_status():
    # A positive scaling of the rows of (M, q, T) maps every policy to
    # itself.  Node LPs divide each row by its infinity norm first, so rows
    # scaled by 1e6 or 1e-6 get the status of the unscaled instance.
    rng = np.random.default_rng(61)
    for trial in range(30):
        if trial % 2:
            inst = random_instance(rng, 5, 3, 8)
        else:
            inst, _ = planted_instance(rng, 5, 3, 8)
        want = bnb_solve(inst, compute_lin_hull(inst)).status
        d = 10.0 ** rng.choice((-6.0, 6.0), size=inst.n)
        scaled = dataclasses.replace(
            inst, M=inst.M * d[:, None], q=inst.q * d, T=inst.T * d[:, None]
        )
        assert bnb_solve(scaled, compute_lin_hull(scaled)).status is want, trial


def test_row_scaling_keeps_the_status_of_mixed_instances():
    # The same holds for the rows of (M, q, T, N) of a mixed instance.
    # Node LPs that kept those rows as given raised or answered infeasible
    # on 6 of these 40 scaled planted instances.
    rng = np.random.default_rng(71)
    for trial in range(20):
        pair = planted_mixed_instance(rng, 4, 2, 3)[:2]
        d = 10.0 ** rng.choice((-6.0, 6.0), size=4)
        for inst in pair:
            want = bnb_solve(inst, compute_lin_hull(inst)).status
            mixed = dataclasses.replace(inst.mixed, N=inst.mixed.N * d[:, None])
            scaled = dataclasses.replace(
                inst,
                M=inst.M * d[:, None],
                q=inst.q * d,
                T=inst.T * d[:, None],
                mixed=mixed,
            )
            assert bnb_solve(scaled, compute_lin_hull(scaled)).status is want, trial


@pytest.mark.parametrize("t", [110, 282])
def test_row_scaled_draws_certify(t):
    # Two draws of a 300-draw sweep of row-scaled planted instances on which
    # the search raised, because certification held the policy to an
    # absolute 1e-7 on rows scaled by 1e6 (residuals 8.3e-7 and 3.4e-7).
    # Slack rows are now measured relative to their data.
    rng = np.random.default_rng([13, t])
    inst, _ = planted_instance(rng, 5, 3, 8)
    d = 10.0 ** rng.choice((-6, 6), size=5)
    scaled = dataclasses.replace(
        inst, M=inst.M * d[:, None], q=inst.q * d, T=inst.T * d[:, None]
    )
    assert bnb_solve(inst, compute_lin_hull(inst)).status is SolveStatus.FEASIBLE
    report = bnb_solve(scaled, compute_lin_hull(scaled))
    assert report.status is SolveStatus.FEASIBLE
    assert report.verification.verified


def _node_residual(model, point):
    worst = 0.0
    for coeffs, rel, rhs in model.rows:
        d = float(coeffs @ point) - rhs
        worst = max(worst, d if rel == lp.LE else -d if rel == lp.GE else abs(d))
    return worst


def _walk(builder, warm):
    """Index-branching DFS; warm nodes cut the parent's tableau, which
    never has more rows than the root's.  Every node, cold and warm, keeps
    the status of the reference node LP with its nominal_comp and
    direction_comp rows, and its point meets those rows and the node LP's.
    Lifted to the formulation's columns, with r in place of sigma, the
    point has r >= 0 and meets every row of the full-space model.
    Returns the node count."""
    n = builder.n
    stack = [(tuple([UNFIXED] * n), None, None)]
    nodes = 0
    while stack:
        fixed, parent, key = stack.pop()
        nodes += 1
        model = builder.model(fixed)
        reference = reference_node_model(builder, fixed)
        feasible = lp.lp_feasible(reference).status is lp.LpStatus.OPTIMAL
        assert (lp.lp_feasible(model).status is lp.LpStatus.OPTIMAL) is feasible, fixed
        if warm and parent is not None:
            zero, tight = builder.fixing(*key)
            tab = parent.cut(zero, tight, 1e-8)
            assert tab.T.shape[0] <= root_rows, fixed
        else:
            tab = lp.phase_one(model)
        if parent is None:
            root_rows = tab.T.shape[0]
        assert tab.feasible is feasible, fixed
        if not tab.feasible:
            continue
        point = tab.point()
        assert _node_residual(model, point) <= 1e-7, fixed
        assert _node_residual(reference, point) <= 1e-7, fixed
        lifted = builder.lift(point)
        assert _node_residual(_full_space_model(builder, fixed), lifted) <= 1e-7, fixed
        assert lifted[builder.form.r].min() >= 0.0, fixed
        if UNFIXED not in fixed:
            return nodes
        i = fixed.index(UNFIXED)
        for v in (1, 0):
            child = list(fixed)
            child[i] = v
            stack.append((tuple(child), tab, (i, v)))
    return nodes


def test_warm_nodes_match_cold_solves():
    rng = np.random.default_rng(41)
    for trial in range(6):
        n, k = 5 + trial % 3, 2 + trial % 3
        if trial % 2 == 0:
            inst, _ = planted_instance(rng, n, k, 2 * k + 1)
        else:
            inst = random_instance(rng, n, k, 2 * k + 1)
        basis = compute_lin_hull(inst)
        builder = NodeLpBuilder(inst, basis)
        nodes = _walk(builder, warm=True)
        assert nodes == _walk(builder, warm=False)
        report = bnb_solve(inst, basis, SolveOptions(branching="index"))
        assert report.nodes_explored == nodes
        assert report.lp_pivots > 0


def test_warm_failure_falls_back_to_a_cold_solve(monkeypatch):
    rng = np.random.default_rng(44)
    inst = random_instance(rng, 4, 2, 5)
    basis = compute_lin_hull(inst)
    opts = SolveOptions(branching="index")
    want = bnb_solve(inst, basis, opts)
    assert want.nodes_explored > 3
    real_phase_one = lp.phase_one

    def warm_fails(self, zero=(), tight=(), tol=1e-8):
        raise NumericalFailure("injected")

    monkeypatch.setattr(lp.Tableau, "cut", warm_fails)
    report = bnb_solve(inst, basis, opts)
    assert report.status is want.status
    assert report.nodes_explored == want.nodes_explored
    # every node below the root: a failed warm attempt plus a cold re-solve
    assert report.lp_calls == 2 * report.nodes_explored - 1

    # the root solves; below it the warm attempt and the cold re-solve fail
    calls = []

    def cut_fails(self, zero=(), tight=(), tol=1e-8):
        calls.append("warm")
        raise NumericalFailure("injected")

    def cold_fails_after_root(model, tol=1e-8):
        calls.append("cold")
        if len(calls) > 1:
            raise NumericalFailure("injected")
        return real_phase_one(model, tol)

    monkeypatch.setattr(lp.Tableau, "cut", cut_fails)
    monkeypatch.setattr(lp, "phase_one", cold_fails_after_root)
    with pytest.raises(NumericalFailure):
        bnb_solve(inst, basis, opts)
    assert calls == ["cold", "warm", "cold"]


def test_fixings_cut_only_columns_forced_to_zero():
    """Cold models and warm chains that cut the forced columns give the
    feasibility of the uncut reference node LP, and each cut column stays
    at most about tol / |zeta_j| over the reference's feasible set."""
    tol = 1e-8
    rng = np.random.default_rng(53)
    for trial in range(18):
        n, k = 4 + trial % 3, 2 + trial % 2
        g, tight = 2 * k + 3, trial % 2 == 0
        if trial % 3 == 2:
            inst = random_instance(rng, n, k, g, tight)
            values = rng.integers(0, 2, n)
        else:
            inst, support = planted_instance(rng, n, k, g, tight)
            values = [int(i in support) for i in range(n)]
            if trial % 3 == 1:  # random values: pruned at some depth
                values = rng.integers(0, 2, n)
        basis = compute_lin_hull(inst)
        bound = 10 * tol / np.abs(inst.zeta[sorted(basis.inequality_rows)]).min()
        builder = NodeLpBuilder(inst, basis)
        fixed = [UNFIXED] * n
        tab = lp.phase_one(builder.model(fixed), tol)
        for i in rng.permutation(n):
            if not tab.feasible:
                break
            fixed[i] = values[i]
            where = (trial, tuple(fixed))
            reference = reference_node_model(builder, fixed)
            ref = lp.lp_feasible(reference, tol)
            feasible = ref.status is lp.LpStatus.OPTIMAL
            cold = lp.lp_feasible(builder.model(fixed), tol)
            assert (cold.status is lp.LpStatus.OPTIMAL) is feasible, where
            zero, tight = builder.fixing(i, values[i])
            tab = tab.cut(zero, tight, tol)
            assert tab.feasible is feasible, where
            if not feasible:
                continue
            assert _node_residual(reference, tab.point()) <= 1e-7, where
            for col in zero:
                top = ref.tableau.maximize(np.eye(builder.total)[col], tol)
                assert top.status is lp.LpStatus.OPTIMAL, where
                assert top.value <= bound, where


def test_warm_children_keep_the_columns_of_their_cold_model():
    """A fixing means one thing in warm and cold node LPs: every feasible
    warm child holds the columns of the cold model of the same fixing, each
    variable as often."""
    rng = np.random.default_rng(67)
    children = 0
    for trial in range(12):
        n, k = 5 + trial % 2, 2 + trial % 2
        g, tight = 2 * k + 2, trial % 4 == 0
        if trial % 2 == 0:
            inst, _ = planted_instance(rng, n, k, g, tight)
        else:
            inst = random_instance(rng, n, k, g, tight)
        builder = NodeLpBuilder(inst, compute_lin_hull(inst))
        root = tuple([UNFIXED] * n)
        stack = [(root, lp.phase_one(builder.model(root)))]
        while stack:
            fixed, tab = stack.pop()
            unfixed = [i for i, f in enumerate(fixed) if f == UNFIXED]
            if not tab.feasible or not unfixed:
                continue
            i = int(rng.choice(unfixed))
            for v in (0, 1):
                child = fixed[:i] + (v,) + fixed[i + 1 :]
                zero, tight = builder.fixing(i, v)
                warm = tab.cut(zero, tight, 1e-8)
                if warm.feasible:
                    cold = lp.phase_one(builder.model(child))
                    assert sorted(warm.var) == sorted(cold.var), (trial, child)
                    children += 1
                stack.append((child, warm))
    assert children > 100


def test_cut_encodes_the_indicator_rows():
    """x_i = 1 cuts the slack of w_dual_value row i and all of C_i, and
    adds no rows: on pure draws with a tight pair, at h = 0
    and h >= 1, and on pinned and adjustable mixed draws, warm and cold
    node LPs keep the status of the reference node LP with its
    nominal_comp and direction_comp rows, warm points meet those rows, and
    no warm tableau outgrows the root (see _walk)."""
    rng = np.random.default_rng(83)
    nodes = 0
    for trial in range(6):
        n, k = 4 + trial % 2, 2 + trial % 2
        planted, _ = planted_instance(rng, n, k, 2 * k + 2, tight_pair=True)
        pure = random_instance(rng, n, k, 2 * k + 2, tight_pair=True)
        insts = [planted, dataclasses.replace(planted, h=1 + trial % 2), pure]
        insts += planted_mixed_instance(rng, 3, 1 + trial % 2, k)[:2]
        for inst in insts:
            nodes += _walk(NodeLpBuilder(inst, compute_lin_hull(inst)), warm=True)
    assert nodes >= 250


def test_warm_prune_ignores_rounding_residue():
    """A permuted mixed pinned instance, feasible by construction, whose
    warm child x_2 = 0 under x_0 = 1 cut basic columns left at 6.6e-10 to
    1.1e-8 by rounding; counted as artificials, they summed past tol and
    the search answered infeasible."""
    inst = read_instance(str(pathlib.Path(__file__).parent / "data" / "residue_mixed_pinned.json"))
    basis = compute_lin_hull(inst)
    for branching in ("heuristic", "index"):
        report = bnb_solve(inst, basis, SolveOptions(branching=branching))
        assert report.status is SolveStatus.FEASIBLE, branching
        assert report.verification.verified


def test_node_rows_equal_dense_rows_times_z():
    """Node LPs render four families, each block by block into node
    columns, and each equals its dense rows times the explicit map Z from
    node to formulation columns; lift is Z.  On pure, mixed (pinned and
    adjustable) and h >= 1 draws.  The other seven are bounds or cuts:
    z_dual_value rows times Z are exactly sigma_i, here_and_now rows times
    Z are rows of Theta^T on A_i columns bounded at [0, 0], and mixed_pin
    rows times Z are unit rows on E columns a pinned model cuts.  x_i = 1
    makes w_dual_value row i of the node LP an equation and adds no rows.
    The support model holds the very row objects of the node LP of the
    same fixing: the w_dual_value and w_dual_match rows of each x_i = 1,
    then the coupling rows."""
    rng = np.random.default_rng(19)
    insts = [export_mixed_instance()]
    for trial in range(4):
        n, k = 3 + trial % 3, 2 + trial % 2
        inst = random_instance(rng, n, k, 2 * k + 2, tight_pair=trial % 2 == 0)
        insts += [inst, dataclasses.replace(inst, h=1 + trial % 2)]
        pinned, freed, _ = planted_mixed_instance(rng, n, 1 + trial % 2, k)
        insts += [pinned, freed, dataclasses.replace(freed, h=1)]
    rendered = (TAG_W_DUAL_VALUE, TAG_W_DUAL_MATCH, TAG_MIXED_NOMINAL, TAG_MIXED_DIRECTION)

    def check(form, Z, rows, fams, where):
        want = np.vstack([dense_rows(form, fam) @ Z for fam in fams])
        assert len(rows) == len(want), where
        if rows:
            got = np.array([coeffs for coeffs, _, _ in rows])
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max(), where
            assert [rel for _, rel, _ in rows] == [f.rel for f in fams for _ in f.rhs]
            assert np.array_equal([rhs for _, _, rhs in rows], np.hstack([f.rhs for f in fams]))

    def bounded_at_zero(model, cols):
        return not model.lower[cols].any() and not model.upper[cols].any()

    for t, inst in enumerate(insts):
        builder = NodeLpBuilder(inst, compute_lin_hull(inst))
        form, Z, n = builder.form, node_map(builder), inst.n
        k = form.inst.k  # the hull's dimension: node LPs work in hull coordinates
        node = np.arange(form.total) - n * k  # node column, D first
        root = [UNFIXED] * n
        root_model = builder.model(root)
        fams = {tag: getattr(form, tag)() for tag in ALL_TAGS}
        check(form, Z, root_model.rows, [fams[tag] for tag in rendered], t)

        # z_dual_value row i times Z is sigma_i, as the rendered zeta < 0
        z_rows = dense_rows(form, fams[TAG_Z_DUAL_VALUE]) @ Z
        want = np.zeros_like(z_rows)
        want[np.arange(n), node[form.r]] = 1.0
        assert np.array_equal(z_rows, want), t
        assert not fams[TAG_Z_DUAL_VALUE].rhs.any()
        # here_and_now rows times Z are rows of Theta^T on the A_i columns
        # of i < h, which every model cuts
        now = dense_rows(form, fams[TAG_HERE_AND_NOW]) @ Z
        want = np.zeros_like(now)
        for i in range(inst.h):
            want[i * k : (i + 1) * k, node[form.A[i]]] = form.inst.Theta.T
        assert np.array_equal(now, want) and len(now) == inst.h * k, t
        assert not fams[TAG_HERE_AND_NOW].rhs.any()
        assert bounded_at_zero(root_model, node[form.A[: inst.h].ravel()]), t
        assert np.isinf(root_model.upper[node[form.A[inst.h :].ravel()]]).all(), t
        # mixed_pin rows times Z are unit rows on E columns the model cuts
        pin = dense_rows(form, fams[TAG_MIXED_PIN]) @ Z
        pinned_cols = np.flatnonzero(np.abs(pin).sum(axis=0))
        assert np.array_equal(pin[:, pinned_cols], np.eye(len(pin))), t
        assert np.isin(pinned_cols, node[form.E.ravel()]).all(), t
        assert bounded_at_zero(root_model, pinned_cols), t
        if inst.mixed is not None and not inst.mixed.y_adjustable:
            assert len(pinned_cols) == form.E.size > 0, t
        else:
            assert np.isinf(root_model.upper[node[form.E.ravel()]]).all(), t

        # row positions of the rendered families in every node LP
        start = np.cumsum([0] + [len(fams[tag].rhs) for tag in rendered])
        w_match = start[1] + np.arange(n * k).reshape(n, k)
        coupling = list(range(start[2], start[4]))

        def check_support(fixed, where):
            rows = builder.model(fixed).rows
            ones = [i for i, f in enumerate(fixed) if f == 1]
            picked = [rows[p] for i in ones for p in (start[0] + i, *w_match[i])]
            picked += [rows[p] for p in coupling]
            support = builder.support_model(fixed).rows
            assert len(support) == len(picked), where
            for (c, rel, rhs), (want_c, want_rel, want_rhs) in zip(support, picked):
                assert c is want_c and (rel, rhs) == (want_rel, want_rhs), where

        def part(fam, mine, **changes):
            blocks = {group: block[mine] for group, block in fam.blocks.items()}
            return dataclasses.replace(fam, rhs=fam.rhs[mine], blocks=blocks, **changes)

        check_support(root, t)
        root_rows = root_model.rows
        for i in range(n):
            one = root[:i] + [1] + root[i + 1 :]
            check_support(one, (t, i))
            (row,) = builder.fixing(i, 1)[1]
            assert row == i
            rows = builder.model(one).rows
            w_row = part(fams[TAG_W_DUAL_VALUE], [i], rel=lp.EQ)
            check(form, Z, rows[row : row + 1], [w_row], (t, i))
            others = rows[:row] + rows[row + 1 :], root_rows[:row] + root_rows[row + 1 :]
            assert all(a is b for a, b in zip(*others)) and len(rows) == len(root_rows)
            assert len(builder.fixing(i, 0)[1]) == 0
        check_support([i % 2 for i in range(n)], (t, "alternating"))
        check_support([1] * n, (t, "ones"))
        point = rng.standard_normal(builder.total)
        lifted = Z @ point
        assert np.abs(builder.lift(point) - lifted).max() <= 1e-15 * np.abs(lifted).max()
        assert np.abs(builder.r_of(point) - lifted[form.r]).max() <= 1e-15 * np.abs(lifted).max()


def test_support_model_matches_dense_indicator_rows():
    """On every support of seeded draws with n <= 4 (pure, mixed pinned and
    adjustable, h >= 1, a tight row pair), the support model, a selection
    of node LP rows, is feasible exactly when the coupling rows and the
    dense nominal_comp and direction_comp rows of its x_i = 1 are, under
    the node LP's bounds."""
    rng = np.random.default_rng(83)
    insts = []
    for trial in range(6):
        n, k = 2 + trial % 3, 2
        inst = random_instance(rng, n, k, 2 * k + 2, tight_pair=trial % 2 == 0)
        planted, _ = planted_instance(rng, n, k, 2 * k + 2, tight_pair=trial % 2 == 1)
        insts += [inst, dataclasses.replace(planted, h=1 + trial % 2 if n > 2 else 1)]
        insts += planted_mixed_instance(rng, n, 1 + trial % 2, k)[:2]
    counts = {lp.LpStatus.OPTIMAL: 0, lp.LpStatus.INFEASIBLE: 0}
    for t, inst in enumerate(insts):
        builder = NodeLpBuilder(inst, compute_lin_hull(inst))
        for fixed in itertools.product((0, 1), repeat=inst.n):
            got = lp.lp_feasible(builder.support_model(fixed)).status
            want = lp.lp_feasible(reference_support_model(builder, fixed)).status
            assert got is want, (t, fixed)
            counts[got] += 1
    assert min(counts.values()) >= 40, counts


def test_node_lps_drop_the_z_dual_value_and_mixed_pin_rows():
    """The root node LP has n fewer rows and n fewer slack columns than the
    reference node LP that renders z_dual_value, h k fewer rows as it cuts
    the A_i of i < h instead of carrying here_and_now rows, and a pinned
    mixed model cuts every E column instead of carrying mixed_pin rows."""
    rng = np.random.default_rng(61)
    insts = [golden_instance(), export_mixed_instance()]
    for trial in range(3):
        n, k = 3 + trial, 2 + trial % 2
        insts.append(random_instance(rng, n, k, 2 * k + 2, tight_pair=trial % 2 == 0))
        insts += planted_mixed_instance(rng, n, 1 + trial % 2, k)[:2]
    pinned = 0
    for t, inst in enumerate(insts):
        builder = NodeLpBuilder(inst, compute_lin_hull(inst))
        form, n, root = builder.form, inst.n, [UNFIXED] * inst.n
        model, reference = builder.model(root), reference_node_model(builder, root)
        pins = form.E.size if inst.mixed is not None and not inst.mixed.y_adjustable else 0
        assert len(model.rows) == len(reference.rows) - n - pins - inst.h * form.inst.k, t
        tab, ref = lp.phase_one(model), lp.phase_one(reference)
        assert len(tab.slack_row) == len(ref.slack_row) - n == n, t
        E = form.E.ravel() - n * form.inst.k
        assert bool(np.isin(tab.var, E).any()) is (form.E.size > 0 and not pins), t
        pinned += pins > 0
    assert pinned >= 3


def _tight_pair_draw(seed, tol):
    """A planted instance (n = 4, k = 3, g = 9) whose tight row pair sits
    off the origin by +-tol / 2, and the indices of that pair."""
    rng = np.random.default_rng([97, seed])
    planted, _ = planted_instance(rng, 4, 3, 9, tight_pair=True)
    zeta = planted.zeta.copy()
    (pair,) = np.flatnonzero(zeta == 0.0).reshape(1, 2)
    zeta[pair] = [0.5 * tol, -0.5 * tol]
    return dataclasses.replace(planted, zeta=zeta), pair


@pytest.mark.parametrize("branching", ["heuristic", "index"])
def test_tight_set_rows_off_the_origin_certify(branching):
    """Over 30 draws of a planted instance whose tight row pair sits off the
    origin by +-tol / 2, every search answers feasible with a certified
    policy.  Node LPs that kept the given 5e-9 entries let the multipliers
    of those rows grow to about 1e9, and 3 of the index searches raised on
    a policy that failed certification."""
    opts = SolveOptions(branching=branching, psd="off")
    for seed in range(30):
        inst, _ = _tight_pair_draw(seed, opts.tol)
        report = bnb_solve(inst, compute_lin_hull(inst, opts.tol), opts)
        assert report.status is SolveStatus.FEASIBLE, seed
        assert report.verification.verified, seed


def test_tight_set_rows_off_the_origin_by_at_most_tol():
    """compute_lin_hull accepts a tight row pair v u >= zeta_j,
    -v u >= -zeta_j with 0 < zeta_j <= tol, so zeta has a positive and a
    negative entry on tight rows.  Node LPs solve in hull coordinates, which
    drop both rows, so every fixing cuts a whole block: x_i = 0 cuts sigma_i
    and all of A_i, x_i = 1 all of C_i.  Over the index-branching tree of
    warm children, each warm child keeps the status of its cold node LP,
    which keeps the status of the reference node LP wherever the dense
    solver solves that one, and the lifted point of every feasible node,
    warm and cold, meets r >= 0 and r_i + zeta^T A_i >= 0 exactly for the
    rendered zeta."""
    tol = 1e-8
    compared = points = unsolved = 0
    for seed in range(6):
        inst, pair = _tight_pair_draw(seed, tol)
        basis = compute_lin_hull(inst, tol)
        assert set(pair).isdisjoint(basis.inequality_rows)
        builder = NodeLpBuilder(inst, basis)
        form = builder.form
        rendered = form.inst.zeta
        assert form.inst.g == len(basis.inequality_rows)
        assert form.inst.k == basis.dimension
        skip = inst.n * form.inst.k
        for i in range(inst.n):
            assert set(builder.fixing(i, 0)[0]) == {form.r[i] - skip, *(form.A[i] - skip)}
            assert set(builder.fixing(i, 1)[0]) == set(form.C[i] - skip)
        stack = [(tuple([UNFIXED] * inst.n), None, None)]
        while stack:
            fixed, parent, key = stack.pop()
            cold = lp.phase_one(builder.model(fixed), tol)
            tab = cold if parent is None else parent.cut(*builder.fixing(*key), tol)
            assert tab.feasible is cold.feasible, (seed, fixed)
            try:
                ref = lp.phase_one(reference_node_model(builder, fixed), tol)
            except NumericalFailure:
                unsolved += 1
            else:
                compared += 1
                assert ref.feasible is cold.feasible, (seed, fixed)
            for node in (tab, cold):
                if node.feasible:
                    points += 1
                    lifted = builder.lift(node.point())
                    r, A = lifted[builder.form.r], lifted[builder.form.A]
                    assert r.min() >= 0.0, (seed, fixed)
                    assert (r + A @ rendered).min() >= 0.0, (seed, fixed)
            if tab.feasible and UNFIXED in fixed:
                i = fixed.index(UNFIXED)
                stack += [(fixed[:i] + (v,) + fixed[i + 1 :], tab, (i, v)) for v in (0, 1)]
    assert compared >= 70 and points >= 100 and unsolved <= compared // 10


def _full_space_model(builder, fixed):
    """The node LP before the presolve: free D columns and z_dual_match rows."""
    form = builder.form
    model = lp.LpModel(form.total)
    model.set_free(form.free)
    for tag in ALL_TAGS:
        fam = getattr(form, tag)()
        holds = slice(None) if fam.i is None else np.array(fixed)[fam.i] == fam.value
        for coeffs, rhs in zip(dense_rows(form, fam)[holds], fam.rhs[holds]):
            model.add_row(coeffs, fam.rel, rhs)
    return model


def _presolve_walk(inst):
    """Index-branching DFS comparing each node LP with its full-space model.

    Returns the number of feasible leaves reached (0 or 1)."""
    basis = compute_lin_hull(inst)
    builder = NodeLpBuilder(inst, basis)
    form, h = builder.form, inst.h
    assert builder.total == form.total - inst.n * inst.k
    stack = [tuple([UNFIXED] * inst.n)]
    while stack:
        fixed = stack.pop()
        full = _full_space_model(builder, fixed)
        res = lp.lp_feasible(builder.model(fixed))
        assert res.status is lp.lp_feasible(full).status, fixed
        if res.status is not lp.LpStatus.OPTIMAL:
            continue
        lifted = builder.lift(res.point)
        assert _node_residual(full, lifted) <= 1e-7, fixed
        if UNFIXED not in fixed:
            A = lifted[form.A]
            D = builder.extract_policy(res.point, fixed).D
            assert np.allclose(D[h:], A[h:] @ inst.Theta, rtol=0.0, atol=1e-12)
            assert not D[:h].any()
            assert np.abs(A[:h] @ inst.Theta).max(initial=0.0) <= 1e-7
            return 1
        i = fixed.index(UNFIXED)
        for v in (0, 1):
            child = list(fixed)
            child[i] = v
            stack.append(tuple(child))
    return 0


def test_presolved_nodes_match_full_space_nodes():
    # node LPs drop D = Theta^T A and its z_dual_match rows; each node must
    # keep the status of the full-space LP, and its lifted point must meet
    # every full-space row, here-and-now rows included
    rng = np.random.default_rng(53)
    leaves = 0
    for trial in range(6):
        n, k = 4 + trial % 2, 2 + trial % 2
        if trial % 2 == 0:
            inst, _ = planted_instance(rng, n, k, 2 * k + 1)
        else:
            inst = random_instance(rng, n, k, 2 * k + 1)
        for h in (0, 1 + trial % 2):
            leaves += _presolve_walk(dataclasses.replace(inst, h=h))
    for _ in range(3):
        for inst in planted_mixed_instance(rng, int(rng.integers(2, 4)), 2, 2)[:2]:
            leaves += _presolve_walk(inst)
    assert leaves >= 6


def test_here_and_now_search_matches_oracle():
    rng = np.random.default_rng(61)
    feasible = 0
    for trial in range(40):
        n, k = int(rng.integers(4, 7)), int(rng.integers(2, 4))
        if trial % 2 == 0:
            inst, _ = planted_instance(rng, n, k, 2 * k + 1)
        else:
            inst = random_instance(rng, n, k, 2 * k + 1)
        inst = dataclasses.replace(inst, h=int(rng.integers(1, 3)))
        basis = compute_lin_hull(inst)
        report = bnb_solve(inst, basis)
        assert report.status is oracle_enumerate(inst, basis).status, trial
        if report.status is SolveStatus.FEASIBLE:
            feasible += 1
            assert not report.policy.D[: inst.h].any()
    assert 0 < feasible < 40


def test_index_branching_matches_heuristic():
    rng = np.random.default_rng(37)
    for _ in range(5):
        inst, _ = planted_instance(rng, 4, 2, 5)
        basis = compute_lin_hull(inst)
        a = bnb_solve(inst, basis)
        b = bnb_solve(inst, basis, SolveOptions(branching="index"))
        assert a.status is b.status


def test_solve_covers_mixed_instances():
    # one search and one certifier for both kinds: verify_policy certifies
    # the free block of every policy mixed_solve returns, and bnb_solve
    # takes mixed instances and matches mixed_solve node for node
    rng = np.random.default_rng(71)
    cases = [coupled_mixed_instance(True), coupled_mixed_instance(False)]
    for _ in range(6):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 3))
        cases += planted_mixed_instance(rng, n, m, 2)[:2]
    feasible = 0
    for inst in cases:
        basis = compute_lin_hull(inst)
        want = mixed_solve(inst, basis)
        if want.status is SolveStatus.FEASIBLE:
            feasible += 1
            report = verify_policy(inst, basis, want.policy)
            assert report.verified, report.violations
            assert report.equality_residual is not None
        got = bnb_solve(inst, basis)
        assert got.status is want.status
        assert got.nodes_explored == want.nodes_explored
        assert got.lp_pivots == want.lp_pivots
        if want.policy is not None:
            for name in ("D", "r", "x", "E", "s"):
                a, b = getattr(got.policy, name), getattr(want.policy, name)
                assert a.tobytes() == b.tobytes(), name
    assert feasible == len(cases) - 1


def test_milp_row_counts():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    model = build_milp(inst, basis, big_m=10.0)
    n, k, g, ell = 2, 2, 4, 1
    assert len(model.rows_by_tag(TAG_SUPPORT_LINK)) == n
    assert len(model.rows_by_tag(TAG_NOMINAL_COMP)) == 2 * n
    assert len(model.rows_by_tag(TAG_DIRECTION_COMP)) == 2 * n * ell
    assert len(model.rows_by_tag(TAG_Z_DUAL_VALUE)) == n
    assert len(model.rows_by_tag(TAG_Z_DUAL_MATCH)) == n * k
    assert len(model.rows_by_tag(TAG_W_DUAL_VALUE)) == n
    assert len(model.rows_by_tag(TAG_W_DUAL_MATCH)) == n * k
    assert len(model.rows_by_tag(TAG_HERE_AND_NOW)) == 0
    assert len(model.continuous) == n * k + n + 2 * g * n
    assert model.binaries == ["x1", "x2"]

    # a pinned free block and h = 1: every family writes rows
    inst = export_mixed_instance()
    basis = compute_lin_hull(inst)
    model = build_milp(inst, basis, big_m=10.0)
    n, k, g, ell, m, h = 3, 3, 8, 2, 2, 1
    assert len(basis.vectors) == ell
    counts = {
        TAG_SUPPORT_LINK: n,
        TAG_NOMINAL_COMP: 2 * n,
        TAG_DIRECTION_COMP: 2 * n * ell,
        TAG_Z_DUAL_VALUE: n,
        TAG_Z_DUAL_MATCH: n * k,
        TAG_W_DUAL_VALUE: n,
        TAG_W_DUAL_MATCH: n * k,
        TAG_HERE_AND_NOW: h * k,
        TAG_MIXED_NOMINAL: m,
        TAG_MIXED_DIRECTION: m * ell,
        TAG_MIXED_PIN: m * k,
    }
    assert {tag: len(model.rows_by_tag(tag)) for tag in ALL_TAGS} == counts
    assert len(model.rows) == sum(counts.values())
    assert len(model.continuous) == n * k + n + 2 * g * n + m + m * k
    assert len(model.free) == n * k + m + m * k


@pytest.mark.parametrize("fmt", ["lp", "mps"])
@pytest.mark.parametrize("name", ["golden", "mixed"])
def test_export_text_is_pinned(name, fmt):
    """LP and MPS text of the golden instance and of a mixed instance whose
    rows cover every family, byte for byte as written in tests/data."""
    inst = {"golden": golden_instance, "mixed": export_mixed_instance}[name]()
    text = export_milp(build_milp(inst, compute_lin_hull(inst)), fmt)
    assert text == (pathlib.Path(__file__).parent / "data" / f"{name}.{fmt}").read_text()


def test_support_link_renders_exactly():
    inst = export_1d_instance()
    basis = compute_lin_hull(inst)
    model = build_milp(inst, basis, big_m=10.0)
    text = export_milp(model, "lp")
    assert " sl1: r1 - 10 x1 <= 0" in text.splitlines()
    assert "Binaries" in text
    assert " D1_1 free" in text.splitlines()


def test_default_big_m_scales_with_data():
    inst = export_1d_instance()
    b = default_big_m(inst)
    assert b >= 1e4 * 4.0  # the largest entry is |q| = 4
    with pytest.raises(ValueError):
        build_milp(inst, compute_lin_hull(inst), big_m=-1.0)
    # the free block feeds the slack (w(0) = 3e5 - 4 here), so its data
    # count too; a constant from M, q, T and zeta alone (4e4) would cut the
    # only policy
    mixed = mixed_1d(1e5)
    basis = compute_lin_hull(mixed)
    assert default_big_m(mixed) >= 1e4 * 1e5
    assert mixed_solve(mixed, basis).status is SolveStatus.FEASIBLE
    parsed = parse_lp_text(export_milp(build_milp(mixed, basis), "lp"))
    assert bigm_status(parsed) == "feasible"


def test_export_matches_mixed_search():
    # seeded planted pairs (pinned and adjustable block), plus a pair whose
    # pinned side is infeasible, so the export must honour the pin rows
    rng = np.random.default_rng(41)
    pairs = [
        planted_mixed_instance(rng, int(rng.integers(1, 4)), 2, 2)[:2] for _ in range(4)
    ]
    pairs.append((coupled_mixed_instance(False), coupled_mixed_instance(True)))
    # a pinned block on a set with an implicit equality, and its twin
    mixed = export_mixed_instance()
    freed = dataclasses.replace(mixed.mixed, y_adjustable=True)
    pairs.append((mixed, dataclasses.replace(mixed, mixed=freed)))
    statuses = set()
    for pair in pairs:
        for inst in pair:
            basis = compute_lin_hull(inst)
            want = mixed_solve(inst, basis).status.value
            model = build_milp(inst, basis)
            assert "s1" in model.free and "E1_1" in model.free
            got = bigm_status(parse_lp_text(export_milp(model, "lp")))
            assert got == want, f"export says {got}, search {want}"
            statuses.add(want)
    assert statuses == {"feasible", "infeasible"}


def test_lp_text_round_trip():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    model = build_milp(inst, basis, big_m=10.0)
    parsed = parse_lp_text(export_milp(model, "lp"))
    assert parsed.binaries == model.binaries
    assert len(parsed.rows) == len(model.rows)
    by_name = {name: (terms, rel, rhs) for name, terms, rel, rhs in parsed.rows}
    for row in model.rows:
        terms, rel, rhs = by_name[row.name]
        assert rel == row.relation
        assert rhs == pytest.approx(row.rhs, abs=1e-12)
        assert terms == pytest.approx(row.coeffs)
    for name in model.free:
        assert parsed.bounds[name] == (-np.inf, np.inf)
    # the export declares free variables only, so the parser takes no other bound
    bad = (" 0 <= r1 <= 2", " r1 <= 2", " r1 >= 1", " r1 = 0", " r1 fr", " r1 FREE")
    for line in bad:
        with pytest.raises(ValueError, match="unsupported bound line"):
            parse_lp_text(f"Minimize\n obj: r1\nSubject To\nBounds\n{line}\nEnd\n")


def test_lp_text_writes_every_term_form():
    # first terms with c = -1, c < 0 and c > 0, and an empty row, which no
    # export of the benchmark corpora has
    rows = [
        MilpRow("e1", {}, lp.EQ, 0.0, TAG_HERE_AND_NOW),
        MilpRow("t1", {"r1": -1.0, "x1": 2.5}, lp.LE, -3.0, TAG_HERE_AND_NOW),
        MilpRow("t2", {"r1": -0.25, "x1": -1.0}, lp.GE, 1e-5, TAG_HERE_AND_NOW),
        MilpRow("t3", {"r1": 4.0, "x1": 1.0}, lp.EQ, 0.5, TAG_HERE_AND_NOW),
    ]
    model = MilpModel(10.0, rows, ["x1"], ["r1"], [])
    text = export_milp(model, "lp")
    for line in (
        " e1: 0 r1 = 0",
        " t1: - r1 + 2.5 x1 <= -3",
        " t2: -0.25 r1 - x1 >= 1e-05",
        " t3: 4 r1 + x1 = 0.5",
    ):
        assert line in text.splitlines()
    parsed = parse_lp_text(text)
    want = [(r.name, r.coeffs or {"r1": 0.0}, r.relation, r.rhs) for r in rows]
    assert parsed.rows == want
    assert parsed.binaries == ["x1"] and parsed.bounds == {}


@pytest.mark.parametrize(
    "text, match",
    [
        ("Maximize\n obj: 0\n", "unknown section header"),
        ("Minimize\n obj: 0\nst\n", "unknown section header"),
        ("Subject To\n c1: r1 <= 1\nbin\n x1\n", "unknown section header"),
        ("Subject To\n c1: r1 + x1\n", "relation"),
        ("Subject To\n r1 <= 1\n", "relation"),
        ("Subject To\n c1: r1 + 3 <= 5\n", "term without a variable"),
        ("Subject To\n c1: r1 x1 <= 5\n", "not joined by"),
        (" c1: r1 <= 1\n", "outside a section"),
    ],
)
def test_lp_reader_rejects_what_the_export_never_writes(text, match):
    with pytest.raises(ValueError, match=match):
        parse_lp_text(text)


def test_export_matches_highs_beyond_brute_force():
    # bigm_status enumerates 2^n binaries; HiGHS takes n = 10-14.  The
    # tight-pair draws (pure, h >= 1, mixed pinned and adjustable) have a
    # lower-dimensional set, which the search solves in hull coordinates
    # and the export writes in the given ones.
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(2208)
    insts = []
    for trial in range(8):
        n = 10 + trial % 5
        if trial % 2 == 0:
            inst, _ = planted_instance(rng, n, 3, 8)
        else:
            inst = random_instance(rng, n, 3, 8)
        insts.append(inst)
    for trial in range(3):
        n = 10 + trial
        if trial % 2 == 0:
            inst, _ = planted_instance(rng, n, 3, 10, tight_pair=True)
        else:
            inst = random_instance(rng, n, 3, 10, tight_pair=True)
        insts += [inst, dataclasses.replace(inst, h=1 + trial % 2)]
        insts += planted_mixed_instance(rng, n, 1 + trial % 2, 3, 10, tight_pair=True)[:2]
    statuses = []
    for trial, inst in enumerate(insts):
        basis = compute_lin_hull(inst)
        assert (basis.dimension < inst.k) is (trial >= 8), trial
        want = bnb_solve(inst, basis).status.value
        got = highs_status(parse_lp_text(export_milp(build_milp(inst, basis), "lp")))
        assert got == want, f"trial {trial}: HiGHS says {got}, search {want}"
        statuses.append(want)
    assert set(statuses[:8]) == set(statuses[8:]) == {"feasible", "infeasible"}


def test_mps_export_sections():
    inst = export_1d_instance()
    basis = compute_lin_hull(inst)
    model = build_milp(inst, basis, big_m=10.0)
    text = export_milp(model, "mps")
    lines = text.splitlines()
    for section in ("ROWS", "COLUMNS", "RHS", "BOUNDS", "ENDATA"):
        assert section in lines
    assert any(line.startswith(" BV ") and "x1" in line for line in lines)
    assert any(line.startswith(" FR ") and "D1_1" in line for line in lines)
    assert lines[2].startswith("NAME")
    with pytest.raises(ValueError):
        export_milp(model, "pdf")


def test_exported_model_agrees_with_search():
    inst = export_1d_instance()
    basis = compute_lin_hull(inst)
    assert bnb_solve(inst, basis).status is SolveStatus.FEASIBLE
    parsed = parse_lp_text(export_milp(build_milp(inst, basis), "lp"))
    assert bigm_status(parsed) == "feasible"


def test_small_big_m_cuts_genuine_policies():
    # the unique policy needs r = 2; a ceiling of 0.1 contradicts it
    inst = export_1d_instance()
    basis = compute_lin_hull(inst)
    assert bnb_solve(inst, basis).status is SolveStatus.FEASIBLE
    parsed = parse_lp_text(export_milp(build_milp(inst, basis, big_m=0.1), "lp"))
    assert bigm_status(parsed) == "infeasible"
