"""PSD detection, complementary pivoting, and the forced-support start."""

import numpy as np
import pytest

from aarlcp import (
    DimensionMismatch,
    Instance,
    NotPsd,
    SolveOptions,
    SolveStatus,
    bnb_solve,
    check_psd,
    compute_lin_hull,
    compute_support_p,
    forced_support,
    lemke_nominal,
    psd_solve,
    solution_set_rows,
)
from support import (
    count_lp_calls,
    gram_matrix,
    mixed_1d,
    permuted_instance,
    planted_instance,
    psd_desk_instance,
    psd_infeasible_instance,
    random_set,
)


def test_check_psd_known_matrices():
    assert check_psd(np.eye(3))
    assert check_psd(np.zeros((2, 2)))
    assert check_psd(np.array([[2.0, 0.0], [0.0, 0.0]]))
    assert not check_psd(-np.eye(2))
    # skew part is ignored: symmetric part of [[0,1],[0,0]] is indefinite
    assert not check_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # asymmetric but symmetric part PSD
    assert check_psd(np.array([[1.0, 2.0], [-2.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        check_psd(np.zeros((2, 3)))


def test_check_psd_against_eigenvalues():
    rng = np.random.default_rng(41)
    for _ in range(60):
        n = int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        S = 0.5 * (A + A.T)
        want = bool(np.linalg.eigvalsh(S).min() >= -1e-9)
        assert check_psd(A) == want
    # gram matrices, including rank-deficient ones
    for _ in range(30):
        n = int(rng.integers(1, 6))
        G = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        assert check_psd(G.T @ G)
    # a negative diagonal entry, far below and near -10 thresh, where
    # check_psd answers before eliminating: the full elimination agrees
    for t in range(60):
        n = int(rng.integers(1, 6))
        G = rng.standard_normal((int(rng.integers(1, n + 1)), n))
        A = G.T @ G if t % 2 else rng.standard_normal((n, n))
        A[0] = A[:, 0] = 0.0
        thresh = 1e-9 * max(1.0, float(np.abs(np.diag(A)).sum()))
        A[0, 0] = -thresh * [1e9, 20.0, 10.5, 9.5, 5.0][t % 5]
        assert check_psd(A) == _full_elimination(A), t
        if t % 2:  # a gram matrix stays PSD within -10 thresh
            assert check_psd(A) == (t % 5 > 2), t


def _full_elimination(M, tol=1e-9):
    """check_psd's pivoted Cholesky run to the end, with no early answer."""
    A = 0.5 * (M + M.T)
    thresh = tol * max(1.0, float(np.abs(np.diag(A)).sum()))
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


def test_lemke_trivial_and_ray():
    assert np.array_equal(lemke_nominal(np.eye(2), np.array([1.0, 2.0])), [0.0, 0.0])
    # the zero matrix with negative q has no solution; the pivot ray says so
    assert lemke_nominal(np.array([[0.0]]), np.array([-1.0])) is None
    with pytest.raises(NotPsd):
        lemke_nominal(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([-1.0, -1.0]))


def test_lemke_desk_example():
    z = lemke_nominal(np.array([[2.0, 0.0], [0.0, 0.0]]), np.array([-2.0, 1.0]))
    assert np.allclose(z, [1.0, 0.0], atol=1e-9)


def test_lemke_random_psd_instances():
    rng = np.random.default_rng(43)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        G = rng.standard_normal((n, n))
        M = G.T @ G
        q = rng.standard_normal(n)
        z = lemke_nominal(M, q)
        assert z is not None  # strictly convex quadratic always solves
        w = M @ z + q
        assert np.all(z >= -1e-8)
        assert np.all(w >= -1e-7)
        assert abs(z @ w) <= 1e-6


def test_solution_set_rows_validates_reference():
    M = np.eye(2)
    q = np.array([-1.0, -2.0])
    rows = solution_set_rows(M, q, np.array([1.0, 2.0]))
    assert len(rows) == 5  # n slack rows, 1 value row, n symmetric rows
    with pytest.raises(ValueError):
        solution_set_rows(M, q, np.zeros(2))


def test_support_probe(monkeypatch):
    # desk example: only the first index can ever be positive
    M = np.array([[2.0, 0.0], [0.0, 0.0]])
    q = np.array([-2.0, 1.0])
    zbar = lemke_nominal(M, q)
    calls = count_lp_calls(monkeypatch)
    assert compute_support_p(M, q, zbar) == frozenset({0})
    # one phase one; index 1 has slack 1 at zbar, so it is pinned, not probed
    assert calls == ["lp_feasible", "maximize"]
    # strictly positive unique solution: every index is in, and probed
    M2 = np.eye(2)
    q2 = np.array([-1.0, -2.0])
    zbar2 = lemke_nominal(M2, q2)
    calls.clear()
    assert compute_support_p(M2, q2, zbar2) == frozenset({0, 1})
    assert calls == ["lp_feasible", "maximize", "maximize"]


def test_support_skips_rows_with_positive_slack():
    # every nominal solution of a monotone problem is complementary to
    # w(zbar), so no index whose slack is clearly positive at zbar belongs to
    # the forced support; LP noise used to admit some on permuted
    # presentations of gram-matrix instances, and the single node LP at the
    # wrong support then answered infeasible on a feasible instance
    rng = np.random.default_rng(1)
    for trial in range(200):
        inst, _ = planted_instance(
            rng, 16, 2, 6, M=gram_matrix(rng, 16), size=1 + trial % 4
        )
        inst = permuted_instance(rng, inst)
        zbar = lemke_nominal(inst.M, inst.q)
        w = inst.M @ zbar + inst.q
        scale = max(1.0, float(np.abs(inst.q).max()), float(np.abs(zbar).max()))
        support = compute_support_p(inst.M, inst.q, zbar)
        assert not [i for i in support if w[i] > 1e-8 * scale], trial


def test_psd_solve_desk_example():
    inst = psd_desk_instance()
    basis = compute_lin_hull(inst)
    report = psd_solve(inst, basis)
    assert report.forced
    assert report.status is SolveStatus.FEASIBLE
    assert report.support_p == frozenset({0})
    assert np.allclose(report.nominal, [1.0, 0.0], atol=1e-9)
    assert np.allclose(report.policy.r, [1.0, 0.0], atol=1e-8)
    assert np.allclose(report.policy.D, [[-0.5, 0.0], [0.0, 0.0]], atol=1e-8)
    assert report.verification.verified
    # one node, one node LP: the search starts at the forced support
    assert (report.nodes_explored, report.lp_calls) == (1, 1)
    # the default takes the same start; the tree search lands on the same support
    assert bnb_solve(inst, basis).forced
    sr = bnb_solve(inst, basis, SolveOptions(psd="off"))
    assert not sr.forced and sr.nominal is None
    assert sr.status is SolveStatus.FEASIBLE
    assert np.array_equal(sr.policy.x, [1, 0])


def test_psd_solve_infeasible_instance():
    inst = psd_infeasible_instance()
    basis = compute_lin_hull(inst)
    report = psd_solve(inst, basis)
    assert report.status is SolveStatus.INFEASIBLE
    assert report.nominal is not None  # nominal solves; robustness fails
    assert report.nodes_explored == 1
    off = SolveOptions(psd="off")
    assert bnb_solve(inst, basis, off).status is SolveStatus.INFEASIBLE


def test_no_nominal_solution_answers_infeasible_without_nodes():
    # M = 0 with q_1 < 0: the nominal problem has no solution, so no node runs
    inst = Instance(
        M=np.zeros((2, 2)),
        q=np.array([-1.0, 1.0]),
        T=np.eye(2),
        Theta=np.vstack([np.eye(2), -np.eye(2)]),
        zeta=-np.ones(4),
    )
    assert forced_support(inst) is None
    basis = compute_lin_hull(inst)
    report = psd_solve(inst, basis)
    assert report.forced and report.status is SolveStatus.INFEASIBLE
    assert (report.nodes_explored, report.lp_calls, report.nominal) == (0, 0, None)
    off = bnb_solve(inst, basis, SolveOptions(psd="off"))
    assert off.status is SolveStatus.INFEASIBLE and off.nodes_explored > 0


def test_psd_solve_flags_indefinite():
    from support import golden_instance

    inst = golden_instance()
    basis = compute_lin_hull(inst)
    with pytest.raises(NotPsd):
        psd_solve(inst, basis)
    with pytest.raises(NotPsd):
        bnb_solve(inst, basis, SolveOptions(psd="force"))
    # auto falls back to the tree search
    report = bnb_solve(inst, basis)
    assert not report.forced and report.status is SolveStatus.FEASIBLE


def test_psd_solve_rejects_mixed():
    inst = mixed_1d(0.0)
    basis = compute_lin_hull(inst)
    with pytest.raises(DimensionMismatch):
        psd_solve(inst, basis)
    assert not bnb_solve(inst, basis).forced


@pytest.mark.parametrize("n, s", [(12, 82), (16, 14), (16, 31)])
def test_gram_draws_answer_feasible(n, s):
    # Planted gram draws on which psd_solve raised: "tableau right-hand
    # side went negative" at (12, 82), where bnb_solve raised it too, and at
    # (16, 14); a failed certification, residual 1.03e-7, at (16, 31).
    rng = np.random.default_rng([7, s])
    k = 2 + s % 2
    M = gram_matrix(rng, n)
    inst, _ = planted_instance(rng, n, k, 2 * k + 2, M=M, size=1 + s % n)
    basis = compute_lin_hull(inst)
    assert psd_solve(inst, basis).status is SolveStatus.FEASIBLE
    off = SolveOptions(psd="off")
    assert bnb_solve(inst, basis, off).status is SolveStatus.FEASIBLE


def test_permuted_gram_instances_keep_their_status():
    # The forced start answers as the tree search does, and a presentation
    # with rows, coordinates and set rows reordered gets the same answer.
    rng = np.random.default_rng(29)
    off = SolveOptions(psd="off")
    seen = set()
    for trial in range(60):
        n = int(rng.integers(1, 7))
        k = 2 + trial % 2
        g = 2 * k + 2
        if trial % 3 == 0:
            inst, _ = planted_instance(rng, n, k, g, M=gram_matrix(rng, n))
        else:
            Theta, zeta = random_set(rng, k, g)
            inst = Instance(
                M=gram_matrix(rng, n),
                q=rng.standard_normal(n),
                T=rng.standard_normal((n, k)) * 0.5,
                Theta=Theta,
                zeta=zeta,
            )
        basis = compute_lin_hull(inst)
        want = bnb_solve(inst, basis, off).status
        auto = bnb_solve(inst, basis)
        assert auto.forced and auto.status is want, trial
        moved = permuted_instance(rng, inst)
        again = bnb_solve(moved, compute_lin_hull(moved))
        assert again.forced and again.status is want, trial
        seen.add(want)
    assert seen == {SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE}
