"""PSD detection, complementary pivoting, and the forced-support path."""

import numpy as np
import pytest

from aarlcp import (
    DimensionMismatch,
    NotPsd,
    PsdStatus,
    SolveStatus,
    bnb_solve,
    check_psd,
    compute_lin_hull,
    compute_support_p,
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
    assert report.is_psd
    assert report.status is PsdStatus.FEASIBLE
    assert report.support_p == frozenset({0})
    assert np.allclose(report.policy.r, [1.0, 0.0], atol=1e-8)
    assert np.allclose(report.policy.D, [[-0.5, 0.0], [0.0, 0.0]], atol=1e-8)
    assert report.verification.verified
    # tree search lands on the same support
    sr = bnb_solve(inst, basis)
    assert sr.status is SolveStatus.FEASIBLE
    assert np.array_equal(sr.policy.x, [1, 0])


def test_psd_solve_infeasible_instance():
    inst = psd_infeasible_instance()
    basis = compute_lin_hull(inst)
    report = psd_solve(inst, basis)
    assert report.status is PsdStatus.INFEASIBLE
    assert report.nominal is not None  # nominal solves; robustness fails
    assert bnb_solve(inst, basis).status is SolveStatus.INFEASIBLE


def test_psd_solve_flags_indefinite():
    from support import golden_instance

    inst = golden_instance()
    basis = compute_lin_hull(inst)
    report = psd_solve(inst, basis)
    assert report.status is PsdStatus.NOT_PSD
    assert not report.is_psd


def test_psd_solve_rejects_mixed():
    inst = mixed_1d(0.0)
    basis = compute_lin_hull(inst)
    with pytest.raises(DimensionMismatch):
        psd_solve(inst, basis)


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
    assert psd_solve(inst, basis).status is PsdStatus.FEASIBLE
    assert bnb_solve(inst, basis).status is SolveStatus.FEASIBLE
