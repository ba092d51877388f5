"""Free-block instances: solving, certification, and the adjustable flag."""

import dataclasses

import numpy as np
import pytest

from aarlcp import (
    DimensionMismatch,
    NodeLpBuilder,
    Policy,
    SolveOptions,
    SolveStatus,
    bnb_solve,
    compute_lin_hull,
    lp,
    mixed_solve,
    oracle_enumerate,
    verify_mixed,
    verify_policy,
)
from aarlcp.core import MixedExtension, policy_matches_instance
from support import (
    coupled_mixed_instance,
    golden_instance,
    mixed_1d,
    planted_instance,
    random_instance,
    search_answer,
)


def test_decoupled_example():
    inst = mixed_1d(0.0)
    basis = compute_lin_hull(inst)
    report = mixed_solve(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    pol = report.policy
    assert pol.s[0] == pytest.approx(3.0, abs=1e-8)
    assert pol.r[0] == pytest.approx(2.0, abs=1e-8)
    assert pol.D[0, 0] == pytest.approx(-0.5, abs=1e-8)
    assert report.verification.verified
    assert report.verification.equality_residual <= 1e-8
    assert report.verification.equality_direction_residual <= 1e-8


def test_coupled_example():
    # the free variable feeds the slack row: 2r + s - 4 = 0 with s = 3
    inst = mixed_1d(1.0)
    basis = compute_lin_hull(inst)
    report = mixed_solve(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    pol = report.policy
    assert pol.r[0] == pytest.approx(0.5, abs=1e-8)
    assert pol.D[0, 0] == pytest.approx(-0.5, abs=1e-8)
    assert pol.s[0] == pytest.approx(3.0, abs=1e-8)


def test_adjustable_flag_changes_feasibility():
    adjustable = coupled_mixed_instance(True)
    pinned = coupled_mixed_instance(False)
    basis = compute_lin_hull(adjustable)
    rep_adj = mixed_solve(adjustable, basis)
    rep_pin = mixed_solve(pinned, compute_lin_hull(pinned))
    assert rep_adj.status is SolveStatus.FEASIBLE
    assert rep_pin.status is SolveStatus.INFEASIBLE
    pol = rep_adj.policy
    # y(u) = -z(u): slack becomes z - 4 + u, so r = 4, D = -1
    assert pol.r[0] == pytest.approx(4.0, abs=1e-8)
    assert pol.D[0, 0] == pytest.approx(-1.0, abs=1e-8)
    assert pol.E[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert pol.s[0] == pytest.approx(-4.0, abs=1e-8)


def test_pinned_flag_forces_constant_rule():
    inst = mixed_1d(0.0, y_adjustable=False)
    basis = compute_lin_hull(inst)
    report = mixed_solve(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    assert np.allclose(report.policy.E, 0.0)


@pytest.mark.parametrize(
    "verify", [verify_policy, verify_mixed], ids=["verify_policy", "verify_mixed"]
)
def test_verify_mixed_flags_broken_equality(verify):
    inst = mixed_1d(0.0)
    basis = compute_lin_hull(inst)
    pol = Policy(
        D=np.array([[-0.5]]),
        r=np.array([2.0]),
        x=np.array([1]),
        E=np.zeros((1, 1)),
        s=np.array([7.0]),  # equation wants 3
    )
    report = verify(inst, basis, pol)
    assert not report.verified
    assert report.equality_residual == pytest.approx(4.0, abs=1e-9)
    assert any("equations off" in v for v in report.violations)


def test_policy_without_free_block_is_rejected():
    # a mixed instance needs the policy's E and s; without them the check
    # names the gap instead of failing inside the matrix products
    inst = mixed_1d(1.0)
    basis = compute_lin_hull(inst)
    pol = Policy(D=np.array([[-0.5]]), r=np.array([0.5]), x=np.array([1]))
    with pytest.raises(DimensionMismatch, match="E and s"):
        policy_matches_instance(inst, pol)
    for verify in (verify_policy, verify_mixed):
        with pytest.raises(DimensionMismatch, match="E and s"):
            verify(inst, basis, pol)


def test_mixed_node_lp_guard():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    with pytest.raises(DimensionMismatch):
        mixed_solve(inst, basis)
    with pytest.raises(DimensionMismatch):
        verify_mixed(inst, basis, None)


def test_mixed_node_lp_solves():
    inst = mixed_1d(1.0)
    basis = compute_lin_hull(inst)
    model = NodeLpBuilder(inst, basis).model((1,))
    assert lp.lp_feasible(model).status is lp.LpStatus.OPTIMAL


def test_oracle_handles_mixed():
    inst = mixed_1d(1.0)
    basis = compute_lin_hull(inst)
    report = oracle_enumerate(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    assert report.policy.E.shape == (1, 1)
    assert report.policy.s == pytest.approx([3.0], abs=1e-8)
    assert report.verification.verified
    assert report.policy.r[0] == pytest.approx(0.5, abs=1e-8)


def test_mixed_parallel_search():
    # the field is accepted and ignored: the search is serial either way
    inst = mixed_1d(1.0)
    basis = compute_lin_hull(inst)
    with pytest.warns(DeprecationWarning, match="parallel is ignored"):
        opts = SolveOptions(parallel=True)
    report = mixed_solve(inst, basis, opts)
    assert report.status is SolveStatus.FEASIBLE
    assert search_answer(report) == search_answer(mixed_solve(inst, basis))


@pytest.mark.parametrize("seed", range(6))
def test_empty_free_block_answers_like_the_pure_twin(seed):
    # m = 0: no free variable and no equation, so certification has empty
    # equation residuals, which count as zero.  The rows of [M q T] are at
    # unit infinity norm, so the pure twin's canonical row scaling is the
    # identity and both instances get the same node LPs.
    rng = np.random.default_rng([71, seed])
    if seed % 2:
        pure = random_instance(rng, 4, 2, 5)
    else:
        pure, _ = planted_instance(rng, 4, 2, 5)
    d = np.abs(np.column_stack([pure.M, pure.q, pure.T])).max(axis=1)
    pure = dataclasses.replace(
        pure, M=pure.M / d[:, None], q=pure.q / d, T=pure.T / d[:, None]
    )
    n, k = pure.n, pure.k
    empty = MixedExtension(
        V=np.zeros((0, n)),
        W=np.zeros((0, 0)),
        N=np.zeros((n, 0)),
        p=np.zeros(0),
        P=np.zeros((0, k)),
    )
    inst = dataclasses.replace(pure, mixed=empty)
    basis = compute_lin_hull(pure)
    opts = SolveOptions(psd="off")
    for want, got in (
        (bnb_solve(pure, basis, opts), bnb_solve(inst, basis, opts)),
        (oracle_enumerate(pure, basis), oracle_enumerate(inst, basis)),
    ):
        assert got.status is want.status
        if want.policy is None:
            continue
        assert np.array_equal(got.policy.r, want.policy.r)
        assert np.array_equal(got.policy.D, want.policy.D)
        assert got.policy.s.shape == (0,) and got.policy.E.shape == (0, k)
        assert got.verification.verified
        assert got.verification.equality_residual == 0.0
        assert got.verification.equality_direction_residual == 0.0
