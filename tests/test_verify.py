"""Policy certification and the exhaustive support oracle."""

import numpy as np
import pytest

from aarlcp import (
    Instance,
    LinHullBasis,
    NotCompact,
    NumericalFailure,
    OracleLimitExceeded,
    Policy,
    SolveStatus,
    bnb_solve,
    compute_lin_hull,
    mixed_solve,
    oracle_enumerate,
    verify_mixed,
    verify_policy,
)
from aarlcp.core import uncertainty_tableau
from aarlcp.verify import certify_affine
from support import (
    count_lp_calls,
    golden_instance,
    mixed_1d,
    planted_instance,
    sample_points,
)


def test_golden_policy_verifies():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    pol = Policy(
        D=np.array([[-1.0, 0.0], [0.0, 0.0]]),
        r=np.array([2.0, 1.0]),
        x=np.array([1, 1]),
    )
    report = verify_policy(inst, basis, pol)
    assert report.verified
    assert report.verdict == "verified"
    assert sorted(report.support) == [0, 1]
    assert report.nominal_residual <= 1e-8
    assert report.direction_residual <= 1e-8
    assert np.allclose(report.min_z, [0.0, 1.0], atol=1e-8)
    assert np.allclose(report.min_w, [0.0, 0.0], atol=1e-8)


def test_zero_rule_fails_direction_condition():
    # same nominal part, no adjustment: the slack reacts along the hull
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    pol = Policy(D=np.zeros((2, 2)), r=np.array([2.0, 1.0]), x=np.array([1, 1]))
    report = verify_policy(inst, basis, pol)
    assert not report.verified
    assert report.direction_residual == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(report.min_w, [-2.0, -2.0], atol=1e-8)
    assert np.allclose(report.min_z, [2.0, 1.0], atol=1e-8)
    assert any("direction" in v for v in report.violations)
    assert any("slack row" in v for v in report.violations)


def test_truncation_shapes_the_support():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    pol = Policy(
        D=np.array([[-1.0, 0.0], [0.0, 0.0]]),
        r=np.array([2.0, 5e-10]),
        x=np.array([1, 1]),
    )
    report = verify_policy(inst, basis, pol)
    # the second entry truncates away, and the nominal condition on row one
    # then sees M r + q = (1, 1) instead of zero
    assert sorted(report.support) == [0]
    assert report.nominal_residual == pytest.approx(1.0, abs=1e-9)
    assert not report.verified


def test_reported_minima_are_sound():
    rng = np.random.default_rng(23)
    for _ in range(10):
        inst, _ = planted_instance(rng, 4, 2, 5)
        basis = compute_lin_hull(inst)
        sr = bnb_solve(inst, basis)
        assert sr.status is SolveStatus.FEASIBLE
        report = sr.verification
        pol = sr.policy
        pts = sample_points(rng, inst.Theta, inst.zeta, count=80)
        w_lin = inst.M @ pol.D + inst.T
        w_const = inst.M @ pol.r + inst.q
        for u in pts:
            assert np.all(pol.D @ u + pol.r >= report.min_z - 1e-7)
            assert np.all(w_lin @ u + w_const >= report.min_w - 1e-7)


def test_certification_runs_one_phase_one(monkeypatch):
    # the one phase one is the hull's: the 2n minimizations over the set
    # start from the basis's tableau, for pure and mixed policies alike
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    pol = Policy(
        D=np.array([[-1.0, 0.0], [0.0, 0.0]]),
        r=np.array([2.0, 1.0]),
        x=np.array([1, 1]),
    )
    mixed = mixed_1d(1.0)
    mixed_basis = compute_lin_hull(mixed)
    mixed_pol = mixed_solve(mixed, mixed_basis).policy
    calls = count_lp_calls(monkeypatch)
    for check in (
        lambda: verify_policy(inst, basis, pol),
        lambda: verify_mixed(mixed, mixed_basis, mixed_pol),
    ):
        calls.clear()
        assert check().verified
        assert "lp_feasible" not in calls
        assert 1 <= calls.count("maximize") == len(calls) <= 2 * inst.n


def test_certify_affine_set_errors(monkeypatch):
    # -1 <= u1 <= 1 and u2 free: every row is bounded over the set, so the
    # hull exists, but the set is not compact
    strip = Instance(
        M=np.eye(1),
        q=np.zeros(1),
        T=np.zeros((1, 2)),
        Theta=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        zeta=-np.ones(2),
    )
    # compute_lin_hull refuses the strip, so build its hull from the parts:
    # no row is tight, so the hull is the whole plane
    tab = uncertainty_tableau(strip.Theta, strip.zeta)
    basis = LinHullBasis(
        vectors=tuple(np.eye(2)), phi=np.zeros((0, 2)), inequality_rows=frozenset({0, 1}), tableau=tab
    )
    assert basis.dimension == 2

    def certify(D, w_lin):
        zero = np.zeros(1)
        return certify_affine(basis, zero, np.array(D), np.array(w_lin), zero, 1e-7)

    with pytest.raises(NotCompact):
        certify([[0.0, 1.0]], [[0.0, 0.0]])
    with pytest.raises(NotCompact):
        certify([[0.0, 0.0]], [[0.0, -1.0]])
    assert certify([[1.0, 0.0]], [[0.0, 0.0]]).min_z.tolist() == [-1.0]
    # nothing varies over the set: no LP runs, and the report comes back
    calls = count_lp_calls(monkeypatch)
    report = certify([[0.0, 0.0]], [[0.0, 0.0]])
    assert calls == []
    assert report.verified
    assert np.array_equal(report.min_z, [0.0])


def test_oracle_finds_golden_support():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    report = oracle_enumerate(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    assert report.tally["feasible_support"] == (0, 1)
    assert report.tally["tested"] == 4
    assert report.verification.verified
    assert report.lp_calls >= report.tally["tested"]


def test_oracle_raises_on_an_uncertified_policy(monkeypatch):
    # enumeration answers feasible only with a certified policy, as the
    # tree search does
    import aarlcp.verify

    def rejecting(*args, **kwargs):
        report = real(*args, **kwargs)
        report.violations = ("rejected for the test",)
        return report

    real = aarlcp.verify.verify_policy
    monkeypatch.setattr(aarlcp.verify, "verify_policy", rejecting)
    inst = golden_instance()
    with pytest.raises(NumericalFailure, match="rejected for the test"):
        oracle_enumerate(inst, compute_lin_hull(inst))


def _one_row(scale):
    """One row over [-1, 1], scaled by scale; its only policy is r = 2,
    D = -1/2."""
    return Instance(
        M=np.array([[2.0]]) * scale,
        q=np.array([-4.0]) * scale,
        T=np.array([[1.0]]) * scale,
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array([-1.0, -1.0]),
    )


@pytest.mark.parametrize("scale, slightly_off_verified", [(1e-6, True), (1.0, False), (1e6, False)])
def test_slack_rows_are_measured_relative_to_their_data(scale, slightly_off_verified):
    inst = _one_row(scale)
    basis = compute_lin_hull(inst)

    def verified(r, D):
        pol = Policy(D=np.array([[D]]), r=np.array([r]), x=np.array([1]))
        return verify_policy(inst, basis, pol).verified

    assert verified(2.0, -0.5)
    # An error of 1e-5 in r or D leaves a slack of 2e-5 times the scale:
    # 5e-6 of the row's norm 4 * scale, a real violation wherever the norm
    # exceeds 1.  The row with norm 4e-6 keeps the absolute bound 1e-7.
    assert verified(2.0 + 1e-5, -0.5) is slightly_off_verified
    assert verified(2.0, -0.5 + 1e-5) is slightly_off_verified
    assert not verified(2.1, -0.5)


def test_oracle_row_cap():
    inst = golden_instance()
    basis = compute_lin_hull(inst)
    with pytest.raises(OracleLimitExceeded):
        oracle_enumerate(inst, basis, limit=1)


def test_oracle_returns_a_smallest_feasible_support():
    import itertools

    from aarlcp import NodeLpBuilder, lp

    rng = np.random.default_rng(9)
    inst, _ = planted_instance(rng, 3, 2, 5)
    basis = compute_lin_hull(inst)
    report = oracle_enumerate(inst, basis)
    assert report.status is SolveStatus.FEASIBLE
    supp = report.tally["feasible_support"]
    builder = NodeLpBuilder(inst, basis)
    for size in range(len(supp)):
        for smaller in itertools.combinations(range(inst.n), size):
            fixed = tuple(1 if i in smaller else 0 for i in range(inst.n))
            res = lp.lp_feasible(builder.model(fixed))
            assert res.status is lp.LpStatus.INFEASIBLE
