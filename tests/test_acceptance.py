"""Acceptance suite: one test per shipped guarantee.

Each test prints a short summary line (shown in the report via -rP) and
asserts both the mathematical content and its runtime budget.
"""

import json
import time

import numpy as np
import pytest

from aarlcp import (
    Instance,
    MixedExtension,
    Policy,
    SolveOptions,
    SolveStatus,
    bnb_solve,
    build_milp,
    compute_lin_hull,
    compute_support_p,
    export_milp,
    lemke_nominal,
    lp,
    mixed_solve,
    oracle_enumerate,
    parse_lp_text,
    psd_solve,
    verify_policy,
)
from aarlcp.cli import main
from support import (
    bigm_status,
    export_1d_instance,
    golden_instance,
    mixed_1d,
    planted_instance,
    planted_mixed_instance,
    psd_desk_instance,
    random_instance,
    random_set,
    reduction_instance,
)


def test_c1_golden_walkthrough(tmp_path, capsys):
    """Worked 2x2 instance: hull, verification, solve, and the CLI."""
    t0 = time.perf_counter()
    inst = golden_instance()

    # (d) the coupling matrix is singular on purpose
    assert np.linalg.det(inst.M) == pytest.approx(0.0, abs=1e-12)

    # (a) hull dimension 1 spanned by (1, 1)
    basis = compute_lin_hull(inst)
    assert basis.dimension == 1
    v = basis.vectors[0]
    assert np.allclose(v / v[0], [1.0, 1.0], atol=1e-12)

    # (b) the stated policy certifies with residuals at most 1e-8
    pol = Policy(
        D=np.array([[-1.0, 0.0], [0.0, 0.0]]),
        r=np.array([2.0, 1.0]),
        x=np.array([1, 1]),
    )
    report = verify_policy(inst, basis, pol)
    assert report.verified
    assert sorted(report.support) == [0, 1]
    assert report.nominal_residual <= 1e-8
    assert report.direction_residual <= 1e-8
    assert np.all(report.min_z >= -1e-8)
    assert np.all(report.min_w >= -1e-8)

    # (c) the search agrees and its policy passes the verifier
    sr = bnb_solve(inst, basis)
    assert sr.status is SolveStatus.FEASIBLE
    assert sr.verification.verified

    # same story through the command line
    inst_path = tmp_path / "golden.json"
    inst_path.write_text(
        json.dumps(
            {
                "n": 2,
                "k": 2,
                "g": 4,
                "M": [[1, -1], [1, -1]],
                "q": [-1, -1],
                "T": [[1, 0], [0, 1]],
                "Theta": [[1, -1], [-1, 1], [1, 0], [-1, 0]],
                "zeta": [0, 0, -2, -2],
            }
        )
    )
    pol_path = tmp_path / "golden_pol.json"
    pol_path.write_text(
        json.dumps(
            {
                "status": "feasible",
                "x": [1, 1],
                "r": [2.0, 1.0],
                "D": [[-1.0, 0.0], [0.0, 0.0]],
            }
        )
    )
    assert main(["linhull", str(inst_path)]) == 0
    out = capsys.readouterr().out
    assert "hull dimension: 1" in out
    assert "v1: 1 1" in out
    assert main(["verify", str(inst_path), str(pol_path)]) == 0
    out = capsys.readouterr().out
    assert "verdict: verified" in out
    assert "support: 1 2" in out
    assert main(["solve", str(inst_path)]) == 0

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"golden walkthrough: all checks passed in {elapsed:.2f}s")


def test_c2_singleton_reductions(tmp_path, capsys):
    """With the set frozen at the origin the robust problem is the nominal one."""
    t0 = time.perf_counter()
    cases = [
        ((2.0, 1.0), SolveStatus.FEASIBLE),
        ((0.0, -1.0), SolveStatus.FEASIBLE),
        ((0.5, -0.5), SolveStatus.INFEASIBLE),
    ]
    for q, want in cases:
        inst = reduction_instance(q)
        basis = compute_lin_hull(inst)
        assert basis.dimension == 0
        sr = bnb_solve(inst, basis)
        assert sr.status is want
        if want is SolveStatus.FEASIBLE:
            # the nominal part must solve the plain problem at u = 0
            z = sr.policy.r
            w = inst.M @ z + inst.q
            assert np.all(z >= -1e-8)
            assert np.all(w >= -1e-8)
            assert abs(z @ w) <= 1e-8

        path = tmp_path / f"red_{q[0]}_{q[1]}.json"
        path.write_text(
            json.dumps(
                {
                    "n": 2,
                    "k": 1,
                    "g": 2,
                    "M": [[0, 0], [1, 0]],
                    "q": list(q),
                    "T": [[1], [1]],
                    "Theta": [[1], [-1]],
                    "zeta": [0, 0],
                }
            )
        )
        assert main(["solve", str(path)]) == (
            0 if want is SolveStatus.FEASIBLE else 1
        )
        capsys.readouterr()

    # the first scenario admits only the zero rule
    sr = bnb_solve(reduction_instance((2.0, 1.0)), compute_lin_hull(reduction_instance((2.0, 1.0))))
    assert np.allclose(sr.policy.r, 0.0, atol=1e-9)

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"singleton reductions: 3/3 statuses in {elapsed:.2f}s")


def _c3_draws():
    """The 200 seeded draws of c3, planted and random, some with a tight
    row pair."""
    rng = np.random.default_rng(2024)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 3))
        g = int(rng.integers(2 * k, 7))
        tight = bool(rng.uniform() < 0.25) and k == 2 and g - 2 * k >= 2
        if rng.uniform() < 0.5:
            yield planted_instance(rng, n, k, g, tight_pair=tight)[0]
        else:
            yield random_instance(rng, n, k, g, tight_pair=tight)


def test_c3_oracle_equivalence():
    """Tree search and exhaustive enumeration agree on 200 seeded draws."""
    t0 = time.perf_counter()
    agreements = 0
    feasible_count = 0
    for trial, inst in enumerate(_c3_draws()):
        basis = compute_lin_hull(inst)
        sr = bnb_solve(inst, basis)
        orep = oracle_enumerate(inst, basis)
        assert sr.status is orep.status, f"disagreement on trial {trial}"
        agreements += 1
        if sr.status is SolveStatus.FEASIBLE:
            feasible_count += 1
            check = verify_policy(inst, basis, sr.policy, tol=1e-7)
            assert check.verified, f"unverified policy on trial {trial}"
    elapsed = time.perf_counter() - t0
    assert agreements == 200
    assert elapsed < 60.0
    print(
        f"oracle equivalence: 200/200 agree ({feasible_count} feasible)"
        f" in {elapsed:.1f}s"
    )


def test_c3_oracle_prune_split():
    """The enumeration oracle prunes c3's draws at its two stages in a
    pinned split: supports tested, pruned by the equality stage, pruned by
    the full node LP."""
    keys = ("tested", "equality_infeasible", "nonnegativity_infeasible")
    split = np.zeros(3, dtype=int)
    for inst in _c3_draws():
        tally = oracle_enumerate(inst, compute_lin_hull(inst)).tally
        split += [tally[key] for key in keys]
    assert split.tolist() == [981, 598, 258]


def _dual_certificate_feasible(Theta, zeta, lin, const, tol=1e-8):
    """LP feasibility of the multiplier system for one affine piece.

    lin is n x k, const length n; one nonnegative multiplier column per row
    of the piece, tied by Theta^T a = lin_i and zeta @ a + const_i >= 0.
    """
    g, k = Theta.shape
    n = lin.shape[0]
    model = lp.LpModel(g * n)
    for i in range(n):
        for c in range(k):
            row = np.zeros(g * n)
            row[i * g : (i + 1) * g] = Theta[:, c]
            model.add_row(row, lp.EQ, lin[i, c])
        row = np.zeros(g * n)
        row[i * g : (i + 1) * g] = zeta
        model.add_row(row, lp.GE, -const[i])
    return lp.lp_feasible(model, tol).status is lp.LpStatus.OPTIMAL


def test_c4_duality_equivalence():
    """Multiplier certificates exist exactly when the affine piece stays
    nonnegative over the set; checked for both piece families."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(515)
    agreements = 0
    for trial in range(100):
        k = int(rng.integers(1, 4))
        g = int(rng.integers(2 * k, 2 * k + 4))
        Theta, zeta = random_set(rng, k, g)
        n = int(rng.integers(1, 4))

        for _piece in range(2):  # decision piece, then slack piece
            lin = rng.standard_normal((n, k))
            const = np.zeros(n)
            margins = np.zeros(n)
            for i in range(n):
                res = lp.lp_solve(
                    _uncertainty_min_model(Theta, zeta, lin[i]), 1e-9
                )
                assert res.status is lp.LpStatus.OPTIMAL
                m_i = -res.value
                margins[i] = rng.uniform(0.05, 0.5) * (
                    1.0 if rng.uniform() < 0.5 else -1.0
                )
                const[i] = -m_i + margins[i]
            truth = bool(np.all(margins > 0))
            dual = _dual_certificate_feasible(Theta, zeta, lin, const, tol=1e-7)
            assert dual == truth, f"trial {trial}: dual {dual} vs primal {truth}"
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert agreements == 100
    assert elapsed < 30.0
    print(f"duality equivalence: 100/100 agree in {elapsed:.1f}s")


def _uncertainty_min_model(Theta, zeta, c):
    # maximize -c @ u, i.e. minimize c @ u, over the set
    g, k = Theta.shape
    model = lp.LpModel(k, -np.asarray(c, dtype=float))
    model.set_free()
    for j in range(g):
        model.add_row(Theta[j], lp.GE, zeta[j])
    return model


def test_c5_psd_agreement():
    """Forced-support shortcut equals the tree search on 100 gram-matrix draws."""
    t0 = time.perf_counter()

    # desk example first: the probe and the policy are pinned down exactly
    desk = psd_desk_instance()
    zbar = lemke_nominal(desk.M, desk.q)
    assert compute_support_p(desk.M, desk.q, zbar) == frozenset({0})
    preport = psd_solve(desk, compute_lin_hull(desk))
    assert preport.status is SolveStatus.FEASIBLE and preport.forced
    assert preport.verification.verified
    assert np.allclose(preport.policy.r, [1.0, 0.0], atol=1e-8)

    rng = np.random.default_rng(77)
    agreements = 0
    feasible_count = 0
    for trial in range(100):
        n = int(rng.integers(1, 6))
        k = int(rng.integers(1, 3))
        g = int(rng.integers(2 * k, 2 * k + 3))
        rows = int(rng.integers(1, n + 1))  # rank-deficient half the time
        G = rng.standard_normal((rows, n))
        Theta, zeta = random_set(rng, k, g)
        inst = Instance(
            M=G.T @ G,
            q=rng.standard_normal(n),
            T=rng.standard_normal((n, k)) * 0.5,
            Theta=Theta,
            zeta=zeta,
        )
        basis = compute_lin_hull(inst)
        pr = bnb_solve(inst, basis, SolveOptions(psd="force"))
        assert pr.forced and pr.nodes_explored <= 1
        sr = bnb_solve(inst, basis, SolveOptions(psd="off"))
        assert not sr.forced
        assert pr.status is sr.status, f"trial {trial}"
        agreements += 1
        if pr.status is SolveStatus.FEASIBLE:
            feasible_count += 1
            assert pr.verification.verified
    elapsed = time.perf_counter() - t0
    assert agreements == 100
    assert elapsed < 60.0
    print(
        f"forced-support agreement: 100/100 ({feasible_count} feasible)"
        f" in {elapsed:.1f}s"
    )


def test_c6_mixed_block():
    """Free-block examples hit their stated policies; freeing the block's
    rule never removes feasibility on 50 seeded draws."""
    t0 = time.perf_counter()

    decoupled = mixed_1d(0.0)
    basis = compute_lin_hull(decoupled)
    rep = mixed_solve(decoupled, basis)
    assert rep.status is SolveStatus.FEASIBLE
    assert rep.policy.s[0] == pytest.approx(3.0, abs=1e-8)
    assert rep.policy.r[0] == pytest.approx(2.0, abs=1e-8)
    assert rep.policy.D[0, 0] == pytest.approx(-0.5, abs=1e-8)
    assert rep.verification.nominal_residual <= 1e-8
    assert rep.verification.direction_residual <= 1e-8
    assert rep.verification.equality_residual <= 1e-8

    coupled = mixed_1d(1.0)
    rep = mixed_solve(coupled, compute_lin_hull(coupled))
    assert rep.status is SolveStatus.FEASIBLE
    assert rep.policy.r[0] == pytest.approx(0.5, abs=1e-8)
    assert rep.policy.D[0, 0] == pytest.approx(-0.5, abs=1e-8)

    rng = np.random.default_rng(88)
    dominated = 0
    pinned_feasible = 0
    for trial in range(50):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        k = int(rng.integers(1, 3))
        if trial % 2 == 0:
            pinned, freed, _ = planted_mixed_instance(rng, n, m, k)
        else:
            Theta, zeta = random_set(rng, k, 2 * k)
            common = dict(
                M=rng.standard_normal((n, n)),
                q=rng.standard_normal(n) + 1.0,
                T=rng.standard_normal((n, k)) * 0.5,
                Theta=Theta,
                zeta=zeta,
            )
            blocks = dict(
                V=rng.standard_normal((m, n)) * 0.5,
                W=rng.standard_normal((m, m)) + 2.0 * np.eye(m),
                N=rng.standard_normal((n, m)) * 0.5,
                p=rng.standard_normal(m) * 0.5,
                P=rng.standard_normal((m, k)) * 0.5,
            )
            pinned = Instance(
                mixed=MixedExtension(y_adjustable=False, **blocks), **common
            )
            freed = Instance(
                mixed=MixedExtension(y_adjustable=True, **blocks), **common
            )
        basis = compute_lin_hull(pinned)
        st_pin = mixed_solve(pinned, basis).status
        st_free = mixed_solve(freed, basis).status
        if trial % 2 == 0:
            # the planted policy keeps the block constant, so both must hold
            assert st_pin is SolveStatus.FEASIBLE, f"trial {trial}"
        if st_pin is SolveStatus.FEASIBLE:
            pinned_feasible += 1
            assert st_free is SolveStatus.FEASIBLE, f"trial {trial}"
        dominated += 1
    elapsed = time.perf_counter() - t0
    assert dominated == 50
    assert pinned_feasible >= 20  # the implication is exercised, not vacuous
    assert elapsed < 30.0
    print(
        f"free-block: examples exact, dominance 50/50"
        f" ({pinned_feasible} pinned-feasible) in {elapsed:.1f}s"
    )


def test_c7_export_fidelity():
    """Exported big-M text, solved by brute force, matches the search; a
    too-small constant demonstrably lies."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    agreements = 0
    for trial in range(20):
        n = int(rng.integers(1, 4))
        k = int(rng.integers(1, 3))
        g = 2 * k
        if rng.uniform() < 0.5:
            inst, _ = planted_instance(rng, n, k, g)
        else:
            inst = random_instance(rng, n, k, g)
        basis = compute_lin_hull(inst)
        want = bnb_solve(inst, basis).status
        parsed = parse_lp_text(export_milp(build_milp(inst, basis), "lp"))
        got = bigm_status(parsed)
        assert got == want.value, f"trial {trial}: export says {got}, search {want}"
        agreements += 1

    # the caveat in action: the unique policy needs r = 2 > 0.1
    inst = export_1d_instance()
    basis = compute_lin_hull(inst)
    assert bnb_solve(inst, basis).status is SolveStatus.FEASIBLE
    tiny = parse_lp_text(export_milp(build_milp(inst, basis, big_m=0.1), "lp"))
    assert bigm_status(tiny) == "infeasible"

    elapsed = time.perf_counter() - t0
    assert agreements == 20
    print(
        f"export fidelity: 20/20 agree, small-b counterexample holds,"
        f" in {elapsed:.1f}s"
    )


def test_c8_scale_smoke():
    """n = 10, k = 4, g = 10 instances resolve within five seconds apiece."""
    rng = np.random.default_rng(123)
    lines = []
    for trial in range(6):
        if trial % 2 == 0:
            inst, _ = planted_instance(rng, 10, 4, 10)
        else:
            inst = random_instance(rng, 10, 4, 10)
        basis = compute_lin_hull(inst)
        t0 = time.perf_counter()
        sr = bnb_solve(inst, basis)
        elapsed = time.perf_counter() - t0
        assert sr.status in (SolveStatus.FEASIBLE, SolveStatus.INFEASIBLE)
        assert elapsed < 5.0, f"trial {trial} took {elapsed:.2f}s"
        lines.append(
            f"  trial {trial}: {sr.status.value}, {sr.nodes_explored} nodes,"
            f" {elapsed:.2f}s"
        )
    print("scale smoke (n=10, k=4, g=10):")
    for line in lines:
        print(line)
