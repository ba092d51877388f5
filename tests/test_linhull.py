"""Hull basis extraction: tight-row detection and kernel assembly."""

import numpy as np
import pytest

from aarlcp import (
    EmptyUncertaintySet,
    Instance,
    NotCompact,
    RelintViolation,
    compute_lin_hull,
    validate,
)
from aarlcp.core import matrix_rank, rref_kernel_basis, set_pass, uncertainty_tableau
from support import (
    golden_instance,
    random_set,
    reduction_instance,
    reference_compact,
    reference_implicit_equalities,
    seeded_sets,
)


def test_golden_basis():
    basis = compute_lin_hull(golden_instance())
    assert basis.dimension == 1
    v = basis.vectors[0]
    assert np.allclose(v, [1.0, 1.0])
    assert sorted(basis.inequality_rows) == [2, 3]
    assert basis.phi.shape == (2, 2)


def test_singleton_set_has_no_directions():
    basis = compute_lin_hull(reduction_instance([1.0, 1.0]))
    assert basis.dimension == 0
    assert basis.vectors == ()


def test_full_box_keeps_standard_basis():
    Theta = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    zeta = -np.ones(4)
    inst = Instance(M=np.eye(2), q=np.zeros(2), T=np.eye(2), Theta=Theta, zeta=zeta)
    basis = compute_lin_hull(inst)
    assert basis.dimension == 2
    assert np.allclose(np.array(basis.vectors), np.eye(2))
    assert basis.phi.shape == (0, 2)


def test_unbounded_direction_raises():
    inst = Instance(
        M=np.eye(1),
        q=np.zeros(1),
        T=np.ones((1, 1)),
        Theta=np.array([[1.0]]),
        zeta=np.array([-1.0]),
    )
    with pytest.raises(NotCompact):
        compute_lin_hull(inst)
    # rows 2 and 3 are unbounded over the strip; the first one is named
    strip = Instance(
        M=np.eye(2),
        q=np.zeros(2),
        T=np.eye(2),
        Theta=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 2.0]]),
        zeta=-np.ones(4),
    )
    with pytest.raises(NotCompact, match="^direction of row 2 is unbounded"):
        compute_lin_hull(strip)
    # -1 <= u1 <= 1 and u2 free: every row is bounded, the set is not
    strip = Instance(
        M=np.eye(1),
        q=np.zeros(1),
        T=np.zeros((1, 2)),
        Theta=np.array([[1.0, 0.0], [-1.0, 0.0]]),
        zeta=-np.ones(2),
    )
    with pytest.raises(NotCompact, match="^the set is unbounded along"):
        compute_lin_hull(strip)


def test_empty_set_raises():
    Theta = np.array([[1.0], [-1.0]])
    zeta = np.array([1.0, 1.0])
    inst = Instance(M=np.eye(1), q=np.zeros(1), T=np.ones((1, 1)), Theta=Theta, zeta=zeta)
    with pytest.raises(EmptyUncertaintySet):
        compute_lin_hull(inst)


def test_tight_row_off_origin_raises():
    # u pinned to 1: the tight rows have nonzero right-hand sides
    Theta = np.array([[1.0], [-1.0]])
    zeta = np.array([1.0, -1.0])
    inst = Instance(M=np.eye(1), q=np.zeros(1), T=np.ones((1, 1)), Theta=Theta, zeta=zeta)
    with pytest.raises(RelintViolation):
        compute_lin_hull(inst)


@pytest.mark.parametrize(
    "zeta",
    [
        [0.5, -2.0],  # u in [0.5, 2]: the origin is outside the set
        [0.0, -1.0],  # u in [0, 1]: the origin is on its boundary
    ],
)
def test_strict_row_off_origin_raises(zeta):
    # validate's rule: a row that is not tight needs zeta_j < -tol
    inst = Instance(
        M=np.eye(1),
        q=-np.ones(1),
        T=np.ones((1, 1)),
        Theta=np.array([[1.0], [-1.0]]),
        zeta=np.array(zeta),
    )
    assert not validate(inst).zero_in_relint
    with pytest.raises(RelintViolation, match="^row 0 does not hold strictly"):
        compute_lin_hull(inst)


def test_dimension_count_and_normalization():
    rng = np.random.default_rng(17)
    for trial in range(30):
        k = int(rng.integers(1, 4))
        g = int(rng.integers(2 * k, 2 * k + 3))
        tight = bool(rng.uniform() < 0.4) and k >= 2 and g - 2 * k >= 2
        Theta, zeta = random_set(rng, k, g, tight_pair=tight)
        inst = Instance(
            M=np.eye(1),
            q=np.zeros(1),
            T=np.ones((1, k)),
            Theta=Theta,
            zeta=zeta,
        )
        basis = compute_lin_hull(inst)
        assert basis.dimension + matrix_rank(basis.phi) == k
        for v in basis.vectors:
            assert np.abs(v).max() == pytest.approx(1.0)
            if basis.phi.size:
                assert np.allclose(basis.phi @ v, 0.0, atol=1e-8)
        if tight:
            assert basis.dimension == k - 1


def test_set_pass_matches_every_row_reference():
    # skipping the rows that a point already shows strict changes no answer
    outcomes = set()
    for kind, Theta, zeta in seeded_sets(41, 250):
        sp = set_pass(Theta, zeta)
        tab = uncertainty_tableau(Theta, zeta)
        compact = reference_compact(tab, Theta.shape[1])
        tight, unbounded = reference_implicit_equalities(tab, Theta, zeta)
        assert sp.compact == compact, kind
        assert list(sp.tight) == tight, kind
        assert list(sp.unbounded) == unbounded, kind
        assert np.array_equal(sp.tableau.T, tab.T)

        # compute_lin_hull fails on the first offending row, else on a set
        # that is not compact, else returns the reference hull
        inst = Instance(
            M=np.eye(1), q=np.zeros(1), T=np.ones((1, Theta.shape[1])), Theta=Theta, zeta=zeta
        )
        expected = None
        for j in range(len(zeta)):
            if j in unbounded:
                expected = (NotCompact, f"direction of row {j} is unbounded", "unbounded row")
            elif j in tight and abs(zeta[j]) > 1e-8:
                expected = (RelintViolation, f"row {j} is tight everywhere", "tight off 0")
            elif j not in tight and zeta[j] >= -1e-8:
                expected = (RelintViolation, f"row {j} does not hold strictly", "strict off 0")
            if expected:
                break
        if expected is None and not compact:
            expected = (NotCompact, "the set is unbounded along", "not compact")
        if expected is None:
            outcomes.add((kind, "hull"))
            # the kernel of the tight rows, each vector at unit max norm
            reference = [v / np.abs(v).max() for v in rref_kernel_basis(Theta[tight], 1e-8)]
            basis = compute_lin_hull(inst)
            assert basis.inequality_rows == frozenset(range(len(zeta))) - frozenset(tight)
            assert len(basis.vectors) == len(reference)
            for a, b in zip(basis.vectors, reference):
                assert np.array_equal(a, b)
        else:
            outcomes.add((kind, expected[2]))
            with pytest.raises(expected[0], match="^" + expected[1]):
                compute_lin_hull(inst)
    # every kind of set reaches the outcomes it exists for
    for want in (
        ("tight", "hull"),
        ("duplicated", "hull"),
        ("scaled", "hull"),
        ("singleton", "hull"),
        ("singleton", "tight off 0"),
        ("strip", "unbounded row"),
        ("strip", "not compact"),
    ):
        assert want in outcomes, want


def test_validate_passes_exactly_the_sets_compute_lin_hull_accepts():
    # one rule: validate reports a set ok exactly when compute_lin_hull
    # returns, and a refusal names the check that validate reports failed
    seen = set()
    for kind, Theta, zeta in seeded_sets(41, 250):
        inst = Instance(
            M=np.eye(1), q=np.zeros(1), T=np.ones((1, Theta.shape[1])), Theta=Theta, zeta=zeta
        )
        report = validate(inst)
        seen.add(report.ok)
        try:
            basis = compute_lin_hull(inst)
        except NotCompact:
            assert not report.compact, kind
            continue
        except RelintViolation:
            assert not report.zero_in_relint, kind
            continue
        assert report.ok, kind
        assert report.implicit_equality_rows == frozenset(range(inst.g)) - basis.inequality_rows
    assert seen == {True, False}


def test_set_pass_matches_highs():
    linprog = pytest.importorskip("scipy.optimize").linprog

    def maxima(C, Theta, zeta):
        # one HiGHS LP over a copy of the set per objective; None when any
        # objective is unbounded
        m, k = C.shape
        res = linprog(
            -C.ravel(),
            A_ub=-np.kron(np.eye(m), Theta),
            b_ub=-np.tile(zeta, m),
            bounds=(None, None),
            method="highs",
        )
        assert res.status in (0, 3), res.message
        return None if res.status == 3 else (C * res.x.reshape(m, k)).sum(axis=1)

    for kind, Theta, zeta in seeded_sets(41, 250):
        g, k = Theta.shape
        sp = set_pass(Theta, zeta)
        coordinates = np.vstack([np.eye(k), -np.eye(k)])
        assert sp.compact == (maxima(coordinates, Theta, zeta) is not None), kind
        top = maxima(Theta, Theta, zeta)
        if top is None:
            top = [maxima(Theta[j : j + 1], Theta, zeta) for j in range(g)]
            top = [np.inf if t is None else t[0] for t in top]
        # HiGHS's tolerances are looser than the pass's; every strict row of
        # these sets has a slack of at least 0.3 times its norm
        tight = np.asarray(top) - zeta <= 1e-6 * np.abs(Theta).max(axis=1)
        assert list(sp.tight) == np.nonzero(tight)[0].tolist(), kind
