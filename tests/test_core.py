"""Data model, kernel basis, and set validation tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aarlcp import (
    EmptyUncertaintySet,
    DimensionMismatch,
    Instance,
    MixedExtension,
    Policy,
    rref_kernel_basis,
    validate,
)
from aarlcp.core import (
    as_matrix,
    as_vector,
    uncertainty_tableau,
    matrix_rank,
    policy_matches_instance,
)
from support import golden_instance, box_set


def test_as_matrix_rejects_bad_shapes_and_values():
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_vector([np.inf])
    arr = as_matrix([[1.0, 2.0]])
    assert not arr.flags.writeable


def test_kernel_basis_known_cases():
    vs = rref_kernel_basis(np.array([[1.0, -1.0]]))
    assert len(vs) == 1
    assert np.allclose(vs[0], [1.0, 1.0])

    # zero matrix keeps the whole space
    vs = rref_kernel_basis(np.zeros((2, 3)))
    assert len(vs) == 3
    assert np.allclose(np.array(vs), np.eye(3))

    # full column rank leaves nothing
    assert rref_kernel_basis(np.array([[1.0, 0.0], [0.0, 1.0]])) == []


def test_row_reduction_accepts_any_memory_layout():
    # a transpose is Fortran-ordered; the elimination must not care
    rng = np.random.default_rng(9)
    for rows, cols in ((2, 2), (3, 5), (5, 3)):
        a = rng.integers(-3, 4, size=(cols, rows)).astype(float)
        a[:, 0] = a[:, 1]  # rank-deficient, so the kernel is not empty
        at = a.T
        assert not at.flags.c_contiguous
        want = rref_kernel_basis(np.ascontiguousarray(at))
        got = rref_kernel_basis(at)
        assert len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))
        assert matrix_rank(at) == matrix_rank(np.ascontiguousarray(at))


def test_kernel_basis_rank_plus_dim():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rows = rng.integers(1, 5)
        cols = rng.integers(1, 5)
        a = rng.integers(-3, 4, size=(rows, cols)).astype(float)
        vs = rref_kernel_basis(a)
        assert len(vs) + matrix_rank(a) == cols
        for v in vs:
            assert np.allclose(a @ v, 0.0, atol=1e-9)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=10_000),
)
def test_kernel_vectors_annihilate(rows, cols, seed):
    a = np.random.default_rng(seed).integers(-2, 3, size=(rows, cols)).astype(float)
    for v in rref_kernel_basis(a):
        assert np.allclose(a @ v, 0.0, atol=1e-9)
        assert np.abs(v).max() > 0.0


def test_instance_dimension_checks():
    good = golden_instance()
    assert (good.n, good.k, good.g) == (2, 2, 4)
    with pytest.raises(DimensionMismatch):
        Instance(
            M=np.eye(2),
            q=np.zeros(3),
            T=np.eye(2),
            Theta=np.eye(2),
            zeta=np.zeros(2),
        )
    with pytest.raises(DimensionMismatch):
        Instance(
            M=np.eye(2),
            q=np.zeros(2),
            T=np.zeros((2, 3)),
            Theta=np.eye(2),
            zeta=np.zeros(2),
        )
    with pytest.raises(ValueError):
        Instance(
            M=np.eye(2),
            q=np.zeros(2),
            T=np.eye(2),
            Theta=np.eye(2),
            zeta=np.zeros(2),
            h=2,
        )
    # h is an integer: no truncated float, no boolean
    for h in (1.7, 1.0, True, np.float64(1.0), "1"):
        with pytest.raises(ValueError, match="h must be an integer"):
            dataclasses.replace(good, h=h)
    for h in (1, np.int64(1), np.int32(0)):
        inst = dataclasses.replace(good, h=h)
        assert inst.h == int(h) and type(inst.h) is int


def test_instance_arrays_frozen():
    inst = golden_instance()
    with pytest.raises(ValueError):
        inst.M[0, 0] = 5.0


def test_mixed_extension_shapes():
    with pytest.raises(DimensionMismatch):
        MixedExtension(
            V=np.zeros((1, 2)),
            W=np.zeros((1, 2)),  # must be square
            N=np.zeros((2, 1)),
            p=np.zeros(1),
            P=np.zeros((1, 2)),
        )
    blocks = dict(
        V=np.zeros((1, 2)), W=np.eye(1), N=np.zeros((2, 1)), p=np.zeros(1), P=np.zeros((1, 2))
    )
    # y_adjustable is a bool, not a truthy string or number
    for flag in ("false", "true", 0, 1, None):
        with pytest.raises(ValueError, match="y_adjustable must be a bool"):
            MixedExtension(**blocks, y_adjustable=flag)
    for flag in (True, False, np.bool_(True), np.bool_(False)):
        mx = MixedExtension(**blocks, y_adjustable=flag)
        assert mx.y_adjustable is bool(flag)


def test_policy_validation():
    with pytest.raises(ValueError):
        Policy(D=np.zeros((2, 1)), r=[-1.0, 0.0], x=[0, 0])
    with pytest.raises(ValueError):
        Policy(D=np.zeros((2, 1)), r=[0.0, 0.0], x=[0, 2])
    with pytest.raises(ValueError):
        Policy(D=np.zeros((2, 1)), r=[0.0, 0.0], x=[0.4, 0.0])
    # tiny negatives clamp to zero
    pol = Policy(D=np.zeros((2, 1)), r=[-1e-12, 1.0], x=[0, 1])
    assert pol.r[0] == 0.0
    assert pol.x.dtype.kind == "i"


def test_policy_matches_instance_pins():
    Theta, zeta = box_set(1)
    inst = Instance(
        M=np.eye(2),
        q=np.zeros(2),
        T=np.zeros((2, 1)),
        Theta=Theta,
        zeta=zeta,
        h=1,
    )
    ok = Policy(D=np.array([[0.0], [1.0]]), r=[0.0, 0.0], x=[0, 0])
    policy_matches_instance(inst, ok)
    bad = Policy(D=np.array([[1.0], [0.0]]), r=[0.0, 0.0], x=[0, 0])
    with pytest.raises(ValueError):
        policy_matches_instance(inst, bad)


def test_validate_golden_set():
    report = validate(golden_instance())
    assert report.ok
    assert report.compact
    assert report.zero_in_relint
    assert sorted(report.implicit_equality_rows) == [0, 1]
    assert report.warnings == ()


def test_validate_accepts_a_transposed_channel():
    inst = golden_instance()
    T = np.ascontiguousarray(inst.T.T).T  # the same matrix, Fortran-ordered
    assert not T.flags.c_contiguous
    twin = Instance(M=inst.M, q=inst.q, T=T, Theta=inst.Theta, zeta=inst.zeta)
    assert not twin.T.flags.c_contiguous
    assert validate(twin) == validate(inst)


def test_validate_unbounded_set():
    inst = Instance(
        M=np.eye(1),
        q=np.zeros(1),
        T=np.ones((1, 1)),
        Theta=np.array([[1.0]]),  # u >= -1 only: no upper bound
        zeta=np.array([-1.0]),
    )
    report = validate(inst)
    assert not report.compact
    assert not report.ok


def test_validate_origin_outside():
    Theta = np.array([[1.0], [-1.0]])
    zeta = np.array([0.5, -2.0])  # u in [0.5, 2]: origin excluded
    inst = Instance(M=np.eye(1), q=np.zeros(1), T=np.ones((1, 1)), Theta=Theta, zeta=zeta)
    report = validate(inst)
    assert report.compact
    assert not report.zero_in_relint
    assert not report.ok


def test_validate_empty_set():
    Theta = np.array([[1.0], [-1.0]])
    zeta = np.array([1.0, 1.0])  # u >= 1 and u <= -1
    inst = Instance(M=np.eye(1), q=np.zeros(1), T=np.ones((1, 1)), Theta=Theta, zeta=zeta)
    with pytest.raises(EmptyUncertaintySet):
        validate(inst)
    with pytest.raises(EmptyUncertaintySet):
        uncertainty_tableau(Theta, zeta)


def test_validate_rank_warning():
    Theta, zeta = box_set(2)
    inst = Instance(
        M=np.eye(1),
        q=np.zeros(1),
        T=np.array([[1.0, 1.0]]),  # 1x2 channel cannot have rank 2
        Theta=Theta,
        zeta=zeta,
    )
    report = validate(inst)
    assert report.ok  # warning only
    assert not report.t_full_column_rank
    assert any("rank" in w for w in report.warnings)


def test_public_names_resolve():
    import aarlcp

    assert len(set(aarlcp.__all__)) == len(aarlcp.__all__)
    for name in aarlcp.__all__:
        assert hasattr(aarlcp, name), name
