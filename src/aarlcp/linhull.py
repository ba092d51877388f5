"""Linear hull of the uncertainty polyhedron.

Rows whose inequality is tight over the entire set are implicit equalities.
Because the origin lies in the relative interior, each such row has a zero
right-hand side, so the set spans exactly the kernel of the stacked tight
rows.  A basis of that kernel is what the direction constraints of the
reformulation range over.  compute_lin_hull is the one constructor of that
basis: it checks the standing assumption as core.validate does, from the
same core.set_pass, and raises where validate would report a bad set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import Instance, rref_kernel_basis, set_pass
from .lp import Tableau


@dataclass(frozen=True, eq=False)
class LinHullBasis:
    """Basis of the linear hull plus the implicit-equality split.

    vectors: tuple of length-k arrays spanning the hull, each scaled to unit
    infinity norm, ordered by the free column of the underlying elimination.
    phi: the stacked implicit-equality rows (possibly zero rows).
    inequality_rows: indices of the rows that stay strict somewhere.
    tableau: the set's phase-one tableau (core.uncertainty_tableau), so the
    set is nonempty; every later maximization over the set starts from it.
    Tableau.maximize works on a copy, so the basis may be shared.
    """

    vectors: tuple[np.ndarray, ...]
    phi: np.ndarray
    inequality_rows: frozenset[int]
    tableau: Tableau

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    @property
    def matrix(self) -> np.ndarray:
        """B, the k x d matrix whose columns are the vectors."""
        return np.array(self.vectors).reshape(self.dimension, self.phi.shape[1]).T

    def coordinates(self, inst: Instance) -> Instance:
        """inst in hull coordinates u = B v: the strict set rows Theta B,
        T B and a free block's P B.  The set in v is full-dimensional with
        the origin inside, and a rule D' in v is the rule D' B^+ in u."""
        if not len(self.phi):  # B = I and every row strict: inst as it is
            return inst
        B, strict = self.matrix, sorted(self.inequality_rows)
        mixed = inst.mixed
        if mixed is not None:
            mixed = replace(mixed, P=mixed.P @ B)
        Theta, zeta = inst.Theta[strict] @ B, inst.zeta[strict]
        return replace(inst, T=inst.T @ B, Theta=Theta, zeta=zeta, mixed=mixed)


def compute_lin_hull(inst: Instance, tol: float = 1e-8) -> LinHullBasis:
    """Split the set description into implicit equalities and strict rows,
    then return a kernel basis of the equality part.

    The split and the origin rule come from core.set_pass, whose faults
    core.validate reports as booleans; here the first one is raised:
    NotCompact for a row that is unbounded over the set, RelintViolation
    for a row tight everywhere with a nonzero right-hand side or for a
    strict row that the origin does not satisfy strictly (zeta_j >= -tol).
    A set that is not compact raises NotCompact even when every row is
    bounded over it, and an empty set raises EmptyUncertaintySet.
    """
    sp = set_pass(inst.Theta, inst.zeta, tol)
    if sp.faults:
        raise sp.faults[0]
    phi = inst.Theta[list(sp.tight)]
    phi.setflags(write=False)
    vectors = []
    for v in rref_kernel_basis(phi, tol):
        v = v / np.abs(v).max()
        v.setflags(write=False)
        vectors.append(v)
    return LinHullBasis(
        vectors=tuple(vectors),
        phi=phi,
        inequality_rows=frozenset(range(inst.g)) - frozenset(sp.tight),
        tableau=sp.tableau,
    )
