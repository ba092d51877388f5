"""Linear hull of the uncertainty polyhedron.

Rows whose inequality is tight over the entire set are implicit equalities.
Because the origin lies in the relative interior, each such row has a zero
right-hand side, so the set spans exactly the kernel of the stacked tight
rows.  A basis of that kernel is what the direction constraints of the
reformulation range over.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, rref_kernel_basis, set_pass
from .errors import NotCompact, RelintViolation
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


def compute_lin_hull(inst: Instance, tol: float = 1e-8) -> LinHullBasis:
    """Split the set description into implicit equalities and strict rows,
    then return a kernel basis of the equality part.

    Expects a validated instance (compact set, origin in the relative
    interior).  The split is the one core.set_pass that validate runs too,
    and so is the origin rule.  The first offending row decides the error:
    NotCompact for a row that is unbounded over the set, RelintViolation
    for a row tight everywhere with a nonzero right-hand side or for a
    strict row that the origin does not satisfy strictly (zeta_j >= -tol).
    A set that is not compact raises NotCompact even when every row is
    bounded over it.
    """
    zeta = inst.zeta
    sp = set_pass(inst.Theta, zeta, tol)
    for j in range(inst.g):
        if j in sp.unbounded:
            raise NotCompact(f"direction of row {j} is unbounded over the set")
        if j in sp.tight:
            if abs(zeta[j]) > tol:
                raise RelintViolation(
                    f"row {j} is tight everywhere with nonzero right-hand side"
                )
        elif zeta[j] >= -tol:
            raise RelintViolation(f"row {j} does not hold strictly at the origin")
    if not sp.compact:
        raise NotCompact("the set is unbounded along a coordinate direction")
    return hull_from_equalities(inst, sp.tight, sp.tableau, tol)


def hull_from_equalities(
    inst: Instance, eq_rows, tab: Tableau, tol: float = 1e-8
) -> LinHullBasis:
    """Hull basis from known implicit-equality rows and the set's phase-one
    tableau, with no further LP; core.validate and compute_lin_hull share it.
    """
    eq_rows = sorted(eq_rows)
    phi = inst.Theta[eq_rows] if eq_rows else np.zeros((0, inst.k))
    raw = rref_kernel_basis(phi, tol)
    vectors = []
    for v in raw:
        v = v / np.abs(v).max()
        v.setflags(write=False)
        vectors.append(v)
    phi = phi.copy()
    phi.setflags(write=False)
    return LinHullBasis(
        vectors=tuple(vectors),
        phi=phi,
        inequality_rows=frozenset(range(inst.g)) - frozenset(eq_rows),
        tableau=tab,
    )
