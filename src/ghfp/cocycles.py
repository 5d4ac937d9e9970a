"""Cocycles psi: G x G -> (F_q, +), coboundaries, orthogonality, tensors.

The paper's multiplicative coefficient notation maps to additive F_q here:
u^{-1} becomes -u and a product uv becomes u + v.  That conversion is made
once, in this module, and everything downstream stays additive.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import (
    CocycleIdentityViolated,
    DivisibilityViolated,
    FieldMismatch,
    NotNormalized,
    OrderMismatch,
)
from .fields import Field, block_rows, row_histograms
from .groups import Group, additive_group_of


class Cocycle:
    """A normalized cocycle stored as its v x v table of field encodings."""

    def __init__(self, group: Group, field: Field, table, check: str = "full"):
        """check: "full" verifies the cocycle identity exactly, or "skip" for
        construction paths that guarantee it; checked records which."""
        table = np.asarray(table, dtype=np.int64)
        v = group.order
        if table.shape != (v, v):
            raise OrderMismatch(f"table shape {table.shape} != ({v},{v})")
        self.group = group
        self.field = field
        self.table = table
        self.v = v
        if table[0].any() or table[:, 0].any():
            raise NotNormalized("row 0 and column 0 must be identity")
        self.checked = check != "skip"
        if self.checked:
            self._check_identity()

    def _check_identity(self):
        """psi(g,h) + psi(gh,k) = psi(g,hk) + psi(h,k) for g in a generating
        set of G and all h, k; raises CocycleIdentityViolated.

        This is exact at every order (Light's associativity test; Clifford &
        Preston, The Algebraic Theory of Semigroups I, 1961, section 1.2).
        In the magma E_psi on pairs (u,g)(w,h) = (u + w + psi(g,h), gh), the
        left nucleus {a : (ab)c = a(bc) for all b, c} is closed under
        products.  The central elements (u,1) lie in it because psi is
        normalized, and, G being a group, (0,g) lies in it exactly when the
        identity holds at g for all h, k.  As (0,gh) = (-psi(g,h),1)((0,g)(0,h))
        and every element of G is a product of generators, (0,g) lies in it
        for every g once it does for the generators.
        """
        t, gt, f, v = self.table, self.group.table, self.field, self.v
        step = block_rows(v)
        for g in self.group.generators():
            for h0 in range(0, v, step):
                b = slice(h0, h0 + step)
                lhs = f.vadd(t[g][b, None], t[gt[g, b], :])
                rhs = f.vadd(t[g][gt[b]], t[b])
                if not (lhs == rhs).all():
                    h, k = map(int, np.argwhere(lhs != rhs)[0])
                    raise CocycleIdentityViolated(g, h0 + h, k)

    @property
    def q(self) -> int:
        return self.field.q

    def __eq__(self, other):
        return (isinstance(other, Cocycle)
                and self.field == other.field
                and (self.table == other.table).all()
                and (self.group.table == other.group.table).all())

    def __repr__(self):
        return f"Cocycle(v={self.v}, q={self.q})"


def check_cocycle(table, group: Group, field: Field) -> Cocycle:
    """Validate a table as a normalized cocycle (full identity check)."""
    return Cocycle(group, field, table, check="full")


def trivial_cocycle(group: Group, field: Field) -> Cocycle:
    v = group.order
    return Cocycle(group, field, np.zeros((v, v), dtype=np.int64), check="skip")


def coboundary(phi, group: Group, field: Field) -> Cocycle:
    """The coboundary d(phi)(g,h) = phi(gh) - phi(g) - phi(h).

    phi is an array of field encodings indexed by group index; if phi(1) != 0
    it is normalized first by subtracting phi(1).
    """
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape[0] != group.order:
        raise OrderMismatch("phi length must equal the group order")
    if phi[0] != 0:
        phi = field.vsub(phi, np.full_like(phi, int(phi[0])))
    table = field.vsub(field.vsub(phi[group.table], phi[:, None]), phi[None, :])
    return Cocycle(group, field, table, check="skip")


def multiplication_cocycle(field: Field, ordering: str = "encoding") -> Cocycle:
    """psi(g,h) = g*h over (F_q,+): the cocycle of the Sylvester matrix S_q."""
    group = additive_group_of(field, ordering)
    if ordering == "encoding":
        elems = np.arange(field.q, dtype=np.int64)
    else:
        elems = np.concatenate(([0], field.exp[:field.q - 1].astype(np.int64)))
    table = field.vmul(elems[:, None], elems[None, :])
    return Cocycle(group, field, table, check="skip")


def is_orthogonal(psi: Cocycle) -> Tuple[bool, Optional[Tuple[int, int, int]]]:
    """Every non-identity row hits each u in F_q exactly v/q times.

    Returns (True, None) or (False, (g, u, count)) for the first failure in
    row-major scan order.
    """
    v, q = psi.v, psi.q
    if v == 1:
        return True, None  # no non-identity rows: vacuously orthogonal
    if v % q:
        raise DivisibilityViolated(f"q={q} does not divide v={v}")
    lam = v // q
    counts = row_histograms(psi.table[1:], q)
    bad = counts != lam
    if bad.any():
        g, u = map(int, np.argwhere(bad)[0])
        return False, (g + 1, u, int(counts[g, u]))
    return True, None


def tensor(psi1: Cocycle, psi2: Cocycle) -> Cocycle:
    """Tensor cocycle over G x G' with G-major lexicographic indexing.

    The cocyclic matrix of the tensor is the Kronecker sum of the factors'
    matrices, blockwise in this indexing.
    """
    if psi1.field != psi2.field:
        raise FieldMismatch("tensor factors need the same coefficient field")
    group = psi1.group.direct_product(psi2.group)
    v1, v2 = psi1.v, psi2.v
    t = psi1.field.vadd(psi1.table[:, :, None, None], psi2.table[None, None, :, :])
    t = t.transpose(0, 2, 1, 3).reshape(v1 * v2, v1 * v2)
    return Cocycle(group, psi1.field, t, check="skip")


def lift(psi: Cocycle, field: Field) -> Cocycle:
    """Re-read a cocycle over GF(p) as one with coefficients in GF(p^m).

    Prime-subfield encodings are unchanged; orthogonality is generally lost.
    """
    if psi.field.m != 1 or psi.field.p != field.p:
        raise FieldMismatch("can only lift from the prime subfield")
    return Cocycle(psi.group, field, field.lift_from_prime(psi.table), check="skip")


def matrix_of(psi: Cocycle):
    """The cocyclic matrix M_psi as a GHMatrix candidate (indexing retained).

    A checked psi is its matrix's cocycle() verdict, so the identity is not
    checked again."""
    from .ghmatrix import GHMatrix

    M = GHMatrix(psi.field, psi.table, group=psi.group)
    if psi.checked:
        M._cocycle = psi
    return M
