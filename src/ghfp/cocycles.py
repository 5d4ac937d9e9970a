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
from .fields import Field, block_rows, largest_entry, row_histograms
from .groups import Group, additive_group_of


# (|S| - 1) v^2 from which Cocycle decides the identity on G's Cayley tree:
# the tree check makes about v^2 comparisons where the generator scan makes
# |S| v^2, but its relator checks cost about 0.1 ms of fixed calls, more
# than the whole scan below this (measured in CHANGES.md).
MIN_TREE_WORK = 1 << 17


class Cocycle:
    """A normalized cocycle stored as its v x v table of field encodings."""

    def __init__(self, group: Group, field: Field, table, check: str = "full"):
        """check: "full" checks that every entry is in [0, q)
        (FieldMismatch), that G is a group (Group.check raises its
        NotAGroup or NotAssociative), then the identity at G's generators;
        "theorem" records that the construction proves the identity (the
        proof is in each construction's docstring) and computes nothing;
        "skip" leaves it unchecked and asks nothing of G.  checked, the
        verdict matrix_of passes on, is True for "full", and for "theorem"
        over a group (Group.is_group): every proof, and every shortcut
        taken from a verdict, needs G's group law."""
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
        if check not in ("skip", "theorem"):
            largest_entry(table, field.q, FieldMismatch)
            group.check()
            self._check_identity()
        self.checked = check != "skip" and group.is_group()

    def _check_identity(self):
        """psi(g,h) + psi(gh,k) = psi(g,hk) + psi(h,k) for g in a generating
        set of G and all h, k; raises CocycleIdentityViolated.

        This is exact at every order over a group, which __init__ checks
        first (Light's associativity test; Clifford & Preston, The Algebraic
        Theory of Semigroups I, 1961, section 1.2).
        In the magma E_psi on pairs (u,g)(w,h) = (u + w + psi(g,h), gh), the
        left nucleus {a : (ab)c = a(bc) for all b, c} is closed under
        products.  The central elements (u,1) lie in it because psi is
        normalized, and, G being a group, (0,g) lies in it exactly when the
        identity holds at g for all h, k.  As (0,gh) = (-psi(g,h),1)((0,g)(0,h))
        and every element of G is a product of generators, (0,g) lies in it
        for every g once it does for the generators.

        The table is packed in base-p lanes once (Field._lanes), so each side
        is one lane add; packed words are equal exactly when the encodings
        are.  When G has a Cayley tree (Group.cayley_tree) and (|S| - 1) v^2
        reaches MIN_TREE_WORK, the generators are decided on the tree and
        the relators (_identity_on_tree), about v^2 entries in all.
        Otherwise, or when that check fails, the generator scan
        (_identity_scan) names the witness, as it did before the tree.
        """
        lanes, group, v = self.field._lanes, self.group, self.v
        t = lanes.pack.take(self.table)
        gens = group.generators()
        if (len(gens) - 1) * v * v >= MIN_TREE_WORK:
            tree = group.cayley_tree()
            if tree is not None and _identity_on_tree(lanes, t, group.table,
                                                      tree):
                return
        witness = _identity_scan(lanes, t, group.table, gens)
        if witness is not None:
            raise CocycleIdentityViolated(*witness)

    @property
    def q(self) -> int:
        return self.field.q

    def __eq__(self, other):
        return (isinstance(other, Cocycle)
                and self.field == other.field
                and np.array_equal(self.table, other.table)
                and np.array_equal(self.group.table, other.group.table))

    def __repr__(self):
        return f"Cocycle(v={self.v}, q={self.q})"


def _identity_scan(lanes, t, gt, gens) -> Optional[Tuple[int, int, int]]:
    """The first (g, h, k), g in gens, where the identity fails on the
    packed table t over the group table gt, or None: each generator in
    turn, in row blocks of block_rows(v), and the first failing (h, k) of
    the first failing block read with one argmax."""
    v = len(t)
    step = block_rows(v)
    for g in gens:
        tg = t[g]
        for h0 in range(0, v, step):
            b = slice(h0, h0 + step)
            bad = (lanes.add(tg[b, None], t[gt[g, b]])
                   != lanes.add(tg[gt[b]], t[b]))
            if bad.any():
                h, k = divmod(int(bad.argmax()), v)
                return g, h0 + h, k
    return None


def _identity_on_tree(lanes, t, gt, tree) -> bool:
    """Whether the identity holds at every generator, decided on the Cayley
    tree (order, levels) of G = prod Z_{o_s} (Group.cayley_tree) for the
    packed table t over the group table gt.

    It checks the identity at (s, h', k) on the v - 1 tree edges h = s h'
    only, for all k, and then the relators: C(x) = psi(t,x) + psi(s,tx) -
    psi(s,x) - psi(t,sx) and F_s(x) = sum_{a < o_s} psi(s, s^a x) must each
    be constant in x, for all generators s and t.  F_s is checked only when
    p, the field's characteristic, does not divide o_s: summing C over the
    orbit of x under s gives F_s(tx) - F_s(x) = o_s C, zero when p divides
    o_s, and F_s(sx) = F_s(x), so F_s is constant; over a p-group of
    characteristic p no F_s is checked.
    Proof: for a column k,
    the identity at (s, h, k) says that u(h) = psi(h,k) is a potential for
    the labels w_s(h) = psi(s,hk) - psi(s,h) on the edges h -> sh, as
    u(sh) - u(h) = w_s(h).  Around the relator cycle of s^{o_s} at x the
    labels sum to F_s(xk) - F_s(x), and around that of st = ts at x to the
    commutator's value at xk minus its value at x; these cycles at every
    base point generate every closed walk of the Cayley graph, as the
    relators present G.  So the labels have a potential, zero at 1; it
    equals u, which is zero at 1, along the tree, hence everywhere, and the
    identity holds at (s, h, k) for every s and h.  The cost is v^2 entries
    plus at most (sum o_s + |S|^2) v, against |S| v^2 for the scan."""
    order, levels = tree
    v = len(t)
    S = np.array([s for s, _, _ in levels], dtype=np.int64)
    T, GS = t[S], gt[S]
    L = lanes.add(T, T[:, GS])  # [i, j, x]: psi(s_j, x) + psi(s_i, s_j x)
    Lt = L.transpose(1, 0, 2)
    if (lanes.add(L, Lt[:, :, :1]) != lanes.add(Lt, L[:, :, :1])).any():
        return False
    step = block_rows(v)
    for (s, o, n), ts, gs in zip(levels, T, GS):
        if o % lanes.p:
            f, y = ts, gs  # f: the sum of psi(s, s^a x) so far; y: s^(a+1) x
            for _ in range(o - 1):
                f, y = lanes.add(f, ts.take(y)), gs.take(y)
            if (f != f[0]).any():
                return False
        for b in range(n, o * n, step):
            e = min(b + step, o * n)
            if order is None:
                rows, par = slice(b, e), slice(b - n, e - n)
            else:
                rows, par = order[b:e], order[b - n:e - n]
            if (lanes.add(ts[par][:, None], t[rows])
                    != lanes.add(ts.take(gt[par]), t[par])).any():
                return False
    return True


def check_cocycle(table, group: Group, field: Field) -> Cocycle:
    """Validate a table as a normalized cocycle (full identity check)."""
    return Cocycle(group, field, table, check="full")


def trivial_cocycle(group: Group, field: Field) -> Cocycle:
    """The zero cocycle; 0 + 0 = 0 + 0, with a verdict over a group."""
    v = group.order
    return Cocycle(group, field, np.zeros((v, v), dtype=np.int64),
                   check="theorem")


def coboundary(phi, group: Group, field: Field) -> Cocycle:
    """The coboundary d(phi)(g,h) = phi(gh) - phi(g) - phi(h).

    phi is an array of field encodings indexed by group index; if phi(1) != 0
    it is normalized first by subtracting phi(1).

    Over a group it is a cocycle by theorem: both sides of the identity
    reduce to phi((gh)k) and phi(g(hk)) minus phi(g) + phi(h) + phi(k).
    Over a table that is no group it carries no verdict (Cocycle decides).
    """
    phi = np.asarray(phi, dtype=np.int64)
    if phi.shape[0] != group.order:
        raise OrderMismatch("phi length must equal the group order")
    if phi[0] != 0:
        phi = field.vsub(phi, np.full_like(phi, int(phi[0])))
    table = field.vsub(field.vsub(phi[group.table], phi[:, None]), phi[None, :])
    return Cocycle(group, field, table, check="theorem")


def multiplication_cocycle(field: Field, ordering: str = "encoding") -> Cocycle:
    """psi(g,h) = g*h over (F_q,+): the cocycle of the Sylvester matrix S_q.

    A cocycle by theorem, as every bilinear form over (F_q, +) is: gh +
    (g+h)k = gh + gk + hk = g(h+k) + hk."""
    group = additive_group_of(field, ordering)
    if ordering == "encoding":
        elems = np.arange(field.q, dtype=np.int64)
    else:
        elems = np.concatenate(([0], field.exp[:field.q - 1].astype(np.int64)))
    table = field.vmul(elems[:, None], elems[None, :])
    return Cocycle(group, field, table, check="theorem")


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
    matrices, blockwise in this indexing.  Its identity at ((g,g'), (h,h'),
    (k,k')) is the sum of the factors' at (g, h, k) and (g', h', k'), so it
    holds by theorem when both factors hold a verdict.
    """
    if psi1.field != psi2.field:
        raise FieldMismatch("tensor factors need the same coefficient field")
    group = psi1.group.direct_product(psi2.group)
    v1, v2 = psi1.v, psi2.v
    t = psi1.field.vadd(psi1.table[:, :, None, None], psi2.table[None, None, :, :])
    t = t.transpose(0, 2, 1, 3).reshape(v1 * v2, v1 * v2)
    return Cocycle(group, psi1.field, t,
                   check="theorem" if psi1.checked and psi2.checked else "skip")


def lift(psi: Cocycle, field: Field) -> Cocycle:
    """Re-read a cocycle over GF(p) as one with coefficients in GF(p^m).

    Prime-subfield encodings are unchanged; orthogonality is generally lost.
    The embedding of GF(p) is additive, so the identity, and psi's verdict,
    carry over.
    """
    if psi.field.m != 1 or psi.field.p != field.p:
        raise FieldMismatch("can only lift from the prime subfield")
    return Cocycle(psi.group, field, field.lift_from_prime(psi.table),
                   check="theorem" if psi.checked else "skip")

