"""The canonical central extension E_psi, relative difference sets, and the
F_H intersection profile and coset zero sets of C_H.

E_psi lives on pairs (u, g) with (u,g)(w,h) = (u + w + psi(g,h), gh); the
coefficient copy U x {1} is central and T(psi) = {(0, g)} is a normalized
transversal.  Elements are kept as pairs and multiplied on demand; nothing
is tabulated unless the order is small.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .cocycles import Cocycle
from .errors import NotNormal, SizeGateExceeded, SizeMismatch
from .fields import row_histograms
from .groups import Group, _prime_factors, invariants_from_order_counts
from .propelinear import PropelinearCode

TABULATE_MAX = 10 ** 4

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

    def identity(self) -> Pair:
        return (0, 0)

    def mul(self, a: Pair, b: Pair) -> Pair:
        (u, g), (w, h) = a, b
        return (self.field.add(self.field.add(u, w), int(self.psi.table[g, h])),
                int(self.group.table[g, h]))

    def inverse(self, a: Pair) -> Pair:
        u, g = a
        ginv = int(self.group.inv[g])
        return (self.field.neg(self.field.add(u, int(self.psi.table[g, ginv]))),
                ginv)

    def elements(self) -> Iterable[Pair]:
        for u in range(self.q):
            for g in range(self.v):
                yield (u, g)

    def transversal(self) -> List[Pair]:
        """T(psi) = {(0, g)}, a normalized transversal of U x {1}."""
        return [(0, g) for g in range(self.v)]

    def coefficient_subgroup(self) -> List[Pair]:
        return [(u, 0) for u in range(self.q)]

    @property
    def is_abelian(self) -> bool:
        return self.group.is_abelian and (self.psi.table == self.psi.table.T).all()

    def center_contains_coefficients(self) -> bool:
        """(u, 1) commutes with everything, exactly: (u,1)(w,h) and (w,h)(u,1)
        differ only in psi(1,h) against psi(h,1)."""
        t = self.psi.table
        return bool((t[0] == t[:, 0]).all())

    def as_group(self) -> Group:
        """Materialized Cayley table, gated to small orders.

        Element (u, g) gets index u*v + g after relabeling so the identity
        is index 0 (it already is).
        """
        if self.order > TABULATE_MAX:
            raise SizeGateExceeded(f"order {self.order} > {TABULATE_MAX}")
        f, gt, t, v = self.field, self.group.table, self.psi.table, self.v
        us = np.arange(self.q, dtype=np.int64)
        table = np.empty((self.order, self.order), dtype=np.int64)
        for u in range(self.q):
            for g in range(self.v):
                uw = f.vadd(u, us)[:, None]     # u + w
                uv = f.vadd(uw, t[g][None, :])  # + psi(g, h)
                table[u * v + g] = (uv * v + gt[g][None, :]).reshape(-1)
        return Group(table, check=False)

    def power(self, a: Pair, n: int) -> Pair:
        out = self.identity()
        base = a
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def abelian_invariants(self) -> List[int]:
        """Invariant factors of E_psi, via solution counts of x^(r^k) = 1.

        Works element-lazily: the n-th power map is vectorized over all
        (u, g) at once, so no Cayley table is needed.
        """
        if not self.is_abelian:
            from .errors import NotAbelian

            raise NotAbelian(self.order, self._exponent())
        return invariants_from_order_counts(self.order, self._count_killed)

    def _count_killed(self, r: int, k: int = 1) -> int:
        """#{x : x^(r^k) = 1}."""
        n = r ** k
        U, G = self._all_powers(n)
        return int(((U == 0) & (G == 0)).sum())

    def _all_powers(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(u, g)^n for every element, by square-and-multiply on arrays."""
        f, gt, t, v = self.field, self.group.table, self.psi.table, self.v
        us = np.repeat(np.arange(self.q, dtype=np.int64), v)
        gs = np.tile(np.arange(v, dtype=np.int64), self.q)
        outU = np.zeros_like(us)
        outG = np.zeros_like(gs)
        bU, bG = us, gs
        while n:
            if n & 1:
                outU = f.vadd(f.vadd(outU, bU), t[outG, bG])
                outG = gt[outG, bG]
            n >>= 1
            if n:
                bU = f.vadd(f.vadd(bU, bU), t[bG, bG])
                bG = gt[bG, bG]
        return outU, outG

    def _exponent(self) -> int:
        """The least n with x^n = 1 for every x.  It divides |E|, so start
        at |E| and divide out each prime r while every x^(n/r) is 1."""
        n = self.order
        for r in _prime_factors(self.order):
            while n % r == 0 and self._count_killed(n // r) == self.order:
                n //= r
        return n

    def __repr__(self):
        return f"ExtensionGroup(order={self.order})"


def extension_group(psi: Cocycle) -> ExtensionGroup:
    return ExtensionGroup(psi)


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
    """Fast path: is T(psi) a relative (v, q, v, v/q)-difference set in E_psi
    with forbidden subgroup U x {1}?  Vectorized over all ordered pairs."""
    E = ExtensionGroup(psi)
    f, gt, t, v, q = E.field, E.group.table, E.psi.table, E.v, E.q
    if v % q:
        return False, (v, q, v, 0)
    lam = v // q
    inv = E.group.inv
    # (0,g)(0,h)^-1 = (psi(g, h^-1) - psi(h, h^-1), g h^-1)
    upart = f.vsub(t[:, inv], t[np.arange(v), inv][None, :])
    spart = gt[:, inv]
    mask = ~np.eye(v, dtype=bool)
    keys = (upart.astype(np.int64) * v + spart)[mask]
    counts = np.bincount(keys, minlength=q * v)
    # forbidden subgroup keys are u*v + 0: zero hits there, lam everywhere else
    in_z = np.zeros(q * v, dtype=bool)
    in_z[np.arange(q) * v] = True
    ok = bool((counts[in_z] == 0).all() and (counts[~in_z] == lam).all())
    return ok, (v, q, v, lam)


def fh_intersection_profile(P: PropelinearCode) -> Dict[str, object]:
    """|F_H  intersect  x*F_H| for every codeword x.

    The value must be v at x = 0, 0 on the rest of the repetition code, and
    v/q everywhere else.  For x = f_rho + a*1, x * f_r = a*1 + f_rho * f_r;
    with f_rho * f_r = c*1 + f_s, that lies in F_H exactly when c = -a.
    So the row-product table gives the values at every a.
    """
    f, v, q = P.field, P.v, P.q
    lam = v // q
    rows, c = P.row_products()
    rhos = np.broadcast_to(np.arange(v)[:, None], (v, v))
    hit = rows >= 0
    values = np.bincount(f.vneg(c[hit]) * v + rhos[hit], minlength=q * v)
    expected = np.full(q * v, lam, dtype=np.int64)
    expected[np.arange(q) * v] = 0
    expected[0] = v
    # (rho, a) pairs in rho-major order
    bad = np.argwhere((values != expected).reshape(q, v).T)
    return {"ok": not bad.size,
            "witness": tuple(map(int, bad[0])) if bad.size else None,
            "values": values,
            "expected": {"zero": v, "c1": 0, "rest": lam}}


def coset_zero_sets(P: PropelinearCode) -> Dict[str, object]:
    """D_j = {x in C : x_j = 0}: D_1 = F_H, each |D_j| = v, and every column
    of H carries each element v/q times (j > 1)."""
    v, q = P.v, P.q
    counts = row_histograms(P.H[:, 1:].T, q)  # row j-1 counts column j
    bad = np.flatnonzero((counts != v // q).any(axis=1))
    return {
        "d1_is_fh": bool((P.H[:, 0] == 0).all()),
        # true by construction: f_i + a*1 has entry j equal to 0 for exactly
        # one a, namely -f_i[j], so every D_j has one word per row
        "sizes_all_v": True,
        "column_counts_flat": not bad.size,
        "witness": (int(bad[0]) + 1, counts[bad[0]]) if bad.size else None,
    }
