"""Full propelinear structure on C_H from an orthogonal cocycle.

Codewords correspond to extension-group elements (k, g) through the map
that sends (k, g) to -(k + psi(g, g^-1)) plus the H-row indexed by g^-1.
Under that correspondence the coordinate permutation of a codeword with
group part g is the left translation l -> index(g * g_l), stored one per
coset of the repetition code, and the group law is

    x * y  =  x + pi_x(y),   with  [pi_x(y)]_j = y at index(rho * g_j)

for rho the H-row index of x.  The composition route through the
correspondence map (decode both factors, multiply in the extension, encode)
is kept as a test oracle only.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .cocycles import Cocycle, is_orthogonal, tensor
from .codes import GHCode
from .errors import (FieldMismatch, NotAGroup, NotAssociative, NotOrthogonal,
                     SizeGateExceeded)
from .ghmatrix import GHMatrix
from .groups import Group, Perm, abelian_invariants

# Codes up to this size get the tabulated regular-action check and the
# longer run of star-associativity trials.
PAIR_EXHAUSTIVE_MAX = 10 ** 4


class PropelinearCode:
    """C_H with its star operation and per-coset coordinate permutations."""

    def __init__(self, psi: Cocycle):
        ok, witness = is_orthogonal(psi)
        if not ok:
            raise NotOrthogonal(f"cocycle is not orthogonal; witness {witness}")
        self.psi = psi
        self.group = psi.group
        self.field = psi.field
        self.H = psi.table
        self.v = psi.v
        self.q = psi.field.q
        self.code = GHCode(GHMatrix(psi.field, psi.table, group=psi.group))

    # -- codeword <-> extension element -------------------------------------------

    def row_of(self, x) -> int:
        return self.code.row_of(x)

    def group_part(self, x) -> int:
        """The G-component of the extension element encoding x."""
        return int(self.group.inv[self.row_of(x)])

    def decode(self, x) -> Tuple[int, int]:
        """The (k, g) pair with encode(k, g) == x."""
        x = np.asarray(x, dtype=np.int64)
        rho = self.row_of(x)
        g = int(self.group.inv[rho])
        k = self.field.neg(self.field.add(int(x[0]), int(self.psi.table[g, rho])))
        return k, g

    def encode(self, k: int, g: int) -> np.ndarray:
        """Codeword of the extension element (k, g)."""
        ginv = int(self.group.inv[g])
        mult = self.field.neg(self.field.add(k, int(self.psi.table[g, ginv])))
        return self.field.vadd(np.full(self.v, mult, dtype=np.int64), self.H[ginv])

    # -- the propelinear structure ---------------------------------------------------

    def star(self, x, y) -> np.ndarray:
        """x * y = x + pi_x(y); y may be any length-v vector."""
        x = np.asarray(x, dtype=np.int64)
        y = np.asarray(y, dtype=np.int64)
        rho = self.row_of(x)
        return self.field.vadd(x, y[self.group.table[rho]])

    def star_inverse(self, x) -> np.ndarray:
        k, g = self.decode(x)
        ginv = int(self.group.inv[g])
        kinv = self.field.neg(self.field.add(k, int(self.psi.table[g, ginv])))
        return self.encode(kinv, ginv)

    def star_oracle(self, x, y) -> np.ndarray:
        """Test oracle: decode, multiply in the extension group, encode."""
        ku, gu = self.decode(x)
        kw, gw = self.decode(y)
        k = self.field.add(self.field.add(ku, kw), int(self.psi.table[gu, gw]))
        return self.encode(k, int(self.group.table[gu, gw]))

    def pi_for_group_element(self, g: int) -> Perm:
        """pi of the codewords with group part g: left translation by g."""
        return Perm(self.group.table[g])

    def pi_of(self, x) -> Perm:
        return self.pi_for_group_element(self.group_part(x))

    def pi_table(self) -> List[Perm]:
        """One permutation per table position, in the paper's listing order
        (position i holds pi of the codewords with group part g_{i-1})."""
        return [self.pi_for_group_element(g) for g in range(self.v)]

    def pi_table_strings(self) -> List[str]:
        return [p.cycle_form() for p in self.pi_table()]

    # -- views ------------------------------------------------------------------------

    def codewords(self) -> np.ndarray:
        return self.code.words()

    def c1(self) -> np.ndarray:
        return self.code.c1()

    def group_invariants(self) -> List[int]:
        """Abelian invariants of (C, star), computed on the extension group."""
        from .extension import ExtensionGroup

        return ExtensionGroup(self.psi).abelian_invariants()

    def pi_group_invariants(self) -> List[int]:
        """Abelian invariants of Pi, isomorphic to C/C_1 and so to G."""
        return abelian_invariants(self.group)

    def __repr__(self):
        return f"PropelinearCode(v={self.v}, q={self.q})"


def ghfp_from_cocycle(psi: Cocycle) -> PropelinearCode:
    """The GHFP code of an orthogonal cocycle; raises NotOrthogonal."""
    return PropelinearCode(psi)


def star(P: PropelinearCode, x, y) -> np.ndarray:
    return P.star(x, y)


def kronecker_propelinear(P1: PropelinearCode,
                          P2: PropelinearCode) -> PropelinearCode:
    """GHFP structure on C_{H1 (+) H2}, via the tensor cocycle.

    Blockwise: pi_{a(+)b} acts as pi_a on block positions and pi_b inside
    blocks, and (a(+)b) * (x(+)y) = (a*x)(+)(b*y); both identities are
    verified by the test suite against this construction.
    """
    if P1.field != P2.field:
        raise FieldMismatch("factors need one field")
    return PropelinearCode(tensor(P1.psi, P2.psi))


def oplus(field, a, b) -> np.ndarray:
    """Row combination (a_1+b_1,...,a_1+b_v',a_2+b_1,...): the Kronecker-sum
    coordinate pattern for vectors."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return field.vadd(a[:, None], b[None, :]).reshape(a.shape[0] * b.shape[0])


def verify_full_propelinear(P: PropelinearCode, seed: int = 0) -> Dict[str, tuple]:
    """Axioms and structural lemmas, one (ok, witness) entry per check.

    Axioms (i) and (ii) and fullness are exact.  Coset constancy and
    inverses are tried on the first 64 rows; star associativity and distance
    compatibility on seeded random trials.
    """
    rng = np.random.default_rng(seed)
    f, v, q = P.field, P.v, P.q
    gt = P.group.table
    report: Dict[str, tuple] = {}

    # pi_0 identity; pi constant on cosets (star shifts by constants)
    ok = (P.pi_for_group_element(0).images == np.arange(v)).all()
    witness = None
    lam = int(rng.integers(1, q))
    for i in range(min(v, 64)):
        x = P.H[i]
        xs = f.vadd(x, np.full(v, lam, dtype=np.int64))
        y = P.H[int(rng.integers(0, v))]
        lhs = P.star(xs, y)
        rhs = f.vadd(P.star(x, y), np.full(v, lam, dtype=np.int64))
        if not (lhs == rhs).all():
            ok, witness = False, ("coset constancy", i, lam)
            break
    report["identity_and_coset_constancy"] = (bool(ok), witness)

    # axiom (i): x * C = C and x * 0 = x, one representative per coset
    ok, witness = True, None
    for rho in range(v):
        x = P.H[rho]
        if not (P.star(x, np.zeros(v, dtype=np.int64)) == x).all():
            ok, witness = False, ("x*0 != x", rho)
            break
        # row j is x * f_j = x + pi-gather of f_j
        rows, _ = P.code.index(f.vadd(x[None, :], P.H[:, gt[rho]]))
        missing = np.flatnonzero(rows < 0)
        if missing.size:
            ok, witness = False, ("x*f not in C", rho, int(missing[0]))
            break
    report["axiom_i_preserves_code"] = (ok, witness)

    # axiom (ii): pi_x o pi_y = pi_{x*y}; pi is left translation by the
    # group part, so this is associativity of G's table, checked exactly
    try:
        P.group.check_associativity()
        report["axiom_ii_homomorphism"] = (True, None)
    except NotAssociative as e:
        report["axiom_ii_homomorphism"] = (False, e.triple)

    # fullness: fixed-point-free off C_1, identity on C_1
    ok, witness = True, None
    for g in range(1, v):
        if (gt[g] == np.arange(v)).any():
            ok, witness = False, ("fixed point", g)
            break
    report["fullness"] = (ok, witness)

    # group axioms of (C, star): identity, inverses, associativity (sampled)
    ok, witness = True, None
    zero = np.zeros(v, dtype=np.int64)
    for i in range(min(v, 64)):
        x = P.H[i]
        if not (P.star(P.star_inverse(x), x) == zero).all():
            ok, witness = False, ("inverse", i)
            break
    # random triples a, b, c with a = k*1 + f_r, in batches of v trials:
    # x * y gathers y along the permutation of x's row
    trials = 500 if q * v <= PAIR_EXHAUSTIVE_MAX else 200
    for start in range(0, trials, v):
        rs = rng.integers(0, v, size=(3, min(v, trials - start)))
        a, b, c = f.vadd(rng.integers(0, q, size=rs.shape + (1,)), P.H[rs])
        ab = f.vadd(a, np.take_along_axis(b, gt[rs[0]], axis=1))
        bc = f.vadd(b, np.take_along_axis(c, gt[rs[1]], axis=1))
        rab, _ = P.code.index(ab)
        lhs = f.vadd(ab, np.take_along_axis(c, gt[rab], axis=1))
        rhs = f.vadd(a, np.take_along_axis(bc, gt[rs[0]], axis=1))
        if (rab < 0).any() or (lhs != rhs).any():
            ok, witness = False, ("associativity",)
            break
    report["group_axioms"] = (ok, witness)

    # Lemma: pi_x^{-1}(e_i) determines the coset (collision <=> same coset)
    ok, witness = True, None
    cols = [0, v // 2] if v > 1 else [0]
    for i in cols:
        hits = gt[np.arange(v), np.full(v, i)]  # pi_g^{-1}(i) = index(g * g_i)
        if len(set(int(h) for h in hits)) != v:
            ok, witness = False, ("collision across cosets", i)
            break
    report["unit_vector_preimages"] = (ok, witness)

    # Pi isomorphic to C/C_1: same size and same abelian invariants as G
    ok, witness = True, None
    pis = {p.images.tobytes() for p in P.pi_table()}
    if len(pis) != v:
        ok, witness = False, ("|Pi| != v", len(pis))
    report["pi_group_is_quotient"] = (ok, witness)

    # distance compatibility d(x*u, x*v) = d(u, v), sampled
    ok, witness = True, None
    for _ in range(64):
        x = P.encode(int(rng.integers(0, q)), int(rng.integers(0, v)))
        u = rng.integers(0, q, size=v)
        w = rng.integers(0, q, size=v)
        d1 = int((P.star(x, u) != P.star(x, w)).sum())
        d2 = int((u != w).sum())
        if d1 != d2:
            ok, witness = False, ("distance", d1, d2)
            break
    report["distance_compatibility"] = (ok, witness)

    return report


def regular_subgroup_check(P: PropelinearCode) -> bool:
    """The maps y -> x*y form a regular permutation group on C, exactly.

    That holds exactly when the star table of C is a group table: Latin with
    identity 0 and associative (checked by Light's test).  Codeword
    a*1 + f_r gets label a*v + r, and as (a*1 + f_rho) * (b*1 + f_r) =
    (a + b)*1 + f_rho * f_r, the table needs only the v^2 products of rows.
    Tabulated, so gated to small codes.
    """
    f, v, q = P.field, P.v, P.q
    if q * v > PAIR_EXHAUSTIVE_MAX:
        raise SizeGateExceeded(f"qv = {q * v} > {PAIR_EXHAUSTIVE_MAX}")
    gt = P.group.table
    rows = np.empty((v, v), dtype=np.int64)
    offsets = np.empty((v, v), dtype=np.int64)
    for rho in range(v):
        rows[rho], offsets[rho] = P.code.index(
            f.vadd(P.H[rho][None, :], P.H[:, gt[rho]]))
    if (rows < 0).any():
        return False  # some x*y is not in C
    a = np.arange(q, dtype=np.int64)
    ab = f.vadd(a[:, None], a[None, :])[:, None, :, None]
    table = f.vadd(ab, offsets[None, :, None, :]) * v + rows[None, :, None, :]
    try:
        Group(table.reshape(q * v, q * v)).check_associativity()
    except NotAGroup:
        return False
    return True
