"""Full propelinear structure on C_H from an orthogonal cocycle.

Codewords correspond to extension-group elements (k, g) through the map
that sends (k, g) to -(k + psi(g, g^-1)) plus the H-row indexed by g^-1.
Under that correspondence the coordinate permutation of a codeword with
group part g is the left translation l -> index(g * g_l), stored one per
coset of the repetition code, and the group law is

    x * y  =  x + pi_x(y),   with  [pi_x(y)]_j = y at index(rho * g_j)

for rho the H-row index of x.  The composition route through the
correspondence map (decode both factors, multiply in the extension, encode)
is kept as a test oracle only.  Every group-level check (axiom (i), the
group axioms, the regular action, the cocycle of the star group and the F_H
profile) reads one v x v table, the products f_rho * f_r of the H-rows,
which the cocycle identity gives without searching the code.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from .cocycles import Cocycle, is_orthogonal, tensor
from .codes import GHCode
from .errors import (CocycleIdentityViolated, FieldMismatch, NotAGroup,
                     NotAssociative, NotNormalized, NotOrthogonal,
                     SectionUndefined)
from .ghmatrix import matrix_of
from .groups import Group, Perm, abelian_invariants


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
        self.code = GHCode(matrix_of(psi))

    # -- codeword <-> extension element -------------------------------------------

    def row_of(self, x) -> int:
        return self.code.row_of(x)

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

    def star_oracle(self, x, y) -> np.ndarray:
        """Test oracle: decode, multiply in the extension group, encode."""
        ku, gu = self.decode(x)
        kw, gw = self.decode(y)
        k = self.field.add(self.field.add(ku, kw), int(self.psi.table[gu, gw]))
        return self.encode(k, int(self.group.table[gu, gw]))

    def row_products(self) -> Tuple[np.ndarray, np.ndarray]:
        """The row-product table, computed once: f_rho * f_r equals
        offsets[rho, r]*1 + f_{rows[rho, r]}, or rows[rho, r] is -1 when the
        product is not in C.  The arrays are read-only and C-contiguous.

        When H is a cocycle over G (the matrix's cocycle() verdict) the
        table is (G^op's table, psi^T), and no word is searched: entry j of
        f_rho * f_r is psi(rho,j) + psi(r,rho j), and the identity at
        (r, rho, j) reads psi(rho,j) + psi(r,rho j) = psi(r,rho) +
        psi(r rho,j), so f_rho * f_r = psi(r,rho)*1 + f_{r rho}.  Any other
        table is looked up, one index call per rho, which finds every
        product outside C."""
        if not hasattr(self, "_row_products"):
            psi = self.code.matrix.cocycle()
            if psi is not None:
                rows, offsets = psi.group.opposite().table, psi.table.T.copy()
            else:
                f, gt, v = self.field, self.group.table, self.v
                rows = np.empty((v, v), dtype=np.int64)
                offsets = np.empty((v, v), dtype=np.int64)
                for rho in range(v):
                    # row r of the batch is f_rho + pi-gather of f_r
                    rows[rho], offsets[rho] = self.code.index(
                        f.vadd(self.H[rho][None, :], self.H[:, gt[rho]]))
                rows.flags.writeable = False
            offsets.flags.writeable = False
            self._row_products = (rows, offsets)
        return self._row_products

    def pi_for_group_element(self, g: int) -> Perm:
        """pi of the codewords with group part g: left translation by g."""
        return Perm(self.group.table[g])

    def pi_table(self) -> List[Perm]:
        """One permutation per table position, in the paper's listing order
        (position i holds pi of the codewords with group part g_{i-1})."""
        return [self.pi_for_group_element(g) for g in range(self.v)]

    def pi_table_strings(self) -> List[str]:
        return [p.cycle_form() for p in self.pi_table()]

    # -- views ------------------------------------------------------------------------

    def group_invariants(self) -> List[int]:
        """Abelian invariants of (C, star), computed on the extension group
        of the matrix's cocycle() verdict when it holds (by the p-power
        theorem when G is elementary abelian, see
        ExtensionGroup.abelian_invariants), else of psi."""
        from .extension import ExtensionGroup

        return ExtensionGroup(self.code.matrix.cocycle()
                              or self.psi).abelian_invariants()

    def pi_group_invariants(self) -> List[int]:
        """Abelian invariants of Pi, isomorphic to C/C_1 and so to G."""
        return abelian_invariants(self.group)

    def __repr__(self):
        return f"PropelinearCode(v={self.v}, q={self.q})"


def ghfp_from_cocycle(psi: Cocycle) -> PropelinearCode:
    """The GHFP code of an orthogonal cocycle; raises NotOrthogonal."""
    return PropelinearCode(psi)


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


def _first(label: str, bad: np.ndarray) -> tuple:
    """(True, None), or (False, (label, *the first row of argwhere(bad)))."""
    bad = np.argwhere(bad)
    return (False, (label, *map(int, bad[0]))) if bad.size else (True, None)


def verify_full_propelinear(P: PropelinearCode, seed: int = 0) -> Dict[str, tuple]:
    """Axioms and structural lemmas, one (ok, witness) entry per check.

    Every entry is exact.  Axiom (i) and the group axioms of (C, star) are
    decided on the row-product table (see regular_subgroup_check); the group
    axioms are cocycle_from_code's answer, kept on P.  Axiom (ii), fullness,
    distance compatibility and the unit-vector lemma are decided on G's
    table, whose row g is the permutation of the codewords with group part
    g.  Axiom (ii) is G's associativity verdict, decided once per Group.
    When G's table is Latin with identity 0 (its other verdict), four
    entries hold by theorem and are not scanned:

    - fullness: gx = x and 1x = x put x twice in column x unless g = 1, so
      pi_g has no fixed point for g != 1;
    - unit-vector preimages: every column of a Latin square is a
      permutation;
    - |Pi| = v: row g of G's table starts with g0 = g, so the v rows differ;
    - distance compatibility: every row of a Latin square is a permutation.

    Otherwise each of them names its first witness.  seed is unused and kept
    for callers that pass it.
    """
    v = P.v
    gt = P.group.table
    ar = np.arange(v)
    latin = P.group.latin_failure() is None
    report: Dict[str, tuple] = {}

    # pi_0 identity.  pi is constant on cosets by construction: index()
    # subtracts the first coordinate, so x and x + lam*1 share a row
    report["identity_and_coset_constancy"] = _first("pi_0 moves", gt[0] != ar)

    # axiom (i): x * C = C, one representative per coset (x * 0 = x holds
    # by construction); entry (rho, j) of the table is f_rho * f_j
    rows, _ = P.row_products()
    report["axiom_i_preserves_code"] = _first("x*f not in C", rows < 0)

    # axiom (ii): pi_x o pi_y = pi_{x*y}; pi is left translation by the
    # group part, so this is associativity of G's table, checked exactly
    triple = P.group.associativity_failure()
    report["axiom_ii_homomorphism"] = (triple is None, triple)

    # fullness: fixed-point-free off C_1, identity on C_1
    report["fullness"] = (True, None) if latin else _first(
        "fixed point", (gt == ar).any(axis=1) & (ar > 0))

    # group axioms of (C, star), exactly; inverses follow from Latin rows
    witness = _star_group_failure(P)
    report["group_axioms"] = (witness is None, witness)

    # Lemma: pi_x^{-1}(e_i) determines the coset (collision <=> same coset);
    # pi_g^{-1}(i) = index(g * g_i), so every column of G's table is injective
    report["unit_vector_preimages"] = (True, None) if latin else _first(
        "collision across cosets", (np.sort(gt, axis=0) != ar[:, None]).any(axis=0))

    # Pi isomorphic to C/C_1: same size and same abelian invariants as G
    distinct = v if latin else len(np.unique(gt, axis=0))
    report["pi_group_is_quotient"] = (
        (True, None) if distinct == v else (False, ("|Pi| != v", distinct)))

    # distance compatibility d(x*u, x*w) = d(u, w): x*u - x*w = pi_x(u - w)
    # gathers along a row of G's table, which keeps every weight exactly
    # when that row is a permutation
    report["distance_compatibility"] = (True, None) if latin else _first(
        "row not a permutation", (np.sort(gt, axis=1) != ar).any(axis=1))
    return report


def cocycle_from_code(P: PropelinearCode) -> Cocycle:
    """Reconstruct psi_{F_H} over G = C/C_1 from the star operation.

    Cosets are labeled by H-row index, the section picks the F_H
    representative of each coset, and psi(g, h) is the constant c with
    sigma(g) * sigma(h) in c*1 + F_H: the row-product table.  Raises
    SectionUndefined at the first product outside C (first rho, then r),
    NotAGroup for a quotient table that is no group, and NotNormalized or
    CocycleIdentityViolated for constants that are no cocycle.  The answer,
    or the error, is kept on P for the arrays row_products returned.

    On the table row_products reads from a cocycle psi over G, (G^op's
    table, psi^T), the answer is psi^T over G^op, by theorem.  psi holds
    a verdict only over a group (Cocycle), and G^op is a group exactly
    when G is (Group.opposite).  psi^T satisfies the identity at (g, h, k)
    over G^op exactly when psi does at (k, h, g) over G, and psi is
    normalized, so it is a cocycle.  Any other table (a search, or a table
    put in its place) is checked as a table: Latin, associative, then the
    cocycle identity in full.
    """
    rows, offsets = P.row_products()
    known = getattr(P, "_quotient", None)
    if known is None or known[0] is not rows or known[1] is not offsets:
        try:
            found = _quotient_cocycle(P, rows, offsets)
        except (SectionUndefined, NotAGroup, NotNormalized,
                CocycleIdentityViolated) as e:
            found = e
        known = P._quotient = (rows, offsets, found)
    if isinstance(known[2], Exception):
        raise known[2].with_traceback(None)
    return known[2]


def _quotient_cocycle(P: PropelinearCode, rows: np.ndarray,
                      offsets: np.ndarray) -> Cocycle:
    """cocycle_from_code on the row-product arrays, decided afresh."""
    psi = P.code.matrix.cocycle()
    theorem = getattr(P, "_row_products", (None, None))
    if psi is not None and rows is theorem[0] and offsets is theorem[1]:
        return Cocycle(psi.group.opposite(), P.field, offsets,
                       check="theorem")
    bad = np.argwhere(rows < 0)
    if bad.size:
        raise SectionUndefined(*map(int, bad[0]))
    return Cocycle(Group(rows), P.field, offsets)


def _star_group_failure(P: PropelinearCode) -> Optional[tuple]:
    """None when (C, star) is a group, else a witness of what fails."""
    try:
        cocycle_from_code(P)
    except SectionUndefined as e:
        return ("x*f not in C", *e.pair)
    except NotAssociative as e:
        return ("associativity", *e.triple)
    except CocycleIdentityViolated as e:
        return ("cocycle identity", *e.triple)
    except (NotAGroup, NotNormalized) as e:
        return ("not a group", str(e))
    return None


def regular_subgroup_check(P: PropelinearCode) -> bool:
    """The maps y -> x*y form a regular permutation group on C, exactly.

    That holds exactly when the star table of C is a group table, and so
    exactly when cocycle_from_code(P) succeeds, with O(v^2) memory.  Proof:
    label a*1 + f_r by a*v + r and write f_rho * f_r = c[rho,r]*1 + f_s[rho,r].
    As (a*1 + f_rho) * (b*1 + f_r) = (a + b)*1 + f_rho * f_r, the star table
    has entry (a + b + c[rho,r])*v + s[rho,r].  It is Latin exactly when s
    is, since the constant then fixes b (or a).  Label 0 is its identity
    exactly when 0 is the identity of s and c is normalized.  Comparing
    ((a,rho)(b,r))(d,t) with (a,rho)((b,r)(d,t)), the row parts agree for
    all triples exactly when s is associative, and then the constants agree
    exactly when c[rho,r] + c[s[rho,r],t] = c[r,t] + c[rho,s[r,t]], the
    cocycle identity.
    """
    return _star_group_failure(P) is None
