"""Full propelinear structure on C_H from an orthogonal cocycle.

Codewords correspond to extension-group elements (k, g) through the map
that sends (k, g) to -(k + psi(g, g^-1)) plus the H-row indexed by g^-1.
Under that correspondence the coordinate permutation of a codeword with
group part g is the left translation l -> index(g * g_l), stored one per
coset of the repetition code, and the group law is

    x * y  =  x + pi_x(y),   with  [pi_x(y)]_j = y at index(rho * g_j)

for rho the H-row index of x.  The composition route through the
correspondence map (decode both factors, multiply in the extension, encode)
is kept as a test oracle only.  PropelinearCode holds a cocycle verdict,
so the star group, its cocycle, the F_H profile and the automorphism pairs
are read from one v x v table, the products f_rho * f_r of the H-rows,
which the cocycle identity gives without searching the code, and every
propelinear axiom holds by theorem.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .cocycles import Cocycle, is_orthogonal
from .codes import GHCode
from .errors import NotOrthogonal
from .ghmatrix import matrix_of
from .groups import Perm, abelian_invariants


class PropelinearCode:
    """C_H with its star operation and per-coset coordinate permutations.

    GHFP codes are the codes of cocyclic matrices, so psi must be an
    orthogonal cocycle over a group.  A psi that holds no verdict (a
    check="skip" table) is checked once here, as Cocycle checks: a table
    that is no group, or no cocycle, is refused with that check's NotAGroup,
    NotAssociative or CocycleIdentityViolated and its witness.  So self.psi
    always holds a verdict, which matrix_of hands on to the code's matrix,
    and every structure below is read from it by theorem.
    """

    def __init__(self, psi: Cocycle):
        ok, witness = is_orthogonal(psi)
        if not ok:
            raise NotOrthogonal(f"cocycle is not orthogonal; witness {witness}")
        if not psi.checked:
            psi = Cocycle(psi.group, psi.field, psi.table)
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

    def row_products(self) -> Tuple[np.ndarray, np.ndarray]:
        """The row-product table (G^op's table, psi^T), built once:
        f_rho * f_r equals offsets[rho, r]*1 + f_{rows[rho, r]}.  The arrays
        are read-only and C-contiguous.

        No word is searched: entry j of f_rho * f_r is psi(rho,j) +
        psi(r,rho j), and the identity at (r, rho, j) reads psi(rho,j) +
        psi(r,rho j) = psi(r,rho) + psi(r rho,j), so f_rho * f_r =
        psi(r,rho)*1 + f_{r rho}."""
        if not hasattr(self, "_row_products"):
            offsets = self.psi.table.T.copy()
            offsets.flags.writeable = False
            self._row_products = (self.group.opposite().table, offsets)
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
        of psi (by the p-power theorem when G is elementary abelian, see
        ExtensionGroup.abelian_invariants)."""
        from .extension import ExtensionGroup

        return ExtensionGroup(self.psi).abelian_invariants()

    def pi_group_invariants(self) -> List[int]:
        """Abelian invariants of Pi, isomorphic to C/C_1 and so to G."""
        return abelian_invariants(self.group)

    def __repr__(self):
        return f"PropelinearCode(v={self.v}, q={self.q})"


def verify_full_propelinear(P: PropelinearCode, seed: int = 0) -> Dict[str, tuple]:
    """Axioms and structural lemmas, one (ok, witness) entry per check.

    P holds a cocycle psi over a group G (PropelinearCode decides that), and
    every entry holds by theorem, so each reads (True, None) and nothing is
    computed.  pi of the codewords with group part g is left translation by
    g, row g of G's table, and G's table is Latin with identity 0:

    - identity_and_coset_constancy: pi_0 is the identity row; pi is
      constant on cosets, as x and x + lam*1 share a row;
    - axiom_i_preserves_code: x * C = C, as f_rho * f_r = psi(r,rho)*1 +
      f_{r rho} (row_products) and (lam*1 + x) * y = lam*1 + x * y;
    - axiom_ii_homomorphism: the group part of x * y is the G-product of
      the parts (row r rho, the inverse of rho^-1 r^-1), so pi_{x*y} =
      pi_x o pi_y is G's associativity;
    - fullness: gx = x and 1x = x put x twice in column x unless g = 1, so
      pi_g has no fixed point for g != 1;
    - group_axioms: (C, star) is a group, as cocycle_from_code is a
      cocycle over a group (regular_subgroup_check);
    - unit_vector_preimages: pi_x^{-1}(e_i) determines the coset, as
      pi_g^{-1}(i) = index(g * g_i) and every column of a Latin square is
      a permutation;
    - pi_group_is_quotient: row g of G's table starts with g0 = g, so the v
      rows differ and Pi, isomorphic to G, has order v;
    - distance_compatibility: d(x*u, x*w) = d(u, w), as x*u - x*w =
      pi_x(u - w) gathers along a row of G's table, a permutation.

    The tests keep a scan of every entry as its oracle.  seed is unused and
    kept for callers that pass it.
    """
    return dict.fromkeys(("identity_and_coset_constancy",
                          "axiom_i_preserves_code", "axiom_ii_homomorphism",
                          "fullness", "group_axioms", "unit_vector_preimages",
                          "pi_group_is_quotient", "distance_compatibility"),
                         (True, None))


def cocycle_from_code(P: PropelinearCode) -> Cocycle:
    """Reconstruct psi_{F_H} over G = C/C_1 from the star operation.

    Cosets are labeled by H-row index, the section picks the F_H
    representative of each coset, and psi(g, h) is the constant c with
    sigma(g) * sigma(h) in c*1 + F_H: the row-product table, which is
    (G^op's table, psi^T).  So the answer is psi^T over G^op, by theorem.
    G^op is a group exactly when G is (Group.opposite).  psi^T satisfies
    the identity at (g, h, k) over G^op exactly when psi does at (k, h, g)
    over G, and psi is normalized, so it is a cocycle.
    """
    return Cocycle(P.group.opposite(), P.field, P.row_products()[1],
                   check="theorem")


def regular_subgroup_check(P: PropelinearCode) -> bool:
    """The maps y -> x*y form a regular permutation group on C.

    That holds exactly when the star table of C is a group table, and so
    exactly when the row-product table is a group with a normalized
    cocycle over it.  Proof: label a*1 + f_r by a*v + r and write
    f_rho * f_r = c[rho,r]*1 + f_s[rho,r].  As (a*1 + f_rho) * (b*1 + f_r)
    = (a + b)*1 + f_rho * f_r, the star table has entry (a + b +
    c[rho,r])*v + s[rho,r].  It is Latin exactly when s is, since the
    constant then fixes b (or a).  Label 0 is its identity exactly when 0
    is the identity of s and c is normalized.  Comparing ((a,rho)(b,r))(d,t)
    with (a,rho)((b,r)(d,t)), the row parts agree for all triples exactly
    when s is associative, and then the constants agree exactly when
    c[rho,r] + c[s[rho,r],t] = c[r,t] + c[rho,s[r,t]], the cocycle identity.
    The table is (G^op's table, psi^T), and psi^T is a cocycle over the
    group G^op (cocycle_from_code), so this is True, by that proof, and
    nothing is computed.
    """
    return True
