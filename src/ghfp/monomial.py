"""Monomial matrices over the multiplicative copy of (F_q, +), the diagonal
times permutation factorization, and automorphism checks PMQ* = M.

The multiplicative copy K is never materialized: through the identity
isomorphism on encodings, every K-product is a field addition, and the
group-ring product of a monomial matrix with a K-matrix reduces to a row
permutation plus entrywise offsets.  A formal Z[K] multiplication is kept
as a brute-force oracle for tiny orders.

A monomial matrix is the pair (perm, diag) with entry phi(diag[i]) in row i,
column perm[i].  Raw matrices use -1 for the group-ring zero and the field
encoding for K entries.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (
    AutomorphismCheckFailed,
    NotMonomial,
    OrderMismatch,
    SizeGateExceeded,
)
from .fields import Field
from .ghmatrix import GHMatrix
from .groups import Perm
from .propelinear import PropelinearCode

EXPANDED_MAX = 10 ** 4


class MonomialMatrix:
    """M = D P: diag[i] sits in row i at column perm[i] (both 0-based)."""

    __slots__ = ("field", "perm", "diag")

    def __init__(self, field: Field, perm, diag):
        perm = np.asarray(perm, dtype=np.int64)
        diag = np.asarray(diag, dtype=np.int64)
        if perm.shape != diag.shape:
            raise OrderMismatch("perm and diag lengths differ")
        if not (np.sort(perm) == np.arange(perm.shape[0])).all():
            raise NotMonomial("perm is not a bijection")
        self.field = field
        self.perm = perm
        self.diag = diag

    @classmethod
    def identity(cls, field: Field, n: int) -> "MonomialMatrix":
        return cls(field, np.arange(n), np.zeros(n, dtype=np.int64))

    @classmethod
    def scalar(cls, field: Field, n: int, k: int) -> "MonomialMatrix":
        """kI: constant diagonal, identity permutation."""
        return cls(field, np.arange(n), np.full(n, k, dtype=np.int64))

    @property
    def n(self) -> int:
        return int(self.perm.shape[0])

    def mul(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Matrix product over Z[K] (still monomial)."""
        if self.n != other.n:
            raise OrderMismatch("orders differ")
        return MonomialMatrix(self.field,
                              other.perm[self.perm],
                              self.field.vadd(self.diag, other.diag[self.perm]))

    __mul__ = mul

    def act_left(self, B: np.ndarray) -> np.ndarray:
        """M . phi(B) additively: row i becomes diag[i] + B[perm[i]]."""
        return self.field.vadd(self.diag[:, None], B[self.perm])

    def act_right_star(self, B: np.ndarray) -> np.ndarray:
        """phi(B) . M* additively: column j becomes B[:, perm[j]] - diag[j]."""
        return self.field.vsub(B[:, self.perm], self.diag[None, :])

    def dense(self) -> np.ndarray:
        out = np.full((self.n, self.n), -1, dtype=np.int64)
        out[np.arange(self.n), self.perm] = self.diag
        return out

    def __eq__(self, other):
        return (isinstance(other, MonomialMatrix)
                and (self.perm == other.perm).all()
                and (self.diag == other.diag).all())

    def __repr__(self):
        return f"MonomialMatrix(n={self.n})"


def factor_monomial(field: Field, raw: np.ndarray
                    ) -> Tuple[np.ndarray, Perm, MonomialMatrix]:
    """Unique D_M P_M factorization of a raw monomial matrix.

    Returns (diagonal entries, permutation, the validated pair); raises
    NotMonomial if any row or column has other than one K-entry.
    """
    raw = np.asarray(raw, dtype=np.int64)
    n = raw.shape[0]
    if raw.ndim != 2 or raw.shape[1] != n:
        raise NotMonomial("matrix is not square")
    hits = raw >= 0
    if not (hits.sum(axis=1) == 1).all() or not (hits.sum(axis=0) == 1).all():
        raise NotMonomial("need exactly one K-entry per row and per column")
    perm = np.argmax(hits, axis=1)
    diag = raw[np.arange(n), perm]
    M = MonomialMatrix(field, perm, diag)
    if not (M.dense() == raw).all():
        raise NotMonomial("reconstruction mismatch")
    return diag, Perm(perm), M


def dense_mul_oracle(field: Field, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Brute group-ring product of raw monomial matrices (tiny n only)."""
    n = A.shape[0]
    out = np.full((n, n), -1, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            terms = [field.add(int(A[i, k]), int(B[k, j]))
                     for k in range(n) if A[i, k] >= 0 and B[k, j] >= 0]
            if len(terms) > 1:
                raise NotMonomial("product left the monomial matrices")
            if terms:
                out[i, j] = terms[0]
    return out


def is_matrix_automorphism(P: MonomialMatrix, Q: MonomialMatrix,
                           H: GHMatrix) -> bool:
    """P . phi(H) . Q* == phi(H), evaluated additively and entrywise."""
    if P.n != H.v or Q.n != H.v:
        raise OrderMismatch("monomial orders must match the matrix")
    return bool((Q.act_right_star(P.act_left(H.entries)) == H.entries).all())


def pair_for_codeword(P: PropelinearCode, x) -> Tuple[MonomialMatrix,
                                                      MonomialMatrix]:
    """The automorphism pair (M_x, N_x) of phi(H) induced by x acting by star.

    N is the monomial D_{-x} Q where Q's column action realizes pi_x; the
    row-side M is solved coordinate-wise: each transformed row must land on
    an H-row up to a constant, which pins its permutation and diagonal.
    """
    f = P.field
    x = np.asarray(x, dtype=np.int64)
    rho = P.row_of(x)
    sigma = P.group.table[rho]  # index map of Q = pi_x^{-1} images
    N = MonomialMatrix(f, sigma, f.vneg(x))
    ginv_row = P.group.table[int(P.group.inv[rho])]
    # row i is w with w_t = z_{sigma^{-1}(t)}, z = f_i - x
    perm, diag = P.code.index(f.vsub(P.H, x[None, :])[:, ginv_row])
    missing = np.flatnonzero(perm < 0)
    if missing.size:
        raise AutomorphismCheckFailed(
            f"row {int(missing[0])} does not map to a row")
    return MonomialMatrix(f, perm, diag), N


def automorphisms_from_star(P: PropelinearCode, sample: Optional[int] = None,
                            seed: int = 0) -> Dict[str, object]:
    """Verified (M_a, N_a) pairs for the codewords of P.

    Every pair must satisfy PMQ* = phi(H); the map is checked to be a
    homomorphism on a sample of products, the repetition codewords must give
    constant-diagonal pairs, and the row action must be transitive.
    sample limits how many codewords are processed (None = all q*v).
    """
    f, v, q = P.field, P.v, P.q
    rng = np.random.default_rng(seed)
    H = GHMatrix(f, P.H, group=P.group)
    if sample is None:
        coords = [(k, g) for k in range(q) for g in range(v)]
    else:
        coords = [(int(rng.integers(0, q)), int(rng.integers(0, v)))
                  for _ in range(sample)]
    pairs = {}
    for k, g in coords:
        x = P.encode(k, g)
        M, N = pair_for_codeword(P, x)
        if not is_matrix_automorphism(M, N, H):
            raise AutomorphismCheckFailed(f"PMQ* != phi(H) at (k,g)=({k},{g})")
        pairs[(k, g)] = (M, N)
    # homomorphism on sampled products of verified pairs
    keys = list(pairs)
    hom_ok = True
    for _ in range(min(200, len(keys) ** 2)):
        ka, kb = keys[int(rng.integers(0, len(keys)))], keys[
            int(rng.integers(0, len(keys)))]
        xa, xb = P.encode(*ka), P.encode(*kb)
        xc = P.star(xa, xb)
        Mc, Nc = pair_for_codeword(P, xc)
        Ma, Na = pairs[ka]
        Mb, Nb = pairs[kb]
        if not (Ma * Mb == Mc and Na * Nb == Nc):
            hom_ok = False
            break
    # repetition codewords give (phi(-lambda) I, phi(-lambda) I)
    central_ok = True
    for lam in range(q):
        M, N = pair_for_codeword(P, np.full(v, lam, dtype=np.int64))
        want = MonomialMatrix.scalar(f, v, f.neg(lam))
        if not (M == want and N == want):
            central_ok = False
            break
    row_orbit = set()
    for (k, g), (M, N) in pairs.items():
        row_orbit.add(int(M.perm[0]))
    return {
        "pairs_verified": len(pairs),
        "homomorphism_ok": hom_ok,
        "central_pairs_ok": central_ok,
        "row_action_transitive": len(row_orbit) == v if sample is None else None,
    }


def scalar_pairs_are_automorphisms(P: PropelinearCode) -> bool:
    """(kI, kI) fixes phi(H) for every k in K."""
    H = GHMatrix(P.field, P.H, group=P.group)
    for k in range(P.q):
        kI = MonomialMatrix.scalar(P.field, P.v, k)
        if not is_matrix_automorphism(kI, kI, H):
            return False
    return True


def expanded_matrix(H: GHMatrix) -> np.ndarray:
    """The qv x qv block matrix with block (i, j) equal to k_i + k_j + H."""
    f, v, q = H.field, H.v, H.q
    if q * v > EXPANDED_MAX:
        raise SizeGateExceeded(f"qv = {q * v} > {EXPANDED_MAX}")
    ks = np.arange(q, dtype=np.int64)
    out = np.empty((q * v, q * v), dtype=np.int64)
    for i in range(q):
        row = f.vadd(f.vadd(ks[i], ks)[:, None, None], H.entries[None, :, :])
        out[i * v:(i + 1) * v] = row.transpose(1, 0, 2).reshape(v, q * v)
    return out
