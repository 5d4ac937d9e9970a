"""Monomial matrices over the multiplicative copy of (F_q, +), the diagonal
times permutation factorization, and automorphism checks PMQ* = M, by
theorem on the cocycle a PropelinearCode holds.

The multiplicative copy K is never materialized: through the identity
isomorphism on encodings, every K-product is a field addition, and the
group-ring product of a monomial matrix with a K-matrix reduces to a row
permutation plus entrywise offsets (the tests keep a formal Z[K]
multiplication as its oracle).

A monomial matrix is the pair (perm, diag) with entry phi(diag[i]) in row i,
column perm[i].  Raw matrices use -1 for the group-ring zero and the field
encoding for K entries.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import AutomorphismCheckFailed, NotMonomial, OrderMismatch
from .fields import Field, block_rows
from .ghmatrix import GHMatrix
from .groups import Perm
from .propelinear import PropelinearCode

# Entries per block of the automorphism kernels (64 KiB of int64 keys)
BLOCK = 1 << 13


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
                and np.array_equal(self.perm, other.perm)
                and np.array_equal(self.diag, other.diag))

    def __repr__(self):
        return f"MonomialMatrix(n={self.n})"


def factor_monomial(field: Field, raw: np.ndarray
                    ) -> Tuple[np.ndarray, Perm, MonomialMatrix]:
    """Unique D_M P_M factorization of a raw monomial matrix.

    Returns (diagonal entries, permutation, the validated pair); raises
    NotMonomial if any row or column has other than one K-entry.
    """
    raw = np.asarray(raw, dtype=np.int64)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise NotMonomial("matrix is not square")
    n = raw.shape[0]
    hits = raw >= 0
    if not (hits.sum(axis=1) == 1).all() or not (hits.sum(axis=0) == 1).all():
        raise NotMonomial("need exactly one K-entry per row and per column")
    perm = np.argmax(hits, axis=1)
    diag = raw[np.arange(n), perm]
    M = MonomialMatrix(field, perm, diag)
    if not (M.dense() == raw).all():
        raise NotMonomial("reconstruction mismatch")
    return diag, Perm(perm), M


def is_matrix_automorphism(P: MonomialMatrix, Q: MonomialMatrix,
                           H: GHMatrix) -> bool:
    """P . phi(H) . Q* == phi(H), evaluated additively and entrywise."""
    if P.n != H.v or Q.n != H.v:
        raise OrderMismatch("monomial orders must match the matrix")
    return bool((Q.act_right_star(P.act_left(H.entries)) == H.entries).all())


def pair_for_codeword(P: PropelinearCode, x) -> Tuple[MonomialMatrix,
                                                      MonomialMatrix]:
    """The automorphism pair (M_x, N_x) of phi(H) induced by x acting by star.

    N is the monomial D_{-x} Q where Q's column action realizes pi_x, and M
    maps each row of H - x, permuted by pi_x^{-1}, onto an H-row up to a
    constant.  Both are read from the row-product table (see _pair_arrays).
    """
    x = np.asarray(x, dtype=np.int64)
    (mp,), (md,), (np_,), (nd,) = _pair_arrays(P, [P.row_of(x)], x[:1])
    return MonomialMatrix(P.field, mp, md), MonomialMatrix(P.field, np_, nd)


def _codewords(P: PropelinearCode, rho, lam) -> np.ndarray:
    """The codewords f_rho + lam*1, one row each."""
    return P.field.vadd(P.H[rho], np.asarray(lam)[:, None])


def _pair_arrays(P: PropelinearCode, rho, lam) -> Tuple[np.ndarray, ...]:
    """(M perms, M diagonals, N perms, N diagonals) of the codewords
    x = f_rho + lam*1, one row per codeword.

    With rows and offsets the row-product table, M is (rows[rho^-1],
    offsets[rho^-1] - (offsets[rho^-1, rho] + lam)*1) and N is (gt[rho],
    -x): row i of M, the row of H - x permuted by pi_x^{-1}, is t ->
    psi(i, rho^-1 t) - psi(rho, rho^-1 t) - lam, and the identity at
    (i, rho^-1, t) and at (rho, rho^-1, t) turns it into psi(i, rho^-1) -
    psi(rho, rho^-1) - lam plus f_{i rho^-1}.
    """
    f, gt = P.field, P.group.table
    rho = np.asarray(rho, dtype=np.int64)
    lam = np.asarray(lam, dtype=np.int64)
    rows, offsets = P.row_products()
    rinv = P.group.inv[rho]
    return (rows[rinv],
            f.vsub(offsets[rinv], f.vadd(offsets[rinv, rho], lam)[:, None]),
            gt[rho],
            f.vneg(_codewords(P, rho, lam)))


def _first_non_automorphism(P: PropelinearCode, mp, md, np_, nd
                            ) -> Optional[int]:
    """The first pair with PMQ* != phi(H), or None.  Entry (i, j) of pair k
    holds exactly when H[mp[k, i], np_[k, j]] - H[i, j] = nd[k, j] -
    md[k, i]; both sides are gathered from the narrow Field._sub at keys
    a*q + b (above ADD_TABLE_MAX_Q, where it is None, both sides are vsub,
    in packed base-p lanes).  A block is
    BLOCK // v^2 whole pairs, or block_rows(v) rows of one pair when a pair
    is larger (row blocks of BLOCK entries slowed S_3^6, sample=512, from
    1.5 to 2.6 s), in buffers allocated once per call: fresh temporaries
    above glibc's mmap threshold are faulted in again on every call, which
    cost more than the arithmetic (at v = 81, about ten of 416 KiB for 8
    pairs)."""
    f, H, v, q, n, sub = P.field, P.H, P.v, P.q, len(mp), P.field._sub
    flat, mpv, ndq = H.ravel(), mp * v, nd * q
    pairs, rows = max(1, BLOCK // (v * v)), min(v, block_rows(v))
    key = np.empty(pairs * rows * v, dtype=np.int64)
    diff = np.empty((2, key.size), sub.dtype if sub is not None else bool)
    for k0, r0 in itertools.product(range(0, n, pairs), range(0, v, rows)):
        kb, rb = slice(k0, k0 + pairs), slice(r0, r0 + rows)
        shape = (min(pairs, n - k0), min(rows, v - r0), v)
        at, lhs, rhs = (a[:shape[0] * shape[1] * v].reshape(shape)
                        for a in (key, *diff))
        np.add(mpv[kb, rb, None], np_[kb, None], out=at)
        flat.take(at, out=at, mode="clip")
        if sub is None:
            bad = f.vsub(at, H[rb]) != f.vsub(nd[kb, None], md[kb, rb, None])
        else:
            at *= q
            at += H[rb]
            sub.take(at, out=lhs, mode="clip")
            np.add(ndq[kb, None], md[kb, rb, None], out=at)
            bad = lhs != sub.take(at, out=rhs, mode="clip")
        if bad.any():
            return k0 + int(bad.argmax()) // bad[0].size
    return None


def _star_products(P: PropelinearCode, rho, lam, r, mu
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """(rows, offsets) of (lam*1 + f_rho) * (mu*1 + f_r), read from the
    row-product table: pi_x depends only on rho and fixes constants, so the
    product is (lam + mu + offsets[rho, r])*1 + f_rows[rho, r]."""
    f = P.field
    rows, offsets = P.row_products()
    return rows[rho, r], f.vadd(f.vadd(lam, mu), offsets[rho, r])


def _homomorphism_holds(P: PropelinearCode, rho, lam, pairs, a, b) -> bool:
    """f(x_a * x_b) = f(x_a) f(x_b) for every k, with x = f_rho + lam*1 and
    f(x) its row of the pair arrays, over a = a[k] and b = b[k].  The
    products come from the row-product table (_star_products), BLOCK // v
    at a time, so a block's arrays stay small as in _first_non_automorphism;
    pairs compose by one flat take at pa + ib*v."""
    v = P.v
    step = max(1, BLOCK // v)
    for k0 in range(0, len(a), step):
        ia, ib = a[k0:k0 + step], b[k0:k0 + step]
        C = _pair_arrays(P, *_star_products(P, rho[ia], lam[ia], rho[ib],
                                            lam[ib]))
        for side in (0, 2):  # M, then N
            at = pairs[side][ia]
            at += ib[:, None] * v
            if not ((pairs[side].take(at) == C[side]).all()
                    and (P.field.vadd(pairs[side + 1][ia],
                                      pairs[side + 1].take(at))
                         == C[side + 1]).all()):
                return False
    return True


def automorphisms_from_star(P: PropelinearCode, sample: Optional[int] = None,
                            seed: int = 0) -> Dict[str, object]:
    """Verified (M_x, N_x) pairs for the codewords x of P.

    With sample=None the answer is a theorem, as P holds a cocycle over a
    group (PropelinearCode), and nothing is computed ("mode": "theorem").
    The pair of x = lam*1 + f_rho (_pair_arrays) makes entry (i, j) of PMQ*
    psi(i, rho^-1) + psi(i rho^-1, rho j) - psi(rho, rho^-1) + psi(rho, j):
    the identity at (i, rho^-1, rho j) turns the first two terms into
    psi(i, j) + psi(rho^-1, rho j), at (rho^-1, rho, j) it gives
    psi(rho^-1, rho j) + psi(rho, j) = psi(rho^-1, rho), and at (rho,
    rho^-1, rho) psi(rho^-1, rho) = psi(rho, rho^-1), so the entry is
    psi(i, j).  The law holds as N_{x*y} = N_x N_y (x * y = x + pi_x(y),
    and pi_{x*y} = pi_x pi_y is G's associativity), and N fixes M, since
    no two rows of the orthogonal H differ by a constant.  psi is
    normalized, so the repetition codewords give (-lam*I, -lam*I); column 0
    of M's permutations is rho^-1, so the row action is transitive.

    With sample >= 1 ("mode": "sampled"), PMQ* is checked on sample
    codewords drawn with seed, and the law on up to 200 random products of
    them; the repetition codewords must give constant-diagonal pairs.  A
    failing PMQ* names its first codeword.
    """
    f, v, q = P.field, P.v, P.q
    if sample is None:
        return {"pairs_verified": q * v, "mode": "theorem",
                "homomorphism_ok": True, "central_pairs_ok": True,
                "row_action_transitive": True}
    if sample < 1:
        raise ValueError(f"sample={sample} must be >= 1")
    rng = np.random.default_rng(seed)
    ks, gs = np.divmod(np.unique(rng.integers(0, q, size=sample) * v
                                 + rng.integers(0, v, size=sample)), v)
    # (k, g) is the codeword -(k + psi(g, g^-1))*1 + f_{g^-1}
    rho = P.group.inv[gs]
    lam = f.vneg(f.vadd(ks, P.psi.table[gs, rho]))
    n = len(rho)
    a = rng.integers(0, n, size=min(200, n * n))
    b = rng.integers(0, n, size=a.size)
    pairs = _pair_arrays(P, rho, lam)
    hom_ok = _homomorphism_holds(P, rho, lam, pairs, a, b)
    bad = _first_non_automorphism(P, *pairs)
    if bad is not None:
        k, g = P.decode(_codewords(P, rho[bad:bad + 1], lam[bad:bad + 1])[0])
        raise AutomorphismCheckFailed(f"PMQ* != phi(H) at (k,g)=({k},{g})")
    # repetition codewords give (phi(-lambda) I, phi(-lambda) I)
    lams = np.arange(q)
    mp, md, np_, nd = _pair_arrays(P, np.zeros(q, dtype=np.int64), lams)
    ident, minus = np.arange(v), f.vneg(lams)[:, None]
    central_ok = bool((mp == ident).all() and (np_ == ident).all()
                      and (md == minus).all() and (nd == minus).all())
    return {
        "pairs_verified": n,
        "mode": "sampled",
        "homomorphism_ok": hom_ok,
        "central_pairs_ok": central_ok,
        "row_action_transitive": None,
    }


def scalar_pairs_are_automorphisms(P: PropelinearCode) -> bool:
    """(kI, kI) fixes phi(H) for every k in K and every matrix H: entry (i, j)
    of kI . phi(H) . (kI)* is k + h_ij - k = h_ij.  So this is True, by that
    proof, and nothing is computed."""
    return True

