"""Generalized Hadamard matrices: verification and the standard constructions.

A GH(q, v/q) over (F_q, +) is a v x v matrix in which, for every row pair,
the entrywise difference multiset hits each field element exactly v/q times.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .cocycles import Cocycle, multiplication_cocycle, tensor
from .errors import (
    CocycleIdentityViolated,
    DivisibilityViolated,
    FieldMismatch,
    NotAGroup,
    NotNormalized,
    NotSquare,
    OrderMismatch,
)
from .fields import Field, base_digits, block_rows, is_prime, largest_entry
from .groups import Group, elementary_abelian


class GHMatrix:
    """A square matrix over F_q together with its group indexing, if any."""

    def __init__(self, field: Field, entries, group: Optional[Group] = None):
        entries = np.asarray(entries, dtype=np.int64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise NotSquare(f"shape {entries.shape} is not square")
        self.field = field
        self.entries = entries
        self.v = int(entries.shape[0])
        self.group = group

    @property
    def q(self) -> int:
        return self.field.q

    @property
    def lam(self) -> int:
        if self.v % self.q:
            raise DivisibilityViolated(f"q={self.q} does not divide v={self.v}")
        return self.v // self.q

    @property
    def is_normalized(self) -> bool:
        return not (self.entries[0].any() or self.entries[:, 0].any())

    def cocycle(self) -> Optional[Cocycle]:
        """The Cocycle that H is over self.group, or None; decided once.

        The group alone proves nothing: the identity is checked in full, at
        most once per matrix, and not at all for matrix_of of a Cocycle that
        holds a verdict.  Cocycle refuses a table that is no group, so over
        one H reads as bare: every shortcut below uses G's group law.
        When it holds, with rows f_g = psi(g, .), the identity at
        (gk^-1, k, h) reads psi(g,h) - psi(k,h) = psi(gk^-1, kh) -
        psi(gk^-1, k): row g minus row k is row gk^-1 with its coordinates
        permuted and a constant added.  So the difference multiset of every
        row pair is that of a pair (0, j) shifted by a constant, and the
        pairs (0, j) decide every row-pair question (GH, distances); a
        failing pair (k, g) also makes (0, gk^-1) fail.
        """
        if not hasattr(self, "_cocycle"):
            self._cocycle = None
            if self.group is not None:
                try:
                    self._cocycle = Cocycle(self.group, self.field,
                                            self.entries)
                except (OrderMismatch, NotNormalized, NotAGroup,
                        CocycleIdentityViolated):
                    pass
        return self._cocycle

    def __eq__(self, other):
        return (isinstance(other, GHMatrix)
                and self.field == other.field
                and self.entries.shape == other.entries.shape
                and (self.entries == other.entries).all())

    def __repr__(self):
        return f"GHMatrix(v={self.v}, q={self.q})"


def matrix_of(psi: Cocycle) -> GHMatrix:
    """The cocyclic matrix M_psi, over psi's group; a psi that holds a
    verdict is its cocycle() verdict, so nothing is checked again."""
    M = GHMatrix(psi.field, psi.table, group=psi.group)
    if psi.checked:
        M._cocycle = psi
    return M


Witness = Tuple[int, int, int, int]


def row_pair_counts(matrix: GHMatrix, rows: range
                    ) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Difference histograms of the row pairs (i, j), i < j, for i in rows,
    in row-major order and in row blocks: yields (i, j0, counts) with
    counts[r, u] the multiplicity of u in row j0 + r minus row i.

    Each block is one fused gather: the subtraction table at q*H[j] + H[i],
    plus the row offsets r*q in place, then one bincount.  A zero row i (row
    0 of a normalized matrix) needs no subtraction: the difference is H[j]
    itself, so a scan of the pairs (0, j) builds no subtraction table.  The
    key and difference buffers are allocated once per scan, and no scaled
    copy of H is kept, so a scan of the pairs (0, j) adds no v x v array.
    Above ADD_TABLE_MAX_Q, where there is no subtraction table, it
    subtracts by vsub, in packed base-p lanes."""
    f, H, v, q = matrix.field, matrix.entries, matrix.v, matrix.q
    step = min(block_rows(max(v, q)), v)
    keys = np.empty((step, v), dtype=np.int64)
    diffs = None  # the narrow difference buffer, made with the first gather
    offsets = np.arange(0, step * q, q)[:, None]
    for i in rows:
        zero = not H[i].any()
        for j0 in range(i + 1, v, step):
            n = min(step, v - j0)
            key = keys[:n]
            if zero:
                diff = H[j0:j0 + n]
            elif f._sub is None:
                diff = f.vsub(H[j0:j0 + n], H[i])
            else:
                if diffs is None:
                    diffs = np.empty((step, v), dtype=f._sub.dtype)
                np.multiply(H[j0:j0 + n], q, out=key)
                key += H[i]
                diff = f._sub.take(key, out=diffs[:n], mode="clip")
            np.add(diff, offsets[:n], out=key)
            yield i, j0, np.bincount(key.ravel(),
                                     minlength=n * q).reshape(n, q)


# Characters replace the pair scan when q < v, up to this q.  In all they
# cost about (q - 1) v^3 multiply-adds in BLAS, against v^3/2 histogram
# entries for the scan; measured, they win at q = 32, v = 1024 and lose at
# q = v = 49 (table in CHANGES.md).
MAX_CHARACTER_Q = 32


def is_gh(matrix: GHMatrix) -> Tuple[bool, Optional[Witness]]:
    """Check the GH row-pair condition, exactly at every order.

    Returns (True, None) or (False, (i, j, u, count)) for the first violated
    row pair in row-major order, the first element and its multiplicity;
    every witness comes from row_pair_counts.  The pairs (0, j) are counted
    first.  When they pass and matrix.cocycle() holds, every pair does.
    Otherwise a small field against v is decided by characters
    (_unbalanced_rows), which mark the rows of the failing pairs: the least
    marked row is row i of the first failing pair, and its scan names the
    witness.  Any other matrix scans every row.  An entry outside [0, q)
    raises FieldMismatch."""
    v, q = matrix.v, matrix.q
    largest_entry(matrix.entries, q, FieldMismatch)
    if v % q:
        raise DivisibilityViolated(f"q={q} does not divide order v={v}")
    lam = v // q

    def first_failure(rows):
        for i, j0, counts in row_pair_counts(matrix, rows):
            bad = counts != lam
            if bad.any():
                r, u = map(int, np.argwhere(bad)[0])
                return False, (i, j0 + r, u, int(counts[r, u]))
        return True, None

    verdict = first_failure(range(1))
    if not verdict[0] or matrix.cocycle() is not None:
        return verdict
    if q < v and q <= MAX_CHARACTER_Q:
        marked = np.flatnonzero(_unbalanced_rows(matrix))
        if not marked.size:
            return verdict
        return first_failure(range(marked[0], marked[0] + 1))
    return first_failure(range(1, v - 1))


def _character_tables(field: Field, v: int):
    """[(chi_c, chi_-c)] as float64 rows indexed by encoding, one c of each
    pair {c, -c} (its lowest nonzero digit at most p/2), and the modulus l:
    +-1 and None for p = 2, else powers of an omega of order p in GF(l)."""
    p, m, q = field.p, field.m, field.q
    digits = base_digits(p, m)
    lowest = digits[np.arange(q), np.argmax(digits > 0, axis=1)]
    cs = digits[(lowest > 0) & (lowest <= p // 2)]
    dots = cs @ digits.T % p
    if p == 2:
        return [(a, a) for a in 1.0 - 2.0 * dots], None
    ell = v + 1 + (-v) % p
    while not is_prime(ell):
        ell += p
    assert v * ell * ell < 2 ** 53
    omega = next(w for x in range(2, ell)
                 if (w := pow(x, (ell - 1) // p, ell)) != 1)
    powers = np.array([pow(omega, k, ell) for k in range(p)], dtype=float)
    return list(zip(powers[dots], powers[-dots % p])), ell


def _unbalanced_rows(matrix: GHMatrix) -> np.ndarray:
    """Marks, as a bool per row, both rows of every unbalanced row pair.

    The characters of (F_q, +) = Z_p^m, digit by digit, are chi_c(x) =
    omega^<c, x> for c in Z_p^m.  For a pair (i, j) with N_u the
    multiplicity of u in row j minus row i, sum_k chi_c(h_jk - h_ik) =
    sum_u N_u chi_c(u) = (chi_c(H) chi_{-c}(H)^T)_ji: the pair is balanced
    exactly when this transform vanishes at every c != 0.  For p = 2, chi_c
    is +-1 and the product is an integer matrix that float64 holds exactly.
    For odd p the characters take values in GF(l), l prime, l = 1 mod p, l >
    v, where omega has order p; every partial sum of a product is an integer
    below v*l^2 < 2^53, so float64 and fmod reduce it exactly.  If every
    transform vanishes mod l, the inverse transform gives q*N_u = v mod l,
    and as 0 <= N_u <= v < l, N_u = v/q.  c and -c give transposed
    products, so one product per pair {c, -c} suffices.

    One product per row block [r0, r1): for p = 2 it is symmetric, and the
    columns from r0 hold every pair with i in the block; for odd p the
    (j, i) orientation of a pair is read from j's block, so each block runs
    against every column.  A nonzero entry (r, c), r != c, marks rows r and
    c; the least marked row is then the least i of a failing pair (i, j)."""
    H, v = matrix.entries, matrix.v
    step = block_rows(v)
    tables, ell = _character_tables(matrix.field, v)
    marked = np.zeros(v, dtype=bool)
    for a, b in tables:
        A = a[H]
        B = A if ell is None else b[H]
        for r0 in range(0, v, step):
            c0 = r0 if ell is None else 0
            P = A[r0:r0 + step] @ B[c0:].T
            if ell is not None:
                np.fmod(P, ell, out=P)
            fail = P != 0
            np.fill_diagonal(fail[:, r0 - c0:], False)  # entry (r, r) is v
            marked[r0:r0 + len(fail)] |= fail.any(axis=1)
            marked[c0:] |= fail.any(axis=0)
    return marked


def normalize(matrix: GHMatrix) -> GHMatrix:
    """Subtract the first row from all rows, then the first column from all
    columns; preserves the GH property and is idempotent."""
    f, M = matrix.field, matrix.entries
    M = f.vsub(M, M[0][None, :])
    M = f.vsub(M, M[:, 0][:, None])
    return GHMatrix(matrix.field, M, group=matrix.group)


def sylvester(field: Field, ordering: str = "encoding") -> GHMatrix:
    """S_q: the multiplicative table of F_q, a normalized GH(q, 1)."""
    return matrix_of(multiplication_cocycle(field, ordering))


def sylvester_cocycle(field: Field, ordering: str = "encoding") -> Cocycle:
    return multiplication_cocycle(field, ordering)


def sylvester_power_cocycle(field: Field, t: int) -> Cocycle:
    if t < 1:
        raise OrderMismatch(f"t={t} must be >= 1")
    psi = multiplication_cocycle(field)
    out = psi
    for _ in range(t - 1):
        out = tensor(psi, out)
    return out


def sylvester_power(field: Field, t: int) -> GHMatrix:
    """S^t = S_q (+) S^{t-1}: a GH(q, q^{t-1}) of order q^t."""
    return matrix_of(sylvester_power_cocycle(field, t))


def gen_sylvester(p: int, m: int, k: int,
                  poly: Optional[Sequence[int]] = None) -> GHMatrix:
    """D_(p,m,k): dot products over GF(q)^k in lexicographic order, a
    GH(q, q^{k-1}) of order q^k."""
    return matrix_of(gen_sylvester_cocycle(p, m, k, poly))


def gen_sylvester_cocycle(p: int, m: int, k: int,
                          poly: Optional[Sequence[int]] = None) -> Cocycle:
    """The dot-product table read as a cocycle over the additive group of
    V = GF(q)^k: a bilinear form over (V, +), so a cocycle by theorem, as in
    multiplication_cocycle."""
    if k < 1:
        raise OrderMismatch(f"k={k} must be >= 1")
    field = Field(p, m, poly)
    q = field.q
    v = q ** k
    idx = np.arange(v, dtype=np.int64)
    entries = np.zeros((v, v), dtype=np.int64)
    # component t of the lex tuple has place value q^(k-1-t)
    for t in range(k):
        place = q ** (k - 1 - t)
        xs = (idx // place) % q
        entries = field.vadd(entries, field.vmul(xs[:, None], xs[None, :]))
    # GF(q)^k in lex order adds the base-p digits of its indices mod p, as
    # Z_p^(mk) in lex order does
    group = elementary_abelian(p, m * k)
    return Cocycle(group, field, entries, check="theorem")
