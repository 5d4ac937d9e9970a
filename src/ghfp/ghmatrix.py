"""Generalized Hadamard matrices: verification and the standard constructions.

A GH(q, v/q) over (F_q, +) is a v x v matrix in which, for every row pair,
the entrywise difference multiset hits each field element exactly v/q times.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .cocycles import Cocycle, multiplication_cocycle, tensor
from .errors import (
    CocycleIdentityViolated,
    DivisibilityViolated,
    FieldMismatch,
    NotNormalized,
    NotSquare,
    OrderMismatch,
)
from .fields import Field, block_rows, row_histograms
from .groups import Group


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
        most once per matrix, and not at all for matrix_of of a checked
        Cocycle.  When it holds, with rows f_g = psi(g, .), the identity at
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
                except (OrderMismatch, NotNormalized,
                        CocycleIdentityViolated):
                    pass
        return self._cocycle

    def lift(self, field: Field) -> "GHMatrix":
        return GHMatrix(field, field.lift_from_prime(self.entries), group=self.group)

    def transpose(self) -> "GHMatrix":
        return GHMatrix(self.field, self.entries.T.copy(), group=self.group)

    def __eq__(self, other):
        return (isinstance(other, GHMatrix)
                and self.field == other.field
                and self.entries.shape == other.entries.shape
                and (self.entries == other.entries).all())

    def __repr__(self):
        return f"GHMatrix(v={self.v}, q={self.q})"


Witness = Tuple[int, int, int, int]


def row_pair_counts(matrix: GHMatrix, first_row_decides: Callable[[], bool]
                    ) -> Iterator[Tuple[int, int, np.ndarray]]:
    """Difference histograms of the row pairs (i, j), i < j, in row-major
    order and in row blocks: yields (i, j0, counts) with counts[r, u] the
    multiplicity of u in row j0 + r minus row i.  first_row_decides() is
    asked once the pairs (0, j) are done, and True stops the scan there."""
    f, M, v, q = matrix.field, matrix.entries, matrix.v, matrix.q
    step = block_rows(max(v, q))
    for i in range(v - 1):
        if i == 1 and first_row_decides():
            return
        for j0 in range(i + 1, v, step):
            diffs = f.vsub(M[j0:j0 + step], M[i][None, :])
            yield i, j0, row_histograms(diffs, q)


def is_gh(matrix: GHMatrix) -> Tuple[bool, Optional[Witness]]:
    """Check the GH row-pair condition, exactly at every order.

    Returns (True, None) or (False, (i, j, u, count)) for the first violated
    row pair in row-major order, the first element and its multiplicity.
    When the pairs (0, j) pass and matrix.cocycle() holds, every pair does;
    otherwise every pair is scanned.
    """
    v, q = matrix.v, matrix.q
    if v % q:
        raise DivisibilityViolated(f"q={q} does not divide order v={v}")
    lam = v // q
    for i, j0, counts in row_pair_counts(
            matrix, lambda: matrix.cocycle() is not None):
        bad = counts != lam
        if bad.any():
            r, u = map(int, np.argwhere(bad)[0])
            return False, (i, j0 + r, u, int(counts[r, u]))
    return True, None


def normalize(matrix: GHMatrix) -> GHMatrix:
    """Subtract the first row from all rows, then the first column from all
    columns; preserves the GH property and is idempotent."""
    f, M = matrix.field, matrix.entries
    M = f.vsub(M, M[0][None, :])
    M = f.vsub(M, M[:, 0][:, None])
    return GHMatrix(matrix.field, M, group=matrix.group)


def sylvester(field: Field, ordering: str = "encoding") -> GHMatrix:
    """S_q: the multiplicative table of F_q, a normalized GH(q, 1)."""
    psi = multiplication_cocycle(field, ordering)
    return GHMatrix(field, psi.table, group=psi.group)


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
    psi = sylvester_power_cocycle(field, t)
    return GHMatrix(field, psi.table, group=psi.group)


def gen_sylvester(p: int, m: int, k: int,
                  poly: Optional[Sequence[int]] = None) -> GHMatrix:
    """D_(p,m,k): dot products over GF(q)^k in lexicographic order, a
    GH(q, q^{k-1}) of order q^k."""
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
    group = _elementary_abelian_like(field, k)
    return GHMatrix(field, entries, group=group)


def gen_sylvester_cocycle(p: int, m: int, k: int,
                          poly: Optional[Sequence[int]] = None) -> Cocycle:
    """The dot-product table read as a cocycle over the additive group of V."""
    M = gen_sylvester(p, m, k, poly)
    return Cocycle(M.group, M.field, M.entries, check="skip")


def _elementary_abelian_like(field: Field, k: int) -> Group:
    """Additive group of GF(q)^k with lexicographic indexing."""
    q = field.q
    v = q ** k
    i = np.arange(v, dtype=np.int64)[:, None]
    j = np.arange(v, dtype=np.int64)[None, :]
    table = np.zeros((v, v), dtype=np.int64)
    mul = 1
    for _ in range(k):
        table = table + field.vadd(i % q, j % q) * mul
        i = i // q
        j = j // q
        mul *= q
    return Group(table, check=False)


def kronecker_sum(H: GHMatrix,
                  Bs: Union[GHMatrix, List[GHMatrix]]) -> GHMatrix:
    """H (+) [B_1..B_v]: block (i, j) is h_ij + B_i, laid out row-major.

    A single B is replicated for every block row (the H (+) B case).
    """
    if isinstance(Bs, GHMatrix):
        Bs = [Bs] * H.v
    if len(Bs) != H.v:
        raise OrderMismatch(f"need {H.v} blocks, got {len(Bs)}")
    vp = Bs[0].v
    f = H.field
    for B in Bs:
        if B.field != f:
            raise FieldMismatch("blocks must share H's field")
        if B.v != vp:
            raise OrderMismatch("blocks must share one order")
    v = H.v
    out = np.empty((v * vp, v * vp), dtype=np.int64)
    for i in range(v):
        blk = f.vadd(H.entries[i][:, None, None], Bs[i].entries[None, :, :])
        out[i * vp:(i + 1) * vp, :] = blk.transpose(1, 0, 2).reshape(vp, v * vp)
    group = None
    if H.group is not None and all(B.group is Bs[0].group for B in Bs) \
            and Bs[0].group is not None:
        group = H.group.direct_product(Bs[0].group)
    return GHMatrix(f, out, group=group)
