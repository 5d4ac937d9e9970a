"""Generalized Hadamard matrices: verification and the standard constructions.

A GH(q, v/q) over (F_q, +) is a v x v matrix in which, for every row pair,
the entrywise difference multiset hits each field element exactly v/q times.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .cocycles import Cocycle, multiplication_cocycle, tensor
from .errors import (
    DivisibilityViolated,
    FieldMismatch,
    NotSquare,
    OrderMismatch,
)
from .fields import Field, row_histograms
from .groups import Group

# Full row-pair scan up to this order; random row pairs above.
GH_EXHAUSTIVE_MAX = 1024
GH_SAMPLE_PAIRS = 10 ** 5


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


def is_gh(matrix: GHMatrix, mode: str = "auto", seed: int = 0,
          check_transpose: bool = False) -> Tuple[bool, Optional[Witness]]:
    """Check the GH row-pair condition.

    Returns (True, None) or (False, (i, j, u, count)) naming the violated row
    pair, the element and its multiplicity.  mode "auto" scans all pairs up
    to order 1024 and samples 1e5 random pairs above; "full" forces the scan.
    check_transpose also runs the scan on H^T (a GH again, columns as rows).
    """
    if check_transpose:
        ok, witness = is_gh(matrix.transpose(), mode=mode, seed=seed)
        if not ok:
            return ok, witness
    f, M, v, q = matrix.field, matrix.entries, matrix.v, matrix.q
    if v % q:
        raise DivisibilityViolated(f"q={q} does not divide order v={v}")
    lam = v // q
    if mode == "full" or (mode == "auto" and v <= GH_EXHAUSTIVE_MAX):
        for i in range(v - 1):
            diffs = f.vsub(M[i + 1:], M[i][None, :])
            counts = row_histograms(diffs, q)
            bad = counts != lam
            if bad.any():
                r, u = map(int, np.argwhere(bad)[0])
                return False, (i, i + 1 + r, u, int(counts[r, u]))
        return True, None
    rng = np.random.default_rng(seed)
    for _ in range(GH_SAMPLE_PAIRS):
        i, j = sorted(map(int, rng.integers(0, v, size=2)))
        if i == j:
            continue
        counts = np.bincount(f.vsub(M[j], M[i]), minlength=q)
        bad = counts != lam
        if bad.any():
            u = int(np.argwhere(bad)[0][0])
            return False, (i, j, u, int(counts[u]))
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
