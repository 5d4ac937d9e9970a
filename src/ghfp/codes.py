"""q-ary codes from generalized Hadamard matrices: rank, kernel, distances.

C_H is the union of the rows of a normalized matrix H translated by every
constant vector.  Its coset structure is what makes the large cases cheap:
membership is one sorted-key search after subtracting the first coordinate,
the linear span of all qv codewords equals the span of the v rows plus the
all-one vector, and kernels are unions of cosets of the repetition code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import DuplicateRows, NotACodeword, NotNormalized, ZeroNotInCode
from .fields import Field
from .ghmatrix import GHMatrix, row_pair_counts


class KernelResult(NamedTuple):
    dim: int
    basis: List[np.ndarray]
    seed: int


class MinDistanceResult(NamedTuple):
    value: int
    mode: str  # "theorem" (weights only) or "exhaustive"; both exact


def rank_of_rows(field: Field, rows) -> int:
    """Dimension over F_q of the span of the given vectors."""
    return len(_reduce_rows(field, rows))


def _reduce_rows(field: Field, rows) -> List[Tuple[int, np.ndarray]]:
    """Gaussian elimination; returns (pivot column, normalized row) pairs."""
    pivots: List[Tuple[int, np.ndarray]] = []
    for r in rows:
        r = np.asarray(r, dtype=np.int64).copy()
        for c, pr in pivots:
            if r[c]:
                r = field.vsub(r, field.vsmul(int(r[c]), pr))
        nz = np.nonzero(r)[0]
        if len(nz):
            c = int(nz[0])
            pivots.append((c, field.vsmul(field.inv(int(r[c])), r)))
    return pivots


class Code:
    """A plain code: an explicit set of words.  Used for small cases and as
    the independent oracle next to GHCode's structured shortcuts."""

    def __init__(self, field: Field, words):
        words = np.asarray(words, dtype=np.int64)
        if words.ndim != 2:
            raise ValueError("words must be a 2-d array")
        self.field = field
        self.words = words
        self.n = int(words.shape[1])
        # the words as sorted fixed-width byte keys, for _members
        self._key = np.dtype((np.void, 8 * self.n))
        self._keys = np.sort(np.ascontiguousarray(words).view(self._key)[:, 0])
        if (self._keys[1:] == self._keys[:-1]).any():
            raise DuplicateRows("duplicate words")

    def __len__(self):
        return int(self.words.shape[0])

    def _members(self, batch) -> np.ndarray:
        """Which vectors of a batch are words: one search of the sorted keys
        and a byte compare of the match."""
        batch = np.ascontiguousarray(batch, dtype=np.int64).reshape(-1, self.n)
        keys = batch.view(self._key)[:, 0]
        pos = self._keys.searchsorted(keys)
        return self._keys.take(pos, mode="clip") == keys

    def contains(self, word) -> bool:
        return bool(self._members(word)[0])

    def rank(self) -> int:
        return rank_of_rows(self.field, self.words)

    def kernel(self) -> KernelResult:
        """Brute-force K(C) = {x : C + alpha*x = C for all alpha}."""
        if not self.contains(np.zeros(self.n, dtype=np.int64)):
            raise ZeroNotInCode("kernel needs the zero word")
        f = self.field
        members = []
        for x in self.words:
            if all(self._translate_fixes(f.vsmul(a, x)) for a in range(1, f.q)):
                members.append(x)
        dim = _integer_log(len(members), f.q)
        basis = [pr for _, pr in _reduce_rows(f, members)]
        return KernelResult(dim, basis, 0)

    def p_kernel(self) -> Fraction:
        """Additive p-kernel size, reported as an F_q-normalized dimension
        (dimension over GF(p) divided by the extension degree)."""
        if not self.contains(np.zeros(self.n, dtype=np.int64)):
            raise ZeroNotInCode("p-kernel needs the zero word")
        count = sum(1 for x in self.words if self._translate_fixes(x))
        return Fraction(_integer_log(count, self.field.p), self.field.m)

    def _translate_fixes(self, x) -> bool:
        return bool(self._members(self.field.vadd(self.words, x)).all())

    def min_distance(self) -> MinDistanceResult:
        words = self.words
        best = self.n
        for i in range(len(words) - 1):
            d = (words[i + 1:] != words[i][None, :]).sum(axis=1).min()
            best = min(best, int(d))
        return MinDistanceResult(best, "exhaustive")


class GHCode:
    """The code C_H of a normalized matrix H: all rows plus all constants."""

    def __init__(self, matrix: GHMatrix):
        if not matrix.is_normalized:
            raise NotNormalized("C_H needs a normalized matrix")
        self.matrix = matrix
        self.field = matrix.field
        self.H = matrix.entries
        self.v = matrix.v
        self.q = matrix.field.q
        self.n = self.v
        # each row as one fixed-width byte key (a view of H), and the order
        # that sorts the keys, for index()
        self._key = np.dtype((np.void, 8 * self.n))
        self._keys = np.ascontiguousarray(self.H).view(self._key)[:, 0]
        self._order = np.argsort(self._keys)
        # a repeated row finds the first of its copies, not its own place
        first = self._keys.searchsorted(self._keys, sorter=self._order)
        if (first[self._order] != np.arange(self.v)).any():
            raise DuplicateRows("matrix has duplicate rows")

    def __len__(self):
        return self.q * self.v

    def index(self, words) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, offsets) of an (n, v) batch: word k equals offsets[k]*1
        plus H-row rows[k], or rows[k] is -1 when word k is not in C_H.

        Exact, with no hashing: every row starts with 0, so the first
        coordinate is the offset; the rest is searched among the row keys in
        their sort order and the match compared byte for byte.
        """
        words = np.asarray(words, dtype=np.int64)
        offsets = words[:, 0].copy()
        base = self.field.vsub(words, offsets[:, None])
        keys = np.ascontiguousarray(base).view(self._key)[:, 0]
        pos = self._keys.searchsorted(keys, sorter=self._order)
        # pos == v (past the last key) clips to a row the compare rejects
        rows = self._order.take(pos, mode="clip")
        rows[self._keys.take(rows) != keys] = -1
        return rows, offsets

    def row_of(self, word) -> int:
        """Index of the H-row whose coset contains word; NotACodeword else."""
        word = np.asarray(word, dtype=np.int64)
        row = int(self.index(word[None])[0][0])
        if row < 0:
            raise NotACodeword("vector is not in C_H")
        return row

    def contains(self, word) -> bool:
        word = np.asarray(word, dtype=np.int64)
        return bool(self.index(word[None])[0][0] >= 0)

    def words(self) -> np.ndarray:
        """Materialize all qv codewords (coset-major: alpha block, then row)."""
        alphas = np.arange(self.q, dtype=np.int64)
        out = self.field.vadd(alphas[:, None, None], self.H[None, :, :])
        return out.reshape(self.q * self.v, self.n)

    def as_code(self) -> Code:
        return Code(self.field, self.words())

    @property
    def ones(self) -> np.ndarray:
        return np.ones(self.n, dtype=np.int64)

    def c1(self) -> np.ndarray:
        """The repetition subcode {alpha * 1}."""
        return np.repeat(np.arange(self.q, dtype=np.int64), self.n).reshape(self.q, self.n)

    def _span_pivots(self):
        """Cached row reduction of span(C_H) = span(all-one, rows of H); the
        all-one vector goes first, so it is the first pivot row."""
        if not hasattr(self, "_pivots"):
            self._pivots = _reduce_rows(self.field, [self.ones, *self.H])
        return self._pivots

    def rank(self) -> int:
        """dim span(C_H) = dim span(rows of H plus the all-one vector)."""
        return len(self._span_pivots())

    # -- kernels -----------------------------------------------------------------

    def _span_projection(self):
        """Pivot columns J of span(C) and the J-projection index of F_H.

        Inside span(C) the J-projection is injective, so for vectors known
        to lie in the span (sums of codewords, scalar multiples of
        codewords) membership reduces to one short-key lookup.  Cached.
        """
        if not hasattr(self, "_proj"):
            J = np.array([c for c, _ in self._span_pivots()], dtype=np.int64)
            lookup = {self.H[i][J].tobytes(): i for i in range(self.v)}
            self._proj = (J, lookup)
        return self._proj

    def _stable_rows(self, seed: int, probes: int = 8) -> List[int]:
        """Rows f with C + f = C, by early random probes then a full sweep.

        Every vector tested is a sum of two codewords, hence in span(C),
        so the projection shortcut applies throughout.
        """
        rng = np.random.default_rng(seed)
        f = self.field
        J, lookup = self._span_projection()
        HJ = self.H[:, J]
        out = []
        for i in range(self.v):
            js = rng.integers(0, self.v, size=probes)
            # rows have first coordinate 0, so row + row is already based
            if not all(f.vadd(HJ[i], HJ[int(j)]).tobytes() in lookup
                       for j in js):
                continue
            shifted = f.vadd(HJ, HJ[i][None, :])
            if all(r.tobytes() in lookup for r in shifted):
                out.append(i)
        return out

    def p_kernel(self, seed: int = 0) -> Fraction:
        """F_q-normalized dimension of K_p(C) = {x : C + x = C}.

        K_p is a union of cosets of the repetition code, so it is q times the
        number of stable rows; the value is dim_p(K_p) / m and can be a
        genuine fraction when K_p is not F_q-closed.  A linear code is its
        own p-kernel, of dimension rank.
        """
        if self.is_linear():
            return Fraction(self.rank())
        stable = self._stable_rows(seed)
        dim_p = self.field.m + _integer_log(len(stable), self.field.p)
        return Fraction(dim_p, self.field.m)

    def kernel(self, seed: int = 0) -> KernelResult:
        """K(C) = {x : C + alpha x = C for all alpha}; dimension over F_q.

        A linear code is its own kernel: dimension rank, basis the span
        pivots, the all-one vector first, each in span(C) = C.  Otherwise,
        restricting candidates to rows of H is valid because 0 is a codeword
        (so K(C) is inside C) and K is a union of repetition-code cosets.
        """
        if self.is_linear():
            return KernelResult(self.rank(),
                                [pr for _, pr in self._span_pivots()], seed)
        f = self.field
        stable = set(self._stable_rows(seed))
        J, lookup = self._span_projection()
        # scalar multiples of codewords stay in the span
        members = [i for i in stable
                   if all(lookup.get(f.vsmul(a, self.H[i][J]).tobytes())
                          in stable for a in range(2, f.q))]
        dim = 1 + _integer_log(len(members), self.q)
        basis_rows = [self.H[i] for i in members if i != 0]
        basis = [self.ones] + [pr for _, pr in _reduce_rows(f, basis_rows)]
        return KernelResult(dim, basis, seed)

    def is_linear(self) -> bool:
        """C_H lies in its span, which has q^rank words, so C_H is linear
        exactly when q^rank = |C_H|."""
        return self.q ** self.rank() == len(self)

    # -- distance -----------------------------------------------------------------

    def min_distance(self) -> MinDistanceResult:
        """Exact at every order, by one scan of row pairs (i, j), i < j.

        d(f_i + a1, f_j + b1) = n - #{t : (f_j - f_i)_t = a - b}, so the pair
        (i, j) contributes n minus the largest multiplicity in f_j - f_i, and
        two words of one coset are n apart.  The pairs (0, j) give the
        weights, as f_0 = 0.  The scan stops there ("theorem") when every
        distance is a weight: when C_H is linear (d(x, y) = wt(y - x) and
        y - x is in C_H), or when H is a cocycle over its group (see
        GHMatrix.cocycle).  Otherwise every pair is scanned ("exhaustive").
        """
        theorem = self.matrix.cocycle() is not None or self.is_linear()
        best = self.n
        for _, _, counts in row_pair_counts(self.matrix, lambda: theorem):
            best = min(best, self.n - int(counts.max()))
        return MinDistanceResult(best, "theorem" if theorem else "exhaustive")


def code_from_gh(matrix: GHMatrix) -> Tuple[Code, GHCode]:
    """(F_H, C_H) from a normalized matrix with distinct rows."""
    ch = GHCode(matrix)
    fh = Code(matrix.field, matrix.entries)
    return fh, ch


def _integer_log(n: int, base: int) -> int:
    k = round(math.log(n, base)) if n > 1 else 0
    if base ** k != n:
        raise ValueError(f"{n} is not a power of {base}")
    return k
