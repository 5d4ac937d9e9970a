"""q-ary codes from generalized Hadamard matrices: rank, kernel, distances.

C_H is the union of the rows of a normalized matrix H translated by every
constant vector.  Its coset structure is what makes the large cases cheap:
membership is one sorted-key search after subtracting the first coordinate,
the linear span of all qv codewords equals the span of the v rows plus the
all-one vector, and kernels are unions of cosets of the repetition code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, NamedTuple, Tuple

import numpy as np

from .errors import DuplicateRows, NotACodeword, NotNormalized, ZeroNotInCode
from .fields import Field, block_rows, integer_log
from .ghmatrix import GHMatrix, row_pair_counts


class KernelResult(NamedTuple):
    dim: int
    basis: List[np.ndarray]


class MinDistanceResult(NamedTuple):
    value: int
    mode: str  # "theorem" (weights only) or "exhaustive"; both exact


def rank_of_rows(field: Field, rows) -> int:
    """Dimension over F_q of the span of the given vectors."""
    return len(_reduce_rows(field, rows))


def _reduce_rows(field: Field, rows) -> List[Tuple[int, np.ndarray]]:
    """Gaussian elimination, one row at a time; returns (pivot column,
    normalized row) pairs.  The oracle next to _spin_up."""
    pivots: List[Tuple[int, np.ndarray]] = []
    for r in rows:
        r = np.asarray(r, dtype=np.int64).copy()
        for c, pr in pivots:
            if r[c]:
                r = field.vsub(r, field.vmul(int(r[c]), pr))
        nz = np.nonzero(r)[0]
        if len(nz):
            c = int(nz[0])
            pivots.append((c, field.vmul(field.inv(int(r[c])), r)))
    return pivots


def _spin_up(field: Field, rows, maps,
             commute: bool = False) -> List[Tuple[int, np.ndarray]]:
    """Echelon pivots of the smallest subspace that holds rows and is closed
    under x -> x[m] for every index map m in maps.

    Returns (pivot column, row) pairs as _reduce_rows does: each row is 1 at
    its column and 0 at the columns of the pivots before it, and a first
    row with a nonzero first entry is the first pivot, at column 0.  With
    no maps this is plain elimination of rows.  Otherwise, level by level,
    the translates of each candidate that became a pivot, as it came and
    not its pivot row, are reduced against every pivot before them (the
    Meataxe spin-up; R. A. Parker, "The computer calculation of modular
    characters", 1984), but for a constant row, fixed by every map.

    With commute=True (the maps commute), a candidate reached by map j is
    translated only by the maps t >= j: only non-decreasing words are
    reduced, an order ideal as in FGLM (Faugere, Gianni, Lazard and Mora,
    J. Symbolic Comput. 16, 1993).  The monomials L^a x_s (x_s a start
    row) go in the graded order (|a|, s, a's word lexicographic), which L_j
    preserves.  By induction on u, every monomial u is in the span of the
    pivot monomials <= u: write u = L_j u', j the last map of u.  If u' is
    a pivot monomial, u was a candidate, reduced against every pivot before
    it; else u' is in the span of pivot monomials m < u', and L_j m < u.

    Rows go through in blocks of block_rows(n), packed in base-p lanes
    (Field._lanes), each reduced against the pivots so far and then against
    its own new pivots.  Each pivot keeps log(-p) of its row p, so a step
    X + X[:, c] (x) (-p) unpacks only column c, gathers the packed products
    at log X[:, c] + log(-p) and adds them in lanes, with no add table; only
    a new pivot row is unpacked back to encodings.
    """
    n = len(rows[0])
    step = block_rows(n)
    lanes, log = field._lanes, field.log
    pivots: List[Tuple[int, np.ndarray]] = []
    lnegs: List[np.ndarray] = []  # log(-p) for each pivot row p

    def eliminate(X, c, lneg):  # in place
        scale = log.take(X[:, c] if lanes._cast else lanes.unpack(X[:, c]))
        lanes.add(X, lanes.exp.take(scale[:, None] + lneg), out=X)

    def reduce(X, new):  # marks in new the rows of X that become pivots
        for (c, _), lneg in zip(pivots, lnegs):
            eliminate(X, c, lneg)
        for i in X.any(axis=1).nonzero()[0]:  # a zero row stays zero
            nz = X[i].nonzero()[0]
            if nz.size:
                c = int(nz[0])
                row = lanes.unpack(X[i])
                row = field.vmul(field.inv(int(row[c])), row)
                pivots.append((c, row))
                lnegs.append(log.take(field.vneg(row)))
                new[i] = True
                if i + 1 < len(X):
                    eliminate(X[i + 1:], c, lnegs[-1])

    maps = np.asarray(maps, dtype=np.int64).reshape(-1, n)
    grid, at, src = np.arange(len(maps)), None, np.asarray(rows, np.int64)
    # level 0 is the start rows as they are; lo: the least map to translate by
    lo = (src == src[:, :1]).all(axis=1) * len(maps)
    while True:
        new = np.zeros(len(lo), dtype=bool)
        kept = []  # the new pivots as they came
        for b in range(0, len(lo), step):
            X = src[b:b + step] if at is None else \
                src[at[b:b + step, None], maps[by[b:b + step]]]
            reduce(lanes.pack.take(X), new[b:b + step])
            kept.append(X[new[b:b + step]])
        if not any(len(x) for x in kept):
            return pivots
        src = np.concatenate(kept)
        at, by = np.nonzero(grid >= lo[new][:, None])
        lo = by if commute else 0 * by


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
        self._rows = _SortedRows(words)

    def __len__(self):
        return int(self.words.shape[0])

    def _members(self, batch) -> np.ndarray:
        """Which vectors of a batch are words."""
        return self._rows.find(np.reshape(batch, (-1, self.n))) >= 0

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
            if all(self._translate_fixes(f.vmul(a, x)) for a in range(1, f.q)):
                members.append(x)
        dim = _integer_log(len(members), f.q)
        basis = [pr for _, pr in _reduce_rows(f, members)]
        return KernelResult(dim, basis)

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


class _SortedRows:
    """Distinct rows of an (n, w) array as fixed-width byte keys, argsorted
    once; DuplicateRows if two rows are equal.

    find(batch) maps each vector of a (k, w) batch to its row, or to -1 when
    it is no row: exact, with no hashing, by one search of the keys in their
    sort order and a byte compare of the match.
    """

    def __init__(self, rows):
        self.rows = np.ascontiguousarray(rows, dtype=np.int64)
        self._key = np.dtype((np.void, 8 * self.rows.shape[1]))
        self._keys = self.rows.view(self._key)[:, 0]
        self._order = np.argsort(self._keys)
        # a repeated row finds the first of its copies, not its own place
        first = self._keys.searchsorted(self._keys, sorter=self._order)
        if (first[self._order] != np.arange(len(first))).any():
            raise DuplicateRows("duplicate rows")

    def find(self, batch) -> np.ndarray:
        keys = np.ascontiguousarray(batch, dtype=np.int64).view(self._key)[:, 0]
        pos = self._keys.searchsorted(keys, sorter=self._order)
        # pos == n (past the last key) clips to a row the compare rejects
        rows = self._order.take(pos, mode="clip")
        rows[self._keys.take(rows) != keys] = -1
        return rows


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
        self._rows = _SortedRows(self.H)

    def __len__(self):
        return self.q * self.v

    def index(self, words) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, offsets) of an (n, v) batch: word k equals offsets[k]*1
        plus H-row rows[k], or rows[k] is -1 when word k is not in C_H.

        Every row starts with 0, so the first coordinate is the offset; the
        rest is searched among the rows.
        """
        words = np.asarray(words, dtype=np.int64)
        offsets = words[:, 0].copy()
        rows = self._rows.find(self.field.vsub(words, offsets[:, None]))
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

    @property
    def ones(self) -> np.ndarray:
        return np.ones(self.n, dtype=np.int64)

    def _span_pivots(self):
        """Cached echelon pivots of span(C_H) = span(all-one, rows of H);
        the all-one vector goes first, so it is the first pivot row.

        When H is a cocycle psi over its group (see GHMatrix.cocycle), the
        span is spun up from the all-one vector and the rows f_s of the
        group's generators s, under the maps x -> x[L_s] with L_s(k) = sk.
        The identity at (g, s, k) reads f_gs = f_g o L_s + f_s - psi(g,s)1,
        so the span is closed under each map, and the spun-up subspace,
        which holds 1 and f_s and is closed under the maps, holds f_gs once
        it holds f_g: by induction on word length it holds every row.  A
        verdict holds only over a group (Cocycle), where s(tk) = (st)k, so
        the maps commute when the generators do, and only words of
        non-decreasing map indices are reduced (_spin_up).
        Any other matrix reduces the all-one vector and every row.
        """
        if not hasattr(self, "_pivots"):
            psi = self.matrix.cocycle()
            if psi is None:
                rows, maps, commute = [self.ones, *self.H], [], False
            else:
                gens = psi.group.generators()
                rows = [self.ones, *self.H[gens]]
                maps = psi.group.table[gens]
                st = maps[:, gens].tolist()  # st[i][j] = gens[i] gens[j]
                commute = st == [list(ts) for ts in zip(*st)]
            self._pivots = _spin_up(self.field, rows, maps, commute)
        return self._pivots

    def rank(self) -> int:
        """dim span(C_H) = dim span(rows of H plus the all-one vector)."""
        return len(self._span_pivots())

    # -- kernels -----------------------------------------------------------------

    def _span_projection(self) -> _SortedRows:
        """The rows of H projected on the pivot columns J of span(C).

        Inside span(C) the J-projection is injective (each pivot row is 1 at
        its column and 0 at the columns of the pivots before it), so for
        vectors known to lie in the span (sums of codewords, scalar
        multiples of codewords) membership reduces to a search of the
        projected rows.  Cached.
        """
        if not hasattr(self, "_proj"):
            J = [c for c, _ in self._span_pivots()]
            self._proj = _SortedRows(self.H[:, J])
        return self._proj

    def _stable_rows(self) -> np.ndarray:
        """The rows f_i with C + f_i = C, in increasing order; cached, so
        kernel and p_kernel share one sweep.

        C + f_i = C exactly when f_i + f_j is in C_H for every row f_j, and
        as rows start with 0, exactly when f_i + f_j is a row.  Sums of two
        codewords lie in the span, so each is one projected search.  The
        rows still standing meet f_j for j in [1, 2), [2, 4), [4, 8), ...
        (f + f_0 = f), one vadd and one search per row block: the rows of
        a nonlinear code mostly fall to the first probes.
        """
        if not hasattr(self, "_stable"):
            f = self.field
            proj = self._span_projection()
            HJ, width = proj.rows, proj.rows.shape[1]
            standing = np.arange(self.v)
            lo = 1
            while lo < self.v:
                probes = HJ[lo:2 * lo]
                step = block_rows(len(probes) * width)
                keep = np.ones(len(standing), dtype=bool)
                for b in range(0, len(standing), step):
                    sums = f.vadd(HJ[standing[b:b + step], None], probes)
                    found = proj.find(sums.reshape(-1, width))
                    keep[b:b + step] = (found.reshape(sums.shape[:2]) >= 0
                                        ).all(axis=1)
                standing = standing[keep]
                lo *= 2
            self._stable = standing
        return self._stable

    def p_kernel(self, seed: int = 0) -> Fraction:
        """F_q-normalized dimension of K_p(C) = {x : C + x = C}.

        K_p is a union of cosets of the repetition code, so it is q times the
        number of stable rows; the value is dim_p(K_p) / m and can be a
        genuine fraction when K_p is not F_q-closed.  A linear code is its
        own p-kernel, of dimension rank.  seed is unused and kept for
        callers that pass it.
        """
        if self.is_linear():
            return Fraction(self.rank())
        stable = self._stable_rows()
        dim_p = self.field.m + _integer_log(len(stable), self.field.p)
        return Fraction(dim_p, self.field.m)

    def kernel(self, seed: int = 0) -> KernelResult:
        """K(C) = {x : C + alpha x = C for all alpha}; dimension over F_q.

        A linear code is its own kernel: dimension rank, basis the span
        pivots, the all-one vector first, each in span(C) = C.  Otherwise,
        restricting candidates to rows of H is valid because 0 is a codeword
        (so K(C) is inside C) and K is a union of repetition-code cosets: a
        stable row f is in K when every multiple a*f lies in K_p(C) = {y :
        C + y = C}.  As a*f starts with 0, it lies in K_p exactly when it is
        a stable row.  K_p is closed under addition, so {a : a*f in K_p} is
        an additive subgroup of F_q; it holds 1, so it is F_q once it holds
        x, x^2, ..., x^(m-1) (encodings p, ..., p^(m-1)), an F_p-basis with
        1.  So the m - 1 multiples by those, which stay in the span, are
        searched, and none over a prime field.  seed is unused and kept for
        callers that pass it.
        """
        if self.is_linear():
            return KernelResult(self.rank(),
                                [pr for _, pr in self._span_pivots()])
        f = self.field
        proj = self._span_projection()
        stable = self._stable_rows()
        # a row of -1 (not found) reads the last entry, which stays False
        is_stable = np.zeros(self.v + 1, dtype=bool)
        is_stable[stable] = True
        scalars = f.p ** np.arange(1, f.m)[:, None, None]
        width = proj.rows.shape[1]
        step = block_rows(max(1, len(scalars)) * width)
        keep = np.ones(len(stable), dtype=bool)
        for b in range(0, len(stable), step):
            multiples = f.vmul(scalars, proj.rows[stable[b:b + step]])
            found = proj.find(multiples.reshape(-1, width))
            keep[b:b + step] = is_stable[found].reshape(
                multiples.shape[:2]).all(axis=0)
        members = stable[keep]
        dim = 1 + _integer_log(len(members), self.q)
        basis_rows = [self.H[i] for i in members if i != 0]
        basis = [pr for _, pr in _spin_up(f, [self.ones, *basis_rows], [])]
        return KernelResult(dim, basis)

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
        weights, as f_0 = 0.  The scan reads range(1) ("theorem") when every
        distance is a weight: when C_H is linear (d(x, y) = wt(y - x) and
        y - x is in C_H), or when H is a cocycle over its group (see
        GHMatrix.cocycle).  Otherwise it reads range(v - 1) ("exhaustive").
        """
        theorem = self.matrix.cocycle() is not None or self.is_linear()
        best = self.n
        rows = range(1 if theorem else self.v - 1)
        for _, _, counts in row_pair_counts(self.matrix, rows):
            best = min(best, self.n - int(counts.max()))
        return MinDistanceResult(best, "theorem" if theorem else "exhaustive")


def code_from_gh(matrix: GHMatrix) -> Tuple[Code, GHCode]:
    """(F_H, C_H) from a normalized matrix with distinct rows."""
    ch = GHCode(matrix)
    fh = Code(matrix.field, matrix.entries)
    return fh, ch


def _integer_log(n: int, base: int) -> int:
    k = integer_log(n, base)
    if k is None:
        raise ValueError(f"{n} is not a power of {base}")
    return k
