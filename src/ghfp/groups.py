"""Finite groups as indexed Cayley tables, and coordinate permutations.

Group elements are indices 0..v-1 with index 0 the identity.  Permutations
are 0-based internally; cycle forms print 1-based.
"""

from __future__ import annotations

import copy
import weakref
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (LengthMismatch, NotAbelian, NotAGroup, NotAssociative,
                     NotPrime)
from .fields import (Field, base_digits, digitwise_table, integer_log,
                     is_prime, prime_factors)


class Perm:
    """Permutation of {0..n-1} stored as its images array.

    Acting on vectors uses the convention pi(v)_i = v_{pi^{-1}(i)}: the value
    at position j moves to position images[j].
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = np.asarray(images, dtype=np.int64)
        n = images.shape[0]
        if not (np.sort(images) == np.arange(n)).all():
            raise LengthMismatch("images is not a bijection")
        self.images = images

    @property
    def n(self) -> int:
        return int(self.images.shape[0])

    def cycle_form(self) -> str:
        """1-based disjoint cycles, fixed points omitted; identity prints I."""
        seen = np.zeros(self.n, dtype=bool)
        parts = []
        for i in range(self.n):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = int(self.images[i])
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = int(self.images[j])
            parts.append("(" + ",".join(str(k + 1) for k in cyc) + ")")
        return "".join(parts) if parts else "I"

    def __eq__(self, other):
        return (isinstance(other, Perm)
                and np.array_equal(self.images, other.images))

    def __hash__(self):
        return hash(self.images.tobytes())

    def __repr__(self):
        return f"Perm({self.cycle_form()})"


class Group:
    """Finite group on indices 0..v-1 given by its Cayley table.

    The table (the array passed in, not a copy) and the inverse map are made
    read-only, so the group's verdict can be kept: identity plus Latin, and
    associativity, each decided at most once per Group and read by every
    check that needs it; is_abelian and the Cayley tree of an abelian
    presentation (cayley_tree) are decided once too.  A table given here is
    scanned: its inverse map at once, its generators and verdict when first
    asked for.  The constructions elementary_abelian and direct_product of
    two groups prove all three instead (_proved)."""

    def __init__(self, table, check: bool = True):
        table = np.asarray(table, dtype=np.int64)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise NotAGroup("Cayley table must be square")
        table.setflags(write=False)
        self.table = table
        self.order = int(table.shape[0])
        if check and self.latin_failure() is not None:
            raise NotAGroup(self.latin_failure())
        self.inv = np.empty(self.order, dtype=np.int64)
        rows, cols = np.nonzero(table == 0)
        self.inv[rows] = cols
        self.inv.setflags(write=False)
        self._generators: Optional[Tuple[int, ...]] = None
        self._opposite = None

    @classmethod
    def _proved(cls, table: np.ndarray, inv: np.ndarray,
                generators: Sequence[int]) -> "Group":
        """A group whose construction proves it one, with its inverse map
        and the generators the greedy search would return: the Latin and
        associativity verdicts hold, and nothing is scanned."""
        group = cls.__new__(cls)
        for a in (table, inv):
            a.setflags(write=False)
        group.table, group.order, group.inv = table, len(table), inv
        group._generators = tuple(generators)
        group._latin = group._associativity = None
        group._opposite = None
        return group

    def latin_failure(self) -> Optional[str]:
        """Why index 0 is no two-sided identity of a Latin square, or None
        when it is; decided once.

        Counted, not sorted (_each_row_once on the table and on its
        transpose).  An entry outside [0, v) leaves its row no
        permutation."""
        if not hasattr(self, "_latin"):
            t, v = self.table, self.order
            ar = np.arange(v)
            self._latin = None
            if not (t[0] == ar).all() or not (t[:, 0] == ar).all():
                self._latin = "index 0 is not a two-sided identity"
            elif t.min() < 0 or t.max() >= v or not _each_row_once(t):
                self._latin = "a row is not a permutation"
            elif not _each_row_once(t.T):
                self._latin = "a column is not a permutation"
        return self._latin

    def associativity_failure(self) -> Optional[Tuple[int, int, int]]:
        """A triple (g, h, k) with (gh)k != g(hk), g a generator, or None;
        exact, and decided once.

        Light's test, as in Cocycle._check_identity: the left nucleus
        {a : (ab)c = a(bc) for all b, c} is closed under products, since
        ((aa')b)c = a((a'b)c) = (aa')(bc), so it is everything once it holds
        the generators."""
        if not hasattr(self, "_associativity"):
            t = self.table
            self._associativity = None
            for g in self.generators():
                lhs = t[t[g], :]
                rhs = t[g][t]
                if not (lhs == rhs).all():
                    h, k = map(int, np.argwhere(lhs != rhs)[0])
                    self._associativity = (g, h, k)
                    break
        return self._associativity

    def is_group(self) -> bool:
        """Whether the table is a group: both verdicts, each decided once."""
        return self.latin_failure() is None \
            and self.associativity_failure() is None

    def check(self) -> None:
        """Raise NotAGroup, or NotAssociative with a failing triple, unless
        the table is a group."""
        if self.latin_failure() is not None:
            raise NotAGroup(self.latin_failure())
        self.check_associativity()

    def check_associativity(self) -> None:
        """Exact; raises NotAssociative with a failing triple."""
        if self.associativity_failure() is not None:
            raise NotAssociative(*self.associativity_failure())

    def generators(self) -> List[int]:
        """The greedy generating set (_greedy_generators), found once or
        given by the construction.  Each call returns a new list, so a
        caller cannot change a shared group's set."""
        if self._generators is None:
            self._generators = tuple(_greedy_generators(self.table))
        return list(self._generators)

    def cayley_tree(self) -> Optional[tuple]:
        """A spanning tree of G's left Cayley graph on its generators S,
        when they commute and their orders o_s multiply to v, else None;
        decided once.  It describes G only over a group, so Cocycle asks
        for it after Group.check.

        Then G = prod Z_{o_s}, with presentation <S | s^{o_s}, st = ts>: the
        generators commute, so (a_s) -> prod s^{a_s} maps the product onto
        G, and both have order v.  The tree lists G in coordinate order:
        E_0 = {1}, and E_j is E_{j-1} followed by level j, s_j^a E_{j-1} for
        0 < a < o_j.  It is (order, levels): order holds the element at
        each position, or is None when that is the index order
        (elementary_abelian, additive_group_of in encoding order, their
        direct products); level j is (s_j, o_j, n), n = |E_{j-1}|, and the
        element at each position i in [n, o_j n) hangs from the one at
        i - n by the edge h' -> s_j h'.  Greedy generators can be dependent
        (in Z_4 x Z_2 listing an element of order 2 first), and then their
        orders multiply to more than v."""
        if hasattr(self, "_tree"):
            return self._tree
        t, gens, v = self.table, self.generators(), self.order
        self._tree = None
        if (t[np.ix_(gens, gens)] != t[np.ix_(gens, gens)].T).any():
            return None
        order, levels = np.zeros(1, dtype=np.int64), []
        for s in gens:
            layers = [order]
            while (x := t[s, layers[-1]])[0]:  # x[0] is s^a, a = len(layers)
                if (len(layers) + 1) * len(order) > v:
                    return None
                layers.append(x)
            levels.append((s, len(layers), len(order)))
            order = np.concatenate(layers)
        if len(order) == v:
            order.setflags(write=False)
            self._tree = (None if (order == np.arange(v)).all() else order,
                          tuple(levels))
        return self._tree

    def opposite(self) -> "Group":
        """G^op, with a o b = ba, built once: its table is G's transposed,
        read-only and C-contiguous, and its opposite is G again.  G^op
        holds G by a weak reference, so the two form no reference cycle and
        each is freed with its last user; a G^op whose G is gone builds it
        again by transposing.

        It shares G's inverse map, generators, verdict and is_abelian, which
        G decides first.  For a group that is exact: ab = 1 exactly when
        ba = 1; G^op has G's subgroups, so G's generators generate it;
        transposing swaps rows and columns, so G^op is Latin with identity 0,
        and symmetric, exactly when G is; and (a o b) o c = c(ba),
        a o (b o c) = (cb)a, so G^op is associative exactly when G is.  A
        failing verdict keeps G's message and triple."""
        op = self._opposite
        if isinstance(op, weakref.ref):
            op = op()
        if op is None:
            self.latin_failure()
            self.associativity_failure()
            self.is_abelian
            op = copy.copy(self)
            op.table = np.ascontiguousarray(self.table.T)
            op.table.setflags(write=False)
            op._opposite = weakref.ref(self)
            self._opposite = op
        return op

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    @property
    def is_abelian(self) -> bool:
        """Whether the table is symmetric; decided once, as the table is
        read-only (G^op shares it)."""
        if not hasattr(self, "_abelian"):
            self._abelian = bool((self.table == self.table.T).all())
        return self._abelian

    @property
    def exponent(self) -> int:
        return _exponent(self._mul, self.order)

    def _mul(self, a, b):
        """The product of index arrays, elementwise."""
        return self.table[a, b]

    def center_size(self) -> int:
        t = self.table
        return int(np.sum((t == t.T).all(axis=1)))

    def direct_product(self, other: "Group") -> "Group":
        """G1 x G2, (g, h) at index g*v2 + h.

        When both factors are groups, so is the product, and it is built by
        theorem: the inverse of (g, h) is (g^-1, h^-1), and the generators
        are greedy(G2) followed by v2 * greedy(G1), which is what the greedy
        search returns.  The indices below v2 are the subgroup {1} x G2, so
        the search uses that factor up first, and from then on it has
        reached K x G2, K the subgroup of G1 generated so far, whose least
        missing index is v2 times the least element outside K.  Any other
        product is scanned when asked, like a table given to Group."""
        v1, v2 = self.order, other.order
        t = self.table[:, None, :, None] * v2 + other.table[None, :, None, :]
        t = t.reshape(v1 * v2, v1 * v2)
        if not (self.is_group() and other.is_group()):
            return Group(t, check=False)
        inv = (self.inv[:, None] * v2 + other.inv).ravel()
        gens = other.generators() + [v2 * g for g in self.generators()]
        return Group._proved(t, inv, gens)

    def __repr__(self):
        return f"Group(order={self.order})"


def _greedy_generators(t: np.ndarray) -> List[int]:
    """A greedy generating set of the table t: take the smallest element not
    yet reached, close the reached set under left multiplication by the
    chosen elements, repeat.  A group of order v gets at most log_2 v
    elements, as each one at least doubles the subgroup reached."""
    gens: List[int] = []
    reached = np.zeros(len(t), dtype=bool)
    reached[0] = True
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            hit = np.zeros(len(t), dtype=bool)
            hit[t[np.ix_(gens, frontier)]] = True
            frontier = np.flatnonzero(hit & ~reached)
            reached |= hit
    return gens


def _each_row_once(t: np.ndarray) -> bool:
    """Whether every row of a v x v table with entries in [0, v) holds each
    value once: per block of rows r, the keys r*v + t[r, c] fill every bin
    of one bincount.  Blocks of about 2^14 entries keep each count array
    small; one v^2 array at v = 256 cost more to allocate than a sort."""
    v = len(t)
    step = max(1, (1 << 14) // v)
    for r0 in range(0, v, step):
        block = t[r0:r0 + step]
        keys = block + np.arange(0, len(block) * v, v)[:, None]
        if not np.bincount(keys.ravel(), minlength=keys.size).all():
            return False
    return True


def elementary_abelian(p: int, k: int) -> Group:
    """Z_p^k with indices in lexicographic tuple order ((0,0),(0,1),...),
    built as a group by theorem.

    Index e is the base-p number of its tuple, so the table adds base-p
    digits mod p (digitwise_table) and the inverse negates them.  The
    generators are 1, p, ..., p^(k-1), which is what the greedy search
    returns: the indices below p^i are the subgroup of tuples that vanish
    outside their last i places, and p^i is the least index outside it."""
    if not is_prime(p):
        raise NotPrime(f"p={p} is not prime")
    if k < 1:
        raise NotPrime(f"k={k} must be >= 1")
    places = p ** np.arange(k, dtype=np.int64)
    return Group._proved(digitwise_table(p, k, np.add, np.int64),
                         -base_digits(p, k) % p @ places, places.tolist())


def additive_group_of(field: Field, ordering: str = "encoding") -> Group:
    """Cayley table of (F_q, +) under the chosen element ordering.

    "encoding" lists elements 0..q-1: an encoding is the base-p number of
    its coefficients, added digitwise mod p, so this is Z_p^m in
    lexicographic order, on the field's own add and neg tables (no second
    table; elementary_abelian above ADD_TABLE_MAX_Q).  "primitive-power"
    lists 0, 1, x, ..., x^{q-2} for the field's primitive element x, and
    its table is scanned like a table given to Group.
    """
    q = field.q
    if ordering == "encoding":
        if field._add is None:
            return elementary_abelian(field.p, field.m)
        return Group._proved(field._add.reshape(q, q), field._neg,
                             [field.p ** i for i in range(field.m)])
    if ordering != "primitive-power":
        raise ValueError(f"unknown ordering {ordering!r}")
    elems = np.concatenate(([0], field.exp[:q - 1].astype(np.int64)))
    pos = np.empty(q, dtype=np.int64)
    pos[elems] = np.arange(q)
    table = pos[field.vadd(elems[:, None], elems[None, :])]
    return Group(table, check=False)


def abelian_invariants(group: Group) -> List[int]:
    """Invariant factors as a sorted multiset of prime powers, e.g. [4,4,4].

    Raises NotAbelian (with order/exponent/center descriptor) otherwise.
    """
    if not group.is_abelian:
        raise NotAbelian(group.order, group.exponent, group.center_size())
    return _invariants(group._mul, group.order)


def _power(mul, x: np.ndarray, e: int) -> np.ndarray:
    """x^e for every entry of the index array x, by square-and-multiply;
    mul multiplies two index arrays elementwise, with identity 0."""
    out = np.zeros_like(x)
    while e:
        if e & 1:
            out = mul(out, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return out


def _exponent(mul, n: int) -> int:
    """The least e with x^e = 1 for all n elements.  It divides n, so start
    at n and divide out each prime r while every x^(e/r) is 1."""
    x, e = np.arange(n), n
    for r in prime_factors(n):
        while e % r == 0 and not _power(mul, x, e // r).any():
            e //= r
    return e


def _invariants(mul, n: int) -> List[int]:
    """Invariant factors of an abelian group of order n, sorted.

    For each prime r, r^(c_k) elements have x^(r^k) = 1, and c_k - c_(k-1)
    factors have order at least r^k, so 2c_k - c_(k-1) - c_(k+1) have order
    r^k.  k grows until the count reaches the r-part of n or stops growing.
    """
    out: List[int] = []
    x = np.arange(n)
    for r in prime_factors(n):
        # r^full is the r-part of n
        full = max(k for k in range(n.bit_length()) if n % r ** k == 0)
        c = [0]
        while len(c) < 2 or c[-2] < c[-1] < full:
            killed = int(np.count_nonzero(_power(mul, x, r ** len(c)) == 0))
            c.append(integer_log(killed, r))
            if c[-1] is None:
                raise NotAGroup(f"order-count {killed} is not a power of {r}")
        c.append(c[-1])
        for k in range(1, len(c) - 1):
            out += [r ** k] * (2 * c[k] - c[k - 1] - c[k + 1])
    return sorted(out)
