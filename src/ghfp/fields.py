"""Exact arithmetic in GF(p^m) on integer encodings.

A field element is the integer e = sum(coeffs[i] * p**i) built from its
coefficients in the polynomial basis (little-endian).  This encoding is the
wire format used by every file the library reads or writes.

Field is the one owner of array arithmetic on encodings; every table is built
once, read-only.  Addition is one gather of a flat q x q add table built on
its first use (above ADD_TABLE_MAX_Q, one pass through the packed base-p
lanes below), negation one gather of a neg table of q entries at every q,
and the row-pair scan gathers from a narrow subtraction table built like the
add table.  Multiplication is one gather of the antilog table at a sum of
two logs: log 0 points into a zero tail of exp, so a product with 0 needs no
mask.  The scalar digit loops add and neg, and _poly_mul, are the tests'
oracle.

The two hottest loops add with no table: the cocycle identity check
(Cocycle._check_identity) and the rank spin-up (codes._spin_up) hold their
elements packed in base-p lanes (Lanes, Field._lanes), one digit per lane of
one unsigned word, and add all m digits with one integer add and a
carry-free reduction (one XOR for p = 2).  Every other caller gathers from
the tables, or packs, adds in lanes and unpacks above ADD_TABLE_MAX_Q."""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DivisionByZero,
    FieldMismatch,
    NotIrreducible,
    NotMonic,
    NotPrime,
)

# Default defining polynomials, little-endian c_0..c_m, found by scanning
# monic polynomials in increasing integer encoding (c_0 + c_1*p + ...) and
# keeping the first irreducible.  Pinned so outputs are bit-reproducible;
# a regression test re-derives each entry from the scan.
PINNED_POLYS = {
    (2, 1): (0, 1),
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 1): (0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (3, 4): (2, 1, 0, 0, 1),
    (3, 5): (1, 2, 0, 0, 0, 1),
    (3, 6): (2, 1, 0, 0, 0, 0, 1),
    (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
}


def prime_factors(n: int) -> List[int]:
    """The distinct primes dividing n, ascending, by trial division."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_prime(n: int) -> bool:
    return prime_factors(n) == [n]


def integer_log(n: int, base: int) -> Optional[int]:
    """The k with base**k == n, or None when n is no power of base."""
    k = 0
    while n > 1 and n % base == 0:
        n //= base
        k += 1
    return k if n == 1 else None


def _poly_divmod(a: Sequence[int], b: Sequence[int], p: int):
    """Quotient/remainder of coefficient lists over GF(p); b must be nonzero."""
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    quo = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = (a[i] * inv) % p
        if c:
            quo[i - db] = c
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    while a and a[-1] == 0:
        a.pop()
    return quo, a


def is_irreducible(coeffs: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= m/2."""
    m = len(coeffs) - 1
    if m < 1:
        return False
    if m > 1 and coeffs[0] == 0:
        return False
    for d in range(1, m // 2 + 1):
        for enc in range(p ** d):
            div = _decode(enc, p, d) + [1]
            _, rem = _poly_divmod(coeffs, div, p)
            if not rem:
                return False
    return True


def default_poly(p: int, m: int) -> Tuple[int, ...]:
    """Monic irreducible of degree m with the smallest integer encoding."""
    pinned = PINNED_POLYS.get((p, m))
    if pinned is not None:
        return pinned
    for enc in range(p ** m):
        coeffs = _decode(enc, p, m) + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise NotIrreducible(f"no irreducible polynomial of degree {m} over GF({p})")


def _decode(e: int, p: int, m: int):
    out = []
    for _ in range(m):
        out.append(e % p)
        e //= p
    return out


def _encode(coeffs: Iterable[int], p: int) -> int:
    e = 0
    for c in reversed(list(coeffs)):
        e = e * p + c
    return e


class Field:
    """GF(p^m) with an explicit monic irreducible defining polynomial."""

    def __init__(self, p: int, m: int, poly: Optional[Sequence[int]] = None):
        if not is_prime(p):
            raise NotPrime(f"p={p} is not prime")
        if m < 1:
            raise NotPrime(f"m={m} must be >= 1")
        if poly is None:
            poly = default_poly(p, m)
        poly = tuple(int(c) % p for c in poly)
        if len(poly) != m + 1:
            raise NotMonic(f"polynomial has degree {len(poly)-1}, expected {m}")
        if poly[-1] != 1:
            raise NotMonic(f"polynomial is not monic: {poly}")
        if not is_irreducible(poly, p):
            raise NotIrreducible(f"{poly} is reducible over GF({p})")
        self.p = p
        self.m = m
        self.q = p ** m
        self.poly = poly
        self._build_log_tables()
        for table in (self.exp, self.log):  # read-only, so a Field can be shared
            table.setflags(write=False)

    # -- scalar arithmetic on encodings ---------------------------------------

    def add(self, a: int, b: int) -> int:
        p, out, mul = self.p, 0, 1
        for _ in range(self.m):
            out += ((a + b) % p) * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        p, out, mul = self.p, 0, 1
        for _ in range(self.m):
            out += (-a % p) * mul
            a //= p
            mul *= p
        return out

    def mul(self, a: int, b: int) -> int:
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return int(self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)])

    # -- vectorized arithmetic on int arrays of encodings -----------------------

    # one-gather addition via a flat q x q table; above this order add in
    # packed base-p lanes (largest field in scope is 3^7 = 2187)
    ADD_TABLE_MAX_Q = 2400

    @cached_property
    def _add(self) -> Optional[np.ndarray]:
        """The flat q*q add table, read-only, built on first use (GF(3^7)'s
        is 38 MB), or None above ADD_TABLE_MAX_Q."""
        return self._digitwise_table(np.add, np.int64)

    @cached_property
    def _sub(self) -> Optional[np.ndarray]:
        """The flat q*q subtraction table, a - b at a*q + b, in uint8 up to
        q = 256 and uint16 above, read-only, built on first use; or None
        above ADD_TABLE_MAX_Q.  Narrow, so a row-pair scan gathers from a
        table that stays in cache (64 KB at q = 256)."""
        return self._digitwise_table(
            np.subtract, np.uint8 if self.q <= 256 else np.uint16)

    def _digitwise_table(self, op, dtype) -> Optional[np.ndarray]:
        """The flat q*q table of a digitwise op (mod p) at a*q + b, in dtype,
        read-only (digitwise_table), or None above ADD_TABLE_MAX_Q."""
        if self.q > self.ADD_TABLE_MAX_Q:
            return None
        table = digitwise_table(self.p, self.m, op, dtype).ravel()
        table.setflags(write=False)
        return table

    @cached_property
    def _lanes(self) -> "Lanes":
        """The packed-lane arithmetic of this field, built on first use."""
        return Lanes(self)

    @cached_property
    def _neg(self) -> np.ndarray:
        """The neg table, read-only, built on first use: each base-p digit
        of an encoding negated mod p."""
        places = self.p ** np.arange(self.m, dtype=np.int64)
        neg = -base_digits(self.p, self.m) % self.p @ places
        neg.setflags(write=False)
        return neg

    def vadd(self, a, b):
        """One gather of the flat add table at a*q + b, written into the
        key's own memory (mode="clip" lets take do that without a buffer;
        encodings are below q, so nothing is clipped).  Above
        ADD_TABLE_MAX_Q: pack, add in lanes, unpack."""
        if self._add is None:
            lanes = self._lanes
            return lanes.unpack(lanes.add(lanes.pack.take(a),
                                          lanes.pack.take(b)))
        key = np.asarray(np.multiply(a, self.q, dtype=np.int64))
        try:
            key += b
        except ValueError:  # b broadcasts a*q to a larger shape
            key = key + b
        return self._add.take(key, out=key, mode="clip")

    def vneg(self, a):
        return self._neg.take(a)

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        """One gather of exp at log a + log b; log 0 lands in exp's zero
        tail."""
        return self.exp.take(self.log.take(a) + self.log.take(b))

    # -- coefficients ------------------------------------------------------------

    def encode(self, coeffs: Iterable[int]) -> int:
        return _encode((c % self.p for c in coeffs), self.p)

    # -- subfield lift -------------------------------------------------------------

    def lift_from_prime(self, a):
        """Encodings from GF(p) are valid encodings here (prime subfield)."""
        a = np.asarray(a, dtype=np.int64)
        if a.size and int(a.max()) >= self.p:
            raise FieldMismatch("lift expects encodings below p")
        return a.copy()

    # -- internals --------------------------------------------------------------

    def _poly_mul(self, a: int, b: int) -> int:
        p, m = self.p, self.m
        da, db = _decode(a, p, m), _decode(b, p, m)
        prod = [0] * (2 * m)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(2 * m - 1, m - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for i in range(m):
                    prod[k - m + i] = (prod[k - m + i] - c * self.poly[i]) % p
        return _encode(prod[:m], p)

    def _build_log_tables(self):
        q = self.q
        for g in range(2, q):
            e, n = g, 1
            while e != 1:
                e = self._poly_mul(e, g)
                n += 1
                if n > q:
                    raise NotIrreducible(f"{self.poly} is not irreducible")
            if n == q - 1:
                self.generator = g
                break
        else:
            if q == 2:
                self.generator = 1
            else:
                raise NotIrreducible(f"no generator found; {self.poly} is bad")
        # exp is indexed by a sum of two logs: two periods, then a zero tail
        # that log 0, set past every sum of two nonzero logs, lands in
        zero = 2 * (q - 1)
        self.exp = np.zeros(2 * zero + 1, dtype=np.int64)
        self.log = np.full(q, zero, dtype=np.int64)
        e = 1
        for i in range(q - 1):
            self.exp[i] = e
            self.log[e] = i
            e = self._poly_mul(e, self.generator)
        self.exp[q - 1:zero] = self.exp[:q - 1]

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.m, self.poly) == (other.p, other.m, other.poly))

    def __hash__(self):
        return hash((self.p, self.m, self.poly))

    def __repr__(self):
        return f"Field(p={self.p}, m={self.m}, poly={list(self.poly)})"


class Lanes:
    """GF(p^m) encodings packed in base-p lanes: digit i of an encoding sits
    at bit b*i of one unsigned word, so (F_q, +) = Z_p^m adds all m digits
    with one integer add and no table (the packed rows of the Meataxe, R. A.
    Parker, "The computer calculation of modular characters", 1984; Dumas,
    Fousse and Salvy, "Simultaneous modular reduction and Kronecker
    substitution for small finite fields", J. Symbolic Comput. 46, 2011).

    For odd p, b is the least integer with 2^(b-1) >= p; for p = 2 it is
    1, as a sum mod 2 is XOR.  Words are the narrowest unsigned dtype that
    holds b*m bits.  pack[e] is the word of encoding e (pack[0] = 0, and
    distinct encodings have distinct words), and exp is pack[Field.exp], so
    a*x is one gather exp[log a + log x].  For odd p, add(x, y) reduces each
    lane sum s = x_i + y_i to s - p*(((s + C) & H) >> (b-1)), with C =
    2^(b-1) - p and H = 2^(b-1) in every lane: s + C has its top lane bit
    set exactly when s >= p, and nothing carries between lanes, because s <=
    2p - 2 and so s + C <= p - 2 + 2^(b-1) < 2^b; one lane adds as
    min(s, s - p), as s - p wraps above s exactly when s < p.  unpack is a
    gather for words up to 12 bits, else m shift-and-mask passes.  For p = 2
    (1-bit lanes) and for a prime field (one lane) the word is the encoding,
    so pack is the identity and unpack a cast."""

    def __init__(self, field: Field):
        p, m = field.p, field.m
        self.p = p
        self.b = b = 1 if p == 2 else 1 + (p - 1).bit_length()
        self.dtype = dtype = np.min_scalar_type((1 << (b * m)) - 1)
        self._shifts = shifts = b * np.arange(m, dtype=np.int64)
        self._places = p ** np.arange(m, dtype=np.int64)
        self.pack = (base_digits(p, m) << shifts).sum(axis=1).astype(dtype)
        self.exp = self.pack.take(field.exp)
        for table in (self.pack, self.exp):
            table.setflags(write=False)
        self._cast = p == 2 or m == 1  # pack is the identity
        self._words = None if self._cast or b * m > 12 else np.bincount(
            self.pack, np.arange(field.q), 1 << (b * m)).astype(np.int64)
        if p > 2:
            lanes = int((1 << shifts).sum())
            self.C = dtype.type(((1 << (b - 1)) - p) * lanes)
            self.H = dtype.type((1 << (b - 1)) * lanes)

    def add(self, x, y, out=None) -> np.ndarray:
        """The lane sum of two packed arrays (broadcast), in out or a new
        array."""
        if self.p == 2:
            return np.bitwise_xor(x, y, out=out)
        s = np.add(x, y, out=out)
        if self._cast:  # one lane: s - p wraps above s exactly when s < p
            return np.minimum(s, s - self.p, out=s)
        carry = s + self.C
        carry &= self.H
        carry >>= self.b - 1
        carry *= self.p
        s -= carry
        return s

    def unpack(self, x) -> np.ndarray:
        """The int64 encodings of packed words."""
        if self._cast:
            return x.astype(np.int64)
        if self._words is not None:
            return self._words.take(x)
        digits = x[..., None] >> self._shifts  # int64, as the shifts are
        digits &= (1 << self.b) - 1
        return digits @ self._places


def digitwise_table(p: int, k: int, op, dtype) -> np.ndarray:
    """The p^k x p^k table of op, np.add or np.subtract, digitwise mod p on
    base-p indices, in dtype: the add and subtraction tables of GF(p^k) on
    encodings, and the Cayley table of Z_p^k in lexicographic order.

    For p = 2 both ops are XOR, one pass.  Otherwise by the digit recursion
    e = e0 + p*e': Z_p^k's table is Z_p^(k-1)'s table times p plus Z_p's,
    in p x p blocks (faster than one pass per digit: 2.1 against 33 ms at
    3^6 on a 2-vCPU x86-64 host, numpy 2.4)."""
    if p == 2:
        e = np.arange(1 << k, dtype=dtype)
        return np.bitwise_xor.outer(e, e)
    zp = np.arange(p, dtype=np.int64)
    op_p = table = (op.outer(zp, zp) % p).astype(dtype)
    for _ in range(k - 1):
        n = len(table) * p
        table = (p * table[:, None, :, None] + op_p[:, None]).reshape(n, n)
    return table


def base_digits(p: int, k: int) -> np.ndarray:
    """The p^k x k base-p digits of 0..p^k - 1, least significant first."""
    return np.arange(p ** k, dtype=np.int64)[:, None] // p ** np.arange(k) % p


def row_histograms(rows, q: int) -> np.ndarray:
    """(n, q) counts of an (n, k) array of encodings: [i, u] is how often u
    occurs in row i.  One bincount over keys i*q + u."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[0]
    keys = np.arange(n, dtype=np.int64)[:, None] * q + rows
    return np.bincount(keys.ravel(), minlength=n * q).reshape(n, q)


def block_rows(width: int) -> int:
    """Rows per block, so a block of rows width wide holds about 2^16
    entries.  Lowering it to 2^13 everywhere cost `fingerprint` 231/234 ->
    187/189 jobs/s (two pairs on a 2-vCPU x86-64 host); only the automorphism
    kernels use smaller blocks."""
    return max(1, (1 << 16) // width)


def largest_entry(table, limit: int, error) -> int:
    """The largest entry of an int64 table; error unless every one is in
    [0, limit), as a gather by it would wrap a negative entry or fail on a
    large one.  Read as uint64, a negative entry is at least 2^63, so one
    max decides both bounds."""
    hi = int(table.view(np.uint64).max())
    if hi >= limit:
        bad = int(table.min()) if hi >= 1 << 63 else hi
        raise error(f"entry {bad} is outside [0, {limit})")
    return hi
