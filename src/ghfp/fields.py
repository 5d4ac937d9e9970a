"""Exact arithmetic in GF(p^m) on integer encodings.

A field element is the integer e = sum(coeffs[i] * p**i) built from its
coefficients in the polynomial basis (little-endian).  This encoding is the
wire format used by every file the library reads or writes.

Field is the one owner of array arithmetic on encodings; construction builds
every table once, read-only.  Addition and negation are single gathers of a
flat q x q add table and a neg table (digitwise passes above
ADD_TABLE_MAX_Q).  Multiplication is one gather of the antilog table at a sum
of two logs: log 0 points into a zero tail of exp, so a product with 0 needs
no mask.  The scalar digit loops add and neg, and _poly_mul, are the tests'
oracle."""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


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
        self._build_add_tables()
        for table in (self.exp, self.log, self._add, self._neg):
            if table is not None:  # read-only, so a Field can be shared
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

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        return int(self.exp[self.log[a] + self.log[b]])

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return int(self.exp[(self.q - 1 - self.log[a]) % (self.q - 1)])

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n == 0:
                return 1
            if n < 0:
                raise DivisionByZero("0 to a negative power")
            return 0
        return int(self.exp[(int(self.log[a]) * n) % (self.q - 1)])

    # -- vectorized arithmetic on int arrays of encodings -----------------------

    # one-gather addition via a flat q x q table; above this order fall back
    # to digitwise passes (largest field in scope is 3^7 = 2187)
    ADD_TABLE_MAX_Q = 2400

    def _build_add_tables(self):
        """The flat q*q add table and the neg table, or None above
        ADD_TABLE_MAX_Q.  By the digit recursion e = e0 + p*e': GF(p^k)'s
        table is GF(p^(k-1))'s table times p plus Z_p's, in p x p blocks."""
        if self.q > self.ADD_TABLE_MAX_Q:
            self._add = self._neg = None
            return
        p = self.p
        zp = np.arange(p, dtype=np.int64)
        add_p, neg_p = (zp[:, None] + zp) % p, -zp % p
        add, neg = add_p, neg_p
        for _ in range(self.m - 1):
            n = len(neg) * p
            add = (p * add[:, None, :, None] + add_p[:, None]).reshape(n, n)
            neg = (p * neg[:, None] + neg_p).ravel()
        self._add, self._neg = add.ravel(), neg

    def _vadd_digits(self, a, b):
        p = self.p
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        mul = 1
        for _ in range(self.m):
            out += ((a + b) % p) * mul
            a = a // p
            b = b // p
            mul *= p
        return out

    def _vneg_digits(self, a):
        p = self.p
        out = np.zeros(a.shape, dtype=np.int64)
        mul = 1
        for _ in range(self.m):
            out += (-a % p) * mul
            a = a // p
            mul *= p
        return out

    def vadd(self, a, b):
        """One gather of the flat add table at a*q + b, written into the
        key's own memory (mode="clip" lets take do that without a buffer;
        encodings are below q, so nothing is clipped)."""
        if self._add is None:
            return self._vadd_digits(np.asarray(a, dtype=np.int64),
                                     np.asarray(b, dtype=np.int64))
        key = np.asarray(np.multiply(a, self.q, dtype=np.int64))
        try:
            key += b
        except ValueError:  # b broadcasts a*q to a larger shape
            key = key + b
        return self._add.take(key, out=key, mode="clip")

    def vneg(self, a):
        a = np.asarray(a, dtype=np.int64)
        return self._vneg_digits(a) if self._neg is None else self._neg[a]

    def vsub(self, a, b):
        return self.vadd(a, self.vneg(b))

    def vmul(self, a, b):
        """One gather of exp at log a + log b; log 0 lands in exp's zero
        tail."""
        return self.exp.take(self.log.take(a) + self.log.take(b))

    # -- element view -----------------------------------------------------------

    def element(self, e: int) -> "FieldElement":
        return FieldElement(self, int(e) % self.q)

    def elements(self):
        return (FieldElement(self, e) for e in range(self.q))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    def coeffs(self, e: int) -> Tuple[int, ...]:
        return tuple(_decode(e, self.p, self.m))

    def encode(self, coeffs: Iterable[int]) -> int:
        return _encode((c % self.p for c in coeffs), self.p)

    # -- power-of-x notation (printing only, never used internally) ---------------

    def power_string(self, e: int) -> str:
        if e == 0:
            return "0"
        k = int(self.log[e])
        if k == 0:
            return "1"
        if k == 1:
            return "x"
        return f"x^{k}"

    def parse_power_string(self, s: str) -> int:
        s = s.strip()
        if s == "0":
            return 0
        if s == "1":
            return 1
        if s == "x":
            return int(self.exp[1])
        if s.startswith("x^"):
            return int(self.exp[int(s[2:]) % (self.q - 1)])
        return int(s)

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


def field_new(p: int, m: int, poly: Optional[Sequence[int]] = None) -> Field:
    """Construct GF(p^m); poly defaults to the pinned smallest irreducible."""
    return Field(p, m, poly)


def row_histograms(rows, q: int) -> np.ndarray:
    """(n, q) counts of an (n, k) array of encodings: [i, u] is how often u
    occurs in row i.  One bincount over keys i*q + u."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[0]
    keys = np.arange(n, dtype=np.int64)[:, None] * q + rows
    return np.bincount(keys.ravel(), minlength=n * q).reshape(n, q)


def block_rows(width: int) -> int:
    """Rows per block, so a block of rows width wide holds about 2^16
    entries."""
    return max(1, (1 << 16) // width)


class FieldElement:
    """An element of a Field, wrapping its integer encoding."""

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: int):
        self.field = field
        self.enc = enc

    def _coerce(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldMismatch("elements from different fields")
            return other.enc
        return int(other) % self.field.q

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.enc, self._coerce(other)))

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.enc, self._coerce(other)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.enc))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.enc, self._coerce(other)))

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.div(self.enc, self._coerce(other)))

    def __pow__(self, n):
        return FieldElement(self.field, self.field.pow(self.enc, int(n)))

    def inverse(self):
        return FieldElement(self.field, self.field.inv(self.enc))

    @property
    def coeffs(self):
        return self.field.coeffs(self.enc)

    def __int__(self):
        return self.enc

    def __index__(self):
        return self.enc

    def __eq__(self, other):
        if isinstance(other, FieldElement):
            return self.field == other.field and self.enc == other.enc
        return self.enc == other

    def __hash__(self):
        return hash((self.field.p, self.field.m, self.enc))

    def __repr__(self):
        return f"GF({self.field.q}):{self.enc}"
