import numpy as np
import pytest

from ghfp import Field, default_poly
from ghfp.errors import DivisionByZero, NotIrreducible, NotMonic, NotPrime
from ghfp.fields import PINNED_POLYS, _decode, is_irreducible

import paper_data


def power(f, a: int, n: int) -> int:
    """a^n in f by its log and antilog tables; 0^0 = 1."""
    if a == 0:
        if n < 0:
            raise DivisionByZero("0 to a negative power")
        return int(n == 0)
    return int(f.exp[int(f.log[a]) * n % (f.q - 1)])


def test_published_polynomial_is_accepted():
    f = Field(3, 4, [2, 1, 0, 0, 1])
    assert f.q == 81
    # x * x^3 reduces to 2x + 1, encoding 7
    assert f.mul(3, power(f, 3, 3)) == 7


def test_prime_field_encoding_is_value():
    f = Field(3, 1, [0, 1])
    assert [f.add(a, b) for a in range(3) for b in range(3)] == \
        [(a + b) % 3 for a in range(3) for b in range(3)]


def test_reducible_polynomial_rejected():
    # x^4 + 1 = (x^2+x+2)(x^2+2x+2) over GF(3)
    with pytest.raises(NotIrreducible):
        Field(3, 4, [1, 0, 0, 0, 1])


def test_constructor_validation():
    with pytest.raises(NotPrime):
        Field(4, 1, [0, 1])
    with pytest.raises(NotMonic):
        Field(3, 2, [1, 0, 2])
    with pytest.raises(NotMonic):
        Field(3, 2, [1, 0])


def test_pinned_polys_match_search():
    for (p, m), pinned in PINNED_POLYS.items():
        if p ** m > 3 ** 5:
            continue  # larger degrees re-derived once, not every run
        for enc in range(p ** m):
            coeffs = []
            x = enc
            for _ in range(m):
                coeffs.append(x % p)
                x //= p
            coeffs.append(1)
            if is_irreducible(coeffs, p):
                assert tuple(coeffs) == pinned, (p, m)
                break


def test_default_poly_for_81_is_published_one():
    assert default_poly(3, 4) == paper_data.POLY_81


@pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 1), (3, 2), (3, 4)])
def test_field_axioms_exhaustive(p, m):
    f = Field(p, m)
    q = f.q
    for a in range(q):
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        assert f.mul(a, 0) == 0
    if q <= 256:
        for a in range(q):
            for b in range(q):
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in range(0, q, max(1, q // 16)):
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def test_multiplicative_group_order():
    f = Field(3, 4, paper_data.POLY_81)
    for g in range(1, f.q):
        assert power(f, g, f.q - 1) == 1


def test_additive_exponent_p():
    f = Field(3, 4, paper_data.POLY_81)
    for a in range(0, f.q, 7):
        assert f.add(f.add(a, a), a) == 0


def test_encoding_roundtrip():
    f = Field(3, 4, paper_data.POLY_81)
    for e in range(f.q):
        assert f.encode(_decode(e, f.p, f.m)) == e


def test_inverse_and_division():
    f = Field(2, 3)
    for a in range(1, f.q):
        assert f.mul(a, f.inv(a)) == 1
        assert f.mul(f.mul(a, 5), f.inv(5)) == a
    with pytest.raises(DivisionByZero):
        f.inv(0)
    with pytest.raises(DivisionByZero):
        power(f, 0, -1)
    assert power(f, 0, 0) == 1 and power(f, 0, 5) == 0
    assert power(f, 3, -1) == f.inv(3)


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                                 (3, 3), (3, 4)])
def test_vectorized_matches_scalar(p, m, monkeypatch):
    """The table gathers against the scalar digit loops and _poly_mul, on
    every pair (a, b) including 0; then the lane path of a field built
    above ADD_TABLE_MAX_Q against the scalar digit loops."""
    f = Field(p, m)
    q = f.q
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.vadd(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.vsub(a, b).tolist() == [f.add(x, f.neg(y)) for x, y in pairs]
    assert f.vneg(np.arange(q)).tolist() == [f.neg(x) for x in range(q)]
    products = [f._poly_mul(x, y) for x, y in pairs]
    assert f.vmul(a, b).tolist() == products
    assert [int(f.vmul(x, y)) for x, y in pairs] == products
    assert [f.mul(x, y) for x, y in pairs] == products
    for s in range(q):
        assert f.vmul(s, np.arange(q)).tolist() == products[s * q:(s + 1) * q]
    monkeypatch.setattr(Field, "ADD_TABLE_MAX_Q", q - 1)
    lanes = Field(p, m)
    assert lanes._add is None and lanes._sub is None
    sums = [f.add(x, y) for x, y in pairs]
    assert lanes.vadd(a, b).tolist() == sums
    e = np.arange(q)
    assert lanes.vadd(e[:, None], e).ravel().tolist() == sums
    assert lanes.vsub(a, b).tolist() == [f.add(x, f.neg(y))
                                         for x, y in pairs]
    assert lanes.vneg(e).tolist() == [f.neg(x) for x in range(q)]


@pytest.mark.parametrize("p,m", [(3, 8), (2, 12)])
def test_arithmetic_above_the_add_table_limit(p, m):
    """GF(3^8) and GF(2^12) lie above ADD_TABLE_MAX_Q: vadd adds in packed
    lanes, vneg gathers from a neg table of q entries, and both, with vsub,
    equal the scalar digit loops on seeded samples, on scalars and on
    broadcast shapes."""
    f = Field(p, m)
    q = f.q
    assert q > Field.ADD_TABLE_MAX_Q and f._add is None and f._sub is None
    assert f._neg.shape == (q,) and not f._neg.flags.writeable
    assert f.vneg(np.arange(q)).tolist() == [f.neg(x) for x in range(q)]
    rng = np.random.default_rng(q)
    a, b = rng.integers(0, q, size=(2, 3000))
    a[:3], b[:3] = (0, q - 1, 5), (q - 1, 0, 5)
    pairs = list(zip(a.tolist(), b.tolist()))
    assert f.vadd(a, b).tolist() == [f.add(x, y) for x, y in pairs]
    assert f.vsub(a, b).tolist() == [f.add(x, f.neg(y)) for x, y in pairs]
    for x, y in pairs[:20]:
        assert int(f.vadd(x, y)) == f.add(x, y)
        assert int(f.vsub(x, y)) == f.add(x, f.neg(y))
        assert int(f.vneg(x)) == f.neg(x)
    col, row = a[:40, None], b[:30]
    want = [[f.add(x, y) for y in b[:30].tolist()] for x in a[:40].tolist()]
    assert f.vadd(col, row).tolist() == want
    assert f.vadd(row, col).tolist() == want
    assert f.vsub(col, row).tolist() == [
        [f.add(x, f.neg(y)) for y in b[:30].tolist()]
        for x in a[:40].tolist()]
    assert f.vadd(int(a[0]), b[:30]).tolist() == want[0]
    assert f.vneg(col).tolist() == [[f.neg(x)] for x in a[:40].tolist()]


def test_add_tables_built_on_first_array_addition():
    """GF(3^7) holds no add or neg table until array arithmetic needs one;
    then both are single, read-only, and agree with the scalar digit loops
    on random pairs and on every element."""
    f = Field(3, 7)
    assert "_add" not in vars(f) and "_neg" not in vars(f)
    f.mul(5, 7)
    f.vmul(np.arange(f.q), 3)
    assert "_add" not in vars(f) and "_neg" not in vars(f)
    rng = np.random.default_rng(8)
    a, b = rng.integers(0, f.q, size=(2, 4000))
    assert f.vadd(a, b).tolist() == [f.add(x, y) for x, y in zip(a.tolist(),
                                                                 b.tolist())]
    add = f._add
    assert add is not None and not add.flags.writeable
    e = np.arange(f.q)
    assert f.vneg(e).tolist() == [f.neg(x) for x in range(f.q)]
    assert not f._neg.flags.writeable
    f.vsub(a, b)
    assert f._add is add


@pytest.mark.parametrize("p,m,b,dtype", [
    (2, 1, 1, np.uint8), (2, 4, 1, np.uint8), (3, 5, 3, np.uint16),
    (3, 6, 3, np.uint32), (5, 2, 4, np.uint8), (7, 2, 4, np.uint8),
    (11, 1, 5, np.uint8), (13, 2, 5, np.uint16), (3, 7, 3, np.uint32)])
def test_lanes_match_scalar_arithmetic(p, m, b, dtype):
    """Packed base-p lanes against the scalar digit loops and _poly_mul.
    The lanes are built on first use, b bits wide (the least b with 2^(b-1)
    >= p for odd p, 1 for p = 2), in the narrowest word of b*m bits (GF(49)
    fills uint8 exactly).
    unpack(pack[a]) is a for every a; unpack(add(pack[a], pack[b])) is
    add(a, b) and the packed product exp[log a + log b] unpacks to
    _poly_mul(a, b), on every pair up to q = 256 and on random pairs, 0
    included, above (GF(3^6), GF(3^7))."""
    f = Field(p, m)
    assert "_lanes" not in vars(f)
    lanes = f._lanes
    assert f._lanes is lanes and (lanes.b, lanes.dtype) == (b, dtype)
    assert lanes.pack.dtype == lanes.exp.dtype == dtype
    assert not lanes.pack.flags.writeable and not lanes.exp.flags.writeable
    q = f.q
    assert lanes.pack[0] == 0
    assert lanes.unpack(lanes.pack).tolist() == list(range(q))
    if q <= 256:
        x = np.repeat(np.arange(q), q)
        y = np.tile(np.arange(q), q)
    else:
        x, y = np.random.default_rng(q).integers(0, q, size=(2, 20000))
        x[:q], y[-q:] = 0, np.arange(q)
    pairs = list(zip(x.tolist(), y.tolist()))
    packed = lanes.add(lanes.pack[x], lanes.pack[y])
    assert packed.dtype == dtype
    assert lanes.unpack(packed).tolist() == [f.add(a, c) for a, c in pairs]
    if q > 729:
        pairs = pairs[:2000]  # _poly_mul of degree 7 is slow in Python
        x, y = x[:2000], y[:2000]
    products = lanes.exp.take(f.log[x] + f.log[y])
    assert lanes.unpack(products).tolist() == [f._poly_mul(a, c)
                                               for a, c in pairs]
