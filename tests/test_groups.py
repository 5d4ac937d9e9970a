import numpy as np
import pytest

from ghfp import (
    Field,
    Perm,
    abelian_invariants,
    additive_group_of,
    elementary_abelian,
)
from ghfp.errors import (
    LengthMismatch,
    NotAbelian,
    NotAGroup,
    NotAssociative,
    NotPrime,
)
from ghfp.fields import PINNED_POLYS
from ghfp.fileio import read_cay, write_cay
from ghfp.groups import Group, _greedy_generators

import paper_data


# -- helpers: permutation and group operations that only the tests need -------

def invert(perm: Perm) -> Perm:
    return Perm(np.argsort(perm.images))


def apply_to_vector(perm: Perm, v):
    """perm acting on v: the value at position j moves to position
    images[j]."""
    v = np.asarray(v)
    out = np.empty_like(v)
    out[perm.images] = v
    return out


def order_of(group: Group, a: int) -> int:
    """The order of a, one product at a time."""
    n, e = 1, a
    while e != 0:
        e = int(group.table[e, a])
        n += 1
    return n


def relabel(group: Group, perm: Perm) -> Group:
    """The table conjugated by a relabeling that keeps 0 fixed."""
    img = perm.images
    assert img[0] == 0, "relabeling must fix the identity"
    inv = np.argsort(img)
    return Group(img[group.table[inv][:, inv]])


def test_elementary_abelian_orders():
    g = elementary_abelian(3, 2)
    assert g.order == 9
    assert all(order_of(g, i) == 3 for i in range(1, 9))
    # lexicographic indexing: (0,1) at index 1, (1,0) at index 3
    assert g.mul(1, 1) == 2 and g.mul(3, 3) == 6 and g.mul(1, 3) == 4


def test_elementary_abelian_klein():
    g = elementary_abelian(2, 2)
    assert g.order == 4
    assert [g.mul(1, 2), g.mul(1, 1), g.mul(2, 3)] == [3, 0, 1]
    with pytest.raises(NotPrime):
        elementary_abelian(6, 1)


def test_latin_and_identity_checks():
    g = elementary_abelian(3, 4)
    v = g.order
    assert (np.sort(g.table, axis=1) == np.arange(v)).all()
    assert (g.table[0] == np.arange(v)).all()
    g.check_associativity()


def non_associative_triples(table):
    """Brute-force oracle: every (g, h, k) with (gh)k != g(hk)."""
    t = np.asarray(table)
    return {tuple(map(int, x)) for x in np.argwhere(t[t] != t[:, t])}


def s3_table():
    """S_3 as a Cayley table: elements e, r, r2, s, sr, sr2."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = np.zeros((6, 6), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(3))]
    return table


def test_generators_generate():
    rng = np.random.default_rng(5)
    z27 = elementary_abelian(3, 3)
    images = np.concatenate(([0], 1 + rng.permutation(26)))
    groups = [elementary_abelian(2, 4), z27, relabel(z27, Perm(images)),
              additive_group_of(Field(2, 3), "primitive-power"),
              Group(s3_table()), Group(s3_table()).opposite(),
              elementary_abelian(2, 1).direct_product(elementary_abelian(3, 2))]
    for g in groups:
        gens = g.generators()
        assert g._generators == tuple(gens)  # cached
        assert g.generators() is not gens  # a new list on every call
        assert 2 ** len(gens) <= g.order
        reached, frontier = {0}, [0]
        while frontier:
            frontier = [int(g.table[s, x]) for s in gens for x in frontier
                        if int(g.table[s, x]) not in reached]
            reached.update(frontier)
        assert reached == set(range(g.order))
    assert elementary_abelian(3, 4).generators() == [1, 3, 9, 27]


def unique_closure_generators(t):
    """The greedy generating set with each frontier's products deduplicated
    by np.unique: the oracle of _greedy_generators' bool-array marks."""
    gens, reached = [], np.zeros(len(t), dtype=bool)
    reached[0] = True
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        reached[gens[-1]] = True
        frontier = np.flatnonzero(reached)
        while frontier.size:
            new = np.unique(t[np.ix_(gens, frontier)])
            frontier = new[~reached[new]]
            reached[frontier] = True
    return gens


def test_greedy_generators_match_the_unique_closure(loop5):
    """Relabeled Z_2^8 and Z_3^5 (the .cay groups of the benchmark), S_3,
    S_3 x Z_2^2 and a loop, which is no group."""
    rng = np.random.default_rng(8)
    tables = [Group(s3_table()).table, loop5,
              Group(s3_table()).direct_product(elementary_abelian(2, 2)).table]
    for p, k in [(2, 8), (3, 5), (2, 3)]:
        g = elementary_abelian(p, k)
        for _ in range(3):
            img = np.concatenate(([0], 1 + rng.permutation(g.order - 1)))
            tables.append(relabel(g, Perm(img)).table)
    for t in tables:
        assert _greedy_generators(t) == unique_closure_generators(t)


def test_loop_is_not_associative(loop5):
    g = Group(loop5)  # Latin, with a two-sided identity
    with pytest.raises(NotAGroup) as exc:
        g.check_associativity()
    assert isinstance(exc.value, NotAssociative)
    assert exc.value.triple in non_associative_triples(loop5)


def test_opposite_is_the_transposed_group(loop5):
    """G^op of the non-abelian S_3 is built once from G's table transposed,
    read-only and C-contiguous, and is the group a fresh check of that
    table finds, with G's inverse map (its generators are checked in
    test_generators_generate).  A loop's opposite keeps the loop's verdict;
    no table or inverse map can be written."""
    g = Group(s3_table())
    op = g.opposite()
    assert op is g.opposite() and op.opposite() is g
    assert (op.table == g.table.T).all() and (op.table != g.table).any()
    assert op.table.flags.c_contiguous and not op.table.flags.writeable
    fresh = Group(np.array(op.table))
    fresh.check()
    op.check()
    assert op.inv is g.inv and (op.inv == fresh.inv).all()
    for table in (g.table, g.inv, op.table):
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    loop = Group(loop5)
    with pytest.raises(NotAssociative) as exc:
        loop.opposite().check()
    assert exc.value.triple == loop.associativity_failure()


def test_is_abelian_is_decided_once_and_shared_with_the_opposite():
    """is_abelian is kept like the Latin and associativity verdicts:
    opposite() decides it before G^op is built, both read the kept answer,
    and nothing decides it again."""
    z6 = np.add.outer(np.arange(6), np.arange(6)) % 6
    for table, want in ((s3_table(), False), (z6, True)):
        g = Group(table)
        assert "_abelian" not in vars(g)
        op = g.opposite()
        assert vars(g)["_abelian"] is vars(op)["_abelian"] is want
        assert g.is_abelian is op.is_abelian is want
        g._abelian = not want  # a kept verdict is read, not recomputed
        assert g.is_abelian is not want


def test_associativity_matches_oracle_on_extension_magmas(gf3):
    """E_psi for psi = b (+) S_3 and S_3 (+) b over Z_3^2, b any normalized
    GF(3) table over Z_3: a Latin square with identity, associative exactly
    when psi is a cocycle, and able to fail at one generator only."""
    from ghfp import Cocycle, ExtensionGroup, multiplication_cocycle
    from test_extension import extension_table

    s3 = multiplication_cocycle(gf3).table
    z9 = elementary_abelian(3, 2)
    seen = {True: 0, False: 0}
    for code in range(3 ** 4):
        b = np.zeros((3, 3), dtype=np.int64)
        b[1:, 1:] = np.array([code // 3 ** i % 3 for i in range(4)]).reshape(2, 2)
        for left, right in ((b, s3), (s3, b)):
            t = gf3.vadd(left[:, None, :, None], right[None, :, None, :])
            psi = Cocycle(z9, gf3, t.reshape(9, 9), check="skip")
            table = extension_table(ExtensionGroup(psi)).table
            bad = non_associative_triples(table)
            try:
                Group(table).check_associativity()
                accepted = True
            except NotAssociative as exc:
                accepted = False
                assert exc.triple in bad
            assert accepted == (not bad)
            seen[accepted] += 1
    assert seen[True] and seen[False]


def test_bad_tables_rejected():
    with pytest.raises(NotAGroup):
        Group([[0, 1], [1, 1]])
    with pytest.raises(NotAGroup):
        Group([[1, 0], [0, 1]])


def _latin_by_sorting(t):
    """The message latin_failure gives, found by sorting rows and columns."""
    ar = np.arange(len(t))
    if not (t[0] == ar).all() or not (t[:, 0] == ar).all():
        return "index 0 is not a two-sided identity"
    if not (np.sort(t, axis=1) == ar).all():
        return "a row is not a permutation"
    if not (np.sort(t, axis=0) == ar[:, None]).all():
        return "a column is not a permutation"
    return None


def test_latin_failure_matches_sorting(loop5):
    """The counted verdict against sorting, on groups, relabeled groups, a
    loop, and tables with one entry changed (in row 0 and elsewhere; to a
    repeat in its row, or to a value outside [0, v)) or with two entries of
    a row swapped (every row stays a permutation; two columns do not).  At
    v = 256 the count runs in four blocks, and the changed entries lie in
    the first and the last."""
    rng = np.random.default_rng(6)
    tables = [np.array(loop5)]
    for g in (elementary_abelian(2, 1), elementary_abelian(5, 1),
              elementary_abelian(2, 4), elementary_abelian(3, 3),
              elementary_abelian(2, 6), elementary_abelian(2, 8),
              Group(s3_table())):
        img = np.concatenate(([0], 1 + rng.permutation(g.order - 1)))
        tables += [g.table, relabel(g, Perm(img)).table]
    for t in list(tables):
        v = len(t)
        for value in (-1, v, 1, int(rng.integers(v))):
            for r, c in ((0, v - 1), (v - 1, 1), (1, v - 1)):
                bad = np.array(t)
                bad[r, c] = value
                tables.append(bad)
        if v > 2:
            swapped = np.array(t)
            swapped[v - 1, [1, 2]] = swapped[v - 1, [2, 1]]
            tables.append(swapped)
    messages = set()
    for t in tables:
        want = _latin_by_sorting(t)
        assert Group(np.array(t), check=False).latin_failure() == want
        messages.add(want)
    assert messages == {None, "index 0 is not a two-sided identity",
                        "a row is not a permutation",
                        "a column is not a permutation"}


def test_additive_group_primitive_power_matches_published_table():
    f = Field(2, 3)
    g = additive_group_of(f, "primitive-power")
    # element order 0,1,x,...,x^6; published addition table, upper triangle
    for (i, j), pos in paper_data.ADD_POSITIONS_ORDER8_UPPER.items():
        assert g.mul(i, j) == pos, (i, j)
    # 1 + x = x^3 sits at position 4
    assert g.mul(1, 2) == 4


def test_additive_group_encoding_identity_column():
    f = Field(3, 4, paper_data.POLY_81)
    g = additive_group_of(f, "encoding")
    assert (g.table[:, 0] == np.arange(81)).all()


def test_orderings_give_isomorphic_group():
    f = Field(2, 2)
    enc = additive_group_of(f, "encoding")
    pw = additive_group_of(f, "primitive-power")
    # exhaustive relabeling search at order 4
    import itertools

    found = False
    for images in itertools.permutations(range(1, 4)):
        perm = Perm([0] + list(images))
        if (relabel(enc, perm).table == pw.table).all():
            found = True
            break
    assert found


def test_perm_compose_invert_apply():
    rng = np.random.default_rng(0)
    for n in (4, 9, 16):
        p = Perm(rng.permutation(n))
        q = Perm(rng.permutation(n))
        v = rng.integers(0, 100, size=n)
        assert (apply_to_vector(Perm(p.images[q.images]), v) ==
                apply_to_vector(p, apply_to_vector(q, v))).all()
        assert Perm(p.images[invert(p).images]) == Perm(np.arange(n))
        assert (apply_to_vector(invert(p), apply_to_vector(p, v)) == v).all()
    with pytest.raises(LengthMismatch):
        Perm([0, 0, 1])


def test_cycle_form():
    assert Perm([1, 0, 3, 2]).cycle_form() == "(1,2)(3,4)"
    assert Perm([0, 1, 2]).cycle_form() == "I"
    assert Perm([2, 0, 1]).cycle_form() == "(1,3,2)"


def test_apply_convention_blockwise_shift(s9_cocycle):
    # applying (1,2,3)(4,5,6)(7,8,9) to the second row of the order-9 matrix
    # cycles the entries inside each block of three
    perm = Perm([1, 2, 0, 4, 5, 3, 7, 8, 6])
    row = paper_data.H_ORDER9[1]
    out = apply_to_vector(perm, row)
    assert out.tolist() == [2, 0, 1, 2, 0, 1, 2, 0, 1]


def test_abelian_invariants_elementary():
    assert abelian_invariants(elementary_abelian(3, 3)) == [3, 3, 3]
    assert abelian_invariants(elementary_abelian(2, 2)) == [2, 2]


def test_abelian_invariants_cyclic_mixed():
    z6 = Group(np.array([[(i + j) % 6 for j in range(6)] for i in range(6)]))
    assert abelian_invariants(z6) == [2, 3]
    z4 = Group(np.array([[(i + j) % 4 for j in range(4)] for i in range(4)]))
    assert abelian_invariants(z4) == [4]


def test_abelian_invariants_relabel_invariant():
    rng = np.random.default_rng(1)
    g = elementary_abelian(3, 3)
    for _ in range(5):
        images = np.concatenate(([0], 1 + rng.permutation(g.order - 1)))
        assert abelian_invariants(relabel(g, Perm(images))) == [3, 3, 3]


def test_invariants_and_exponent_of_cyclic_products():
    """Z_n1 x ... x Z_nk, relabeled at random, has the prime-power parts of
    the n_i as invariants, and its exponent is the lcm of the element
    orders that order_of walks one product at a time."""
    rng = np.random.default_rng(7)
    for ns, want in [([2, 4, 8], [2, 4, 8]), ([9, 3], [3, 9]),
                     ([12, 2], [2, 3, 4]), ([25, 5, 2], [2, 5, 25]),
                     ([4, 4, 2, 2], [2, 2, 4, 4]), ([7], [7])]:
        g = None
        for n in ns:
            z = np.arange(n)
            c = Group((z[:, None] + z[None, :]) % n)
            g = c if g is None else g.direct_product(c)
        images = np.concatenate(([0], 1 + rng.permutation(g.order - 1)))
        g = relabel(g, Perm(images))
        assert abelian_invariants(g) == want, ns
        assert g.exponent == np.lcm.reduce(
            [order_of(g, a) for a in range(g.order)]), ns
    s3_x_z2z2 = Group(s3_table()).direct_product(elementary_abelian(2, 2))
    assert s3_x_z2z2.exponent == 6


def group_descriptor(group: Group) -> dict:
    """Abelian invariants when abelian; order/exponent/center descriptor else."""
    try:
        inv = abelian_invariants(group)
        return {"abelian": True, "invariants": inv, "order": group.order}
    except NotAbelian as e:
        return {
            "abelian": False,
            "order": e.order,
            "exponent": e.exponent,
            "center": e.center_size,
        }


def test_nonabelian_descriptor():
    g = Group(s3_table())
    g.check_associativity()
    with pytest.raises(NotAbelian) as exc:
        abelian_invariants(g)
    assert exc.value.order == 6 and exc.value.exponent == 6
    desc = group_descriptor(g)
    assert desc == {"abelian": False, "order": 6, "exponent": 6, "center": 1}


def test_direct_product():
    a = elementary_abelian(2, 1)
    b = elementary_abelian(3, 1)
    assert abelian_invariants(a.direct_product(b)) == [2, 3]


def test_constructed_groups_match_the_scan(tmp_path, bench_recipes, loop5):
    """A group built by theorem (elementary_abelian, additive_group_of in
    encoding order, direct_product of two groups) holds the generators the
    greedy search finds, the inverse map of np.nonzero(table == 0) and the
    verdict the scan decides, with no search or scan of its own.  Products
    with S_3 (non-abelian, from its table), a relabeled factor and a group
    read from a .cay are built by theorem too; a product with a loop is
    scanned, and its verdict is the scan's.  The groups of every cocycle
    the benchmark builds (Z_p^k and products of them) are among the
    fixtures."""
    rng = np.random.default_rng(9)
    s3, z3, z4 = Group(s3_table()), elementary_abelian(3, 1), \
        elementary_abelian(2, 2)
    write_cay(tmp_path / "s3.cay", s3)
    cay = read_cay(tmp_path / "s3.cay")
    img = np.concatenate(([0], 1 + rng.permutation(26)))
    z27r = relabel(elementary_abelian(3, 3), Perm(img))
    proved = [elementary_abelian(p, k) for p, k in
              ((2, 1), (2, 4), (3, 1), (3, 3), (5, 2), (7, 1), (13, 1))]
    proved += [additive_group_of(Field(p, m)) for p, m in
               ((2, 3), (3, 2), (3, 4), (5, 2))]
    proved += [s3.direct_product(z3), z4.direct_product(s3),
               s3.direct_product(s3), z27r.direct_product(z3),
               z3.direct_product(z27r), cay.direct_product(z4),
               s3.opposite().direct_product(z3)]
    recipes, build = bench_recipes
    proved += [build(recipe).group for recipe in recipes]
    loop = Group(loop5)
    scanned = [loop.direct_product(z3), z3.direct_product(loop)]
    for g in proved + scanned:
        by_theorem = g._generators is not None and hasattr(g, "_latin")
        assert by_theorem == (g not in scanned), g
        oracle = Group(np.array(g.table), check=False)
        rows, cols = np.nonzero(g.table == 0)
        assert (rows == np.arange(g.order)).all()
        assert g.inv.tolist() == cols.tolist()
        assert g.generators() == _greedy_generators(g.table)
        assert g.latin_failure() == oracle.latin_failure()
        assert g.associativity_failure() == oracle.associativity_failure()
        assert not g.table.flags.writeable and not g.inv.flags.writeable
    assert all(g.is_group() for g in proved)
    assert not any(g.is_group() for g in scanned)


def _additive_table_by_vadd(field):
    """The table of (F_q, +) in encoding order as it was built before it
    became elementary_abelian(p, m): vadd of every pair, read back through
    the position of each encoding."""
    elems = np.arange(field.q, dtype=np.int64)
    pos = np.empty(field.q, dtype=np.int64)
    pos[elems] = np.arange(field.q)
    return pos[field.vadd(elems[:, None], elems[None, :])]


@pytest.mark.parametrize("p,m", sorted(PINNED_POLYS))
def test_additive_group_encoding_is_the_vadd_table(p, m):
    f = Field(p, m)
    g = additive_group_of(f, "encoding")
    assert g.table.dtype == np.int64
    assert np.array_equal(g.table, _additive_table_by_vadd(f))
