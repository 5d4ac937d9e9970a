import numpy as np
import pytest

from ghfp import (
    Cocycle,
    Field,
    Group,
    Perm,
    PropelinearCode,
    check_cocycle,
    coboundary,
    cocycle_from_code,
    elementary_abelian,
    is_orthogonal,
    lift,
    matrix_of,
    multiplication_cocycle,
    tensor,
    trivial_cocycle,
)
from ghfp import cocycles
from ghfp.errors import (
    CocycleIdentityViolated,
    DivisibilityViolated,
    FieldMismatch,
    NotAssociative,
    NotNormalized,
)
from ghfp.fileio import read_cay, write_cay
from ghfp.ghmatrix import gen_sylvester_cocycle, is_gh, sylvester_power_cocycle
from ghfp.planar import planar_coboundary

import paper_data
from test_groups import order_of, relabel, s3_table


def test_published_order9_matrix_is_a_cocycle(gf3):
    psi = check_cocycle(paper_data.H_ORDER9, elementary_abelian(3, 2), gf3)
    assert (psi.table == paper_data.H_ORDER9).all()


def test_trivial_cocycle_valid(gf3):
    psi = trivial_cocycle(elementary_abelian(3, 2), gf3)
    assert check_cocycle(psi.table, psi.group, gf3)


def test_corrupted_entry_violates_identity(gf3):
    t = paper_data.H_ORDER9.copy()
    t[1, 1] = 2
    with pytest.raises(CocycleIdentityViolated) as exc:
        check_cocycle(t, elementary_abelian(3, 2), gf3)
    assert len(exc.value.triple) == 3


def identity_violations(table, group, field):
    """Brute-force oracle: the v x v x v mask of triples (g, h, k) with
    psi(g,h) + psi(gh,k) != psi(g,hk) + psi(h,k)."""
    t, gt, f = np.asarray(table), group.table, field
    return np.array([f.vadd(t[g][:, None], t[gt[g], :])
                     != f.vadd(t[g][gt], t) for g in range(group.order)])


def small_cocycles(gf3, gf4, gf8):
    return [
        multiplication_cocycle(gf8, "primitive-power"),  # order 8, q = 8
        check_cocycle(paper_data.H_ORDER9, elementary_abelian(3, 2), gf3),
        sylvester_power_cocycle(gf4, 2),  # order 16, q = 4
    ]


def agreement_counts(tables, group, field):
    """Run the generator-set check and the oracle on every table; assert
    they agree and that every witness is a violation.  Returns the number
    of accepted and rejected tables."""
    seen = {True: 0, False: 0}
    for t in tables:
        bad = identity_violations(t, group, field)
        try:
            check_cocycle(t, group, field)
            accepted = True
        except CocycleIdentityViolated as exc:
            accepted = False
            assert bad[exc.triple]
        assert accepted == (not bad.any())
        seen[accepted] += 1
    return seen


def test_generator_check_matches_oracle(gf3, gf4, gf8):
    """Every single-entry corruption of the order-8, 9 and 16 cocycles, and
    valid coboundary perturbations of them."""
    for psi in small_cocycles(gf3, gf4, gf8):
        f, g, v, q = psi.field, psi.group, psi.v, psi.q
        tables = []
        for r in range(1, v):
            for c in range(1, v):
                for d in range(1, q):
                    t = psi.table.copy()
                    t[r, c] = f.add(int(t[r, c]), d)
                    tables.append(t)
        for x in range(1, v):
            phi = np.zeros(v, dtype=np.int64)
            phi[x] = 1 + x % (q - 1)
            tables.append(f.vadd(psi.table, coboundary(phi, g, f).table))
        seen = agreement_counts(tables, g, f)
        assert seen[True] == v - 1 and seen[False] == len(tables) - v + 1


def test_generator_check_matches_oracle_exhaustive(gf3):
    """Every normalized GF(2) table over Z_2^2, and every normalized GF(3)
    table over Z_3 summed with S_3 in each tensor position over Z_3^2.  A
    single changed entry is seen at every g; these tables can fail at one
    generator and pass at the others."""
    gf2 = Field(2, 1)
    tables = []
    for bits in range(2 ** 9):
        t = np.zeros((4, 4), dtype=np.int64)
        t[1:, 1:] = np.array([(bits >> i) & 1 for i in range(9)]).reshape(3, 3)
        tables.append(t)
    seen = agreement_counts(tables, elementary_abelian(2, 2), gf2)
    assert seen[True] and seen[False]
    s3 = multiplication_cocycle(gf3).table
    tables = []
    for code in range(3 ** 4):
        b = np.zeros((3, 3), dtype=np.int64)
        b[1:, 1:] = np.array([code // 3 ** i % 3 for i in range(4)]).reshape(2, 2)
        for left, right in ((b, s3), (s3, b)):
            t = gf3.vadd(left[:, None, :, None], right[None, :, None, :])
            tables.append(t.reshape(9, 9))
    seen = agreement_counts(tables, elementary_abelian(3, 2), gf3)
    assert seen[True] and seen[False]


def test_corrupted_order729_cocycle_gives_true_witness():
    psi = planar_coboundary(6, 5)
    f, gt, t = psi.field, psi.group.table, psi.table.copy()
    t[500, 300] = f.add(int(t[500, 300]), 1)
    with pytest.raises(CocycleIdentityViolated) as exc:
        check_cocycle(t, psi.group, f)
    g, h, k = exc.value.triple
    assert f.add(int(t[g, h]), int(t[gt[g, h], k])) != \
        f.add(int(t[g, gt[h, k]]), int(t[h, k]))
    # the first failing (h, k) in row-major order at the first failing
    # generator, from one unblocked v x v comparison per generator
    for g in psi.group.generators():
        bad = np.argwhere(f.vadd(t[g][:, None], t[gt[g]]) !=
                          f.vadd(t[g][gt], t))
        if bad.size:
            break
    assert exc.value.triple == (g, *map(int, bad[0]))


def _broken_off_the_first_generator(psi, d):
    """psi plus d at every (x, y) with x in coset A and y in coset B of N,
    the subgroup the first generator g0 generates (G abelian), for the two
    last cosets A != B.  The added table is constant on cosets and zero on
    N, so the identity still holds at g0; on G/N it is one changed entry
    off the identity row and column, which is no cocycle once G/N has order
    at least 3, so a later generator fails."""
    f, gt = psi.field, psi.group.table
    g0 = psi.group.generators()[0]
    N = [0]
    while gt[N[-1], g0]:
        N.append(int(gt[N[-1], g0]))
    labels = gt[:, N].min(axis=1)
    A, B = np.unique(labels)[-2:]
    added = np.where((labels[:, None] == A) & (labels == B), d, 0)
    return f.vadd(psi.table, added)


@pytest.mark.parametrize("p,m,step", [(2, 2, 1), (2, 2, 3), (2, 4, 3),
                                      (7, 1, 2), (7, 1, 5), (5, 2, 4),
                                      (3, 6, 3), (3, 6, 40)])
def test_corrupted_cocycle_witness_in_a_later_block_and_generator(
        p, m, step, monkeypatch):
    """The packed identity check names the unblocked oracle's triple: the
    first failing (h, k) in row-major order at the first failing generator,
    from one v x v comparison of Field.vadd gathers per generator.  The
    tables fail first at a later generator, in a later row block: GF(4)
    over Z_2^4 (S_4 tensor S_4), GF(16) over Z_2^4, GF(7) over Z_7^2 (S_7
    tensor S_7), GF(25) over Z_5^2 and GF(3^6) over Z_3^6 (P(6,5)), with
    block_rows made small."""
    from ghfp import cocycles

    f = Field(p, m)
    if m == 6:
        psi = planar_coboundary(6, 5, field=f)
    elif f.q < 16:
        psi = tensor(multiplication_cocycle(f), multiplication_cocycle(f))
    else:
        psi = multiplication_cocycle(f)
    gt, gens = psi.group.table, psi.group.generators()
    t = _broken_off_the_first_generator(psi, 1)
    for g in gens:
        bad = np.argwhere(f.vadd(t[g][:, None], t[gt[g]]) !=
                          f.vadd(t[g][gt], t))
        if bad.size:
            break
    want = (g, *map(int, bad[0]))
    assert g != gens[0] and want[1] >= step
    monkeypatch.setattr(cocycles, "block_rows", lambda n: step)
    with pytest.raises(CocycleIdentityViolated) as exc:
        check_cocycle(t, psi.group, f)
    assert exc.value.triple == want
    g, h, k = want
    assert f.add(int(t[g, h]), int(t[gt[g, h], k])) != \
        f.add(int(t[g, gt[h, k]]), int(t[h, k]))


def test_unnormalized_rejected(gf3):
    t = paper_data.H_ORDER9.copy()
    t[0, 3] = 1
    with pytest.raises(NotNormalized):
        check_cocycle(t, elementary_abelian(3, 2), gf3)


def test_entries_outside_the_field_are_refused(gf3):
    """The full check refuses an entry below 0 or at least q before any
    gather: a gather by -1 reads the encoding q - 1, so the order-9 table
    with a 2 written as -1 passed the identity and held a verdict, and a 3
    raised a bare IndexError."""
    z9 = elementary_abelian(3, 2)
    for bad, old in [(-1, 2), (3, 0), (10 ** 6, 1)]:
        t = paper_data.H_ORDER9.copy()
        r, c = (int(x[0]) for x in np.nonzero(t[1:, 1:] == old))
        t[r + 1, c + 1] = bad
        with pytest.raises(FieldMismatch, match=f"entry {bad} is outside"):
            check_cocycle(t, z9, gf3)
        assert Cocycle(z9, gf3, t, check="skip").checked is False


def test_coboundary_of_zero_map_is_trivial(gf3):
    g = elementary_abelian(3, 2)
    psi = coboundary(np.zeros(9, dtype=np.int64), g, gf3)
    assert not psi.table.any()


def test_coboundary_is_cocycle_and_symmetric(gf81):
    rng = np.random.default_rng(3)
    g = elementary_abelian(3, 4)
    phi = rng.integers(0, 81, size=81)
    psi = coboundary(phi, g, gf81)
    check_cocycle(psi.table, g, gf81)
    assert (psi.table == psi.table.T).all()


def test_coboundary_normalizes_phi(gf3):
    g = elementary_abelian(3, 1)
    psi = coboundary(np.array([2, 1, 0]), g, gf3)
    assert not psi.table[0].any() and not psi.table[:, 0].any()


def test_planar_coboundary_is_orthogonal(dphi43):
    ok, witness = is_orthogonal(dphi43)
    assert ok and witness is None


def test_trivial_not_orthogonal(gf3):
    psi = trivial_cocycle(elementary_abelian(3, 1), gf3)
    ok, witness = is_orthogonal(psi)
    assert not ok
    assert witness == (1, 0, 3)


def test_s3_cocycle_orthogonal(s3_cocycle):
    # each nonzero row of the multiplication table permutes the field
    ok, _ = is_orthogonal(s3_cocycle)
    assert ok
    assert s3_cocycle.table.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]


def test_orthogonality_needs_divisibility(gf81, gf3):
    psi = trivial_cocycle(elementary_abelian(3, 1), gf81)
    with pytest.raises(DivisibilityViolated):
        is_orthogonal(psi)


def test_tensor_of_s3_with_itself_is_order9_example(s3_cocycle):
    t = tensor(s3_cocycle, s3_cocycle)
    assert (t.table == paper_data.H_ORDER9).all()


def test_tensor_identity_factor(s3_cocycle, gf3):
    from ghfp.groups import Group

    point = Group(np.zeros((1, 1), dtype=np.int64))
    t = tensor(trivial_cocycle(point, gf3), s3_cocycle)
    assert (t.table == s3_cocycle.table).all()


def test_tensor_orthogonality_law(corpus):
    """orthogonal(tensor) == orthogonal(left) and orthogonal(right)."""
    pairs = [
        ("trivial_z3", "s3"), ("s3", "s3"), ("s3", "s9"),
        ("trivial_z3", "trivial_z3"),
    ]
    for left, right in pairs:
        l, r = corpus[left], corpus[right]
        got, _ = is_orthogonal(tensor(l, r))
        want = is_orthogonal(l)[0] and is_orthogonal(r)[0]
        assert got == want, (left, right)


def test_tensor_field_mismatch(s3_cocycle, s8_cocycle):
    with pytest.raises(FieldMismatch):
        tensor(s3_cocycle, s8_cocycle)


def test_lift_keeps_table_changes_field(s3_cocycle, gf81):
    lifted = lift(s3_cocycle, gf81)
    assert lifted.field.q == 81
    assert (lifted.table == s3_cocycle.table).all()
    # v=3 < q=81 cannot even satisfy the divisibility precondition
    with pytest.raises(DivisibilityViolated):
        is_orthogonal(lifted)


def test_lift_requires_prime_subfield(s8_cocycle, gf81, s9_cocycle):
    with pytest.raises(FieldMismatch):
        lift(s8_cocycle, gf81)  # GF(8) is not the prime subfield of GF(81)


def test_tensor_associative_up_to_nothing(s3_cocycle):
    a = tensor(tensor(s3_cocycle, s3_cocycle), s3_cocycle)
    b = tensor(s3_cocycle, tensor(s3_cocycle, s3_cocycle))
    assert (a.table == b.table).all()
    assert (a.group.table == b.group.table).all()


def test_orthogonal_iff_gh_on_corpus(corpus):
    for name, psi in corpus.items():
        orth, _ = is_orthogonal(psi)
        gh, _ = is_gh(matrix_of(psi))
        assert orth == gh, name


def test_matrix_of_passthrough(s9_cocycle):
    m = matrix_of(s9_cocycle)
    assert (m.entries == s9_cocycle.table).all()
    assert m.group is s9_cocycle.group


def test_theorem_verdict_equals_the_full_check(tmp_path, monkeypatch,
                                               bench_recipes, corpus, loop5,
                                               non_cocycles, gf3):
    """Every construction that proves its identity records a verdict and
    runs no identity check: every cocycle the benchmark builds, coboundaries
    over S_3 (from its table, and read from a .cay), over a relabeled Z_3^3
    and over a product with S_3, the primitive-power S_8, a lift, a tensor
    with a coboundary, the trivial cocycle over S_3, D(2,2,2) and the psi^T
    of cocycle_from_code.  The full check then agrees on each, and on the
    corpus.  The "skip" tables (non_cocycles, a corrupted construction) are
    checked in full by GHMatrix.cocycle().  A coboundary and the zero
    cocycle over a loop get no verdict, and the loop is refused before any
    identity check, with its own NotAssociative."""
    calls = []
    real = Cocycle._check_identity

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Cocycle, "_check_identity", counting)
    rng = np.random.default_rng(11)
    recipes, build = bench_recipes
    s3 = Group(s3_table())
    write_cay(tmp_path / "s3.cay", s3)
    img = np.concatenate(([0], 1 + rng.permutation(26)))
    inv = np.argsort(img)
    relabeled = Group(img[elementary_abelian(3, 3).table[inv][:, inv]])
    cob_s3 = coboundary(rng.integers(0, 3, 6), s3, gf3)
    s9 = build(("power", 3, 1, 2))
    built = {str(recipe): build(recipe) for recipe in recipes}
    built.update({
        "coboundary over S_3": cob_s3,
        "coboundary over S_3 from .cay": coboundary(
            rng.integers(0, 3, 6), read_cay(tmp_path / "s3.cay"), gf3),
        "coboundary over relabeled Z_3^3": coboundary(
            rng.integers(0, 3, 27), relabeled, gf3),
        "coboundary over Z_3 x S_3": coboundary(
            rng.integers(0, 3, 18), elementary_abelian(3, 1).direct_product(s3),
            gf3),
        "S_8 primitive-power": multiplication_cocycle(Field(2, 3),
                                                      "primitive-power"),
        "S_3^2 lifted to GF(9)": lift(s9, Field(3, 2)),
        "coboundary over S_3 x S_9": tensor(cob_s3, s9),
        "trivial over S_3": trivial_cocycle(s3, gf3),
        "D(2,2,2)": gen_sylvester_cocycle(2, 2, 2),
        "psi^T over Z_3^2 op": cocycle_from_code(PropelinearCode(s9)),
    })
    assert calls == []
    for name, psi in {**built, **corpus}.items():
        assert psi.checked, name
        check_cocycle(psi.table, psi.group, psi.field)

    corrupted = built[str(("planar", 4, 3))].table.copy()
    corrupted[5, 7] = (corrupted[5, 7] + 1) % 3
    corrupted = Cocycle(elementary_abelian(3, 4), Field(3, 4), corrupted,
                        check="skip")
    for psi in [corrupted, *non_cocycles.values()]:
        assert not psi.checked
        calls.clear()
        M = matrix_of(psi)
        assert M.cocycle() is None and len(calls) == 1, psi
        with pytest.raises(CocycleIdentityViolated):
            check_cocycle(psi.table, psi.group, psi.field)

    loop, f5 = Group(loop5), Field(5, 1)
    for psi in (coboundary(np.arange(5), loop, f5), trivial_cocycle(loop, f5)):
        assert not psi.checked
        calls.clear()
        assert matrix_of(psi).cocycle() is None and calls == []
        with pytest.raises(NotAssociative) as err:
            check_cocycle(psi.table, loop, f5)
        assert err.value.triple == loop.associativity_failure()


def _identity_failures(t, gt) -> int:
    """The triples (g, h, k) that break the cocycle identity, counted by
    brute force over every g."""
    return int(np.count_nonzero(
        (t[:, :, None] + t[gt]) % 2
        != (t[:, gt] + t[None, :, :]) % 2))


@pytest.mark.parametrize("name, gh, rank", [
    ("L8", (False, (1, 2, 0, 6)), 6),
    ("L6", (False, (0, 1, 0, 4)), 5)], ids=["L8", "L6"])
def test_a_table_over_a_loop_is_refused_and_reads_as_bare(loop_tables, name,
                                                          gh, rank):
    """Each table keeps the identity at the loop's generator 1 but breaks
    it elsewhere (at 134 of the 512 triples of L8).  check_cocycle refuses
    the loop with its own NotAssociative, and a matrix over the loop holds
    no verdict, so is_gh, the rank and the distance are the bare matrix's,
    not the answers a verdict's shortcuts would give."""
    from ghfp.codes import GHCode
    from ghfp.ghmatrix import GHMatrix

    loop, table = loop_tables[name]
    group, f2 = Group(loop), Field(2, 1)
    Cocycle(group, f2, table, check="skip")._check_identity()
    assert _identity_failures(table, loop) == {"L8": 134, "L6": 48}[name]
    with pytest.raises(NotAssociative) as err:
        check_cocycle(table, group, f2)
    assert err.value.triple == group.associativity_failure() == (1, 1, 1)

    M, bare = GHMatrix(f2, table, group=group), GHMatrix(f2, table)
    assert M.cocycle() is None
    assert is_gh(M) == is_gh(bare) == gh
    assert GHCode(M).rank() == GHCode(bare).rank() == rank
    assert GHCode(M).min_distance() == GHCode(bare).min_distance() \
        == (2, "exhaustive")



# -- the identity on the Cayley tree ---------------------------------------------


def tree_verdict(table, group, field) -> bool:
    """cocycles._identity_on_tree called directly, at any order."""
    lanes = field._lanes
    t = lanes.pack.take(np.asarray(table, dtype=np.int64))
    return cocycles._identity_on_tree(lanes, t, group.table,
                                      group.cayley_tree())


def scan_witness(table, group, field):
    """The generator scan's first failing triple, or None."""
    lanes = field._lanes
    t = lanes.pack.take(np.asarray(table, dtype=np.int64))
    return cocycles._identity_scan(lanes, t, group.table, group.generators())


def tree_positions(group) -> np.ndarray:
    order, _ = group.cayley_tree()
    return np.arange(group.order) if order is None else order


def tree_edges_hold(table, group, field) -> bool:
    """The identity at (s, h', k) on every tree edge h = s h', one edge at
    a time with Field.vadd: the tree check without its relators."""
    f, gt, t, pos = field, group.table, np.asarray(table), tree_positions(group)
    return all((f.vadd(t[s, pos[i - n]], t[pos[i]])
                == f.vadd(t[s][gt[pos[i - n]]], t[pos[i - n]])).all()
               for s, o, n in group.cayley_tree()[1]
               for i in range(n, o * n))


def propagate(rows, group, field) -> np.ndarray:
    """The table with generator rows rows[s] whose other rows follow from
    the identity on the tree edges h = s h': psi(h, k) = psi(s, h'k) +
    psi(h', k) - psi(s, h').  It passes every tree edge; it is a cocycle
    exactly when the relators close."""
    f, gt, v, pos = field, group.table, group.order, tree_positions(group)
    t = np.zeros((v, v), dtype=np.int64)
    for s, o, n in group.cayley_tree()[1]:
        t[s] = rows[s]
        for i in range(n + 1, o * n):
            h, hp = pos[i], pos[i - n]
            t[h] = f.vsub(f.vadd(t[s][gt[hp]], t[hp]), t[s, hp])
    return t


@pytest.fixture
def tree_calls(monkeypatch):
    """Calls to the tree check from now on, with the crossover at 0 so that
    every order with a Cayley tree takes it first."""
    calls = []
    real = cocycles._identity_on_tree

    def counting(*args):
        calls.append(len(args[1]))
        return real(*args)

    monkeypatch.setattr(cocycles, "_identity_on_tree", counting)
    monkeypatch.setattr(cocycles, "MIN_TREE_WORK", 0)
    return calls


def cyclic(n: int) -> Group:
    a = np.arange(n)
    return Group((a[:, None] + a[None, :]) % n)


def relabeled_group(group: Group, rng):
    """group relabeled at random with 0 fixed, and the map from new labels
    to old, which relabels a table over it as table[inv][:, inv]."""
    img = np.concatenate(([0], 1 + rng.permutation(group.order - 1)))
    return relabel(group, Perm(img)), np.argsort(img)


def tree_cases(corpus):
    """(name, group, field, valid tables) for the tree oracles: the corpus;
    lexicographic and relabeled Z_p^k with coboundaries and multiplication
    cocycles; cyclic Z_n with coboundaries and the carry cocycle
    [a + b >= n], no coboundary when p | n; and the point."""
    rng = np.random.default_rng(29)
    cases = [(name, psi.group, psi.field, [psi.table])
             for name, psi in corpus.items()]
    for p, k in [(2, 4), (3, 3), (5, 2)]:
        f = Field(p, k)
        mult = multiplication_cocycle(f)
        group, inv = relabeled_group(mult.group, rng)
        for g, table in [(mult.group, mult.table),
                         (group, mult.table[inv][:, inv])]:
            tables = [table] + [coboundary(rng.integers(0, f.q, g.order), g,
                                           f).table for _ in range(2)]
            cases.append((f"Z_{p}^{k}", g, f, tables))
    for n, p in [(9, 3), (8, 2), (6, 3), (5, 5)]:
        f, a = Field(p, 1), np.arange(n)
        carry = (a[:, None] + a[None, :] >= n).astype(np.int64)
        cob = coboundary(rng.integers(0, p, n), cyclic(n), f).table
        cases.append((f"Z_{n}", cyclic(n), f, [carry, cob]))
    point = Group(np.zeros((1, 1), dtype=np.int64))
    cases.append(("point", point, Field(3, 1), [np.zeros((1, 1), np.int64)]))
    return cases


def test_cayley_tree_spans_the_group(bench_recipes, corpus):
    """Every benchmark group and corpus group has a Cayley tree, in index
    order (order None) for every construction, and the tree lists each
    element once and hangs each from its parent by its level's generator.
    S_3 (not abelian) and Z_4 x Z_2 labeled so that the greedy generators
    are dependent (orders 2, 4, 2) report none."""
    recipes, build = bench_recipes
    groups = [build(r).group for r in recipes]
    assert all(g.cayley_tree()[0] is None for g in groups)
    rng = np.random.default_rng(3)
    groups += [psi.group for psi in corpus.values()]
    groups += [relabeled_group(elementary_abelian(3, 3), rng)[0], cyclic(12),
               Group(np.zeros((1, 1), dtype=np.int64))]
    for g in groups:
        pos = tree_positions(g)
        assert sorted(pos.tolist()) == list(range(g.order))
        levels = g.cayley_tree()[1]
        assert [s for s, _, _ in levels] == g.generators()
        assert int(np.prod([o for _, o, _ in levels])) == g.order
        for s, o, n in levels:
            assert (g.table[s, pos[:(o - 1) * n]] == pos[n:o * n]).all()
    assert cyclic(12).cayley_tree() == (None, ((1, 12, 1),))
    assert Group(s3_table()).cayley_tree() is None
    assert Group(s3_table()).opposite().cayley_tree() is None
    z4z2 = z4_times_z2_with_dependent_generators()
    assert [order_of(z4z2, s) for s in z4z2.generators()] == [2, 4, 2]
    assert z4z2.cayley_tree() is None


def z4_times_z2_with_dependent_generators() -> Group:
    """Z_4 x Z_2 listing (2, 0) before (1, 0): the greedy search takes
    (2, 0), then (1, 0), whose square it is, then an element of order 2."""
    elems = [(0, 0), (2, 0), (1, 0), (3, 0), (0, 1), (1, 1), (2, 1), (3, 1)]
    index = {e: i for i, e in enumerate(elems)}
    return Group([[index[((a + c) % 4, (b + d) % 2)] for c, d in elems]
                  for a, b in elems])


def test_tree_verdict_matches_the_scan_and_every_triple(corpus, tree_calls):
    """On valid tables the tree check, the generator scan and, for v <= 27,
    all v^3 triples agree; every single-entry corruption (of every entry
    off row and column 0 of each case's first table for v <= 27, of 20 at
    random otherwise) fails the tree check, and check_cocycle, taking the
    tree first, raises the scan's triple, a true violation."""
    rng = np.random.default_rng(5)
    for name, group, f, tables in tree_cases(corpus):
        v, q = group.order, f.q
        for i, table in enumerate(tables):
            assert tree_verdict(table, group, f), name
            assert scan_witness(table, group, f) is None, name
            if v <= 27:
                assert not identity_violations(table, group, f).any(), name
            tree_calls.clear()
            check_cocycle(table, group, f)
            assert tree_calls == ([v] if v > 1 else []), name
            cells = [(r, c) for r in range(1, v) for c in range(1, v)]
            if v > 27 or i:
                cells = [cells[j] for j in rng.choice(len(cells), 20)]
            for r, c in cells:
                t = table.copy()
                t[r, c] = f.add(int(t[r, c]), 1 + (r + c) % (q - 1))
                assert not tree_verdict(t, group, f), (name, r, c)
                g, h, k = want = scan_witness(t, group, f)
                gt = group.table
                assert f.add(int(t[g, h]), int(t[gt[g, h], k])) != \
                    f.add(int(t[g, gt[h, k]]), int(t[h, k])), (name, r, c)
                with pytest.raises(CocycleIdentityViolated) as exc:
                    check_cocycle(t, group, f)
                assert exc.value.triple == want, (name, r, c)


def test_tables_that_pass_every_tree_edge_but_break_a_relator(tree_calls):
    """A generator row with one entry changed, the other rows propagated
    along the tree: every tree edge holds, so only the relators can see it
    (the identity fails, by all v^3 triples).  Generator rows taken from
    two different cocycles keep each power relator and break a commutator.
    Over lexicographic and relabeled Z_p^k the tree check refuses both
    kinds, and check_cocycle raises the scan's triple.  Over Z_2 x Z_3 and
    GF(3), row psi(s, x) = the Z_3 coordinate of x for s of order 2, and
    zero rows elsewhere, keep the commutator (constant 1) and break the
    power relator of s, the one F_s a field of characteristic 3 checks:
    over a p-group of characteristic p the commutators imply them.
    Over a cyclic group, whose one relator sums a whole row, the
    propagated table is a cocycle, which the tree accepts."""
    rng = np.random.default_rng(7)
    for p, k in [(2, 4), (3, 2), (3, 3), (5, 2)]:
        f = Field(p, 1)
        lex = elementary_abelian(p, k)
        for group in (lex, relabeled_group(lex, rng)[0]):
            v, gens = group.order, group.generators()
            psi = coboundary(rng.integers(0, p, v), group, f).table
            assert (propagate(psi, group, f) == psi).all()
            broken = []
            for s in gens:
                rows = psi.copy()
                x = int(rng.integers(1, v))
                rows[s, x] = f.add(int(rows[s, x]), 1)
                broken.append(propagate(rows, group, f))
            mixed = psi.copy()
            while not identity_violations(mixed, group, f).any():
                # a random mix is a cocycle by chance at times; redraw
                other = coboundary(rng.integers(0, p, v), group, f).table
                mixed[gens[0]] = other[gens[0]]
                mixed = propagate(mixed, group, f)
            broken.append(mixed)
            for t in broken:
                assert tree_edges_hold(t, group, f)
                assert identity_violations(t, group, f).any()
                assert not tree_verdict(t, group, f)
                with pytest.raises(CocycleIdentityViolated) as exc:
                    check_cocycle(t, group, f)
                assert exc.value.triple == scan_witness(t, group, f)
            # the mixed table keeps every power relator: F_s is constant
            gt = group.table
            for s in gens:
                F, y = mixed[s] * 0, np.arange(v)
                for _ in range(p):
                    F, y = f.vadd(F, mixed[s][y]), gt[s][y]
                assert (F == F[0]).all()
    gf3, z6 = Field(3, 1), elementary_abelian(2, 1).direct_product(
        elementary_abelian(3, 1))
    assert z6.cayley_tree() == (None, ((1, 3, 1), (3, 2, 3)))
    rows = np.zeros((6, 6), dtype=np.int64)
    rows[3] = np.arange(6) % 3  # the Z_3 coordinate of x, at index 3x' + x
    table, gt = propagate(rows, z6, gf3), z6.table
    C = gf3.vsub(gf3.vadd(table[1], table[3][gt[1]]),
                 gf3.vadd(table[3], table[1][gt[3]]))
    assert (C == 1).all()
    assert tree_edges_hold(table, z6, gf3)
    assert identity_violations(table, z6, gf3).any()
    assert not tree_verdict(table, z6, gf3)
    with pytest.raises(CocycleIdentityViolated) as exc:
        check_cocycle(table, z6, gf3)
    assert exc.value.triple == scan_witness(table, z6, gf3)
    for n, p in [(9, 3), (8, 2)]:
        f, z = Field(p, 1), cyclic(n)
        rows = np.zeros((n, n), dtype=np.int64)
        rows[1, 1:] = rng.integers(0, p, n - 1)
        t = propagate(rows, z, f)
        assert tree_verdict(t, z, f)
        assert not identity_violations(t, z, f).any()


def test_groups_without_a_tree_keep_the_scan(tree_calls, gf3):
    """S_3 and Z_4 x Z_2 with dependent greedy generators have no Cayley
    tree, so check_cocycle scans even with the crossover at 0, and its
    verdicts and witnesses agree with all v^3 triples."""
    rng = np.random.default_rng(2)
    for group in (Group(s3_table()), z4_times_z2_with_dependent_generators()):
        v = group.order
        f = gf3 if v == 6 else Field(2, 1)
        psi = coboundary(rng.integers(0, f.q, v), group, f)
        check_cocycle(psi.table, group, f)
        t = psi.table.copy()
        t[2, 3] = f.add(int(t[2, 3]), 1)
        with pytest.raises(CocycleIdentityViolated) as exc:
            check_cocycle(t, group, f)
        assert identity_violations(t, group, f)[exc.value.triple]
        assert tree_calls == []


def test_the_crossover_sends_p43_to_the_scan_and_p53_to_the_tree(
        monkeypatch, bench_recipes):
    """No timing: the tree check runs for P(5,3) (v = 243, five
    generators) and not for P(4,3) (v = 81, four), nor for any structure
    kind, each over the fresh group its construction builds."""
    import workloads

    calls = []
    real = cocycles._identity_on_tree
    monkeypatch.setattr(cocycles, "_identity_on_tree",
                        lambda *args: calls.append(len(args[1])) or real(*args))
    _, build = bench_recipes
    for recipe, want in [(("planar", 4, 3), []), (("planar", 5, 3), [243])]:
        psi = build(recipe)
        calls.clear()
        check_cocycle(psi.table, psi.group, psi.field)
        assert calls == want, recipe
    calls.clear()
    for recipe in workloads.Structure.KINDS:
        psi = build(recipe)
        check_cocycle(psi.table, psi.group, psi.field)
    assert calls == []


@pytest.mark.slow
def test_relabeled_planar_coboundary_at_a7_takes_the_tree(monkeypatch):
    """Table-1 scale: P(7,3) (v = 2187) over a randomly relabeled Z_3^7,
    whose tree rows are gathers.  check_cocycle takes the tree on the valid
    table and on one with an entry changed; the tree agrees with the scan
    on both, and the corrupted table raises the scan's triple, the one
    check_cocycle raised before the tree."""
    verdicts = []
    real = cocycles._identity_on_tree
    monkeypatch.setattr(cocycles, "_identity_on_tree",
                        lambda *args: verdicts.append(real(*args))
                        or verdicts[-1])
    psi = planar_coboundary(7, 3)
    f = psi.field
    group, inv = relabeled_group(psi.group, np.random.default_rng(7))
    table = psi.table[inv][:, inv]
    assert group.cayley_tree()[0] is not None
    assert tree_verdict(table, group, f)
    assert scan_witness(table, group, f) is None
    check_cocycle(table, group, f)
    table[1500, 700] = f.add(int(table[1500, 700]), 1)
    assert not tree_verdict(table, group, f)
    want = scan_witness(table, group, f)
    with pytest.raises(CocycleIdentityViolated) as exc:
        check_cocycle(table, group, f)
    assert exc.value.triple == want
    assert verdicts == [True, True, False, False]
    g, h, k = want
    gt = group.table
    assert f.add(int(table[g, h]), int(table[gt[g, h], k])) != \
        f.add(int(table[g, gt[h, k]]), int(table[h, k]))
