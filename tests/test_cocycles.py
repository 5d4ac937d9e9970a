import numpy as np
import pytest

from ghfp import (
    Cocycle,
    Field,
    Group,
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
from test_groups import s3_table


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

