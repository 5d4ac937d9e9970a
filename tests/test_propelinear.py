import numpy as np
import pytest

from ghfp import (
    Cocycle,
    Field,
    GHCode,
    GHMatrix,
    PropelinearCode,
    check_cocycle,
    cocycle_from_code,
    fh_intersection_profile,
    lift,
    regular_subgroup_check,
    tensor,
    trivial_cocycle,
    verify_full_propelinear,
)
from ghfp.cocycles import is_orthogonal
from ghfp.errors import CocycleIdentityViolated, NotACodeword, NotAGroup, \
    NotAssociative, NotNormalized, NotOrthogonal
from ghfp.ghmatrix import sylvester_power_cocycle
from ghfp.groups import Group

import paper_data


def oplus(field, a, b) -> np.ndarray:
    """Row combination (a_1+b_1,...,a_1+b_v',a_2+b_1,...): the Kronecker-sum
    coordinate pattern for vectors."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    return field.vadd(a[:, None], b[None, :]).reshape(a.shape[0] * b.shape[0])


def star(P, x, y) -> np.ndarray:
    """x * y = x + pi_x(y) in P; y may be any length-v vector."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    return P.field.vadd(x, y[P.group.table[P.row_of(x)]])


def bare(psi) -> PropelinearCode:
    """psi's code with PropelinearCode's checks left out, for the tables it
    refuses.  encode, decode, row_of and star_oracle read only the table,
    the group and the code, and so do the scan oracles below."""
    P = object.__new__(PropelinearCode)
    P.psi, P.group, P.field, P.H = psi, psi.group, psi.field, psi.table
    P.v, P.q = psi.v, psi.field.q
    P.code = GHCode(GHMatrix(psi.field, psi.table))
    return P


def star_oracle(P, x, y) -> np.ndarray:
    """Test oracle of star: decode, multiply in the extension group,
    encode."""
    ku, gu = P.decode(x)
    kw, gw = P.decode(y)
    k = P.field.add(P.field.add(ku, kw), int(P.psi.table[gu, gw]))
    return P.encode(k, int(P.group.table[gu, gw]))


def searched_row_products(P):
    """Test oracle of PropelinearCode.row_products: f_rho * f_r located by
    one GHCode.index call per rho, so f_rho * f_r = offsets[rho, r]*1 +
    f_{rows[rho, r]}, or rows[rho, r] is -1 when the product is not in C."""
    f, gt, v = P.field, P.group.table, P.v
    rows = np.empty((v, v), dtype=np.int64)
    offsets = np.empty((v, v), dtype=np.int64)
    for rho in range(v):
        # row r of the batch is f_rho + pi-gather of f_r
        rows[rho], offsets[rho] = P.code.index(
            f.vadd(P.H[rho][None, :], P.H[:, gt[rho]]))
    return rows, offsets


def kronecker_propelinear(P1, P2) -> PropelinearCode:
    """The GHFP structure on C_{H1 (+) H2}, through the tensor cocycle
    (tensor raises FieldMismatch for two fields).  Blockwise, pi_{a(+)b}
    acts as pi_a on block positions and pi_b inside blocks, and
    (a(+)b) * (x(+)y) = (a*x)(+)(b*y); the tests below check both."""
    return PropelinearCode(tensor(P1.psi, P2.psi))


@pytest.fixture(scope="module")
def p4(order4_cocycle):
    return PropelinearCode(order4_cocycle)


@pytest.fixture(scope="module")
def p9(s9_cocycle):
    return PropelinearCode(s9_cocycle)


@pytest.fixture(scope="module")
def p8(s8_cocycle):
    return PropelinearCode(s8_cocycle)


@pytest.fixture(scope="module")
def p81(dphi43):
    return PropelinearCode(dphi43)


def test_not_orthogonal_rejected(gf3):
    from ghfp.groups import elementary_abelian

    with pytest.raises(NotOrthogonal):
        PropelinearCode(trivial_cocycle(elementary_abelian(3, 1), gf3))


def test_pi_tables_match_published_listings(p4, p9, p8):
    assert p4.pi_table_strings() == paper_data.PI_ORDER4
    assert p9.pi_table_strings() == paper_data.PI_ORDER9
    assert p8.pi_table_strings() == paper_data.PI_ORDER8


def test_trivial_one_point_group(gf3):
    point = Group(np.zeros((1, 1), dtype=np.int64))
    P = PropelinearCode(trivial_cocycle(point, gf3))
    assert len(P.code) == 3
    assert P.pi_table_strings() == ["I"]


def test_star_identity_and_translation(p9):
    zero = np.zeros(9, dtype=np.int64)
    rng = np.random.default_rng(0)
    y = rng.integers(0, 3, size=9)
    assert (star(p9, zero, y) == y).all()
    for lam in range(3):
        c = np.full(9, lam, dtype=np.int64)
        assert (star(p9, c, y) == p9.field.vadd(y, c)).all()


def test_star_requires_codeword(p9):
    with pytest.raises(NotACodeword):
        star(p9, np.array([0, 1, 0, 0, 0, 0, 0, 0, 0]), np.zeros(9, dtype=np.int64))


def test_star_matches_oracle_exhaustive(p4, p9, p8):
    for P in (p4, p9, p8):
        words = P.code.words()
        for x in words:
            for y in words:
                assert (star(P, x, y) == star_oracle(P, x, y)).all()


def test_star_matches_oracle_sampled_planar(p81):
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = p81.encode(int(rng.integers(0, 81)), int(rng.integers(0, 81)))
        y = p81.encode(int(rng.integers(0, 81)), int(rng.integers(0, 81)))
        assert (star(p81, x, y) == star_oracle(p81, x, y)).all()


def test_encode_decode_roundtrip(p9, p81):
    for P in (p9, p81):
        rng = np.random.default_rng(2)
        for _ in range(50):
            k, g = int(rng.integers(0, P.q)), int(rng.integers(0, P.v))
            assert P.decode(P.encode(k, g)) == (k, g)


def test_codewords_equal_code_of_matrix(p9):
    words = {w.tobytes() for w in p9.code.words()}
    set_from_encode = {p9.encode(k, g).tobytes()
                       for k in range(3) for g in range(9)}
    assert words == set_from_encode


def test_distance_preservation_random(p9):
    rng = np.random.default_rng(3)
    for _ in range(100):
        x = p9.encode(int(rng.integers(0, 3)), int(rng.integers(0, 9)))
        u = rng.integers(0, 3, size=9)
        w = rng.integers(0, 3, size=9)
        assert int((star(p9, x, u) != star(p9, x, w)).sum()) == int((u != w).sum())


def test_verify_full_propelinear_all_pass(p4, p9, p8, p81):
    for P in (p4, p9, p8, p81):
        report = verify_full_propelinear(P)
        failed = {k: w for k, (ok, w) in report.items() if not ok}
        assert not failed


def _over_table(psi, table) -> Cocycle:
    """psi's table, unchecked, over the (possibly corrupted) group table."""
    return Cocycle(Group(table, check=False), psi.field, psi.table,
                   check="skip")


def _corrupted_tables(gf3):
    """The two corruptions of S_3^2's group table: row 1 replaced by the
    identity row, and two entries repeated within rows 4 and 6."""
    gt = sylvester_power_cocycle(gf3, 2).group.table
    fixed, repeated = gt.copy(), gt.copy()
    fixed[1] = np.arange(9)
    repeated[4, 2] = repeated[4, 5]  # breaks row 4 and column 2
    repeated[6, 1] = repeated[6, 3]  # breaks row 6 and column 1
    return {"fixed point": fixed, "repeated entries": repeated}


def test_fullness_witness_on_corruption(gf3):
    """Replacing row 1 of S_3^2's group table by the identity row leaves a
    table that is no group, which PropelinearCode refuses.  On the bare
    code the scan oracle names a fixed point and a row pair that breaks
    axiom (ii), and both are real."""
    psi = sylvester_power_cocycle(gf3, 2)
    assert verify_full_propelinear(PropelinearCode(psi))["fullness"][0]
    skip = _over_table(psi, _corrupted_tables(gf3)["fixed point"])
    with pytest.raises(NotAGroup):
        PropelinearCode(skip)
    P = bare(skip)
    gt = P.group.table
    report = verify_oracle(P)
    ok, (_, g) = report["fullness"]
    assert not ok and g > 0 and (gt[g] == np.arange(P.v)).any()
    ok, (_, rho, r) = report["axiom_ii_homomorphism"]
    xy = star(P, P.H[rho], P.H[r])
    assert not ok
    assert not P.code.contains(xy) or (gt[P.row_of(xy)]
                                       != gt[r][gt[rho]]).any()


def test_pi_homomorphism_exhaustive(p9):
    gt = p9.group.table
    for g in range(9):
        for h in range(9):
            assert (gt[g][gt[h]] == gt[gt[g, h]]).all()


def test_group_structures_published(p4, p9, p8, p81):
    assert p4.group_invariants() == paper_data.GROUP_ORDER4
    assert p4.pi_group_invariants() == paper_data.PI_GROUP_ORDER4
    assert p9.group_invariants() == paper_data.GROUP_ORDER9
    assert p9.pi_group_invariants() == paper_data.PI_GROUP_ORDER9
    assert p8.group_invariants() == paper_data.GROUP_ORDER8
    assert p8.pi_group_invariants() == paper_data.PI_GROUP_ORDER8
    assert p81.group_invariants() == paper_data.GROUP_PLANAR_4_3
    assert p81.pi_group_invariants() == paper_data.PI_GROUP_PLANAR_4_3


def test_star_group_matches_extension_group(p4, p9):
    """Build the Cayley table of (C, star) explicitly and compare its
    abelian invariants with the extension-group computation."""
    from ghfp.groups import abelian_invariants

    for P in (p4, p9):
        words = P.code.words()
        index = {w.tobytes(): i for i, w in enumerate(words)}
        zero_idx = index[np.zeros(P.v, dtype=np.int64).tobytes()]
        n = len(words)
        table = np.empty((n, n), dtype=np.int64)
        for i, x in enumerate(words):
            for j, y in enumerate(words):
                table[i, j] = index[star(P, x, y).tobytes()]
        # swap labels so the zero word becomes index 0 (swap is an involution)
        sigma = np.arange(n)
        sigma[[0, zero_idx]] = sigma[[zero_idx, 0]]
        g = Group(sigma[table[sigma][:, sigma]])
        g.check_associativity()
        assert abelian_invariants(g) == P.group_invariants()


def test_regular_subgroup(p4, p9, p8):
    assert regular_subgroup_check(p4)
    assert regular_subgroup_check(p9)
    assert regular_subgroup_check(p8)


def star_table_is_group(P) -> bool:
    """Test oracle: tabulate the (qv)^2 star table on the labels of
    P.code.words() (the zero word is label 0) and check it is a group."""
    words = P.code.words()
    label = {w.tobytes(): i for i, w in enumerate(words)}
    table = np.empty((len(words), len(words)), dtype=np.int64)
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            k = label.get(star(P, x, y).tobytes())
            if k is None:
                return False
            table[i, j] = k
    try:
        Group(table).check_associativity()
    except NotAGroup:
        return False
    return True


def star_group_witness(field, rows, offsets):
    """Test oracle of the rule regular_subgroup_check proves: None when the
    star table that the row products (rows, offsets) give is a group
    table, else what fails.  The first product outside C, then a fresh
    Group(rows), its associativity, and the identity of the offsets in
    full."""
    bad = np.argwhere(rows < 0)
    if bad.size:
        return ("x*f not in C", *map(int, bad[0]))
    try:
        Cocycle(Group(np.array(rows)), field, offsets)
    except NotAssociative as e:
        return ("associativity", *e.triple)
    except CocycleIdentityViolated as e:
        return ("cocycle identity", *e.triple)
    except (NotAGroup, NotNormalized) as e:
        return ("not a group", str(e))
    return None


def test_regular_subgroup_matches_star_table_oracle(p4, p8, p9, non_cocycles):
    """regular_subgroup_check against the tabulated star table on four
    codes, and the rule its proof rests on, star_group_witness of the
    searched row products, against the same table on the bare codes of
    the non-cocycles."""
    s16 = PropelinearCode(sylvester_power_cocycle(Field(2, 1), 4))
    for name, P in {"p4": p4, "p8": p8, "p9": p9, "s2^4": s16}.items():
        assert regular_subgroup_check(P) == star_table_is_group(P), name
    for name, psi in non_cocycles.items():
        P = bare(psi)
        assert ((star_group_witness(P.field, *searched_row_products(P))
                 is None) == star_table_is_group(P)), name


def test_regular_subgroup_rejects_non_cocycles(non_cocycles):
    """Star leaves C_H, or C_H is closed but its star table is no group: no
    non-cocycle's code is regular, and PropelinearCode refuses each."""
    for name, psi in non_cocycles.items():
        assert not star_table_is_group(bare(psi)), name
        with pytest.raises(CocycleIdentityViolated):
            PropelinearCode(psi)


def _breaks_identity(psi, triple) -> bool:
    """Whether psi(g,h) + psi(gh,k) != psi(g,hk) + psi(h,k) at the triple."""
    g, h, k = triple
    f, t, gt = psi.field, psi.table, psi.group.table
    return (f.add(int(t[g, h]), int(t[gt[g, h], k]))
            != f.add(int(t[g, gt[h, k]]), int(t[h, k])))


def test_non_cocycles_are_refused_with_the_identity_witness(non_cocycles):
    """PropelinearCode refuses each non-cocycle with a triple at which the
    identity really fails, and the scan oracle fails each bare code, with
    the axiom (i) witness that brute force finds.  gf2_over_z4 is closed
    under star over the group Z_4, yet pi_{x*y} != pi_x pi_y at 6 of its 16
    row pairs: axiom (ii) does not follow from G's associativity alone."""
    for name, psi in non_cocycles.items():
        with pytest.raises(CocycleIdentityViolated) as refused:
            PropelinearCode(psi)
        assert _breaks_identity(psi, refused.value.triple), name
        P = bare(psi)
        H, v = P.H, P.v
        report = verify_oracle(P)
        bad = next(((rho, j) for rho in range(v) for j in range(v)
                    if not P.code.contains(star(P, H[rho], H[j]))), None)
        want = (True, None) if bad is None else (False, ("x*f not in C", *bad))
        assert report["axiom_i_preserves_code"] == want, name
        assert not report["group_axioms"][0], name
    P = bare(non_cocycles["gf2_over_z4"])
    gt = P.group.table
    broken = [(rho, r) for rho in range(4) for r in range(4)
              if (gt[P.row_of(star(P, P.H[rho], P.H[r]))]
                  != gt[r][gt[rho]]).any()]
    assert len(broken) == 6 and broken[0] == (1, 1)
    assert verify_oracle(P)["axiom_ii_homomorphism"] == (
        False, ("pi_{x*y} != pi_x pi_y", 1, 1))


def test_random_orthogonal_tables_are_refused(gf3):
    """50 seeded random normalized orthogonal tables at v = 9, q = 3, over
    Z_3^2 and over Z_9: PropelinearCode refuses each, and the triple it
    names really breaks the identity."""
    from ghfp import elementary_abelian

    a = np.arange(9)
    groups = [elementary_abelian(3, 2), Group((a[:, None] + a) % 9)]
    rng = np.random.default_rng(11)
    rest = np.repeat(np.arange(3), 3)[1:]  # each value 3 times per row
    for n in range(50):
        t = np.zeros((9, 9), dtype=np.int64)
        for i in range(1, 9):
            t[i, 1:] = rng.permutation(rest)
        psi = Cocycle(groups[n % 2], gf3, t, check="skip")
        assert is_orthogonal(psi)[0]
        with pytest.raises(CocycleIdentityViolated) as refused:
            PropelinearCode(psi)
        assert _breaks_identity(psi, refused.value.triple), n


def test_group_axioms_witness_is_a_failing_triple(gf3, loop5):
    """When the row products are a loop, or a group with constants that
    break the cocycle identity, the star-group oracle names a triple of
    rows whose star products associate wrongly."""
    P = PropelinearCode(sylvester_power_cocycle(gf3, 2))
    rows, offsets = P.row_products()
    offsets = offsets.copy()
    offsets[4, 5] = (offsets[4, 5] + 1) % 3
    kind, g, h, k = star_group_witness(gf3, rows, offsets)
    assert kind == "cocycle identity"
    lhs = offsets[g, h] + offsets[rows[g, h], k]
    rhs = offsets[h, k] + offsets[g, rows[h, k]]
    assert (lhs - rhs) % 3

    kind, g, h, k = star_group_witness(Field(5, 1), loop5,
                                       np.zeros_like(loop5))
    assert kind == "associativity"
    assert loop5[loop5[g, h], k] != loop5[g, loop5[h, k]]


def _spy_index(monkeypatch) -> list:
    """Record the batch size of every GHCode.index call from now on, apart
    from those of GHCode.row_of: the lookup of a codeword that the caller
    hands in, which decode and pair_for_codeword make of their input."""
    sizes, inside = [], []
    index, row_of = GHCode.index, GHCode.row_of

    def counted(self, words):
        if not inside:
            sizes.append(len(words))
        return index(self, words)

    def own_lookup(self, word):
        inside.append(word)
        try:
            return row_of(self, word)
        finally:
            inside.pop()

    monkeypatch.setattr(GHCode, "index", counted)
    monkeypatch.setattr(GHCode, "row_of", own_lookup)
    return sizes


def test_one_row_product_table_serves_every_check(corpus, bench_recipes,
                                                  monkeypatch):
    """No check searches the code: on every orthogonal corpus cocycle, and
    on the benchmark's tiny structure kinds relabeled as its jobs are
    (workloads.automorphic, with no verdict), neither building P nor any
    check on it calls GHCode.index, apart from pair_for_codeword's lookup
    of its own input."""
    import workloads
    from ghfp import automorphisms_from_star, pair_for_codeword

    _, build = bench_recipes
    cases = {name: psi for name, psi in corpus.items()
             if is_orthogonal(psi)[0]}
    for kind in workloads.Structure.TINY_KINDS:
        for seed in range(3):
            cases[kind, seed] = workloads.automorphic(
                np.random.default_rng(seed), build(kind))
            assert not cases[kind, seed].checked
    sizes = _spy_index(monkeypatch)
    for name, psi in cases.items():
        P = PropelinearCode(psi)
        P.row_products()
        verify_full_propelinear(P)
        cocycle_from_code(P)
        regular_subgroup_check(P)
        fh_intersection_profile(P)
        for x in P.code.words()[::max(1, P.v // 3)]:
            pair_for_codeword(P, x)
        automorphisms_from_star(P)
        automorphisms_from_star(P, sample=8)
        assert sizes == [], name


def test_theorem_table_equals_index_table(gf3, s9_cocycle, s8_cocycle, dphi43):
    """(gt^T, psi^T) is the table the index search finds, on lexicographic,
    primitive-power and relabeled (non-lexicographic) groups."""
    rng = np.random.default_rng(6)
    s3_4 = sylvester_power_cocycle(gf3, 4)
    img = np.concatenate(([0], 1 + rng.permutation(s3_4.v - 1)))
    inv = np.argsort(img)
    relabeled = check_cocycle(s3_4.table[inv][:, inv], Group(
        img[s3_4.group.table[inv][:, inv]], check=False), gf3)
    cases = {"s9": s9_cocycle, "s8": s8_cocycle, "s3^4": s3_4,
             "dphi43": dphi43, "s3^4 relabeled": relabeled}
    for name, psi in cases.items():
        P = PropelinearCode(psi)
        rows, offsets = P.row_products()
        assert (rows == psi.group.table.T).all(), name
        assert (offsets == psi.table.T).all(), name
        assert not (rows.flags.writeable or offsets.flags.writeable), name
        want_rows, want_offsets = searched_row_products(P)
        assert (rows == want_rows).all(), name
        assert (offsets == want_offsets).all(), name


def test_row_product_identity_on_s3_coboundaries(gf3):
    """f_rho * f_r = psi(r,rho)*1 + f_{r rho}, located by GHCode.index, for
    random coboundaries over the non-abelian S_3 whose rows are distinct."""
    from ghfp import coboundary, matrix_of
    from test_groups import s3_table

    rng = np.random.default_rng(7)
    s3 = Group(s3_table())
    gt, tried = s3.table, 0
    while tried < 6:
        psi = coboundary(rng.integers(0, 3, size=6), s3, gf3)
        if len(np.unique(psi.table, axis=0)) < 6:
            continue
        tried += 1
        code = GHCode(matrix_of(psi))
        for rho in range(6):
            rows, offsets = code.index(
                gf3.vadd(psi.table[rho][None, :], psi.table[:, gt[rho]]))
            assert (rows == gt[:, rho]).all()
            assert (offsets == psi.table[:, rho]).all()


def test_permutation_witnesses_name_first_bad_row_and_column(gf3):
    """With two entries of S_3^2's group table repeated, PropelinearCode
    refuses the table.  On the bare code the scan oracle's
    distance_compatibility names the first row of G's table that is no
    permutation, unit_vector_preimages the first such column; the named
    row really changes a distance, and the named column really collides."""
    skip = _over_table(sylvester_power_cocycle(gf3, 2),
                       _corrupted_tables(gf3)["repeated entries"])
    with pytest.raises(NotAGroup):
        PropelinearCode(skip)
    P = bare(skip)
    gt = P.group.table
    report = verify_oracle(P)
    assert report["distance_compatibility"] == (
        False, ("row not a permutation", 4))
    assert report["unit_vector_preimages"] == (
        False, ("collision across cosets", 1))
    missed = next(j for j in range(P.v) if j not in gt[4])
    e = np.eye(P.v, dtype=np.int64)[missed]
    zero = np.zeros(P.v, dtype=np.int64)
    assert (star(P, P.H[4], e) == star(P, P.H[4], zero)).all()
    assert len(set(gt[:, 1].tolist())) < P.v


def cocycle_oracle(P) -> Cocycle:
    """cocycle_from_code by search: the searched row products, checked as
    a table (a fresh Group of their rows, and the identity in full)."""
    rows, offsets = searched_row_products(P)
    assert (rows >= 0).all()
    return Cocycle(Group(rows), P.field, offsets)


def verify_oracle(P) -> dict:
    """verify_full_propelinear with every entry scanned: G's table entry by
    entry, the searched row products, the star group through
    star_group_witness, and axiom (ii) by composing the permutations.

    pi_x of a codeword in row rho gathers at gt[rho], so pi_x o pi_y
    gathers at gt[r][gt[rho]] for y in row r; it is compared entry by entry
    with pi of x * y = x + pi_x(y), the code's own law, over every row pair
    (pi is constant on cosets).  star_oracle's product is not used: its row
    is (g_x g_y)^-1 for any table, so it would read axiom (ii) from G's
    associativity alone; on a cocycle the two laws agree
    (test_star_matches_oracle_exhaustive)."""
    v, ar = P.v, np.arange(P.v)
    gt = np.array(P.group.table)
    rows, offsets = searched_row_products(P)

    def first(label, bad):
        bad = np.argwhere(bad)
        return (False, (label, *map(int, bad[0]))) if bad.size else (True, None)

    composed = gt[ar[None, :, None], gt[:, None, :]]  # [rho, r, j]
    witness = star_group_witness(P.field, rows, offsets)
    distinct = len(np.unique(gt, axis=0))
    return {
        "identity_and_coset_constancy": first("pi_0 moves", gt[0] != ar),
        "axiom_i_preserves_code": first("x*f not in C", rows < 0),
        "axiom_ii_homomorphism": first(
            "pi_{x*y} != pi_x pi_y",
            (rows < 0) | (gt[rows] != composed).any(axis=2)),
        "fullness": first("fixed point", (gt == ar).any(axis=1) & (ar > 0)),
        "group_axioms": (witness is None, witness),
        "unit_vector_preimages": first(
            "collision across cosets",
            (np.sort(gt, axis=0) != ar[:, None]).any(axis=0)),
        "pi_group_is_quotient": (True, None) if distinct == v
        else (False, ("|Pi| != v", distinct)),
        "distance_compatibility": first(
            "row not a permutation", (np.sort(gt, axis=1) != ar).any(axis=1)),
    }


def _built_files(tmp_path) -> dict:
    """Every file `ghfp build` writes with the small options of the CLI
    tests, in both orderings, read back."""
    from ghfp.cli import main
    from ghfp.fileio import read_coc
    from test_fileio_cli import BUILDS

    out = {}
    for ordering in ("encoding", "primitive-power"):
        d = tmp_path / ordering
        common = ["--ordering", ordering, "--out", str(d)]
        for construction, opts in BUILDS.items():
            assert main(["build", "--construction", construction, *opts,
                         "--name", construction, *common]) == 0
        s8 = str(d / "sylvester.coc")
        assert main(["build", "--construction", "kronecker", "--left", s8,
                     "--right", s8, "--name", "kronecker", *common]) == 0
        for path in sorted(d.glob("*.coc")):
            out[ordering, path.stem] = read_coc(path)
    return out


def test_group_verdict_path_matches_scan_oracle(corpus, bench_recipes,
                                               tmp_path, capsys, monkeypatch):
    """On every orthogonal corpus cocycle, every file `ghfp build` writes
    and the benchmark's structure kinds relabeled as its jobs are:
    verify_full_propelinear's report is the scanned one, cocycle_from_code
    is the cocycle of a freshly checked Group of the searched rows, and a
    second call of either checks no group again."""
    import workloads

    _, build = bench_recipes
    cases = {name: psi for name, psi in corpus.items()
             if is_orthogonal(psi)[0]}
    cases.update(_built_files(tmp_path))
    capsys.readouterr()
    kinds = dict.fromkeys(workloads.Structure.KINDS)
    for kind in kinds:
        cases[kind] = workloads.automorphic(np.random.default_rng(0),
                                            build(kind))
    assert len(cases) == 7 + 10 + len(kinds)

    calls = []
    for method in ("generators", "check_associativity"):
        def counted(self, method=method, real=getattr(Group, method)):
            calls.append(method)
            return real(self)
        monkeypatch.setattr(Group, method, counted)
    for name, psi in cases.items():
        P = PropelinearCode(psi)
        want_report = verify_oracle(P)
        assert all(ok for ok, _ in want_report.values()), name
        want_cocycle = cocycle_oracle(P)
        assert verify_full_propelinear(P) == want_report, name
        assert cocycle_from_code(P) == want_cocycle, name
        calls.clear()
        assert verify_full_propelinear(P) == want_report, name
        assert cocycle_from_code(P) == want_cocycle, name
        assert calls == [], name


def test_regular_subgroup_decides_on_the_row_product_table(gf3, loop5,
                                                          corpus):
    """The rule regular_subgroup_check proves reads only the table of row
    products f_rho * f_r = c*1 + f_s: the star table, with entry (a + b +
    c[rho, r])*v + s[rho, r] at labels (a*v + rho, b*v + r), is a group
    table exactly when s is a group and c a normalized cocycle over it.
    Fed a group, a loop (Latin, not associative), a monoid (associative,
    not Latin), and a group with offsets that are no cocycle or not
    normalized, star_group_witness agrees with the tabulated star table;
    and every orthogonal corpus code is regular."""
    def star_table_is_a_group(rows, offsets):
        v, q = len(rows), gf3.q
        a = np.arange(q)[:, None, None, None]
        b = np.arange(q)[None, None, :, None]
        c = gf3.vadd(gf3.vadd(a, b), offsets[None, :, None, :])
        table = (c * v + rows[None, :, None, :]).reshape(q * v, q * v)
        try:
            Group(table).check_associativity()
        except NotAGroup:
            return False
        return True

    a = np.arange(5)
    z5 = (a[:, None] + a[None, :]) % 5
    zero = np.zeros((5, 5), dtype=np.int64)
    # one entry off zero: normalized, but no cocycle
    bent = zero.copy()
    bent[1, 1] = 1
    with pytest.raises(CocycleIdentityViolated):
        check_cocycle(bent, Group(z5), gf3)
    # a coboundary of phi with phi(0) != 0 is a cocycle identity solution
    # that is not normalized: label 0 is then no identity of the star table
    phi = np.array([1, 0, 2, 0, 1])
    unnormalized = (phi[z5] - phi[:, None] - phi[None, :]) % 3
    assert unnormalized[0].any()
    cases = {"z5": (z5, zero, True), "loop5": (loop5, zero, False),
             "monoid": (np.maximum(a[:, None], a[None, :]), zero, False),
             "bent": (z5, bent, False),
             "unnormalized": (z5, unnormalized, False)}
    for name, (rows, offsets, regular) in cases.items():
        assert star_table_is_a_group(rows, offsets) == regular, name
        assert (star_group_witness(gf3, rows, offsets) is None) == regular, \
            name
    for name, psi in corpus.items():
        if is_orthogonal(psi)[0]:
            assert regular_subgroup_check(PropelinearCode(psi)), name


def test_regular_subgroup_gate():
    """No gate: S_128 (q*v = 128 * 128 = 16384 codewords, over the old 10^4
    gate) is checked exactly on its 128 x 128 row-product table."""
    from ghfp import multiplication_cocycle

    P = PropelinearCode(multiplication_cocycle(Field(2, 7)))
    assert regular_subgroup_check(P)


def test_kernel_closed_under_star(p4, p9, p81):
    for P in (p4, p9, p81):
        res = P.code.kernel()
        members = [np.asarray(b) for b in res.basis]
        # span the kernel explicitly (small dims only) and close under star
        from itertools import product

        span = [np.zeros(P.v, dtype=np.int64)]
        for b in members:
            span = [P.field.vadd(s, P.field.vmul(a, b))
                    for s in span for a in range(P.q)]
        byte_set = {s.tobytes() for s in span}
        assert len(byte_set) == P.q ** res.dim
        sample = span if len(span) <= 16 else span[:16]
        for x in sample:
            for y in sample:
                assert star(P, x, y).tobytes() in byte_set


def test_c1_inside_kernel(p4, p9, p8, p81):
    for P in (p4, p9, p8, p81):
        for lam in range(1, P.q):
            c = np.full(P.v, lam, dtype=np.int64)
            assert all(P.code.contains(P.field.vadd(w, c))
                       for w in P.H[:: max(1, P.v // 8)])
        # and the all-one vector is always in the computed kernel basis span
        basis = P.code.kernel().basis
        assert any((b == 1).all() for b in basis)


def test_kronecker_propelinear_matches_tensor_path(s3_cocycle):
    P1 = PropelinearCode(s3_cocycle)
    P2 = PropelinearCode(s3_cocycle)
    K = kronecker_propelinear(P1, P2)
    direct = PropelinearCode(tensor(s3_cocycle, s3_cocycle))
    assert (K.H == direct.H).all()
    assert K.pi_table_strings() == direct.pi_table_strings()


def test_kronecker_propelinear_blockwise_identities(s3_cocycle, s9_cocycle):
    P1 = PropelinearCode(s3_cocycle)
    P2 = PropelinearCode(s9_cocycle)
    K = kronecker_propelinear(P1, P2)
    f = K.field
    rng = np.random.default_rng(4)
    for _ in range(60):
        a = P1.encode(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        b = P2.encode(int(rng.integers(0, 3)), int(rng.integers(0, 9)))
        x = P1.encode(int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        y = P2.encode(int(rng.integers(0, 3)), int(rng.integers(0, 9)))
        ab = oplus(f, a, b)
        xy = oplus(f, x, y)
        assert K.code.contains(ab)
        # (a(+)b) * (x(+)y) = (a*x) (+) (b*y)
        lhs = star(K, ab, xy)
        rhs = oplus(f, star(P1, a, x), star(P2, b, y))
        assert (lhs == rhs).all()
        # pi_{a(+)b}(x(+)y) = pi_a(x) (+) pi_b(y)
        lhs_pi = f.vsub(lhs, ab)
        rhs_pi = oplus(f, f.vsub(star(P1, a, x), a), f.vsub(star(P2, b, y), b))
        assert (lhs_pi == rhs_pi).all()


def test_kronecker_propelinear_order27_verifies(s3_cocycle):
    big = kronecker_propelinear(PropelinearCode(s3_cocycle),
                                PropelinearCode(tensor(s3_cocycle, s3_cocycle)))
    assert big.v == 27
    report = verify_full_propelinear(big)
    assert all(ok for ok, _ in report.values())


def test_mixed_lifted_tensor_is_rejected(s3_cocycle, dphi43, gf81):
    mixed = tensor(lift(s3_cocycle, gf81), dphi43)
    with pytest.raises(NotOrthogonal):
        PropelinearCode(mixed)
