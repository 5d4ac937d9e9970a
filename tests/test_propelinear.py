import numpy as np
import pytest

from ghfp import (
    Cocycle,
    Field,
    PropelinearCode,
    check_cocycle,
    cocycle_from_code,
    fh_intersection_profile,
    ghfp_from_cocycle,
    kronecker_propelinear,
    lift,
    regular_subgroup_check,
    tensor,
    trivial_cocycle,
    verify_full_propelinear,
)
from ghfp.cocycles import is_orthogonal
from ghfp.errors import CocycleIdentityViolated, GHFPError, NotACodeword, \
    NotAGroup, NotAssociative, NotNormalized, NotOrthogonal, SectionUndefined
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


@pytest.fixture(scope="module")
def p4(order4_cocycle):
    return ghfp_from_cocycle(order4_cocycle)


@pytest.fixture(scope="module")
def p9(s9_cocycle):
    return ghfp_from_cocycle(s9_cocycle)


@pytest.fixture(scope="module")
def p8(s8_cocycle):
    return ghfp_from_cocycle(s8_cocycle)


@pytest.fixture(scope="module")
def p81(dphi43):
    return ghfp_from_cocycle(dphi43)


def test_not_orthogonal_rejected(gf3):
    from ghfp.groups import elementary_abelian

    with pytest.raises(NotOrthogonal):
        ghfp_from_cocycle(trivial_cocycle(elementary_abelian(3, 1), gf3))


def test_pi_tables_match_published_listings(p4, p9, p8):
    assert p4.pi_table_strings() == paper_data.PI_ORDER4
    assert p9.pi_table_strings() == paper_data.PI_ORDER9
    assert p8.pi_table_strings() == paper_data.PI_ORDER8


def test_trivial_one_point_group(gf3):
    point = Group(np.zeros((1, 1), dtype=np.int64))
    P = ghfp_from_cocycle(trivial_cocycle(point, gf3))
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
                assert (star(P, x, y) == P.star_oracle(x, y)).all()


def test_star_matches_oracle_sampled_planar(p81):
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = p81.encode(int(rng.integers(0, 81)), int(rng.integers(0, 81)))
        y = p81.encode(int(rng.integers(0, 81)), int(rng.integers(0, 81)))
        assert (star(p81, x, y) == p81.star_oracle(x, y)).all()


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


def _over_table(psi, table) -> PropelinearCode:
    """P for psi's table read over the (possibly corrupted) group table."""
    return PropelinearCode(Cocycle(Group(table, check=False), psi.field,
                                   psi.table, check="skip"))


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
    # replacing one pi entry by the identity must trip the fullness scan
    psi = sylvester_power_cocycle(gf3, 2)
    P = ghfp_from_cocycle(psi)
    assert verify_full_propelinear(P)["fullness"][0]
    P = _over_table(psi, _corrupted_tables(gf3)["fixed point"])
    report = verify_full_propelinear(P)
    ok, witness = report["fullness"]
    assert not ok and witness is not None
    # the table is no longer associative; axiom (ii) names a failing triple
    ok, (g, h, k) = report["axiom_ii_homomorphism"]
    gt = P.group.table
    assert not ok and gt[gt[g, h], k] != gt[g, gt[h, k]]


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


def test_regular_subgroup_matches_star_table_oracle(p4, p8, p9, non_cocycles):
    s16 = ghfp_from_cocycle(sylvester_power_cocycle(Field(2, 1), 4))
    cases = {"p4": p4, "p8": p8, "p9": p9, "s2^4": s16,
             **{name: ghfp_from_cocycle(psi)
                for name, psi in non_cocycles.items()}}
    for name, P in cases.items():
        assert regular_subgroup_check(P) == star_table_is_group(P), name


def test_regular_subgroup_rejects_non_cocycles(non_cocycles):
    # star leaves C_H, or C_H is closed but its star table is no group
    for name, psi in non_cocycles.items():
        assert not regular_subgroup_check(ghfp_from_cocycle(psi)), name


def test_verify_full_propelinear_reports_non_cocycles(non_cocycles):
    """A code that star takes out of C_H is reported, not raised: axiom (i)
    names the first x*f outside C, and group_axioms names what fails, which
    brute force confirms."""
    for name, psi in non_cocycles.items():
        P = ghfp_from_cocycle(psi)
        H, v = P.H, P.v
        report = verify_full_propelinear(P)
        bad = next(((rho, j) for rho in range(v) for j in range(v)
                    if not P.code.contains(star(P, H[rho], H[j]))), None)
        want = (True, None) if bad is None else (False, ("x*f not in C", *bad))
        assert report["axiom_i_preserves_code"] == want, name
        ok, witness = report["group_axioms"]
        assert not ok, name
        if bad is not None:
            assert witness == want[1], name
            continue
        # C is closed under star: the cosets of the row products must fail
        # to form a group table
        s = np.array([[P.code.row_of(star(P, H[i], H[j])) for j in range(v)]
                      for i in range(v)])
        with pytest.raises(NotAGroup, match=witness[1]):
            Group(s)
        assert witness[0] == "not a group", name


def test_group_axioms_witness_is_a_failing_triple(gf3, loop5, non_cocycles):
    """When the row products are a loop, or a group with constants that
    break the cocycle identity, group_axioms names a triple of rows whose
    star products associate wrongly."""
    P = ghfp_from_cocycle(sylvester_power_cocycle(gf3, 2))
    rows, offsets = P.row_products()
    offsets = offsets.copy()
    offsets[4, 5] = (offsets[4, 5] + 1) % 3
    P.row_products = lambda: (rows, offsets)
    ok, (kind, g, h, k) = verify_full_propelinear(P)["group_axioms"]
    assert not ok and kind == "cocycle identity"
    lhs = offsets[g, h] + offsets[rows[g, h], k]
    rhs = offsets[h, k] + offsets[g, rows[h, k]]
    assert (lhs - rhs) % 3

    P = ghfp_from_cocycle(non_cocycles["gf5_over_z5"])
    P.row_products = lambda: (loop5, np.zeros_like(loop5))
    ok, (kind, g, h, k) = verify_full_propelinear(P)["group_axioms"]
    assert not ok and kind == "associativity"
    assert loop5[loop5[g, h], k] != loop5[g, loop5[h, k]]


def _counted_index(P):
    """Record the batch size of every P.code.index call from now on."""
    sizes = []
    index = P.code.index

    def counted(words):
        sizes.append(len(words))
        return index(words)

    P.code.index = counted
    return sizes


def test_one_row_product_table_serves_every_check(s9_cocycle, non_cocycles):
    """On a cocycle the row-product table and every automorphism pair are
    read from the identity, with no search of the code; without the
    verdict, the table takes one index call of v words per row."""
    from ghfp import automorphisms_from_star
    from ghfp.monomial import _pair_arrays

    P = ghfp_from_cocycle(s9_cocycle)
    sizes = _counted_index(P)
    verify_full_propelinear(P)
    cocycle_from_code(P)
    fh_intersection_profile(P)
    regular_subgroup_check(P)
    ks, rhos = np.divmod(np.arange(P.q * P.v), P.v)
    _pair_arrays(P, rhos, ks)
    # the sampled automorphism check reads its star products from the
    # table too; with sample=None a cocycle's check is a theorem
    automorphisms_from_star(P, sample=8)
    automorphisms_from_star(P)
    assert sizes == []

    P = ghfp_from_cocycle(non_cocycles["h9_over_z9"])
    sizes = _counted_index(P)
    verify_full_propelinear(P)
    fh_intersection_profile(P)
    regular_subgroup_check(P)
    assert sizes == [P.v] * P.v


def _searched(psi) -> PropelinearCode:
    """P with its cocycle verdict withheld, so row_products searches C_H."""
    P = ghfp_from_cocycle(psi)
    P.code.matrix._cocycle = None
    return P


def test_theorem_table_equals_index_table(gf3, s9_cocycle, s8_cocycle, dphi43):
    """(gt^T, psi^T) is the table the index path finds, on lexicographic,
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
        P = ghfp_from_cocycle(psi)
        rows, offsets = P.row_products()
        assert (rows == psi.group.table.T).all(), name
        assert (offsets == psi.table.T).all(), name
        assert not (rows.flags.writeable or offsets.flags.writeable), name
        want_rows, want_offsets = _searched(psi).row_products()
        assert (rows == want_rows).all(), name
        assert (offsets == want_offsets).all(), name


def test_row_product_identity_on_s3_coboundaries(gf3):
    """f_rho * f_r = psi(r,rho)*1 + f_{r rho}, located by GHCode.index, for
    random coboundaries over the non-abelian S_3 whose rows are distinct."""
    from ghfp import GHCode, coboundary, matrix_of
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
    """distance_compatibility names the first row of G's table that is no
    permutation, unit_vector_preimages the first such column; the named
    row really changes a distance, and the named column really collides."""
    P = _over_table(sylvester_power_cocycle(gf3, 2),
                    _corrupted_tables(gf3)["repeated entries"])
    gt = P.group.table
    report = verify_full_propelinear(P)
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
    """cocycle_from_code with the star group checked as a table: a fresh
    Group of the row products, its associativity, and the identity in
    full."""
    rows, offsets = P.row_products()
    bad = np.argwhere(rows < 0)
    if bad.size:
        raise SectionUndefined(*map(int, bad[0]))
    quotient = Group(np.array(rows))
    quotient.check_associativity()
    return Cocycle(quotient, P.field, offsets)


def verify_oracle(P) -> dict:
    """verify_full_propelinear with every entry scanned: G's table entry by
    entry, associativity on a fresh Group, and the star group through
    cocycle_oracle."""
    v, ar = P.v, np.arange(P.v)
    gt = np.array(P.group.table)

    def first(label, bad):
        bad = np.argwhere(bad)
        return (False, (label, *map(int, bad[0]))) if bad.size else (True, None)

    try:
        Group(gt, check=False).check_associativity()
        axiom_ii = (True, None)
    except NotAssociative as e:
        axiom_ii = (False, e.triple)
    try:
        cocycle_oracle(P)
        group_axioms = (True, None)
    except SectionUndefined as e:
        group_axioms = (False, ("x*f not in C", *e.pair))
    except NotAssociative as e:
        group_axioms = (False, ("associativity", *e.triple))
    except CocycleIdentityViolated as e:
        group_axioms = (False, ("cocycle identity", *e.triple))
    except (NotAGroup, NotNormalized) as e:
        group_axioms = (False, ("not a group", str(e)))
    distinct = len(np.unique(gt, axis=0))
    return {
        "identity_and_coset_constancy": first("pi_0 moves", gt[0] != ar),
        "axiom_i_preserves_code": first("x*f not in C",
                                        P.row_products()[0] < 0),
        "axiom_ii_homomorphism": axiom_ii,
        "fullness": first("fixed point", (gt == ar).any(axis=1) & (ar > 0)),
        "group_axioms": group_axioms,
        "unit_vector_preimages": first(
            "collision across cosets",
            (np.sort(gt, axis=0) != ar[:, None]).any(axis=0)),
        "pi_group_is_quotient": (True, None) if distinct == v
        else (False, ("|Pi| != v", distinct)),
        "distance_compatibility": first(
            "row not a permutation", (np.sort(gt, axis=1) != ar).any(axis=1)),
    }


def _outcome(check, P):
    """check(P), or the type and message of the GHFPError it raised."""
    try:
        return check(P)
    except GHFPError as e:
        return type(e), str(e)


def test_group_verdict_path_matches_scan_oracle(gf3, corpus, non_cocycles,
                                               loop5, monkeypatch):
    """On every orthogonal corpus cocycle, every non-cocycle, a loop and a
    monoid put in place of the row products, and the two corrupted group
    tables: verify_full_propelinear's report is the scanned one,
    cocycle_from_code is the cocycle of a freshly checked Group(rows), and
    a second call of either checks no group again."""
    cases = {}
    for name, psi in {**corpus, **non_cocycles}.items():
        if is_orthogonal(psi)[0]:
            cases[name] = ghfp_from_cocycle(psi)
    a = np.arange(5)
    for name, rows in [("loop5", loop5),
                       ("monoid", np.maximum(a[:, None], a[None, :]))]:
        P = ghfp_from_cocycle(non_cocycles["gf5_over_z5"])
        offsets = np.zeros_like(rows)
        P.row_products = lambda rows=rows, offsets=offsets: (rows, offsets)
        cases[name] = P
    s9 = sylvester_power_cocycle(gf3, 2)
    for name, table in _corrupted_tables(gf3).items():
        cases[name] = _over_table(s9, table)
    assert len(cases) == 15

    calls = []
    for method in ("generators", "check_associativity"):
        def counted(self, method=method, real=getattr(Group, method)):
            calls.append(method)
            return real(self)
        monkeypatch.setattr(Group, method, counted)
    for name, P in cases.items():
        want_report = verify_oracle(P)
        want_cocycle = _outcome(cocycle_oracle, P)
        assert verify_full_propelinear(P) == want_report, name
        assert _outcome(cocycle_from_code, P) == want_cocycle, name
        calls.clear()
        assert verify_full_propelinear(P) == want_report, name
        assert _outcome(cocycle_from_code, P) == want_cocycle, name
        assert calls == [], name


def test_regular_subgroup_decides_on_the_row_product_table(gf3, loop5):
    """The check reads only the table of row products f_rho * f_r.  Feeding
    it a group, a loop (Latin, not associative) and a monoid (associative,
    not Latin) as that table, and a group with offsets that are not a
    normalized cocycle, pins the rule: regular exactly when the star table
    is a group table."""
    from types import SimpleNamespace

    def fake(rows, offsets=None):
        rows = np.asarray(rows)
        if offsets is None:
            offsets = np.zeros_like(rows)
        # no cocycle verdict: the table is read as a table, not a theorem
        matrix = SimpleNamespace(cocycle=lambda: None)
        return SimpleNamespace(field=gf3, code=SimpleNamespace(matrix=matrix),
                               row_products=lambda: (rows, offsets))

    a = np.arange(5)
    z5 = (a[:, None] + a[None, :]) % 5
    assert regular_subgroup_check(fake(z5))
    assert not regular_subgroup_check(fake(loop5))
    assert not regular_subgroup_check(fake(np.maximum(a[:, None], a[None, :])))
    # one entry off zero: normalized, but no cocycle
    bent = np.zeros((5, 5), dtype=np.int64)
    bent[1, 1] = 1
    with pytest.raises(CocycleIdentityViolated):
        check_cocycle(bent, Group(z5), gf3)
    assert not regular_subgroup_check(fake(z5, bent))
    # a coboundary of phi with phi(0) != 0 is a cocycle identity solution
    # that is not normalized: label 0 is then no identity of the star table
    phi = np.array([1, 0, 2, 0, 1])
    unnormalized = (phi[z5] - phi[:, None] - phi[None, :]) % 3
    assert unnormalized[0].any()
    assert not regular_subgroup_check(fake(z5, unnormalized))


def test_regular_subgroup_gate():
    """No gate: S_128 (q*v = 128 * 128 = 16384 codewords, over the old 10^4
    gate) is checked exactly on its 128 x 128 row-product table."""
    from ghfp import multiplication_cocycle

    P = ghfp_from_cocycle(multiplication_cocycle(Field(2, 7)))
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
    P1 = ghfp_from_cocycle(s3_cocycle)
    P2 = ghfp_from_cocycle(s3_cocycle)
    K = kronecker_propelinear(P1, P2)
    direct = ghfp_from_cocycle(tensor(s3_cocycle, s3_cocycle))
    assert (K.H == direct.H).all()
    assert K.pi_table_strings() == direct.pi_table_strings()


def test_kronecker_propelinear_blockwise_identities(s3_cocycle, s9_cocycle):
    P1 = ghfp_from_cocycle(s3_cocycle)
    P2 = ghfp_from_cocycle(s9_cocycle)
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
    big = kronecker_propelinear(ghfp_from_cocycle(s3_cocycle),
                                ghfp_from_cocycle(tensor(s3_cocycle, s3_cocycle)))
    assert big.v == 27
    report = verify_full_propelinear(big)
    assert all(ok for ok, _ in report.values())


def test_mixed_lifted_tensor_is_rejected(s3_cocycle, dphi43, gf81):
    mixed = tensor(lift(s3_cocycle, gf81), dphi43)
    with pytest.raises(NotOrthogonal):
        ghfp_from_cocycle(mixed)
