import numpy as np
import pytest

from ghfp import (
    Cocycle,
    ExtensionGroup,
    Field,
    Group,
    PropelinearCode,
    coboundary,
    cocycle_from_code,
    coset_zero_sets,
    fh_intersection_profile,
    is_orthogonal,
    is_relative_difference_set,
    lift,
    tensor,
    transversal_rds_check,
    trivial_cocycle,
)
from ghfp import extension
from ghfp.errors import (CocycleIdentityViolated, NotAbelian, NotAGroup,
                         NotAssociative, NotNormal)
from ghfp.fields import row_histograms
from ghfp.groups import _invariants, abelian_invariants, elementary_abelian

import paper_data
from test_groups import s3_table
from test_propelinear import star


def elements(E):
    return [(u, g) for u in range(E.q) for g in range(E.v)]


def transversal(E):
    """T(psi) = {(0, g)}, a normalized transversal of U x {1}."""
    return [(0, g) for g in range(E.v)]


def extension_table(E: ExtensionGroup) -> Group:
    """Test oracle: the Cayley table of E_psi on the labels u*v + g, by
    E._mul on every pair of labels (small orders only)."""
    labels = np.arange(E.order)
    return Group(E._mul(labels[:, None], labels), check=False)


def coefficients(E: ExtensionGroup):
    """The central subgroup U x {1}."""
    return [(u, 0) for u in range(E.q)]


def test_extension_order_and_identity(order4_cocycle):
    E = ExtensionGroup(order4_cocycle)
    assert E.order == 16
    assert E.mul((0, 0), (3, 2)) == (3, 2)
    a = (2, 3)
    assert E.mul(a, E.inverse(a)) == (0, 0)


def test_trivial_cocycle_gives_direct_product(gf3):
    E = ExtensionGroup(trivial_cocycle(elementary_abelian(3, 2), gf3))
    assert E.abelian_invariants() == [3, 3, 3]
    for u in range(3):
        for g in range(9):
            assert E.mul((u, g), (0, 0)) == (u, g)
            assert E.mul((u, 1), (0, 3)) == (u, elementary_abelian(3, 2).mul(1, 3))


def test_extension_invariants_published(order4_cocycle, s9_cocycle, s8_cocycle,
                                        dphi43):
    assert ExtensionGroup(order4_cocycle).abelian_invariants() == [4, 4]
    assert ExtensionGroup(s9_cocycle).abelian_invariants() == [3, 3, 3]
    assert ExtensionGroup(s8_cocycle).abelian_invariants() == [4, 4, 4]
    assert ExtensionGroup(dphi43).abelian_invariants() == [3] * 8


@pytest.mark.parametrize("k, a, b", [(6, 5, 4), (2, 1, 0), (2, 0, 1)])
def test_not_abelian_names_the_exact_exponent(k, a, b):
    """psi(g, h) = g_a h_b over GF(2), with g_a the base-2 digit a of g's
    index.  Over Z_2^6 with the two highest digits every element of order 4
    has index >= 48; over Z_2^2 the extension is D_4."""
    idx = np.arange(2 ** k)
    ga, hb = (idx >> a) & 1, (idx >> b) & 1
    psi = Cocycle(elementary_abelian(2, k), Field(2, 1),
                  ga[:, None] * hb[None, :])
    E = ExtensionGroup(psi)
    with pytest.raises(NotAbelian) as exc:
        E.abelian_invariants()
    assert exc.value.order == E.order
    assert exc.value.exponent == extension_table(E).exponent == 4


def test_extension_invariants_match_tabulated(order4_cocycle, s9_cocycle,
                                              s8_cocycle):
    for psi in (order4_cocycle, s9_cocycle, s8_cocycle):
        E = ExtensionGroup(psi)
        g = extension_table(E)
        g.check_associativity()
        assert abelian_invariants(g) == E.abelian_invariants()


def oracle_calls(monkeypatch):
    """The orders of E_psi that ExtensionGroup.abelian_invariants hands to
    groups._invariants, its fallback and the tests' oracle, from now on."""
    calls = []

    def spy(mul, n):
        calls.append(n)
        return _invariants(mul, n)

    monkeypatch.setattr(extension, "_invariants", spy)
    return calls


def test_p_power_theorem_equals_the_oracle_on_structure_jobs(bench_recipes,
                                                             monkeypatch):
    """Every structure kind, relabeled by a random automorphism of its group
    as the benchmark's jobs are (workloads.automorphic, with no verdict),
    seeds 0-9: group_invariants takes the p-power theorem on the verdict
    PropelinearCode decides, and equals _invariants on the labels."""
    import workloads

    _, build = bench_recipes
    calls = oracle_calls(monkeypatch)
    for kind in workloads.Structure.KINDS:
        base = build(kind)
        for seed in range(10):
            psi = workloads.automorphic(np.random.default_rng(seed), base)
            P = PropelinearCode(psi)
            got = P.group_invariants()
            assert not calls and P.psi.checked, (kind, seed)
            E = ExtensionGroup(psi)
            assert got == _invariants(E._mul, E.order), (kind, seed)
            # the input psi itself holds no verdict, so E_psi falls back
            assert E.abelian_invariants() == got and calls, (kind, seed)
            calls.clear()


def test_p_power_theorem_equals_the_oracle_on_the_corpus(corpus, monkeypatch):
    """Every corpus cocycle holds a verdict over a group of exponent p, and
    is symmetric: the theorem answers each, as _invariants does."""
    calls = oracle_calls(monkeypatch)
    for name, psi in corpus.items():
        E = ExtensionGroup(psi)
        assert E.is_abelian, name
        assert E.abelian_invariants() == _invariants(E._mul, E.order), name
    assert not calls


@pytest.mark.parametrize("p, want", [(2, [8]), (3, [27])])
def test_cocycle_over_a_cyclic_group_takes_the_oracle(p, want, monkeypatch):
    """The carry cocycle psi(g, h) = [g + h >= p^2] over Z_{p^2} is
    symmetric and checked, but its group has exponent p^2, so the theorem
    does not apply: E_psi is Z_{p^3}."""
    a = np.arange(p * p)
    psi = Cocycle(Group((a[:, None] + a) % (p * p)), Field(p, 1),
                  (a[:, None] + a >= p * p).astype(np.int64))
    calls = oracle_calls(monkeypatch)
    assert ExtensionGroup(psi).abelian_invariants() == want
    assert calls == [p ** 3]


@pytest.mark.parametrize("ones, want", [
    ([1], NotAGroup("order-count 6 is not a power of 2")),
    ([1, 2, 3], [4, 4])])
def test_symmetric_table_without_a_verdict_takes_the_oracle(ones, want,
                                                            monkeypatch):
    """psi(g, g) = 1 for g in ones, 0 elsewhere, over Z_2^2: symmetric, but
    no cocycle, read with check="skip".  The answer or error is
    _invariants', where the theorem would read [2, 4] from the diagonal."""
    t = np.zeros((4, 4), dtype=np.int64)
    t[ones, ones] = 1
    psi = Cocycle(elementary_abelian(2, 2), Field(2, 1), t, check="skip")
    calls = oracle_calls(monkeypatch)
    if isinstance(want, Exception):
        with pytest.raises(type(want), match=str(want)):
            ExtensionGroup(psi).abelian_invariants()
    else:
        assert ExtensionGroup(psi).abelian_invariants() == want
    assert calls == [8]


def test_group_without_a_group_verdict_takes_the_oracle(monkeypatch):
    """The Steiner loop of the affine plane AG(2,3): 1 and the points x of
    Z_3^2, with x*x = 1 and x*y the third point of their line, -x-y.  It is
    commutative of exponent 2, but no group, so the zero cocycle over it
    holds no verdict, and the p-power theorem, which needs a group, is not
    taken: _invariants finds E_psi no group."""
    pts = np.arange(9)
    third = 3 * (-(pts[:, None] // 3 + pts // 3) % 3) \
        + (-(pts[:, None] % 3 + pts % 3) % 3)
    np.fill_diagonal(third, -1)
    table = np.zeros((10, 10), dtype=np.int64)
    table[0] = table[:, 0] = np.arange(10)
    table[1:, 1:] = 1 + third
    loop = Group(table)
    assert loop.is_abelian and loop.associativity_failure() is not None
    psi = trivial_cocycle(loop, Field(2, 1))
    assert not psi.checked
    calls = oracle_calls(monkeypatch)
    with pytest.raises(NotAGroup, match="order-count 20 is not a power"):
        ExtensionGroup(psi).abelian_invariants()
    assert calls == [20]


def test_label_table_matches_pair_product(gf3, order4_cocycle, s9_cocycle):
    """extension_table(E), on the label product that the invariants and the
    exponent use, is E.mul on pairs: also for a cocycle that is not
    symmetric and for a group that is not abelian."""
    idx = np.arange(8)
    digits = Cocycle(elementary_abelian(2, 3), Field(2, 1),
                     ((idx >> 2) & 1)[:, None] * (idx & 1)[None, :])
    phi = np.concatenate(([0], np.random.default_rng(3).integers(0, 3, 5)))
    over_s3 = coboundary(phi, Group(s3_table()), gf3)
    assert (digits.table != digits.table.T).any()
    for psi in (order4_cocycle, s9_cocycle, digits, over_s3):
        E = ExtensionGroup(psi)
        table, v = extension_table(E).table, E.v
        for u, g in elements(E):
            for w, h in elements(E):
                k, x = E.mul((u, g), (w, h))
                assert table[u * v + g, w * v + h] == k * v + x


def transversal_rds_oracle(psi: Cocycle) -> bool:
    """Test oracle: is T(psi) a relative (v, q, v, v/q)-difference set in
    E_psi, forbidden subgroup U x {1}?  Counts the quotient of every ordered
    pair of distinct (0, g), (0, h) in pair coordinates, (0,g)(0,h)^-1 =
    (psi(g, h^-1) - psi(h, h^-1), g h^-1), by its label u*v + gh^-1; it uses
    G's inverse map, and neither the cocycle identity nor orthogonality."""
    f, gt, t, v, q = psi.field, psi.group.table, psi.table, psi.v, psi.q
    if v % q:
        return False
    inv = psi.group.inv
    upart = f.vsub(t[:, inv], t[np.arange(v), inv][None, :])
    spart = gt[:, inv]
    mask = ~np.eye(v, dtype=bool)
    keys = (upart.astype(np.int64) * v + spart)[mask]
    counts = np.bincount(keys, minlength=q * v)
    # forbidden subgroup keys are u*v + 0: zero hits there, v/q elsewhere
    in_z = np.zeros(q * v, dtype=bool)
    in_z[np.arange(q) * v] = True
    return bool((counts[in_z] == 0).all() and (counts[~in_z] == v // q).all())


@pytest.fixture(scope="module")
def rds_cases(corpus, s3_cocycle, s9_cocycle, gf3, gf81):
    """The corpus, and cocycles that hold a verdict without being
    orthogonal: trivial ones (also over S_3, which is not abelian), lifts
    into GF(9) and GF(81), and a coboundary over S_3."""
    gf9, s3 = Field(3, 2), Group(s3_table())
    phi = np.concatenate(([0], np.random.default_rng(5).integers(0, 3, 5)))
    return {**corpus,
            "trivial_z3^2": trivial_cocycle(elementary_abelian(3, 2), gf3),
            "trivial_s3": trivial_cocycle(s3, gf3),
            "lift(s9, gf9)": lift(s9_cocycle, gf9),
            "lift(s3, gf81)": lift(s3_cocycle, gf81),
            "lift(s3, gf9)^2": tensor(lift(s3_cocycle, gf9),
                                         lift(s3_cocycle, gf9)),
            "cob_s3": coboundary(phi, s3, gf3)}


def test_transversal_rds_on_corpus(rds_cases):
    """Theorem: orthogonal iff the transversal is a relative difference
    set; the pair-coordinate oracle agrees on every case, and the params
    are (v, q, v, v/q), or lambda 0 when q does not divide v."""
    seen = set()
    for name, psi in rds_cases.items():
        assert psi.checked, name
        v, q = psi.v, psi.q
        rds_ok, params = transversal_rds_check(psi)
        assert rds_ok == transversal_rds_oracle(psi), name
        assert params == (v, q, v, 0 if v % q else v // q), name
        if not v % q:
            assert rds_ok == is_orthogonal(psi)[0], name
        seen.add(rds_ok)
    assert seen == {True, False}
    assert not transversal_rds_check(rds_cases["lift(s9, gf9)"])[0]


def test_transversal_rds_against_general_checker(rds_cases):
    """The quotient-multiset checker agrees with the theorem wherever E_psi
    is small."""
    checked = 0
    for name, psi in rds_cases.items():
        E = ExtensionGroup(psi)
        if E.order > 100 or psi.v % psi.q:
            continue
        ok, summary = is_relative_difference_set(
            transversal(E), E, coefficients(E), psi.v // psi.q)
        assert summary["quotients"] == psi.v * (psi.v - 1)
        assert transversal_rds_check(psi)[0] == ok, name
        checked += 1
    assert checked >= 6


def test_transversal_rds_refuses_a_table_without_a_verdict(
        non_cocycles, loop_tables, s9_cocycle):
    """A check="skip" table is checked in full once: a non-cocycle is
    refused with the identity's witness, a table over a loop with the
    loop's, and a cocycle read with check="skip" gets its answer."""
    for name, psi in non_cocycles.items():
        with pytest.raises(CocycleIdentityViolated) as refused:
            transversal_rds_check(psi)
        g, h, k = refused.value.triple
        t, gt, f = psi.table, psi.group.table, psi.field
        assert f.add(int(t[g, h]), int(t[gt[g, h], k])) != \
            f.add(int(t[g, gt[h, k]]), int(t[h, k])), name
    loop, table = loop_tables["L8"]
    with pytest.raises(NotAssociative):
        transversal_rds_check(Cocycle(Group(loop), Field(2, 1), table,
                                      check="skip"))
    skipped = Cocycle(s9_cocycle.group, s9_cocycle.field, s9_cocycle.table,
                      check="skip")
    assert transversal_rds_check(skipped) == (True, (9, 3, 9, 3))


def test_rds_counting_identity(s9_cocycle):
    # |differences| = v(v-1) must equal lam * (vq - q) for the flat cover
    v, q = s9_cocycle.v, s9_cocycle.q
    lam = v // q
    assert v * (v - 1) == lam * (v * q - q)


def test_trivial_cocycle_transversal_fails(gf3):
    psi = trivial_cocycle(elementary_abelian(3, 1), gf3)
    ok, _ = transversal_rds_check(psi)
    assert not ok and not transversal_rds_oracle(psi)


def test_general_rds_rejects_non_subgroup(s9_cocycle):
    E = ExtensionGroup(s9_cocycle)
    with pytest.raises(NotNormal):
        is_relative_difference_set(transversal(E), E, [(1, 0), (2, 0)], 3)


def test_general_rds_normality_matches_brute_force(gf3):
    """Over the trivial cocycle on S_3 (generators r and s), {e, s} is a
    subgroup that r does not normalize and the diagonal {(k, r^k)} one that
    s does not; the rotations are normal.  The generator-only test agrees
    with conjugating by every element of E."""
    from ghfp.groups import Group
    from test_groups import s3_table

    E = ExtensionGroup(trivial_cocycle(Group(s3_table()), gf3))
    everything = elements(E)

    def normal(Z):
        return all(E.mul(E.mul(g, z), E.inverse(g)) in Z
                   for g in everything for z in Z)

    assert E.group.generators() == [1, 3]
    rotations = [(0, 0), (0, 1), (0, 2)]
    assert normal(set(rotations))
    for Z in ([(0, 0), (0, 3)], [(0, 0), (1, 1), (2, 2)]):
        assert not normal(set(Z))
        with pytest.raises(NotNormal, match="not normal"):
            is_relative_difference_set(transversal(E), E, Z, 1)
    for Z in (rotations, coefficients(E)):
        is_relative_difference_set(transversal(E), E, Z, 1)


def test_fh_intersection_profile(order4_cocycle, s9_cocycle, s8_cocycle):
    for psi, v, q in ((order4_cocycle, 4, 4), (s9_cocycle, 9, 3),
                      (s8_cocycle, 8, 8)):
        P = PropelinearCode(psi)
        prof = fh_intersection_profile(P)
        assert prof["ok"], prof["witness"]
        values = np.asarray(prof["values"])
        assert set(int(x) for x in values) <= {v, 0, v // q}
        assert int((values == v).sum()) == 1          # only the zero word
        assert int((values == 0).sum()) == q - 1      # rest of C_1
        assert int((values == v // q).sum()) == q * v - q


def fh_profile_oracle(P):
    """The F_H intersection profile counted, not read from the theorem:
    one bincount of -psi^T, the row-product offsets, into q*v values, the
    value at (rho, a) at a*v + rho."""
    f, v, q = P.field, P.v, P.q
    _, c = P.row_products()
    return np.bincount((f.vneg(c) * v + np.arange(v)[:, None]).ravel(),
                       minlength=q * v)


def column_counts_oracle(P):
    """(column_counts_flat, witness) of coset_zero_sets counted, not read
    from the theorem: a q-bin histogram of every column j > 0 of H, and the
    first column that is not flat with its counts."""
    v, q = P.v, P.q
    counts = row_histograms(P.H[:, 1:].T, q)  # row j-1 counts column j
    bad = np.flatnonzero((counts != v // q).any(axis=1))
    return not bad.size, ((int(bad[0]) + 1, counts[bad[0]]) if bad.size
                          else None)


def test_fh_intersection_profile_matches_brute_force(corpus):
    from ghfp import Code

    for psi in corpus.values():
        if not is_orthogonal(psi)[0] or psi.v > 27:
            continue
        P = PropelinearCode(psi)
        v, q = P.v, P.q
        fh = Code(P.field, P.H)
        prof = fh_intersection_profile(P)
        want = [sum(fh.contains(star(P, x, f)) for f in P.H)
                for x in P.code.words()]  # x = a*1 + f_rho at a*v + rho
        assert np.asarray(prof["values"]).tolist() == want
        assert fh_profile_oracle(P).tolist() == want
        expected = [v if k == 0 else (0 if k % v == 0 else v // q)
                    for k in range(q * v)]
        bad = sorted((k % v, k // v) for k in range(q * v)
                     if want[k] != expected[k])
        assert prof["ok"] == (not bad)
        assert prof["witness"] == (bad[0] if bad else None)


def test_structure_views_by_theorem_equal_the_oracles(bench_recipes, corpus):
    """The profile and the column counts, read from P's orthogonal verdict,
    equal the bincount and the histograms on every structure kind (relabeled
    by a random automorphism, as the benchmark's jobs are, seeds 0-2) and
    every orthogonal corpus cocycle, the point included."""
    import workloads

    _, build = bench_recipes
    cases = [workloads.automorphic(np.random.default_rng(seed), build(kind))
             for kind in workloads.Structure.KINDS for seed in range(3)]
    cases += [psi for psi in corpus.values() if is_orthogonal(psi)[0]]
    cases.append(trivial_cocycle(Group(np.zeros((1, 1), dtype=np.int64)),
                                 Field(3, 1)))
    for psi in cases:
        P = PropelinearCode(psi)
        prof = fh_intersection_profile(P)
        assert np.array_equal(prof["values"], fh_profile_oracle(P)), psi
        assert (prof["ok"], prof["witness"]) == (True, None)
        report = coset_zero_sets(P)
        assert (report["column_counts_flat"], report["witness"]) \
            == column_counts_oracle(P) == (True, None), psi
        assert report["d1_is_fh"] == bool((P.H[:, 0] == 0).all())


def test_cocycle_from_code_roundtrip(corpus):
    for name, psi in corpus.items():
        if psi.v == 1 or psi.v % psi.q:
            continue
        if not is_orthogonal(psi)[0]:
            continue
        P = PropelinearCode(psi)
        back = cocycle_from_code(P)
        assert is_orthogonal(back)[0], name
        E1, E2 = ExtensionGroup(psi), ExtensionGroup(back)
        assert E1.order == E2.order, name
        if E1.is_abelian:
            assert E1.abelian_invariants() == E2.abelian_invariants(), name


def test_cocycle_from_code_trivial_point(gf3):
    from ghfp.groups import Group

    point = Group(np.zeros((1, 1), dtype=np.int64))
    P = PropelinearCode(trivial_cocycle(point, gf3))
    back = cocycle_from_code(P)
    assert back.v == 1 and not back.table.any()


def test_coset_zero_sets(order4_cocycle, s9_cocycle, s8_cocycle):
    for psi in (order4_cocycle, s9_cocycle, s8_cocycle):
        P = PropelinearCode(psi)
        report = coset_zero_sets(P)
        assert report["d1_is_fh"]
        assert report["sizes_all_v"]
        assert report["column_counts_flat"], report["witness"]


def test_coset_zero_sets_witness_is_first_unflat_column():
    """The column-count oracle reads only H, v and q.  Flat rows
    (orthogonal), distinct, whose columns are not flat: no cocycle, so a
    stand-in holds them in place of a PropelinearCode, which would refuse
    them (coset_zero_sets itself reads the columns from P's verdict)."""
    from types import SimpleNamespace

    rng = np.random.default_rng(2)
    rest = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    t = np.zeros((9, 9), dtype=np.int64)
    for i in range(1, 9):
        t[i, 1:] = rng.permutation(rest)
    ok, witness = column_counts_oracle(SimpleNamespace(H=t, v=9, q=3))
    flat = [(np.bincount(t[:, j], minlength=3) == 3).all() for j in range(9)]
    j = flat.index(False, 1)
    assert not ok
    assert witness[0] == j
    assert witness[1].tolist() == np.bincount(t[:, j], minlength=3).tolist()
