import numpy as np
import pytest

from ghfp import (
    Cocycle,
    ExtensionGroup,
    Field,
    cocycle_from_code,
    coset_zero_sets,
    extension_group,
    fh_intersection_profile,
    ghfp_from_cocycle,
    is_orthogonal,
    is_relative_difference_set,
    transversal_rds_check,
    trivial_cocycle,
)
from ghfp.errors import NotAbelian, NotNormal
from ghfp.groups import abelian_invariants, elementary_abelian

import paper_data


def test_extension_order_and_identity(order4_cocycle):
    E = extension_group(order4_cocycle)
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


def test_center_contains_coefficients(order4_cocycle, s9_cocycle, dphi43):
    for psi in (order4_cocycle, s9_cocycle, dphi43):
        assert ExtensionGroup(psi).center_contains_coefficients()


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
    assert exc.value.exponent == E.as_group().exponent == 4


def test_extension_invariants_match_tabulated(order4_cocycle, s9_cocycle,
                                              s8_cocycle):
    for psi in (order4_cocycle, s9_cocycle, s8_cocycle):
        E = ExtensionGroup(psi)
        g = E.as_group()
        g.check_associativity()
        assert abelian_invariants(g) == E.abelian_invariants()


def test_transversal_rds_on_corpus(corpus):
    """Theorem: orthogonal iff the transversal is a relative difference set."""
    for name, psi in corpus.items():
        if psi.v == 1 or psi.v % psi.q:
            continue
        orth, _ = is_orthogonal(psi)
        rds_ok, params = transversal_rds_check(psi)
        assert rds_ok == orth, name
        assert params == (psi.v, psi.q, psi.v, psi.v // psi.q), name


def test_transversal_rds_against_general_checker(order4_cocycle, s9_cocycle):
    for psi in (order4_cocycle, s9_cocycle):
        E = ExtensionGroup(psi)
        ok, summary = is_relative_difference_set(
            E.transversal(), E, E.coefficient_subgroup(), psi.v // psi.q)
        assert ok
        assert summary["quotients"] == psi.v * (psi.v - 1)
        fast, _ = transversal_rds_check(psi)
        assert fast == ok


def test_rds_counting_identity(s9_cocycle):
    # |differences| = v(v-1) must equal lam * (vq - q) for the flat cover
    v, q = s9_cocycle.v, s9_cocycle.q
    lam = v // q
    assert v * (v - 1) == lam * (v * q - q)


def test_trivial_cocycle_transversal_fails(gf3):
    psi = trivial_cocycle(elementary_abelian(3, 1), gf3)
    ok, _ = transversal_rds_check(psi)
    assert not ok


def test_general_rds_rejects_non_subgroup(s9_cocycle):
    E = ExtensionGroup(s9_cocycle)
    with pytest.raises(NotNormal):
        is_relative_difference_set(E.transversal(), E, [(1, 0), (2, 0)], 3)


def test_general_rds_normality_matches_brute_force(gf3):
    """Over the trivial cocycle on S_3 (generators r and s), {e, s} is a
    subgroup that r does not normalize and the diagonal {(k, r^k)} one that
    s does not; the rotations are normal.  The generator-only test agrees
    with conjugating by every element of E."""
    from ghfp.groups import Group
    from test_groups import s3_table

    E = ExtensionGroup(trivial_cocycle(Group(s3_table()), gf3))
    everything = list(E.elements())

    def normal(Z):
        return all(E.mul(E.mul(g, z), E.inverse(g)) in Z
                   for g in everything for z in Z)

    assert E.group.generators() == [1, 3]
    rotations = [(0, 0), (0, 1), (0, 2)]
    assert normal(set(rotations))
    for Z in ([(0, 0), (0, 3)], [(0, 0), (1, 1), (2, 2)]):
        assert not normal(set(Z))
        with pytest.raises(NotNormal, match="not normal"):
            is_relative_difference_set(E.transversal(), E, Z, 1)
    for Z in (rotations, E.coefficient_subgroup()):
        is_relative_difference_set(E.transversal(), E, Z, 1)


def test_fh_intersection_profile(order4_cocycle, s9_cocycle, s8_cocycle):
    for psi, v, q in ((order4_cocycle, 4, 4), (s9_cocycle, 9, 3),
                      (s8_cocycle, 8, 8)):
        P = ghfp_from_cocycle(psi)
        prof = fh_intersection_profile(P)
        assert prof["ok"], prof["witness"]
        values = np.asarray(prof["values"])
        assert set(int(x) for x in values) <= {v, 0, v // q}
        assert int((values == v).sum()) == 1          # only the zero word
        assert int((values == 0).sum()) == q - 1      # rest of C_1
        assert int((values == v // q).sum()) == q * v - q


def test_fh_intersection_profile_matches_brute_force(order4_cocycle,
                                                     s9_cocycle, s8_cocycle,
                                                     non_cocycles):
    from ghfp import Code

    for psi in (order4_cocycle, s9_cocycle, s8_cocycle,
                *non_cocycles.values()):
        P = ghfp_from_cocycle(psi)
        v, q = P.v, P.q
        fh = Code(P.field, P.H)
        prof = fh_intersection_profile(P)
        want = [sum(fh.contains(P.star(x, f)) for f in P.H)
                for x in P.code.words()]  # x = a*1 + f_rho at a*v + rho
        assert np.asarray(prof["values"]).tolist() == want
        expected = [v if k == 0 else (0 if k % v == 0 else v // q)
                    for k in range(q * v)]
        bad = sorted((k % v, k // v) for k in range(q * v)
                     if want[k] != expected[k])
        assert prof["ok"] == (not bad)
        assert prof["witness"] == (bad[0] if bad else None)
    for name in ("h4_over_z4", "h9_over_z9"):
        P = ghfp_from_cocycle(non_cocycles[name])
        assert not fh_intersection_profile(P)["ok"], name


def test_cocycle_from_code_roundtrip(corpus):
    for name, psi in corpus.items():
        if psi.v == 1 or psi.v % psi.q:
            continue
        if not is_orthogonal(psi)[0]:
            continue
        P = ghfp_from_cocycle(psi)
        back = cocycle_from_code(P)
        assert is_orthogonal(back)[0], name
        E1, E2 = ExtensionGroup(psi), ExtensionGroup(back)
        assert E1.order == E2.order, name
        if E1.is_abelian:
            assert E1.abelian_invariants() == E2.abelian_invariants(), name


def test_cocycle_from_code_names_first_product_outside_code(non_cocycles):
    from ghfp.errors import SectionUndefined

    for name in ("h4_over_z4", "h9_over_z9", "gf5_over_z5"):
        P = ghfp_from_cocycle(non_cocycles[name])
        i, j = next((i, j) for i in range(P.v) for j in range(P.v)
                    if not P.code.contains(P.star(P.H[i], P.H[j])))
        with pytest.raises(SectionUndefined, match=rf"f_{i} \* f_{j} has"):
            cocycle_from_code(P)


def test_cocycle_from_code_trivial_point(gf3):
    from ghfp.groups import Group

    point = Group(np.zeros((1, 1), dtype=np.int64))
    P = ghfp_from_cocycle(trivial_cocycle(point, gf3))
    back = cocycle_from_code(P)
    assert back.v == 1 and not back.table.any()


def test_coset_zero_sets(order4_cocycle, s9_cocycle, s8_cocycle):
    for psi in (order4_cocycle, s9_cocycle, s8_cocycle):
        P = ghfp_from_cocycle(psi)
        report = coset_zero_sets(P)
        assert report["d1_is_fh"]
        assert report["sizes_all_v"]
        assert report["column_counts_flat"], report["witness"]


def test_coset_zero_sets_witness_is_first_unflat_column(gf3):
    from ghfp import Cocycle

    # flat rows (orthogonal), distinct; the columns are not flat
    rng = np.random.default_rng(2)
    rest = np.array([0, 0, 1, 1, 1, 2, 2, 2])
    t = np.zeros((9, 9), dtype=np.int64)
    for i in range(1, 9):
        t[i, 1:] = rng.permutation(rest)
    P = ghfp_from_cocycle(Cocycle(elementary_abelian(3, 2), gf3, t,
                                  check="skip"))
    report = coset_zero_sets(P)
    flat = [(np.bincount(t[:, j], minlength=3) == 3).all() for j in range(9)]
    j = flat.index(False, 1)
    assert not report["column_counts_flat"]
    assert report["witness"][0] == j
    assert report["witness"][1].tolist() == np.bincount(t[:, j],
                                                        minlength=3).tolist()
