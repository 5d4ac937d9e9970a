import numpy as np
import pytest

from ghfp import (
    Field,
    check_cocycle,
    coboundary,
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
    NotNormalized,
)
from ghfp.ghmatrix import is_gh, sylvester_power_cocycle
from ghfp.planar import planar_coboundary

import paper_data


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


def test_unnormalized_rejected(gf3):
    t = paper_data.H_ORDER9.copy()
    t[0, 3] = 1
    with pytest.raises(NotNormalized):
        check_cocycle(t, elementary_abelian(3, 2), gf3)


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
