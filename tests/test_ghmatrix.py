import numpy as np
import pytest

from ghfp import (
    Field,
    GHMatrix,
    elementary_abelian,
    gen_sylvester,
    is_gh,
    kronecker_sum,
    matrix_of,
    normalize,
    sylvester,
    sylvester_power,
    tensor,
)
from ghfp.errors import DivisibilityViolated, FieldMismatch, OrderMismatch
from ghfp.ghmatrix import sylvester_power_cocycle

import paper_data


def test_order4_example_is_gh(gf4):
    m = GHMatrix(gf4, paper_data.H_ORDER4)
    ok, witness = is_gh(m)
    assert ok and witness is None
    assert m.lam == 1


def test_divisibility_gate(gf4):
    with pytest.raises(DivisibilityViolated):
        is_gh(GHMatrix(gf4, np.zeros((3, 3), dtype=np.int64)))


def test_corrupted_entry_names_row_pair(gf3):
    t = paper_data.H_ORDER9.copy()
    t[4, 4] = 0
    ok, witness = is_gh(GHMatrix(gf3, t))
    assert not ok
    i, j, u, count = witness
    assert 4 in (i, j)
    # recount the difference multiset of the named pair
    f = Field(3, 1)
    diffs = f.vsub(t[j], t[i])
    assert int(np.bincount(diffs, minlength=3)[u]) == count != 3


def test_sylvester_gf3(gf3):
    s = sylvester(gf3)
    assert s.entries.tolist() == [[0, 0, 0], [0, 1, 2], [0, 2, 1]]
    assert not s.entries[0].any() and not s.entries[:, 0].any()


def test_sylvester_gf8_primitive_power_matches_published(gf8):
    s = sylvester(gf8, "primitive-power")
    elems = paper_data.ORDER8_ELEMENTS
    # row for x: 0, x, x^2, ..., x^6, 1 in the published display
    assert s.entries[2].tolist() == [0] + [elems[1 + (1 + k) % 7] for k in range(7)]
    for i in range(1, 8):
        for j in range(1, 8):
            assert s.entries[i, j] == elems[1 + (i + j - 2) % 7]
    assert is_gh(s)[0]


def test_sylvester_power_is_order9_example(gf3):
    m = sylvester_power(gf3, 2)
    assert (m.entries == paper_data.H_ORDER9).all()
    assert m.lam == 3
    base = sylvester_power(gf3, 1)
    assert (base.entries == sylvester(gf3).entries).all()


def test_gen_sylvester_matches_order9_example():
    d = gen_sylvester(3, 1, 2)
    assert (d.entries == paper_data.H_ORDER9).all()


def test_gen_sylvester_degenerate_is_sylvester(gf3):
    d = gen_sylvester(3, 1, 1)
    assert (d.entries == sylvester(gf3).entries).all()


def test_gen_sylvester_order16_over_gf4():
    d = gen_sylvester(2, 2, 2)
    assert d.v == 16 and d.lam == 4
    assert is_gh(d)[0]


def test_normalize_idempotent_and_preserves_gh(gf4):
    rng = np.random.default_rng(0)
    m = GHMatrix(gf4, paper_data.H_ORDER4[rng.permutation(4)])
    n = normalize(m)
    assert n.is_normalized
    assert is_gh(n)[0]
    again = normalize(n)
    assert (again.entries == n.entries).all()


def test_transpose_is_gh(gf3, gf4):
    for m in (GHMatrix(gf4, paper_data.H_ORDER4),
              GHMatrix(gf3, paper_data.H_ORDER9)):
        assert is_gh(m.transpose())[0]


def test_transpose_of_normalized_planar_is_gh(dphi43):
    m = matrix_of(dphi43)
    assert is_gh(m.transpose())[0]


def test_kronecker_sum_recursion(gf3):
    s = sylvester(gf3)
    m = kronecker_sum(s, s)
    assert (m.entries == paper_data.H_ORDER9).all()


def test_kronecker_sum_degenerate_block(gf3):
    s = sylvester(gf3)
    one = GHMatrix(gf3, np.zeros((1, 1), dtype=np.int64))
    m = kronecker_sum(s, [one, one, one])
    assert (m.entries == s.entries).all()


def test_kronecker_sum_distinct_blocks(gf3):
    s = sylvester(gf3)
    blocks = [sylvester_power(gf3, 1), sylvester(gf3), sylvester(gf3)]
    m = kronecker_sum(s, blocks)
    assert m.v == 9
    assert is_gh(m)[0]


def test_kronecker_sum_errors(gf3, gf4):
    s3 = sylvester(gf3)
    s4 = sylvester(gf4)
    with pytest.raises(FieldMismatch):
        kronecker_sum(s3, s4)
    with pytest.raises(OrderMismatch):
        kronecker_sum(s3, [s3, s3])


def test_kronecker_matches_tensor(s3_cocycle, s9_cocycle):
    m1 = kronecker_sum(matrix_of(s3_cocycle), matrix_of(s9_cocycle))
    m2 = matrix_of(tensor(s3_cocycle, s9_cocycle))
    assert (m1.entries == m2.entries).all()


def test_mixed_lifted_kronecker_is_not_gh(s3_cocycle, dphi43, gf81):
    """Kronecker-summing a lifted GF(3) factor with a GF(81) one yields a
    valid 243x243 matrix whose code obeys the rank law, but it is not a
    GH(81,3): rows from the same planar coset differ by a GF(3)-valued
    pattern that cannot cover GF(81) flatly."""
    from ghfp.cocycles import lift

    lifted = matrix_of(lift(s3_cocycle, gf81))
    m = kronecker_sum(lifted, matrix_of(dphi43))
    assert m.v == 243
    ok, witness = is_gh(m)
    assert not ok
    i, j, u, count = witness
    assert count != m.v // m.q


def test_planar_coboundary_matrix_is_gh_81(dphi43):
    m = matrix_of(dphi43)
    ok, _ = is_gh(m)
    assert ok and m.lam == 1


def _scan_pairs(M):
    """Independent oracle: the first failing row pair, one pair at a time."""
    f, E, lam = M.field, M.entries, M.v // M.q
    for i in range(M.v):
        for j in range(i + 1, M.v):
            counts = np.bincount(f.vsub(E[j], E[i]), minlength=M.q)
            bad = np.flatnonzero(counts != lam)
            if bad.size:
                return False, (i, j, int(bad[0]), int(counts[bad[0]]))
    return True, None


@pytest.fixture(scope="module")
def grouped_matrices(corpus, non_cocycles, gf3):
    """name -> a matrix that carries a group: every cocycle fixture,
    coboundaries over Z_3^k and S_3 and their transposes, the non-cocycles,
    single-entry corruptions, non-normalized matrices, and tables over Z_3^2
    whose rows are balanced but that are neither GH nor cocycles (row 0
    passes, a later pair fails)."""
    from ghfp import Group, coboundary
    from test_groups import s3_table

    rng = np.random.default_rng(1)
    out = {name: matrix_of(psi) for name, psi in corpus.items()}
    out.update({f"nc_{name}": matrix_of(psi)
                for name, psi in non_cocycles.items()})
    for name, group in [("z3^2", elementary_abelian(3, 2)),
                        ("z3^3", elementary_abelian(3, 3)),
                        ("s3", Group(s3_table()))]:
        for k in range(3):
            M = matrix_of(coboundary(rng.integers(0, 3, size=group.order),
                                     group, gf3))
            out[f"cob_{name}_{k}"] = M
            out[f"cob_{name}_{k}_T"] = M.transpose()
    for name in ("s9", "s8", "dphi43", "order4", "s3xs9"):
        M = out[name]
        for r, c in [(1 + int(rng.integers(M.v - 1)),
                      1 + int(rng.integers(M.v - 1))), (0, M.v - 1)]:
            t = M.entries.copy()
            t[r, c] = M.field.add(int(t[r, c]), 1)
            out[f"{name}_corrupt_{r}_{c}"] = GHMatrix(M.field, t, M.group)
        perm = np.roll(np.arange(M.v), 1)
        out[f"{name}_rows_rolled"] = GHMatrix(M.field, M.entries[perm],
                                              M.group)
    for k in range(3):
        t = np.zeros((9, 9), dtype=np.int64)
        for r in range(1, 9):
            t[r, 1:] = rng.permutation([0, 0, 1, 1, 1, 2, 2, 2])
        out[f"balanced_{k}"] = GHMatrix(gf3, t, elementary_abelian(3, 2))
    return out


def test_is_gh_matches_exhaustive_scan(grouped_matrices):
    """Verdict and witness equal the full scan of the bare copy, and a
    pair-by-pair oracle; the inputs take both paths, and some fail only
    after row 0."""
    paths, late = set(), 0
    for name, M in grouped_matrices.items():
        bare = GHMatrix(M.field, M.entries)
        got = is_gh(M)
        assert got == is_gh(bare) == _scan_pairs(bare), name
        paths.add(M.cocycle() is not None)
        late += not got[0] and got[1][0] > 0
    assert paths == {True, False} and late >= 3


def test_is_gh_witness_in_a_later_row_block():
    """At v = 729 a row pair scan runs in row blocks of 89; a corrupted row
    500 is named exactly, with and without the group."""
    M = sylvester_power(Field(3, 1), 6)
    t = M.entries.copy()
    t[500, 300] = (t[500, 300] + 1) % 3
    for m in (GHMatrix(M.field, t, M.group), GHMatrix(M.field, t)):
        ok, (i, j, u, count) = is_gh(m)
        assert not ok and (i, j) == (0, 500)
        assert int((t[500] == u).sum()) == count != 243


def test_cocycle_is_decided_once(monkeypatch, s9_cocycle, non_cocycles):
    """is_gh then min_distance check the identity at most once per matrix,
    and not at all on matrix_of of a checked Cocycle."""
    from ghfp import Cocycle, GHCode, check_cocycle

    calls = []
    real = Cocycle._check_identity
    monkeypatch.setattr(Cocycle, "_check_identity",
                        lambda self: calls.append(1) or real(self))
    for psi in (s9_cocycle, non_cocycles["h9_over_z9"]):
        M = GHMatrix(psi.field, psi.table, psi.group)
        is_gh(M)
        GHCode(M).min_distance()
        assert len(calls) == 1
        assert (M.cocycle() is not None) == (psi is s9_cocycle)
        calls.clear()
    M = matrix_of(check_cocycle(s9_cocycle.table, s9_cocycle.group,
                                s9_cocycle.field))
    calls.clear()
    is_gh(M)
    GHCode(M).min_distance()
    assert not calls and M.cocycle() is not None
