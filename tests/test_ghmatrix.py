import numpy as np
import pytest

from ghfp import (
    Field,
    GHMatrix,
    elementary_abelian,
    gen_sylvester,
    is_gh,
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


def transpose(m: GHMatrix) -> GHMatrix:
    return GHMatrix(m.field, m.entries.T.copy(), group=m.group)


def test_transpose_is_gh(gf3, gf4):
    for m in (GHMatrix(gf4, paper_data.H_ORDER4),
              GHMatrix(gf3, paper_data.H_ORDER9)):
        assert is_gh(transpose(m))[0]


def test_transpose_of_normalized_planar_is_gh(dphi43):
    m = matrix_of(dphi43)
    assert is_gh(transpose(m))[0]


def kronecker_sum(H: GHMatrix, Bs) -> GHMatrix:
    """H (+) [B_1..B_v]: block (i, j) is h_ij + B_i, laid out row-major.

    A single B is replicated for every block row (the H (+) B case).
    """
    if isinstance(Bs, GHMatrix):
        Bs = [Bs] * H.v
    if len(Bs) != H.v:
        raise OrderMismatch(f"need {H.v} blocks, got {len(Bs)}")
    vp = Bs[0].v
    f = H.field
    for B in Bs:
        if B.field != f:
            raise FieldMismatch("blocks must share H's field")
        if B.v != vp:
            raise OrderMismatch("blocks must share one order")
    v = H.v
    out = np.empty((v * vp, v * vp), dtype=np.int64)
    for i in range(v):
        blk = f.vadd(H.entries[i][:, None, None], Bs[i].entries[None, :, :])
        out[i * vp:(i + 1) * vp, :] = blk.transpose(1, 0, 2).reshape(vp, v * vp)
    group = None
    if H.group is not None and all(B.group is Bs[0].group for B in Bs) \
            and Bs[0].group is not None:
        group = H.group.direct_product(Bs[0].group)
    return GHMatrix(f, out, group=group)


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
            out[f"cob_{name}_{k}_T"] = transpose(M)
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


@pytest.mark.parametrize("p,m,v", [(2, 1, 6), (3, 1, 7), (2, 2, 8),
                                   (3, 2, 9), (2, 8, 10), (7, 3, 12)])
def test_row_pair_counts_match_per_pair_histograms(p, m, v, monkeypatch):
    """Every histogram row_pair_counts yields equals the bincount of the
    pair's digitwise difference, on a random bare matrix: in one row block
    and in blocks of 1 and 3 rows, through the narrow subtraction table
    (uint8 up to q = 256, uint16 above) and through vsub's packed lanes
    above ADD_TABLE_MAX_Q; the oracle is the scalar digit loop Field.sub.
    The pairs (i, j), i in rows, come in row-major order, each once:
    range(v - 1) is every pair, range(1) the pairs of row 0, and a range
    from a later row starts there."""
    from ghfp import ghmatrix
    from ghfp.ghmatrix import row_pair_counts

    f = Field(p, m)
    H = np.random.default_rng(v).integers(0, f.q, size=(v, v))
    pairs = [(i, j) for i in range(v) for j in range(i + 1, v)]
    want = [np.bincount([f.add(x, f.neg(y))
                         for x, y in zip(H[j].tolist(), H[i].tolist())],
                        minlength=f.q) for i, j in pairs]

    def scan(field, rows):
        out = []
        for i, j0, counts in row_pair_counts(GHMatrix(field, H), rows):
            out += [((i, j0 + r), c) for r, c in enumerate(counts)]
        return out

    assert f._sub.dtype == (np.uint8 if f.q <= 256 else np.uint16)
    monkeypatch.setattr(Field, "ADD_TABLE_MAX_Q", f.q - 1)
    digits = Field(p, m)
    assert digits._sub is None
    for step in (None, 1, 3):
        if step:
            monkeypatch.setattr(ghmatrix, "block_rows", lambda n: step)
        for field in (f, digits):
            got = scan(field, range(v - 1))
            assert [ij for ij, _ in got] == pairs, (step, field._sub)
            assert all((c == w).all() for (_, c), w in zip(got, want))
            assert [ij for ij, _ in scan(field, range(1))] == pairs[:v - 1]
            assert [ij for ij, _ in scan(field, range(2, 4))] == \
                [(i, j) for i, j in pairs if i in (2, 3)]


def test_pairs_of_row_0_build_no_subtraction_table():
    """Row 0 of a normalized matrix is zero, so the pairs (0, j) count H[j]
    itself: a scan of range(1), as a cocycle's min_distance makes, builds
    no subtraction table; a scan past row 0 builds it once."""
    from ghfp import GHCode
    from ghfp.ghmatrix import row_pair_counts

    f = Field(3, 6)
    M = sylvester(f)
    assert GHCode(M).min_distance() == (f.q - 1, "theorem")
    assert "_sub" not in vars(f)
    rows = [counts for _, _, counts in row_pair_counts(M, range(1))]
    assert "_sub" not in vars(f)
    want = [np.bincount(row, minlength=f.q) for row in M.entries[1:]]
    assert (np.concatenate(rows) == want).all()
    for i, _, _ in row_pair_counts(M, range(M.v - 1)):
        if i == 1:
            break
    assert "_sub" in vars(f)


def test_is_gh_scan_witness_in_a_later_row_block():
    """At v = q = 343, with the uint16 subtraction table, the pair scan
    runs in row blocks of 191.  Swapping columns 5 and 100 of row 300 of
    S_343 keeps the pair (0, 300) balanced, and the first failing pair (1,
    300) lies in the second block of row 1, with and without the group."""
    M = sylvester(Field(7, 3))
    t = M.entries.copy()
    t[300, [5, 100]] = t[300, [100, 5]]
    want = _scan_pairs(GHMatrix(M.field, t))
    assert want[1][:2] == (1, 300)
    for m in (GHMatrix(M.field, t, M.group), GHMatrix(M.field, t)):
        assert is_gh(m) == want
    assert M.field._sub.dtype == np.uint16


def _swapped(M, r, rng):
    """M with two unequal entries of row r swapped: row r keeps its
    multiset, so a normalized row 0 still passes."""
    t = M.entries.copy()
    a, b = rng.choice(np.flatnonzero(t[r] != t[r, 0])), 0
    t[r, [a, b]] = t[r, [b, a]]
    return GHMatrix(M.field, t)


def _pair_rows(M):
    """Both rows of every unbalanced row pair, by the full pair scan."""
    from ghfp.ghmatrix import row_pair_counts

    out = np.zeros(M.v, dtype=bool)
    for i, j0, counts in row_pair_counts(M, range(M.v - 1)):
        bad = (counts != M.v // M.q).any(axis=1)
        out[i] |= bad.any()
        out[j0:j0 + len(bad)] |= bad
    return out


def test_characters_match_exhaustive_scan(grouped_matrices, monkeypatch,
                                          gf3):
    """On a bare copy of every fixture and on entry swaps at an early, a
    middle and the last row, in one row block and in blocks of 1 and 5
    rows: _unbalanced_rows, called whatever is_gh would pick, marks exactly
    the rows of the unbalanced pairs, so its least mark is row i of the
    pair-by-pair scan's witness; is_gh gives that scan's verdict and
    witness.  is_gh on a bare copy takes the character path for p = 2 and
    for odd p, and only when q < v."""
    from ghfp import ghmatrix

    rng = np.random.default_rng(3)
    cases = {}
    for name, M in grouped_matrices.items():
        bare = GHMatrix(M.field, M.entries)
        cases[name] = bare
        for r in sorted({1, bare.v // 2, bare.v - 1}):
            if r and (bare.entries[r] != bare.entries[r, 0]).any():
                cases[f"{name}_swap_{r}"] = _swapped(bare, r, rng)
    # over GF(3) at v = 6, with l = 7, a pair whose differences are five 1s
    # and a 2 (or five 2s and a 1) has one of its two transforms zero mod 7:
    # only the other orientation of the product finds it
    for r in ([1] * 5 + [2], [2] * 5 + [1]):
        t = np.zeros((6, 6), dtype=np.int64)
        t[1] = r
        cases[f"one_orientation_{r[0]}"] = GHMatrix(gf3, t)
    wants = {name: _scan_pairs(M) for name, M in cases.items()}
    pair_rows = {name: _pair_rows(M) for name, M in cases.items()}
    qs, late = set(), 0
    for step in (None, 1, 5):
        if step:
            monkeypatch.setattr(ghmatrix, "block_rows", lambda n: step)
        for name, M in cases.items():
            marked = ghmatrix._unbalanced_rows(M)
            assert (marked == pair_rows[name]).all(), (name, step)
            ok, witness = wants[name]
            assert marked.any() != ok, (name, step)
            assert ok or np.flatnonzero(marked)[0] == witness[0]
            assert is_gh(M) == wants[name], (name, step)
            qs.add(M.q)
            late += not ok and witness[0] > 0
    assert {2, 3, 4, 8, 81} <= qs and late >= 10

    real, taken = ghmatrix._unbalanced_rows, []
    monkeypatch.setattr(ghmatrix, "_unbalanced_rows",
                        lambda M: taken.append(M) or real(M))
    for name, M in cases.items():
        assert is_gh(M) == wants[name], name
    assert {2, 3} <= {M.field.p for M in taken}
    assert all(M.q < M.v for M in taken)  # v = q takes the scan


def test_characters_witness_in_a_later_row_block():
    """At v = 729 the characters run in row blocks of 89.  Swapping columns
    17 and 260 of row 500 of S_3^6 leaves every pair (i, 500), i < 243,
    balanced, as those rows agree there; the first failing pair is (243,
    500), in the third block, with and without the group."""
    from ghfp.ghmatrix import _unbalanced_rows, row_pair_counts

    M = sylvester_power(Field(3, 1), 6)
    t = M.entries.copy()
    t[500, [17, 260]] = t[500, [260, 17]]
    # the blocked scan of every row as the oracle
    i, j0, counts = next((i, j0, c) for i, j0, c in row_pair_counts(
        GHMatrix(M.field, t), range(728)) if (c != 243).any())
    r, u = map(int, np.argwhere(counts != 243)[0])
    want = (False, (i, j0 + r, u, int(counts[r, u])))
    assert np.flatnonzero(_unbalanced_rows(GHMatrix(M.field, t)))[0] == 243
    for m in (GHMatrix(M.field, t, M.group), GHMatrix(M.field, t)):
        got = is_gh(m)
        assert got == want
        ok, (i, j, u, count) = got
        assert not ok and (i, j) == (243, 500)
        assert count == int((M.field.vsub(t[500], t[243]) == u).sum()) != 243


def test_characters_witness_over_odd_p_in_two_row_blocks(monkeypatch):
    """Over GF(17) at v = 289 the characters run in row blocks of 226, each
    block against every column.  Swapping columns 20 and 37 of row 250 of
    S_17^2 (entries a + 3b and 2a + 3b in row (a, b)) leaves the pairs (i,
    250), i < 17, balanced; the first failing pair, (17, 250), is read in
    the first block as (17, 250) and in the second as (250, 17).  In blocks
    of 7 rows, row 17 lies in the third block."""
    from ghfp import ghmatrix

    M = sylvester_power(Field(17, 1), 2)
    t = M.entries.copy()
    t[250, [20, 37]] = t[250, [37, 20]]
    want = _scan_pairs(GHMatrix(M.field, t))
    assert want[1][:2] == (17, 250)
    for step in (None, 7):
        if step:
            monkeypatch.setattr(ghmatrix, "block_rows", lambda n: step)
        marked = ghmatrix._unbalanced_rows(GHMatrix(M.field, t))
        assert np.flatnonzero(marked)[0] == 17, step
        for m in (GHMatrix(M.field, t, M.group), GHMatrix(M.field, t)):
            assert is_gh(m) == want, step


def test_is_gh_scans_row_0_then_the_least_marked_row(monkeypatch):
    """A bare S_3^4 relabeled by x -> 7x mod 81 on rows and columns is no
    cocycle over Z_3^4, and q < v: is_gh scans only range(1), then lets
    the characters decide.  With two entries of row 70 swapped (row 0 is
    zero, so its pairs stay balanced) it scans range(1), then exactly the
    row _unbalanced_rows marks first, row 2, and names the witness of the
    full pair scan."""
    from ghfp import ghmatrix

    perm = np.arange(81) * 7 % 81
    S = sylvester_power(Field(3, 1), 4)
    M = GHMatrix(S.field, S.entries[perm][:, perm])
    assert M.cocycle() is None
    real, scanned = ghmatrix.row_pair_counts, []
    monkeypatch.setattr(ghmatrix, "row_pair_counts",
                        lambda m, rows: scanned.append(rows) or real(m, rows))
    assert is_gh(M) == (True, None) and scanned == [range(1)]
    t = M.entries.copy()
    a = int(np.flatnonzero(t[70] != t[70, 1])[0])
    t[70, [1, a]] = t[70, [a, 1]]
    bad = GHMatrix(S.field, t)
    first = int(np.flatnonzero(ghmatrix._unbalanced_rows(bad))[0])
    scanned.clear()
    got = is_gh(bad)
    assert scanned == [range(1), range(first, first + 1)]
    assert first == 2 and got == _scan_pairs(bad) == (False, (2, 70, 0, 29))


def test_cocycle_is_decided_once(monkeypatch, s9_cocycle, non_cocycles):
    """is_gh then min_distance, or rank, kernel, p_kernel and min_distance,
    check the identity at most once per matrix, and not at all on
    matrix_of of a checked Cocycle."""
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
        code = GHCode(GHMatrix(psi.field, psi.table, psi.group))
        code.rank()
        assert len(calls) == 1
        code.kernel()
        code.p_kernel()
        code.min_distance()
        assert len(calls) == 1
        calls.clear()
    M = matrix_of(check_cocycle(s9_cocycle.table, s9_cocycle.group,
                                s9_cocycle.field))
    calls.clear()
    is_gh(M)
    GHCode(M).min_distance()
    assert not calls and M.cocycle() is not None
