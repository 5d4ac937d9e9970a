import itertools
from fractions import Fraction

import numpy as np
import pytest

from ghfp import (
    Code,
    Cocycle,
    Field,
    GHCode,
    GHMatrix,
    Group,
    coboundary,
    code_from_gh,
    elementary_abelian,
    gen_sylvester,
    lift,
    matrix_of,
    multiplication_cocycle,
    normalize,
    rank_of_rows,
    sylvester,
    sylvester_power,
    tensor,
)
from ghfp.errors import DuplicateRows, NotACodeword, NotNormalized
from ghfp.planar import planar_coboundary

import paper_data


def as_code(code: GHCode) -> Code:
    """The brute-force oracle of a GHCode: all of its qv words as a Code."""
    return Code(code.field, code.words())


@pytest.fixture(scope="module")
def code4(gf4):
    return GHCode(GHMatrix(gf4, paper_data.H_ORDER4))


@pytest.fixture(scope="module")
def code9(gf3):
    return GHCode(GHMatrix(gf3, paper_data.H_ORDER9))


@pytest.fixture(scope="module")
def code81(dphi43):
    return GHCode(matrix_of(dphi43))


def paley12() -> GHMatrix:
    """The normalized Paley matrix of order 12 over GF(2) (+1 as 0, -1 as
    1): I + S with S = [[0, 1], [-1, Q]] and Q[i, j] the quadratic
    character of j - i mod 11, a GH(2, 6) that carries no group."""
    chi = np.array([0] + [1 if pow(x, 5, 11) == 1 else -1
                          for x in range(1, 11)])
    S = np.zeros((12, 12), dtype=np.int64)
    S[0, 1:], S[1:, 0] = 1, -1
    S[1:, 1:] = chi[np.subtract.outer(np.arange(11), np.arange(11)) % 11].T
    signs = np.eye(12, dtype=np.int64) + S
    return normalize(GHMatrix(Field(2, 1), (1 - signs) // 2))


@pytest.fixture(scope="module")
def oracle_codes(gf3, gf4, gf81, s3_cocycle, s8_cocycle, non_cocycles):
    """name -> (small code, the mode min_distance must report).

    Linear codes, with or without a group; nonlinear cocyclic codes over
    Z_p^k and S_3 (random coboundaries, lifted S_3, and S_9 (+) S_3 over
    GF(9), whose kernel keeps 9 of its 27 stable rows); the same tables
    without their group; a table linear over a group it is not a cocycle over;
    tables whose group is set but that are no cocycle over it, one of them
    ("trap") with a least weight of 3 and two rows at distance 1; the
    Paley matrix of order 12, nonlinear over GF(2); and a group of rows
    plus one row w ("lone_w", no GH matrix), so that w is the only row
    that moves each other row out of the code.
    """
    from test_groups import s3_table

    rng = np.random.default_rng(0)
    gf9 = Field(3, 2)
    s3 = Group(s3_table())
    cyclic6 = Group(np.add.outer(np.arange(6), np.arange(6)) % 6)
    trap = np.array([[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 2, 2],
                     [0, 0, 1, 1, 2, 1], [0, 1, 2, 0, 1, 2],
                     [0, 2, 1, 0, 2, 1], [0, 1, 2, 2, 1, 0]])
    # the 8 rows of S_2^3 and a zero column, then the unit vector e_8
    lone = np.zeros((9, 9), dtype=np.int64)
    lone[:8, :8] = sylvester_power(Field(2, 1), 3).entries
    lone[8, 8] = 1
    cases = {
        "order4": (GHMatrix(gf4, paper_data.H_ORDER4), "theorem"),
        "order8": (matrix_of(s8_cocycle), "theorem"),
        "order9": (GHMatrix(gf3, paper_data.H_ORDER9), "theorem"),
        "order16": (sylvester_power(gf4, 2), "theorem"),
        "order27": (sylvester_power(gf3, 3), "theorem"),
        "s2^4": (sylvester_power(Field(2, 1), 4), "theorem"),
        "d_2_1_3": (gen_sylvester(2, 1, 3), "theorem"),
        "lift_s3_gf9": (matrix_of(lift(s3_cocycle, Field(3, 2))), "theorem"),
        "lift_s3_gf81": (matrix_of(lift(s3_cocycle, gf81)), "theorem"),
        "s9_x_lift_s3": (matrix_of(tensor(multiplication_cocycle(gf9),
                                          lift(s3_cocycle, gf9))), "theorem"),
        "h4_over_z4": (matrix_of(non_cocycles["h4_over_z4"]), "theorem"),
        "gf5_over_z5": (matrix_of(non_cocycles["gf5_over_z5"]),
                        "exhaustive"),
        "trap": (GHMatrix(gf3, trap, group=cyclic6), "exhaustive"),
        "paley12": (paley12(), "exhaustive"),
        "lone_w": (GHMatrix(Field(2, 1), lone), "exhaustive"),
    }
    for name, group in [("z3^2", elementary_abelian(3, 2)),
                        ("z3^3", elementary_abelian(3, 3)), ("s3", s3)]:
        psi = coboundary(rng.integers(0, 3, size=group.order), group, gf3)
        cases[f"cob_{name}"] = (matrix_of(psi), "theorem")
        cases[f"cob_{name}_bare"] = (GHMatrix(gf3, psi.table), "exhaustive")
    return {name: (GHCode(M), mode) for name, (M, mode) in cases.items()}


def test_code_sizes(code4, code9, code81):
    assert len(code4) == 16 and code4.n == 4
    assert len(code9) == 27
    assert len(code81) == 3 ** 8 and code81.n == 81


def test_c1_block_of_order4_example(code4):
    # the coset of the all-zero row under constants: all four constant words
    c1 = np.repeat(np.arange(code4.q), code4.n).reshape(code4.q, code4.n)
    assert c1.tolist() == [[a] * 4 for a in range(4)]
    for w in c1:
        assert code4.contains(w)


def test_membership_shortcut_matches_explicit(code9):
    explicit = {w.tobytes() for w in code9.words()}
    assert len(explicit) == 27
    rng = np.random.default_rng(0)
    for _ in range(200):
        w = rng.integers(0, 3, size=9)
        assert code9.contains(w) == (w.astype(np.int64).tobytes() in explicit)
    for w in code9.words():
        assert code9.contains(w)


def test_code_from_gh_rejects_bad_input(gf3, gf4):
    with pytest.raises(NotNormalized):
        code_from_gh(GHMatrix(gf4, np.array(
            [[1, 1, 1, 1], [0, 1, 3, 2], [0, 3, 2, 1], [0, 2, 1, 3]])))
    with pytest.raises(DuplicateRows):
        code_from_gh(GHMatrix(gf3, np.zeros((3, 3), dtype=np.int64)))
    # GHCode alone, with one repeated row among distinct ones
    twice = paper_data.H_ORDER9.copy()
    twice[8] = twice[4]
    with pytest.raises(DuplicateRows):
        GHCode(GHMatrix(gf3, twice))


def test_rank_published_values(code4, code9, code81):
    assert code4.rank() == paper_data.RANK_ORDER4
    assert code9.rank() == paper_data.RANK_ORDER9
    assert code81.rank() == paper_data.RANK_PLANAR_4_3


def test_rank_order8(s8_cocycle):
    code = GHCode(matrix_of(s8_cocycle))
    assert code.rank() == paper_data.RANK_ORDER8
    assert code.kernel().dim == paper_data.KERNEL_ORDER8


def test_rank_shortcut_equals_full_span(code4, code9, s8_cocycle, code81):
    for code in (code4, code9, GHCode(matrix_of(s8_cocycle)), code81):
        full = rank_of_rows(code.field, code.words())
        assert code.rank() == full


def _assert_echelon_span(field, pivots, rows):
    """pivots are (column, row) in echelon order, led by the all-one vector
    at column 0, and span what rows span (reduced one row at a time)."""
    rank = rank_of_rows(field, rows)
    assert len(pivots) == rank
    assert pivots[0][0] == 0 and (pivots[0][1] == 1).all()
    cols = [c for c, _ in pivots]
    for k, (c, row) in enumerate(pivots):
        assert row[c] == 1 and not row[cols[:k]].any()
    assert rank_of_rows(field, [*rows, *(row for _, row in pivots)]) == rank


# the oracle_codes that carry a group they are a cocycle over; the others
# (order4, order9, every _bare table, h4_over_z4, gf5_over_z5, trap) are not
SPUN_UP = {"order8", "order16", "order27", "s2^4", "d_2_1_3", "lift_s3_gf9",
           "lift_s3_gf81", "s9_x_lift_s3", "cob_z3^2", "cob_z3^3", "cob_s3"}


@pytest.mark.parametrize("step", [None, 1, 4])
def test_span_pivots_match_elimination(oracle_codes, monkeypatch, step):
    """_span_pivots against elimination of all v + 1 rows: the same rank and
    row space, in echelon order.  Grouped cocycles spin up from 1 and the
    generators' rows under the generators' translations, pruned to
    non-decreasing words when the generators commute (the random S_3
    coboundary's do not); every other matrix reduces the all-one vector
    and every row, with no maps.  step shrinks the row blocks so that these
    orders run through many of them."""
    from ghfp import codes

    if step:
        monkeypatch.setattr(codes, "block_rows", lambda n: step)
    runs = []
    real = codes._spin_up
    monkeypatch.setattr(codes, "_spin_up", lambda f, rows, maps, commute: (
        runs.append((len(rows), len(maps), commute))
        or real(f, rows, maps, commute)))
    for name, (code, _) in oracle_codes.items():
        pivots = GHCode(code.matrix)._span_pivots()
        _assert_echelon_span(code.field, pivots, [code.ones, *code.H])
        if name in SPUN_UP:
            gens = code.matrix.group.generators()
            commute = name != "cob_s3"
            assert runs == [(1 + len(gens), len(gens), commute)], name
        else:
            assert runs == [(code.v + 1, 0, False)], name
        runs.clear()


def _generators_commute(group) -> bool:
    gens = group.generators()
    products = group.table[np.ix_(gens, gens)]
    return bool((products == products.T).all())


def _automorphism(rng, p: int, k: int) -> np.ndarray:
    """Index map of a random automorphism of Z_p^k (lexicographic indices):
    a random invertible matrix over GF(p) acting on the base-p digits."""
    place = p ** np.arange(k, dtype=np.int64)
    digits = np.arange(p ** k, dtype=np.int64)[:, None] // place % p
    while True:
        perm = digits @ rng.integers(0, p, size=(k, k)).T % p @ place
        if len(np.unique(perm)) == p ** k:
            return perm


class _CountingTake:
    """A stand-in for a lookup table that counts the rows it is asked to
    gather: on Lanes.pack, the rows _spin_up reduces."""

    def __init__(self, table):
        self.table, self.rows = table, 0

    def take(self, x):
        self.rows += len(x)
        return self.table.take(x)


def _spun_and_oracle(psi, monkeypatch):
    """_spin_up from 1 and psi's generators' rows under their translations
    at block sizes None, 1 and 4, each checked against _reduce_rows over 1
    and every row; returns the rank and the rows each run reduced."""
    from ghfp import codes

    f, group = psi.field, psi.group
    gens = group.generators()
    ones = np.ones(group.order, dtype=np.int64)
    rows = [ones, *psi.table[gens]]
    want = codes._reduce_rows(f, [ones, *psi.table])
    counted = []
    for step in (None, 1, 4):
        with monkeypatch.context() as m:
            if step:
                m.setattr(codes, "block_rows", lambda n: step)
            counter = _CountingTake(f._lanes.pack)
            m.setattr(f._lanes, "pack", counter)
            pivots = codes._spin_up(f, rows, group.table[gens],
                                    _generators_commute(group))
        _assert_echelon_span(f, pivots, [row for _, row in want])
        counted.append(counter.rows)
    assert len(set(counted)) == 1  # the block size changes no row's fate
    return len(want), counted[0]


def test_spin_up_on_proper_subspaces(monkeypatch):
    """Spin-up on codes of rank below v, where the pruned words matter:
    coboundaries of power maps x^e over GF(27), GF(16) and (every fifth e)
    GF(81), and of sparse phi (up to three nonzero values) over Z_p^k with
    coefficients in GF(3), GF(4), GF(5) and GF(9), each also relabeled by a
    random automorphism of Z_p^k.  The generators commute, so every run
    reduces at most 1 + k + k*(rank - 1) rows."""
    rng = np.random.default_rng(23)
    cases = []
    for f, exps in ((Field(3, 3), range(1, 27)), (Field(2, 4), range(1, 16)),
                    (Field(3, 4), range(1, 81, 5))):
        for e in exps:
            phi = np.zeros(f.q, dtype=np.int64)
            phi[1:] = f.exp[(f.log[1:] * e) % (f.q - 1)]
            cases.append((f, f.p, f.m, phi))
    for f, p, k in ((Field(3, 1), 3, 3), (Field(2, 2), 2, 4),
                    (Field(5, 1), 5, 2), (Field(3, 2), 3, 3)):
        for _ in range(6):
            phi = np.zeros(p ** k, dtype=np.int64)
            phi[rng.integers(1, p ** k, size=3)] = rng.integers(0, f.q, size=3)
            cases.append((f, p, k, phi))
    proper = 0
    for f, p, k, phi in cases:
        group = elementary_abelian(p, k)
        assert _generators_commute(group)
        table = coboundary(phi, group, f).table
        perm = _automorphism(rng, p, k)
        for t in (table, table[np.ix_(perm, perm)]):
            psi = Cocycle(group, f, t, check="skip")
            rank, reduced = _spun_and_oracle(psi, monkeypatch)
            assert reduced <= 1 + k + k * (rank - 1)
            proper += rank < group.order
    assert proper == 2 * len(cases)


def test_spin_up_takes_every_translate_without_commuting(monkeypatch):
    """Over S_3 and S_3 x Z_3, whose generators do not all commute (Z_3's
    commutes with both of S_3's), every candidate that becomes a pivot is
    translated by every map: 1 + k + k*(rank - 1) rows, as 1 is not
    translated.  Random full and sparse coboundaries, against the oracle."""
    from test_groups import s3_table

    rng = np.random.default_rng(7)
    s3 = Group(s3_table())
    s3_z3 = s3.direct_product(elementary_abelian(3, 1))
    for group, f in ((s3, Field(3, 1)), (s3_z3, Field(3, 1)),
                     (s3_z3, Field(2, 2))):
        gens = group.generators()
        products = group.table[np.ix_(gens, gens)]
        assert not _generators_commute(group)
        # Z_3's generator commutes with S_3's two, which do not commute
        assert (products == products.T).sum() == len(gens) ** 2 - 2
        for support in (group.order, 2):
            phi = np.zeros(group.order, dtype=np.int64)
            at = rng.permutation(group.order)[:support]
            phi[at] = rng.integers(0, f.q, size=support)
            rank, reduced = _spun_and_oracle(coboundary(phi, group, f),
                                             monkeypatch)
            k = len(gens)
            assert reduced == 1 + k + k * (rank - 1)


@pytest.mark.parametrize("a, b, most", [(4, 3, None), (6, 5, 150)])
def test_planar_spin_up_prunes_rows(monkeypatch, a, b, most):
    """GHCode.rank on P(4,3) and P(6,5) reduces fewer rows than the 1 + k +
    k*rank of translating every pivot by every map, and at most 150 at
    P(6,5), with the published ranks."""
    psi = planar_coboundary(a, b)
    code = GHCode(matrix_of(psi))
    counter = _CountingTake(psi.field._lanes.pack)
    with monkeypatch.context() as m:
        m.setattr(psi.field._lanes, "pack", counter)
        rank = code.rank()
    k = len(psi.group.generators())
    assert rank == paper_data.TABLE1[(a, b)][0]
    assert counter.rows < 1 + k + k * rank
    assert most is None or counter.rows <= most


@pytest.mark.parametrize("step", [None, 1, 4])
def test_spin_up_on_random_coboundaries(gf3, monkeypatch, step):
    """Spin-up from 1 and the generators' rows spans all rows of random
    coboundaries over Z_3^3, S_3 and Z_p^k of the field's characteristic
    (called directly: such a table can repeat rows, which GHCode rejects),
    with coefficients in GF(3), GF(4), GF(9), GF(7) and GF(25), whose lanes
    are 2, 3 and 4 bits wide.  With no maps, spin-up is plain elimination
    and returns exactly the pivots of _reduce_rows, row by row."""
    from ghfp import codes
    from test_groups import s3_table

    if step:
        monkeypatch.setattr(codes, "block_rows", lambda n: step)
    rng = np.random.default_rng(5)
    for f, k in ((gf3, 3), (Field(2, 2), 4), (Field(3, 2), 3),
                 (Field(7, 1), 2), (Field(5, 2), 2)):
        for group in (elementary_abelian(3, 3), Group(s3_table()),
                      elementary_abelian(f.p, k)):
            gens = group.generators()
            ones = np.ones(group.order, dtype=np.int64)
            for _ in range(6):
                psi = coboundary(rng.integers(0, f.q, size=group.order),
                                 group, f)
                rows = [ones, *psi.table[gens]]
                pivots = codes._spin_up(f, rows, group.table[gens])
                _assert_echelon_span(f, pivots, [ones, *psi.table])
                rows = [ones, *psi.table]
                got = codes._spin_up(f, rows, [])
                want = codes._reduce_rows(f, rows)
                assert [c for c, _ in got] == [c for c, _ in want]
                assert all((r == w).all() for (_, r), (_, w) in zip(got, want))


def test_stable_rows_swept_once(monkeypatch, oracle_codes):
    """kernel and p_kernel share one sweep, which draws no random numbers
    and finds the brute-force {i : C + f_i = C} on every nonlinear code;
    block sizes 1 and 4 run the sweep's and the scalar test's row blocks
    many times, and rows 1, ..., v - 1 are swept in both orders (lone_w's
    w is first or last).  The kernel basis spans the oracle's kernel."""
    from ghfp import codes

    nonlinear = {name: (code, as_code(code))
                 for name, (code, _) in oracle_codes.items()
                 if not code.is_linear()}
    kernels = {name: (oracle.kernel(), oracle.p_kernel())
               for name, (_, oracle) in nonlinear.items()}
    assert {"lift_s3_gf81", "trap", "paley12", "lone_w"} <= set(nonlinear)

    def no_rng(*args, **kwargs):
        raise AssertionError("the kernel draws no random numbers")

    monkeypatch.setattr(np.random, "default_rng", no_rng)
    searches = []
    real = codes._SortedRows.find
    monkeypatch.setattr(codes._SortedRows, "find", lambda self, batch: (
        searches.append(len(batch)) or real(self, batch)))
    for step in (None, 1, 4):
        if step:
            monkeypatch.setattr(codes, "block_rows", lambda n: step)
        for (name, (code, oracle)), flip in itertools.product(
                nonlinear.items(), (False, True)):
            H = code.H[[0, *range(code.v - 1, 0, -1)]] if flip else code.H
            fresh = GHCode(GHMatrix(code.field, H))
            want = [i for i in range(fresh.v)
                    if oracle._translate_fixes(fresh.H[i])]
            res = fresh.kernel()
            searched = len(searches)
            at = (name, step, flip)
            expected, p_kernel = kernels[name]
            assert fresh.p_kernel() == p_kernel, at
            assert len(searches) == searched, at
            assert fresh._stable_rows().tolist() == want, at
            assert res.dim == expected.dim, at
            assert len(res.basis) == res.dim, at
            assert rank_of_rows(fresh.field,
                                [*res.basis, *expected.basis]) == res.dim, at


def test_kernel_published_values(code4, code9, code81):
    assert code4.kernel().dim == paper_data.KERNEL_ORDER4
    assert code9.kernel().dim == paper_data.KERNEL_ORDER9
    assert code81.kernel().dim == paper_data.KERNEL_PLANAR_4_3


def test_kernel_basis_spans_kernel(code9):
    res = code9.kernel()
    assert len(res.basis) == res.dim
    assert rank_of_rows(code9.field, res.basis) == res.dim


def test_kernel_matches_bruteforce_oracle(oracle_codes, monkeypatch):
    """kernel, is_linear and the kernel basis against the brute-force Code,
    also in row blocks of 1 and 4 rows; a linear code takes all three from
    its rank."""
    from ghfp import codes

    oracles = {name: as_code(code).kernel()
               for name, (code, _) in oracle_codes.items()}
    for step in (None, 1, 4):
        if step:
            monkeypatch.setattr(codes, "block_rows", lambda n: step)
        for name, (code, _) in oracle_codes.items():
            code, oracle, at = GHCode(code.matrix), oracles[name], (name, step)
            res = code.kernel()
            assert res.dim == oracle.dim, at
            assert code.is_linear() == (code.q ** oracle.dim == len(code)), at
            assert len(res.basis) == res.dim, at
            assert (res.basis[0] == 1).all(), at
            assert all(code.contains(b) for b in res.basis), at
            assert rank_of_rows(code.field, res.basis) == res.dim, at
            assert rank_of_rows(code.field,
                                [*res.basis, *oracle.basis]) == res.dim, at


def test_kernel_of_planar_is_repetition_code(code81):
    res = code81.kernel()
    assert res.dim == 1
    assert (res.basis[0] == 1).all()


def test_linear_iff_rank_equals_kernel(code4, code9, code81, s8_cocycle):
    code8 = GHCode(matrix_of(s8_cocycle))
    assert code4.is_linear() and code9.is_linear() and code8.is_linear()
    assert not code81.is_linear()


def test_p_kernel_values(code4, code9, code81, s8_cocycle):
    # linear codes: the whole code translates onto itself
    assert code9.p_kernel() == 3
    assert GHCode(matrix_of(s8_cocycle)).p_kernel() == 2
    assert code4.p_kernel() == 2
    # nonlinear planar code: only the repetition cosets survive
    assert code81.p_kernel() == 1


def test_p_kernel_matches_bruteforce(oracle_codes):
    for name, (code, _) in oracle_codes.items():
        assert code.p_kernel() == as_code(code).p_kernel(), name
    assert oracle_codes["lift_s3_gf81"][0].p_kernel() == Fraction(5, 4)
    assert not oracle_codes["lift_s3_gf81"][0].is_linear()
    # K_p > K over GF(9): the kernel's multiples by x reject 18 stable rows
    mixed = oracle_codes["s9_x_lift_s3"][0]
    assert mixed.p_kernel() == Fraction(5, 2) and mixed.kernel().dim == 2
    assert len(mixed._stable_rows()) == 27


def test_p_kernel_bound(code4, code9, code81, s8_cocycle):
    """ker <= ker_p <= 1 + t/e with v*q = p^t * s, gcd(p, s) = 1."""
    for code in (code4, code9, code81, GHCode(matrix_of(s8_cocycle))):
        p, e = code.field.p, code.field.m
        n = len(code)
        t = 0
        while n % p == 0:
            n //= p
            t += 1
        bound = Fraction(e + t, e)
        assert code.kernel().dim <= code.p_kernel() <= bound


def test_p_kernel_can_be_fractional(s3_cocycle, gf81):
    """A lifted GF(3) code over GF(81) has a p-kernel that is additive but
    not GF(81)-closed; its normalized dimension is 5/4."""
    from ghfp.cocycles import lift

    code = GHCode(matrix_of(lift(s3_cocycle, gf81)))
    assert code.p_kernel() == Fraction(5, 4)
    assert code.kernel().dim == 1


def test_min_distance_published(code4, code9, code81):
    # linear (code4, code9) or cocyclic (code81): the weights decide
    assert code4.min_distance() == (3, "theorem")
    assert code9.min_distance() == (6, "theorem")
    assert code81.min_distance() == (80, "theorem")


def test_min_distance_matches_bruteforce(oracle_codes):
    for name, (code, mode) in oracle_codes.items():
        assert code.min_distance() == (as_code(code).min_distance().value,
                                       mode), name
    # the trap's weights say 3, its rows 1 and 2 are at distance 1: trusting
    # the group it carries would give the weights
    trap = oracle_codes["trap"][0]
    words = trap.words()
    assert min(int((w != 0).sum()) for w in words if w.any()) == 3
    assert trap.min_distance().value == 1


def test_min_distance_modes(gf3):
    # a linear code of 729 words takes its distance from its weights; the
    # mode says how the exact value was reached, not whether it is exact
    code = GHCode(sylvester_power(gf3, 5))
    assert len(code) == 729
    assert code.min_distance() == (243 - 81, "theorem")


def test_row_of_and_not_a_codeword(code9):
    assert code9.row_of(paper_data.H_ORDER9[4]) == 4
    shifted = (paper_data.H_ORDER9[4] + 1) % 3
    assert code9.row_of(shifted) == 4
    with pytest.raises(NotACodeword):
        code9.row_of(np.array([0, 1, 0, 0, 0, 0, 0, 0, 0]))


def test_generic_code_duplicate_rejected(gf3):
    with pytest.raises(DuplicateRows):
        Code(gf3, np.zeros((2, 3), dtype=np.int64))


@pytest.fixture(scope="module")
def index_codes(gf3, gf4, gf8, dphi43):
    """Codes of orders 4 to 81, plus a bare normalized matrix with distinct
    rows that is neither GH nor cocyclic."""
    from ghfp import multiplication_cocycle

    bare = np.random.default_rng(3).integers(0, 5, size=(7, 7))
    bare[0] = 0
    bare[:, 0] = 0
    return {
        "order4": GHCode(GHMatrix(gf4, paper_data.H_ORDER4)),
        "order8": GHCode(matrix_of(multiplication_cocycle(gf8,
                                                          "primitive-power"))),
        "order9": GHCode(GHMatrix(gf3, paper_data.H_ORDER9)),
        "order16": GHCode(sylvester_power(gf4, 2)),
        "order27": GHCode(sylvester_power(gf3, 3)),
        "order81": GHCode(matrix_of(dphi43)),
        "bare": GHCode(GHMatrix(Field(5, 1), bare)),
    }


@pytest.mark.parametrize("name", ["order4", "order8", "order9", "order16",
                                  "order27", "order81", "bare"])
def test_index_matches_code_oracle(index_codes, name):
    code = index_codes[name]
    f, v, q = code.field, code.v, code.q
    words = code.words()
    rows, offsets = code.index(words)
    # words()[a*v + r] is a*1 + f_r
    assert rows.tolist() == list(range(v)) * q
    assert offsets.tolist() == [a for a in range(q) for _ in range(v)]
    # members, random vectors and codewords with one entry changed, mixed
    rng = np.random.default_rng(1)
    changed = words[rng.integers(0, len(words), size=100)]
    at = (np.arange(100), rng.integers(0, v, size=100))
    changed[at] = f.vadd(changed[at], rng.integers(1, q, size=100))
    batch = np.concatenate([words[rng.integers(0, len(words), size=50)],
                            rng.integers(0, q, size=(100, v)), changed])
    rows, offsets = code.index(batch)
    oracle = as_code(code)
    for w, r, a in zip(batch, rows, offsets):
        assert (r >= 0) == oracle.contains(w)
        if r >= 0:
            assert (f.vadd(a, code.H[r]) == w).all()
    assert (rows[:50] >= 0).all() and (rows[150:] < 0).any()
