from fractions import Fraction

import numpy as np
import pytest

from ghfp import (
    Code,
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
    rank_of_rows,
    sylvester,
    sylvester_power,
)
from ghfp.errors import DuplicateRows, NotACodeword, NotNormalized

import paper_data


@pytest.fixture(scope="module")
def code4(gf4):
    return GHCode(GHMatrix(gf4, paper_data.H_ORDER4))


@pytest.fixture(scope="module")
def code9(gf3):
    return GHCode(GHMatrix(gf3, paper_data.H_ORDER9))


@pytest.fixture(scope="module")
def code81(dphi43):
    return GHCode(matrix_of(dphi43))


@pytest.fixture(scope="module")
def oracle_codes(gf3, gf4, gf81, s3_cocycle, s8_cocycle, non_cocycles):
    """name -> (small code, the mode min_distance must report).

    Linear codes, with or without a group; nonlinear cocyclic codes over
    Z_p^k and S_3 (random coboundaries, lifted S_3); the same tables without
    their group; a table linear over a group it is not a cocycle over; and
    tables whose group is set but that are no cocycle over it, one of them
    ("trap") with a least weight of 3 and two rows at distance 1.
    """
    from test_groups import s3_table

    rng = np.random.default_rng(0)
    s3 = Group(s3_table())
    cyclic6 = Group(np.add.outer(np.arange(6), np.arange(6)) % 6)
    trap = np.array([[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 2, 2],
                     [0, 0, 1, 1, 2, 1], [0, 1, 2, 0, 1, 2],
                     [0, 2, 1, 0, 2, 1], [0, 1, 2, 2, 1, 0]])
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
        "h4_over_z4": (matrix_of(non_cocycles["h4_over_z4"]), "theorem"),
        "gf5_over_z5": (matrix_of(non_cocycles["gf5_over_z5"]),
                        "exhaustive"),
        "trap": (GHMatrix(gf3, trap, group=cyclic6), "exhaustive"),
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
    assert code4.c1().tolist() == [[a] * 4 for a in range(4)]
    for w in code4.c1():
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


def test_kernel_published_values(code4, code9, code81):
    assert code4.kernel().dim == paper_data.KERNEL_ORDER4
    assert code9.kernel().dim == paper_data.KERNEL_ORDER9
    assert code81.kernel().dim == paper_data.KERNEL_PLANAR_4_3


def test_kernel_basis_spans_kernel(code9):
    res = code9.kernel()
    assert len(res.basis) == res.dim
    assert rank_of_rows(code9.field, res.basis) == res.dim


def test_kernel_matches_bruteforce_oracle(oracle_codes):
    """kernel, is_linear and the kernel basis against the brute-force Code;
    a linear code takes all three from its rank."""
    for name, (code, _) in oracle_codes.items():
        oracle = code.as_code().kernel()
        res = code.kernel()
        assert res.dim == oracle.dim, name
        assert code.is_linear() == (code.q ** oracle.dim == len(code)), name
        assert len(res.basis) == res.dim, name
        assert (res.basis[0] == 1).all(), name
        assert all(code.contains(b) for b in res.basis), name
        assert rank_of_rows(code.field, res.basis) == res.dim, name


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
        assert code.p_kernel() == code.as_code().p_kernel(), name
    assert oracle_codes["lift_s3_gf81"][0].p_kernel() == Fraction(5, 4)
    assert not oracle_codes["lift_s3_gf81"][0].is_linear()


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
        assert code.min_distance() == (code.as_code().min_distance().value,
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
    oracle = code.as_code()
    for w, r, a in zip(batch, rows, offsets):
        assert (r >= 0) == oracle.contains(w)
        if r >= 0:
            assert (f.vadd(a, code.H[r]) == w).all()
    assert (rows[:50] >= 0).all() and (rows[150:] < 0).any()
