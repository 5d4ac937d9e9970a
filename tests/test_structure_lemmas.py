"""Structural facts about rank and kernel that the constructions must obey."""

import numpy as np
import pytest

from ghfp import (
    Field,
    GHCode,
    matrix_of,
    multiplication_cocycle,
)
from ghfp.cocycles import coboundary, is_orthogonal
from ghfp.ghmatrix import sylvester_power_cocycle
from ghfp.groups import additive_group_of
from ghfp.planar import planar_coboundary

import paper_data
from test_fields import power


def _rank_kernel(psi):
    code = GHCode(matrix_of(psi))
    return code.rank(), code.kernel().dim


def test_rank_range_for_gh_codes(gf3, gf81, s9_cocycle, s8_cocycle, dphi43,
                                 order4_cocycle):
    """rank lies in {h+1, ..., floor(q^h / 2)} for a GH(q, q^(h-1)) code
    with q > 3 and h >= 1, or q = 3 and h >= 2."""
    cases = [
        (s9_cocycle, 3, 2),     # GH(3,3): order 9 = 3^2
        (s8_cocycle, 8, 1),
        (dphi43, 81, 1),
        (order4_cocycle, 4, 1),
    ]
    for psi, q, h in cases:
        rank, _ = _rank_kernel(psi)
        assert h + 1 <= rank <= (q ** h) // 2, (q, h, rank)


def test_kernel_dichotomy_char3_lambda1():
    """GH(3^a, 1) codes have kernel 1 or 2, and kernel 2 forces linearity;
    a > 1 forces rank >= 2."""
    # linear representative: the multiplication table of GF(27)
    s27 = multiplication_cocycle(Field(3, 3))
    code = GHCode(matrix_of(s27))
    assert code.kernel().dim == 2
    assert code.is_linear()
    assert code.rank() == 2
    # nonlinear representative: the planar coboundary
    d = GHCode(matrix_of(planar_coboundary(4, 3)))
    assert d.kernel().dim == 1
    assert not d.is_linear()
    assert d.rank() >= 2


def test_sylvester_power_rank_kernel_ladder(gf3):
    """rank(C_{S^l}) = ker(C_{S^l}) = l + 1."""
    for l in (1, 2, 3):
        psi = sylvester_power_cocycle(gf3, l)
        rank, ker = _rank_kernel(psi)
        assert rank == ker == l + 1, l


def test_adding_a_sylvester_factor_keeps_nonlinearity(gf81, dphi43):
    """S_q (+) H with H nonlinear: rank grows by 1, kernel becomes 2."""
    from ghfp import kronecker_sum

    sq = matrix_of(multiplication_cocycle(gf81))
    h = matrix_of(dphi43)
    combined = GHCode(kronecker_sum(sq, h))
    base = GHCode(h)
    assert combined.rank() == base.rank() + 1
    assert combined.kernel().dim == 2
    assert combined.rank() > combined.kernel().dim  # still nonlinear


def test_fingerprint_symmetry_b_and_2a_minus_b(gf81):
    """The coboundaries at b and 2a-b give codes with one fingerprint.

    For a = 4 the mirror of b = 3 is b = 5, outside the restricted range
    but still planar; its code must repeat the (11, 1) fingerprint.
    """
    mirror_exponent = (3 ** 5 + 1) // 2  # b = 2*4 - 3 = 5
    phi = np.array([power(gf81, g, mirror_exponent) for g in range(81)],
                   dtype=np.int64)
    psi = coboundary(phi, additive_group_of(gf81), gf81)
    assert is_orthogonal(psi)[0]
    assert _rank_kernel(psi) == (11, 1)
    assert _rank_kernel(planar_coboundary(4, 3, gf81)) == (11, 1)
