import numpy as np
import pytest

from ghfp import Field, GHCode, additive_group_of, admissible_pairs, \
    coboundary, is_orthogonal, matrix_of, planar_coboundary, planar_map, \
    table1, trivial_cocycle
from ghfp.errors import InadmissibleParams, NotOrthogonal
from ghfp.planar import conjectured_rank, planar_exponent

import paper_data
from test_fields import power


def is_planar(phi: np.ndarray, field: Field) -> bool:
    """Oracle: g -> phi(g+h) - phi(g) is a bijection for every h != 0.

    Independent of the orthogonality scan; the two must agree.
    """
    q = field.q
    idx = np.arange(q, dtype=np.int64)
    for h in range(1, q):
        diff = field.vsub(phi[field.vadd(idx, h)], phi)
        if np.bincount(diff, minlength=q).max() != 1:
            return False
    return True


def test_admissible_pairs_match_table_shape():
    for a, bs in paper_data.TABLE1_ADMISSIBLE.items():
        assert admissible_pairs(a) == bs, a


def test_admissible_pairs_small_a():
    assert admissible_pairs(4) == [3]
    assert admissible_pairs(6) == [5]
    assert admissible_pairs(10) == [3, 7, 9]


def test_planar_exponent():
    assert planar_exponent(3) == 14
    assert planar_exponent(5) == 122


def test_planar_map_values(gf81):
    phi = planar_map(4, 3, gf81)
    assert phi[0] == 0 and phi[1] == 1
    # phi(g) = g^14; even exponent makes phi(-g) = phi(g)
    for g in range(81):
        assert phi[gf81.neg(g)] == phi[g]
        assert phi[g] == power(gf81, g, 14)


def test_planar_map_rejects_bad_params(gf81):
    with pytest.raises(InadmissibleParams):
        planar_map(4, 4, gf81)   # even b
    with pytest.raises(InadmissibleParams):
        planar_map(6, 3, gf81)   # gcd != 1 (and wrong field degree)
    with pytest.raises(InadmissibleParams):
        planar_map(5, 3, gf81)   # field degree mismatch


def test_planarity_oracle_agrees_with_orthogonality(gf81):
    phi = planar_map(4, 3, gf81)
    assert is_planar(phi, gf81)
    psi = planar_coboundary(4, 3, gf81)
    assert is_orthogonal(psi)[0]
    # a non-planar map must fail both routes: x^2 is not planar in char 3?
    # g -> g^2 has derivative map g -> (g+h)^2 - g^2 = 2gh + h^2, linear in g
    # and a bijection for h != 0, so squaring IS planar; use x^4 instead
    quartic = np.array([power(gf81, g, 4) for g in range(81)], dtype=np.int64)
    from ghfp.cocycles import coboundary
    from ghfp.groups import additive_group_of

    psi_bad = coboundary(quartic, additive_group_of(gf81), gf81)
    assert is_planar(quartic, gf81) == is_orthogonal(psi_bad)[0]


def test_coboundary_symmetric(dphi43):
    assert (dphi43.table == dphi43.table.T).all()


def test_planar_coboundary_code_values(dphi43):
    code = GHCode(matrix_of(dphi43))
    assert code.rank() == 11
    assert code.kernel().dim == 1


def test_planar_nonlinearity_from_kernel(dphi43):
    code = GHCode(matrix_of(dphi43))
    assert code.kernel().dim == 1 and code.rank() > 2
    assert not code.is_linear()


def test_conjectured_rank_values():
    assert [conjectured_rank(b) for b in (3, 5, 7, 9)] == [11, 47, 191, 767]


def _lucas_rank(e: int, p: int) -> int:
    """prod(e_i + 1) - 1 over the base-p digits e_i of e."""
    out = 1
    while e:
        out *= e % p + 1
        e //= p
    return out - 1


def _power_map_rank(field: Field, e: int) -> int:
    """Rank of the code of the coboundary of x -> x^e, by spin-up from 1
    and the generators' rows (called directly: for most e the table repeats
    rows, which GHCode rejects)."""
    from ghfp.codes import _spin_up

    q = field.q
    phi = np.zeros(q, dtype=np.int64)
    phi[1:] = field.exp[(field.log[1:] * e) % (q - 1)]
    group = additive_group_of(field, "encoding")
    psi = coboundary(phi, group, field)
    gens = group.generators()
    ones = np.ones(q, dtype=np.int64)
    return len(_spin_up(field, [ones, *psi.table[gens]], group.table[gens],
                        True))


def test_power_map_rank_is_lucas():
    """The rank theorem of conjectured_rank, for every exponent over GF(27)
    and GF(81) and for the planar exponents at a = 5 and a = 6."""
    for field in (Field(3, 3), Field(3, 4)):
        for e in range(1, field.q):
            assert _power_map_rank(field, e) == _lucas_rank(e, 3), (field, e)
    for a, b in [(5, 3), (6, 5)]:
        e = planar_exponent(b)
        assert _power_map_rank(Field(3, a), e) == _lucas_rank(e, 3) \
            == conjectured_rank(b)


def test_table1_desk_slice_small():
    cells = table1(4, 5)
    by_key = {(c["a"], c["b"]): c for c in cells}
    assert by_key[(4, 3)]["status"] == "ok"
    assert (by_key[(4, 3)]["rank"], by_key[(4, 3)]["kernel"]) == (11, 1)
    assert (by_key[(5, 3)]["rank"], by_key[(5, 3)]["kernel"]) == (11, 1)
    for cell in cells:
        if cell["status"] == "ok":
            assert cell["match"] is True


def test_table1_marks_inadmissible_and_budget():
    cells = table1(6, 8, big=False)
    by_key = {(c["a"], c["b"]): c for c in cells}
    assert by_key[(6, 3)]["status"] == "inadmissible"
    assert by_key[(6, 5)]["status"] == "ok"
    assert (by_key[(6, 5)]["rank"], by_key[(6, 5)]["kernel"]) == (47, 1)
    # a = 7 and 8 exceed the default budget
    assert by_key[(7, 3)]["status"] == "skipped(budget)"
    assert by_key[(8, 3)]["status"] == "skipped(budget)"


def test_table1_rejects_a_non_orthogonal_coboundary(monkeypatch):
    """A computed cell whose coboundary is not orthogonal is NotOrthogonal."""
    def trivial(a, b, field=None):
        field = field or Field(3, a)
        return trivial_cocycle(additive_group_of(field), field)

    monkeypatch.setattr("ghfp.planar.planar_coboundary", trivial)
    with pytest.raises(NotOrthogonal):
        table1(4, 4)


@pytest.mark.slow
def test_table1_big_flag_reaches_a7():
    cells = table1(7, 7, big=True)
    by_key = {(c["a"], c["b"]): c for c in cells}
    assert (by_key[(7, 3)]["rank"], by_key[(7, 3)]["kernel"]) == (11, 1)
    assert (by_key[(7, 5)]["rank"], by_key[(7, 5)]["kernel"]) == (47, 1)
