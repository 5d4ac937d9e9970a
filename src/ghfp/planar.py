"""Planar power maps g -> g^((3^b+1)/2) over GF(3^a) and their coboundaries.

For gcd(a, b) = 1 with b odd these are planar: every difference map
g -> phi(g+h) - phi(g) with h != 0 is a bijection, which is exactly the
orthogonality of the coboundary.  The admissible range is cut to
3 <= b <= a-1 because b and 2a-b give equivalent codes.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional

import numpy as np

from .cocycles import Cocycle, coboundary, is_orthogonal
from .codes import GHCode
from .errors import InadmissibleParams, NotOrthogonal
from .fields import Field
from .ghmatrix import matrix_of
from .groups import additive_group_of

# Largest field degree attempted by table1 without / with the --big flag.
BUDGET_DEFAULT_MAX_A = 6
BUDGET_BIG_MAX_A = 7


def admissible_pairs(a: int) -> List[int]:
    """All b with gcd(a, b) = 1, b odd, 3 <= b <= a-1."""
    if a < 4:
        return []
    return [b for b in range(3, a, 2) if math.gcd(a, b) == 1]


def planar_exponent(b: int) -> int:
    return (3 ** b + 1) // 2


def _check_params(a: int, b: int):
    if a < 4 or b < 3 or b > a - 1 or b % 2 == 0 or math.gcd(a, b) != 1:
        raise InadmissibleParams(f"(a, b) = ({a}, {b}) is not admissible")


def planar_map(a: int, b: int, field: Optional[Field] = None) -> np.ndarray:
    """phi(g) = g^((3^b+1)/2) as an array over all encodings of GF(3^a)."""
    _check_params(a, b)
    if field is None:
        field = Field(3, a)
    if field.p != 3 or field.m != a:
        raise InadmissibleParams(f"field is not GF(3^{a})")
    e = planar_exponent(b)
    out = np.zeros(field.q, dtype=np.int64)
    ks = (field.log[1:] * e) % (field.q - 1)
    out[1:] = field.exp[ks]
    return out


def planar_coboundary(a: int, b: int, field: Optional[Field] = None) -> Cocycle:
    """The coboundary of phi_(a,b) over the additive group of GF(3^a) in
    encoding order; orthogonal for admissible parameters, and a cocycle by
    theorem (coboundary over a group)."""
    if field is None:
        field = Field(3, a)
    phi = planar_map(a, b, field)
    group = additive_group_of(field, "encoding")
    return coboundary(phi, group, field)


def conjectured_rank(b: int) -> int:
    """The reported rank pattern 3 * 2^(b-1) - 1; table1 evaluates the rank
    and reports this value beside it.

    It is a theorem.  Over GF(p^m), the code of the coboundary of
    phi(x) = x^e, 1 <= e <= q - 1, has rank prod(e_i + 1) - 1 over the
    base-p digits e_i of e.  Write d <= e when every base-p digit of d is
    at most the matching digit of e.  By Lucas's theorem (1878) the
    binomial C(e, d) is nonzero mod p exactly when d <= e, so the row of g,
    phi(g + x) - phi(g) - phi(x), is the sum of C(e, d) g^(e-d) x^d over
    the d <= e with 0 < d < e.  The maps g -> g^k, 0 <= k < q, are
    linearly independent functions on GF(q), and the exponents e - d are
    distinct and below q, so the rows span exactly the monomials x^d with
    d <= e and 0 < d < e.  With the all-one vector x^0 the span is that of
    the monomials x^d with d <= e and d != e; there are prod(e_i + 1) - 1 of
    them, and they are independent.  The planar exponent (3^b + 1) / 2 has
    the base-3 digits 2, then b - 1 ones, so its rank is 3 * 2^(b-1) - 1.
    """
    return 3 * 2 ** (b - 1) - 1


def table1(a_min: int = 4, a_max: int = 7,
           big: bool = False) -> List[Dict[str, object]]:
    """Rank/kernel of the codes C_(a,b) for every admissible pair in range.

    Cells above the budget (a > 6, or a > 7 with big) are reported as
    skipped rather than attempted; inadmissible (a, b) combinations are
    labeled as such so the table shape matches the published one.
    """
    cap = BUDGET_BIG_MAX_A if big else BUDGET_DEFAULT_MAX_A
    out: List[Dict[str, object]] = []
    for a in range(a_min, a_max + 1):
        bs = admissible_pairs(a)
        for b in range(3, a, 2):
            cell: Dict[str, object] = {"a": a, "b": b, "v": 3 ** a}
            out.append(cell)
            if b not in bs:
                cell["status"] = "inadmissible"
            elif a > cap:
                cell["status"] = "skipped(budget)"
            else:
                t0 = time.perf_counter()
                cell.update(_table1_cell(a, b))
                cell["seconds"] = round(time.perf_counter() - t0, 3)
                cell["status"] = "ok"
    return out


def _table1_cell(a: int, b: int) -> Dict[str, object]:
    psi = planar_coboundary(a, b)
    ok, witness = is_orthogonal(psi)
    if not ok:
        raise NotOrthogonal(f"coboundary unexpectedly not orthogonal: {witness}")
    code = GHCode(matrix_of(psi))
    rank = code.rank()
    ker = code.kernel().dim
    return {
        "rank": rank,
        "kernel": ker,
        "conjecture_r": conjectured_rank(b),
        "match": rank == conjectured_rank(b),
    }
