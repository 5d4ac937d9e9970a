import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ghfp import (
    Field,
    check_cocycle,
    elementary_abelian,
    lift,
    multiplication_cocycle,
    tensor,
    trivial_cocycle,
)
from ghfp.ghmatrix import sylvester_power_cocycle
from ghfp.planar import planar_coboundary

import paper_data


@pytest.fixture(scope="session")
def bench_recipes():
    """(recipes, build): every construction recipe of the benchmark's three
    workloads (perfbench/workloads.py), and build(recipe), the benchmark's
    own construction of one, untraced.  The fields are built here, so a
    build constructs only groups and cocycles."""
    sys.path.insert(0, str(Path(__file__).parent.parent / "perfbench"))
    import workloads

    tr = SimpleNamespace(call=lambda name, fn, *args, **kw: fn(*args, **kw))
    recipes = list(dict.fromkeys(workloads.Fingerprint.KINDS
                                 + [kind[0] for kind in workloads.Ingest.KINDS]
                                 + workloads.Structure.KINDS))
    fields = workloads.make_fields(recipes, tr)
    return recipes, lambda recipe: workloads.build(recipe, fields, tr)


@pytest.fixture(scope="session")
def gf3():
    return Field(3, 1)


@pytest.fixture(scope="session")
def gf4():
    return Field(2, 2)


@pytest.fixture(scope="session")
def gf8():
    return Field(2, 3)


@pytest.fixture(scope="session")
def gf81():
    return Field(3, 4, paper_data.POLY_81)


@pytest.fixture(scope="session")
def s3_cocycle(gf3):
    return multiplication_cocycle(gf3)


@pytest.fixture(scope="session")
def s9_cocycle(gf3):
    """S^2: the order-9 Sylvester-type cocycle of the worked example."""
    return sylvester_power_cocycle(gf3, 2)


@pytest.fixture(scope="session")
def s8_cocycle(gf8):
    return multiplication_cocycle(gf8, "primitive-power")


@pytest.fixture(scope="session")
def order4_cocycle(gf4):
    return check_cocycle(paper_data.H_ORDER4, elementary_abelian(2, 2), gf4)


@pytest.fixture(scope="session")
def dphi43(gf81):
    return planar_coboundary(4, 3, gf81)


@pytest.fixture(scope="session")
def loop5():
    """A Latin square of order 5 with two-sided identity 0 that is not
    associative: a loop, not a group."""
    return np.array([[0, 1, 2, 3, 4],
                     [1, 0, 3, 4, 2],
                     [2, 4, 0, 1, 3],
                     [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]])


@pytest.fixture(scope="session")
def loop_tables():
    """Loops of order 8 and 6 (Latin, identity 0, not associative) with
    F_2 tables, normalized and not cocycles, that keep the identity at
    each loop's one greedy generator, 1: Light's generator test, sound
    over a group only, would pass them.  Associativity fails at (1, 1, 1)
    in both.  T8 is orthogonal row by row, but its matrix is no GH."""
    L8 = [[0, 1, 2, 3, 4, 5, 6, 7], [1, 5, 3, 4, 7, 2, 0, 6],
          [2, 7, 1, 0, 6, 4, 3, 5], [3, 2, 0, 1, 5, 6, 7, 4],
          [4, 3, 5, 6, 1, 7, 2, 0], [5, 0, 6, 7, 2, 3, 4, 1],
          [6, 4, 7, 5, 3, 0, 1, 2], [7, 6, 4, 2, 0, 1, 5, 3]]
    T8 = [[0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 1, 1, 1],
          [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 0, 1, 1],
          [0, 1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 1, 0, 1, 0],
          [0, 1, 0, 0, 1, 1, 1, 0], [0, 1, 1, 0, 0, 0, 1, 1]]
    L6 = [[0, 1, 2, 3, 4, 5], [1, 3, 0, 4, 5, 2], [2, 4, 1, 5, 0, 3],
          [3, 2, 5, 0, 1, 4], [4, 5, 3, 1, 2, 0], [5, 0, 4, 2, 3, 1]]
    T6 = [[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 0, 0], [0, 1, 1, 1, 1, 0],
          [0, 1, 1, 1, 0, 1], [0, 1, 0, 0, 1, 0], [0, 1, 1, 0, 0, 0]]
    return {"L8": (np.array(L8), np.array(T8)),
            "L6": (np.array(L6), np.array(T6))}


@pytest.fixture(scope="session")
def non_cocycles(gf3, gf4):
    """Orthogonal tables with distinct rows read over the cyclic group, where
    none is a cocycle.  In gf2_over_z4, C_H is closed under star but its star
    table is not a Latin square; in the others some x*y leaves C_H, and the
    GF(5) one has an intersection profile that changes under a -> -a."""
    from ghfp import Cocycle, Group

    def over_cyclic(table, field):
        a = np.arange(len(table))
        group = Group((a[:, None] + a[None, :]) % len(table))
        return Cocycle(group, field, table, check="skip")

    return {
        "h4_over_z4": over_cyclic(paper_data.H_ORDER4, gf4),
        "h9_over_z9": over_cyclic(paper_data.H_ORDER9, gf3),
        "gf2_over_z4": over_cyclic(np.array([[0, 0, 0, 0], [0, 0, 1, 1],
                                             [0, 1, 1, 0], [0, 1, 0, 1]]),
                                   Field(2, 1)),
        "gf5_over_z5": over_cyclic(np.array([[0, 0, 0, 0, 0], [0, 4, 2, 1, 3],
                                             [0, 3, 2, 4, 1], [0, 3, 1, 2, 4],
                                             [0, 2, 1, 3, 4]]),
                                   Field(5, 1)),
    }


@pytest.fixture(scope="session")
def corpus(gf3, s3_cocycle, s9_cocycle, s8_cocycle, order4_cocycle, dphi43, gf81):
    """Named cocycles for the equivalence suite: base constructions plus
    tensors (lifting GF(3) factors into GF(81) where fields differ)."""
    s3_in_81 = lift(s3_cocycle, gf81)
    return {
        "trivial_z3": trivial_cocycle(elementary_abelian(3, 1), gf3),
        "s3": s3_cocycle,
        "s9": s9_cocycle,
        "s8": s8_cocycle,
        "order4": order4_cocycle,
        "dphi43": dphi43,
        "s3xs3": tensor(s3_cocycle, s3_cocycle),
        "s3xs9": tensor(s3_cocycle, s9_cocycle),
        "trivialxs3": tensor(trivial_cocycle(elementary_abelian(3, 1), gf3),
                             s3_cocycle),
        "s3lift_x_dphi43": tensor(s3_in_81, dphi43),
    }
