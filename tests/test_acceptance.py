"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every expected number here is pinned from the worked
examples and the published rank/kernel table; timing budgets are asserted,
not just reported.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from ghfp import (
    ExtensionGroup,
    Field,
    GHCode,
    GHMatrix,
    PropelinearCode,
    check_cocycle,
    cocycle_from_code,
    elementary_abelian,
    fh_intersection_profile,
    is_gh,
    is_orthogonal,
    lift,
    matrix_of,
    multiplication_cocycle,
    table1,
    tensor,
    transversal_rds_check,
    trivial_cocycle,
)
from ghfp.ghmatrix import sylvester_power_cocycle
from ghfp.monomial import (
    automorphisms_from_star,
    scalar_pairs_are_automorphisms,
)
from ghfp.propelinear import regular_subgroup_check
from ghfp.planar import planar_coboundary

import paper_data
from test_ghmatrix import kronecker_sum
from test_propelinear import star


def _lift(m, field):
    """m with its GF(p) entries read in GF(p^k), over the same group."""
    return GHMatrix(field, field.lift_from_prime(m.entries), group=m.group)


def _report(criterion, detail, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {criterion}: PASS ({detail}; {elapsed:.3f}s)")
    return elapsed


def _fail(criterion, exc):
    print(f"ACCEPTANCE {criterion}: FAIL ({exc})")
    raise exc


def _example_4_1():
    gf4 = Field(2, 2)
    psi = check_cocycle(paper_data.H_ORDER4, elementary_abelian(2, 2), gf4)
    return PropelinearCode(psi)


def test_criterion_1_example_order4():
    t0 = time.perf_counter()
    try:
        P = _example_4_1()
        code = P.code
        assert code.rank() == 2
        assert code.kernel().dim == 2
        assert P.group_invariants() == [4, 4]
        assert P.pi_group_invariants() == [2, 2]
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1, f"took {elapsed:.3f}s, budget 0.1s"
    except AssertionError as exc:
        _fail(1, exc)
    _report(1, "rank=2 kernel=2 group=[4,4] pi=[2,2]", t0)


def test_criterion_2_example_order9():
    t0 = time.perf_counter()
    try:
        P = PropelinearCode(sylvester_power_cocycle(Field(3, 1), 2))
        assert (P.H == paper_data.H_ORDER9).all()
        assert P.code.rank() == 3
        assert P.code.kernel().dim == 3
        assert P.group_invariants() == [3, 3, 3]
        assert P.pi_group_invariants() == [3, 3]
        assert P.pi_table_strings() == paper_data.PI_ORDER9
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.1, f"took {elapsed:.3f}s, budget 0.1s"
    except AssertionError as exc:
        _fail(2, exc)
    _report(2, "rank=3 kernel=3 pi table verbatim", t0)


def test_criterion_3_example_order8():
    t0 = time.perf_counter()
    try:
        P = PropelinearCode(multiplication_cocycle(Field(2, 3),
                                                   "primitive-power"))
        assert P.code.rank() == 2
        assert P.code.kernel().dim == 2
        assert P.group_invariants() == [4, 4, 4]
        assert P.pi_group_invariants() == [2, 2, 2]
        assert P.pi_table_strings() == paper_data.PI_ORDER8
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.5, f"took {elapsed:.3f}s, budget 0.5s"
    except AssertionError as exc:
        _fail(3, exc)
    _report(3, "rank=2 kernel=2 pi table verbatim", t0)


def test_criterion_4_example_order81():
    t0 = time.perf_counter()
    try:
        field = Field(3, 4, paper_data.POLY_81)
        P = PropelinearCode(planar_coboundary(4, 3, field))
        assert P.code.rank() == 11
        assert P.code.kernel().dim == 1
        assert P.group_invariants() == [3] * 8
        assert P.pi_group_invariants() == [3, 3, 3, 3]
        elapsed = time.perf_counter() - t0
        assert elapsed < 30, f"took {elapsed:.3f}s, budget 30s"
    except AssertionError as exc:
        _fail(4, exc)
    _report(4, "rank=11 kernel=1 group=Z3^8 pi=Z3^4", t0)


@pytest.mark.slow
def test_criterion_5_table1_desk_slice():
    t0 = time.perf_counter()
    try:
        cells = table1(4, 7, big=True)
        by_key = {(c["a"], c["b"]): c for c in cells}
        expected = {(4, 3): (11, 1), (5, 3): (11, 1), (6, 5): (47, 1),
                    (7, 3): (11, 1)}
        for key, (r, k) in expected.items():
            cell = by_key[key]
            assert cell["status"] == "ok", key
            assert (cell["rank"], cell["kernel"]) == (r, k), key
        for cell in cells:
            if cell["status"] == "ok":
                assert cell["match"] is True, (cell["a"], cell["b"])
        # entries with a >= 8 are out of desk scope entirely
        big_cells = table1(8, 8, big=True)
        assert all(c["status"] in ("inadmissible", "skipped(budget)")
                   for c in big_cells)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1800, f"took {elapsed:.1f}s, budget 30min"
    except AssertionError as exc:
        _fail(5, exc)
    _report(5, "(4,3)(5,3)(6,5)(7,3) -> (11,1)(11,1)(47,1)(11,1), "
               "conjecture matches", t0)


def _corpus():
    gf3 = Field(3, 1)
    gf81 = Field(3, 4, paper_data.POLY_81)
    s3 = multiplication_cocycle(gf3)
    s9 = sylvester_power_cocycle(gf3, 2)
    s8 = multiplication_cocycle(Field(2, 3), "primitive-power")
    dphi = planar_coboundary(4, 3, gf81)
    return {
        "trivial": trivial_cocycle(elementary_abelian(3, 1), gf3),
        "s3": s3,
        "s9": s9,
        "s8": s8,
        "dphi43": dphi,
        "s3 x s3": tensor(s3, s3),
        "s3 x s9": tensor(s3, s9),
        "trivial x s3": tensor(trivial_cocycle(elementary_abelian(3, 1), gf3), s3),
        "lift(s3) x dphi43": tensor(lift(s3, gf81), dphi),
        "lift(s9) x dphi43": tensor(lift(s9, gf81), dphi),
    }


def test_criterion_6_equivalence_suite():
    t0 = time.perf_counter()
    try:
        agree = {}
        for name, psi in _corpus().items():
            orth, _ = is_orthogonal(psi)
            gh, _ = is_gh(matrix_of(psi))
            rds, _ = transversal_rds_check(psi)
            assert orth == gh == rds, (name, orth, gh, rds)
            agree[name] = orth
        assert agree["trivial"] is False
        assert agree["lift(s3) x dphi43"] is False
        assert agree["dphi43"] is True and agree["s9"] is True
    except AssertionError as exc:
        _fail(6, exc)
    _report(6, f"orthogonal=gh=rds on {len(_corpus())} corpus cocycles", t0)


def test_criterion_7_kronecker_laws():
    t0 = time.perf_counter()
    try:
        gf3 = Field(3, 1)
        gf81 = Field(3, 4, paper_data.POLY_81)
        s3 = matrix_of(multiplication_cocycle(gf3))
        s9 = matrix_of(sylvester_power_cocycle(gf3, 2))
        dphi = matrix_of(planar_coboundary(4, 3, gf81))
        in81 = {"s3": _lift(s3, gf81), "s9": _lift(s9, gf81), "dphi": dphi}
        native = {"s3": s3, "s9": s9, "dphi": dphi}

        def rk(m):
            c = GHCode(m)
            return c.rank(), c.kernel().dim

        pairs = [("s3", "s3"), ("s3", "s9"), ("s9", "s3"), ("s9", "s9"),
                 ("s3", "dphi"), ("dphi", "s3"), ("s9", "dphi"),
                 ("dphi", "s9")]
        for a, b in pairs:
            mixed = "dphi" in (a, b) and a != b
            ma = in81[a] if mixed else native[a]
            mb = in81[b] if mixed else native[b]
            combined = kronecker_sum(ma, mb)
            assert combined.v <= 729
            ra, ka = rk(ma)
            rb, kb = rk(mb)
            rc, kc = rk(combined)
            assert rc == ra + rb - 1, (a, b, rc, ra, rb)
            assert kc == ka + kb - 1, (a, b, kc, ka, kb)
    except AssertionError as exc:
        _fail(7, exc)
    _report(7, "rank and kernel laws on 8 ordered pairs up to order 729", t0)


def _property_codes():
    corpus = _corpus()
    out = []
    for name in ("s3", "s9", "s8", "dphi43", "s3 x s9"):
        out.append((name, PropelinearCode(corpus[name])))
    gf4 = Field(2, 2)
    psi41 = check_cocycle(paper_data.H_ORDER4, elementary_abelian(2, 2), gf4)
    out.append(("order4", PropelinearCode(psi41)))
    return out


def test_criterion_8_property_suite():
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(0)
        for name, P in _property_codes():
            f, v, q = P.field, P.v, P.q
            gt = P.group.table
            # pi homomorphism: exhaustive over coset pairs (v^2 <= 1e4 here)
            for g in range(v):
                assert (gt[g][gt] == gt[gt[g]]).all(), name
            # fixed-point-free off C_1, identity on C_1
            assert (gt[0] == np.arange(v)).all(), name
            for g in range(1, v):
                assert not (gt[g] == np.arange(v)).any(), name
            # distance compatibility on random pairs
            for _ in range(100):
                x = P.encode(int(rng.integers(0, q)), int(rng.integers(0, v)))
                u = rng.integers(0, q, size=v)
                w = rng.integers(0, q, size=v)
                assert int((star(P, x, u) != star(P, x, w)).sum()) == \
                    int((u != w).sum()), name
            # kernel: C_1 inside, closed under star
            res = P.code.kernel()
            members = {P.code.row_of(b) for b in res.basis}
            ones = np.ones(v, dtype=np.int64)
            assert P.code.contains(ones) and 0 in members
            ker_rows = [i for i in range(v)
                        if _in_kernel(P, i)] if v <= 100 else None
            if ker_rows is not None:
                byte_set = set()
                for i in ker_rows:
                    for a in range(q):
                        byte_set.add(f.vadd(P.H[i],
                                            np.full(v, a, dtype=np.int64)
                                            ).tobytes())
                assert len(byte_set) == q ** res.dim, name
                sampled = list(byte_set)[:12]
                for xb in sampled:
                    for yb in sampled:
                        x = np.frombuffer(xb, dtype=np.int64)
                        y = np.frombuffer(yb, dtype=np.int64)
                        assert star(P, x, y).tobytes() in byte_set, name
            # kernel bound ker <= ker_p <= 1 + t/e with v*q = p^t*s
            p, e = f.p, f.m
            n, t = len(P.code), 0
            while n % p == 0:
                n //= p
                t += 1
            assert res.dim <= P.code.p_kernel() <= Fraction(e + t, e), name
            # minimum distance
            md = P.code.min_distance()
            assert md.value == v - v // q, name
            # intersection profile values
            prof = fh_intersection_profile(P)
            assert prof["ok"], (name, prof["witness"])
            assert set(int(x) for x in np.asarray(prof["values"])) <= \
                {v, 0, v // q}, name
    except AssertionError as exc:
        _fail(8, exc)
    _report(8, "pi/star laws, kernels, bounds, distances, profiles on 6 codes",
            t0)


def _in_kernel(P, i):
    f = P.field
    stable = True
    for a in range(1, P.q):
        y = f.vmul(a, P.H[i])
        if not P.code.contains(y):
            return False
        for k in range(P.v):
            if not P.code.contains(f.vadd(P.H[k], y)):
                return False
    return stable


def test_criterion_9_monomial_slice():
    t0 = time.perf_counter()
    try:
        small = []
        gf4 = Field(2, 2)
        small.append(PropelinearCode(check_cocycle(
            paper_data.H_ORDER4, elementary_abelian(2, 2), gf4)))
        small.append(PropelinearCode(sylvester_power_cocycle(Field(3, 1), 2)))
        small.append(PropelinearCode(multiplication_cocycle(
            Field(2, 3), "primitive-power")))
        for P in small:
            report = automorphisms_from_star(P, sample=None)
            assert report["pairs_verified"] == P.q * P.v
            assert report["homomorphism_ok"] and report["central_pairs_ok"]
            assert report["row_action_transitive"]
            assert scalar_pairs_are_automorphisms(P)
            assert regular_subgroup_check(P)
        planar = PropelinearCode(planar_coboundary(
            4, 3, Field(3, 4, paper_data.POLY_81)))
        report = automorphisms_from_star(planar, sample=512)
        assert report["pairs_verified"] >= 256  # 512 draws, dedup allowed
        assert report["homomorphism_ok"] and report["central_pairs_ok"]
        assert scalar_pairs_are_automorphisms(planar)
    except AssertionError as exc:
        _fail(9, exc)
    _report(9, "PMQ*=H full on 3 small codes, 512-sampled on the planar one",
            t0)


def test_criterion_10_round_trip():
    t0 = time.perf_counter()
    try:
        count = 0
        for name, psi in _corpus().items():
            if not (psi.v == 1 or psi.v % psi.q == 0):
                continue
            if not is_orthogonal(psi)[0]:
                continue
            P = PropelinearCode(psi)
            back = cocycle_from_code(P)
            assert is_orthogonal(back)[0], name
            E1, E2 = ExtensionGroup(psi), ExtensionGroup(back)
            assert E1.order == E2.order, name
            assert E1.abelian_invariants() == E2.abelian_invariants(), name
            count += 1
        assert count >= 5
    except AssertionError as exc:
        _fail(10, exc)
    _report(10, f"cocycle_from_code round trip on {count} orthogonal cocycles",
            t0)
