from types import SimpleNamespace

import numpy as np
import pytest

from ghfp import (
    Cocycle,
    Field,
    GHMatrix,
    MonomialMatrix,
    Perm,
    PropelinearCode,
    automorphisms_from_star,
    factor_monomial,
    is_gh,
    is_matrix_automorphism,
    matrix_of,
    pair_for_codeword,
    regular_subgroup_check,
)
from ghfp import monomial
from ghfp.cocycles import check_cocycle, is_orthogonal
from ghfp.errors import (AutomorphismCheckFailed, CocycleIdentityViolated,
                         NotAssociative, NotMonomial)
from ghfp.fields import block_rows
from ghfp.ghmatrix import sylvester_power_cocycle
from ghfp.groups import Group
from ghfp.monomial import (
    _first_non_automorphism,
    _homomorphism_holds,
    _pair_arrays,
    _star_products,
    scalar_pairs_are_automorphisms,
)

import paper_data
from test_propelinear import star

EXPANDED_MAX = 10 ** 4


def scalar(field, n: int, k: int) -> MonomialMatrix:
    """kI: constant diagonal, identity permutation."""
    return MonomialMatrix(field, np.arange(n), np.full(n, k, dtype=np.int64))


class ExpansionTooLarge(ValueError):
    """expanded_matrix refuses qv above EXPANDED_MAX."""


def expanded_matrix(H: GHMatrix) -> np.ndarray:
    """The qv x qv block matrix with block (i, j) equal to k_i + k_j + H."""
    f, v, q = H.field, H.v, H.q
    if q * v > EXPANDED_MAX:
        raise ExpansionTooLarge(f"qv = {q * v} > {EXPANDED_MAX}")
    ks = np.arange(q, dtype=np.int64)
    out = np.empty((q * v, q * v), dtype=np.int64)
    for i in range(q):
        row = f.vadd(f.vadd(ks[i], ks)[:, None, None], H.entries[None, :, :])
        out[i * v:(i + 1) * v] = row.transpose(1, 0, 2).reshape(v, q * v)
    return out


def dense_mul_oracle(field, A, B):
    """Brute group-ring product of raw monomial matrices (tiny n only): the
    oracle of MonomialMatrix.mul."""
    n = A.shape[0]
    out = np.full((n, n), -1, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            terms = [field.add(int(A[i, k]), int(B[k, j]))
                     for k in range(n) if A[i, k] >= 0 and B[k, j] >= 0]
            if len(terms) > 1:
                raise NotMonomial("product left the monomial matrices")
            if terms:
                out[i, j] = terms[0]
    return out


def test_factor_permutation_matrix(gf3):
    raw = np.full((3, 3), -1, dtype=np.int64)
    for i, j in enumerate([2, 0, 1]):
        raw[i, j] = 0
    diag, perm, M = factor_monomial(gf3, raw)
    assert (diag == 0).all()
    assert perm.images.tolist() == [2, 0, 1]


def test_factor_scalar_matrix(gf4):
    raw = np.full((4, 4), -1, dtype=np.int64)
    np.fill_diagonal(raw, 3)
    diag, perm, M = factor_monomial(gf4, raw)
    assert (diag == 3).all() and (perm.images == np.arange(4)).all()


def test_factor_roundtrip_random(gf81):
    rng = np.random.default_rng(0)
    for _ in range(20):
        perm = rng.permutation(9)
        diag = rng.integers(0, 81, size=9)
        M = MonomialMatrix(gf81, perm, diag)
        diag2, perm2, M2 = factor_monomial(gf81, M.dense())
        assert (diag2 == diag).all() and (perm2.images == perm).all()
        assert M2 == M


def test_factor_rejects_non_monomial(gf3):
    raw = np.full((3, 3), -1, dtype=np.int64)
    raw[0, 0] = raw[0, 1] = 0
    raw[1, 2] = 0
    raw[2, 2] = 0
    with pytest.raises(NotMonomial):
        factor_monomial(gf3, raw)
    for shape in (5, np.zeros(3), np.zeros((2, 3))):  # 0-d, 1-d, 2 x 3
        with pytest.raises(NotMonomial, match="not square"):
            factor_monomial(gf3, shape)


def test_monomial_product_matches_group_ring_oracle(gf8):
    rng = np.random.default_rng(1)
    for _ in range(20):
        A = MonomialMatrix(gf8, rng.permutation(5), rng.integers(0, 8, size=5))
        B = MonomialMatrix(gf8, rng.permutation(5), rng.integers(0, 8, size=5))
        got = (A * B).dense()
        want = dense_mul_oracle(gf8, A.dense(), B.dense())
        assert (got == want).all()


def test_scalar_pairs_fix_every_corpus_matrix(order4_cocycle, s9_cocycle,
                                              s8_cocycle, dphi43):
    for psi in (order4_cocycle, s9_cocycle, s8_cocycle, dphi43):
        P = PropelinearCode(psi)
        assert scalar_pairs_are_automorphisms(P)


def test_scalar_pairs_fix_any_matrix(gf8):
    """The proof scalar_pairs_are_automorphisms states, k + h_ij - k = h_ij,
    checked by computing on a random matrix that is not GH."""
    rng = np.random.default_rng(4)
    H = GHMatrix(gf8, rng.integers(0, 8, size=(16, 16)))
    assert not is_gh(H)[0]
    for k in range(8):
        kI = scalar(gf8, 16, k)
        assert is_matrix_automorphism(kI, kI, H)


def test_star_products_match_index_oracle(corpus):
    """The product the row-product table gives equals the star product
    located by a search of C, on random label pairs of every orthogonal
    corpus code."""
    rng = np.random.default_rng(9)
    for name, psi in corpus.items():
        if not is_orthogonal(psi)[0]:
            continue
        P = PropelinearCode(psi)
        rho, r = rng.integers(0, P.v, size=(2, 64))
        lam, mu = rng.integers(0, P.q, size=(2, 64))
        rows, offsets = _star_products(P, rho, lam, r, mu)
        x = P.field.vadd(P.H[rho], lam[:, None])
        y = P.field.vadd(P.H[r], mu[:, None])
        want_rows, want_offsets = P.code.index(
            np.array([star(P, a, b) for a, b in zip(x, y)]))
        assert (rows == want_rows).all(), name
        assert (offsets == want_offsets).all(), name


def test_identity_pair_is_automorphism(s9_cocycle, gf3):
    H = matrix_of(s9_cocycle)
    I = scalar(gf3, 9, 0)
    assert is_matrix_automorphism(I, I, H)


def test_random_pair_rejected(order4_cocycle, gf4):
    H = matrix_of(order4_cocycle)
    rng = np.random.default_rng(2)
    rejections = 0
    for _ in range(30):
        P = MonomialMatrix(gf4, rng.permutation(4), rng.integers(0, 4, size=4))
        Q = MonomialMatrix(gf4, rng.permutation(4), rng.integers(0, 4, size=4))
        if not is_matrix_automorphism(P, Q, H):
            rejections += 1
    assert rejections > 20


def test_pairs_verified_full_small(order4_cocycle, s9_cocycle, s8_cocycle):
    for psi, n in ((order4_cocycle, 16), (s9_cocycle, 27), (s8_cocycle, 64)):
        P = PropelinearCode(psi)
        report = automorphisms_from_star(P)
        assert report["pairs_verified"] == n
        assert report["homomorphism_ok"]
        assert report["central_pairs_ok"]
        assert report["row_action_transitive"]


def test_pairs_sampled_planar(dphi43):
    P = PropelinearCode(dphi43)
    report = automorphisms_from_star(P, sample=512)
    assert report["pairs_verified"] >= 1
    assert report["homomorphism_ok"] and report["central_pairs_ok"]


def test_constant_diagonal_for_repetition_codewords(s9_cocycle, gf3):
    P = PropelinearCode(s9_cocycle)
    for lam in range(3):
        M, N = pair_for_codeword(P, np.full(9, lam, dtype=np.int64))
        want = scalar(gf3, 9, gf3.neg(lam))
        assert M == want and N == want


def test_pair_map_homomorphism_exhaustive_order9(s9_cocycle):
    P = PropelinearCode(s9_cocycle)
    words = P.code.words()
    pairs = [pair_for_codeword(P, x) for x in words]
    for i, x in enumerate(words):
        for j, y in enumerate(words):
            Mc, Nc = pair_for_codeword(P, star(P, x, y))
            assert pairs[i][0] * pairs[j][0] == Mc
            assert pairs[i][1] * pairs[j][1] == Nc


def test_expanded_matrix_blocks(order4_cocycle, gf4):
    H = matrix_of(order4_cocycle)
    E = expanded_matrix(H)
    assert E.shape == (16, 16)
    for i in range(4):
        for j in range(4):
            want = gf4.vadd(gf4.add(i, j), H.entries)
            got = E[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4]
            assert (got == want).all()


def test_expanded_row_action_regular(order4_cocycle, s9_cocycle, s8_cocycle):
    for psi in (order4_cocycle, s9_cocycle, s8_cocycle):
        assert regular_subgroup_check(PropelinearCode(psi))


def test_expanded_gate(corpus):
    # q*v = 81 * 243 = 19683 exceeds the expansion gate
    big = matrix_of(corpus["s3lift_x_dphi43"])
    with pytest.raises(ExpansionTooLarge):
        expanded_matrix(big)


def test_trivial_point_expanded(gf3):
    from ghfp.groups import Group
    from ghfp import trivial_cocycle

    point = Group(np.zeros((1, 1), dtype=np.int64))
    P = PropelinearCode(trivial_cocycle(point, gf3))
    E = expanded_matrix(matrix_of(P.psi))
    assert E.shape == (3, 3)
    assert regular_subgroup_check(P)


def pair_by_index(P, x):
    """Test oracle of pair_for_codeword, by search: each row of H - x,
    permuted by pi_x^{-1}, must land on an H-row up to a constant, which
    pins M's permutation and diagonal."""
    f = P.field
    x = np.asarray(x, dtype=np.int64)
    rho = P.row_of(x)
    sigma = P.group.table[rho]  # index map of Q = pi_x^{-1} images
    N = MonomialMatrix(f, sigma, f.vneg(x))
    ginv_row = P.group.table[int(P.group.inv[rho])]
    # row i is w with w_t = z_{sigma^{-1}(t)}, z = f_i - x
    perm, diag = P.code.index(f.vsub(P.H, x[None, :])[:, ginv_row])
    assert (perm >= 0).all()
    return MonomialMatrix(f, perm, diag), N


def test_table_pairs_equal_index_pairs(order4_cocycle, s8_cocycle, s9_cocycle,
                                       dphi43):
    """The pairs read from the row-product table are the pairs found by
    searching C_H: every codeword of the order-4, 8 and 9 matrices, and
    sampled codewords of P(4,3)."""
    rng = np.random.default_rng(8)
    for psi in (order4_cocycle, s8_cocycle, s9_cocycle, dphi43):
        P = PropelinearCode(psi)
        words = P.code.words()
        if P.v > 9:
            words = words[rng.choice(len(words), size=60, replace=False)]
        for x in words:
            assert pair_for_codeword(P, x) == pair_by_index(P, x)


def test_exhaustive_and_sampled_modes(s9_cocycle):
    """sample=None is answered by theorem and counts all q*v pairs;
    sample= samples, and says so."""
    P = PropelinearCode(s9_cocycle)
    assert automorphisms_from_star(P)["mode"] == "theorem"
    report = automorphisms_from_star(P, sample=8, seed=3)
    assert report["mode"] == "sampled"
    assert 1 <= report["pairs_verified"] <= 8
    assert report["row_action_transitive"] is None


def test_exhaustive_mode_rejects_a_broken_table(s9_cocycle):
    """A wrong offset in the row-product table gives one coset
    representative a pair that fails PMQ* = phi(H), and the generator-pair
    oracle names its codeword."""
    P = PropelinearCode(s9_cocycle)
    rows, offsets = P.row_products()
    bent = offsets.copy()
    bent[P.group.inv[4], 2] = (bent[P.group.inv[4], 2] + 1) % 3
    P.row_products = lambda: (rows, bent)
    k, g = P.decode(P.H[4])
    with pytest.raises(AutomorphismCheckFailed,
                       match=rf"at \(k,g\)=\({k},{g}\)"):
        _oracle_exact_check(P)


def test_exhaustive_mode_finds_a_map_that_is_no_homomorphism(s9_cocycle,
                                                             monkeypatch):
    """Composing the pair map with a swap of two cosets keeps every pair an
    automorphism, but no longer respects star; in the generator-pair oracle
    the products with the generators show it."""
    real = monomial._pair_arrays
    swap = np.arange(9)
    swap[[1, 2]] = [2, 1]
    monkeypatch.setattr(monomial, "_pair_arrays", lambda P, rho, lam: real(
        P, swap[np.asarray(rho)], lam))
    report = _oracle_exact_check(PropelinearCode(s9_cocycle))
    assert report["mode"] == "exhaustive" and report["central_pairs_ok"]
    assert not report["homomorphism_ok"]


def test_sample_below_one_is_rejected(s9_cocycle):
    P = PropelinearCode(s9_cocycle)
    for sample in (0, -1):
        with pytest.raises(ValueError, match="sample"):
            automorphisms_from_star(P, sample=sample)


def _spy_scans(monkeypatch, force: bool) -> list:
    """Record how many pairs each _first_non_automorphism call checks; with
    force, the first call (the generator pairs) reports pair 0 as failing,
    so the oracle falls back to the per-representative scan."""
    calls = []

    def spy(P, mp, md, np_, nd):
        calls.append(len(mp))
        if force and len(calls) == 1:
            return 0
        return _first_non_automorphism(P, mp, md, np_, nd)

    monkeypatch.setattr(monomial, "_first_non_automorphism", spy)
    return calls


def _relabeled(psi, seed):
    """psi over its group with every non-identity element renamed."""
    img = np.concatenate(([0], 1 + np.random.default_rng(seed).permutation(
        psi.v - 1)))
    inv = np.argsort(img)
    return check_cocycle(psi.table[inv][:, inv], Group(
        img[psi.group.table[inv][:, inv]], check=False), psi.field)


def _without_mode(report):
    return {k: v for k, v in report.items() if k != "mode"}


def _oracle_exact_check(P):
    """The exact check by computation: the law f(x s) = f(x) f(s) for every
    coset representative x = f_rho and generator s of (C, star) (f_g for
    the generators g of G, and lam*1 for an additive basis of F_q), and
    PMQ* = phi(H) on the |gens| + m generator pairs.  By induction on y as
    a word in the generators, f(xy) = f(x) f(y) for all x, y, and as P1 P2
    phi(H) (Q1 Q2)* = P1 (P2 phi(H) Q2*) Q1*, that proves PMQ* = phi(H) on
    all q*v codewords.  If either check fails, PMQ* is scanned on the v
    coset representatives (scalars cancel in PMQ*) to name the first
    failing codeword.  The kernels are looked up in ghfp.monomial at call
    time, so a test can patch them."""
    f, v, q = P.field, P.v, P.q
    rho, lam = np.arange(v), np.zeros(v, dtype=np.int64)
    gen_rho = np.array(P.group.generators() + [0] * f.m, dtype=np.int64)
    gen_lam = np.zeros_like(gen_rho)
    gen_lam[-f.m:] = f.p ** np.arange(f.m)
    a, b = np.divmod(np.arange(v * len(gen_rho)), len(gen_rho))
    pairs = monomial._pair_arrays(P, rho, lam)
    gens = monomial._pair_arrays(P, gen_rho, gen_lam)
    hom_ok = _oracle_homomorphism_holds(P, (rho, lam, pairs),
                                        (gen_rho, gen_lam, gens), a, b)
    gens_ok = monomial._first_non_automorphism(P, *gens) is None
    bad = (None if hom_ok and gens_ok
           else monomial._first_non_automorphism(P, *pairs))
    if bad is not None:
        k, g = P.decode(P.H[bad])
        raise AutomorphismCheckFailed(f"PMQ* != phi(H) at (k,g)=({k},{g})")
    lams = np.arange(q)
    mp, md, np_, nd = monomial._pair_arrays(P, np.zeros(q, dtype=np.int64),
                                            lams)
    ident, minus = np.arange(v), f.vneg(lams)[:, None]
    return {
        "pairs_verified": q * v,
        "mode": "exhaustive",
        "homomorphism_ok": hom_ok,
        "central_pairs_ok": bool((mp == ident).all() and (np_ == ident).all()
                                 and (md == minus).all()
                                 and (nd == minus).all()),
        "row_action_transitive": len(np.unique(pairs[0][:, 0])) == v,
    }


def test_generator_pairs_give_the_scan_report(corpus, gf3, monkeypatch):
    """On every orthogonal cocycle of the corpus and a relabeled group, the
    generator-pair oracle reads PMQ* only on the |gens| + m generator
    pairs, reports what the scan over all v coset representatives reports,
    and, apart from the mode, what the theorem says."""
    cases = {name: psi for name, psi in corpus.items()
             if is_orthogonal(psi)[0]}
    cases["s3^3 relabeled"] = _relabeled(sylvester_power_cocycle(gf3, 3), 4)
    assert {"order4", "s8", "s9", "dphi43"} <= set(cases)
    for name, psi in cases.items():
        P = PropelinearCode(psi)
        theorem = automorphisms_from_star(P)
        assert theorem["mode"] == "theorem", name
        calls = _spy_scans(monkeypatch, force=False)
        report = _oracle_exact_check(P)
        assert calls == [len(P.group.generators()) + P.field.m], name
        calls = _spy_scans(monkeypatch, force=True)
        assert _oracle_exact_check(P) == report, name
        assert calls[1:] == [P.v], name
        assert report["mode"] == "exhaustive" and report["homomorphism_ok"]
        assert _without_mode(report) == _without_mode(theorem), name


def test_theorem_report_equals_the_oracle_on_structure_jobs(bench_recipes):
    """Every structure kind, relabeled by a random automorphism of its group
    as the benchmark's jobs are (workloads.automorphic), seeds 0-9: the
    theorem report is the generator-pair oracle's, apart from the mode."""
    import workloads

    _, build = bench_recipes
    for kind in workloads.Structure.KINDS:
        base = build(kind)
        for seed in range(10):
            P = PropelinearCode(
                workloads.automorphic(np.random.default_rng(seed), base))
            theorem = automorphisms_from_star(P)
            assert theorem["mode"] == "theorem", (kind, seed)
            assert (_without_mode(theorem)
                    == _without_mode(_oracle_exact_check(P))), (kind, seed)


def test_theorem_path_computes_nothing(corpus, non_cocycles, loop_tables,
                                       monkeypatch):
    """With sample=None no pair, kernel or row-product table is computed,
    on every orthogonal corpus cocycle and on a check="skip" copy of one.
    The non-cocycles, and a table over a loop that keeps the identity at
    the loop's generators, never reach the check: PropelinearCode refuses
    them, the loop first as no group."""
    calls = []

    def spy(name, fn):
        def counted(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return counted

    for name in ("_pair_arrays", "_first_non_automorphism",
                 "_homomorphism_holds"):
        monkeypatch.setattr(monomial, name,
                            spy(name, getattr(monomial, name)))

    def run(P, **kw):
        monkeypatch.setattr(P, "row_products",
                            spy("row_products", P.row_products))
        return automorphisms_from_star(P, **kw)

    s9 = corpus["s9"]
    cases = {**corpus, "s9 skip": Cocycle(s9.group, s9.field, s9.table,
                                          check="skip")}
    for name, psi in cases.items():
        if is_orthogonal(psi)[0]:
            assert run(PropelinearCode(psi))["mode"] == "theorem", name
    assert calls == []
    for name, psi in non_cocycles.items():
        with pytest.raises(CocycleIdentityViolated):
            PropelinearCode(psi)
    loop, table = loop_tables["L8"]
    with pytest.raises(NotAssociative):
        PropelinearCode(Cocycle(Group(loop), Field(2, 1), table,
                                check="skip"))


def test_bent_generator_row_is_named_by_the_scan(gf3, monkeypatch):
    """A wrong offset in a generator's own row-product row fails the
    generator pairs of the oracle; its fallback scan names the first
    failing coset representative, which is that generator's row."""
    P = PropelinearCode(_relabeled(sylvester_power_cocycle(gf3, 3), 4))
    s = P.group.generators()[-1]
    rows, offsets = P.row_products()
    bent = offsets.copy()
    bent[P.group.inv[s], 1] = (bent[P.group.inv[s], 1] + 1) % 3
    P.row_products = lambda: (rows, bent)
    reps = _pair_arrays(P, np.arange(P.v), np.zeros(P.v, dtype=np.int64))
    assert _first_non_automorphism(P, *reps) == s
    calls = _spy_scans(monkeypatch, force=False)
    k, g = P.decode(P.H[s])
    with pytest.raises(AutomorphismCheckFailed,
                       match=rf"at \(k,g\)=\({k},{g}\)"):
        _oracle_exact_check(P)
    assert calls == [len(P.group.generators()) + P.field.m, P.v]


@pytest.mark.parametrize("make", [
    lambda f: (Perm(np.arange(3)), Perm(np.arange(4))),
    lambda f: (scalar(f, 3, 0), scalar(f, 4, 0)),
    lambda f: (sylvester_power_cocycle(f, 2), sylvester_power_cocycle(f, 3)),
], ids=["Perm", "MonomialMatrix", "Cocycle"])
def test_objects_of_different_sizes_are_unequal(make, gf3):
    small, large = make(gf3)
    assert small == small and large == large
    assert small != large and large != small


# -- the blocked kernels against the kernels they replaced --------------------

def _oracle_first_non_automorphism(P, mp, md, np_, nd):
    """The first pair with PMQ* != phi(H): rows of every pair in blocks of
    block_rows(v), md[i] + H[mp[i], np_[j]] against H[i, j] + nd[j]."""
    f, H, v = P.field, P.H, P.v
    flat = H.ravel()
    step = block_rows(v)
    for r0 in range(0, mp.size, step):
        b, i = np.divmod(np.arange(r0, min(r0 + step, mp.size)), v)
        got = f.vadd(md[b, i][:, None], flat[mp[b, i][:, None] * v + np_[b]])
        bad = (got != f.vadd(H[i], nd[b])).any(axis=1)
        if bad.any():
            return int(b[np.argmax(bad)])
    return None


def _oracle_homomorphism_holds(P, left, right, a, b):
    """The law f(x_a * y_b) = f(x_a) f(y_b), with x = left[a[k]] and y =
    right[b[k]], where left and right are (rho, lam, pair arrays), composing
    gathered pair rows with take_along_axis."""
    step = block_rows(P.v)
    (rl, ll, L), (rr, lr, R) = left, right
    for k0 in range(0, len(a), step):
        ia, ib = a[k0:k0 + step], b[k0:k0 + step]
        rc, lc = monomial._star_products(P, rl[ia], ll[ia], rr[ib], lr[ib])
        if (rc < 0).any():
            return False
        C = monomial._pair_arrays(P, rc, lc)
        for side in (0, 2):
            pa, da = L[side][ia], L[side + 1][ia]
            pb, db = R[side][ib], R[side + 1][ib]
            if not ((np.take_along_axis(pb, pa, axis=1) == C[side]).all()
                    and (P.field.vadd(da, np.take_along_axis(db, pa, axis=1))
                         == C[side + 1]).all()):
                return False
    return True


@pytest.fixture(scope="module")
def structure_codes(bench_recipes):
    """The propelinear codes of the benchmark's structure kinds."""
    import workloads

    _, build = bench_recipes
    return {kind: PropelinearCode(build(kind))
            for kind in workloads.Structure.KINDS}


@pytest.fixture(scope="module")
def s512():
    """S_512 (v = q = 512): its subtraction table is uint16."""
    from ghfp import Field
    from ghfp.ghmatrix import sylvester_cocycle

    return PropelinearCode(sylvester_cocycle(Field(2, 9)))


def _bend(f, arrays, side, k, i):
    """A copy of the pair arrays with diagonal entry (k, i) of M (side 1)
    or N (side 3) moved by 1."""
    out = [a.copy() for a in arrays]
    out[side][k, i] = f.add(int(out[side][k, i]), 1)
    return out


def test_blocked_kernels_match_oracles_on_structure_kinds(structure_codes,
                                                          s512):
    """On 8 sampled codewords of every structure kind and of S_512, seeds
    0-9, both kernels agree with the kernels they replaced, unbent and with
    one seeded entry of M's or N's diagonal bent."""
    for kind, P in [*structure_codes.items(), ("S_512", s512)]:
        for seed in range(10):
            rng = np.random.default_rng(seed)
            rho, lam = rng.integers(0, P.v, size=8), rng.integers(0, P.q, 8)
            pairs = _pair_arrays(P, rho, lam)
            bent = _bend(P.field, pairs, int(rng.choice([1, 3])),
                         int(rng.integers(8)), int(rng.integers(P.v)))
            for arrays in (pairs, bent):
                assert (_first_non_automorphism(P, *arrays)
                        == _oracle_first_non_automorphism(P, *arrays)), kind
            a, b = rng.integers(0, 8, size=(2, 64))
            for arrays in (pairs, bent):
                assert (_homomorphism_holds(P, rho, lam, arrays, a, b)
                        == _oracle_homomorphism_holds(
                            P, (rho, lam, arrays), (rho, lam, arrays), a, b)
                        ), (kind, seed)


def test_reports_match_the_oracle_kernels(structure_codes, corpus, s512,
                                          monkeypatch):
    """automorphisms_from_star gives the same report dicts with the oracle
    kernels: sampled on every structure kind at seeds 0-9, 64 codewords of
    the orthogonal corpus, and 8 of S_512."""
    cases = [(P, 8, seed) for P in structure_codes.values()
             for seed in range(10)]
    cases += [(PropelinearCode(psi), 64, 0) for psi in corpus.values()
              if is_orthogonal(psi)[0]]
    cases.append((s512, 8, 0))
    reports = [automorphisms_from_star(P, sample=n, seed=s)
               for P, n, s in cases]
    monkeypatch.setattr(monomial, "_first_non_automorphism",
                        _oracle_first_non_automorphism)
    monkeypatch.setattr(
        monomial, "_homomorphism_holds",
        lambda P, rho, lam, pairs, a, b: _oracle_homomorphism_holds(
            P, (rho, lam, pairs), (rho, lam, pairs), a, b))
    assert reports == [automorphisms_from_star(P, sample=n, seed=s)
                       for P, n, s in cases]


def _rank_one(field, v, n, seed):
    """A stand-in for a code over H[i, j] = a[i] + b[j], any field, with n
    random pairs that fix phi(H): H[s i, t j] - H[i, j] = (b[t j] - b[j])
    - (a[i] - a[s i])."""
    rng = np.random.default_rng(seed)
    a, b = rng.integers(0, field.q, size=(2, v))
    mp, np_ = (np.array([rng.permutation(v) for _ in range(n)])
               for _ in range(2))
    P = SimpleNamespace(field=field, H=field.vadd(a[:, None], b[None, :]),
                        v=v, q=field.q)
    return P, [mp, field.vsub(a[None, :], a[mp]), np_,
               field.vsub(b[np_], b[None, :])]


@pytest.mark.parametrize("p, m, v", [
    (2, 2, 8),      # many pairs per block
    (3, 4, 81),     # one pair per block
    (2, 9, 300),    # row blocks, the uint16 subtraction table
    (2, 12, 6),     # q > ADD_TABLE_MAX_Q: no subtraction table
])
def test_first_failure_at_block_edges(p, m, v):
    """A bent diagonal entry is found at row 0, on both sides of the first
    block boundary, in the last row of the last pair and in N alone, as
    the oracle finds it."""
    from ghfp import Field
    from ghfp.monomial import BLOCK

    f = Field(p, m)
    pairs = max(1, BLOCK // (v * v))
    n = 2 * pairs + 1
    P, arrays = _rank_one(f, v, n, seed=v)
    assert (f._sub is None) == (f.q > f.ADD_TABLE_MAX_Q)
    assert _first_non_automorphism(P, *arrays) is None
    assert _oracle_first_non_automorphism(P, *arrays) is None
    rows = min(v, block_rows(v))
    spots = [(1, 0, 0), (1, pairs - 1, v - 1), (1, pairs, 0),
             (1, n - 1, v - 1), (3, pairs, v - 1)]
    if rows < v:  # the first row block boundary inside a pair
        spots += [(1, 0, rows - 1), (1, 0, rows), (3, 0, rows)]
    for side, k, i in spots:
        bent = _bend(f, arrays, side, k, i)
        assert _first_non_automorphism(P, *bent) == k, (side, k, i)
        assert _oracle_first_non_automorphism(P, *bent) == k, (side, k, i)


def test_automorphism_check_allocates_little(dphi43):
    """The sampled check on P(4,3) (v = 81, q = 81) keeps its temporaries
    small: a traced peak of at most 512 KiB (the row-block kernels it
    replaced peaked at 1675 KiB)."""
    import tracemalloc

    P = PropelinearCode(dphi43)
    automorphisms_from_star(P, sample=8)  # builds the tables it reads
    tracemalloc.start()
    try:
        automorphisms_from_star(P, sample=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 512 * 1024, peak
