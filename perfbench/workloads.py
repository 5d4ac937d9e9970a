"""The benchmark's workloads: job kinds, seeded inputs and output checks.

Every workload runs rounds of 25 jobs.  A round holds a fixed multiset of
job kinds, shuffled by the seed, so the cost of a round does not depend on
the seed while the inputs do: each job gets a fresh seeded relabeling of its
cocycle (a random automorphism of the lexicographic group Z_p^k, or a random
relabeling that needs a .cay file), seeded corruptions and seeded probe
seeds.  The run reports percentiles over the 25 kinds (see run.py), so the
median is the 13th-cheapest kind and p90 lies between the 22nd and 23rd.
Kind costs are spread evenly on a log scale rather than bunched, so that
noise in one kind's time moves the percentiles in proportion instead of
swapping which bunch of kinds they fall in.

Every output is checked against an algebraic law; `check` returns a
message for a wrong answer and None for a right one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ghfp import (
    Cocycle,
    Field,
    GHCode,
    GHMatrix,
    Group,
    PropelinearCode,
    automorphisms_from_star,
    cocycle_from_code,
    coset_zero_sets,
    elementary_abelian,
    fh_intersection_profile,
    is_gh,
    is_orthogonal,
    matrix_of,
    planar_coboundary,
    tensor,
    transversal_rds_check,
    verify_full_propelinear,
)
from ghfp.errors import CocycleIdentityViolated
from ghfp.fileio import read_cay, read_coc, read_ghm, write_cay, write_coc, \
    write_ghm
from ghfp.ghmatrix import gen_sylvester_cocycle, sylvester_cocycle, \
    sylvester_power_cocycle

# Published rank/kernel fingerprints of the planar codes C_(a,b).
PUBLISHED = {(4, 3): (11, 1), (5, 3): (11, 1), (6, 5): (47, 1)}

# Codewords handed to automorphisms_from_star per structure job; the full
# q*v set costs seconds per job at order 81.
AUT_SAMPLE = 8

# -- constructions ---------------------------------------------------------------
#
# A recipe names a construction and its parameters:
#   ("planar", a, b)           planar coboundary over GF(3^a)
#   ("sylvester", p, m)        S_q, the multiplication cocycle of GF(p^m)
#   ("power", p, m, t)         S_q^t
#   ("gen", p, m, k)           D(p, m, k), dot products over GF(p^m)^k
#   ("tensor", left, right)    tensor product of two recipes


def order(recipe) -> int:
    kind = recipe[0]
    if kind == "planar":
        return 3 ** recipe[1]
    if kind == "sylvester":
        return recipe[1] ** recipe[2]
    if kind in ("power", "gen"):
        return (recipe[1] ** recipe[2]) ** recipe[3]
    return order(recipe[1]) * order(recipe[2])


def characteristic(recipe) -> int:
    return 3 if recipe[0] == "planar" else (
        characteristic(recipe[1]) if recipe[0] == "tensor" else recipe[1])


def label(recipe) -> str:
    kind = recipe[0]
    if kind == "planar":
        return f"P({recipe[1]},{recipe[2]})"
    if kind == "sylvester":
        return f"S_{recipe[1] ** recipe[2]}"
    if kind == "power":
        return f"S_{recipe[1] ** recipe[2]}^{recipe[3]}"
    if kind == "gen":
        return f"D({recipe[1]},{recipe[2]},{recipe[3]})"
    return f"{label(recipe[1])}x{label(recipe[2])}"


def fields_of(recipe) -> List[Tuple[int, int]]:
    """(p, m) of every Field the benchmark builds and passes in."""
    kind = recipe[0]
    if kind == "planar":
        return [(3, recipe[1])]
    if kind in ("sylvester", "power"):
        return [(recipe[1], recipe[2])]
    if kind == "tensor":
        return fields_of(recipe[1]) + fields_of(recipe[2])
    return []  # gen_sylvester builds its own field


def build(recipe, fields: Dict[Tuple[int, int], Field], tr) -> Cocycle:
    kind = recipe[0]
    if kind == "planar":
        a, b = recipe[1:]
        return tr.call("planar.planar_coboundary", planar_coboundary, a, b,
                       field=fields[(3, a)])
    if kind == "sylvester":
        return tr.call("ghmatrix.construct", sylvester_cocycle,
                       fields[recipe[1:3]])
    if kind == "power":
        return tr.call("ghmatrix.construct", sylvester_power_cocycle,
                       fields[recipe[1:3]], recipe[3])
    if kind == "gen":
        return tr.call("ghmatrix.construct", gen_sylvester_cocycle, *recipe[1:])
    left = build(recipe[1], fields, tr)
    right = build(recipe[2], fields, tr)
    return tr.call("cocycles.tensor", tensor, left, right)


def make_fields(recipes, tr) -> Dict[Tuple[int, int], Field]:
    out: Dict[Tuple[int, int], Field] = {}
    for recipe in recipes:
        for pm in fields_of(recipe):
            if pm not in out:
                out[pm] = tr.call("fields.Field", Field, *pm)
    return out


# -- seeded input transformations --------------------------------------------------

def automorphism(rng, p: int, v: int) -> np.ndarray:
    """Index map of a random automorphism of Z_p^k (lexicographic indices).

    Relabeling a cocycle by a group automorphism keeps it a normalized
    (orthogonal) cocycle over the same group, and keeps every code
    parameter the benchmark checks.
    """
    k = round(math.log(v, p))
    place = p ** np.arange(k, dtype=np.int64)
    digits = (np.arange(v, dtype=np.int64)[:, None] // place) % p
    while True:
        A = rng.integers(0, p, size=(k, k))
        perm = ((digits @ A.T) % p) @ place
        if len(np.unique(perm)) == v:  # A invertible
            return perm


def automorphic(rng, psi: Cocycle) -> Cocycle:
    """psi relabeled by a random automorphism of its lexicographic group."""
    perm = automorphism(rng, psi.field.p, psi.v)
    return Cocycle(psi.group, psi.field, psi.table[np.ix_(perm, perm)],
                   check="skip")


def relabel(rng, psi: Cocycle) -> Cocycle:
    """psi over a randomly relabeled copy of its group (0 stays fixed)."""
    v = psi.v
    img = np.concatenate(([0], 1 + rng.permutation(v - 1)))
    inv = np.argsort(img)
    group = Group(img[psi.group.table[inv][:, inv]], check=False)
    return Cocycle(group, psi.field, psi.table[inv][:, inv], check="skip")


def corrupt(rng, psi: Cocycle) -> Cocycle:
    """psi with one entry off the identity row and column changed.

    One changed entry always breaks the cocycle identity and the GH
    condition, so both readers must reject it.
    """
    table = psi.table.copy()
    r, c = (int(x) for x in rng.integers(1, psi.v, size=2))
    table[r, c] = (table[r, c] + int(rng.integers(1, psi.q))) % psi.q
    return Cocycle(psi.group, psi.field, table, check="skip")


def is_power(n: int, base: int) -> bool:
    while n > 1 and n % base == 0:
        n //= base
    return n == 1


def log_exact(n: int, base: int) -> int:
    k = round(math.log(n, base))
    if base ** k != n:
        raise ValueError(f"{n} is not a power of {base}")
    return k


def flat_rows(table: np.ndarray, q: int) -> bool:
    """Every non-identity row hits each of the q values v/q times."""
    v = table.shape[0]
    counts = np.stack([np.bincount(row, minlength=q) for row in table[1:]])
    return bool((counts == v // q).all())


@dataclass
class Job:
    id: str
    label: str
    seed: int
    recipe: tuple = ()
    perm: Optional[np.ndarray] = None
    psi: Optional[Cocycle] = None
    cay: bool = False
    corrupt: bool = False
    kind: int = -1  # index into the workload's KINDS


class Workload:
    """Shared round generation; subclasses define kinds, run and check."""

    KINDS: list = []
    TINY_KINDS: list = []

    def __init__(self, tr, workdir: Path, tiny: bool = False,
                 sabotage: bool = False):
        self.kinds = self.TINY_KINDS if tiny else self.KINDS
        self.workdir = workdir
        # A wrong expected value, for the smoke test of the checks.
        self.off = 1 if sabotage else 0
        self.setup(tr)

    def setup(self, tr) -> None:
        raise NotImplementedError

    def round(self, rng, r: int) -> List[Job]:
        picks = rng.permutation(len(self.kinds))
        jobs = []
        for slot, i in enumerate(picks):
            job = self.make_job(rng, f"{r}.{slot}", self.kinds[i])
            job.kind = int(i)
            jobs.append(job)
        return jobs

    def make_job(self, rng, job_id: str, kind) -> Job:
        raise NotImplementedError


# -- fingerprint ------------------------------------------------------------------------

class Fingerprint(Workload):
    """Build a cocycle, then rank, kernel, p-kernel and minimum distance of
    its code: what `ghfp table1` and `ghfp code` users wait on."""

    # Costs spread evenly on a log scale, about 20 % apart from 20 ms to
    # 1.4 s, so p50 and p90 move smoothly when the host slows down.
    KINDS = (
        [("planar", 4, 3)] * 3 + [("planar", 5, 3)] * 3 + [("planar", 6, 5)]
        + [
            ("gen", 3, 2, 2),
            ("gen", 3, 1, 4),
            ("tensor", ("power", 3, 1, 2), ("power", 3, 1, 2)),  # S_3^4
            ("tensor", ("sylvester", 3, 2), ("sylvester", 3, 2)),  # S_9^2
            ("gen", 5, 1, 3),
            ("power", 11, 1, 2),
            ("power", 2, 1, 7),
            ("gen", 2, 1, 7),
            ("power", 5, 1, 3),
            ("power", 13, 1, 2),
            ("sylvester", 2, 7),
            ("power", 3, 1, 5),
            ("gen", 2, 2, 4),
            ("gen", 2, 4, 2),
            ("power", 2, 4, 2),
            ("tensor", ("power", 2, 1, 4), ("power", 2, 1, 4)),  # S_2^8
            ("power", 2, 2, 4),
            ("gen", 7, 1, 3),
        ])
    TINY_KINDS = [
        ("planar", 4, 3),
        ("power", 3, 1, 2),
        ("gen", 2, 2, 2),
        ("tensor", ("sylvester", 2, 1), ("power", 2, 1, 2)),
    ]

    def setup(self, tr) -> None:
        self.fields = make_fields(self.kinds, tr)

    def make_job(self, rng, job_id, recipe) -> Job:
        perm = automorphism(rng, characteristic(recipe), order(recipe))
        return Job(job_id, label(recipe), int(rng.integers(2 ** 31)),
                   recipe=recipe, perm=perm)

    def run(self, job: Job, tr) -> dict:
        psi = build(job.recipe, self.fields, tr)
        table = psi.table[np.ix_(job.perm, job.perm)]
        code = tr.call("codes.GHCode",
                       lambda: GHCode(GHMatrix(psi.field, table, group=psi.group)))
        out = {"v": psi.v, "q": psi.q}
        out["rank"] = tr.call("codes.rank", code.rank)
        tr.count("codes.rank.rows", psi.v + 1)
        out["kernel"] = tr.call("codes.kernel", code.kernel, seed=job.seed).dim
        out["p_kernel"] = tr.call("codes.p_kernel", code.p_kernel, seed=job.seed)
        out["min_distance"] = tr.call("codes.min_distance",
                                      code.min_distance).value
        return out

    def check(self, job: Job, out: dict) -> Optional[str]:
        v, q = out["v"], out["q"]
        rank, ker, pker = out["rank"], out["kernel"], out["p_kernel"]
        if out["min_distance"] != v - v // q + self.off:
            return f"min distance {out['min_distance']} != v - v/q"
        if job.recipe[0] == "planar":
            want = PUBLISHED[job.recipe[1:]]
            if (rank, ker) != want:
                return f"fingerprint {(rank, ker)} != published {want}"
            if not ker <= pker <= rank:
                return f"p-kernel {pker} outside [kernel, rank]"
            return None
        dim = log_exact(q * v, q)
        if not rank == ker == pker == dim:
            return f"linear code: rank {rank}, kernel {ker}, p-kernel {pker}, " \
                   f"log_q|C| {dim}"
        return None


# -- ingest ------------------------------------------------------------------------------

class Ingest(Workload):
    """Write .coc/.ghm (and .cay) files, read them back, then the
    orthogonal / GH / RDS checks: `ghfp build` -> `verify` -> `rds`.

    A cocycle whose group ordering is not lexicographic is written with a
    .cay file, because read_coc checks a .coc without one against the
    lexicographic Z_p^k: S_8 in primitive-power ordering, read that way,
    raises CocycleIdentityViolated at (1, 1, 2).
    """

    # (recipe, ordering, corrupted): "aut" keeps the lexicographic group,
    # "cay" relabels it at random and so needs a .cay file.
    # Listed roughly by cost, which rises about 25 % per kind from 3 ms to
    # 0.6 s; 6 of the 25 inputs are corrupted.
    KINDS = [
        (("sylvester", 2, 4), "aut", False),
        (("sylvester", 3, 3), "aut", True),
        (("sylvester", 5, 2), "cay", False),
        (("sylvester", 2, 5), "cay", False),
        (("sylvester", 7, 2), "aut", False),
        (("sylvester", 2, 6), "aut", True),
        (("power", 7, 1, 2), "cay", False),
        (("sylvester", 3, 4), "aut", True),
        (("power", 2, 1, 6), "aut", False),
        (("power", 2, 1, 6), "cay", False),
        (("power", 2, 2, 3), "cay", False),
        (("gen", 3, 2, 2), "aut", False),
        (("planar", 4, 3), "aut", False),
        (("sylvester", 3, 4), "aut", False),
        (("power", 3, 1, 4), "cay", False),
        (("power", 2, 1, 7), "cay", True),
        (("gen", 5, 1, 3), "aut", False),
        (("power", 11, 1, 2), "aut", False),
        (("sylvester", 5, 3), "cay", False),
        (("sylvester", 2, 7), "cay", False),
        (("sylvester", 2, 8), "aut", True),
        (("sylvester", 3, 5), "cay", True),
        (("gen", 2, 2, 4), "aut", False),
        (("planar", 5, 3), "aut", False),
        (("power", 2, 2, 4), "cay", False),
    ]
    TINY_KINDS = [
        (("sylvester", 3, 2), "aut", False),
        (("sylvester", 2, 3), "cay", False),
        (("power", 3, 1, 2), "aut", True),
    ]

    def setup(self, tr) -> None:
        recipes = [k[0] for k in self.kinds]
        fields = make_fields(recipes, tr)
        self.bases: Dict[tuple, Cocycle] = {}
        self.lex: Dict[int, Group] = {}
        for recipe in recipes:
            if recipe not in self.bases:
                self.bases[recipe] = build(recipe, fields, tr)
            v, p = order(recipe), characteristic(recipe)
            if v not in self.lex:
                self.lex[v] = tr.call("groups.construct", elementary_abelian,
                                      p, log_exact(v, p))

    def make_job(self, rng, job_id, kind) -> Job:
        recipe, ordering, bad = kind
        relabeled = relabel if ordering == "cay" else automorphic
        psi = relabeled(rng, self.bases[recipe])
        if bad:
            psi = corrupt(rng, psi)
        cay = not np.array_equal(psi.group.table, self.lex[psi.v].table)
        return Job(job_id, label(recipe) + (" .cay" if cay else ""), 0,
                   recipe=recipe, psi=psi, cay=cay, corrupt=bad)

    def run(self, job: Job, tr) -> dict:
        psi, v = job.psi, job.psi.v
        stem = self.workdir / f"job{job.id.split('.')[1]}"
        coc, ghm, cay = (stem.with_suffix(s) for s in (".coc", ".ghm", ".cay"))

        def write():
            if job.cay:
                write_cay(cay, psi.group)
                write_coc(coc, psi, group_path=cay.name)
            else:
                write_coc(coc, psi)
            write_ghm(ghm, matrix_of(psi))

        tr.call("fileio.write", write)
        out: dict = {}
        if job.cay:
            out["group"] = tr.call("groups.construct", read_cay, cay)
        try:
            out["psi"] = tr.call("fileio.read_coc", read_coc, coc)
            tr.count("cocycles.identity.triples", v ** 3)
        except CocycleIdentityViolated as exc:
            out["triple"] = exc.triple
            tr.count("cocycles.identity.triples", (exc.triple[0] + 1) * v * v)
        out["matrix"] = tr.call("fileio.read_ghm", read_ghm, ghm)
        if "psi" in out:
            out["orthogonal"] = tr.call("cocycles.is_orthogonal", is_orthogonal,
                                        out["psi"])
        out["gh"] = tr.call("ghmatrix.is_gh", is_gh, out["matrix"])
        ok, witness = out["gh"]
        rows = v - 1 if ok else witness[0] + 1
        tr.count("ghmatrix.is_gh.row_pairs", rows * (2 * v - 1 - rows) // 2)
        if "psi" in out:
            out["rds"] = tr.call("extension.transversal_rds_check",
                                 transversal_rds_check, out["psi"])
        return out

    def check(self, job: Job, out: dict) -> Optional[str]:
        psi = job.psi
        f, v, q, t, gt = psi.field, psi.v, psi.q, psi.table, psi.group.table
        if job.cay and not np.array_equal(out["group"].table, gt):
            return "read_cay changed the group table"
        if not np.array_equal(out["matrix"].entries, t):
            return "read_ghm changed the matrix"
        ok, witness = out["gh"]
        if job.corrupt:
            if "triple" not in out:
                return "read_coc accepted a corrupted cocycle"
            g, h, k = out["triple"]
            if f.add(int(t[g, h]), int(t[gt[g, h], k])) == \
                    f.add(int(t[g, gt[h, k]]), int(t[h, k])):
                return f"cocycle witness {out['triple']} satisfies the identity"
            if ok:
                return "is_gh accepted a corrupted matrix"
            i, j, u, count = witness
            seen = int(np.count_nonzero(f.vsub(t[j], t[i]) == u))
            if seen != count or count == v // q:
                return f"GH witness {witness} is not a violation"
            return None
        if "psi" not in out:
            return f"read_coc rejected a valid cocycle at {out['triple']}"
        back = out["psi"]
        if not (np.array_equal(back.table, t)
                and np.array_equal(back.group.table, gt)):
            return "read_coc changed the cocycle"
        orth, rds = out["orthogonal"], out["rds"]
        want = (v, q, v, v // q + self.off)
        if not (orth == (True, None) and (ok, witness) == (True, None)
                and rds == (True, want)):
            return f"orthogonal {orth}, GH {(ok, witness)}, RDS {rds} " \
                   f"on a valid input (want RDS params {want})"
        return None


# -- structure ----------------------------------------------------------------------------

class Structure(Workload):
    """Propelinear structure, extension-group checks and monomial
    automorphisms: `ghfp propelinear --verify`, `rds --profile`, `autcheck`."""

    KINDS = [
        ("power", 2, 1, 3),
        ("sylvester", 2, 3),
        ("sylvester", 3, 2),
        ("power", 3, 1, 2),
        ("sylvester", 2, 4),
        ("power", 2, 1, 4),
        ("power", 2, 2, 2),
        ("sylvester", 5, 2),
        ("power", 5, 1, 2),
        ("sylvester", 3, 3),
        ("power", 3, 1, 3),
        ("gen", 3, 1, 3),
        ("power", 2, 1, 5),
        ("sylvester", 2, 5),
        ("gen", 2, 1, 5),
        ("sylvester", 7, 2),
        ("power", 7, 1, 2),
        ("power", 2, 1, 6),
        ("power", 2, 2, 3),
        ("power", 2, 3, 2),
        ("power", 3, 1, 4),
        ("gen", 3, 2, 2),
        ("power", 3, 2, 2),
        ("gen", 3, 1, 4),
        ("planar", 4, 3),
    ]
    TINY_KINDS = [("power", 2, 1, 3), ("power", 3, 1, 2)]

    def setup(self, tr) -> None:
        fields = make_fields(self.kinds, tr)
        self.bases = {}
        for recipe in self.kinds:
            if recipe not in self.bases:
                self.bases[recipe] = build(recipe, fields, tr)

    def make_job(self, rng, job_id, recipe) -> Job:
        return Job(job_id, label(recipe), int(rng.integers(2 ** 31)),
                   recipe=recipe, psi=automorphic(rng, self.bases[recipe]))

    def run(self, job: Job, tr) -> dict:
        psi, seed = job.psi, job.seed
        P = tr.call("propelinear.PropelinearCode", PropelinearCode, psi)
        out = {
            "verify": tr.call("propelinear.verify_full_propelinear",
                              verify_full_propelinear, P, seed=seed),
            "invariants": tr.call("propelinear.group_invariants",
                                  P.group_invariants),
            "back": tr.call("extension.cocycle_from_code", cocycle_from_code, P),
            "profile": tr.call("extension.fh_intersection_profile",
                               fh_intersection_profile, P),
            "zero_sets": tr.call("extension.coset_zero_sets", coset_zero_sets, P),
            "aut": tr.call("monomial.automorphisms_from_star",
                           automorphisms_from_star, P, sample=AUT_SAMPLE,
                           seed=seed),
        }
        qv = P.q * P.v
        tr.count("extension.fh_intersection_profile.codewords", qv)
        # pair_for_codeword calls: the sample, the homomorphism products and
        # the q repetition codewords
        keys = out["aut"]["pairs_verified"]
        tr.count("monomial.automorphisms_from_star.pairs",
                 AUT_SAMPLE + min(200, keys * keys) + P.q)
        return out

    def check(self, job: Job, out: dict) -> Optional[str]:
        psi = job.psi
        v, q, p = psi.v, psi.q, psi.field.p
        failed = [k for k, (ok, _) in out["verify"].items() if not ok]
        if failed:
            return f"propelinear checks failed: {failed}"
        inv = out["invariants"]
        if math.prod(inv) != q * v or not all(is_power(n, p) for n in inv):
            return f"invariants {inv} of a group of order {q * v}"
        back = out["back"]
        if back.v != v or not flat_rows(back.table, q):
            return "cocycle_from_code is not an orthogonal cocycle of order v"
        prof = out["profile"]
        want = np.full(q * v, v // q + self.off, dtype=np.int64)
        want[np.arange(q) * v] = 0
        want[0] = v
        if not (prof["ok"] and np.array_equal(prof["values"], want)):
            return f"F_H intersection profile wrong (witness {prof['witness']})"
        zs = out["zero_sets"]
        if not (zs["d1_is_fh"] and zs["sizes_all_v"]
                and zs["column_counts_flat"]):
            return f"coset zero sets wrong (witness {zs['witness']})"
        aut = out["aut"]
        if not (aut["homomorphism_ok"] and aut["central_pairs_ok"]
                and 1 <= aut["pairs_verified"] <= AUT_SAMPLE):
            return f"automorphisms from star: {aut}"
        return None


WORKLOADS = {"fingerprint": Fingerprint, "ingest": Ingest,
             "structure": Structure}
