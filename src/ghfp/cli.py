"""Command-line front end: build constructions, verify, report.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 parse error.
Every --json payload carries a run record (command, input hashes, seed,
wall time) so identical inputs and seed reproduce identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from . import planar as planar_mod
from .cocycles import is_orthogonal, lift, matrix_of, tensor
from .codes import GHCode
from .errors import GHFPError, ParseError
from .extension import (
    coset_zero_sets,
    fh_intersection_profile,
    transversal_rds_check,
)
from .fields import Field
from .fileio import read_coc, read_ghm, sha256_of, write_coc, write_ghm
from .ghmatrix import is_gh, normalize, sylvester_cocycle, \
    sylvester_power_cocycle
from .monomial import automorphisms_from_star, scalar_pairs_are_automorphisms
from .propelinear import (PropelinearCode, regular_subgroup_check,
                          verify_full_propelinear)


def _run_record(args, inputs: List[str], seconds: float) -> Dict[str, object]:
    return {
        "command": " ".join(sys.argv[1:]),
        "inputs": {p: sha256_of(p) for p in inputs},
        "seed": args.seed,
        "seconds": round(seconds, 3),
    }


def _emit(args, outputs: Dict[str, object], inputs: List[str],
          t0: float) -> None:
    if args.json:
        payload = dict(outputs)
        payload["run"] = _run_record(args, inputs, time.perf_counter() - t0)
        print(json.dumps(payload, sort_keys=True, default=_jsonify))
    else:
        for k, v in outputs.items():
            print(f"{k}={_textify(v)}")


def _jsonify(x):
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    if hasattr(x, "numerator") and hasattr(x, "denominator"):
        return x.numerator / x.denominator
    return str(x)


def _textify(v) -> str:
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(str(x) for x in v) + "]"
    if isinstance(v, bool):
        return str(v)
    return str(v)


def _load_cocycle(path: str):
    p = Path(path)
    if p.suffix == ".coc":
        return read_coc(p)
    raise ParseError(f"expected a .coc file, got {p.suffix}", line=0)


def _parse_prime_power(q: int):
    p = 2
    while p * p <= q:
        if q % p == 0:
            m = 0
            while q % p == 0:
                q //= p
                m += 1
            if q != 1:
                raise GHFPError("q is not a prime power")
            return p, m
        p += 1
    return q, 1


# -- subcommands -----------------------------------------------------------------


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    name = args.name
    if args.construction == "sylvester":
        p, m = _parse_prime_power(args.q)
        psi = sylvester_cocycle(Field(p, m), args.ordering)
        name = name or f"s{args.q}"
    elif args.construction == "sylvester-power":
        p, m = _parse_prime_power(args.q)
        psi = sylvester_power_cocycle(Field(p, m), args.t)
        name = name or f"s{args.q}_pow{args.t}"
    elif args.construction == "gen-sylvester":
        from .ghmatrix import gen_sylvester_cocycle

        psi = gen_sylvester_cocycle(args.p, args.m, args.k)
        name = name or f"d_{args.p}_{args.m}_{args.k}"
    elif args.construction == "planar":
        psi = planar_mod.planar_coboundary(args.a, args.b)
        name = name or f"planar_{args.a}_{args.b}"
    elif args.construction == "kronecker":
        left = read_coc(args.left)
        right = read_coc(args.right)
        if left.field != right.field and left.field.m == 1 \
                and left.field.p == right.field.p:
            left = lift(left, right.field)
        psi = tensor(left, right)
        name = name or "kronecker"
    else:
        raise GHFPError(f"unknown construction {args.construction}")

    # self-verification before writing anything
    M = matrix_of(psi)
    orth, witness = is_orthogonal(psi)
    gh_ok, gh_wit = is_gh(M)
    if orth != gh_ok:
        raise GHFPError(f"verifier disagreement: orthogonal={orth} gh={gh_ok}")
    if not gh_ok:
        raise GHFPError(
            f"built object fails its verifier (witness {witness or gh_wit}); "
            f"nothing written")
    coc_path = out / f"{name}.coc"
    ghm_path = out / f"{name}.ghm"
    write_coc(coc_path, psi)
    write_ghm(ghm_path, M)
    _emit(args, {
        "coc": str(coc_path),
        "ghm": str(ghm_path),
        "v": psi.v,
        "q": psi.q,
        "orthogonal": orth,
        "gh": gh_ok,
        "witness": witness or gh_wit,
    }, [], t0)
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    path = Path(args.file)
    M = read_ghm(path) if path.suffix == ".ghm" else matrix_of(read_coc(path))
    ok, witness = is_gh(M)
    if args.json:
        _emit(args, {"gh": ok, "q": M.q, "lambda": M.lam if ok else None,
                     "witness": witness}, [str(path)], t0)
    elif ok:
        print(f"GH({M.q},{M.lam}) OK")
    else:
        i, j, u, count = witness
        print(f"FAIL rows ({i},{j}): element {u} appears {count} times, "
              f"expected {M.v // M.q}")
    return 0 if ok else 1


def cmd_code(args) -> int:
    t0 = time.perf_counter()
    path = Path(args.file)
    M = read_ghm(path) if path.suffix == ".ghm" else matrix_of(read_coc(path))
    if not M.is_normalized:
        M = normalize(M)
    code = GHCode(M)
    want_all = not (args.rank or args.kernel or args.p_kernel
                    or args.min_distance)
    out: Dict[str, object] = {"q": code.q, "v": code.v}
    if args.rank or want_all:
        out["rank"] = code.rank()
    if args.kernel or want_all:
        out["kernel"] = code.kernel(seed=args.seed).dim
    if args.p_kernel or want_all:
        out["p_kernel"] = code.p_kernel(seed=args.seed)
    if args.min_distance or want_all:
        md = code.min_distance()
        out["min_distance"] = md.value
        out["min_distance_mode"] = md.mode
    if "rank" in out and "kernel" in out:
        out["linear"] = code.is_linear()
    _emit(args, out, [str(path)], t0)
    return 0


def cmd_propelinear(args) -> int:
    t0 = time.perf_counter()
    psi = _load_cocycle(args.file)
    P = PropelinearCode(psi)
    out: Dict[str, object] = {"v": P.v, "q": P.q}
    ok = True
    if args.pi_table:
        for i, s in enumerate(P.pi_table_strings(), start=1):
            print(f"C_{i}: {s}")
    if args.group_structure:
        out["group"] = P.group_invariants()
        out["pi_group"] = P.pi_group_invariants()
    if args.verify:
        report = verify_full_propelinear(P)
        for k, (passed, witness) in report.items():
            out[f"check_{k}"] = passed
            ok = ok and passed
    _emit(args, out, [args.file], t0)
    return 0 if ok else 1


def cmd_rds(args) -> int:
    t0 = time.perf_counter()
    psi = _load_cocycle(args.file)
    orth, wit_o = is_orthogonal(psi)
    gh_ok, wit_g = is_gh(matrix_of(psi))
    rds_ok, params = transversal_rds_check(psi)
    agree = orth == gh_ok == rds_ok
    out = {
        "orthogonal": orth,
        "gh": gh_ok,
        "rds": rds_ok,
        "equivalence_agree": agree,
        "params": params,
    }
    if args.profile:
        if not orth:
            raise GHFPError("profile needs an orthogonal cocycle")
        prof = fh_intersection_profile(PropelinearCode(psi))
        values, counts = np.unique(np.asarray(prof["values"]),
                                   return_counts=True)
        out["profile_ok"] = prof["ok"]
        out["profile_histogram"] = {int(v): int(c)
                                    for v, c in zip(values, counts)}
    _emit(args, out, [args.file], t0)
    return 0 if agree else 1


def cmd_autcheck(args) -> int:
    t0 = time.perf_counter()
    psi = _load_cocycle(args.file)
    P = PropelinearCode(psi)
    sample = None if (args.full or P.q * P.v <= 10 ** 4) else 512
    report = automorphisms_from_star(P, sample=sample, seed=args.seed)
    report["scalar_pairs_ok"] = scalar_pairs_are_automorphisms(P)
    if args.expanded:
        report["expanded_regular"] = regular_subgroup_check(P)
        report["expanded_order"] = P.q * P.v
    ok = bool(report["homomorphism_ok"] and report["central_pairs_ok"]
              and report["scalar_pairs_ok"]
              and report.get("expanded_regular", True))
    _emit(args, report, [args.file], t0)
    return 0 if ok else 1


def cmd_table1(args) -> int:
    t0 = time.perf_counter()
    big = args.big or args.big_global
    cells = planar_mod.table1(args.a_min, args.a_max, big=big,
                              seed=args.seed)
    if args.json:
        _emit(args, {"cells": cells}, [], t0)
        return 0
    print("a  b  v      rank  kernel  conjecture_r  match  seconds  status")
    for c in cells:
        print(f"{c['a']:<2} {c['b']:<2} {c['v']:<6} "
              f"{str(c.get('rank', '-')):<5} {str(c.get('kernel', '-')):<7} "
              f"{str(c.get('conjecture_r', '-')):<13} "
              f"{str(c.get('match', '-')):<6} "
              f"{str(c.get('seconds', '-')):<8} {c['status']}")
    return 0


def consolidated_report(path, seed: int = 0) -> Dict[str, object]:
    """Every check the library offers, against one .coc or .ghm file.

    Deterministic for fixed input and seed; this is what the golden-file
    suite freezes.
    """
    path = Path(path)
    psi = None
    if path.suffix == ".coc":
        psi = read_coc(path)
        M = matrix_of(psi)
    else:
        M = read_ghm(path)
    if not M.is_normalized:
        M = normalize(M)
    gh_ok, gh_wit = is_gh(M)
    code = GHCode(M)
    out: Dict[str, object] = {
        "v": M.v,
        "q": M.q,
        "gh": gh_ok,
        "rank": code.rank(),
        "kernel": code.kernel(seed=seed).dim,
        "p_kernel": code.p_kernel(seed=seed),
        "min_distance": code.min_distance().value,
        "linear": code.is_linear(),
    }
    if psi is not None:
        orth, _ = is_orthogonal(psi)
        rds_ok, params = transversal_rds_check(psi)
        out["orthogonal"] = orth
        out["rds"] = rds_ok
        out["equivalence_agree"] = orth == gh_ok == rds_ok
        if orth:
            P = PropelinearCode(psi)
            out["group"] = P.group_invariants()
            out["pi_group"] = P.pi_group_invariants()
            report = verify_full_propelinear(P)
            out["propelinear"] = all(p for p, _ in report.values())
            prof = fh_intersection_profile(P)
            out["profile"] = prof["ok"]
            zs = coset_zero_sets(P)
            out["coset_zero_sets"] = bool(zs["d1_is_fh"] and zs["sizes_all_v"]
                                          and zs["column_counts_flat"])
    return out


def _report_ok(out: Dict[str, object]) -> bool:
    checks = [out["gh"]]
    for key in ("equivalence_agree", "propelinear", "profile",
                "coset_zero_sets"):
        if key in out:
            checks.append(out[key])
    return all(bool(c) for c in checks)


def cmd_report(args) -> int:
    t0 = time.perf_counter()
    out = consolidated_report(args.file, seed=args.seed)
    _emit(args, out, [str(args.file)], t0)
    return 0 if _report_ok(out) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ghfp",
        description="Cocyclic generalized Hadamard matrices and their full "
                    "propelinear codes.")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for randomized early-rejection paths")
    ap.add_argument("--big", dest="big_global", action="store_true",
                    help="allow the larger desk-scale computations")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="construct and write .coc/.ghm files")
    b.add_argument("--construction", required=True,
                   choices=["sylvester", "sylvester-power", "gen-sylvester",
                            "planar", "kronecker"])
    b.add_argument("--q", type=int, help="field order for sylvester forms")
    b.add_argument("--t", type=int, default=2, help="sylvester power")
    b.add_argument("--p", type=int, help="characteristic for gen-sylvester")
    b.add_argument("--m", type=int, help="extension degree for gen-sylvester")
    b.add_argument("--k", type=int, help="dimension for gen-sylvester")
    b.add_argument("--a", type=int, help="field degree for planar")
    b.add_argument("--b", type=int, help="exponent parameter for planar")
    b.add_argument("--left", help="left .coc for kronecker")
    b.add_argument("--right", help="right .coc for kronecker")
    b.add_argument("--ordering", default="encoding",
                   choices=["encoding", "primitive-power"])
    b.add_argument("--out", help="output directory")
    b.add_argument("--name", help="output basename")
    b.set_defaults(fn=cmd_build)

    vcmd = sub.add_parser("verify", help="GH check of a .ghm or .coc file")
    vcmd.add_argument("file")
    vcmd.set_defaults(fn=cmd_verify)

    c = sub.add_parser("code", help="rank/kernel/distance of the GH code")
    c.add_argument("file")
    c.add_argument("--rank", action="store_true")
    c.add_argument("--kernel", action="store_true")
    c.add_argument("--p-kernel", dest="p_kernel", action="store_true")
    c.add_argument("--min-distance", dest="min_distance", action="store_true")
    c.set_defaults(fn=cmd_code)

    pl = sub.add_parser("propelinear", help="full propelinear structure")
    pl.add_argument("file")
    pl.add_argument("--pi-table", dest="pi_table", action="store_true")
    pl.add_argument("--group-structure", dest="group_structure",
                    action="store_true")
    pl.add_argument("--verify", action="store_true")
    pl.set_defaults(fn=cmd_propelinear)

    r = sub.add_parser("rds", help="orthogonal / GH / difference-set report")
    r.add_argument("file")
    r.add_argument("--profile", action="store_true")
    r.set_defaults(fn=cmd_rds)

    a = sub.add_parser("autcheck", help="monomial automorphisms from star")
    a.add_argument("file")
    a.add_argument("--full", action="store_true")
    a.add_argument("--expanded", action="store_true")
    a.set_defaults(fn=cmd_autcheck)

    t = sub.add_parser("table1", help="rank/kernel table of the planar family")
    t.add_argument("--a-min", dest="a_min", type=int, default=4)
    t.add_argument("--a-max", dest="a_max", type=int, default=7)
    t.add_argument("--big", action="store_true")
    t.set_defaults(fn=cmd_table1)

    rep = sub.add_parser("report", help="consolidated report for one file")
    rep.add_argument("file")
    rep.set_defaults(fn=cmd_report)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except GHFPError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
