"""Command-line front end: build constructions, verify, report.

Exit codes: 0 all requested checks pass, 1 a check failed, 2 parse error.
Every --json payload carries a run record (command, input hashes, wall
time); identical inputs reproduce identical output apart from the time.
A file is read by its suffix: .coc as a cocycle, .ghm as a matrix.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import planar as planar_mod
from .cocycles import Cocycle, check_cocycle, is_orthogonal, lift, tensor
from .codes import GHCode
from .errors import GHFPError, ParseError
from .extension import (
    coset_zero_sets,
    fh_intersection_profile,
    transversal_rds_check,
)
from .fields import Field, integer_log, prime_factors
from .fileio import (MAX_HEADER_Q, above_header_bound, read_coc, read_ghm,
                     sha256_of, write_coc, write_ghm)
from .ghmatrix import (GHMatrix, gen_sylvester_cocycle, is_gh, matrix_of,
                       normalize, sylvester_cocycle, sylvester_power_cocycle)
from .monomial import automorphisms_from_star, scalar_pairs_are_automorphisms
from .propelinear import (PropelinearCode, regular_subgroup_check,
                          verify_full_propelinear)


def _run_record(inputs: List[str], seconds: float) -> Dict[str, object]:
    return {
        "command": " ".join(sys.argv[1:]),
        "inputs": {p: sha256_of(p) for p in inputs},
        "seconds": round(seconds, 3),
    }


def _emit(args, outputs: Dict[str, object], inputs: List[str],
          t0: float) -> None:
    if args.json:
        payload = dict(outputs)
        payload["run"] = _run_record(inputs, time.perf_counter() - t0)
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
    return str(v)


def _load(path, suffixes=(".coc", ".ghm")):
    """The Cocycle of a .coc file or the GHMatrix of a .ghm file; a suffix
    not in suffixes is a ParseError."""
    p = Path(path)
    if p.suffix not in suffixes:
        raise ParseError(f"expected a {' or '.join(suffixes)} file, "
                         f"got {p.suffix or 'no suffix'}")
    return read_coc(p) if p.suffix == ".coc" else read_ghm(p)


def _load_matrix(path) -> GHMatrix:
    """The matrix of a .ghm file, or of the cocycle of a .coc file."""
    obj = _load(path)
    return matrix_of(obj) if isinstance(obj, Cocycle) else obj


def _bounded(p: int, m: int) -> Tuple[int, int]:
    """(p, m), or GHFPError when p^m is above fileio.MAX_HEADER_Q: no file
    could name that field (read_coc and read_ghm refuse its header), and
    its Field would take minutes to build, so nothing is built."""
    if above_header_bound(p, m):
        order = p if m == 1 else f"{p}^{m}"
        raise GHFPError(f"the field order {order} is above {MAX_HEADER_Q}, "
                        f"the largest a file header may name")
    return p, m


def _field_of_order(q: int) -> Field:
    _bounded(q, 1)  # before q is factored
    primes = prime_factors(q)
    if len(primes) != 1:
        raise GHFPError("q is not a prime power")
    return Field(primes[0], integer_log(q, primes[0]))


def _kronecker(args) -> Cocycle:
    left = read_coc(args.left)
    right = read_coc(args.right)
    if left.field != right.field and left.field.m == 1 \
            and left.field.p == right.field.p:
        left = lift(left, right.field)
    return tensor(left, right)


# each construction of `ghfp build`: the options it cannot do without, its
# builder, and its default basename (formatted with the options)
CONSTRUCTIONS = {
    "sylvester": (("q",), lambda a: sylvester_cocycle(
        _field_of_order(a.q), a.ordering), "s{q}"),
    "sylvester-power": (("q",), lambda a: sylvester_power_cocycle(
        _field_of_order(a.q), a.t), "s{q}_pow{t}"),
    "gen-sylvester": (("p", "m", "k"), lambda a: gen_sylvester_cocycle(
        *_bounded(a.p, a.m), a.k), "d_{p}_{m}_{k}"),
    "planar": (("a", "b"), lambda a: planar_mod.planar_coboundary(
        a.a, a.b, Field(*_bounded(3, a.a))), "planar_{a}_{b}"),
    "kronecker": (("left", "right"), _kronecker, "kronecker"),
}


# -- subcommands -----------------------------------------------------------------


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    _, build, basename = CONSTRUCTIONS[args.construction]
    psi = build(args)
    name = args.name or basename.format_map(vars(args))

    # self-verification before writing anything: the identity unless the
    # construction proved it (read_coc checks the written file in full),
    # then orthogonality, the GH condition for a cocycle, reported as both
    if not psi.checked:
        psi = check_cocycle(psi.table, psi.group, psi.field)
    orth, witness = is_orthogonal(psi)
    if not orth:
        raise GHFPError(f"built object fails its verifier (witness {witness}); "
                        f"nothing written")
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    coc_path = out / f"{name}.coc"
    ghm_path = out / f"{name}.ghm"
    write_coc(coc_path, psi)
    write_ghm(ghm_path, matrix_of(psi))
    _emit(args, {
        "coc": str(coc_path),
        "ghm": str(ghm_path),
        "v": psi.v,
        "q": psi.q,
        "orthogonal": orth,
        "gh": orth,
        "witness": witness,
    }, [], t0)
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    M = _load_matrix(args.file)
    ok, witness = is_gh(M)
    if args.json:
        _emit(args, {"gh": ok, "q": M.q, "lambda": M.lam if ok else None,
                     "witness": witness}, [str(Path(args.file))], t0)
    elif ok:
        print(f"GH({M.q},{M.lam}) OK")
    else:
        i, j, u, count = witness
        print(f"FAIL rows ({i},{j}): element {u} appears {count} times, "
              f"expected {M.v // M.q}")
    return 0 if ok else 1


def cmd_code(args) -> int:
    t0 = time.perf_counter()
    M = _load_matrix(args.file)
    if not M.is_normalized:
        M = normalize(M)
    code = GHCode(M)
    want_all = not (args.rank or args.kernel or args.p_kernel
                    or args.min_distance)
    out: Dict[str, object] = {"q": code.q, "v": code.v}
    if args.rank or want_all:
        out["rank"] = code.rank()
    if args.kernel or want_all:
        out["kernel"] = code.kernel().dim
    if args.p_kernel or want_all:
        out["p_kernel"] = code.p_kernel()
    if args.min_distance or want_all:
        md = code.min_distance()
        out["min_distance"] = md.value
        out["min_distance_mode"] = md.mode
    if "rank" in out and "kernel" in out:
        out["linear"] = code.is_linear()
    _emit(args, out, [str(Path(args.file))], t0)
    return 0


def cmd_propelinear(args) -> int:
    t0 = time.perf_counter()
    psi = _load(args.file, (".coc",))
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
    psi = _load(args.file, (".coc",))
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
    P = PropelinearCode(_load(args.file, (".coc",)))
    report = automorphisms_from_star(P)
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
    cells = planar_mod.table1(args.a_min, args.a_max, big=args.big)
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


def consolidated_report(path) -> Dict[str, object]:
    """Every check the library offers, against one .coc or .ghm file.

    Deterministic for fixed input; this is what the golden-file suite
    freezes.
    """
    obj = _load(path)
    psi = obj if isinstance(obj, Cocycle) else None
    M = obj if psi is None else matrix_of(psi)
    if not M.is_normalized:
        M = normalize(M)
    gh_ok, gh_wit = is_gh(M)
    code = GHCode(M)
    out: Dict[str, object] = {
        "v": M.v,
        "q": M.q,
        "gh": gh_ok,
        "rank": code.rank(),
        "kernel": code.kernel().dim,
        "p_kernel": code.p_kernel(),
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
    out = consolidated_report(args.file)
    _emit(args, out, [str(args.file)], t0)
    return 0 if _report_ok(out) else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ghfp",
        description="Cocyclic generalized Hadamard matrices and their full "
                    "propelinear codes.")
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="construct and write .coc/.ghm files")
    b.add_argument("--construction", required=True,
                   choices=CONSTRUCTIONS)
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
    a.add_argument("--expanded", action="store_true")
    a.set_defaults(fn=cmd_autcheck)

    t = sub.add_parser("table1", help="rank/kernel table of the planar family")
    t.add_argument("--a-min", dest="a_min", type=int, default=4)
    t.add_argument("--a-max", dest="a_max", type=int, default=7)
    t.add_argument("--big", action="store_true",
                   help="also compute a = 7, the larger desk-scale cells")
    t.set_defaults(fn=cmd_table1)

    rep = sub.add_parser("report", help="consolidated report for one file")
    rep.add_argument("file")
    rep.set_defaults(fn=cmd_report)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.cmd == "build":
        missing = [f"--{o}" for o in CONSTRUCTIONS[args.construction][0]
                   if getattr(args, o) is None]
        if missing:
            ap.error(f"build --construction {args.construction} needs "
                     + " and ".join(missing))
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
