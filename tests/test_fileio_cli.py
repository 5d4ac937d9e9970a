import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from ghfp import Field, Group, elementary_abelian, matrix_of
from ghfp import fileio
from ghfp.cli import consolidated_report, main
from ghfp.errors import FieldMismatch, NotAGroup, ParseError
from ghfp.fileio import (
    field_header,
    read_cay,
    read_coc,
    read_ghm,
    write_cay,
    write_coc,
    write_ghm,
)

import paper_data


def test_field_header_roundtrip(gf81):
    from ghfp.fileio import parse_field_header

    line = field_header(gf81)
    assert line == "p=3 m=4 poly=2,1,0,0,1"
    assert parse_field_header(line, 1) == gf81


def test_cay_roundtrip(tmp_path):
    g = elementary_abelian(3, 2)
    path = tmp_path / "z9.cay"
    write_cay(path, g)
    g2 = read_cay(path)
    assert (g2.table == g.table).all()


def test_coc_roundtrip_default_group(tmp_path, s9_cocycle):
    path = tmp_path / "s9.coc"
    write_coc(path, s9_cocycle)
    assert "group=" not in path.read_text()
    assert not (tmp_path / "s9.cay").exists()
    psi = read_coc(path)
    assert (psi.table == s9_cocycle.table).all()
    assert (psi.group.table == s9_cocycle.group.table).all()


def test_coc_roundtrip_writes_its_own_group(tmp_path, s8_cocycle):
    # without group_path, a non-default group goes to <stem>.cay
    path = tmp_path / "s8.coc"
    write_coc(path, s8_cocycle)
    assert path.read_text().splitlines()[2] == "group=s8.cay"
    psi = read_coc(path)
    assert (psi.table == s8_cocycle.table).all()
    assert (psi.group.table == s8_cocycle.group.table).all()


def test_coc_roundtrip_explicit_group(tmp_path, s8_cocycle):
    # primitive-power ordering differs from the elementary-abelian default,
    # so the group table must travel alongside
    gpath = tmp_path / "f8add.cay"
    write_cay(gpath, s8_cocycle.group)
    path = tmp_path / "s8.coc"
    write_coc(path, s8_cocycle, group_path="f8add.cay")
    psi = read_coc(path)
    assert (psi.table == s8_cocycle.table).all()
    assert (psi.group.table == s8_cocycle.group.table).all()


def test_read_cay_rejects_a_loop(tmp_path, loop5):
    path = tmp_path / "loop.cay"
    path.write_text("cay 1\nv=5\n"
                    + "".join(" ".join(map(str, row)) + "\n" for row in loop5))
    with pytest.raises(NotAGroup):
        read_cay(path)


def test_ghm_roundtrip(tmp_path, dphi43):
    path = tmp_path / "d.ghm"
    write_ghm(path, matrix_of(dphi43))
    m = read_ghm(path)
    assert (m.entries == dphi43.table).all()
    assert m.field == dphi43.field


def test_parse_errors_carry_line_numbers(tmp_path):
    bad = tmp_path / "bad.coc"
    bad.write_text("p=3 m=1 poly=0,1\nv=3\n0 0 0\n0 1 x\n0 2 1\n")
    with pytest.raises(ParseError) as exc:
        read_coc(bad)
    assert exc.value.line == 4 and exc.value.column == 3
    bad2 = tmp_path / "bad.ghm"
    bad2.write_text("not magic\n")
    with pytest.raises(ParseError) as exc:
        read_ghm(bad2)
    assert exc.value.line == 1


def test_cli_build_and_verify(tmp_path, capsys):
    rc = main(["build", "--construction", "sylvester-power", "--q", "3",
               "--t", "2", "--out", str(tmp_path), "--name", "s9"])
    assert rc == 0
    capsys.readouterr()
    rc = main(["verify", str(tmp_path / "s9.ghm")])
    out = capsys.readouterr().out
    assert rc == 0 and "GH(3,3) OK" in out
    # the written matrix is the published order-9 example
    m = read_ghm(tmp_path / "s9.ghm")
    assert (m.entries == paper_data.H_ORDER9).all()


def test_cli_kronecker_build_matches_power(tmp_path, capsys):
    main(["build", "--construction", "sylvester", "--q", "3",
          "--out", str(tmp_path), "--name", "s3"])
    main(["build", "--construction", "kronecker",
          "--left", str(tmp_path / "s3.coc"), "--right", str(tmp_path / "s3.coc"),
          "--out", str(tmp_path), "--name", "kron"])
    main(["build", "--construction", "sylvester-power", "--q", "3", "--t", "2",
          "--out", str(tmp_path), "--name", "pow"])
    capsys.readouterr()
    kron = (tmp_path / "kron.coc").read_bytes()
    pow2 = (tmp_path / "pow.coc").read_bytes()
    assert kron == pow2


def test_cli_build_planar_is_published_matrix(tmp_path, capsys, dphi43):
    rc = main(["build", "--construction", "planar", "--a", "4", "--b", "3",
               "--out", str(tmp_path), "--name", "p43"])
    assert rc == 0
    capsys.readouterr()
    m = read_ghm(tmp_path / "p43.ghm")
    assert (m.entries == dphi43.table).all()


BUILDS = {
    "sylvester": ["--q", "8"],
    "sylvester-power": ["--q", "4", "--t", "2"],
    "gen-sylvester": ["--p", "3", "--m", "1", "--k", "2"],
    "planar": ["--a", "4", "--b", "3"],
}


@pytest.mark.parametrize("ordering", ["encoding", "primitive-power"])
@pytest.mark.parametrize("construction", sorted(BUILDS) + ["kronecker"])
def test_cli_build_reads_back(tmp_path, capsys, construction, ordering):
    args = ["--ordering", ordering, "--out", str(tmp_path)]
    if construction == "kronecker":
        # the factors are Sylvester files built with the same ordering
        main(["build", "--construction", "sylvester", "--q", "8",
              "--name", "s8", *args])
        s8 = str(tmp_path / "s8.coc")
        opts = ["--left", s8, "--right", s8]
    else:
        opts = BUILDS[construction]
    assert main(["build", "--construction", construction, *opts,
                 "--name", "x", *args]) == 0
    capsys.readouterr()
    psi = read_coc(tmp_path / "x.coc")
    assert (psi.table == read_ghm(tmp_path / "x.ghm").entries).all()
    # byte for byte what the string join gives
    _assert_written_by_join(tmp_path / "x.coc", psi.table)
    _assert_written_by_join(tmp_path / "x.ghm", psi.table)
    for cay in tmp_path.glob("*.cay"):
        _assert_written_by_join(cay, read_cay(cay).table)
    if construction == "kronecker":
        left = read_coc(tmp_path / "s8.coc")
        assert (psi.group.table == left.group.direct_product(
            left.group).table).all()
    assert main(["verify", str(tmp_path / "x.coc")]) == 0
    # it reads back as a cocycle over a group, so autcheck is a theorem
    capsys.readouterr()
    assert main(["--json", "autcheck", str(tmp_path / "x.coc")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mode"] == "theorem"
    assert report["pairs_verified"] == psi.field.q * psi.v


def test_cli_build_default_names(tmp_path, capsys):
    """Without --name, each construction writes its files under a basename
    formed from its options."""
    names = {"sylvester": "s8", "sylvester-power": "s4_pow2",
             "gen-sylvester": "d_3_1_2", "planar": "planar_4_3"}
    for construction, opts in BUILDS.items():
        assert main(["build", "--construction", construction, *opts,
                     "--out", str(tmp_path)]) == 0
    s8 = str(tmp_path / "s8.coc")
    assert main(["build", "--construction", "kronecker", "--left", s8,
                 "--right", s8, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        f"{name}.{suffix}" for name in [*names.values(), "kronecker"]
        for suffix in ("coc", "ghm"))


def test_cli_build_missing_option_is_usage_error(tmp_path, capsys):
    """Each option a construction needs, dropped in turn, is a usage error
    that names it: exit code 2 and nothing written (--t has a default)."""
    builds = {**BUILDS, "kronecker": ["--left", "l.coc", "--right", "r.coc"]}
    for construction, opts in builds.items():
        pairs = [opts[i:i + 2] for i in range(0, len(opts), 2)]
        for k, (dropped, _) in enumerate(pairs):
            if dropped == "--t":
                continue
            rest = [x for j, pair in enumerate(pairs) if j != k for x in pair]
            with pytest.raises(SystemExit) as exit_:
                main(["build", "--construction", construction, *rest,
                      "--out", str(tmp_path / "out")])
            assert exit_.value.code == 2
            assert dropped in capsys.readouterr().err, (construction, dropped)
    assert not (tmp_path / "out").exists()


def test_cli_code_json(tmp_path, capsys):
    main(["build", "--construction", "planar", "--a", "4", "--b", "3",
          "--out", str(tmp_path), "--name", "p43"])
    capsys.readouterr()
    rc = main(["--json", "code", str(tmp_path / "p43.coc")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["q"] == 81 and payload["v"] == 81
    assert payload["rank"] == 11 and payload["kernel"] == 1
    assert payload["p_kernel"] == 1
    assert payload["min_distance"] == 80
    assert payload["linear"] is False
    assert set(payload["run"]) == {"command", "inputs", "seconds"}


def test_cli_code_on_planar_ghm_by_theorem(tmp_path, capsys):
    """A bare .ghm of P(4,3) is read over Z_3^4, on which it is a cocycle:
    code reports what it reports for the .coc, and min_distance stops at
    the weights."""
    main(["build", "--construction", "planar", "--a", "4", "--b", "3",
          "--out", str(tmp_path), "--name", "p43"])
    capsys.readouterr()
    bodies = []
    for suffix in ("coc", "ghm"):
        assert main(["--json", "code", str(tmp_path / f"p43.{suffix}")]) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("run")
        bodies.append(payload)
    assert bodies[0] == bodies[1]
    assert bodies[1]["min_distance_mode"] == "theorem"
    assert bodies[1]["rank"] == 11 and bodies[1]["min_distance"] == 80


def test_read_ghm_decides_like_the_bare_matrix(tmp_path, corpus, gf3):
    """read_ghm reads a .ghm over _default_group(v, p), and is_gh gives the
    verdict and witness of the group-less matrix on tables that are
    cocycles over Z_p^k, relabeled (as a .coc with a .cay would be),
    corrupted, not normalized, and of an order that is no power of p.  The
    pairs (0, j) decide exactly the tables that are cocycles over Z_p^k."""
    from ghfp import GHMatrix, is_gh
    from ghfp.fileio import _default_group
    from test_codes import paley12

    rng = np.random.default_rng(4)
    cases = {}
    for name in ("s3", "s9", "s8", "order4", "dphi43", "s3xs9"):
        psi = corpus[name]
        t = psi.table
        v = psi.v
        img = np.concatenate(([0], 1 + rng.permutation(v - 1)))
        inv = np.argsort(img)
        corrupt = t.copy()
        corrupt[v - 1, v // 2] = psi.field.add(int(t[v - 1, v // 2]), 1)
        cases[name] = (psi.field, t)
        cases[f"{name}_relabeled"] = (psi.field, t[inv][:, inv])
        cases[f"{name}_corrupt"] = (psi.field, corrupt)
        cases[f"{name}_unnormalized"] = (psi.field,
                                         psi.field.vadd(t, t[:, 1:2]))
    trap = np.array([[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 2, 2],
                     [0, 1, 2, 0, 1, 2], [0, 2, 1, 0, 2, 1],
                     [0, 1, 2, 2, 1, 0], [0, 2, 0, 2, 1, 1]])
    cases["order6"] = (gf3, trap)
    cases["paley12"] = (Field(2, 1), paley12().entries)
    decided = set()
    for name, (field, t) in cases.items():
        path = tmp_path / f"{name}.ghm"
        write_ghm(path, GHMatrix(field, t))
        M = read_ghm(path)
        assert M.group is _default_group(M.v, field.p), name
        assert is_gh(M) == is_gh(GHMatrix(field, t)), name
        if M.cocycle() is not None:
            decided.add(name)
    # s8 is in primitive-power order, no cocycle over Z_2^3; a relabeling
    # of Z_3 or Z_2^2 that fixes 0 is an automorphism
    assert decided == {"s3", "s9", "order4", "dphi43", "s3xs9",
                       "s3_relabeled", "order4_relabeled"}
    assert _default_group(6, 3) is None and _default_group(12, 2) is None
    assert is_gh(read_ghm(tmp_path / "paley12.ghm")) == (True, None)


def test_cli_code_text_output(tmp_path, capsys):
    main(["build", "--construction", "sylvester", "--q", "4",
          "--out", str(tmp_path), "--name", "s4"])
    capsys.readouterr()
    rc = main(["code", str(tmp_path / "s4.coc"), "--rank", "--kernel"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank=2" in out and "kernel=2" in out and "linear=True" in out


def test_cli_propelinear_pi_table(tmp_path, capsys):
    main(["build", "--construction", "sylvester-power", "--q", "3", "--t", "2",
          "--out", str(tmp_path), "--name", "s9"])
    capsys.readouterr()
    rc = main(["propelinear", str(tmp_path / "s9.coc"), "--pi-table",
               "--group-structure", "--verify"])
    out = capsys.readouterr().out
    assert rc == 0
    for i, expected in enumerate(paper_data.PI_ORDER9, start=1):
        assert f"C_{i}: {expected}" in out
    assert "group=[3,3,3]" in out and "pi_group=[3,3]" in out


def test_cli_rds_report(tmp_path, capsys):
    main(["build", "--construction", "sylvester-power", "--q", "3", "--t", "2",
          "--out", str(tmp_path), "--name", "s9"])
    capsys.readouterr()
    rc = main(["rds", str(tmp_path / "s9.coc"), "--profile"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "orthogonal=True" in out and "gh=True" in out and "rds=True" in out
    assert "equivalence_agree=True" in out


def test_cli_autcheck(tmp_path, capsys):
    main(["build", "--construction", "sylvester-power", "--q", "3", "--t", "2",
          "--out", str(tmp_path), "--name", "s9"])
    capsys.readouterr()
    rc = main(["autcheck", str(tmp_path / "s9.coc"), "--expanded"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pairs_verified=27" in out and "mode=theorem" in out
    assert "expanded_regular=True" in out


def test_cli_autcheck_expanded_has_no_gate(tmp_path, capsys):
    # S_128: q*v = 16384 codewords, over the old 10^4 gate
    main(["build", "--construction", "sylvester", "--q", "128",
          "--out", str(tmp_path), "--name", "s128"])
    capsys.readouterr()
    rc = main(["--json", "autcheck", str(tmp_path / "s128.coc"), "--expanded"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert payload["expanded_regular"] is True
    assert payload["expanded_order"] == 16384
    assert payload["mode"] == "theorem"
    assert payload["pairs_verified"] == 16384


def test_cli_autcheck_has_no_full_option(tmp_path, capsys):
    main(["build", "--construction", "sylvester-power", "--q", "3", "--t", "2",
          "--out", str(tmp_path), "--name", "s9"])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["autcheck", str(tmp_path / "s9.coc"), "--full"])
    assert exit_.value.code == 2
    assert "--full" in capsys.readouterr().err


def test_cli_report_order4(tmp_path, capsys, order4_cocycle):
    gpath = tmp_path / "z22.cay"
    write_cay(gpath, order4_cocycle.group)
    path = tmp_path / "e41.coc"
    write_coc(path, order4_cocycle, group_path="z22.cay")
    rc = main(["report", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rank=2" in out and "kernel=2" in out
    assert "group=[4,4]" in out and "pi_group=[2,2]" in out


def test_cli_table1(capsys):
    rc = main(["--json", "table1", "--a-min", "4", "--a-max", "4"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    cell = payload["cells"][0]
    assert (cell["a"], cell["b"], cell["rank"], cell["kernel"]) == (4, 3, 11, 1)
    assert cell["match"] is True


def test_cli_build_refuses_unverifiable_object(tmp_path, capsys):
    # a Kronecker build whose lifted left factor kills orthogonality must
    # exit nonzero and write nothing
    main(["build", "--construction", "sylvester", "--q", "3",
          "--out", str(tmp_path), "--name", "s3"])
    main(["build", "--construction", "planar", "--a", "4", "--b", "3",
          "--out", str(tmp_path), "--name", "p43"])
    capsys.readouterr()
    rc = main(["build", "--construction", "kronecker",
               "--left", str(tmp_path / "s3.coc"),
               "--right", str(tmp_path / "p43.coc"),
               "--out", str(tmp_path), "--name", "mixed"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "fails its verifier" in err
    assert not (tmp_path / "mixed.coc").exists()
    assert not (tmp_path / "mixed.ghm").exists()


def test_cli_build_trusts_a_construction_verdict(tmp_path, capsys,
                                                monkeypatch):
    """ghfp build runs no identity check on a construction that proves its
    cocycle (sylvester, planar), and the .coc it writes still reads back
    through the full check."""
    from ghfp.cocycles import Cocycle

    calls = []
    real = Cocycle._check_identity
    monkeypatch.setattr(Cocycle, "_check_identity",
                        lambda self: calls.append(self.v) or real(self))
    for args, name in ((["--construction", "sylvester", "--q", "9"], "s9"),
                       (["--construction", "planar", "--a", "4", "--b", "3"],
                        "p43")):
        assert main(["build", *args, "--out", str(tmp_path),
                     "--name", name]) == 0
        assert calls == []
        psi = read_coc(tmp_path / f"{name}.coc")
        assert calls == [psi.v] and psi.checked
        calls.clear()
    capsys.readouterr()


def test_cli_failed_build_creates_no_directory(tmp_path, capsys):
    """A build that fails (q = 6 is no prime power) creates no --out
    directory, and leaves an existing one as it was."""
    args = ["build", "--construction", "sylvester", "--q", "6"]
    assert main([*args, "--out", str(tmp_path / "new" / "out")]) == 1
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "note.txt").write_text("x")
    assert main([*args, "--out", str(kept)]) == 1
    assert [f.name for f in kept.iterdir()] == ["note.txt"]
    assert (kept / "note.txt").read_text() == "x"
    assert "not a prime power" in capsys.readouterr().err


def test_cli_rds_force_gate(tmp_path, capsys):
    """Order 729 needs no flag: the GH check of a .coc is quadratic."""
    main(["build", "--construction", "sylvester-power", "--q", "3", "--t", "6",
          "--out", str(tmp_path), "--name", "s729"])
    capsys.readouterr()
    rc = main(["rds", str(tmp_path / "s729.coc")])
    out = capsys.readouterr().out
    assert rc == 0 and "equivalence_agree=True" in out


_GOOD_FILES = {
    "coc": ["p=3 m=1 poly=0,1", "v=3", "0 0 0", "0 1 2", "0 2 1"],
    "cay": ["cay 1", "v=3", "0 1 2", "1 2 0", "2 0 1"],
    "ghm": ["ghm 1", "p=3 m=1 poly=0,1", "v=3", "0 0 0", "0 1 2", "0 2 1"],
}
_HEADER_LINE = {"coc": 0, "cay": 0, "ghm": 1}
_BAD_HEADER = {"coc": "p=x m=1 poly=0,1", "cay": "cay 2",
               "ghm": "p=3 m=1 poly=0,x"}
_READERS = {"coc": read_coc, "cay": read_cay, "ghm": read_ghm}


# int() reads these; entries and orders are unsigned ASCII decimal (and an
# entry or order longer than int() converts, 9x5000, is not an integer)
_NOT_DECIMAL = ["+1", "-0", "\u0663", "1_0", "9x5000"]
_NOT_DECIMAL_ORDER = ["v=+3", "v=-0", "v=\u0663", "v=0_3", "v=9x5000"]


def _expand(case):
    return case.replace("9x5000", "9" * 5000)


@pytest.mark.parametrize("suffix", ["coc", "cay", "ghm"])
@pytest.mark.parametrize("case", ["truncated", "bad header", "out of range",
                                  "v=x", "v=", "v=3.5", "v=0"]
                         + [f"entry {x}" for x in _NOT_DECIMAL]
                         + _NOT_DECIMAL_ORDER)
def test_malformed_file_is_a_parse_error(tmp_path, capsys, suffix, case):
    lines = list(_GOOD_FILES[suffix])
    good = tmp_path / f"good.{suffix}"
    good.write_text("\n".join(lines) + "\n")
    _READERS[suffix](good)
    h = _HEADER_LINE[suffix]
    if case == "truncated":
        del lines[-1]
    elif case == "bad header":
        lines[h] = _BAD_HEADER[suffix]
    elif case == "out of range":
        lines[-1] = "0 2 3"
    elif case.startswith("entry "):
        lines[-1] = lines[-1][:-1] + _expand(case[len("entry "):])
    else:
        lines[h + 1] = _expand(case)
    path = tmp_path / f"bad.{suffix}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        _READERS[suffix](path)
    if case.startswith("entry "):
        assert (err.value.args[0].startswith("non-integer entry")
                and (err.value.line, err.value.column) == (len(lines), 3))
    elif case in _NOT_DECIMAL_ORDER:
        order = _expand(case)[2:]
        assert (err.value.args[0].startswith(f"bad order {order!r}")
                and err.value.line == h + 2)
    if suffix == "cay":
        # verify reads a .cay through the group= line of a .coc
        path = tmp_path / "uses_bad.coc"
        path.write_text("p=3 m=1 poly=0,1\nv=3\ngroup=bad.cay\n"
                        "0 0 0\n0 1 2\n0 2 1\n")
    assert main(["verify", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing group", "group is a directory",
                                  "coc not utf-8", "cay not utf-8",
                                  "ghm not utf-8", "no such file",
                                  "NUL in group name"])
def test_unreadable_file_is_a_parse_error(tmp_path, capsys, case):
    """A file that cannot be opened or decoded is a ParseError, located at
    the group= line when a .coc names it."""
    coc = tmp_path / "uses.coc"
    coc.write_text("p=3 m=1 poly=0,1\nv=3\ngroup=z3.cay\n"
                   "0 0 0\n0 1 2\n0 2 1\n")
    path, line = coc, 3
    if case == "group is a directory":
        (tmp_path / "z3.cay").mkdir()
    elif case == "cay not utf-8":
        (tmp_path / "z3.cay").write_bytes(b"cay 1\nv=3\n0 1 2\xff\n")
    elif case in ("coc not utf-8", "ghm not utf-8"):
        path, line = tmp_path / f"bad.{case[:3]}", None
        path.write_bytes(b"\xff\xfe garbage\n")
    elif case == "no such file":
        path, line = tmp_path / "absent.ghm", None
    elif case == "NUL in group name":
        coc.write_bytes(b"p=2 m=1 poly=1,1\nv=2\ngroup=a\x00b.cay\n"
                        b"0 0\n0 1\n")
    with pytest.raises(ParseError) as err:
        _READERS[path.suffix[1:]](path)
    assert err.value.line == line
    assert main(["verify", str(path)]) == 2
    stderr = capsys.readouterr().err
    assert "parse error" in stderr
    if case == "NUL in group name":
        # the name is quoted by repr: no control byte reaches the terminal
        for text in (str(err.value), stderr.rstrip("\n")):
            assert "a\\x00b.cay" in text
            assert not any(ord(ch) < 32 for ch in text), text


# mutation bytes: mostly what the formats are made of, so that a mutated
# file gets past its first line often enough
_ALPHABET = np.frombuffer(b"0123456789 \t\r\n=,-xpmv\x00\xff", dtype=np.uint8)


def _mutate(data: bytes, rng) -> bytes:
    """One to three seeded mutations: insert, replace or delete one to three
    bytes, truncate, or duplicate a line."""
    for _ in range(int(rng.integers(1, 4))):
        kind, i, n = (int(x) for x in rng.integers(0, [5, len(data) + 1, 3]))
        n += 1
        noise = bytes(rng.choice(_ALPHABET, n) if rng.random() < 0.7
                      else rng.integers(0, 256, n, dtype=np.uint8))
        if kind == 0:
            data = data[:i] + noise + data[i:]
        elif kind == 1:
            data = data[:i] + noise + data[i + n:]
        elif kind == 2:
            data = data[:i] + data[i + n:]
        elif kind == 3:
            data = data[:i]
        else:
            lines = data.split(b"\n")
            k = int(rng.integers(len(lines)))
            data = b"\n".join(lines[:k + 1] + lines[k:])
    return data


@pytest.mark.parametrize("base", ["coc", "coc with group=", "cay", "ghm"])
def test_mutated_file_reads_or_raises_a_library_error(tmp_path, capsys, gf3,
                                                      s9_cocycle, base):
    """75 seeded byte mutations of a valid file: its reader either reads it
    or raises a GHFPError, and `ghfp verify` on it (on a .coc naming it,
    for a .cay) returns 0, 1 or 2 and raises nothing."""
    from ghfp import Group, trivial_cocycle
    from ghfp.errors import GHFPError
    from test_groups import s3_table

    write_coc(tmp_path / "s9.coc", s9_cocycle)
    write_ghm(tmp_path / "s9.ghm", matrix_of(s9_cocycle))
    write_coc(tmp_path / "s3.coc", trivial_cocycle(Group(s3_table()), gf3))
    source, reader = {"coc": ("s9.coc", read_coc),
                      "coc with group=": ("s3.coc", read_coc),
                      "cay": ("s3.cay", read_cay),
                      "ghm": ("s9.ghm", read_ghm)}[base]
    good = (tmp_path / source).read_bytes()
    target = tmp_path / f"m.{source[-3:]}"
    verified = target
    if base == "cay":  # verify reads a .cay through a .coc's group= line
        verified = tmp_path / "uses_m.coc"
        verified.write_bytes((tmp_path / "s3.coc").read_bytes().replace(
            b"group=s3.cay", b"group=m.cay"))
    rng = np.random.default_rng(len(good))
    codes = set()
    for _ in range(75):
        target.write_bytes(_mutate(good, rng))
        try:
            reader(target)
        except GHFPError:
            pass
        codes.add(main(["verify", str(verified)]))
    capsys.readouterr()
    assert 2 in codes and codes <= {0, 1, 2}


@pytest.mark.parametrize("cmd,name", [("verify", "s9.txt"),
                                      ("code", "s9"),
                                      ("report", "s9.cay"),
                                      ("rds", "s9.ghm"),
                                      ("propelinear", "s9.ghm"),
                                      ("autcheck", "s9.ghm")])
def test_unknown_suffix_is_a_parse_error(tmp_path, capsys, s9_cocycle, cmd,
                                         name):
    """Every command reads its file by suffix: .coc or .ghm, and .coc only
    where a cocycle is needed.  Anything else is a parse error, whatever
    the file holds."""
    path = tmp_path / name
    write_coc(path, s9_cocycle)
    assert main([cmd, str(path)]) == 2
    assert "parse error: expected a .coc" in capsys.readouterr().err
    if cmd == "report":
        with pytest.raises(ParseError):
            consolidated_report(path)


def test_short_coc_claiming_a_large_order_is_a_parse_error(tmp_path, capsys):
    """A .coc without group= that claims v = 2^62 but holds two rows fails
    on its rows, before Z_2^62, whose table no array can hold, is built."""
    path = tmp_path / "big.coc"
    path.write_text(f"p=2 m=1 poly=0,1\nv={2 ** 62}\n0 0\n0 1\n")
    with pytest.raises(ParseError) as err:
        read_coc(path)
    assert err.value.line == 3
    assert main(["verify", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.ghm"
    bad.write_text("garbage\n")
    rc = main(["verify", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "parse error" in err


@pytest.fixture(scope="module")
def verify_cocycles(gf3, s9_cocycle, s8_cocycle, dphi43):
    """Orthogonal cocycles, and non-orthogonal coboundaries over Z_3^k and
    S_3 (the first unbalanced row is not always row 1)."""
    from ghfp import Group, coboundary
    from test_groups import s3_table

    rng = np.random.default_rng(0)
    out = {"s9": s9_cocycle, "s8": s8_cocycle, "dphi43": dphi43}
    for name, group in [("z3^2", elementary_abelian(3, 2)),
                        ("z3^3", elementary_abelian(3, 3)),
                        ("s3", Group(s3_table()))]:
        for k in range(4):
            phi = rng.integers(0, 3, size=group.order)
            out[f"cob_{name}_{k}"] = coboundary(phi, group, gf3)
    return out


@pytest.mark.parametrize("name", ["s9", "s8", "dphi43"] + [
    f"cob_{g}_{k}" for g in ("z3^2", "z3^3", "s3") for k in range(4)])
def test_cli_verify_coc_matches_is_gh(tmp_path, capsys, verify_cocycles,
                                      name):
    """verify on a .coc stops after the pairs (0, j); verdict, witness, text
    and --json are what the full row-pair scan of the bare matrix gives."""
    from ghfp import GHMatrix, is_gh

    psi = verify_cocycles[name]
    write_coc(tmp_path / "x.coc", psi)
    ok, witness = is_gh(GHMatrix(psi.field, psi.table))
    lam = psi.v // psi.q
    rc = main(["verify", str(tmp_path / "x.coc")])
    out = capsys.readouterr().out
    if ok:
        assert (rc, out) == (0, f"GH({psi.q},{lam}) OK\n")
    else:
        i, j, u, count = witness
        assert (rc, out) == (1, f"FAIL rows ({i},{j}): element {u} appears "
                                f"{count} times, expected {lam}\n")
    assert main(["--json", "verify", str(tmp_path / "x.coc")]) == rc
    payload = json.loads(capsys.readouterr().out)
    assert payload["gh"] is ok and payload["q"] == psi.q
    assert payload["lambda"] == (lam if ok else None)
    assert payload["witness"] == (None if ok else list(witness))


def test_cli_verify_fails_on_corrupted(tmp_path, capsys, gf3):
    from ghfp import GHMatrix

    t = paper_data.H_ORDER9.copy()
    t[4, 4] = 0
    write_ghm(tmp_path / "bad.ghm", GHMatrix(gf3, t))
    rc = main(["verify", str(tmp_path / "bad.ghm")])
    out = capsys.readouterr().out
    assert rc == 1 and "FAIL" in out


def test_cli_determinism(tmp_path, capsys):
    """A repeated run prints the same payload and run record, apart from
    the wall time; there is no --seed option."""
    main(["build", "--construction", "planar", "--a", "4", "--b", "3",
          "--out", str(tmp_path), "--name", "p43"])
    capsys.readouterr()
    outs = []
    for _ in range(2):
        main(["--json", "code", str(tmp_path / "p43.coc")])
        payload = json.loads(capsys.readouterr().out)
        payload["run"].pop("seconds")
        outs.append(payload)
    assert outs[0] == outs[1]
    with pytest.raises(SystemExit) as exit_:
        main(["--json", "--seed", "1", "code", str(tmp_path / "p43.coc")])
    assert exit_.value.code == 2


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ghfp.cli", "table1", "--a-min", "4",
         "--a-max", "4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "11" in proc.stdout


def test_cocycle_identity_checked_once_per_coc(tmp_path, capsys, monkeypatch,
                                               s9_cocycle, gf3):
    """code, report, verify and rds check a .coc's identity once, in
    read_coc, and code, report and verify check a .ghm's at most once, in
    GHMatrix.cocycle over the default group.  report on an orthogonal
    cocycle also rebuilds the cocycle of the star group from the code
    (cocycle_from_code), which is the transpose of a checked one and is not
    checked again."""
    import traceback

    from ghfp import Cocycle, coboundary
    from ghfp.cli import consolidated_report

    rng = np.random.default_rng(2)
    cob = coboundary(rng.integers(0, 3, size=27), elementary_abelian(3, 3),
                     gf3)
    for stem, psi in (("s9", s9_cocycle), ("cob", cob)):
        write_coc(tmp_path / f"{stem}.coc", psi)
        write_ghm(tmp_path / f"{stem}.ghm", matrix_of(psi))
    calls = []
    real = Cocycle._check_identity

    def counting(self):
        calls.append({fr.name for fr in traceback.extract_stack()})
        return real(self)

    monkeypatch.setattr(Cocycle, "_check_identity", counting)
    for stem, suffix in itertools.product(("s9", "cob"), ("coc", "ghm")):
        path = str(tmp_path / f"{stem}.{suffix}")
        checker = "read_coc" if suffix == "coc" else "cocycle"
        runs = [("code", lambda: main(["code", path])),
                ("verify", lambda: main(["verify", path])),
                ("report", lambda: consolidated_report(path))]
        if suffix == "coc":
            runs.append(("rds", lambda: main(["rds", path])))
        for name, run in runs:
            calls.clear()
            run()
            star = [c for c in calls if "cocycle_from_code" in c]
            own = [c for c in calls if "cocycle_from_code" not in c]
            assert not star, name
            # verify of cob.ghm, no GH matrix, fails at the pairs (0, j),
            # before the verdict is asked for
            want = [] if (stem, suffix, name) == ("cob", "ghm", "verify") \
                else [True]
            assert [checker in c for c in own] == want, (stem, suffix, name)
    capsys.readouterr()


def test_constructions_search_scan_and_check_nothing(monkeypatch,
                                                    bench_recipes):
    """One cocycle of each family the fingerprint workload builds (planar,
    sylvester, power, gen, tensor), its matrix_of and the code's rank and
    minimum distance run no greedy generator search, no inverse-map scan
    and no identity check: the groups carry their generators and inverse
    from construction, the cocycles their verdict by theorem."""
    from ghfp import Cocycle, GHCode, groups

    _, build = bench_recipes
    calls = []

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    # Group.__init__ is where a table's inverse map is scanned
    for owner, name in ((groups, "_greedy_generators"),
                        (groups.Group, "__init__"),
                        (Cocycle, "_check_identity")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    for recipe in [("planar", 4, 3), ("sylvester", 2, 4), ("power", 3, 1, 2),
                   ("gen", 3, 1, 3),
                   ("tensor", ("power", 3, 1, 2), ("power", 3, 1, 2))]:
        psi = build(recipe)
        M = matrix_of(psi)
        assert M.cocycle() is psi, recipe
        code = GHCode(M)
        assert code.rank() >= 1 and code.min_distance().mode == "theorem"
        assert calls == [], recipe
    # the counters do count: a table given to Group is scanned
    groups.Group(psi.group.table).generators()
    assert calls == ["__init__", "_greedy_generators"]


# -- the one-pass parse against the per-line loop -----------------------------

@pytest.fixture(scope="module")
def gf243_cocycle():
    """The Sylvester cocycle of GF(3^5): order 243, tokens of 1 to 3 digits."""
    from ghfp import multiplication_cocycle

    return multiplication_cocycle(Field(3, 5))


_FIXTURE_ORDERS = ["s3_cocycle", "order4_cocycle", "s8_cocycle", "s9_cocycle",
                   "dphi43", "gf243_cocycle"]
_TOKEN_MUTATIONS = _NOT_DECIMAL + ["x", "99999999999999999999"]
_MUTATIONS = ([f"token {x}" for x in _TOKEN_MUTATIONS]
              + ["good", "row short", "row long", "missing row", "extra row",
                 "tabs", "trailing spaces", "crlf", "trailing blank line"])
# inputs the one-pass parse must take itself: plain bodies (an extra row
# lies past the v rows read)
_PLAIN = {"good", "extra row", "tabs", "crlf", "trailing blank line"}


def _mutated_body(tmp_path, table, mutation, rng):
    """The body lines of the file text of table under one mutation, read
    back as the readers read them."""
    rows = [[str(x) for x in row] for row in table.tolist()]
    i, j = (int(x) for x in rng.integers(0, len(rows), size=2))
    sep, end = " ", "\n"
    if mutation.startswith("token "):
        rows[i][j] = _expand(mutation[len("token "):])
    elif mutation == "row short":
        del rows[i][j]
    elif mutation == "row long":
        rows[i].insert(j, rows[i][j])
    elif mutation == "missing row":
        del rows[i]
    elif mutation == "extra row":
        rows.append(rows[i])
    elif mutation == "tabs":
        sep = "\t"
    elif mutation == "crlf":
        end = "\r\n"
    text = "".join(sep.join(row) + end for row in rows)
    if mutation == "trailing spaces":
        text = text.replace(end, "  " + end)
    elif mutation == "trailing blank line":
        text += end
    path = tmp_path / "body.txt"
    path.write_bytes(text.encode())
    return fileio._read_lines(path)[:len(table)]


def _outcome(parse, lines, v, limit):
    try:
        return parse(lines, 1, v, limit).tolist()
    except ParseError as e:
        return e.args[0], e.line, e.column


@pytest.mark.parametrize("mutation", _MUTATIONS)
@pytest.mark.parametrize("name", _FIXTURE_ORDERS)
def test_one_pass_parse_matches_per_line_loop(tmp_path, monkeypatch, request,
                                               name, mutation):
    """Every mutation of a fixture's table gives the same table, or the same
    ParseError (message, line, column), through _parse_rows as through the
    per-line loop alone; plain bodies never reach the loop."""
    psi = request.getfixturevalue(name)
    rng = np.random.default_rng(sum(map(ord, name + mutation)))
    for _ in range(3):
        lines = _mutated_body(tmp_path, psi.table, mutation, rng)
        loop = _outcome(fileio._parse_lines, lines, psi.v, psi.q)
        assert _outcome(fileio._parse_rows, lines, psi.v, psi.q) == loop
        if mutation in _PLAIN:
            with monkeypatch.context() as m:
                m.setattr(fileio, "_parse_lines", None)
                assert fileio._parse_rows(lines, 1, psi.v, psi.q).tolist() \
                    == loop == psi.table.tolist()


# -- the token-word writer against the string join -------------------------

def join_text(header, table) -> bytes:
    """The file text by the string join: the decimal strings of 0..max,
    gathered per entry and joined with spaces and newlines (the writer's
    oracle)."""
    decimal = np.array([str(x) for x in range(int(table.max()) + 1)],
                       dtype=object)
    rows = map(" ".join, decimal[table].tolist())
    return ("\n".join([*header, *rows]) + "\n").encode()


def _assert_written_by_join(path, table):
    text = path.read_bytes()
    header = text.decode().splitlines()[:-len(table)]
    assert text == join_text(header, table)


def test_writer_matches_per_row_format_on_zeros_and_cay(tmp_path, gf3):
    """A trivial cocycle, whose largest entry is 0, and a .cay."""
    from ghfp import trivial_cocycle

    group = elementary_abelian(3, 2)
    write_coc(tmp_path / "zero.coc", trivial_cocycle(group, gf3))
    _assert_written_by_join(tmp_path / "zero.coc", np.zeros((9, 9), int))
    write_cay(tmp_path / "z9.cay", group)
    _assert_written_by_join(tmp_path / "z9.cay", group.table)


def test_writer_matches_the_join_at_every_token_width(tmp_path, s8_cocycle,
                                                      dphi43):
    """One-digit bodies (GF(8), and Z_2^8 over GF(4) with words of two
    bytes) and mixed bodies of 1 to 3 digits (GF(3^5), GF(81)) and of 1 to
    4 digits (a random matrix over GF(2^11), and the .cay of Z_2^10 read
    in a random order): every file is the join's, byte for byte, and reads
    back."""
    from ghfp import GHMatrix, multiplication_cocycle, tensor

    rng = np.random.default_rng(27)
    gf4, gf2048 = Field(2, 2), Field(2, 11)
    s4 = multiplication_cocycle(gf4)
    z2_10 = elementary_abelian(2, 10)
    img = np.concatenate(([0], 1 + rng.permutation(1023)))
    relabeled = img[z2_10.table[np.argsort(img)][:, np.argsort(img)]]
    for i, psi in enumerate([s8_cocycle, tensor(tensor(s4, s4), tensor(s4, s4)),
                             multiplication_cocycle(Field(3, 5)), dphi43]):
        write_coc(tmp_path / f"{i}.coc", psi)
        _assert_written_by_join(tmp_path / f"{i}.coc", psi.table)
        assert read_coc(tmp_path / f"{i}.coc") == psi
    entries = rng.integers(0, 2048, size=(48, 48))
    entries[:, -1] = rng.integers(1000, 2048, size=48)  # 4-digit row ends
    write_ghm(tmp_path / "m.ghm", GHMatrix(gf2048, entries))
    _assert_written_by_join(tmp_path / "m.ghm", entries)
    assert (read_ghm(tmp_path / "m.ghm").entries == entries).all()
    for name, table in [("z.cay", z2_10.table), ("r.cay", relabeled)]:
        write_cay(tmp_path / name, Group(table))
        _assert_written_by_join(tmp_path / name, table)
        assert (read_cay(tmp_path / name).table == table).all()


def test_entries_outside_the_field_write_no_file(tmp_path, gf3, s9_cocycle):
    """A table entry below 0 or at least q (for a .cay, v) raises the
    library's error and writes nothing, not even the .cay of a relabeled
    group: a gather by -1 would write the token of q - 1, and the join
    wrote "-1", which read_coc refuses."""
    from ghfp import Cocycle, GHMatrix

    z9 = elementary_abelian(3, 2)
    img = np.array([0, 2, 1, 3, 4, 5, 6, 7, 8])
    swapped = Group(img[z9.table[img][:, img]])
    for bad in (-1, 3):
        table = s9_cocycle.table.copy()
        table[4, 5] = bad
        for group in (z9, swapped):
            with pytest.raises(FieldMismatch, match=f"entry {bad} is outside"):
                write_coc(tmp_path / "bad.coc",
                          Cocycle(group, gf3, table, check="skip"))
        with pytest.raises(FieldMismatch):
            write_ghm(tmp_path / "bad.ghm", GHMatrix(gf3, table))
    for bad in (-1, 9):
        table = np.array(z9.table)
        table[4, 5] = bad
        with pytest.raises(NotAGroup, match=f"entry {bad} is outside"):
            write_cay(tmp_path / "bad.cay", Group(table, check=False))
    assert list(tmp_path.iterdir()) == []


def test_parse_rows_reads_tokens_of_up_to_18_digits(monkeypatch):
    """A token of 18 digits is read by the separator pass itself, exactly;
    one of 19 digits, which could overflow int64, goes to the per-line
    loop, which reads the same value."""
    loop = fileio._parse_lines
    cases = [("0" * 17 + "7", 7, 8, False),
             ("9" * 18, 10 ** 18 - 1, 10 ** 18, False),
             ("0" * 18 + "7", 7, 8, True)]
    for token, value, limit, through_loop in cases:
        calls = []
        monkeypatch.setattr(fileio, "_parse_lines",
                            lambda *a: calls.append(a) or loop(*a))
        table = fileio._parse_rows([f"0 {token}", "1\t0"], 1, 2, limit)
        assert table.tolist() == [[0, value], [1, 0]]
        assert table.dtype == np.int64 and bool(calls) == through_loop
    # the largest 18-digit value out of range is the loop's ParseError
    with pytest.raises(ParseError, match="out of range") as err:
        fileio._parse_rows(["0 " + "9" * 18, "1 0"], 5, 2, 10 ** 18 - 1)
    assert err.value.line == 5


# -- the shared Field and default group ---------------------------------------

def test_shared_field_and_group_are_read_only(tmp_path, gf3, s9_cocycle):
    """Two .coc files with one header share their Field and Z_3^2; writing
    into a shared table raises, and a file's own table reaches no other."""
    from ghfp import coboundary

    group = elementary_abelian(3, 2)
    cob = coboundary(np.arange(9) ** 2 % 3, group, gf3)
    for name, psi in [("a", s9_cocycle), ("b", cob)]:
        write_coc(tmp_path / f"{name}.coc", psi)
    a, b = read_coc(tmp_path / "a.coc"), read_coc(tmp_path / "b.coc")
    assert a.field == b.field == gf3
    assert (a.group.table == b.group.table).all()
    assert a.group.generators() == b.group.generators() == [1, 3]
    shared = [a.group.table, a.group.inv, a.field.exp, a.field.log,
              a.field._add, a.field._neg]
    for table in shared:
        with pytest.raises(ValueError, match="read-only"):
            table[1] = 0
    a.table[1, 1] = 2
    assert (b.table == cob.table).all()
    assert (read_coc(tmp_path / "a.coc").table == s9_cocycle.table).all()


def test_default_group_generators_are_not_shared(tmp_path, s9_cocycle):
    """The generators of the Z_3^2 that every .coc of order 9 is read
    against come back as a new list: appending to one cannot reach the
    generating set of a later read_coc."""
    write_coc(tmp_path / "a.coc", s9_cocycle)
    fileio._default_group(9, 3).generators().append(4)
    read_coc(tmp_path / "a.coc").group.generators().append(5)
    assert read_coc(tmp_path / "a.coc").group.generators() == [1, 3]
    assert fileio._default_group(9, 3).generators() == [1, 3]


@pytest.mark.parametrize("suffix", ["coc", "ghm"])
@pytest.mark.parametrize("header", [
    "p=+3 m=\u0661 poly=0,1", "p=+3 m=1 poly=0,1", "p=3 m=\u0661 poly=0,1",
    "p=0_3 m=1 poly=0,1", "p=3 m=1 poly=0,+1", "p=3 m=1 poly=-0,1",
    "p=3 m=1 poly=0,1_0", "p=3 m=1 poly=0,\u0661", "p=3\u00a0m=1 poly=0,1",
    "p=3 m=1 poly=0," + "9" * 5000])
def test_non_decimal_field_header_is_a_parse_error(tmp_path, capsys, suffix,
                                                   header):
    """p, m and the poly coefficients are unsigned ASCII decimal, as entries
    and v= are: int() would read each of these headers as GF(3)."""
    lines = list(_GOOD_FILES[suffix])
    h = _HEADER_LINE[suffix]
    lines[h] = header
    path = tmp_path / f"bad.{suffix}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as err:
        _READERS[suffix](path)
    assert err.value.args[0].startswith("bad field header")
    assert err.value.line == h + 1
    assert main(["verify", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


@pytest.mark.parametrize("suffix", ["coc", "cay", "ghm"])
@pytest.mark.parametrize("sep", ["\u00a0", "\f", "\v", "\r", "\x1c", "\x85",
                                 "\u2028", "\u3000"])
def test_only_ascii_space_and_tab_separate_entries(tmp_path, suffix, sep):
    """Lines end at "\\n" only (with an optional "\\r" before it), and
    entries are separated by spaces and tabs only: any other Unicode space
    or line break inside a row is a ParseError on that row's line."""
    for row, msg, column in [("0" + sep + "1 2", "expected 3 entries, got 2",
                              None),
                             (sep + "0 1 2", "non-integer entry", 1)]:
        lines = list(_GOOD_FILES[suffix])
        lines[-2] = row
        path = tmp_path / f"bad.{suffix}"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(ParseError) as err:
            _READERS[suffix](path)
        assert err.value.args[0].startswith(msg), (row, err.value)
        assert (err.value.line, err.value.column) == (len(lines) - 1, column)
