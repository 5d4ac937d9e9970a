import json
import subprocess
import sys

import numpy as np
import pytest

from ghfp import Field, elementary_abelian, matrix_of
from ghfp import fileio
from ghfp.cli import main
from ghfp.errors import NotAGroup, ParseError
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
    # byte for byte what " ".join(map(str, row)) gives
    _assert_written_per_row(tmp_path / "x.coc", psi.table)
    _assert_written_per_row(tmp_path / "x.ghm", psi.table)
    for cay in tmp_path.glob("*.cay"):
        _assert_written_per_row(cay, read_cay(cay).table)
    if construction == "kronecker":
        left = read_coc(tmp_path / "s8.coc")
        assert (psi.group.table == left.group.direct_product(
            left.group).table).all()
    assert main(["verify", str(tmp_path / "x.coc")]) == 0


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
    assert "run" in payload and payload["run"]["seed"] == 0


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
    assert "pairs_verified=27" in out and "mode=exhaustive" in out
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
    assert payload["mode"] in ("exhaustive", "sampled")


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
                                  "ghm not utf-8", "no such file"])
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
    with pytest.raises(ParseError) as err:
        _READERS[path.suffix[1:]](path)
    assert err.value.line == line
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
    main(["build", "--construction", "sylvester", "--q", "3",
          "--out", str(tmp_path), "--name", "s3"])
    capsys.readouterr()
    outs = []
    for _ in range(2):
        main(["--json", "--seed", "7", "code", str(tmp_path / "s3.coc")])
        payload = json.loads(capsys.readouterr().out)
        payload["run"].pop("seconds")
        outs.append(json.dumps(payload, sort_keys=True))
    assert outs[0] == outs[1]


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
    read_coc.  report on an orthogonal cocycle also rebuilds the cocycle of
    the star group from the code (cocycle_from_code), which is the
    transpose of a checked one and is not checked again."""
    import traceback

    from ghfp import Cocycle, coboundary
    from ghfp.cli import consolidated_report

    rng = np.random.default_rng(2)
    write_coc(tmp_path / "s9.coc", s9_cocycle)
    write_coc(tmp_path / "cob.coc", coboundary(
        rng.integers(0, 3, size=27), elementary_abelian(3, 3), gf3))
    calls = []
    real = Cocycle._check_identity

    def counting(self):
        calls.append({fr.name for fr in traceback.extract_stack()})
        return real(self)

    monkeypatch.setattr(Cocycle, "_check_identity", counting)
    for stem in ("s9", "cob"):
        path = str(tmp_path / f"{stem}.coc")
        for name, run in [("code", lambda: main(["code", path])),
                          ("verify", lambda: main(["verify", path])),
                          ("rds", lambda: main(["rds", path])),
                          ("report", lambda: consolidated_report(path))]:
            calls.clear()
            run()
            star = [c for c in calls if "cocycle_from_code" in c]
            own = [c for c in calls if "cocycle_from_code" not in c]
            assert not star, name
            assert ["read_coc" in c for c in own] == [True], (stem, name)
    capsys.readouterr()


# -- the one-pass parse against the per-line loop -----------------------------

_FIXTURE_ORDERS = ["s3_cocycle", "order4_cocycle", "s8_cocycle", "s9_cocycle",
                   "dphi43"]
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


# -- the string-table writer against the per-row formatter --------------------

def _per_row_text(header, table):
    rows = (" ".join(map(str, row)) for row in table.tolist())
    return "\n".join([*header, *rows]) + "\n"


def _assert_written_per_row(path, table):
    text = path.read_text()
    header = text.splitlines()[:-len(table)]
    assert text == _per_row_text(header, table)


def test_writer_matches_per_row_format_on_zeros_and_cay(tmp_path, gf3):
    """A trivial cocycle, whose largest entry is 0, and a .cay."""
    from ghfp import trivial_cocycle

    group = elementary_abelian(3, 2)
    write_coc(tmp_path / "zero.coc", trivial_cocycle(group, gf3))
    _assert_written_per_row(tmp_path / "zero.coc", np.zeros((9, 9), int))
    write_cay(tmp_path / "z9.cay", group)
    _assert_written_per_row(tmp_path / "z9.cay", group.table)


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
