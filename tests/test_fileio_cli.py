import json
import subprocess
import sys

import numpy as np
import pytest

from ghfp import Field, elementary_abelian, matrix_of
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
    assert "pairs_verified=27" in out
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


@pytest.mark.parametrize("suffix", ["coc", "cay", "ghm"])
@pytest.mark.parametrize("case", ["truncated", "bad header", "out of range",
                                  "v=x", "v=", "v=3.5", "v=0"])
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
    else:
        lines[h + 1] = case
    path = tmp_path / f"bad.{suffix}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError):
        _READERS[suffix](path)
    if suffix == "cay":
        # verify reads a .cay through the group= line of a .coc
        path = tmp_path / "uses_bad.coc"
        path.write_text("p=3 m=1 poly=0,1\nv=3\ngroup=bad.cay\n"
                        "0 0 0\n0 1 2\n0 2 1\n")
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
    read_coc.  report on an orthogonal cocycle also checks the cocycle of
    the star group, rebuilt from the code (cocycle_from_code)."""
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
    for stem, orthogonal in [("s9", True), ("cob", False)]:
        path = str(tmp_path / f"{stem}.coc")
        for name, run in [("code", lambda: main(["code", path])),
                          ("verify", lambda: main(["verify", path])),
                          ("rds", lambda: main(["rds", path])),
                          ("report", lambda: consolidated_report(path))]:
            calls.clear()
            run()
            star = [c for c in calls if "cocycle_from_code" in c]
            own = [c for c in calls if "cocycle_from_code" not in c]
            assert len(star) == (name == "report" and orthogonal), name
            assert ["read_coc" in c for c in own] == [True], (stem, name)
    capsys.readouterr()
