"""The byte path of the table readers and the writers' body slot.

read_cay, read_coc and read_ghm parse a plain body straight from the file's
bytes (fileio._parse_rows) and fall back to the decoded lines on any doubt.
The oracle here is the lines path alone: the same reader with _parse_rows
switched off, so every body goes through _decode_lines and _parse_lines.
"""

import gc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ghfp import Cocycle, Field, GHMatrix, Group, elementary_abelian, matrix_of
from ghfp import fileio
from ghfp.cli import main
from ghfp.errors import (CocycleIdentityViolated, FieldMismatch, GHFPError,
                         NotAGroup)
from ghfp.fileio import (read_cay, read_coc, read_ghm, write_cay, write_coc,
                         write_ghm)

from test_fileio_cli import BUILDS, join_text

_READERS = {".cay": read_cay, ".coc": read_coc, ".ghm": read_ghm}


def _build_all(out: Path) -> None:
    """Every file ghfp build writes: each construction in each ordering,
    named <construction>_<ordering>, and the S_8 factors of kronecker."""
    for ordering in ("encoding", "primitive-power"):
        args = ["--ordering", ordering, "--out", str(out)]
        s8 = str(out / f"s8_{ordering}.coc")
        assert main(["build", "--construction", "sylvester", "--q", "8",
                     "--name", Path(s8).stem, *args]) == 0
        builds = {**BUILDS, "kronecker": ["--left", s8, "--right", s8]}
        for construction, opts in builds.items():
            assert main(["build", "--construction", construction, *opts,
                         "--name", f"{construction}_{ordering}", *args]) == 0


def _write_ingest_tiny(out: Path) -> None:
    """The files the benchmark's ingest workload writes for its tiny
    kinds, three jobs each, as its jobs write them."""
    import workloads

    tr = SimpleNamespace(call=lambda name, fn, *a, **kw: fn(*a, **kw),
                         count=lambda *a: None)
    ingest = workloads.Ingest(tr, out, tiny=True)
    rng = np.random.default_rng(33)
    for i in range(3 * len(ingest.kinds)):
        kind = ingest.kinds[i % len(ingest.kinds)]
        ingest.run(ingest.make_job(rng, f"0.{i}", kind), tr)


@pytest.fixture(scope="module")
def written(tmp_path_factory, bench_recipes):
    """{name: bytes} of every file ghfp build and the tiny ingest kinds
    write, in one directory (the .cay files a .coc names lie beside it);
    bench_recipes puts perfbench's workloads on the import path."""
    out = tmp_path_factory.mktemp("written")
    _build_all(out)
    _write_ingest_tiny(out)
    return out, {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def _outcome(reader, path):
    """What a reader gives: its table and group table, or its error's type,
    message, line and column."""
    try:
        obj = reader(path)
    except GHFPError as e:
        return type(e), str(e), getattr(e, "line", None), \
            getattr(e, "column", None)
    if isinstance(obj, Group):
        return obj.table.tolist()
    table = obj.table if isinstance(obj, Cocycle) else obj.entries
    group = None if obj.group is None else obj.group.table.tolist()
    return table.tolist(), group


def _assert_reads_as_the_lines_path(path: Path, label: str = ""):
    reader = _READERS[path.suffix]
    got = _outcome(reader, path)
    parse_rows = fileio._parse_rows
    fileio._parse_rows = lambda *a: None
    try:
        assert _outcome(reader, path) == got, (path.name, label)
    finally:
        fileio._parse_rows = parse_rows


def _body_start(name: str, data: bytes) -> int:
    """The offset of a written file's body: after 2 header lines (.cay, and
    .coc without group=) or 3."""
    lines = data.split(b"\n")
    n = 2 if name.endswith(".cay") else 3
    if name.endswith(".coc") and not lines[2].startswith(b"group="):
        n = 2
    return sum(len(x) + 1 for x in lines[:n])


def _rewrites(name: str, data: bytes):
    """Each written file under one rewrite: (label, bytes)."""
    start = _body_start(name, data)
    head, body = data[:start], data[start:]
    mid = len(body) // 2
    rows = body.split(b"\n")[:-1]
    zeros = b"".join(b" ".join(b"00" + t for t in row.split(b" ")) + b"\n"
                     for row in rows)
    yield "as written", data
    yield "tabs", head + body.replace(b" ", b"\t")
    yield "tabs everywhere", data.replace(b" ", b"\t")
    yield "crlf", data.replace(b"\n", b"\r\n")
    yield "crlf body", head + body.replace(b"\n", b"\r\n")
    yield "a line after the body", data + b"0 1\n"
    yield "a blank line after the body", data + b"\n"
    yield "digits after the body", data + b"7"
    yield "no final newline", data[:-1]
    yield "non-UTF-8 in the header", data.replace(b"\n", b"\xff\n", 1)
    yield "non-UTF-8 in the body", head + body[:mid] + b"\xff" + body[mid + 1:]
    yield "non-UTF-8 after the body", data + b"\xff\n"
    yield "leading zeros", head + zeros
    yield "an empty token", head + body.replace(b" ", b"  ", 1)
    yield "a short body", head + b"\n".join(rows[:-1]) + b"\n"


def test_every_written_file_reads_as_the_lines_path(tmp_path, written):
    """Every file ghfp build and the tiny ingest kinds write, as written
    and under each rewrite (tabs, CRLF, lines after the body, no final
    newline, a non-UTF-8 byte in the header, the body or after it, leading
    zeros, an empty token), reads to the same table and group, or the same
    error (message, line, column), as through the lines path alone."""
    out, files = written
    for name, data in files.items():
        if name.endswith(".cay"):
            continue  # read below through the .coc that names it
        for label, text in _rewrites(name, data):
            path = out / f"rewritten{Path(name).suffix}"
            if name.endswith(".coc") and b"group=" in text:
                path = out / name.replace(".coc", ".rewritten.coc")
            path.write_bytes(text)
            _assert_reads_as_the_lines_path(path, f"{name}: {label}")
    for name, data in files.items():
        if name.endswith(".cay"):
            for label, text in _rewrites(name, data):
                (tmp_path / "r.cay").write_bytes(text)
                _assert_reads_as_the_lines_path(tmp_path / "r.cay",
                                                f"{name}: {label}")


# every byte value for the smallest body; for the larger, one of each kind:
# each digit, the separators, a carriage return, NUL, other ASCII, and
# bytes that are no UTF-8 or begin a multi-byte character
_KINDS_OF_BYTE = b"0123456789 \t\n\r\x00x-+.=\x7f\x80\xbf\xc2\xe0\xf0\xff"


@pytest.mark.parametrize("construction, opts, values", [
    ("sylvester", ["--q", "3"], bytes(range(256))),
    ("sylvester", ["--q", "4"], _KINDS_OF_BYTE),
    ("gen-sylvester", ["--p", "2", "--m", "1", "--k", "3"], _KINDS_OF_BYTE)],
    ids=["S_3", "S_4", "D_2_1_3"])
def test_every_single_byte_corruption_reads_as_the_lines_path(
        tmp_path, monkeypatch, construction, opts, values):
    """Every byte value at every body position of the .coc and .ghm of S_3
    (v = 3), and each kind of byte at every body position of those of S_4
    in primitive-power order (v = 4; its .coc names a .cay, also
    corrupted) and D_(2,1,3) (v = 8), reads to the same table or error as
    through the lines path alone.  The corrupted bytes are served from
    memory, as _read_bytes would read them."""
    out = tmp_path / "built"
    assert main(["build", "--construction", construction, *opts,
                 "--ordering", "primitive-power", "--out", str(out),
                 "--name", "x"]) == 0
    served = {}
    read_bytes = fileio._read_bytes
    monkeypatch.setattr(fileio, "_read_bytes", lambda path, lineno=None:
                        served.get(Path(path).name) or read_bytes(path, lineno))
    for f in sorted(out.iterdir()):
        data = f.read_bytes()
        path = out / ("y.coc" if f.suffix == ".coc" else f"c{f.suffix}")
        for i in range(_body_start(f.name, data), len(data)):
            for b in values:
                served[path.name] = data[:i] + bytes([b]) + data[i + 1:]
                _assert_reads_as_the_lines_path(path, f"{f.name}[{i}]={b}")


def test_plain_files_never_reach_the_lines_path(tmp_path, monkeypatch,
                                                written):
    """With _decode_lines and _parse_lines patched to raise, every file
    ghfp build writes (each construction and ordering), the files of the
    tiny ingest kinds and a relabeled .cay still read: a plain file that
    fell to the lines path would fail here."""
    out, files = written
    group = elementary_abelian(3, 4)
    img = np.concatenate(([0], 1 + np.random.default_rng(5).permutation(80)))
    relabeled = Group(img[group.table[np.argsort(img)][:, np.argsort(img)]])
    write_cay(tmp_path / "r.cay", relabeled)

    def slow(*args):
        raise AssertionError("a plain file took the lines path")

    monkeypatch.setattr(fileio, "_decode_lines", slow)
    monkeypatch.setattr(fileio, "_parse_lines", slow)
    assert (read_cay(tmp_path / "r.cay").table == relabeled.table).all()
    for suffix in (".cay", ".ghm", ".coc"):  # each .ghm before its .coc
        for name in files:
            if name.endswith(suffix):
                try:
                    _READERS[suffix](out / name)
                except CocycleIdentityViolated:  # a corrupted ingest job
                    assert name.startswith("job")
    assert len(files) > 30


# -- the body slot -------------------------------------------------------------

@pytest.fixture
def built_bodies(monkeypatch):
    """The tables whose bodies _file_bytes builds, in order."""
    real, tables = fileio._token_words, []

    def spy(hi):
        tables.append(hi)
        return real(hi)

    monkeypatch.setattr(fileio, "_token_words", spy)
    return tables


def _assert_joined(path, table):
    text = path.read_bytes()
    header = text.decode().split("\n")[:-len(table) - 1]
    assert text == join_text(header, table)


@pytest.mark.parametrize("relabel", [False, True], ids=["Z_3^4", ".cay"])
def test_a_ghm_after_its_coc_reuses_the_body(tmp_path, dphi43, relabel,
                                             built_bodies):
    """write_coc then write_ghm(matrix_of(psi)), as ghfp build and the
    ingest workload write, build the body once and write the string join's
    bytes, with and without a .cay (whose body write_coc builds first)."""
    psi = dphi43
    if relabel:
        img = np.concatenate(([0], 1 + np.random.default_rng(2).permutation(80)))
        inv = np.argsort(img)
        psi = Cocycle(Group(img[psi.group.table[inv][:, inv]]), psi.field,
                      psi.table[inv][:, inv])
    write_coc(tmp_path / "p.coc", psi)
    assert len(built_bodies) == 1 + relabel
    write_ghm(tmp_path / "p.ghm", matrix_of(psi))
    write_ghm(tmp_path / "q.ghm", GHMatrix(psi.field, psi.table.copy()))
    assert len(built_bodies) == 1 + relabel
    for name in ("p.coc", "p.ghm", "q.ghm"):
        _assert_joined(tmp_path / name, psi.table)
    assert (tmp_path / "p.ghm").read_bytes() == (tmp_path / "q.ghm").read_bytes()
    assert (tmp_path / "p.cay").exists() == relabel
    if relabel:
        _assert_joined(tmp_path / "p.cay", psi.group.table)


def test_a_table_changed_in_place_gets_its_new_bytes(tmp_path, gf8,
                                                     s8_cocycle):
    """The slot keeps its own copy of the table, so a write into the
    caller's table between two writes is seen, and a copy narrow enough
    only for small entries does not take a large entry for a small one."""
    table = s8_cocycle.table.copy()
    M = GHMatrix(gf8, table)
    write_ghm(tmp_path / "m.ghm", M)
    _assert_joined(tmp_path / "m.ghm", s8_cocycle.table)
    table[3, 5] = (table[3, 5] + 1) % 8
    write_ghm(tmp_path / "m.ghm", M)
    _assert_joined(tmp_path / "m.ghm", table)
    assert not (table == s8_cocycle.table).all()
    # the copy is kept in uint16 only while the entries fit: 65537 is no 1
    wide, narrow = np.array([[0, 65537], [1, 0]]), np.array([[0, 1], [1, 0]])
    assert fileio._file_bytes(["h"], wide, 1 << 17, FieldMismatch) \
        == b"h\n0 65537\n1 0\n"
    assert fileio._file_bytes(["h"], narrow, 1 << 17, FieldMismatch) \
        == b"h\n0 1\n1 0\n"


def test_an_equal_table_with_a_smaller_limit_still_raises(tmp_path, gf8,
                                                          s8_cocycle):
    """The range check runs on every write, slot or not: an equal table
    over a smaller field raises FieldMismatch, and as a .cay (whose limit
    is its order) NotAGroup, and neither writes a file."""
    table = s8_cocycle.table
    write_ghm(tmp_path / "m.ghm", GHMatrix(gf8, table))
    with pytest.raises(FieldMismatch, match="outside \\[0, 4\\)"):
        write_ghm(tmp_path / "small.ghm", GHMatrix(Field(2, 2), table.copy()))
    with pytest.raises(FieldMismatch, match="outside \\[0, 4\\)"):
        write_coc(tmp_path / "small.coc", Cocycle(
            s8_cocycle.group, Field(2, 2), table.copy(), check="skip"))
    # a 3 x 3 table over GF(8) is no group table of order 3 (Z_3 is no
    # default group over GF(8), so w.coc names its own w.cay)
    wide = np.array([[0, 0, 0], [0, 7, 1], [0, 1, 2]])
    write_coc(tmp_path / "w.coc", Cocycle(elementary_abelian(3, 1), gf8, wide,
                                          check="skip"))
    with pytest.raises(NotAGroup, match="entry 7 is outside \\[0, 3\\)"):
        write_cay(tmp_path / "bad.cay", Group(wide.copy(), check=False))
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "m.ghm", "w.cay", "w.coc"]


def test_the_slot_goes_with_its_table(tmp_path, gf8, s8_cocycle):
    """With the cyclic collector off, the slot empties once the table it
    was built from is freed; it keeps no caller's table alive."""
    import weakref

    enabled = gc.isenabled()
    gc.disable()
    try:
        table = s8_cocycle.table.copy()
        alive = weakref.ref(table)
        write_ghm(tmp_path / "m.ghm", GHMatrix(gf8, table))
        assert fileio._last_body
        del table
        assert alive() is None and not fileio._last_body
        psi = Cocycle(s8_cocycle.group, gf8, s8_cocycle.table.copy(),
                      check="skip")
        write_coc(tmp_path / "s.coc", psi, group_path="s.cay")
        write_ghm(tmp_path / "s.ghm", matrix_of(psi))
        assert fileio._last_body
        del psi
        assert not fileio._last_body
    finally:
        if enabled:
            gc.enable()
