"""File formats: .cay Cayley tables, .coc cocycles, .ghm matrices.

Every format is line-oriented ASCII.  Field header lines read
    p=<p> m=<m> poly=<c_0>,<c_1>,...,<c_m>
and elements are serialized as their integer encodings, unsigned ASCII
decimal integers separated by spaces or tabs.  A table body is written by
gathering cached token words, one per entry, and parsed from the positions of
its separators (the per-line loop only locates a ParseError).  The Field of a
header and the default group of an order are built once and shared, with
read-only arrays; so is the Group of a group file's exact bytes, decided once
while some caller holds it.  A table body is decided once too: read_coc keeps
the verdict of each body it accepts while some caller holds the Cocycle, and
read_ghm returns a .ghm with the same header field, order and body bytes over
that cocycle's group, unparsed and holding the verdict.

A writer builds all its bytes before it opens a file, so a table it
refuses writes nothing.  It then rewrites the file in place, through its
inode (hard links and symlinks see the new bytes), and truncates it to
their length: opening with O_TRUNC would free the old blocks first, and
ext4 then also flushes the new ones when the file closes.  A write that
fails part way leaves the file empty, never new bytes over an old tail (a
reader running during a write may see such a mix).  Nothing is fsynced:
the library makes no durability promise.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import stat
import weakref
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .cocycles import Cocycle, check_cocycle
from .errors import FieldMismatch, NotAGroup, ParseError
from .fields import Field, integer_log, largest_entry
from .ghmatrix import GHMatrix, matrix_of
from .groups import Group, elementary_abelian


def field_header(field: Field) -> str:
    poly = ",".join(str(c) for c in field.poly)
    return f"p={field.p} m={field.m} poly={poly}"


# The largest field a header may name.  Field's tables are built in
# pure-Python loops (on a 2-vCPU Xeon, GF(2^14) takes 0.9 s and GF(3^10)
# 8.5 s), so a larger p^m could hang a reader.  The fields in scope (up to
# GF(3^7), Field.ADD_TABLE_MAX_Q) and every field a test or golden file
# writes lie below it, and a GH matrix over a larger field has v >= q, so
# more than 2.6 * 10^8 entries.
MAX_HEADER_Q = 1 << 14


def above_header_bound(p: int, m: int) -> bool:
    """Whether p^m, for p > 1, is above MAX_HEADER_Q; decided without
    computing p^m of a large m."""
    return p > 1 and (p > MAX_HEADER_Q or m >= MAX_HEADER_Q.bit_length()
                      or p ** m > MAX_HEADER_Q)


def parse_field_header(line: str, lineno: int) -> Field:
    """The Field of a header line, shared (_field); ParseError for a bad
    line, a p^m above MAX_HEADER_Q (refused before p is tested for
    primality, and without computing p^m of a large m), or no field."""
    try:
        parts = dict(tok.split("=", 1) for tok in _tokens(line))
        values = [parts["p"], parts["m"], *parts["poly"].split(",")]
        bad = [x for x in values if not _is_decimal(x)]
        if bad:
            raise ValueError(f"{bad[0][:20]!r} is not unsigned decimal")
        p, m, *poly = map(int, values)
        if above_header_bound(p, m):
            raise ValueError(f"p^m is above {MAX_HEADER_Q}")
        return _field(p, m, tuple(poly))
    except (KeyError, ValueError) as e:
        raise ParseError(f"bad field header ({e})", line=lineno) from None


# shared by every file with the header; bounded: GF(3^7)'s add table is 38 MB
_field = lru_cache(maxsize=32)(Field)
# the Group of each group file read, by its exact bytes, while some caller
# holds it; a file that fails to parse or check stores nothing
_groups = weakref.WeakValueDictionary()
# the verdict of each .coc table that read_coc accepted, by (Field, v, the
# raw bytes after the header lines), while some caller holds the Cocycle it
# returned: a twin of that Cocycle, with its own read-only copy of the
# table, which the Cocycle holds; a file that fails to parse or check stores
# nothing
_verdicts = weakref.WeakValueDictionary()


def _expect(cond: bool, msg: str, lineno: int, column: Optional[int] = None):
    if not cond:
        raise ParseError(msg, line=lineno, column=column)


def _tokens(line: str):
    """The entries of a line: separated by ASCII spaces and tabs only."""
    return [x for x in line.replace("\t", " ").split(" ") if x]


def _is_decimal(s: str) -> bool:
    """Unsigned ASCII decimal, no longer than int() converts by default."""
    return s.isascii() and s.isdigit() and len(s) <= 4300


def _parse_v(line: str, lineno: int) -> int:
    """The order from a v=<order> line; ParseError unless it is a positive
    integer."""
    _expect(line.startswith("v="), "missing v= line", lineno)
    _expect(_is_decimal(line[2:].strip(" \t")), f"bad order {line[2:]!r}",
            lineno)
    v = int(line[2:])
    _expect(v > 0, f"order v={v} is not positive", lineno)
    return v


def _parse_rows(lines, start_lineno: int, v: int, limit: int) -> np.ndarray:
    """The v x v table of the body lines, entries in [0, limit).

    The body is read from the positions of its non-digits (newline
    sentinels around it) when it is plain: v^2 + 1 non-digits, each a space,
    tab or newline, a newline after every v-th token, and tokens of 1 to 18
    digits, so that int64 cannot overflow.  The values are then gathered
    digit by digit back from the token ends.  Any other body, or a value out
    of range, goes to _parse_lines, which finds the ParseError.
    """
    body = np.frombuffer(("\n" + "\n".join(lines) + "\n").encode(
        "ascii", "replace"), dtype=np.uint8)
    digits = body - ord("0")  # a non-digit wraps to 10 or more
    cut = np.flatnonzero(digits >= 10)
    if len(cut) == v * v + 1:
        sep, width = body[cut], np.diff(cut) - 1
        newline = sep == ord("\n")
        if (newline[::v].all() and np.count_nonzero(newline) == v + 1
                and (newline | (sep == ord(" ")) | (sep == ord("\t"))).all()
                and 1 <= width.min() and width.max() <= 18):
            digits[cut] = 0  # a token's separator reads as leading zeros
            ends = cut[1:]
            table = digits[ends - 1].astype(np.int64)
            for k in range(1, int(width.max())):
                # multiplied in int64: a uint8 product would wrap at 10^2
                # wherever a scalar is cast by its value (NumPy 1.x)
                at = np.maximum(ends - 1 - k, cut[:-1])
                table += np.multiply(digits[at], 10 ** k, dtype=np.int64)
            if table.max() < limit:
                return table.reshape(v, v)
    return _parse_lines(lines, start_lineno, v, limit)


def _parse_lines(lines, start_lineno: int, v: int, limit: int) -> np.ndarray:
    """_parse_rows one line at a time: the same table, or the ParseError of
    the first bad line."""
    rows = []
    for lineno, line in enumerate(lines, start_lineno):
        vals = _tokens(line)
        _expect(len(vals) == v, f"expected {v} entries, got {len(vals)}", lineno)
        for column, x in enumerate(vals, 1):
            _expect(_is_decimal(x), "non-integer entry", lineno, column)
        row = [int(x) for x in vals]
        _expect(all(0 <= x < limit for x in row),
                f"entry out of range [0, {limit})", lineno)
        rows.append(row)
    _expect(len(rows) == v, f"expected {v} rows, got {len(rows)}",
            start_lineno + len(rows))
    return np.array(rows, dtype=np.int64)


def _read_bytes(path, lineno: Optional[int] = None) -> bytes:
    """A file's bytes.  A file that cannot be opened, or whose name holds a
    NUL byte, is a ParseError, at lineno when another file's line named it;
    the message quotes the path with repr, so no control byte reaches it."""
    try:
        return Path(path).read_bytes()
    except (OSError, ValueError) as e:  # ValueError: NUL in name
        raise ParseError(f"cannot read {str(path)!r} ({e})",
                         line=lineno) from None


def _decode_lines(data: bytes, path, lineno: Optional[int] = None):
    """The lines of UTF-8 text, split at line feeds only (no other Unicode
    line break), each without a trailing carriage return; text that is not
    UTF-8 is a ParseError, as in _read_bytes."""
    try:
        lines = data.decode().split("\n")
    except ValueError as e:
        raise ParseError(f"cannot read {str(path)!r} ({e})",
                         line=lineno) from None
    if lines[-1] == "":  # the final newline ends the last line
        lines.pop()
    return [x[:-1] if x.endswith("\r") else x for x in lines]


def _file_bytes(header, table, limit: int, error) -> bytes:
    """The header lines, then one line of space-separated integers per row;
    error when an entry is outside [0, limit).

    Each entry gathers its token word (_token_words) with one take, the
    last of a row the word that ends in a newline; the words, viewed as
    bytes, are the body once their NUL pad bytes are dropped."""
    spaced, ended = _token_words(largest_entry(table, limit, error))
    words = spaced.take(table)
    words[:, -1] = ended.take(table[:, -1])
    body = words.view(np.uint8)
    return ("\n".join(header) + "\n").encode() + body[body != 0].tobytes()


@lru_cache(maxsize=16)
def _token_words(hi: int):
    """The tokens "<x> " and "<x>\\n" of x = 0..hi as read-only void words,
    each left-aligned and NUL-padded in the narrowest power-of-two width
    (2, 4, 8, ... bytes) that holds the longest, so that take moves each
    word as one machine integer."""
    size = 1 << len(str(hi)).bit_length()
    spaced = np.arange(hi + 1).astype(f"S{size}").view(np.uint8)
    spaced = spaced.reshape(hi + 1, size)
    at = (np.arange(hi + 1), np.count_nonzero(spaced, axis=1))
    ended = spaced.copy()
    spaced[at], ended[at] = ord(" "), ord("\n")  # after the digits
    words = tuple(w.view(("V", size)).ravel() for w in (spaced, ended))
    for w in words:
        w.setflags(write=False)
    return words


def _write_file(path, data: bytes) -> None:
    """Write data over path in place (see the module docstring): opened
    without O_TRUNC, with mode 0o666 under the umask as Path.write_bytes
    does, and cut to len(data) unless it is a device or FIFO, which cannot
    be cut.  On any exception the file is cut to 0 bytes, best effort."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    except BaseException:
        with contextlib.suppress(OSError):
            os.ftruncate(fd, 0)
        raise
    finally:
        os.close(fd)


# -- .cay ------------------------------------------------------------------------

def write_cay(path, group: Group) -> None:
    _write_file(path, _file_bytes(["cay 1", f"v={group.order}"],
                                  group.table, group.order, NotAGroup))


def read_cay(path) -> Group:
    return _read_group(path)


def _read_group(path, lineno: Optional[int] = None) -> Group:
    """The checked group of a .cay file, parsed once per content while held;
    a file that cannot be read is a ParseError at lineno (_read_bytes)."""
    data = _read_bytes(path, lineno)
    if (group := _groups.get(data)) is None:
        lines = _decode_lines(data, path, lineno)
        _expect(len(lines) >= 2 and lines[0].strip(" \t") == "cay 1",
                "missing 'cay 1' magic", 1)
        v = _parse_v(lines[1], 2)
        group = Group(_parse_rows(lines[2:2 + v], 3, v, v), check=False)
        group.check()
        _groups[data] = group
    return group


# -- .coc ------------------------------------------------------------------------

def write_coc(path, psi: Cocycle, group_path: Optional[str] = None) -> None:
    """Without group_path, a group other than read_coc's default is written
    beside the file as <stem>.cay and named in a group= line.  A table
    entry outside the field writes no file."""
    path = Path(path)
    lines, cay = [field_header(psi.field), f"v={psi.v}"], None
    if group_path is None:
        default = _default_group(psi.v, psi.field.p)
        if default is None or not np.array_equal(default.table,
                                                 psi.group.table):
            group_path = path.with_suffix(".cay").name
            cay = path.parent / group_path
    if group_path is not None:
        lines.append(f"group={group_path}")
    text = _file_bytes(lines, psi.table, psi.q, FieldMismatch)
    if cay is not None:
        write_cay(cay, psi.group)
    _write_file(path, text)


def read_coc(path) -> Cocycle:
    """The checked cocycle of a .coc file.  Its verdict is kept for read_ghm
    in _verdicts while the returned Cocycle lives: the twin there holds a
    read-only copy of the table, so a write into the returned table, which
    is the caller's own, cannot reach a later read_ghm."""
    path = Path(path)
    data = _read_bytes(path)
    lines = _decode_lines(data, path)
    _expect(len(lines) >= 2, "truncated file", max(1, len(lines)))
    field = parse_field_header(lines[0], 1)
    v = _parse_v(lines[1], 2)
    row_start, group = 2, None
    if len(lines) > 2 and lines[2].startswith("group="):
        cay = path.parent / lines[2][len("group="):]
        group = _read_group(cay, 3)
        row_start = 3
    # the rows first: a short file claiming a large v builds no Z_p^k
    table = _parse_rows(lines[row_start:row_start + v], row_start + 1, v, field.q)
    if group is None:
        group = _default_group(v, field.p)
        _expect(group is not None,
                f"v={v} is not a power of p={field.p}; supply group=", 2)
    _expect(group.order == v, f"group order {group.order} != v={v}", 2)
    psi = check_cocycle(table, group, field)
    frozen = table.copy()
    frozen.setflags(write=False)
    psi._twin = Cocycle(group, field, frozen, check="theorem")
    _verdicts[field, v, data.split(b"\n", row_start)[-1]] = psi._twin
    return psi


@lru_cache(maxsize=32)
def _default_group(v: int, p: int) -> Optional[Group]:
    """The group a .coc without group= and every .ghm are read against:
    Z_p^k in lexicographic order, or None when v is not a power of p.  Built
    once per (v, p), with its generators, inverse map and verdict by theorem
    (elementary_abelian)."""
    k = integer_log(v, p)
    if not k:
        return None
    return elementary_abelian(p, k)


# -- .ghm ------------------------------------------------------------------------

def write_ghm(path, matrix: GHMatrix) -> None:
    _write_file(path, _file_bytes(
        ["ghm 1", field_header(matrix.field), f"v={matrix.v}"],
        matrix.entries, matrix.q, FieldMismatch))


def read_ghm(path) -> GHMatrix:
    """The matrix over read_coc's default group Z_p^k (None when v is no
    power of p).  The group is a proposal: GHMatrix.cocycle() checks the
    identity in full, once, and a table that fails it reads as bare.

    A file with the field, order and body bytes of a .coc that read_coc
    accepted, while its Cocycle is held, is not parsed: it is matrix_of
    the twin (_held_verdict), over the cocycle's group and holding its
    verdict.  Its entries, the file's, are the twin's read-only table, so
    that verdict cannot go stale; copy them to write.  Any other file, or
    any doubt about the header, takes the parse above."""
    data = _read_bytes(path)
    if (twin := _held_verdict(data)) is not None:
        return matrix_of(twin)
    lines = _decode_lines(data, path)
    _expect(len(lines) >= 3 and lines[0].strip(" \t") == "ghm 1",
            "missing 'ghm 1' magic", 1)
    field = parse_field_header(lines[1], 2)
    v = _parse_v(lines[2], 3)
    entries = _parse_rows(lines[3:3 + v], 4, v, field.q)
    return GHMatrix(field, entries, group=_default_group(v, field.p))


def _held_verdict(data: bytes) -> Optional[Cocycle]:
    """The twin in _verdicts for a .ghm file's bytes, or None.  Only the
    three header lines are decoded, as _decode_lines would; the body is
    looked up by its raw bytes.  Same bytes under the same field and v
    parse to the same table, so a hit is the table read_coc checked."""
    if not _verdicts:
        return None
    try:
        *head, body = data.split(b"\n", 3)
        magic, header, order = (x.decode().removesuffix("\r") for x in head)
        if magic.strip(" \t") != "ghm 1":
            return None
        return _verdicts.get((parse_field_header(header, 2),
                              _parse_v(order, 3), body))
    except ValueError:  # too few lines, not UTF-8, or a ParseError
        return None


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
