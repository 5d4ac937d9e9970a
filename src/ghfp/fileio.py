"""File formats: .cay Cayley tables, .coc cocycles, .ghm matrices.

Every format is line-oriented ASCII.  Field header lines read
    p=<p> m=<m> poly=<c_0>,<c_1>,...,<c_m>
and elements are serialized as their integer encodings, unsigned ASCII
decimal integers separated by spaces or tabs.  The Field of a header and the
default group of an order are built once and shared, with read-only arrays.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .cocycles import Cocycle
from .errors import ParseError
from .fields import Field
from .ghmatrix import GHMatrix
from .groups import Group, elementary_abelian


def field_header(field: Field) -> str:
    poly = ",".join(str(c) for c in field.poly)
    return f"p={field.p} m={field.m} poly={poly}"


def parse_field_header(line: str, lineno: int) -> Field:
    try:
        parts = dict(tok.split("=", 1) for tok in line.split())
        return _field(int(parts["p"]), int(parts["m"]),
                      tuple(int(c) for c in parts["poly"].split(",")))
    except (KeyError, ValueError) as e:
        raise ParseError(f"bad field header ({e})", line=lineno) from None


# shared by every file with the header; bounded: GF(3^7)'s add table is 38 MB
_field = lru_cache(maxsize=32)(Field)


def _expect(cond: bool, msg: str, lineno: int, column: Optional[int] = None):
    if not cond:
        raise ParseError(msg, line=lineno, column=column)


def _is_decimal(s: str) -> bool:
    """Unsigned ASCII decimal, no longer than int() converts by default."""
    return s.isascii() and s.isdigit() and len(s) <= 4300


def _parse_v(line: str, lineno: int) -> int:
    """The order from a v=<order> line; ParseError unless it is a positive
    integer."""
    _expect(line.startswith("v="), "missing v= line", lineno)
    _expect(_is_decimal(line[2:].strip()), f"bad order {line[2:]!r}", lineno)
    v = int(line[2:])
    _expect(v > 0, f"order v={v} is not positive", lineno)
    return v


# byte classes of a body: digits 0, and odd codes, so that two touching
# non-digits share bit 0: space and tab 1, newline 3, any other byte 7
_BYTE_CLASS = np.full(256, 7, dtype=np.uint8)
_BYTE_CLASS[np.frombuffer(b"0123456789", dtype=np.uint8)] = 0
_BYTE_CLASS[[ord(" "), ord("\t")]] = 1
_BYTE_CLASS[ord("\n")] = 3


def _parse_rows(lines, start_lineno: int, v: int, limit: int) -> np.ndarray:
    """The v x v table of the body lines, entries in [0, limit): by one
    np.fromstring call when no two non-digits touch between newline sentinels
    (so v - 1 separators make v tokens) and every value, saturated on
    overflow, is in range; else by _parse_lines, which finds the ParseError.
    """
    body = ("\n" + "\n".join(lines) + "\n").encode("ascii", "replace")
    cls = _BYTE_CLASS[np.frombuffer(body, dtype=np.uint8)]
    if len(lines) == v and (cls < 7).all() and not (cls[1:] & cls[:-1]).any():
        seps = np.add.reduceat(cls == 1, np.flatnonzero(cls == 3)[:-1],
                               dtype=np.int64)
        table = np.fromstring(body, dtype=np.int64, sep=" ")
        if (seps == v - 1).all() and 0 <= table.min() and table.max() < limit:
            return table.reshape(v, v)
    return _parse_lines(lines, start_lineno, v, limit)


def _parse_lines(lines, start_lineno: int, v: int, limit: int) -> np.ndarray:
    """_parse_rows one line at a time: the same table, or the ParseError of
    the first bad line."""
    rows = []
    for lineno, line in enumerate(lines, start_lineno):
        vals = line.split()
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


def _read_lines(path, lineno: Optional[int] = None):
    """The lines of a text file.  A file that cannot be opened or decoded is
    a ParseError, at lineno when another file's line named it."""
    try:
        return Path(path).read_text().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path} ({e})", line=lineno) from None


def _write_rows(path, header, table) -> None:
    """The header lines, then one line of space-separated integers per row,
    gathered from the decimal strings of lo..max and joined."""
    lo = min(int(table.min()), 0)
    decimal = np.array([str(x) for x in range(lo, int(table.max()) + 1)],
                       dtype=object)
    rows = map(" ".join, decimal[table - lo].tolist())
    Path(path).write_text("\n".join([*header, *rows]) + "\n")


# -- .cay ------------------------------------------------------------------------

def write_cay(path, group: Group) -> None:
    _write_rows(path, ["cay 1", f"v={group.order}"], group.table)


def read_cay(path) -> Group:
    return _parse_cay(_read_lines(path))


def _parse_cay(lines) -> Group:
    _expect(len(lines) >= 2 and lines[0].strip() == "cay 1",
            "missing 'cay 1' magic", 1)
    v = _parse_v(lines[1], 2)
    table = _parse_rows(lines[2:2 + v], 3, v, v)
    group = Group(table)
    group.check_associativity()
    return group


# -- .coc ------------------------------------------------------------------------

def write_coc(path, psi: Cocycle, group_path: Optional[str] = None) -> None:
    """Without group_path, a group other than read_coc's default is written
    beside the file as <stem>.cay and named in a group= line."""
    path = Path(path)
    lines = [field_header(psi.field), f"v={psi.v}"]
    if group_path is None:
        default = _default_group(psi.v, psi.field.p)
        if default is None or not np.array_equal(default.table,
                                                 psi.group.table):
            group_path = path.with_suffix(".cay").name
            write_cay(path.parent / group_path, psi.group)
    if group_path is not None:
        lines.append(f"group={group_path}")
    _write_rows(path, lines, psi.table)


def read_coc(path) -> Cocycle:
    path = Path(path)
    lines = _read_lines(path)
    _expect(len(lines) >= 2, "truncated file", max(1, len(lines)))
    field = parse_field_header(lines[0], 1)
    v = _parse_v(lines[1], 2)
    row_start = 2
    if len(lines) > 2 and lines[2].startswith("group="):
        cay = path.parent / lines[2][len("group="):]
        group = _parse_cay(_read_lines(cay, 3))
        row_start = 3
    else:
        group = _default_group(v, field.p)
        _expect(group is not None,
                f"v={v} is not a power of p={field.p}; supply group=", 2)
    _expect(group.order == v, f"group order {group.order} != v={v}", 2)
    table = _parse_rows(lines[row_start:row_start + v], row_start + 1, v, field.q)
    from .cocycles import check_cocycle

    return check_cocycle(table, group, field)


@lru_cache(maxsize=32)
def _default_group(v: int, p: int) -> Optional[Group]:
    """The group a .coc without group= is read against: Z_p^k in
    lexicographic order, or None when v is not a power of p.  Built once per
    (v, p), so its generators() are found once."""
    k = 0
    while v > 1 and v % p == 0:
        v //= p
        k += 1
    if v != 1 or k < 1:
        return None
    group = elementary_abelian(p, k)
    group.table.setflags(write=False)
    group.inv.setflags(write=False)
    return group


# -- .ghm ------------------------------------------------------------------------

def write_ghm(path, matrix: GHMatrix) -> None:
    _write_rows(path, ["ghm 1", field_header(matrix.field), f"v={matrix.v}"],
                matrix.entries)


def read_ghm(path) -> GHMatrix:
    lines = _read_lines(path)
    _expect(len(lines) >= 3 and lines[0].strip() == "ghm 1",
            "missing 'ghm 1' magic", 1)
    field = parse_field_header(lines[1], 2)
    v = _parse_v(lines[2], 3)
    entries = _parse_rows(lines[3:3 + v], 4, v, field.q)
    return GHMatrix(field, entries)


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
