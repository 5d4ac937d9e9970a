"""File formats: .cay Cayley tables, .coc cocycles, .ghm matrices.

Every format is line-oriented ASCII.  Field header lines read
    p=<p> m=<m> poly=<c_0>,<c_1>,...,<c_m>
and elements are serialized as their integer encodings, unsigned ASCII
decimal integers separated by spaces or tabs.  A table body is written by
gathering cached token words, one per entry, and parsed from the positions of
its separators (the per-line loop only locates a ParseError).  The Field of a
header and the default group of an order are built once and shared, with
read-only arrays.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path
from typing import Optional

import numpy as np

from .cocycles import Cocycle, check_cocycle
from .errors import FieldMismatch, NotAGroup, ParseError
from .fields import Field, integer_log, largest_entry
from .ghmatrix import GHMatrix
from .groups import Group, elementary_abelian


def field_header(field: Field) -> str:
    poly = ",".join(str(c) for c in field.poly)
    return f"p={field.p} m={field.m} poly={poly}"


def parse_field_header(line: str, lineno: int) -> Field:
    try:
        parts = dict(tok.split("=", 1) for tok in _tokens(line))
        values = [parts["p"], parts["m"], *parts["poly"].split(",")]
        bad = [x for x in values if not _is_decimal(x)]
        if bad:
            raise ValueError(f"{bad[0][:20]!r} is not unsigned decimal")
        p, m, *poly = map(int, values)
        return _field(p, m, tuple(poly))
    except (KeyError, ValueError) as e:
        raise ParseError(f"bad field header ({e})", line=lineno) from None


# shared by every file with the header; bounded: GF(3^7)'s add table is 38 MB
_field = lru_cache(maxsize=32)(Field)


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


def _read_lines(path, lineno: Optional[int] = None):
    """The lines of a UTF-8 text file, split at line feeds only (no other
    Unicode line break), each without a trailing carriage return.  A file
    that cannot be opened or decoded, or whose name holds a NUL byte, is a
    ParseError, at lineno when another file's line named it; the message
    quotes the path with repr, so no control byte of a name reaches it."""
    try:
        lines = Path(path).read_bytes().decode().split("\n")
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, NUL in name
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


# -- .cay ------------------------------------------------------------------------

def write_cay(path, group: Group) -> None:
    Path(path).write_bytes(_file_bytes(["cay 1", f"v={group.order}"],
                                       group.table, group.order, NotAGroup))


def read_cay(path) -> Group:
    return _parse_cay(_read_lines(path))


def _parse_cay(lines) -> Group:
    _expect(len(lines) >= 2 and lines[0].strip(" \t") == "cay 1",
            "missing 'cay 1' magic", 1)
    v = _parse_v(lines[1], 2)
    group = Group(_parse_rows(lines[2:2 + v], 3, v, v), check=False)
    group.check()
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
    path.write_bytes(text)


def read_coc(path) -> Cocycle:
    path = Path(path)
    lines = _read_lines(path)
    _expect(len(lines) >= 2, "truncated file", max(1, len(lines)))
    field = parse_field_header(lines[0], 1)
    v = _parse_v(lines[1], 2)
    row_start, group = 2, None
    if len(lines) > 2 and lines[2].startswith("group="):
        cay = path.parent / lines[2][len("group="):]
        group = _parse_cay(_read_lines(cay, 3))
        row_start = 3
    # the rows first: a short file claiming a large v builds no Z_p^k
    table = _parse_rows(lines[row_start:row_start + v], row_start + 1, v, field.q)
    if group is None:
        group = _default_group(v, field.p)
        _expect(group is not None,
                f"v={v} is not a power of p={field.p}; supply group=", 2)
    _expect(group.order == v, f"group order {group.order} != v={v}", 2)
    return check_cocycle(table, group, field)


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
    Path(path).write_bytes(_file_bytes(
        ["ghm 1", field_header(matrix.field), f"v={matrix.v}"],
        matrix.entries, matrix.q, FieldMismatch))


def read_ghm(path) -> GHMatrix:
    """The matrix over read_coc's default group Z_p^k (None when v is no
    power of p).  The group is a proposal: GHMatrix.cocycle() checks the
    identity in full, once, and a table that fails it reads as bare."""
    lines = _read_lines(path)
    _expect(len(lines) >= 3 and lines[0].strip(" \t") == "ghm 1",
            "missing 'ghm 1' magic", 1)
    field = parse_field_header(lines[1], 2)
    v = _parse_v(lines[2], 3)
    entries = _parse_rows(lines[3:3 + v], 4, v, field.q)
    return GHMatrix(field, entries, group=_default_group(v, field.p))


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
