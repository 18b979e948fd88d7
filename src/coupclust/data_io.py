"""Ingestion, serialization, and synthetic generators.

File formats:

- Triplet TSV: UTF-8 lines of `row<TAB>col<TAB>weight`, full-line `#`
  comments, blank lines ignored; duplicate (row, col) pairs are summed,
  and a label holding a CR is an error. Every text reader skips one
  leading UTF-8 byte order mark; error offsets still count it.
  A well-formed file is cut into fields at its tab and newline offsets
  with numpy, making no Python object per line; any other file goes
  through the line reader, the one source of ParseError. Either way each
  weight equals float() of its field bit for bit: the bulk reader
  converts plain decimals exactly from machine words (Clinger's fast path,
  else an exact round-half-even correction) and passes any other field to
  float(). It keys labels by machine words too, interns the runs of equal
  consecutive labels by one stable sort, and reads a file that lists every
  cell once, row by row (write_triplets' layout), by reshaping its weights.
- Dense CSV: header row holds the X labels (first cell is a corner and is
  ignored), each body row starts with its Y label; blank cells mean 0.
  Blank lines are skipped; a line starting with `#` is data.
- Pmf and truth TSVs: `label<TAB>probability` and `item<TAB>label` lines,
  with the triplet file's comments and blank lines.
- Kernel JSON / trace CSV writers used by the CLI live here too.

Ingestion prunes all-zero rows and columns (a joint needs strictly interior
marginals), reports what it dropped, and returns the joint's Dtm: the
normalized weights go straight into build_dtm and are not kept.

The generators make raw matrices (planted blocks; the counterexample's base
and its two splits); kernels are scored by evaluation.kernel_norm_value.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import errno
import json
import math
import os

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import CouplingKernel, Dtm, Pmf, build_dtm
from .errors import ConfigError, DataError, ParseError

__all__ = [
    "parse_triplets",
    "load_dense_csv",
    "ingest",
    "write_triplets",
    "load_pmf",
    "apply_rating_transform",
    "gen_counterexample",
    "gen_planted_blocks",
    "community_objective",
    "write_kernel_json",
    "write_trace_csv",
]

# Largest matrix, in cells, that a synthetic generator will allocate: one
# 5000 x 5000 float64 array is 200 MB.
MAX_CELLS = 25_000_000


def _open(path):
    """The file opened for binary reading; DataError naming it if that fails."""
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _create(path):
    """The file opened to write UTF-8 text, newlines untranslated; ConfigError
    naming it if the open or a write fails (a directory at path, a full disk)."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None


def _check_creatable(out_dir, *names) -> None:
    """ConfigError, worded as _create's, naming the first out_dir / name that
    is a directory. Run before the work whose results go there; creates
    nothing, and _create still reports any other failure to write."""
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")


def _read_lines(path, nfields: int | None = None):
    """Yield (lineno, offset, item) for each data line of a text file.

    Lines are UTF-8 after one optional byte order mark, and blank lines are
    skipped. item is the decoded line when nfields is None (a CSV line: CSV
    has no comment syntax), else the line's nfields tab-separated fields,
    and full-line `#` comments are skipped. ParseError carries the 1-based
    line number and the byte offset of the offending line's start.
    """
    offset = 0
    with _open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line_offset = offset
            offset += len(raw)
            try:
                text = raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not valid UTF-8 ({exc.reason})", lineno, line_offset)
            stripped = text.strip()
            if not stripped:
                continue
            if nfields is None:
                yield lineno, line_offset, text
                continue
            if stripped.startswith("#"):
                continue
            parts = stripped.split("\t")
            if len(parts) != nfields:
                raise ParseError(
                    f"expected {nfields} tab-separated fields, got {len(parts)}",
                    lineno,
                    line_offset,
                )
            yield lineno, line_offset, parts


def parse_triplets(path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a triplet TSV into (row_labels, col_labels, weights).

    Label order is first appearance. A label holding a CR is a ParseError,
    as no TSV artifact could hold it. ParseError carries the 1-based line
    number and the byte offset of the offending line's start.

    A file of plain `row<TAB>col<TAB>weight` lines with valid weights and no
    NUL byte is read in bulk, unless its label keys (each label column's
    widest field in 8-byte words, on every line) would take more than a
    quarter of memory; any other file goes through the line reader. Both
    give the same labels and bitwise the same weights; a weight cell of one
    `-0.0` line reads as 0.0, as a sum from 0.0 does. A file that lists
    each cell once, row by row, is the weight column reshaped. A DataError
    names the shape when the dense |Y| x |X| matrix would not fit in memory,
    before it is allocated.
    """
    bulk = _parse_triplets_bulk(path)
    if bulk is not None:
        return bulk
    return _parse_triplets_lines(path)


def _parse_triplets_bulk(path) -> tuple[list[str], list[str], np.ndarray] | None:
    """parse_triplets on a whole file at once, or None if not well formed.

    None unless the file, after one optional byte order mark, is UTF-8
    without NUL bytes, each line has exactly two tabs, no row label is empty
    or starts with whitespace or `#`, no distinct label holds a CR (the line
    reader then names its line), and every weight is a finite, nonnegative
    float. The line reader then strips nothing from a line's start; what it
    strips from the end (a CR, say) float() either strips too or rejects.
    Duplicates are summed in file order, as the line reader does, so the
    sums are bitwise equal.

    The file is read once into a zero-padded buffer, and fields are cut from
    its delimiter offsets, so no Python object is made per line or field.
    Weights convert in row chunks in _parse_decimals, which reads each field
    as three 64-bit words; a field outside its grammar goes through numpy's
    `S` -> float64 cast, which calls float() (`S` drops trailing NULs, hence
    the NUL rule). Both give float()'s bits.

    Each label field is keyed as whole little-endian words ending where it
    does, with the bytes before it masked to zero (_word_keys). As no label
    holds a NUL, equal keys are equal labels. Only the first key of each run
    of equal consecutive keys is interned, by one stable sort (_run_labels),
    and each distinct label is decoded from its first occurrence. When the
    rows come in equal runs that each repeat the first run's columns, with
    no row or column label twice, the file lists every cell of the matrix
    once, row by row, as write_triplets does; the matrix is then the weight
    column reshaped, and adding 0.0 turns a -0.0 field into the +0.0 that
    the summing readers give. Any other file sums its lines into cells with
    np.bincount.

    Each label key array is its widest field's words times the line count,
    so a file is declined when both at their widest would exceed a quarter
    of memory; a few long labels among short ones are still read in bulk.
    Only weights that fall back are cut to width (_parse_weights).
    """
    buf, size = _read_padded(path)
    pad = _WORD_FIELD
    raw = buf[pad : pad + size]
    if not size or raw.min() == 0:
        return None
    if raw.max() >= 0x80:
        try:
            str(raw, "utf-8")
        except UnicodeDecodeError:
            return None
    # Offsets index buf: the file behind pad zero bytes.
    text = buf[: pad + size]
    ends = np.flatnonzero(text == 10)
    if raw[-1] != 10:
        ends = np.append(ends, pad + size)
    tabs = np.flatnonzero(text == 9)
    del raw, text
    n = ends.size
    # Line i holds tabs 2i and 2i+1: tab 2i+1 < end i < tab 2i+2.
    if tabs.size != 2 * n or not (
        np.all(tabs[1::2] < ends) and np.all(tabs[2::2] > ends[:-1])
    ):
        return None
    row_start = np.concatenate(([pad], ends[:-1] + 1))
    col_start = tabs[0::2] + 1
    row_words, col_words = [
        -(-max(int((stop - start).max()), 1) // 8)
        for start, stop in ((row_start, tabs[0::2]), (col_start, tabs[1::2]))
    ]
    if 8 * (row_words + col_words) * n > _physical_memory() / 4:
        return None
    row_keys = _word_keys(buf, row_start, tabs[0::2], row_words)
    heads, row_ids, rows = _run_labels(buf, row_start, tabs[0::2], row_keys)
    del row_start, row_keys
    if any(
        not lab or lab[0].isspace() or lab[0] == "#" or "\r" in lab for lab in rows
    ):
        return None
    col_keys = _word_keys(buf, col_start, tabs[1::2], col_words)
    nr = heads.size
    nc = n // nr
    # Every row a run of nc lines whose columns repeat the first run's.
    tiled = (
        nr * nc == n
        and np.array_equal(heads, np.arange(0, n, nc))
        and all((word.reshape(nr, nc) == word[:nc]).all() for word in col_keys)
    )
    if tiled:
        col_keys = [word[:nc] for word in col_keys]
    col_heads, col_ids, cols = _run_labels(buf, col_start, tabs[1::2], col_keys)
    if any("\r" in lab for lab in cols):
        return None
    col_lines = col_keys[0].size
    del col_start, col_keys
    weight_start = tabs[1::2] + 1
    del tabs
    w = _parse_weights(buf, weight_start, ends)
    del buf, weight_start, ends
    if w is None or not np.all(np.isfinite(w)) or np.any(w < 0):
        return None
    if tiled and len(rows) == nr and len(cols) == nc:
        # The matrix is the weight column itself, already in memory.
        w += 0.0
        return rows, cols, w.reshape(nr, nc)
    ri = np.repeat(row_ids, np.diff(heads, append=n))
    ci = np.repeat(col_ids, np.diff(col_heads, append=col_lines))
    if tiled:
        ci = np.tile(ci, nr)
    return _cells(rows, cols, ri, ci, w)


def _read_padded(path) -> tuple[np.ndarray, int]:
    """The file read to EOF, less one leading byte order mark, into one
    buffer behind _WORD_FIELD zero bytes, with zeros after it, and its length."""
    with _open(path) as fh:
        buf = np.empty(_WORD_FIELD + os.fstat(fh.fileno()).st_size + 8, np.uint8)
        end = _WORD_FIELD
        while got := fh.readinto(memoryview(buf)[end:]):
            end += got
            if end == buf.size:
                buf = np.concatenate((buf, np.empty_like(buf)))
    buf[end:] = 0
    if buf[_WORD_FIELD : _WORD_FIELD + 3].tobytes() == codecs.BOM_UTF8:
        buf = buf[3:]
        end -= 3
    buf[:_WORD_FIELD] = 0
    return buf, end - _WORD_FIELD


def _word_keys(buf, start, stop, nwords: int) -> list[np.ndarray]:
    """Each field buf[start[i]:stop[i]] as nwords little-endian uint64 words,
    the last ending where the field does, with bytes before it zeroed.

    Word j of every field is element j of the list. A word that would start
    before buf has a negative index, which numpy reads from buf's end; it
    lies wholly before the field, which starts at least _WORD_FIELD bytes
    in, so it is zeroed all the same.
    """
    words = _words(buf)
    keys = []
    for j in range(nwords):
        at = stop - 8 * (nwords - j)
        word = words[at]
        # Field bytes in the word: the part of [at, at + 8) from start on.
        at += 8
        at -= start
        np.clip(at, 0, 8, out=at)
        word &= _TOP[at]
        keys.append(word)
    return keys


def _run_labels(buf, start, stop, keys) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """Labels of the fields keyed by keys, interned one run at a time.

    Returns the line that starts each run of equal consecutive keys, the
    label index of each run, and the distinct labels in first-appearance
    order, decoded from their first occurrences. One stable sort groups the
    run heads' keys, each group led by its first occurrence.
    """
    heads = np.flatnonzero(_key_changes(keys))
    if heads.size < keys[0].size:
        keys = [word[heads] for word in keys]
    order = np.lexsort(keys)
    new = _key_changes([word[order] for word in keys])
    first = order[new]
    by_first = np.argsort(first)
    ids = np.empty_like(order)
    ids[order] = np.argsort(by_first)[np.cumsum(new) - 1]
    at = heads[first[by_first]]
    text = buf.data
    spans = zip(start[at].tolist(), stop[at].tolist())
    return heads, ids, [str(text[a:b], "utf-8") for a, b in spans]


def _key_changes(keys) -> np.ndarray:
    """True at the first key and at each key unlike the one before it."""
    change = np.empty(keys[0].size, dtype=bool)
    change[:1] = True
    np.not_equal(keys[0][1:], keys[0][:-1], out=change[1:])
    for word in keys[1:]:
        change[1:] |= word[1:] != word[:-1]
    return change


def _fixed_width(buf, start, stop, width: int) -> np.ndarray:
    """buf[start[i]:stop[i]] for each i as an S<width> array, NUL padded."""
    keys = sliding_window_view(buf, width)[start]
    np.multiply(keys, np.arange(width) < (stop - start)[:, None], out=keys)
    return keys.view(f"S{width}").ravel()


def _parse_weights(buf, start, stop) -> np.ndarray | None:
    """float() of each weight field buf[start[i]:stop[i]], or None on a ValueError.

    Fields convert with _parse_decimals in chunks of _CHUNK_ROWS, which
    bounds its temporary arrays; the rows it leaves go through numpy's
    `S` -> float64 cast, which calls float() per field, or None if they
    would exceed a quarter of memory cut to their widest field.
    """
    w = np.empty(start.size)
    fallback = np.empty(start.size, dtype=bool)
    for i in range(0, start.size, _CHUNK_ROWS):
        chunk = slice(i, i + _CHUNK_ROWS)
        w[chunk], fallback[chunk] = _parse_decimals(buf, start[chunk], stop[chunk])
    rows = np.flatnonzero(fallback)
    if rows.size:
        start, stop = start[rows], stop[rows]
        width = max(int((stop - start).max()), 1)
        if rows.size * width > _physical_memory() / 4:
            return None
        if start[-1] + width > buf.size:
            buf = np.concatenate((buf, np.zeros(width, np.uint8)))
        keys = _fixed_width(buf, start, stop, width)
        try:
            w[rows] = keys.astype(np.float64)
        except ValueError:
            return None
    return w


# A weight field of at most _WORD_FIELD bytes is read as three 64-bit words,
# one row each of a (3, rows) array; bytes are numbered 0-23 along the window
# that ends where the field does.
_WORD_FIELD = 24
_CHUNK_ROWS = 1 << 14
_U64 = np.uint64
_LOW7 = _U64(0x7F7F7F7F7F7F7F7F)
_HIGH = _U64(0x8080808080808080)
# _TOP[j] keeps the last j bytes of a word, _BOTTOM[j] its first j bytes.
_TOP = np.array([(2**64 - 1) ^ (2 ** (64 - 8 * j) - 1) for j in range(9)], _U64)
_BOTTOM = np.array([2 ** (8 * j) - 1 for j in range(9)], _U64)
_WORD_START = np.array([[0], [8], [16]])
_ZEROS = _U64(0x3030303030303030)
# Column j: the last j bytes of the window, and the bytes before byte j.
_LAST = _TOP[np.clip(np.arange(_WORD_FIELD + 1) - (_WORD_FIELD - 8 - _WORD_START), 0, 8)]
_BEFORE = _BOTTOM[np.clip(np.arange(_WORD_FIELD + 2) - _WORD_START, 0, 8)]
# Length of an exponent part whose `e` is byte j of the last word.
_EXP_LEN = np.array([0, 0, 0, 5, 4, 3, 2, 0])
_POW10_INT = np.array([10**j for j in range(17)], _U64)
_POW5 = np.array([5**j for j in range(23)], _U64)
# M = hi * 10**(16 - x) + rest is below 2**63 iff (hi, rest) < row x.
_M_LIMIT = np.array([divmod(2**63, 10 ** (16 - x)) for x in range(6)], _U64)
_MIN_E, _MAX_E = -22, 22
# Column E - _MIN_E: M * 10**E is M * up / down, one exact IEEE operation,
# as 10**|E| is a double for |E| <= 22.
_SCALE = np.array(
    [
        (float(f"1e{e}"), 1.0) if e >= 0 else (1.0, float(10**-e))
        for e in range(_MIN_E, _MAX_E + 1)
    ]
).T


def _parse_decimals(buf, start, stop) -> tuple[np.ndarray, np.ndarray]:
    """float() of each field buf[start[i]:stop[i]] on a word path, and a fallback mask.

    Fields in _decimal_parts' grammar have the value M * 10**E, and the
    result equals float() bit for bit: M <= 2**53 takes one exactly
    rounded IEEE operation (Clinger 1990), as |E| <= 22; a larger M gives
    an estimate within 1.5 ulps that _round_half_even corrects. Rows
    outside the grammar are True in the mask and their values are unset.
    """
    m, e, bad = _decimal_parts(buf, start, stop)
    value = m.astype(np.float64) * np.take(_SCALE[0], e - _MIN_E)
    value /= np.take(_SCALE[1], e - _MIN_E)
    slow = np.flatnonzero(~bad & (m > _U64(2**53)))
    estimate = value[slow]
    unsettled = _round_half_even(estimate, m[slow], e[slow])
    value[slow] = estimate
    bad[slow[unsettled]] = True
    return value, bad


def _decimal_parts(buf, start, stop) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer mantissa M, decimal exponent E and a fallback mask per field.

    A field is in the grammar when it is `digits[.digits]` or `.digits`,
    then optionally `e` or `E`, a sign and 1-3 digits, in at most
    _WORD_FIELD bytes before one optional `\\r`, with M < 2**63 and
    _MIN_E <= E <= _MAX_E; other rows are True in the mask. buf must hold
    _WORD_FIELD bytes before each field.

    Each window is three little-endian words read through an unaligned
    view, and each test runs on all 8 bytes of a word at once.
    """
    stop = stop - (np.take(buf, stop - 1) == ord("\r"))
    length = stop - start
    words = _words(buf)
    # Each byte XOR ord("0"), so digits hold their values; bytes before the
    # field read as leading zeros.
    x = words[stop - _WORD_FIELD + _WORD_START]
    x ^= _ZEROS
    x &= np.take(_LAST, np.minimum(length, _WORD_FIELD), axis=1)
    non_digits = _non_digits(x)
    bad = length > _WORD_FIELD

    exp_len = exp = 0
    e_byte = _zero_bytes((x[2] | _U64(0x2020202020202020)) ^ _U64(0x7575757575757575))
    e_byte &= _U64(0x0080808080000000)
    if e_byte.any():
        exp_len, exp = _exponent(x[2], non_digits[2], e_byte, bad)
        not_exp = ~np.take(_TOP, exp_len)
        x[2] &= not_exp
        non_digits[2] &= not_exp

    # Mantissa: digits and at most one `.`.
    any_nd = non_digits[0] | non_digits[1] | non_digits[2]
    has_dot = any_nd != 0
    # Byte of the one non-digit; with more than one, any byte that fails below.
    dot = np.minimum(
        _byte_index(any_nd).astype(np.intp)
        + 8 * (non_digits[1] != 0)
        + 16 * (non_digits[2] != 0),
        _WORD_FIELD,
    )
    before = np.take(_BEFORE, dot, axis=1)
    through = np.take(_BEFORE, dot + has_dot, axis=1)
    at_dot = through ^ before
    non_digits ^= at_dot & _HIGH
    at_dot &= x ^ _U64(0x1E1E1E1E1E1E1E1E)  # nonzero unless the byte is `.`
    non_digits |= at_dot
    bad |= (non_digits[0] | non_digits[1] | non_digits[2]) != 0
    bad |= length - exp_len - has_dot < 1
    del non_digits, at_dot
    # Close the dot's gap: the digits before it move up one byte.
    before &= x
    x &= ~through
    x[1:] |= before[:-1] >> _U64(56)
    before <<= _U64(8)
    x |= before
    del before, through

    # The digits now end exp_len bytes before the window does.
    hi, mid, lo = _eight_digits(x)
    rest = mid * np.take(_POW10_INT, 8 - exp_len) + lo // np.take(_POW10_INT, exp_len)
    hi_max, rest_max = np.take(_M_LIMIT, exp_len, axis=0).T
    bad |= (hi > hi_max) | ((hi == hi_max) & (rest >= rest_max))
    m = hi * np.take(_POW10_INT, 16 - exp_len) + rest
    e = exp - has_dot * (_WORD_FIELD - 1 - exp_len - dot)
    bad |= (e < _MIN_E) | (e > _MAX_E)
    return m, np.clip(e, _MIN_E, _MAX_E), bad


def _exponent(last, non_digits, e_byte, bad) -> tuple[np.ndarray, np.ndarray]:
    """Length and value of the exponent part that ends each word of last.

    last holds bytes XOR ord("0") and e_byte flags those that may be its
    `e`. Rows whose part is malformed are set in bad.
    """
    e_byte &= ~e_byte + _U64(1)  # the first; a second `e` fails the digit test
    exp_len = np.take(_EXP_LEN, _byte_index(e_byte))
    sign = (last >> (_U64(8) * (9 - np.maximum(exp_len, 2)).astype(_U64))) & _U64(0xFF)
    signed = (exp_len > 0) & ((sign == ord("+") ^ 0x30) | (sign == ord("-") ^ 0x30))
    n_digits = exp_len - 1 - signed
    digits = np.take(_TOP, np.maximum(n_digits, 0))
    bad |= (non_digits & digits) != 0
    bad |= (exp_len > 0) & ((n_digits < 1) | (n_digits > 3))
    d = last & digits
    exp = (
        ((d >> _U64(40)) & _U64(0xFF)) * _U64(100)
        + ((d >> _U64(48)) & _U64(0xFF)) * _U64(10)
        + (d >> _U64(56))
    ).astype(np.int64)
    exp[signed & (sign == ord("-") ^ 0x30)] *= -1
    return exp_len, exp


def _round_half_even(q, m, e) -> np.ndarray:
    """Move estimates q of m * 10**e, each within 1.5 ulps, to the nearest double.

    For 2**53 < m < 2**63 and |e| <= 22. Ties go to the even significand,
    as float() rounds. q is corrected in place; returns the rows still
    moving after 4 steps.
    """
    active = np.arange(q.size)
    for _ in range(4):
        if not active.size:
            break
        bits = q[active].view(_U64)
        up, down = _nearer_neighbour(bits, m[active], e[active])
        bits += up
        bits -= down
        q[active] = bits.view(np.float64)
        active = active[up | down]
    return active


def _nearer_neighbour(bits, m, e) -> tuple[np.ndarray, np.ndarray]:
    """Whether the double above, or below, each q = bits is nearer m * 10**e.

    Exact in wrapping uint64 arithmetic. With q = f * 2**b, the value lies
    d = 4 * (m * 10**e - q) / 2**b quarter-ulps from q. Scaled by 5**-e when
    e < 0, d is L * 2**s - R with s = e + 2 - b, L = m * 5**max(e, 0) and
    R = 4f * 5**max(-e, 0); when s < 0, R is shifted left by -s instead.
    L and R wrap mod 2**64, but for |e| <= 22, m < 2**63 and q within 1.5
    ulps, |d| < 2**63, so their wrapped difference is d. d is compared
    with the half-spacing to each neighbour, scaled alike.
    """
    frac = bits & _U64(2**52 - 1)
    f4 = (frac | _U64(2**52)) << _U64(2)
    s = e + 1077 - (bits >> _U64(52)).astype(np.int64)
    positive = e >= 0
    five = np.take(_POW5, np.abs(e))
    left = np.where(positive, m * five, m) << np.maximum(s, 0).astype(_U64)
    shift = np.maximum(-s, 0).astype(_U64)
    d = (left - (np.where(positive, f4, f4 * five) << shift)).view(np.int64)
    unit = (np.where(positive, _U64(1), five) << shift).view(np.int64)
    odd = (bits & _U64(1)) == 1
    up = (d > 2 * unit) | ((d == 2 * unit) & odd)
    # Below f = 2**52 the spacing halves, and so does the half-spacing.
    down_unit = np.where(frac == 0, unit, 2 * unit)
    down = (d < -down_unit) | ((d == -down_unit) & odd)
    return up, down


def _words(buf) -> np.ndarray:
    """Unaligned view of buf: element i is the little-endian word at byte i."""
    return np.ndarray((buf.size - 7,), "<u8", buf, strides=(1,))


def _zero_bytes(v) -> np.ndarray:
    """The high bit of each zero byte of v; exact, as no carry crosses bytes."""
    return ~(((v & _LOW7) + _LOW7) | v) & _HIGH


def _non_digits(x) -> np.ndarray:
    """The high bit of each byte of x that is not an ASCII digit XOR ord("0")."""
    flags = x & _LOW7
    flags += _U64(0x7676767676767676)
    flags |= x
    flags &= _HIGH
    return flags


def _byte_index(high_bit) -> np.ndarray:
    """Index 0-7 of the byte whose high bit is the one bit set; 0 if none is."""
    return ((high_bit >> _U64(7)) * _U64(0x0001020304050607)) >> _U64(56)


def _eight_digits(d) -> np.ndarray:
    """Value of the 8 decimal digits held one per byte of d, first byte leading.

    d is overwritten.
    """
    mask = _U64(0x000000FF000000FF)
    pairs = d >> _U64(8)
    d *= _U64(10)
    d += pairs
    pairs = d >> _U64(16)
    pairs &= mask
    pairs *= _U64(1 + (10000 << 32))
    d &= mask
    d *= _U64(100 + (1000000 << 32))
    d += pairs
    d >>= _U64(32)
    return d


def _physical_memory() -> float:
    """Bytes of physical memory, or inf where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return math.inf


def _check_matrix_fits(nr: int, nc: int) -> None:
    """DataError naming the shape if an nr x nc float64 matrix exceeds memory.

    Called before the matrix is allocated, so a wide sparse file is refused
    even where the allocation itself would succeed under overcommit.
    """
    if 8 * nr * nc > _physical_memory():
        raise DataError(
            f"{nr} x {nc} weight matrix needs {8 * nr * nc / 2**30:.3g} GiB, "
            f"more than this machine's memory"
        )


def _cells(rows, cols, ri, ci, w) -> tuple[list[str], list[str], np.ndarray]:
    """The labels and the len(rows) x len(cols) matrix whose cell (i, j) sums
    the weights w of the lines with ri = i and ci = j, in file order from 0.0."""
    nr, nc = len(rows), len(cols)
    _check_matrix_fits(nr, nc)
    cells = np.bincount(ri * nc + ci, weights=w, minlength=nr * nc)
    # With no lines at all, bincount's result is an integer array.
    return rows, cols, cells.astype(np.float64, copy=False).reshape(nr, nc)


def _nonnegative(text: str, what: str, lineno: int, offset: int) -> float:
    """float(text); a ParseError on its line unless it is finite and >= 0."""
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"bad {what} {text!r}", lineno, offset) from None
    if not math.isfinite(value) or value < 0:
        raise ParseError(f"{what} must be finite and >= 0, got {value!r}", lineno, offset)
    return value


def _parse_triplets_lines(path) -> tuple[list[str], list[str], np.ndarray]:
    """parse_triplets one line at a time; the only source of its ParseErrors."""
    row_ids: dict[str, int] = {}
    col_ids: dict[str, int] = {}
    ri: list[int] = []
    ci: list[int] = []
    w: list[float] = []
    for lineno, line_offset, (row, col, weight) in _read_lines(path, 3):
        for label in (row, col):
            if "\r" in label:
                raise ParseError(f"label {label!r} holds a CR", lineno, line_offset)
        w.append(_nonnegative(weight, "weight", lineno, line_offset))
        ri.append(row_ids.setdefault(row, len(row_ids)))
        ci.append(col_ids.setdefault(col, len(col_ids)))
    return _cells(
        list(row_ids), list(col_ids),
        np.array(ri, dtype=np.intp), np.array(ci, dtype=np.intp), np.array(w),
    )


def _csv_cells(line: str, lineno: int, line_offset: int) -> list[str]:
    try:
        return next(csv.reader([line]))
    except csv.Error as exc:
        raise ParseError(f"bad CSV line ({exc})", lineno, line_offset) from None


def _csv_label(cell: str, seen: set[str], lineno: int, line_offset: int) -> str:
    """A stripped CSV label, added to `seen`. A tab, CR or LF in it is a
    ParseError, as no TSV artifact could hold it; so is a label in `seen`."""
    label = cell.strip()
    if "\t" in label or "\r" in label or "\n" in label:
        raise ParseError(
            f"label {label!r} holds a tab or line break", lineno, line_offset
        )
    if label in seen:
        raise ParseError(f"duplicate label {label!r}", lineno, line_offset)
    seen.add(label)
    return label


def load_dense_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Read a dense CSV (header = X labels, first column = Y labels).

    A label holding a tab, CR or LF, or an item or feature label listed
    twice, is a ParseError on its line.
    """
    lines = _read_lines(path)
    try:
        header_no, header_off, header = next(lines)
    except StopIteration:
        raise ParseError("empty file", 1, 0) from None
    header_cells = _csv_cells(header, header_no, header_off)
    if len(header_cells) < 2:
        raise ParseError("header needs at least one column label", header_no, header_off)
    seen_cols: set[str] = set()
    col_labels = [
        _csv_label(c, seen_cols, header_no, header_off) for c in header_cells[1:]
    ]
    seen_rows: set[str] = set()
    row_labels: list[str] = []
    data: list[list[float]] = []
    for lineno, line_offset, line in lines:
        cells = _csv_cells(line, lineno, line_offset)
        if len(cells) != len(col_labels) + 1:
            raise ParseError(
                f"expected {len(col_labels) + 1} cells, got {len(cells)}",
                lineno,
                line_offset,
            )
        row_labels.append(_csv_label(cells[0], seen_rows, lineno, line_offset))
        data.append(
            [
                _nonnegative(cell, "value", lineno, line_offset) if cell else 0.0
                for cell in map(str.strip, cells[1:])
            ]
        )
    if not data:
        raise ParseError("no data rows", header_no, header_off)
    return row_labels, col_labels, np.array(data, dtype=np.float64)


def ingest(
    row_labels,
    col_labels,
    weights,
    normalize: str = "joint",
) -> tuple[Dtm, dict[str, list[str]]]:
    """The DTM of a raw nonnegative matrix, after pruning empty rows/cols,
    and the labels pruned, as {"pruned_rows": [...], "pruned_cols": [...]}.

    normalize "joint" divides by the total mass; "rows" normalizes each row
    to sum 1 and then divides by the row count, yielding a joint with a
    uniform row marginal. The caller's weights are not modified.
    """
    if normalize not in ("joint", "rows"):
        raise ConfigError(f"unknown normalize mode {normalize!r}")
    # C order: the sums below then add in the same order whether or not a
    # gather copies the weights.
    w = np.asarray(weights, dtype=np.float64, order="C")
    if w.ndim != 2:
        raise DataError("weights must be a matrix")
    if not np.all(np.isfinite(w)) or np.any(w < 0):
        raise DataError("weights must be finite and >= 0")
    row_labels = [str(x) for x in row_labels]
    col_labels = [str(x) for x in col_labels]

    row_keep = w.sum(axis=1) > 0
    col_keep = w.sum(axis=0) > 0
    pruned = {
        "pruned_rows": [lab for lab, keep in zip(row_labels, row_keep) if not keep],
        "pruned_cols": [lab for lab, keep in zip(col_labels, col_keep) if not keep],
    }
    if not (row_keep.all() and col_keep.all()):
        w = w[np.ix_(row_keep, col_keep)]
        row_labels = [lab for lab, keep in zip(row_labels, row_keep) if keep]
        col_labels = [lab for lab, keep in zip(col_labels, col_keep) if keep]
    if w.size == 0:
        raise DataError("no rows or columns carry weight")

    # Each mode makes one new array, so the caller's weights stay untouched.
    if normalize == "joint":
        w = w / w.sum()
    else:
        w = w / w.sum(axis=1, keepdims=True)
        w /= w.shape[0]
    return build_dtm(row_labels, col_labels, w), pruned


def write_triplets(path, row_labels, col_labels, weights) -> None:
    """Serialize a labeled matrix as triplets, one line per cell.

    Every cell is written (including zeros) so label order survives a
    round-trip exactly; weights use repr-precision decimals.
    """
    w = np.asarray(weights, dtype=np.float64)
    with _create(path) as fh:
        for i, row in enumerate(row_labels):
            for j, col in enumerate(col_labels):
                fh.write(f"{row}\t{col}\t{w[i, j]:.17g}\n")


def load_pmf(path) -> Pmf:
    """Read `label<TAB>probability` lines into a Pmf.

    A bad, non-finite or negative probability, or a label listed twice, is a
    ParseError on its line; Pmf checks that the probabilities sum to 1.
    """
    probs: dict[str, float] = {}
    for lineno, line_offset, (label, prob_text) in _read_lines(path, 2):
        prob = _nonnegative(prob_text, "probability", lineno, line_offset)
        if label in probs:
            raise ParseError(f"duplicate label {label!r}", lineno, line_offset)
        probs[label] = prob
    if not probs:
        raise ParseError("empty pmf file", 1, 0)
    return Pmf(tuple(probs), np.array(list(probs.values())))


def load_labels(path) -> dict[str, str]:
    """Read `item<TAB>label` lines into an assignment mapping.

    An item listed twice is a ParseError on its second line.
    """
    out: dict[str, str] = {}
    for lineno, offset, (item, label) in _read_lines(path, 2):
        if item in out:
            raise ParseError(f"duplicate item {item!r}", lineno, offset)
        out[item] = label
    if not out:
        raise ParseError("empty label file", 1, 0)
    return out


def apply_rating_transform(weights) -> np.ndarray:
    """Elementwise rating map; zeros are blanks and stay 0."""
    w = np.asarray(weights, dtype=np.float64)
    mask = w != 0
    vals = w[mask]
    if vals.size and (
        np.any(vals != np.rint(vals)) or np.any(vals < 1) or np.any(vals > 5)
    ):
        raise DataError("nonblank ratings must be integers in 1..5")
    out = np.zeros_like(w)
    out[mask] = 3.0 ** (vals - 1.0) - 1.0
    return out


def _check_cells(rows: int, cols: int) -> None:
    """ConfigError if a rows x cols generated matrix exceeds MAX_CELLS."""
    if rows * cols > MAX_CELLS:
        raise ConfigError(
            f"{rows} x {cols} matrix exceeds the generator limit of "
            f"{MAX_CELLS} cells"
        )


def gen_counterexample(m: int, n: int, s: float) -> np.ndarray:
    """Two-community block matrix P = [[s*1, 1], [1, s*1]] of m x n blocks,
    2m x 2n and left unnormalized; its size is checked before it is built."""
    if int(m) < 1 or int(n) < 1:
        raise ConfigError("m and n must be positive")
    if not (math.isfinite(s) and s >= 1):
        raise ConfigError("s must be finite and >= 1")
    m, n, s = int(m), int(n), float(s)
    _check_cells(2 * m, 2 * n)
    base = np.ones((2 * m, 2 * n))
    base[:m, :n] = s
    base[m:, n:] = s
    return base


def _counterexample_labels(m: int, n: int) -> tuple[list[str], list[str]]:
    """Labels of the 2m rows (y0..) and 2n columns (x0..) of the
    counterexample matrix, as synth writes them."""
    return [f"y{i}" for i in range(2 * m)], [f"x{j}" for j in range(2 * n)]


def _counterexample_splits(m: int, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The counterexample's two candidate clusterings as (row, column) cluster
    ids: the intuitive split at the block boundary, then the one-item split of
    the last row and column. A split's kernel is the one-hot matrix of its row
    ids; its Q keeps the cells of P whose row and column share a cluster."""
    if m < 2 or n < 2:
        raise ConfigError("one_item_Q2 needs m, n >= 2")
    intuitive = np.repeat([0, 1], m), np.repeat([0, 1], n)
    one_item = np.repeat([0, 1], [2 * m - 1, 1]), np.repeat([0, 1], [2 * n - 1, 1])
    return [intuitive, one_item]


def gen_planted_blocks(
    blocks: int,
    sizes,
    within_weight: float,
    cross_weight: float,
    noise_seed: int = 0,
) -> tuple[tuple[tuple[str, ...], tuple[str, ...], np.ndarray], list[str]]:
    """Planted block-diagonal joint with multiplicative noise.

    sizes may be a single int (every block that size) or one int per block;
    the column side mirrors the row block structure. Entries are
    within_weight inside blocks and cross_weight outside, each jittered by
    an independent Uniform[0.5, 1.5) factor from noise_seed (>= 0), then
    normalized to total mass 1. Returns the joint as (row labels, column
    labels, weights) and the ground-truth block label of each row.
    """
    blocks = int(blocks)
    if blocks < 1:
        raise ConfigError("blocks must be >= 1")
    if noise_seed < 0:
        raise ConfigError(f"noise_seed must be >= 0, got {noise_seed}")
    # Every block has a row, so blocks x blocks is a floor on the cell count;
    # checked before a scalar size is expanded into a per-block list.
    _check_cells(blocks, blocks)
    if isinstance(sizes, (int, np.integer)):
        sizes = [int(sizes)] * blocks
    sizes = [int(s) for s in sizes]
    if len(sizes) != blocks or any(s < 1 for s in sizes):
        raise ConfigError("sizes must give a positive size per block")
    _check_cells(sum(sizes), sum(sizes))
    if not (math.isfinite(within_weight) and math.isfinite(cross_weight)):
        raise ConfigError("within_weight and cross_weight must be finite")
    if not within_weight > cross_weight or cross_weight < 0:
        raise ConfigError("need within_weight > cross_weight >= 0")

    membership = np.repeat(np.arange(blocks), sizes)
    w = np.where(
        membership[:, None] == membership[None, :], within_weight, cross_weight
    ).astype(np.float64)
    rng = np.random.default_rng(noise_seed)
    w = w * rng.uniform(0.5, 1.5, size=w.shape)
    ny = membership.size
    labels_y = tuple(f"y{i}" for i in range(ny))
    labels_x = tuple(f"x{j}" for j in range(ny))
    truth = [f"b{int(b)}" for b in membership]
    return (labels_y, labels_x, w / w.sum()), truth


def community_objective(q, p, lam: float, k: int) -> float:
    """||Q - P||_F^2 - lam * (sum of the top k singular values of B(Q)).

    Zero rows/columns of Q are pruned before the DTM is formed (the DTM of
    an unnormalized nonnegative matrix equals that of its normalization); a
    k above the pruned DTM's smaller side sums all its singular values.
    """
    q = np.asarray(q, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if q.shape != p.shape or q.ndim != 2:
        raise DataError(f"Q {q.shape} vs P {p.shape}")
    if int(k) < 1:
        raise ConfigError("k must be >= 1")
    if not math.isfinite(lam):
        raise ConfigError(f"lam must be finite, got {lam!r}")
    if np.any(q < 0) or not np.all(np.isfinite(q)):
        raise DataError("Q must be finite and >= 0")
    dist = float(np.sum((q - p) ** 2))
    rows = [f"y{i}" for i in range(q.shape[0])]
    cols = [f"x{j}" for j in range(q.shape[1])]
    dtm = ingest(rows, cols, q)[0]
    top = float(np.sum(dtm.top(min(int(k), min(dtm.shape)))[1]))
    return dist - float(lam) * top


def _write_json(path, payload) -> None:
    """JSON with two-space indent and a trailing newline."""
    with _create(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_kernel_json(
    path,
    kernel: CouplingKernel,
    p_z,
    objective: float,
    algorithm: str,
    iters: int,
) -> None:
    """Pinned kernel artifact schema; key order is part of the format."""
    payload = {
        "clusters": list(kernel.cluster_labels),
        "items": list(kernel.item_labels),
        "kernel": [[float(v) for v in row] for row in kernel.kernel],
        "p_z": [float(v) for v in np.asarray(p_z, dtype=np.float64)],
        "objective": float(objective),
        "algorithm": algorithm,
        "iters": int(iters),
    }
    _write_json(path, payload)


def write_trace_csv(path, trace) -> None:
    """Pinned trace schema: iter, objective, penalty, violation."""
    with _create(path) as fh:
        fh.write("iter,objective,penalty,violation\n")
        for i, (obj, pen, viol) in enumerate(
            zip(trace.objectives, trace.penalties, trace.violations), start=1
        ):
            fh.write(f"{i},{obj:.17g},{pen:.17g},{viol:.17g}\n")
