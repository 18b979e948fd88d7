import codecs
import json
import math
import os
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coupclust import data_io
from coupclust.core import CouplingKernel, Pmf, SolveTrace, build_dtm
from coupclust.data_io import (
    MAX_CELLS,
    _counterexample_labels,
    _counterexample_splits,
    _parse_triplets_bulk,
    _parse_triplets_lines,
    apply_rating_transform,
    community_objective,
    gen_counterexample,
    gen_planted_blocks,
    ingest,
    load_dense_csv,
    load_labels,
    load_pmf,
    parse_triplets,
    write_kernel_json,
    write_trace_csv,
    write_triplets,
)
from coupclust.errors import (
    ConfigError,
    DataError,
    ParseError,
)
from coupclust.evaluation import kernel_norm_value

from conftest import counterexample_splits, random_joint


class TestParseTriplets:
    def test_basic(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tu\t2\nb\tv\t1\na\tv\t0.5\n")
        rows, cols, w = parse_triplets(p)
        assert rows == ["a", "b"]
        assert cols == ["u", "v"]
        np.testing.assert_allclose(w, [[2.0, 0.5], [0.0, 1.0]])

    def test_comments_and_blanks(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("# header comment\n\na\tu\t1\n   \nb\tu\t2\n")
        rows, cols, w = parse_triplets(p)
        assert rows == ["a", "b"]
        np.testing.assert_allclose(w, [[1.0], [2.0]])

    def test_duplicates_summed(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tu\t1\na\tu\t2.5\n")
        _, _, w = parse_triplets(p)
        assert w[0, 0] == 3.5

    def test_field_count_error(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tu\t1\nbad line without tabs\n")
        with pytest.raises(ParseError) as err:
            parse_triplets(p)
        assert err.value.line == 2
        assert err.value.offset == len("a\tu\t1\n")

    def test_bad_weight_error(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tu\tnot_a_number\n")
        with pytest.raises(ParseError) as err:
            parse_triplets(p)
        assert err.value.line == 1
        assert err.value.offset == 0

    def test_negative_weight_error(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("a\tu\t-1\n")
        with pytest.raises(ParseError):
            parse_triplets(p)

    @pytest.mark.parametrize(
        "reader, first_line",
        [
            (parse_triplets, b"a\tu\t1\n"),
            (load_pmf, b"z0\t1\n"),
            (load_labels, b"a\tb0\n"),
        ],
        ids=["parse_triplets", "load_pmf", "load_labels"],
    )
    def test_bad_utf8(self, tmp_path, reader, first_line):
        p = tmp_path / "t.tsv"
        p.write_bytes(first_line + b"\xff\xfe\tbroken\t1\n")
        with pytest.raises(ParseError) as err:
            reader(p)
        assert err.value.line == 2
        assert err.value.offset == len(first_line)

    def test_message_format(self, tmp_path):
        p = tmp_path / "t.tsv"
        p.write_text("x\ty\t1\nonly_one_field\n")
        with pytest.raises(ParseError, match=r"line 2, byte 6"):
            parse_triplets(p)

    @pytest.mark.parametrize(
        "text, label",
        [("y0\tx0\t1\na\rb\tx1\t2\n", "a\rb"), ("y0\tx0\t1\ny0\tx\r1\t2\n", "x\r1")],
        ids=["row", "column"],
    )
    def test_label_with_a_cr(self, tmp_path, text, label):
        # A universal-newline reader would split the label's row of any TSV
        # artifact in two. The bulk reader declines the file, and the line
        # reader names the line.
        p = tmp_path / "t.tsv"
        p.write_text(text)
        assert _parse_triplets_bulk(p) is None
        with pytest.raises(ParseError) as err:
            parse_triplets(p)
        assert (err.value.line, err.value.offset) == (2, 8)
        assert f"label {label!r} holds a CR" in str(err.value)


def _outcome(reader, path):
    """Labels and weight bits, or the ParseError's message, line and offset."""
    try:
        rows, cols, w = reader(path)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.offset
    return "ok", rows, cols, w.shape, w.tobytes()


# Well-formed triplet lines with at most one odd line spliced in, so that
# many files take the bulk path and each fallback rule is reached. Labels
# include prefixes of each other, multibyte UTF-8 and one far wider label.
_good_line = st.tuples(
    st.sampled_from(
        ["a", "b", "c d", "\u00e9", "x#", "ab", "a b", "\u00e9\u00e9",
         "\u4e2d", "L" * 40]
    ),
    st.sampled_from(["u", "v", " w", "u\x85", "uv", "u v", "\U0001f600"]),
    st.sampled_from(
        ["1", "0.5", "2", "0", "-0.0", "1_0", "1e308", " 1", "3e-320",
         "0.30000000000000004", "12.5e-3", "1.7976931348623157e308"]
    ),
).map("\t".join)
_odd_line = st.one_of(
    st.sampled_from(
        ["", " ", "\t\t", "#c", "#a\tu\t1", " a\tu\t1", "\x85a\tu\t1",
         "\u3000a\tu\t1", "\ta\t1", "a\tu\t1 ", "a\tu\t1\r", "a\tu\t1\x0b",
         "a\tu", "a\tu\t1\t2", "a\tu\t", "a\tu\tx", "a\tu\t-1", "a\tu\tnan",
         "a\tu\tinf", "a\tu\t\u0661", "a\tu\t1\u2028"]
    ),
    st.text(max_size=6),
)
_triplet_bytes = st.one_of(
    st.tuples(
        st.lists(_good_line, max_size=8),
        st.lists(_odd_line, max_size=1),
        st.integers(0, 8),
        st.sampled_from(["", "\n"]),
    ).map(
        lambda t: ("\n".join(t[0][: t[2]] + t[1] + t[0][t[2]:]) + t[3]).encode()
    ),
    st.binary(max_size=60),
)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@example(content=b"a\tu\t0.1\na\tu\t0.2\nb\tu\t1\na\tu\t0.3\n")  # duplicates
@example(content=b"a b\tu v\t1\n")  # inner space
@example(content=b" a\tu\t1\n")  # leading space
@example(content=b"a\tu\t1\r\nb\tv\t2\r\n")  # CRLF
@example(content=b"# c\na\tu\t1\n#a\tu\t2\n")  # comment lines
@example(content=b"a\tu\t1\n\n\t\t\nb\tu\t2\n")  # blank and tab-only lines
@example(content=b"a\tu\t1\n\tu\t2\n")  # empty row label
# Two and four fields, or four and two: the fields alone would parse.
@example(content=b"a\tu\n1\tb\tv\t2\n")
@example(content=b"a\tu\t1\tb\nv\t2\n")
@example(content=b"a\tu\t1\nb\tv\t2")  # no final newline
@example(content=b"a\tu\t1\n\xff\tv\t2\n")  # not UTF-8
@example(content=b"a\tu\t1_0\n")
@example(content=b"a\tu\tinf\n")
@example(content=b"a\tu\tnan\n")
@example(content=b"a\tu\t-0.0\n")
@example(content=b"a\tu\t-1\n")
@example(content=b"a\x00\tu\t1\na\tu\t2\n")  # NUL: "a\0" is not "a"
@example(content=b"a\tu\t1\r\na\tu\t2\r\nab\tu\t3\r\n")  # CRLF, duplicates
@example(content=b"a\tu\t1\r\nb\tv\t2\r")  # CRLF, no final newline
@example(content=codecs.BOM_UTF8 + b"a\tu\t1\n")  # byte order mark
@example(content=codecs.BOM_UTF8 + b"#c\na\tu\t1\n")
@example(content=codecs.BOM_UTF8 * 2 + b"a\tu\t1\n")
# A short first label keyed with a 40-byte one: its first words precede the file.
@example(content=b"a\tu\t1\n" + b"L" * 40 + b"\tu\t2\na\t" + b"W" * 33 + b"\t3\n")
@given(content=_triplet_bytes)
def test_parse_triplets_matches_line_reader(content):
    """Any bytes: same labels and weight bits, or the same ParseError."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.tsv"
        path.write_bytes(content)
        got = _outcome(parse_triplets, path)
        want = _outcome(_parse_triplets_lines, path)
    assert got == want


@pytest.mark.parametrize(
    "content, bulk",
    [
        (b"a\tu\t1\nb b\tv\t2.5\na\tu\t1_0\n", True),
        (b"a\tu\t1\nb\tv\t-0.0", True),
        # float() strips a trailing CR or space just as str.strip() does
        (b"a\tu\t1\r\nb\tv\t1 \n", True),
        (b"a\tu\t1\x1c\n", False),
        (b"#c\na\tu\t1\n", False),
        (b"#a\tu\t1\n", False),
        (b"a\tu\t1\n\n", False),
        (b"\t\t\n", False),
        (b" a\tu\t1\n", False),
        (b"a\tu\n", False),
        (b"a\tu\t-1\n", False),
        (b"a\tu\tnan\n", False),
        (b"\xff\tu\t1\n", False),
        # NUL bytes: S keys would read "a\0" as "a"
        (b"a\x00\tu\t1\na\tu\t2\n", False),
        (b"a\tu\t1\x00\n", False),
        # a few long fields among short lines are still read in bulk
        (b"L" * 64 + b"\tu\t1\n", True),
        (b"a\tu\t1\nb\tv\t2\n" + b"L" * 64 + b"\tu\t1\n", True),
        (b"a\tu\t1\nb\tv\t2\na\tu\t" + b"0" * 64 + b"\n", True),
        (b"ab\tcd\t1\n" * 8 + b"W" * 40 + b"\tcd\t2\n" + b"ab\tcd\t3\n" * 8, True),
    ],
)
def test_bulk_path_taken_only_on_well_formed_files(tmp_path, content, bulk):
    path = tmp_path / "t.tsv"
    path.write_bytes(content)
    assert (_parse_triplets_bulk(path) is not None) == bulk


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_bulk_reader_reads_a_pipe_to_its_end(tmp_path):
    # A pipe reports size 0, so the buffer grows until EOF.
    content = "".join(f"r{i % 7}\tc{i}\t{i}.5\n" for i in range(500)).encode()
    path = tmp_path / "t.tsv"
    path.write_bytes(content)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    writer = threading.Thread(target=fifo.write_bytes, args=(content,))
    writer.start()
    try:
        got = _parse_triplets_bulk(fifo)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    rows, cols, w = _parse_triplets_lines(path)
    assert got[:2] == (rows, cols)
    assert got[2].tobytes() == w.tobytes()


def _structured_labels(kind, width, count, rng):
    """count distinct labels of width bytes: random ACGT k-mers, or one
    repeated letter ending in a distinct hex number."""
    if kind == "repeat":
        return [f"{i:x}".rjust(width, "r") for i in range(count)]
    labels = {}
    while len(labels) < count:
        for codes in rng.integers(0, 4, (count, width)):
            labels.setdefault("".join("ACGT"[c] for c in codes))
    return list(labels)[:count]


@pytest.mark.parametrize(
    "kind, width",
    [pytest.param("one-wide", 20, id="one-wide-label")]
    # Keys of one to five 8-byte words.
    + [(kind, width) for kind in ("kmer", "repeat") for width in (6, 12, 20, 28, 40)],
)
def test_bulk_reader_interns_structured_labels(tmp_path, kind, width):
    # Labels that share long prefixes and suffixes, in random order in both
    # columns, intern as the line reader numbers them.
    path = tmp_path / "t.tsv"
    if kind == "one-wide":
        path.write_bytes(b"b\tu\t1\na\tv\t2\n" + b"L" * 20 + b"\tu\t3\nb\tw\t4\n")
    else:
        rng = np.random.default_rng(width)
        rows = _structured_labels(kind, width, 2000, rng)
        cols = _structured_labels(kind, width, 300, rng)
        ri = rng.integers(0, len(rows), 3000)
        ci = rng.integers(0, len(cols), 3000)
        path.write_text(
            "".join(f"{rows[i]}\t{cols[j]}\t{i % 7}.5\n" for i, j in zip(ri, ci))
        )
    assert _parse_triplets_bulk(path) is not None
    assert _outcome(parse_triplets, path) == _outcome(_parse_triplets_lines, path)


def _plain(result):
    """A reader's result as plain data that compares by value."""
    if isinstance(result, Pmf):
        return result.labels, result.probs.tolist()
    if isinstance(result, tuple):
        rows, cols, w = result
        return rows, cols, w.tobytes()
    return result


@pytest.mark.parametrize(
    "reader, content",
    [
        (_parse_triplets_bulk, b"y0\tx0\t1\ny1\tx1\t2\ny0\tx1\t3\n"),
        (_parse_triplets_lines, b"y0\tx0\t1\ny1\tx1\t2\ny0\tx1\t3\n"),
        # After a BOM, the quoted corner would start mid-cell and split at its comma.
        (load_dense_csv, b'"a,b",x0,x1\ny0,1,2\n'),
        (load_pmf, b"z0\t0.25\nz1\t0.75\n"),
        (load_labels, b"y0\tb0\ny1\tb1\n"),
    ],
    ids=["bulk", "lines", "csv", "pmf", "truth"],
)
def test_leading_byte_order_mark_is_skipped(tmp_path, reader, content):
    plain = tmp_path / "plain.tsv"
    plain.write_bytes(content)
    marked = tmp_path / "marked.tsv"
    marked.write_bytes(codecs.BOM_UTF8 + content)
    assert _plain(reader(marked)) == _plain(reader(plain))


def test_error_offsets_count_the_byte_order_mark(tmp_path):
    path = tmp_path / "t.tsv"
    path.write_bytes(codecs.BOM_UTF8 + b"a\tu\t1\nb\tv\n")
    with pytest.raises(ParseError) as err:
        parse_triplets(path)
    assert (err.value.line, err.value.offset) == (2, 9)


def test_write_triplets_output_parses_in_bulk_within_memory(tmp_path):
    # Traced peak of the whole parse, against the size of the file.
    joint, _ = gen_planted_blocks(4, 50, 1.0, 0.1, noise_seed=0)
    path = tmp_path / "t.tsv"
    write_triplets(path, *joint)
    assert _parse_triplets_bulk(path) is not None
    tracemalloc.start()
    try:
        parse_triplets(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * path.stat().st_size


def test_bytes_cast_is_float():
    # The bulk reader converts weights with numpy's S -> float64 cast; it
    # must agree with float() bit for bit wherever it accepts a string.
    cases = ["1", "0.1", "1_0", " 1", "1\r", "1 ", "-0.0", "3e-320", "1e309",
             "1.7976931348623157e308", "0.30000000000000004", "+2.5E-3"]
    got = np.array([c.encode() for c in cases], "S").astype(np.float64)
    want = np.array([float(c) for c in cases])
    assert got.tobytes() == want.tobytes()


def _word_path(fields):
    """_parse_decimals on byte strings, each laid out as a tab-led line."""
    pad = data_io._WORD_FIELD
    blob = b"".join(b"\t" + f + b"\n" for f in fields)
    buf = np.zeros(pad + len(blob), dtype=np.uint8)
    buf[pad:] = np.frombuffer(blob, dtype=np.uint8)
    lengths = np.array([len(f) for f in fields])
    stop = pad + np.cumsum(lengths + 2) - 1
    return data_io._parse_decimals(buf, stop - lengths, stop)


def _mantissa_exponent(text):
    """M and E of a field in the word grammar, whose value is M * 10**E."""
    mantissa, _, exp = text.removesuffix("\r").lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    return int(whole + frac), int(exp or 0) - len(frac)


def _in_word_range(text):
    """Whether a field in the word grammar is short enough and M, E in range."""
    m, e = _mantissa_exponent(text)
    return len(text.removesuffix("\r")) <= 24 and m < 2**63 and -22 <= e <= 22


def _check_word_path(texts, word_path):
    values, fallback = _word_path([t.encode() for t in texts])
    for text, value, fell_back, want in zip(texts, values, fallback, word_path):
        assert fell_back != want, text
        if want:
            assert value.tobytes() == np.float64(float(text)).tobytes(), text


_word_digits = st.text("0123456789", max_size=19)
_word_exponent = st.tuples(
    st.sampled_from("eE"),
    st.sampled_from(["", "+", "-"]),
    st.integers(0, 40).flatmap(lambda v: st.sampled_from([str(v), f"{v:03d}"])),
).map("".join)
# `digits[.digits]` or `.digits`, an optional exponent, an optional CR.
_word_decimal = st.tuples(
    _word_digits,
    st.none() | _word_digits,
    st.just("") | _word_exponent,
    st.sampled_from(["", "\r"]),
).filter(lambda t: t[0] or t[1]).map(
    lambda t: t[0] + ("" if t[1] is None else "." + t[1]) + t[2] + t[3]
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(texts=st.lists(_word_decimal, min_size=1, max_size=40))
def test_word_path_equals_float(texts):
    _check_word_path(texts, [_in_word_range(t) for t in texts])


def _decimal_of(t, j):
    """The exact decimal of t / 2**j."""
    digits = str(t * 5**j)
    return digits[: len(digits) - j] + "." + digits[len(digits) - j :] if j else digits


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    ties=st.lists(
        st.tuples(st.integers(2**52, 2**53 - 1), st.integers(0, 3)), min_size=1, max_size=40
    )
)
def test_word_path_rounds_ties_to_even(ties):
    # Odd t in (2**53, 2**54) over 2**j lies halfway between two doubles.
    texts = [_decimal_of(2 * k + 1, j) for k, j in ties]
    _check_word_path(texts, [True] * len(texts))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Just below 2**54 and 1, where the spacing below halves, and the largest
# and smallest scaled differences.
@example(
    texts=[
        "18014398509481982.75",
        "0.99999999999999991",
        "9223372036854775807e22",
        "9007199254740993e-22",
    ]
)
@given(
    texts=st.lists(
        st.tuples(st.integers(2**53 + 1, 2**63 - 1), st.integers(-22, 22)).map(
            "{0[0]}e{0[1]}".format
        ),
        min_size=1,
        max_size=20,
    )
)
def test_correction_reaches_float_from_1_ulp_away(texts):
    # float()'s double +-1 ulp is within 1.5 ulps of the value.
    m, e = np.array([_mantissa_exponent(t) for t in texts]).T
    want = np.array([float(t) for t in texts])
    for k in range(-1, 2):
        q = (want.view(np.int64) + k).view(np.float64)
        unsettled = data_io._round_half_even(q, m.astype(np.uint64), e)
        assert unsettled.size == 0
        assert q.tobytes() == want.tobytes(), k


@pytest.mark.parametrize(
    "text, word_path",
    [
        ("9007199254740992", True),  # M = 2**53
        ("9007199254740993", True),  # 2**53 + 1, a tie
        ("9223372036854775807", True),  # 2**63 - 1
        ("9223372036854775808", False),
        ("9223372036854775807e22", True),
        ("18014398509481983", True),  # ties just below and above 2**54
        ("18014398509481986", True),
        ("18014398509481984.5", True),
        ("1e22", True),
        ("1e23", False),
        ("1e-22", True),
        ("1e-23", False),
        ("0e-22", True),
        ("0e-23", False),
        ("9223372036854775807e-22", True),
        ("0000000000.0000000000000", True),  # 24 bytes, M = 0
        ("5", True),
        ("5.", True),
        (".5", True),
        ("000.5", True),
        ("0", True),
        ("0.0", True),
        ("5.4250854925828851e-06", True),
        ("1234567890123456789e-022", True),  # 24 bytes
        ("0.0000000000000000000001\r", True),  # 24 bytes and a CR
        ("00.0000000000000000000001", False),  # 25 bytes
        ("1e0001", False),  # 4 exponent digits
        ("1_0", False),
        (" 1", False),
        ("1 ", False),
        ("1\r\r", False),
        ("+2.5E-3", False),
        ("-0.0", False),
        ("inf", False),
        ("nan", False),
        ("1e400", False),
        ("1e", False),
        ("e5", False),
        (".", False),
        (".e1", False),
        ("1.2.3", False),
        ("1e5e5", False),
        ("1e+", False),
        ("1.5x", False),
        ("\u0661", False),
    ],
)
def test_word_path_grammar(text, word_path):
    _check_word_path([text], [word_path])


def test_fallback_rows_keep_their_place(tmp_path, monkeypatch):
    # Per-row casts land on their own rows among word-path ones, across chunks.
    monkeypatch.setattr(data_io, "_CHUNK_ROWS", 3)
    path = tmp_path / "t.tsv"
    weights = ["1_0", "0.5", " 2", "+2.5E-3", "3e-320", "7", "1.5e+0003", "1e-400"]
    path.write_text("".join(f"r{i}\tc\t{w}\n" for i, w in enumerate(weights)))
    assert _parse_triplets_bulk(path) is not None
    assert _outcome(parse_triplets, path) == _outcome(_parse_triplets_lines, path)


def _repr_planted(path):
    rng = np.random.default_rng(3)
    same = np.kron(np.eye(4), np.ones((25, 25))) > 0
    w = np.where(same, 1.0, 0.05) * rng.uniform(0.5, 1.5, size=same.shape)
    with open(path, "w") as fh:
        for i, row in enumerate(w.tolist()):
            fh.writelines(f"y{i}\tx{j}\t{v!r}\n" for j, v in enumerate(row))


def _normalized_planted(path, cross=0.05):
    # %.17g writes d.dddddddddddddddde-XX below 1e-4: E = -XX - 16.
    joint, _ = gen_planted_blocks(4, 25, 1.0, cross, noise_seed=1)
    write_triplets(path, *joint)


def _tiny_normalized_planted(path):
    # Cross weight 1e-7: E reaches -27, and rows with E < -22 fall back.
    _normalized_planted(path, cross=1e-7)


def _zipf_counts(path):
    rng = np.random.default_rng(5)
    counts = np.zeros((60, 60))
    p = 1.0 / np.arange(1, 61) ** 1.1
    np.add.at(counts, (rng.choice(60, 5000, p=p / p.sum()), rng.integers(0, 60, 5000)), 1.0)
    rows, cols = np.nonzero(counts)
    with open(path, "w") as fh:
        fh.writelines(
            f"y{i}\tx{j}\t{v!r}\n"
            for i, j, v in zip(rows.tolist(), cols.tolist(), counts[rows, cols].tolist())
        )


@pytest.mark.parametrize("crlf", [False, True])
@pytest.mark.parametrize(
    "write", [_repr_planted, _normalized_planted, _tiny_normalized_planted, _zipf_counts]
)
def test_weight_files_take_the_word_path(tmp_path, monkeypatch, write, crlf):
    path = tmp_path / "t.tsv"
    write(path)
    weights = [line.split("\t")[2] for line in path.read_text().splitlines()]
    out_of_range = sum(not _in_word_range(w) for w in weights)
    assert (out_of_range > 0) == (write is _tiny_normalized_planted)
    if crlf:
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    fallback_rows = []
    parse_decimals = data_io._parse_decimals

    def counted(buf, start, stop):
        values, fallback = parse_decimals(buf, start, stop)
        fallback_rows.append(int(fallback.sum()))
        return values, fallback

    monkeypatch.setattr(data_io, "_parse_decimals", counted)
    got = _outcome(parse_triplets, path)
    assert fallback_rows and sum(fallback_rows) == out_of_range
    assert got == _outcome(_parse_triplets_lines, path)


@pytest.mark.parametrize("reader", [_parse_triplets_bulk, _parse_triplets_lines])
def test_matrix_beyond_memory_refused_before_allocation(tmp_path, monkeypatch, reader):
    # 200,000 x 200,000 float64 is 298 GiB: refused from the shape alone.
    path = tmp_path / "wide.tsv"
    path.write_text("".join(f"r{i}\tc{i}\t1\n" for i in range(200_000)))

    def no_alloc(*args, **kwargs):
        raise AssertionError("weight matrix allocated")

    monkeypatch.setattr(np, "bincount", no_alloc)
    monkeypatch.setattr(np, "zeros", no_alloc)
    monkeypatch.setattr(data_io, "_physical_memory", lambda: 64 * 2**30)
    with pytest.raises(DataError, match="200000 x 200000 weight matrix"):
        reader(path)


@pytest.mark.parametrize("memory, bulk", [(1151, False), (1152, True)])
def test_bulk_path_declines_fields_beyond_memory(tmp_path, monkeypatch, memory, bulk):
    # 4 lines x (64 + 8) label key bytes = 288, a quarter of 1152 (label keys
    # are whole 8-byte words; weights on the word path take no key bytes).
    path = tmp_path / "t.tsv"
    path.write_bytes(b"a\tu\t1\n" * 3 + b"L" * 64 + b"\tu\t1\n")
    monkeypatch.setattr(data_io, "_physical_memory", lambda: memory)
    assert (_parse_triplets_bulk(path) is not None) == bulk


@pytest.mark.parametrize(
    "wide, memory, bulk", [(1, 1279, True), (4, 1023, False), (4, 1024, True)]
)
def test_bulk_path_counts_only_fallback_weights(
    tmp_path, monkeypatch, wide, memory, bulk
):
    # A 64-digit weight falls back to float(), and only the rows that fall
    # back are cut to a fixed width. The labels take 4 x (8 + 8) = 64 bytes.
    # One wide weight adds 64 bytes and is read in bulk at 1279, where the
    # weight column counted at its widest on every line (4 x (8 + 8 + 64) =
    # 320 bytes) declined; four add 4 x 64 = 256, a quarter of 1024.
    path = tmp_path / "t.tsv"
    wide_line = b"a\tu\t" + b"1" * 64 + b"\n"
    path.write_bytes(wide_line * wide + b"a\tu\t1\n" * (4 - wide))
    monkeypatch.setattr(data_io, "_physical_memory", lambda: memory)
    got = _parse_triplets_bulk(path)
    assert (got is not None) == bulk
    if bulk:
        rows, cols, w = _parse_triplets_lines(path)
        assert got[:2] == (rows, cols)
        assert got[2].tobytes() == w.tobytes()


# Labels of 1-40 UTF-8 bytes that the bulk reader accepts as row labels.
_grid_label = st.text("abxyz019_.-\u00e9", min_size=1, max_size=40).filter(
    lambda t: len(t.encode()) <= 40
)


@st.composite
def _grids(draw, min_side=1):
    """Triplet lines listing each cell of an nr x nc grid once, row by row,
    as write_triplets does, and a line ending (LF or CRLF). One label on the
    first line is wider than the reader's front pad."""
    nr = draw(st.integers(min_side, 5))
    nc = draw(st.integers(min_side, 5))
    rows = draw(st.lists(_grid_label, min_size=nr, max_size=nr, unique=True))
    cols = draw(st.lists(_grid_label, min_size=nc, max_size=nc, unique=True))
    wide = draw(st.text("abxyz", min_size=25, max_size=40))
    assume(wide not in rows + cols)
    if draw(st.booleans()):
        rows[0] = wide
    else:
        cols[0] = wide
    weights = draw(
        st.lists(_word_decimal | st.just("-0.0"), min_size=nr * nc, max_size=nr * nc)
    )
    lines = [(r, c) for r in rows for c in cols]
    lines = [(r, c, w) for (r, c), w in zip(lines, weights)]
    return nr, nc, lines, draw(st.sampled_from(["\n", "\r\n"]))


def _count_bincount(mp):
    """A list that gains one item per np.bincount call while mp is active."""
    calls = []
    bincount = np.bincount

    def counted(*args, **kwargs):
        calls.append(1)
        return bincount(*args, **kwargs)

    mp.setattr(np, "bincount", counted)
    return calls


def _grid_outcome(lines, eol):
    """Bulk reader's outcome on the lines, the line reader's, and whether
    the bulk reader summed lines with np.bincount."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = Path(tmp) / "t.tsv"
        path.write_text("".join("\t".join(line) + eol for line in lines), newline="")
        calls = _count_bincount(mp)
        got = _outcome(_parse_triplets_bulk, path)
        mp.undo()
        return got, _outcome(_parse_triplets_lines, path), bool(calls)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(grid=_grids())
def test_every_cell_grid_is_reshaped(grid):
    """Same labels and weight bits as the line reader, with no bincount."""
    _, _, lines, eol = grid
    got, want, summed = _grid_outcome(lines, eol)
    assert got == want
    assert not summed


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    grid=_grids(min_side=2),
    change=st.sampled_from(["reuse", "swap", "drop", "duplicate", "ragged"]),
    data=st.data(),
)
def test_perturbed_grid_leaves_the_reshape(grid, change, data):
    """A grid that no longer lists each cell once, row by row, is summed."""
    nr, nc, lines, eol = grid

    def pick(hi):
        return data.draw(st.integers(0, hi))

    if change == "reuse":  # a later row takes the first row's label
        i = 1 + pick(nr - 2)
        lines[i * nc : (i + 1) * nc] = [
            (lines[0][0], c, w) for _, c, w in lines[i * nc : (i + 1) * nc]
        ]
    elif change == "swap":  # two columns of one row change places
        i, j = pick(nr - 1), 1 + pick(nc - 2)
        a = i * nc + pick(j - 1)
        lines[a], lines[i * nc + j] = lines[i * nc + j], lines[a]
    elif change == "drop":
        del lines[pick(len(lines) - 1)]
    elif change == "duplicate":
        at = pick(len(lines) - 1)
        lines.insert(at, lines[at])
    else:  # row i keeps its first nc - i columns
        lines = [line for k, line in enumerate(lines) if k % nc < max(nc - k // nc, 1)]
    got, want, summed = _grid_outcome(lines, eol)
    assert got == want
    assert got[0] == "ok" and summed


@pytest.mark.parametrize(
    "content",
    [
        # equal runs with the first run's columns, but a label twice
        b"a\tu\t1\na\tu\t2\nb\tu\t3\nb\tu\t4\n",
        b"a\tu\t1\na\tv\t2\na\tu\t3\nb\tu\t4\nb\tv\t5\nb\tu\t-0.0\n",
        b"a\tu\t1\nb\tu\t2\na\tu\t3\n",
        # runs of one line whose columns differ
        b"a\tu\t1\nb\tv\t2\na\tu\t3\nb\tv\t4\n",
    ],
)
def test_repeated_labels_in_equal_runs_are_summed(content):
    lines = [tuple(line.split("\t")) for line in content.decode().splitlines()]
    got, want, summed = _grid_outcome(lines, "\n")
    assert got == want
    assert got[0] == "ok" and summed


@pytest.mark.parametrize(
    "write, summed", [(_normalized_planted, False), (_zipf_counts, True)]
)
def test_bincount_only_where_cells_are_not_each_listed_once(
    tmp_path, monkeypatch, write, summed
):
    # write_triplets lists every cell once, row by row; a sparse file does not.
    path = tmp_path / "t.tsv"
    write(path)
    calls = _count_bincount(monkeypatch)
    assert _parse_triplets_bulk(path) is not None
    assert bool(calls) == summed


class TestDenseCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("item,u,v,w\na,1,2,3\nb,4,,6\n")
        rows, cols, w = load_dense_csv(p)
        assert rows == ["a", "b"]
        assert cols == ["u", "v", "w"]
        np.testing.assert_allclose(w, [[1, 2, 3], [4, 0, 6]])

    def test_cell_count_error(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("item,u,v\na,1\n")
        with pytest.raises(ParseError) as err:
            load_dense_csv(p)
        assert err.value.line == 2

    def test_header_starting_with_hash_is_the_header(self, tmp_path):
        # CSV has no comment syntax: a `#` corner cell starts the header.
        p = tmp_path / "m.csv"
        p.write_text("#,x1,x2\na,1,0\nb,0,1\n")
        rows, cols, w = load_dense_csv(p)
        assert (rows, cols) == (["a", "b"], ["x1", "x2"])
        np.testing.assert_array_equal(w, [[1, 0], [0, 1]])

    def test_row_starting_with_hash_is_data(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("item,u,v\na,1,0\n#c,1,1\n\nb,0,1\n")
        rows, cols, w = load_dense_csv(p)
        assert rows == ["a", "#c", "b"]
        np.testing.assert_array_equal(w, [[1, 0], [1, 1], [0, 1]])

    @pytest.mark.parametrize(
        "text, where, label",
        [
            ('item,u,v\n"a\tb",1,2\n', (2, 9), "a\tb"),
            ('item,u,v\nc,1,1\n"a\rb",1,2\n', (3, 15), "a\rb"),
            ('item,"u\tw",v\na,1,2\n', (1, 0), "u\tw"),
            ('item,u,"v\r"x\na,1,2\n', (1, 0), "v\rx"),
        ],
    )
    def test_label_with_tab_or_line_break(self, tmp_path, text, where, label):
        # No tab-separated output could hold such a label in one field.
        p = tmp_path / "m.csv"
        p.write_bytes(text.encode())
        with pytest.raises(ParseError) as err:
            load_dense_csv(p)
        assert (err.value.line, err.value.offset) == where
        assert f"label {label!r} holds a tab or line break" in str(err.value)

    @pytest.mark.parametrize(
        "text, where, label",
        [
            ("item,u,v\na,1,2\nb,0,1\na,2,2\n", (4, 21), "a"),
            ("item,u,v,u\na,1,2,3\n", (1, 0), "u"),
        ],
        ids=["item", "feature"],
    )
    def test_duplicate_label(self, tmp_path, text, where, label):
        # Named with its line, as the pmf and truth readers name theirs. An
        # item may share a label with a feature.
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ParseError) as err:
            load_dense_csv(p)
        assert (err.value.line, err.value.offset) == where
        assert f"duplicate label {label!r}" in str(err.value)
        p.write_text("item,a,b\na,1,2\nb,0,1\n")
        assert load_dense_csv(p)[:2] == (["a", "b"], ["a", "b"])


@pytest.mark.parametrize(
    "reader, text, where, message",
    [
        (parse_triplets, "# c\na\tu\t1\nb\tv\tx1\n", (3, 10), "bad weight 'x1'"),
        (parse_triplets, "a\tu\t1\nb\tv\tnan\n", (2, 6),
         "weight must be finite and >= 0, got nan"),
        (load_dense_csv, "item,u,v\na,1,2\nb,3,x\n", (3, 15), "bad value 'x'"),
        (load_dense_csv, "item,u,v\n#c,0,1\na,1, -1\n", (3, 16),
         "value must be finite and >= 0, got -1.0"),
        (load_pmf, "z0\t0.5\nz1\thalf\n", (2, 7), "bad probability 'half'"),
        (load_pmf, "# p\nz0\t0.5\nz1\t-inf\n", (3, 11),
         "probability must be finite and >= 0, got -inf"),
    ],
    ids=["triplet-bad", "triplet-nan", "csv-bad", "csv-negative", "pmf-bad", "pmf-inf"],
)
def test_number_errors_name_their_line(tmp_path, reader, text, where, message):
    # All three readers check a number alike; each error gives the line and
    # the byte offset of its start.
    path = tmp_path / ("in.csv" if reader is load_dense_csv else "in.tsv")
    path.write_text(text)
    with pytest.raises(ParseError) as err:
        reader(path)
    assert (err.value.line, err.value.offset) == where
    assert str(err.value) == f"line {where[0]}, byte {where[1]}: {message}"


class TestIngest:
    def test_joint_mode(self):
        w = np.array([[2.0, 2.0], [1.0, 3.0]])
        dtm, pruned = ingest(["a", "b"], ["u", "v"], w)
        assert pruned == {"pruned_rows": [], "pruned_cols": []}
        want = build_dtm(["a", "b"], ["u", "v"], w / 8.0)
        assert dtm.matrix.tobytes() == want.matrix.tobytes()
        np.testing.assert_array_equal(w, [[2.0, 2.0], [1.0, 3.0]])

    def test_rows_mode_uniform_row_marginal(self):
        w = np.array([[2.0, 2.0], [1.0, 3.0]])
        dtm, _ = ingest(["a", "b"], ["u", "v"], w, normalize="rows")
        np.testing.assert_allclose(dtm.row_pmf.probs, [0.5, 0.5])
        want = build_dtm(["a", "b"], ["u", "v"], [[0.25, 0.25], [0.125, 0.375]])
        assert dtm.matrix.tobytes() == want.matrix.tobytes()
        np.testing.assert_array_equal(w, [[2.0, 2.0], [1.0, 3.0]])

    @pytest.mark.parametrize("normalize", ["joint", "rows"])
    def test_unpruned_layouts_give_the_same_bits(self, rng, normalize):
        # Nothing pruned, no gather: a Fortran-ordered or strided matrix
        # is normalized as its C-ordered copy is, and is left untouched.
        c = rng.random((7, 5)) + 0.1
        want, _ = ingest(list("abcdefg"), list("uvwxy"), c, normalize=normalize)
        for w in (np.asfortranarray(c), np.repeat(c, 2, axis=1)[:, ::2]):
            before = w.copy()
            dtm, pruned = ingest(list("abcdefg"), list("uvwxy"), w, normalize=normalize)
            assert pruned == {"pruned_rows": [], "pruned_cols": []}
            assert dtm.matrix.tobytes() == want.matrix.tobytes()
            assert np.array_equal(w, before)
            assert not np.shares_memory(dtm.matrix, w)

    def test_pruning_reported(self):
        w = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 1.0]])
        dtm, pruned = ingest(["a", "b", "c"], ["u", "v", "w"], w)
        assert pruned == {"pruned_rows": ["b"], "pruned_cols": ["v"]}
        assert dtm.row_pmf.labels == ("a", "c")
        assert dtm.col_pmf.labels == ("u", "w")

    def test_empty_after_pruning(self):
        with pytest.raises(DataError, match="no rows or columns carry weight"):
            ingest(["a"], ["u"], np.zeros((1, 1)))

    def test_validation(self):
        with pytest.raises(ConfigError, match="unknown normalize mode 'columns'"):
            ingest(["a"], ["u"], np.ones((1, 1)), normalize="columns")
        # Rows whose sum is NaN or 0 would otherwise be pruned silently.
        for bad in (np.nan, -1.0):
            with pytest.raises(DataError, match="weights must be finite and >= 0"):
                ingest(["a", "b"], ["u", "v"], np.array([[1.0, 1.0], [bad, 1.0]]))


class TestRoundTrip:
    def test_exact_identity(self, rng, tmp_path):
        rows, cols, w = random_joint(rng, 6, 5)
        p = tmp_path / "rt.tsv"
        write_triplets(p, rows, cols, w)
        dtm, _ = ingest(*parse_triplets(p))
        assert dtm.row_pmf.labels == rows
        assert dtm.col_pmf.labels == cols
        want = build_dtm(rows, cols, w)
        np.testing.assert_allclose(dtm.matrix, want.matrix, rtol=1e-14, atol=0)
        np.testing.assert_allclose(dtm.row_pmf.probs, want.row_pmf.probs, rtol=1e-14)

    def test_pmf_and_labels(self, tmp_path):
        pmf_path = tmp_path / "pz.tsv"
        pmf_path.write_text("z0\t0.25\nz1\t0.75\n")
        pz = load_pmf(pmf_path)
        assert pz.labels == ("z0", "z1")
        np.testing.assert_allclose(pz.probs, [0.25, 0.75])

        lab_path = tmp_path / "truth.tsv"
        lab_path.write_text("# truth\na\tB0\nb\tB1\n")
        assert load_labels(lab_path) == {"a": "B0", "b": "B1"}

    def test_duplicate_label_item(self, tmp_path):
        lab_path = tmp_path / "truth.tsv"
        lab_path.write_text("a\tB0\nb\tB1\na\tB1\n")
        with pytest.raises(ParseError, match="duplicate item 'a'") as err:
            load_labels(lab_path)
        assert (err.value.line, err.value.offset) == (3, 10)

    @pytest.mark.parametrize(
        "text, match, where",
        [
            ("z0\t0.5\n# c\nz0\t0.5\n", "duplicate label 'z0'", (3, 11)),
            ("z0\t0.5\nz1\tnan\n", "must be finite and >= 0, got nan", (2, 7)),
            ("z0\t1.5\nz1\t-0.5\n", r"must be finite and >= 0, got -0\.5", (2, 7)),
            ("z0\tinf\n", "must be finite and >= 0, got inf", (1, 0)),
        ],
        ids=["duplicate", "nan", "negative", "inf"],
    )
    def test_pmf_line_errors(self, tmp_path, text, match, where):
        # Each names its line, like load_labels and the triplet reader do;
        # the sum-to-1 check is Pmf's and has no line to name.
        pmf_path = tmp_path / "pz.tsv"
        pmf_path.write_text(text)
        with pytest.raises(ParseError, match=match) as err:
            load_pmf(pmf_path)
        assert (err.value.line, err.value.offset) == where

    def test_pmf_sum_checked_by_pmf(self, tmp_path):
        pmf_path = tmp_path / "pz.tsv"
        pmf_path.write_text("z0\t0.25\nz1\t0.25\n")
        with pytest.raises(DataError, match=r"^probs sum to 0\.5, not 1$"):
            load_pmf(pmf_path)


class TestRatings:
    def test_anchor_values(self):
        out = apply_rating_transform(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
        np.testing.assert_array_equal(out, [0.0, 2.0, 8.0, 26.0, 80.0])

    # 0 is not a rating but a blank; test_matrix_blanks_stay_zero keeps it.
    @pytest.mark.parametrize("bad", [0.5, 6, 2.5, -1])
    def test_out_of_scale(self, bad):
        with pytest.raises(DataError, match=r"nonblank ratings must be integers in 1\.\.5"):
            apply_rating_transform(np.array([3.0, bad]))

    def test_matrix_blanks_stay_zero(self):
        w = np.array([[0.0, 3.0], [5.0, 0.0]])
        out = apply_rating_transform(w)
        np.testing.assert_allclose(out, [[0.0, 8.0], [80.0, 0.0]])

    def test_matrix_bad_rating(self):
        with pytest.raises(DataError, match=r"nonblank ratings must be integers in 1\.\.5"):
            apply_rating_transform(np.array([[1.0, 7.0]]))


class TestCounterexample:
    def test_base_matrix_m2_n2_s3(self):
        mat = gen_counterexample(2, 2, 3.0)
        want = np.array(
            [
                [3, 3, 1, 1],
                [3, 3, 1, 1],
                [1, 1, 3, 3],
                [1, 1, 3, 3],
            ],
            dtype=float,
        )
        np.testing.assert_array_equal(mat, want)

    def test_variants(self):
        # The two splits as cluster ids, and what each derives: the one-hot
        # kernel of its row ids and Q, the cells of P inside its clusters.
        (r1, c1), (r2, c2) = _counterexample_splits(2, 3)
        assert r1.tolist() == [0, 0, 1, 1] and c1.tolist() == [0, 0, 0, 1, 1, 1]
        assert r2.tolist() == [0, 0, 0, 1] and c2.tolist() == [0, 0, 0, 0, 0, 1]
        _, [(k1, q1), (k2, q2)] = counterexample_splits(2, 2, 3.0)
        assert k1.item_labels == k2.item_labels == ("y0", "y1", "y2", "y3")
        np.testing.assert_array_equal(k1.kernel, [[1, 1, 0, 0], [0, 0, 1, 1]])
        np.testing.assert_array_equal(k2.kernel, [[1, 1, 1, 0], [0, 0, 0, 1]])
        np.testing.assert_array_equal(
            q1, [[3, 3, 0, 0], [3, 3, 0, 0], [0, 0, 3, 3], [0, 0, 3, 3]]
        )
        np.testing.assert_array_equal(
            q2, [[3, 3, 1, 0], [3, 3, 1, 0], [1, 1, 3, 0], [0, 0, 0, 3]]
        )

    def test_distance_formulas(self):
        for m, n, s in [(2, 2, 3.0), (4, 7, 2.5), (50, 50, 5.0)]:
            base, [(_, q1), (_, q2)] = counterexample_splits(m, n, s)
            d1 = float(np.sum((q1 - base) ** 2))
            d2 = float(np.sum((q2 - base) ** 2))
            assert d1 == pytest.approx(2 * m * n, rel=1e-12)
            assert d2 == pytest.approx(m + n + s * s * (m + n - 2), rel=1e-12)

    def test_closed_form_norm(self):
        for s in [1.0, 2.0, 3.5, 10.0]:
            for m, n in [(2, 3), (5, 5)]:
                base, [(kernel, _), _] = counterexample_splits(m, n, s)
                dtm = ingest(*_counterexample_labels(m, n), base)[0]
                got = kernel_norm_value(dtm, kernel, "frobenius")
                want = 2.0 * (s * s + 1.0) / (s + 1.0) ** 2
                assert got == pytest.approx(want, rel=1e-9)

    def test_one_item_norm_near_one(self):
        # the singleton split barely beats the trivial norm of 1
        base, [_, (kernel, _)] = counterexample_splits(50, 50, 5.0)
        dtm = ingest(*_counterexample_labels(50, 50), base)[0]
        val = kernel_norm_value(dtm, kernel, "frobenius")
        assert 1.0 < val < 1.01

    def test_invalid_params(self):
        with pytest.raises(ConfigError, match="m and n must be positive"):
            gen_counterexample(0, 2, 2.0)
        with pytest.raises(ConfigError, match="s must be finite and >= 1"):
            gen_counterexample(2, 2, 0.5)
        with pytest.raises(ConfigError, match="one_item_Q2 needs m, n >= 2"):
            _counterexample_splits(1, 2)
        with pytest.raises(ConfigError, match="one_item_Q2 needs m, n >= 2"):
            _counterexample_splits(2, 1)


class TestCommunityObjective:
    def test_worked_example(self):
        base, [(_, q1), (_, q2)] = counterexample_splits(50, 50, 5.0)
        assert community_objective(q1, base, 3000.0, 2) == pytest.approx(
            -1000.0, abs=1e-6
        )
        assert community_objective(q2, base, 3000.0, 2) == pytest.approx(
            -3450.0, abs=1e-6
        )

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match=r"Q \(2, 2\) vs P \(2, 3\)"):
            community_objective(np.ones((2, 2)), np.ones((2, 3)), 1.0, 1)

    @pytest.mark.parametrize(
        "q, k, error, message",
        [
            (np.eye(2), 0, ConfigError, "k must be >= 1"),
            (np.array([[1.0, -0.5], [0.0, 1.0]]), 1, DataError,
             "Q must be finite and >= 0"),
            (np.array([[1.0, np.inf], [0.0, 1.0]]), 1, DataError,
             "Q must be finite and >= 0"),
        ],
        ids=["k", "negative-q", "nonfinite-q"],
    )
    def test_bad_k_or_q(self, q, k, error, message):
        with pytest.raises(error, match=message):
            community_objective(q, np.full((2, 2), 0.25), 1.0, k)

    def test_prunes_before_dtm(self):
        # Q2 has an empty row/column pattern that must not break the DTM
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = np.full((2, 2), 0.25)
        val = community_objective(q, p, 0.0, 1)
        assert val == pytest.approx(float(np.sum((q - p) ** 2)), rel=1e-12)

    def test_k_above_the_pruned_size_sums_every_value(self):
        # Pruned to 1 x 1, Q's DTM has the one singular value 1, whatever k.
        q = np.array([[1.0, 0.0], [0.0, 0.0]])
        p = np.full((2, 2), 0.25)
        dist = float(np.sum((q - p) ** 2))
        for k in (1, 2, 5):
            assert community_objective(q, p, 3.0, k) == pytest.approx(
                dist - 3.0, rel=1e-12
            )


class TestPlantedBlocks:
    def test_structure_and_truth(self):
        (rows, cols, w), truth = gen_planted_blocks(2, [3, 4], 1.0, 0.1, noise_seed=0)
        assert w.shape == (7, 7) and len(rows) == len(cols) == 7
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert truth == ["b0"] * 3 + ["b1"] * 4
        # within mass dominates cross mass per entry on average
        within = w[:3, :3].mean()
        cross = w[:3, 3:].mean()
        assert within > cross * 3

    def test_scalar_sizes(self):
        (_, _, w), truth = gen_planted_blocks(3, 5, 1.0, 0.05)
        assert w.shape == (15, 15)
        assert len(set(truth)) == 3

    def test_deterministic_in_seed(self):
        j1, _ = gen_planted_blocks(2, 4, 1.0, 0.1, noise_seed=9)
        j2, _ = gen_planted_blocks(2, 4, 1.0, 0.1, noise_seed=9)
        assert np.array_equal(j1[2], j2[2])
        j3, _ = gen_planted_blocks(2, 4, 1.0, 0.1, noise_seed=10)
        assert not np.array_equal(j1[2], j3[2])

    def test_jitter_bounded(self):
        (_, _, w), _ = gen_planted_blocks(2, 10, 1.0, 0.2, noise_seed=3)
        assert np.all(w > 0)

    def test_validation(self):
        with pytest.raises(ConfigError, match="blocks must be >= 1"):
            gen_planted_blocks(0, 5, 1.0, 0.1)
        with pytest.raises(ConfigError, match="sizes must give a positive size per block"):
            gen_planted_blocks(2, [3], 1.0, 0.1)
        with pytest.raises(ConfigError, match="need within_weight > cross_weight >= 0"):
            gen_planted_blocks(2, 3, 0.5, 0.5)
        with pytest.raises(ConfigError, match="noise_seed must be >= 0, got -1"):
            gen_planted_blocks(2, 3, 1.0, 0.1, noise_seed=-1)

    def test_cell_limit(self):
        # Refused before anything of the requested size is allocated.
        side = math.isqrt(MAX_CELLS) + 1
        with pytest.raises(ConfigError, match="exceeds the generator limit of 25000000"):
            gen_planted_blocks(2, [side // 2, side - side // 2], 1.0, 0.1)
        with pytest.raises(ConfigError, match="exceeds the generator limit of 25000000"):
            gen_planted_blocks(10**12, 1, 1.0, 0.1)
        with pytest.raises(ConfigError, match="exceeds the generator limit of 25000000"):
            gen_counterexample(side, side // 4, 2.0)


class TestArtifacts:
    def test_kernel_json_schema(self, tmp_path):
        kernel = CouplingKernel(
            ("z0", "z1"), ("y0", "y1", "y2", "y3"),
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        )
        path = tmp_path / "kernel.json"
        write_kernel_json(path, kernel, [0.5, 0.5], 1.25, "nuclear", 7)
        text = path.read_text()
        data = json.loads(text)
        assert list(data.keys()) == [
            "clusters",
            "items",
            "kernel",
            "p_z",
            "objective",
            "algorithm",
            "iters",
        ]
        assert data["kernel"] == [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]]
        assert data["iters"] == 7
        assert text.endswith("\n")

    def test_trace_csv_layout(self, tmp_path):
        trace = SolveTrace()
        trace.record(1.5, 0.25, 1e-12)
        trace.record(1.75, 0.125, 0.0)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,objective,penalty,violation"
        assert lines[1].startswith("1,1.5,0.25,")
        assert lines[2].startswith("2,1.75,0.125,0")
        assert len(lines) == 3

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_is_a_config_error(self):
        # /dev/full opens, but every write to it fails with ENOSPC: an error
        # in the middle of a streamed file is reported by name, like a failed
        # open.
        with pytest.raises(ConfigError, match="cannot write /dev/full: No space left"):
            write_triplets("/dev/full", ["a"], ["u"], np.ones((1, 1)))
