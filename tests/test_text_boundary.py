"""Raw text through the parsers and the command line.

The strategy below writes tuple files and cross tables from the pieces their
grammars name or must refuse: tab and comma separators, '#' comment and '!'
header lines, headers with and without a dimension name, a leading
byte-order mark, '\\r' and '\\r\\n' line ends, U+2028 (which ends no line),
empty fields and unicode labels, legal and not.  No such text may crash the
program: ``parse_context`` returns a context whose tuple file parses back
equal, or raises ``ParseError`` or ``InputError``, and ``cli.main`` exits 0,
or 2 with an ``error:`` line, or 1 from ``verify`` with a ``FAIL`` line.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st

from polyconcept import InputError, ParseError, cli, parse_context, serialize_tuples

from test_properties import ALPHABET, LABELS, PROPERTY

# Strings that may hold a space, a form feed, U+2028, a separator or a
# cross-table mark, or be empty; most of them are not legal labels.
NOISE = st.text(ALPHABET + " \x0c\u2028x×,\t", max_size=3)
SEPARATORS = st.sampled_from(["\t", ",", ", ", " \t"])
FILLER = st.sampled_from(["", "  ", "\u2028", "#", "# a, b\tc", "#!: x"])


def _noisy(draw, fields):
    """The fields, one of them replaced by noise one time in five."""
    if draw(st.integers(0, 4)) == 0:
        fields[draw(st.integers(0, len(fields) - 1))] = draw(NOISE)
    return fields


@st.composite
def tuple_files(draw):
    """Lines of a tuple file, headers optional, fields from a small pool of
    legal labels per dimension."""
    arity = draw(st.integers(1, 3))
    pools = [draw(st.lists(LABELS, min_size=1, max_size=3, unique=True)) for _ in range(arity)]
    lines = []
    if draw(st.booleans()):
        for k, pool in enumerate(pools):
            name = draw(st.sampled_from([f"d{k + 1}:", "dim:", ":", ""]))
            lines.append(f"! {name} " + " ".join(pool))
    sep = draw(SEPARATORS)
    for _ in range(draw(st.integers(0 if lines else 1, 4))):
        n = draw(st.sampled_from([arity, arity, arity, arity + 1, max(arity - 1, 1)]))
        fields = [draw(st.sampled_from(pools[k % arity])) for k in range(n)]
        lines.append(sep.join(_noisy(draw, fields)))
    return lines


@st.composite
def cross_tables(draw):
    """Lines of a cross table, its corner cell empty three times in four."""
    sep = draw(SEPARATORS)
    corner = draw(NOISE) if draw(st.integers(0, 3)) == 0 else ""
    attrs = draw(st.lists(LABELS, min_size=1, max_size=3))
    lines = [sep.join([corner, *_noisy(draw, attrs)])]
    for _ in range(draw(st.integers(0, 3))):
        width = draw(st.sampled_from([len(attrs), len(attrs), len(attrs) + 1]))
        cells = draw(st.lists(st.sampled_from(["x", "×", "", " x ", "o"]),
                              min_size=width, max_size=width))
        lines.append(sep.join(_noisy(draw, [draw(LABELS)]) + cells))
    return lines


@st.composite
def texts(draw):
    """A tuple file or a cross table, with blank and comment lines put in,
    mixed line ends and now and then a byte-order mark."""
    lines = draw(st.one_of(tuple_files(), cross_tables()))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(FILLER))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return ("\ufeff" if draw(st.booleans()) else "") + text


@PROPERTY
@given(texts())
def test_parse_context_round_trips_or_refuses(text):
    try:
        ctx = parse_context(text)
    except (ParseError, InputError):
        return
    assert parse_context(serialize_tuples(ctx)) == ctx


COMMANDS = [["concepts"], ["introducers"], ["order", "--dim", "1"], ["gsh"], ["stats"], ["verify"]]


@PROPERTY
@given(texts())
def test_cli_exits_0_or_2_and_1_only_from_a_failed_verify(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.txt"
        path.write_bytes(text.encode())
        for name, *options in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main([name, str(path), *options])
            if status == 1:
                assert name == "verify" and "FAIL" in out.getvalue(), text
            else:
                assert status in (0, 2), (name, text)
            if status == 2:
                assert err.getvalue().startswith("error: "), (name, text)
