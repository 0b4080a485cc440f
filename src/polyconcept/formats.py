"""Text formats and the reproducible random context generator.

Lines end at '\\n', '\\r\\n' or '\\r' only; other characters that some
readers treat as line breaks stay inside their line.  A tuple file's body
is read by columns: its fields are split all at once and sliced into one
label column per dimension, and each check runs on whole columns.  Only
when a check fails are the faults found, by walking the body lines in
order, so a file with several faults, in either format, is reported at its
earliest faulty line.

Tuple files
    Optional comment lines start with '#'.  Optional header lines, one per
    dimension in order, pin the dimension name and element order::

        ! objects: 1 2 3
        ! attributes: a b c

    Every other non-blank line is one relation tuple, fields separated by a
    tab or a comma (detected from the first body line and fixed for the
    file); a file whose first body line has no separator is 1-dimensional.
    Without a header, dimensions are named dim1..dimn and elements are
    ordered by first appearance.  Duplicate tuples collapse silently.

Cross tables (2-dimensional only)
    A rectangular tab- or comma-separated grid.  First row: an ignored corner
    cell, then the attribute labels; every other row: an object label, then
    cells that are 'x' or '×' for a cross and empty otherwise.  Keep the
    corner cell empty if the file should be auto-detected by
    ``parse_context``.

Concept listings
    ``text``: one concept per line, components in dimension order, elements
    in canonical order, e.g. ``(αβ, 13, a)``.  Elements are run together when
    every label of the dimension is a single character and space-separated
    otherwise; an empty component prints as ``∅``.  Introducer records append
    a tab and their annotations.  ``structured``: one JSON object per line
    with a ``components`` array of label arrays and, for introducer records,
    an ``introduces`` object keyed by 1-based dimension index.

Diagrams are exported as DOT digraphs drawn bottom-up (an edge points from
the smaller class to the covering one).

Random contexts come from a fixed 64-bit mixed congruential generator
(state <- state * 6364136223846793005 + 1442695040888963407 mod 2^64, seeded
directly with the seed, one step per cell, keeping the top 24 bits) so a
(sizes, density, seed) triple produces the same context on every platform.
Cells are visited in row-major order, last dimension fastest.
"""

from __future__ import annotations

import json
from itertools import compress, count, product, repeat
from typing import Sequence

from .concepts import ConceptSet
from .context import Dimension, InputError, NContext, check_label, component_text
from .introducers import IntroducerRecord
from .order import DimensionDiagram


class ParseError(ValueError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# -- parsing -----------------------------------------------------------------


def _content(text: str) -> tuple[list[int], list[str], list[str]]:
    """The content lines of a text as three columns: 1-based line numbers,
    raw lines and stripped lines.  One leading byte-order mark is dropped;
    lines end at '\\n', '\\r\\n' or '\\r' only; blank lines and '#'
    comment lines are skipped."""
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    stripped = list(map(str.strip, lines))
    keep = [s and s[0] != "#" for s in stripped]
    return (list(compress(count(1), keep)), list(compress(lines, keep)),
            list(compress(stripped, keep)))


def _complaint(label: str) -> str:
    """What ``check_label`` says against a label; "" for a good one."""
    try:
        check_label(label)
    except InputError as exc:
        return str(exc)
    return ""


def _separator(raw: str) -> str | None:
    """The field separator a file's first row fixes: tab, else comma."""
    return "\t" if "\t" in raw else ("," if "," in raw else None)


def _fields(raw: str, sep: str) -> list[str]:
    return list(map(str.strip, raw.split(sep)))


def parse_tuples(text: str) -> NContext:
    """Parse a tuple file into a context, one label column per dimension."""
    return _tuples(*_content(text))


def _tuples(nos: list[int], raws: list[str], lines: list[str]) -> NContext:
    """A tuple file's context from its content lines, as ``_content`` gives
    them: the header lines lead, then ``_body`` reads the rest."""
    dims: list[Dimension] = []  # from the header lines
    for line_no, line in zip(nos, lines):
        if line[0] != "!":
            break
        head, colon, tail = line[1:].partition(":")
        if not colon:
            raise ParseError("header must look like '! name: e1 e2 ...'", line_no)
        try:
            dims.append(Dimension(len(dims) + 1, head.strip(), tuple(tail.split())))
        except InputError as exc:
            raise ParseError(str(exc), line_no) from None
    if len(raws) > len(dims):
        body = slice(len(dims), None)
        dims, cols = _body(dims, nos[body], raws[body], lines[body])
    elif dims:
        cols = ()
    else:
        raise ParseError("empty input: no header and no tuples", 1)
    try:
        return NContext._of_indices(dims, cols)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def _body(dims, nos, raws, lines) -> tuple[list[Dimension], list[list[int]]]:
    """The dimensions and the index columns of the body lines.

    The first line fixes the separator and, without a header, the arity.
    All fields are split and stripped at once and sliced into one label
    column per dimension; each test then covers the whole body: the field
    counts, empty fields, and each column's labels, which without a header
    are numbered by first appearance.  ``_fault`` finds the line of a fault.
    """
    sep = _separator(raws[0])
    arity = len(dims) or (raws[0].count(sep) + 1 if sep else 1)
    fields = list(map(str.strip, sep.join(raws).split(sep))) if sep else lines
    ragged = set(map(str.count, raws, repeat(sep))) != {arity - 1} if sep else arity > 1
    if not ragged and "" not in fields:
        cols = [fields[k::arity] for k in range(arity)]
        try:
            if not dims:
                dims = [Dimension(k + 1, f"dim{k + 1}", tuple(dict.fromkeys(col)))
                        for k, col in enumerate(cols)]
            return dims, [list(map(d._pos.__getitem__, col)) for d, col in zip(dims, cols)]
        except (InputError, KeyError):
            pass
    raise _fault(dims, nos, raws, lines, sep, arity)


def _fault(dims, nos, raws, lines, sep, arity) -> ParseError:
    """The error of the earliest faulty body line.  Each line gets one rule:
    a late header, an empty field, the field count, then its labels in
    dimension order."""
    for line_no, raw, line in zip(nos, raws, lines):
        own = _fields(raw, sep) if sep else [line]
        if line[0] == "!":
            return ParseError("header line after body lines", line_no)
        if "" in own:
            return ParseError("empty field", line_no)
        if len(own) != arity:
            return ParseError(f"expected {arity} fields, got {len(own)}", line_no)
        for why in filter(None, map(_why, repeat(dims), count(), own)):
            return ParseError(why, line_no)


def _why(dims, k: int, label: str) -> str:
    """What is wrong with a label of dimension ``k``: undeclared under a
    header, else bad; "" for a good one."""
    if not dims:
        return _complaint(label)
    if label in dims[k]:
        return ""
    return f"element {label!r} is not declared in dimension {dims[k].name!r}"


def parse_cross_table(text: str) -> NContext:
    """Parse a 2-dimensional cross table into a context."""
    return _table(*_content(text))


def _table(nos: list[int], raws: list[str], _lines) -> NContext:
    """A cross table's context from its content lines."""
    if not raws:
        raise ParseError("empty cross table", 1)
    head_no, head = nos[0], raws[0]
    sep = _separator(head)
    if sep is None:
        raise ParseError("a cross table needs tab- or comma-separated columns", head_no)
    header = _fields(head, sep)
    attrs = header[1:]
    if any(not a for a in attrs):
        raise ParseError("empty attribute label", head_no)
    try:
        attributes = Dimension(2, "attributes", tuple(attrs))
    except InputError as exc:
        raise ParseError(str(exc), head_no) from None
    objects: dict[str, None] = {}
    cols: tuple[list[int], list[int]] = ([], [])
    for line_no, raw in zip(nos[1:], raws[1:]):
        fields = _fields(raw, sep)
        if len(fields) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(fields)}", line_no
            )
        obj = fields[0]
        if not obj:
            raise ParseError("empty object label", line_no)
        if obj in objects:
            raise ParseError(
                f"dimension 'objects' declares element {obj!r} twice", line_no
            )
        if why := _complaint(obj):
            raise ParseError(why, line_no)
        objects[obj] = None
        for y, cell in enumerate(fields[1:]):
            if cell in ("x", "×"):
                cols[0].append(len(objects) - 1)
                cols[1].append(y)
            elif cell:
                raise ParseError(
                    f"cell must be 'x', '×', or empty, got {cell!r}", line_no
                )
    return NContext._of_indices([Dimension(1, "objects", tuple(objects)), attributes], cols)


def parse_context(text: str) -> NContext:
    """Parse either format: cross table when the first content line starts
    with a separator (empty corner cell), tuple file otherwise."""
    nos, raws, lines = _content(text)
    if not raws:
        raise ParseError("empty input", 1)
    return (_table if raws[0].startswith(("\t", ",")) else _tuples)(nos, raws, lines)


# -- serialisation -----------------------------------------------------------


def serialize_tuples(ctx: NContext) -> str:
    """Tuple-file text for a context; parses back to an equal context."""
    out = [f"! {d.name}: {' '.join(d.elements)}" for d in ctx.dims]
    out.extend("\t".join(t) for t in ctx.tuples())
    return "\n".join(out) + "\n"


def format_record(ctx: NContext, member, sep: str = " ") -> str:
    """One-line rendering of a member: a concept's components in dimension
    order, ``(αβ, 13, a)``, or an introducer record's concept, ``sep`` and
    its annotations: ``(αβ, 13, a) introduces dim1: α; dim2: 1 3``."""
    if isinstance(member, IntroducerRecord):
        return member._text(ctx._names, ctx._seps, sep)
    return component_text(member.components, ctx._seps)


def serialize_concepts(ctx: NContext, items, fmt: str = "text") -> str:
    """Render concepts or introducer records, one per line, canonical order.

    ``fmt`` is ``text`` or ``structured`` (JSON lines).  Output is
    byte-deterministic for a fixed input; an empty collection yields "".
    """
    if fmt not in ("text", "structured"):
        raise InputError(f"unknown format {fmt!r}")
    dims, names, seps = ctx.dims, ctx._names, ctx._seps
    if isinstance(items, ConceptSet) and items._ctx.dims == dims:
        # labelled here from the sorted keys; no ComponentTuple is built
        pairs = [([*map(tuple, map(map, ctx._getters, key))], None) for key in items._keys]
    else:
        pairs = [(m.concept, m) if isinstance(m, IntroducerRecord) else (m, None) for m in items]
        pairs.sort(key=lambda pair: ctx.sort_key(pair[0]))
        pairs = [(t.components, record) for t, record in pairs]
    lines = []
    for components, record in pairs:
        if fmt == "text":
            line = record._text(names, seps, "\t") if record else component_text(components, seps)
        elif fmt == "structured":
            doc: dict = {"components": [list(c) for c in components]}
            if record:
                doc["introduces"] = {str(d): list(labels) for d, labels in record._checked(names)}
            line = json.dumps(doc, ensure_ascii=False, sort_keys=True)
        lines.append(line)
    return "\n".join(lines) + ("\n" if lines else "")


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(ctx: NContext, diagram: DimensionDiagram, name: str = "diagram") -> str:
    """DOT digraph for a dimension diagram, drawn upward.

    One node per class, labelled with its members (and their introduced
    elements when the members are introducer records); one edge per covering
    pair, pointing from the smaller class to the larger.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for k, node in enumerate(diagram.nodes):
        label = "\\n".join([_dot_escape(format_record(ctx, m)) for m in node.members])
        lines.append(f'  n{k} [label="{label}"];')
    for lo, hi in diagram.edges:
        lines.append(f"  n{lo} -> n{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- random contexts ---------------------------------------------------------

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def generate_random(
    dim_sizes: Sequence[int], density: float, seed: int
) -> NContext:
    """Seeded random context: each cell crossed with probability ``density``.

    Dimensions are named dim1..dimn with elements a1.., b1.., and so on.  The
    generator is the fixed congruential scheme documented in the module
    docstring, so identical arguments reproduce the context bit for bit.
    """
    sizes = [int(s) for s in dim_sizes]
    if not sizes:
        raise InputError("need at least one dimension size")
    if any(s < 1 for s in sizes):
        raise InputError(f"dimension sizes must be >= 1, got {sizes}")
    if not 0.0 <= density <= 1.0:
        raise InputError(f"density must be within [0, 1], got {density}")
    dims = [
        Dimension(
            i + 1, f"dim{i + 1}", tuple(f"{chr(ord('a') + i % 26)}{k + 1}" for k in range(s))
        )
        for i, s in enumerate(sizes)
    ]
    threshold = int(density * (1 << 24))
    state = int(seed) & _LCG_MASK
    relation = []
    for cell in product(*(range(s) for s in sizes)):
        state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        if (state >> 40) < threshold:
            relation.append(cell)
    return NContext._of_indices(dims, list(zip(*relation)))
