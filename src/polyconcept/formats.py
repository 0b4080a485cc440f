"""Text formats and the reproducible random context generator.

Lines end at '\\n', '\\r\\n' or '\\r' only; other characters that some
readers treat as line breaks stay inside their line.  Both parsers read a
file in one pass, so a file with several faults is reported at its earliest
faulty line.

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

import itertools
import json
from operator import getitem
from typing import Iterator, Sequence

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


def _numbered_lines(text: str) -> Iterator[tuple[int, str, str]]:
    """Content lines as (1-based number, raw line, stripped line), after one
    leading byte-order mark; lines end at '\\n', '\\r\\n' or '\\r' only, and
    blank lines and '#' comment lines are skipped."""
    text = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield line_no, raw, line


def _checked(label: str, line_no: int) -> str:
    """``check_label``, reporting a bad label at the line it appears on."""
    try:
        return check_label(label)
    except InputError as exc:
        raise ParseError(str(exc), line_no) from None


def _separator(raw: str) -> str | None:
    """The field separator a file's first row fixes: tab, else comma."""
    return "\t" if "\t" in raw else ("," if "," in raw else None)


def _fields(raw: str, sep: str) -> list[str]:
    return list(map(str.strip, raw.split(sep)))


def parse_tuples(text: str) -> NContext:
    """Parse a tuple file into a context, one line at a time."""
    dims: list[Dimension] = []  # from the header lines
    lookup: list[dict[str, int]] = []  # label -> position, per dimension
    relation: list[tuple[int, ...]] = []
    sep = arity = None  # fixed by the first body line
    for line_no, raw, line in _numbered_lines(text):
        if line[0] == "!":
            if arity is not None:
                raise ParseError("header line after body lines", line_no)
            head, colon, tail = line[1:].partition(":")
            if not colon:
                raise ParseError("header must look like '! name: e1 e2 ...'", line_no)
            try:
                dims.append(Dimension(len(dims) + 1, head.strip(), tuple(tail.split())))
            except InputError as exc:
                raise ParseError(str(exc), line_no) from None
            continue
        if arity is None:
            sep = _separator(raw)
        fields = _fields(raw, sep) if sep else [line]
        if not all(fields):
            raise ParseError("empty field", line_no)
        if arity is None:
            arity = len(dims) if dims else len(fields)
            lookup = [d._pos for d in dims] if dims else [{} for _ in fields]
        if len(fields) != arity:
            raise ParseError(f"expected {arity} fields, got {len(fields)}", line_no)
        try:
            relation.append(tuple(map(getitem, lookup, fields)))
        except KeyError:
            if dims:
                d, lb = next((d, lb) for d, lb in zip(dims, fields) if lb not in d)
                raise ParseError(
                    f"element {lb!r} is not declared in dimension {d.name!r}", line_no
                ) from None
            for seen, lb in zip(lookup, fields):  # first appearances
                if lb not in seen:
                    seen[_checked(lb, line_no)] = len(seen)
            relation.append(tuple(map(getitem, lookup, fields)))

    if not dims:
        if arity is None:
            raise ParseError("empty input: no header and no tuples", 1)
        dims = [
            Dimension(k + 1, f"dim{k + 1}", tuple(seen))
            for k, seen in enumerate(lookup)
        ]
    try:
        return NContext._of_indices(dims, relation)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def parse_cross_table(text: str) -> NContext:
    """Parse a 2-dimensional cross table into a context."""
    lines = list(_numbered_lines(text))
    if not lines:
        raise ParseError("empty cross table", 1)
    head_no, head, _ = lines[0]
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
    relation: list[tuple[int, int]] = []
    for line_no, raw, _ in lines[1:]:
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
        objects[_checked(obj, line_no)] = None
        for y, cell in enumerate(fields[1:]):
            if cell in ("x", "×"):
                relation.append((len(objects) - 1, y))
            elif cell:
                raise ParseError(
                    f"cell must be 'x', '×', or empty, got {cell!r}", line_no
                )
    return NContext._of_indices([Dimension(1, "objects", tuple(objects)), attributes], relation)


def parse_context(text: str) -> NContext:
    """Parse either format: cross table when the first content line starts
    with a separator (empty corner cell), tuple file otherwise."""
    for _, raw, _ in _numbered_lines(text):
        if raw.startswith(("\t", ",")):
            return parse_cross_table(text)
        return parse_tuples(text)
    raise ParseError("empty input", 1)


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
        label = [d.elements.__getitem__ for d in dims]
        pairs = [([*map(tuple, map(map, label, key))], None) for key in items._keys]
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
                doc["introduces"] = {
                    str(d): list(labels) for d, labels in record.introduces
                }
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
    for cell in itertools.product(*(range(s) for s in sizes)):
        state = (state * _LCG_MUL + _LCG_INC) & _LCG_MASK
        if (state >> 40) < threshold:
            relation.append(cell)
    return NContext._of_indices(dims, relation)
