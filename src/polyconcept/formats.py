"""Text formats and the reproducible random context generator.

Tuple files
    Optional comment lines start with '#'.  Optional header lines, one per
    dimension in order, pin the dimension name and element order::

        ! objects: 1 2 3
        ! attributes: a b c

    Every other non-blank line is one relation tuple, fields separated by a
    tab or a comma (detected from the first body line and fixed for the
    file); a file with no separator in its body lines is 1-dimensional.
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
from .context import ComponentTuple, Dimension, InputError, NContext, check_label
from .introducers import IntroducerRecord
from .order import DimensionDiagram


class ParseError(ValueError):
    """Malformed input text; carries the offending 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# -- parsing -----------------------------------------------------------------


def _numbered_lines(text: str) -> Iterator[tuple[int, str]]:
    """Content lines with their 1-based numbers, after one leading byte-order
    mark; blank lines and '#' comment lines are skipped."""
    lines = text.removeprefix("\ufeff").splitlines()
    for line_no, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if stripped and not stripped.startswith("#"):
            yield line_no, raw


def _checked(label: str, line_no: int) -> str:
    """``check_label``, reporting a bad label at the line it appears on."""
    try:
        return check_label(label)
    except InputError as exc:
        raise ParseError(str(exc), line_no) from None


def _split_line(raw: str, sep: str | None, line_no: int) -> list[str]:
    fields = [f.strip() for f in (raw.split(sep) if sep else [raw.strip()])]
    if not all(fields):
        raise ParseError("empty field", line_no)
    return fields


def parse_tuples(text: str) -> NContext:
    """Parse a tuple file into a context."""
    headers: list[tuple[str, tuple[str, ...], int]] = []
    body: list[tuple[int, str]] = []
    seen_body = False
    for line_no, raw in _numbered_lines(text):
        stripped = raw.strip()
        if stripped.startswith("!"):
            if seen_body:
                raise ParseError("header line after body lines", line_no)
            head, colon, tail = stripped[1:].partition(":")
            if not colon:
                raise ParseError("header must look like '! name: e1 e2 ...'", line_no)
            headers.append((head.strip(), tuple(tail.split()), line_no))
            continue
        seen_body = True
        body.append((line_no, raw))

    dims: list[Dimension] | None = None
    if headers:
        dims = []
        for k, (name, elements, ln) in enumerate(headers):
            try:
                dims.append(Dimension(k + 1, name, elements))
            except InputError as exc:
                raise ParseError(str(exc), ln) from None
    elif not body:
        raise ParseError("empty input: no header and no tuples", 1)

    sep: str | None = None
    if body:
        first = body[0][1]
        sep = "\t" if "\t" in first else ("," if "," in first else None)

    arity = len(dims) if dims else None
    rows: list[tuple[int, list[str]]] = []
    for line_no, raw in body:
        fields = _split_line(raw, sep, line_no)
        if arity is None:
            arity = len(fields)
        elif len(fields) != arity:
            raise ParseError(
                f"expected {arity} fields, got {len(fields)}", line_no
            )
        rows.append((line_no, fields))

    if dims is None:
        order: list[dict[str, None]] = [dict() for _ in range(arity)]
        for line_no, fields in rows:
            for seen, lb in zip(order, fields):
                if lb not in seen:
                    seen[_checked(lb, line_no)] = None
        dims = [
            Dimension(k + 1, f"dim{k + 1}", tuple(seen))
            for k, seen in enumerate(order)
        ]

    lookup = [d._pos for d in dims]
    relation = []
    for line_no, fields in rows:
        try:
            relation.append(tuple(map(getitem, lookup, fields)))
        except KeyError:
            d, lb = next((d, lb) for d, lb in zip(dims, fields) if lb not in d)
            raise ParseError(
                f"element {lb!r} is not declared in dimension {d.name!r}", line_no
            ) from None
    try:
        return NContext._of_indices(dims, relation)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def parse_cross_table(text: str) -> NContext:
    """Parse a 2-dimensional cross table into a context."""
    lines = list(_numbered_lines(text))
    if not lines:
        raise ParseError("empty cross table", 1)
    head_no, head = lines[0]
    sep = "\t" if "\t" in head else ("," if "," in head else None)
    if sep is None:
        raise ParseError("a cross table needs tab- or comma-separated columns", head_no)
    header = [f.strip() for f in head.split(sep)]
    attrs = header[1:]
    if any(not a for a in attrs):
        raise ParseError("empty attribute label", head_no)
    objects: dict[str, None] = {}
    relation: list[tuple[int, int]] = []
    for line_no, raw in lines[1:]:
        fields = [f.strip() for f in raw.split(sep)]
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
    try:
        attributes = Dimension(2, "attributes", tuple(attrs))
    except InputError as exc:
        raise ParseError(str(exc), head_no) from None
    return NContext._of_indices([Dimension(1, "objects", tuple(objects)), attributes], relation)


def parse_context(text: str) -> NContext:
    """Parse either format: cross table when the first content line starts
    with a separator (empty corner cell), tuple file otherwise."""
    for _, raw in _numbered_lines(text):
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


def _component_str(dim: Dimension, labels: Sequence[str]) -> str:
    return dim._sep.join(labels) if labels else "∅"


def format_concept(ctx: NContext, t: ComponentTuple) -> str:
    """One-line rendering, components in dimension order: ``(αβ, 13, a)``."""
    return (
        "("
        + ", ".join(
            _component_str(d, comp) for d, comp in zip(ctx.dims, t.components)
        )
        + ")"
    )


def _format_introduces(ctx: NContext, record: IntroducerRecord) -> str:
    parts = [
        f"{ctx.dims[d - 1].name}: {' '.join(labels)}"
        for d, labels in record.introduces
    ]
    return "introduces " + "; ".join(parts)


def format_record(ctx: NContext, record: IntroducerRecord) -> str:
    """One-line rendering of an introducer record with its annotations."""
    return f"{format_concept(ctx, record.concept)} {_format_introduces(ctx, record)}"


def serialize_concepts(ctx: NContext, items, fmt: str = "text") -> str:
    """Render concepts or introducer records, one per line, canonical order.

    ``fmt`` is ``text`` or ``structured`` (JSON lines).  Output is
    byte-deterministic for a fixed input; an empty collection yields "".
    """
    if fmt not in ("text", "structured"):
        raise InputError(f"unknown format {fmt!r}")
    if isinstance(items, ConceptSet):
        members = list(items)
    else:
        members = sorted(
            items,
            key=lambda m: ctx.sort_key(
                m.concept if isinstance(m, IntroducerRecord) else m
            ),
        )
    lines = []
    for m in members:
        record = m if isinstance(m, IntroducerRecord) else None
        t = record.concept if record else m
        if fmt == "text":
            line = format_concept(ctx, t)
            if record:
                line += "\t" + _format_introduces(ctx, record)
        elif fmt == "structured":
            doc: dict = {"components": [list(c) for c in t.components]}
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
        label_lines = []
        for m in node.members:
            if isinstance(m, IntroducerRecord):
                label_lines.append(format_record(ctx, m))
            else:
                label_lines.append(format_concept(ctx, m))
        label = _dot_escape("\n".join(label_lines)).replace("\n", "\\n")
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
