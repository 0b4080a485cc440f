"""Quasi-orders over concept sets, structural axiom checks, and diagrams.

Concepts are compared per dimension by inclusion of the matching component.
``check_n_ordered`` verifies the two axioms that make a family of quasi-orders
an n-ordered set: no two distinct members agree in every dimension
(uniqueness), and whenever one member is below another in all dimensions but
one, the other is below it in the remaining dimension (antiordinal
dependency).  Since a single dimension induces only a quasi-order, diagrams
group members into equivalence classes (equal component) and draw the
covering relation of the classes after transitive reduction.

Both are built from ``context._inclusion``, the positions whose component
contains each component; the axiom check also needs the positions each one
contains, which ``_up_down`` derives from the same bitsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .context import ArityError, ComponentTuple, InputError, NContext, _elements, _inclusion
from .introducers import IntroducerRecord, introducers


def _tuple_of(member) -> ComponentTuple:
    if isinstance(member, IntroducerRecord):
        return member.concept
    if isinstance(member, ComponentTuple):
        return member
    raise InputError(f"expected ComponentTuple or IntroducerRecord, got {type(member).__name__}")


def _up_down(comps: Sequence[tuple[int, ...]], size: int) -> tuple[list[int], list[int], int]:
    """Per position p, the positions whose component contains ``comps[p]``,
    those it contains, and the number of comparable pairs; components are
    tuples of element indices below ``size``.  The second are found whichever
    way takes fewer bitset steps: transposing the first (one per set bit) or
    ORing the holders of each element a component lacks (one per missing
    element)."""
    above, has = _inclusion(comps, size)
    up = [above[c] for c in comps]
    pairs = sum(map(int.bit_count, up))
    if pairs <= len(above) * size - sum(map(len, above)):
        cols = [0] * len(up)
        for p, row in enumerate(up):
            bit = 1 << p
            while row:
                cols[(row & -row).bit_length() - 1] |= bit
                row &= row - 1  # drop the lowest bit
        return up, cols, pairs
    everyone = (1 << len(comps)) - 1
    elements = set(range(size))
    down = {}
    for comp in above:
        lacks = 0
        for x in elements.difference(comp):
            lacks |= has[x]
        down[comp] = everyone & ~lacks
    return up, [down[comp] for comp in comps], pairs


def _numbered(comps: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], int]:
    """Label components as index components, each label numbered as first
    seen, and the count of distinct labels."""
    seen: dict = {}
    return [tuple([seen.setdefault(lb, len(seen)) for lb in comp]) for comp in comps], len(seen)


@dataclass(frozen=True)
class OrderReport:
    """Outcome of the n-ordered-set axiom checks over one member list.

    ``per_dimension_relation_sizes`` counts, per dimension, the ordered pairs
    of distinct positions that are comparable there.
    """

    uniqueness_ok: bool
    uniqueness_violations: tuple[tuple[ComponentTuple, ComponentTuple], ...]
    antiordinal_ok: bool
    antiordinal_violations: tuple[tuple[ComponentTuple, ComponentTuple], ...]
    per_dimension_relation_sizes: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return self.uniqueness_ok and self.antiordinal_ok


def check_n_ordered(members: Sequence) -> OrderReport:
    """Run both axioms over a list of members.

    Members may be ComponentTuples or IntroducerRecords; duplicates by
    component content count as uniqueness violations, which is the point of
    accepting a list rather than an already deduplicated set.

    Per dimension, ``_up_down`` gives the members above and below each
    member; the axioms are then unions and intersections of those bitsets.
    Its index components are the keys the members carry when they all come
    from one context, else their labels numbered as first seen.
    """
    tuples = [_tuple_of(m) for m in members]
    n = tuples[0].arity if tuples else 0
    if any(t.arity != n for t in tuples):
        raise InputError("members have mixed arity")
    everyone = (1 << len(tuples)) - 1
    dims = tuples[0]._dims if tuples else None
    if dims is not None and all(t._dims is dims for t in tuples):
        columns = zip(zip(*[t._key for t in tuples]), map(len, dims))
    else:
        columns = [_numbered([t.components[i] for t in tuples]) for i in range(n)]
    rel = [_up_down(comps, size) for comps, size in columns]
    sizes = tuple(pairs - len(tuples) for _, _, pairs in rel)

    uniq: set[tuple[ComponentTuple, ComponentTuple]] = set()
    anti: set[tuple[ComponentTuple, ComponentTuple]] = set()
    # per member, across dimensions: the members above it and those below it
    ups = zip(*[up for up, _, _ in rel]) if n else [()] * len(tuples)
    downs = zip(*[down for _, down, _ in rel]) if n else [()] * len(tuples)
    for p, (t, up, down) in enumerate(zip(tuples, ups, downs)):
        same = everyone >> (p + 1) << (p + 1)  # only pairs with q > p
        bad = 0
        for j, below in enumerate(down):
            same &= up[j] & below
            below_rest = everyone
            for i, above in enumerate(up):
                if i != j:
                    below_rest &= above
            bad |= below_rest & ~below
        if same:
            uniq.update((t, tuples[q]) for q in _elements(same))
        if bad:
            anti.update((t, tuples[q]) for q in _elements(bad))

    def order_pairs(pairs):
        return tuple(sorted(pairs, key=lambda ab: (ab[0].components, ab[1].components)))

    return OrderReport(
        uniqueness_ok=not uniq,
        uniqueness_violations=order_pairs(uniq),
        antiordinal_ok=not anti,
        antiordinal_violations=order_pairs(anti),
        per_dimension_relation_sizes=sizes,
    )


@dataclass(frozen=True)
class DiagramNode:
    """One equivalence class: members sharing the same focus component."""

    component: tuple[str, ...]
    members: tuple  # ComponentTuples or IntroducerRecords, canonical order


@dataclass(frozen=True)
class DimensionDiagram:
    """Covering diagram of the classes of one dimension's quasi-order.

    ``edges`` are (lower, upper) node indices after transitive reduction, so
    the reachability of the edge set equals the full inclusion order on the
    class components.
    """

    dimension: int  # 1-based
    nodes: tuple[DiagramNode, ...]
    edges: tuple[tuple[int, int], ...]


def dimension_diagram(ctx: NContext, members: Sequence, dim) -> DimensionDiagram:
    """Group members by their component in ``dim``; order classes by inclusion.

    Members are keyed once with ``ctx.sort_key``, which rejects a wrong
    arity, an unknown label or a non-canonical component, and sorted once, so
    each class comes out in canonical order and holds one set; classes are
    ordered by their component's key.  Edges are the covering pairs: ranked by
    size, the lowest class above a that is above no cover of a yet covers a.
    """
    i0 = ctx._dim0(dim)
    keyed = [(ctx.sort_key(_tuple_of(m)), m) for m in members]
    keyed.sort(key=lambda km: km[0])
    groups: dict[tuple[int, ...], list] = {}
    for key, m in keyed:
        groups.setdefault(key[i0], []).append(m)
    comps = sorted(groups)
    nodes = tuple(
        DiagramNode(_tuple_of(groups[c][0]).components[i0], tuple(groups[c]))
        for c in comps
    )
    rank = sorted(range(len(comps)), key=lambda a: len(comps[a]))
    up = list(_inclusion([comps[a] for a in rank], len(ctx.dims[i0]))[0].values())  # in rank order
    edges = []
    for r, above in enumerate(up):
        above &= ~(1 << r)
        while above:
            c = (above & -above).bit_length() - 1
            edges.append((rank[r], rank[c]))
            above &= ~up[c]  # c and every class above it
    edges.sort()
    return DimensionDiagram(dimension=i0 + 1, nodes=nodes, edges=tuple(edges))


def gsh_2d(ctx: NContext) -> DimensionDiagram:
    """The introducer sub-order of a 2-dimensional context.

    Nodes are the introducer concepts (annotated with what they introduce),
    ordered by inclusion of the first component and transitively reduced.
    """
    if ctx.arity != 2:
        raise ArityError(
            f"this diagram is defined on 2-dimensional contexts, arity is {ctx.arity}"
        )
    return dimension_diagram(ctx, introducers(ctx), 1)
