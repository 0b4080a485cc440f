"""Quasi-orders over concept sets, structural axiom checks, and diagrams.

Concepts are compared per dimension by inclusion of the matching component.
``check_n_ordered`` verifies the two axioms that make a family of quasi-orders
an n-ordered set: no two distinct members agree in every dimension
(uniqueness), and whenever one member is below another in all dimensions but
one, the other is below it in the remaining dimension (antiordinal
dependency).  Since a single dimension induces only a quasi-order, diagrams
group members into equivalence classes (equal component) and draw the
covering relation of the classes after transitive reduction.

Both are built from one kernel, ``_inclusion``: for each of a list of
components, the bitsets of the positions whose component contains it and of
those whose component it contains.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .concepts import _elements
from .context import ArityError, ComponentTuple, InputError, NContext
from .introducers import IntroducerRecord, introducers


def _tuple_of(member) -> ComponentTuple:
    if isinstance(member, IntroducerRecord):
        return member.concept
    if isinstance(member, ComponentTuple):
        return member
    raise InputError(
        f"expected ComponentTuple or IntroducerRecord, got {type(member).__name__}"
    )


def _inclusion(comps: Sequence[Sequence]) -> tuple[list[int], list[int]]:
    """Inclusion between components, as two bitsets over positions per position.

    ``up[p]`` holds the positions whose component contains ``comps[p]``: the
    AND, over p's labels, of the positions holding each label.  ``down[p]``
    holds the positions whose component is contained in ``comps[p]``: everyone
    but the OR over the labels p lacks.  Both include p itself.
    """
    everyone = (1 << len(comps)) - 1
    has: dict = {}  # label -> positions whose component holds it
    for p, comp in enumerate(comps):
        for label in comp:
            has[label] = has.get(label, 0) | 1 << p
    up, down = [], []
    for comp in comps:
        held = set(comp)
        above, lacks = everyone, 0
        for label, bits in has.items():
            if label in held:
                above &= bits
            else:
                lacks |= bits
        up.append(above)
        down.append(everyone & ~lacks)
    return up, down


def leq(a, b, dim: int) -> bool:
    """Is a below b in dimension ``dim`` (1-based)?  Subset of components."""
    ta, tb = _tuple_of(a), _tuple_of(b)
    if ta.arity != tb.arity:
        raise InputError("cannot compare tuples of different arity")
    if not 1 <= dim <= ta.arity:
        raise InputError(f"dimension index {dim} out of range 1..{ta.arity}")
    up, _ = _inclusion([ta.components[dim - 1], tb.components[dim - 1]])
    return bool(up[0] & 2)  # bit 1: b's component contains a's


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

    Per dimension, ``_inclusion`` gives the members above and below each
    member; the axioms are then unions and intersections of those bitsets.
    """
    tuples = [_tuple_of(m) for m in members]
    n = tuples[0].arity if tuples else 0
    if any(t.arity != n for t in tuples):
        raise InputError("members have mixed arity")
    everyone = (1 << len(tuples)) - 1
    rel = [_inclusion([t.components[i] for t in tuples]) for i in range(n)]
    sizes = tuple(sum(u.bit_count() for u in up) - len(tuples) for up, _ in rel)

    uniq: set[tuple[ComponentTuple, ComponentTuple]] = set()
    anti: set[tuple[ComponentTuple, ComponentTuple]] = set()
    for p, t in enumerate(tuples):
        ups = [up[p] for up, _ in rel]  # per dimension: members above p
        downs = [down[p] for _, down in rel]  # per dimension: members below p
        same = everyone >> (p + 1) << (p + 1)  # only pairs with q > p
        bad = 0
        for j in range(n):
            same &= ups[j] & downs[j]
            below_rest = everyone
            for i in range(n):
                if i != j:
                    below_rest &= ups[i]
            bad |= below_rest & ~downs[j]
        uniq.update((t, tuples[q]) for q in _elements(same))
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
    ordered by their component's key.  Edges are the covering pairs: the
    classes above a class, minus every class above one of those.
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
    up, _ = _inclusion(comps)
    ups = [u & ~(1 << a) for a, u in enumerate(up)]  # classes strictly above a
    edges = []
    for a, above in enumerate(ups):
        beyond = 0
        for c in _elements(above):
            beyond |= ups[c]
        edges.extend((a, b) for b in _elements(above & ~beyond))
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
