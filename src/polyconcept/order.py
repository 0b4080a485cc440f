"""Quasi-orders over concept sets, structural axiom checks, and diagrams.

Concepts are compared per dimension by inclusion of the matching component.
``check_n_ordered`` verifies the two axioms that make a family of quasi-orders
an n-ordered set: no two distinct members agree in every dimension
(uniqueness), and whenever one member is below another in all dimensions but
one, the other is below it in the remaining dimension (antiordinal
dependency).  Both run on bitsets over member positions, built per label.

Since a single dimension induces only a quasi-order, diagrams group members
into equivalence classes (equal component) and draw the covering relation of
the classes after transitive reduction, computed on bitsets of classes.
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


def leq(a, b, dim: int) -> bool:
    """Is a below b in dimension ``dim`` (1-based)?  Subset of components."""
    ta, tb = _tuple_of(a), _tuple_of(b)
    if ta.arity != tb.arity:
        raise InputError("cannot compare tuples of different arity")
    if not 1 <= dim <= ta.arity:
        raise InputError(f"dimension index {dim} out of range 1..{ta.arity}")
    return set(ta.components[dim - 1]) <= set(tb.components[dim - 1])


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

    Per dimension, ``has[label]`` is the bitset of members whose component
    holds the label.  The members above p are the AND of ``has`` over p's
    labels; those below p are everyone but the OR over the labels p lacks.
    """
    tuples = [_tuple_of(m) for m in members]
    if tuples:
        n = tuples[0].arity
        for t in tuples:
            if t.arity != n:
                raise InputError("members have mixed arity")
    else:
        n = 0
    everyone = (1 << len(tuples)) - 1
    has: list[dict[str, int]] = [{} for _ in range(n)]
    for p, t in enumerate(tuples):
        for i, comp in enumerate(t.components):
            for label in comp:
                has[i][label] = has[i].get(label, 0) | 1 << p

    uniq: set[tuple[ComponentTuple, ComponentTuple]] = set()
    anti: set[tuple[ComponentTuple, ComponentTuple]] = set()
    sizes = [0] * n
    for p, t in enumerate(tuples):
        ups, downs = [], []  # per dimension: members above p, members below p
        for i, comp in enumerate(t.components):
            held = set(comp)
            up, lacks = everyone, 0
            for label, bits in has[i].items():
                if label in held:
                    up &= bits
                else:
                    lacks |= bits
            ups.append(up)
            downs.append(everyone & ~lacks)
            sizes[i] += up.bit_count() - 1
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
        per_dimension_relation_sizes=tuple(sizes),
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

    Edges are the covering pairs of the class order: the classes above a
    class, minus every class above one of those.
    """
    i0 = ctx._dim0(dim)
    groups: dict[tuple[str, ...], list] = {}
    for m in members:
        t = _tuple_of(m)
        if t.arity != ctx.arity:
            raise InputError("member arity does not match the context")
        groups.setdefault(t.components[i0], []).append(m)

    def comp_key(component: tuple[str, ...]):
        return tuple(ctx.dims[i0].position(lb) for lb in component)

    keys = sorted(groups, key=comp_key)
    nodes = tuple(
        DiagramNode(
            component=key,
            members=tuple(
                sorted(groups[key], key=lambda m: ctx.sort_key(_tuple_of(m)))
            ),
        )
        for key in keys
    )
    masks = [sum(1 << p for p in set(comp_key(key))) for key in keys]
    # ups[a]: bitset of the classes strictly above class a
    ups = [
        sum(1 << b for b, mb in enumerate(masks) if ma != mb and ma & ~mb == 0)
        for ma in masks
    ]
    edges = []
    for a, up in enumerate(ups):
        beyond = 0
        for c in _elements(up):
            beyond |= ups[c]
        edges.extend((a, b) for b in _elements(up & ~beyond))
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
