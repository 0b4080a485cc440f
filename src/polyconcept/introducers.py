"""Introducer concepts: per-dimension computation, aggregation, and oracle.

For an element x of dimension i, the introducers of x are the concepts that
contain x in component i and whose remaining components (the width) are
maximal under componentwise inclusion among such concepts.  They are computed
here the productive way: enumerate the concepts of the slice at x, and extend
each one back through dimension i.  The slice is x's row of the context's
bit layers, a relation over the other dimensions, so the enumerator runs on
it directly and no slice context is built; its concepts are extended, merged
and checked as component masks.  The definition is kept alive as
``introducer_oracle`` to compare the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable

from .concepts import (DEFAULT_ORACLE_CAP, ConceptSet, ConsistencyError,
                       brute_force_concepts, closed_tuples)
from .context import (ArityError, ComponentTuple, InputError, NContext, _elements, _inclusion,
                      component_text)


@dataclass(frozen=True)
class IntroducerRecord:
    """A concept annotated with the elements it introduces, per dimension.

    ``introduces`` maps 1-based dimension indices to non-empty label tuples,
    stored as a sorted tuple of pairs so records hash and compare by value.
    Every introduced element is a member of the matching component.
    """

    concept: ComponentTuple
    introduces: tuple[tuple[int, tuple[str, ...]], ...]
    _cache = None  # not a field: (names, seps, concept text, annotation text) of the last _text

    def introduced(self, dim: int) -> tuple[str, ...]:
        """Elements of 1-based dimension ``dim`` this concept introduces."""
        return next((labels for d, labels in self.introduces if d == dim), ())

    def _text(self, names, seps, sep: str = " ") -> str:
        """The concept's ``component_text``, ``sep``, then ``introduces d: x y; ...``
        with dimension d named ``names[d]``.  Both texts are kept for the last
        ``names`` and ``seps`` objects, so a context renders a record once."""
        c = self._cache
        if c is None or c[0] is not names or c[1] is not seps:
            notes = "; ".join([f"{names[d]}: {' '.join(xs)}" for d, xs in self._checked(names)])
            c = (names, seps, component_text(self.concept.components, seps), "introduces " + notes)
            object.__setattr__(self, "_cache", c)
        return c[2] + sep + c[3]

    def _checked(self, names) -> tuple[tuple[int, tuple[str, ...]], ...]:
        """``introduces``, once ``names`` is found to name each of its
        dimensions; else ``InputError``.  Text and structured output read
        the annotations through it."""
        for d, _ in self.introduces:
            if d not in names:
                raise InputError(f"dimension {d} is not in 1..{len(names)}")
        return self.introduces

    def __str__(self) -> str:
        return self._text({d: d for d, _ in self.introduces}, repeat(" "))

    def __reduce__(self):  # a copy carries no rendered text
        return IntroducerRecord, (self.concept, self.introduces)


def extend_height(ctx: NContext, dim, width) -> tuple[str, ...]:
    """Grow a width over all dimensions but ``dim`` into its full component.

    ``width`` is a ComponentTuple of arity n-1 (or a plain sequence of label
    collections), covering the other dimensions in original order.  Returns
    every element of ``dim`` whose layer contains the whole width box; when
    some width component is empty that is all of the dimension.
    """
    i0 = ctx._dim0(dim)
    return ctx._extend(i0, width.components if isinstance(width, ComponentTuple) else tuple(width))


def _gather(ctx: NContext, dims=None) -> tuple[IntroducerRecord, ...]:
    """Slice-and-extend over the selected dimensions, or over all; merge
    annotations.  Concepts are bucketed by component masks, each distinct
    one tested once, on arrival, and decoded once, at the end."""
    if ctx.arity < 2:
        raise ArityError("introducer computation needs at least 2 dimensions")
    bucket: dict[tuple[int, ...], dict[int, list[int]]] = {}
    for i0 in range(ctx.arity) if dims is None else map(ctx._dim0, dims):
        elements = ctx.dims[i0].elements
        for x in range(len(elements)):
            for width in closed_tuples(*ctx._search_input(i0, x)):
                ext = ctx._extend_mask(i0, width)
                concept = width[:i0] + (ext,) + width[i0:]
                intro = bucket.get(concept)
                # ext is the extension through i0 of the other components,
                # so only the other dimensions can fail to be maximal.
                if not ext >> x & 1 or intro is None and not ctx._is_concept_mask(concept, i0):
                    pos = ctx._text(width[:i0] + (1 << x,) + width[i0:])
                    if not ext >> x & 1:
                        raise ConsistencyError(f"extension of {pos} lost {elements[x]!r}")
                    raise ConsistencyError(
                        f"extension {ctx._text(concept)} of slice concept {pos} is not a concept")
                if intro is None:
                    intro = bucket[concept] = {}
                intro.setdefault(i0 + 1, []).append(x)
    # Dimensions arrive in ascending order, and elements too, each at most
    # once per concept: the slice concepts at x have pairwise different widths.
    return tuple([
        IntroducerRecord(
            ctx._labelled(key),
            tuple([(d, tuple(map(ctx._getters[d - 1], xs))) for d, xs in intro.items()]),
        )
        for key, intro in sorted([(tuple(map(_elements, m)), intro) for m, intro in bucket.items()])
    ])


def introducer_dim(ctx: NContext, dim) -> tuple[IntroducerRecord, ...]:
    """All introducer concepts of elements of one dimension.

    For each element x of ``dim``: enumerate the concepts of the slice at x
    and extend each through ``dim``.  Records arising from several x are
    merged, so each record's annotation for ``dim`` lists every element whose
    slice produced it.  Every extension is checked to contain x and to be a
    concept.  ``dim`` is a selector as ``NContext.dim`` takes it.
    """
    return _gather(ctx, [dim])


def introducers(ctx: NContext) -> tuple[IntroducerRecord, ...]:
    """All introducer concepts of the context, with merged annotations.

    Union of the per-dimension runs; a concept that introduces elements in
    several dimensions becomes a single record carrying all annotations.
    """
    return _gather(ctx)


def nontrivial_filter(
    records: Iterable[IntroducerRecord],
) -> tuple[IntroducerRecord, ...]:
    """Drop records whose concept has an empty component; keep annotations."""
    return tuple(r for r in records if not r.concept.has_empty_component())


def introducer_oracle(
    ctx: NContext, *, cap: int = DEFAULT_ORACLE_CAP
) -> tuple[IntroducerRecord, ...]:
    """Definition-based reference for ``introducers``, for verification only.

    For each element x of each dimension i, keeps the concepts containing x
    in component i whose width is componentwise-maximal among those, working
    from the exhaustively enumerated concept set, whose canonical order the
    records keep.
    """
    return _oracle_records(ctx, brute_force_concepts(ctx, cap=cap))


def _oracle_records(ctx: NContext, base: ConceptSet) -> tuple[IntroducerRecord, ...]:
    """``introducer_oracle`` given the context's exhaustive concept set, as
    ``brute_force_concepts`` or ``enumerate_concepts`` builds it.

    The definition on ``_inclusion``'s bitsets over the concepts of ``base``:
    per dimension j, ``holds[j][p]`` holds the concepts whose component j
    holds element p, and ``sup[j][c]`` those whose component j contains c.
    Concept q introduces x of dimension i0 iff q holds x there and no other
    concept holding x has a width (the components j != i0) containing q's:
    iff the AND of ``sup[j]`` of q's components j != i0, without q, misses
    ``holds[i0][x]``.  Another concept has another width, as component i0 is
    the extension of the width.  That AND is the one of the components
    before i0, kept as i0 rises, and of those after it, accumulated first.
    """
    keys = base._keys  # sorted index tuples of ctx
    sup, holds = zip(*[_inclusion(comps, len(d)) for comps, d in zip(zip(*keys), ctx.dims)])
    records = []
    for q, key in enumerate(keys):
        sups = [s[c] for s, c in zip(sup, key)]
        after = [-1]  # pops the AND of sups[i0 + 1:] for i0 = 0, 1, ...
        for s in sups[:0:-1]:
            after.append(after[-1] & s)
        before = ~(1 << q)  # the AND of sups[:i0], without q
        intro = []
        for i0, comp in enumerate(key):
            above = before & after.pop()
            before &= sups[i0]
            xs = [x for x in comp if not above & holds[i0][x]]
            if xs:
                intro.append((i0 + 1, tuple(map(ctx._getters[i0], xs))))
        if intro:
            records.append(IntroducerRecord(ctx._labelled(key), tuple(intro)))
    return tuple(records)
