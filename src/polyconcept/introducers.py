"""Introducer concepts: per-dimension computation, aggregation, and oracle.

For an element x of dimension i, the introducers of x are the concepts that
contain x in component i and whose remaining components (the width) are
maximal under componentwise inclusion among such concepts.  They are computed
here the productive way: enumerate the concepts of the slice at x, and extend
each one back through dimension i.  The slice is searched in place, by
pinning x in the parent's search, so no slice context is built.  The
definition is kept alive as ``introducer_oracle`` to compare the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .concepts import DEFAULT_ORACLE_CAP, brute_force_concepts, closed_boxes
from .context import ArityError, ComponentTuple, InputError, NContext


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@dataclass(frozen=True)
class IntroducerRecord:
    """A concept annotated with the elements it introduces, per dimension.

    ``introduces`` maps 1-based dimension indices to non-empty label tuples,
    stored as a sorted tuple of pairs so records hash and compare by value.
    Every introduced element is a member of the matching component.
    """

    concept: ComponentTuple
    introduces: tuple[tuple[int, tuple[str, ...]], ...]

    @classmethod
    def make(
        cls, ctx: NContext, concept: ComponentTuple, introduces: Mapping[int, Iterable[str]]
    ) -> "IntroducerRecord":
        pairs = []
        for dim in sorted(introduces):
            d = ctx.dim(dim)
            labels = d.canonical(introduces[dim])
            if not labels:
                continue
            comp = set(concept.components[d.index - 1])
            for lb in labels:
                if lb not in comp:
                    raise InputError(
                        f"{lb!r} is marked as introduced but is not in "
                        f"component {d.index} of {concept}"
                    )
            pairs.append((d.index, labels))
        if not pairs:
            raise InputError(f"record for {concept} introduces nothing")
        return cls(concept, tuple(pairs))

    def introduced(self, dim: int) -> tuple[str, ...]:
        """Elements of 1-based dimension ``dim`` this concept introduces."""
        for d, labels in self.introduces:
            if d == dim:
                return labels
        return ()

    def __str__(self) -> str:
        parts = "; ".join(f"{d}: {' '.join(ls)}" for d, ls in self.introduces)
        return f"{self.concept} introduces {parts}"


def extend_height(ctx: NContext, dim, width) -> tuple[str, ...]:
    """Grow a width over all dimensions but ``dim`` into its full component.

    ``width`` is a ComponentTuple of arity n-1 (or a plain sequence of label
    collections), covering the other dimensions in original order.  Returns
    every element of ``dim`` whose layer contains the whole width box; when
    some width component is empty that is all of the dimension.
    """
    i0 = ctx._dim0(dim)
    if isinstance(width, ComponentTuple):
        comps = width.components
    else:
        comps = tuple(width)
    others = [d for j, d in enumerate(ctx.dims) if j != i0]
    if len(comps) != len(others):
        raise InputError(
            f"width has {len(comps)} components, expected {len(others)}"
        )
    ext = ctx._extend_pos(i0, [d._positions(c) for d, c in zip(others, comps)])
    return tuple(ctx.dims[i0].elements[p] for p in ext)


def _gather(
    ctx: NContext, dim_positions: Sequence[int]
) -> tuple[IntroducerRecord, ...]:
    """Slice-and-extend over the given 0-based dimensions; merge annotations."""
    n = ctx.arity
    bucket: dict[tuple[tuple[int, ...], ...], dict[int, list[int]]] = {}
    for i0 in dim_positions:
        dim = ctx.dims[i0]
        for x in range(len(dim)):
            pin = [0] * n
            pin[i0] = 1 << x
            for pos in closed_boxes(ctx, pin):
                ext = ctx._extend_pos(i0, pos[:i0] + pos[i0 + 1 :])
                concept = pos[:i0] + (ext,) + pos[i0 + 1 :]
                if x not in ext:
                    raise ConsistencyError(
                        f"extension of {ctx._labelled(pos)} lost {dim.elements[x]!r}"
                    )
                if not ctx._is_concept_pos(concept):
                    raise ConsistencyError(
                        f"extension {ctx._labelled(concept)} of slice concept "
                        f"{ctx._labelled(pos)} is not a concept"
                    )
                bucket.setdefault(concept, {}).setdefault(i0 + 1, []).append(x)
    # Elements arrive in ascending order, each at most once per concept: the
    # slice concepts at x have pairwise different widths.
    return tuple(
        IntroducerRecord(
            ctx._labelled(concept),
            tuple(
                (d, tuple(ctx.dims[d - 1].elements[x] for x in xs))
                for d, xs in sorted(intro.items())
            ),
        )
        for concept, intro in sorted(bucket.items())
    )


def introducer_dim(ctx: NContext, dim) -> tuple[IntroducerRecord, ...]:
    """All introducer concepts of elements of one dimension.

    For each element x of ``dim``: enumerate the concepts of the slice at x
    and extend each through ``dim``.  Records arising from several x are
    merged, so each record's annotation for ``dim`` lists every element whose
    slice produced it.  Every extension is checked to contain x and to be a
    concept.
    """
    if ctx.arity < 2:
        raise ArityError("introducer computation needs at least 2 dimensions")
    return _gather(ctx, [ctx._dim0(dim)])


def introducers(ctx: NContext) -> tuple[IntroducerRecord, ...]:
    """All introducer concepts of the context, with merged annotations.

    Union of the per-dimension runs; a concept that introduces elements in
    several dimensions becomes a single record carrying all annotations.
    """
    if ctx.arity < 2:
        raise ArityError("introducer computation needs at least 2 dimensions")
    return _gather(ctx, range(ctx.arity))


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
    from the exhaustively enumerated concept set.
    """
    base = brute_force_concepts(ctx, cap=cap)
    bucket: dict[ComponentTuple, dict[int, set[str]]] = {}
    for i0, dim in enumerate(ctx.dims):
        with_widths = [
            (
                c,
                tuple(
                    frozenset(comp)
                    for j, comp in enumerate(c.components)
                    if j != i0
                ),
            )
            for c in base
        ]
        for x in dim.elements:
            cands = [
                (c, w) for c, w in with_widths if x in c.components[i0]
            ]
            for c, w in cands:
                dominated = any(
                    w != w2 and all(a <= b for a, b in zip(w, w2))
                    for _, w2 in cands
                )
                if not dominated:
                    bucket.setdefault(c, {}).setdefault(i0 + 1, set()).add(x)
    records = [
        IntroducerRecord.make(ctx, concept, intro)
        for concept, intro in bucket.items()
    ]
    records.sort(key=lambda r: ctx.sort_key(r.concept))
    return tuple(records)
