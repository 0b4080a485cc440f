"""Both oracles and the enumerator against a reference that shares no bit
kernel with them.

``brute_force_concepts``, ``enumerate_concepts`` and the introducer
computation all read the context's bit rows through one mask kernel,
``NContext._extend_mask`` and ``NContext._is_concept_mask``, so a fault there
could move an oracle together with the answer it checks.  The reference here
reads only ``ctx.tuples()``: concepts are the maximal full boxes of that set
of label cells, and introducers come from the pairwise definition over them,
written with frozensets.
"""

import hashlib
import itertools

from hypothesis import given

from polyconcept import (
    NContext,
    brute_force_concepts,
    check_n_ordered,
    dimension_diagram,
    enumerate_concepts,
    export_dot,
    extend_height,
    generate_random,
    introducer_oracle,
    introducers,
    serialize_concepts,
)

from test_properties import PROPERTY, contexts


def _subsets(elements):
    return itertools.chain.from_iterable(
        itertools.combinations(elements, r) for r in range(len(elements) + 1)
    )


def _concepts_by_definition(ctx):
    """The concepts of ctx as label components: the full boxes of its cells
    that no box one element larger contains.

    A box in a full box is full, so a full box is maximal iff no single
    element can join any of its components.  The last component is grown to
    its largest here, so only the others are tried.
    """
    cells = set(ctx.tuples())
    domains = [d.elements for d in ctx.dims]

    def full(comps):
        return all(map(cells.__contains__, itertools.product(*comps)))

    found = set()
    for head in itertools.product(*map(_subsets, domains[:-1])):
        box = head + (tuple(y for y in domains[-1] if full(head + ((y,),))),)
        grows = any(
            y not in comp and full(box[:i] + ((y,),) + box[i + 1 :])
            for i, comp in enumerate(box[:-1])
            for y in domains[i]
        )
        if not grows:
            found.add(box)
    return found


def _introducers_by_definition(ctx, concepts):
    """{concept: introduces} as ``IntroducerRecord`` holds it: for each x of
    each dimension i, the concepts holding x whose width (the components
    other than i) no other such concept's width contains."""
    bucket = {}
    for i0, dim in enumerate(ctx.dims):
        with_widths = [
            (c, tuple(frozenset(comp) for j, comp in enumerate(c) if j != i0))
            for c in concepts
        ]
        for x in dim.elements:
            cands = [(c, w) for c, w in with_widths if x in c[i0]]
            for c, w in cands:
                dominated = any(
                    w != w2 and all(a <= b for a, b in zip(w, w2))
                    for _, w2 in cands
                )
                if not dominated:
                    bucket.setdefault(c, {}).setdefault(i0 + 1, []).append(x)
    return {
        c: tuple((d, tuple(xs)) for d, xs in sorted(intro.items()))
        for c, intro in bucket.items()
    }


def _routes(ctx):
    """What the ``sweep_results`` fixture holds, for one context."""
    res = {"concepts": enumerate_concepts(ctx), "brute": brute_force_concepts(ctx)}
    if ctx.arity > 1:
        res.update(records=introducers(ctx), oracle_records=introducer_oracle(ctx))
    return res


def check_against_definition(ctx, res):
    """Both concept routes, and both introducer routes when arity > 1, equal
    the definition's results."""
    concepts = _concepts_by_definition(ctx)
    for got in (res["concepts"], res["brute"]):
        assert len(got) == len(concepts), ctx
        assert {t.components for t in got} == concepts, ctx
    if ctx.arity < 2:
        return
    expected = _introducers_by_definition(ctx, concepts)
    for got in (res["records"], res["oracle_records"]):
        assert len(got) == len(expected), ctx
        assert {r.concept.components: r.introduces for r in got} == expected, ctx
    # component i of a concept is the height of the others
    for c in concepts:
        for i, d in enumerate(ctx.dims):
            assert extend_height(ctx, d.index, c[:i] + c[i + 1 :]) == c[i], ctx


@PROPERTY
@given(contexts())
def test_routes_equal_the_definition(ctx):
    check_against_definition(ctx, _routes(ctx))


def test_routes_equal_the_definition_on_the_sweep(sweep_results):
    # seeds 0, 10, ..., 90 of every shape and density
    for res in sweep_results[::10]:
        check_against_definition(res["ctx"], res)


# Degenerate shapes beside the sweep (whose SWEEP_* stay as they are):
# 1-ary contexts, one-element dimensions, a zero-element dimension, empty
# and full relations, arity up to 6.
DEGENERATE_SHAPES = [
    (1,), (5,), (12,), (1, 1), (1, 4), (4, 1), (2, 12), (3, 1, 2), (1, 1, 1),
    (1, 2, 1, 3), (2, 2, 2, 2, 2), (1, 1, 1, 1, 1, 2), (2, 1, 2, 1, 2, 2),
    (2, 2, 2, 2, 2, 2), (3, 2, 1, 2, 2, 3),
    (0,), (0, 3), (2, 0, 2), (3, 2, 0),
]
DEGENERATE_FILLS = [(0.0, 0), (1.0, 0), (0.5, 1), (0.5, 2), (0.5, 3)]


# Arity 7 to 13, most dimensions of one element, pinned apart from the
# shapes above so that DEGENERATE_DIGEST stays as it is.
WIDE_DEGENERATE_SHAPES = [
    (2,) * 7, (2, 1) * 4, (2, 2, 2) + (1,) * 8 + (2,), (1,) * 10 + (2, 3, 2),
    (1,) * 11, (1,) * 6 + (0,) + (1,) * 5 + (2,),
]


def degenerate_contexts(shapes=DEGENERATE_SHAPES):
    """Every shape at every (density, seed) fill; a shape with a
    zero-element dimension has only the empty relation."""
    for shape in shapes:
        if 0 in shape:
            dims = [(f"dim{k + 1}", [f"{chr(97 + k)}{j + 1}" for j in range(s)])
                    for k, s in enumerate(shape)]
            yield NContext(dims)
        else:
            for density, seed in DEGENERATE_FILLS:
                yield generate_random(shape, density, seed)


def _degenerate_outputs(ctx):
    """Concepts, introducer records, and per member list the axiom report
    and every dimension's DOT, as text."""
    concepts = enumerate_concepts(ctx)
    lists = [tuple(concepts)]
    if ctx.arity > 1:
        lists.append(introducers(ctx))
    out = [repr(ctx.tuples())]
    for members in lists:
        out.append(repr(members))
        out.append(serialize_concepts(ctx, members))
        out.append(repr(check_n_ordered(members)))
        for d in ctx.dims:
            out.append(export_dot(ctx, dimension_diagram(ctx, members, d.index)))
    return out


# Every output over the degenerate set, and over the wide shapes apart.  A
# change that alters output on purpose updates these digests.
DEGENERATE_DIGEST = "64941ad8fdf28a78d8b9d8d28c7d47ff3e336de2f0c7ee7827d71aeeff3ae56f"
WIDE_DEGENERATE_DIGEST = "4567fd1968e911d4aa08dbdfea6ce987567108c1a4e0d4a0f268e9e341765146"


def _outputs_digest(contexts):
    h = hashlib.sha256()
    for ctx in contexts:
        for text in _degenerate_outputs(ctx):
            h.update((text + "\n").encode())
    return h.hexdigest()


def test_degenerate_shapes_equal_the_definition():
    for ctx in degenerate_contexts(DEGENERATE_SHAPES + WIDE_DEGENERATE_SHAPES):
        check_against_definition(ctx, _routes(ctx))


def test_degenerate_outputs_are_identical():
    assert _outputs_digest(degenerate_contexts()) == DEGENERATE_DIGEST
    assert _outputs_digest(degenerate_contexts(WIDE_DEGENERATE_SHAPES)) == WIDE_DEGENERATE_DIGEST
