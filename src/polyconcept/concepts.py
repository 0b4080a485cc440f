"""Enumeration of all n-concepts of a context.

One search, ``closed_boxes``, is a closed n-set miner over per-dimension
bitmasks in the style of Data-Peeler (Cerf, Besson, Robardet & Boulicaut,
*Closed Patterns Meet n-ary Relations*, TKDD 2009).  It has two callers:
``enumerate_concepts`` runs it from the empty box for the concepts of a
context, and the introducer computation runs it with one element pinned for
the concepts of each slice, in place.
``brute_force_concepts`` is the exhaustive oracle: it walks every subset
combination of all dimensions but the largest, derives the remaining maximal
component, and keeps what passes the concept test.  The two must agree on
every input the oracle can afford, and the test suite holds them to that.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .context import ComponentTuple, InputError, NContext

DEFAULT_ORACLE_CAP = 1 << 20


class OracleInfeasibleError(RuntimeError):
    """The exhaustive oracle would exceed its configured work cap."""


class ConceptLimitError(RuntimeError):
    """Enumeration hit an explicitly configured concept-count cap."""


class ConceptSet:
    """Deduplicated concepts of one context in a total canonical order.

    The order is lexicographic over components, each component compared as
    its tuple of element indices, so iteration is deterministic for a fixed
    context no matter how the set was assembled.
    """

    __slots__ = ("_concepts", "_as_set")

    def __init__(self, concepts: tuple[ComponentTuple, ...]):
        self._concepts = concepts
        self._as_set = frozenset(concepts)

    @classmethod
    def collect(cls, ctx: NContext, items: Iterable[ComponentTuple]) -> "ConceptSet":
        """Deduplicate, verify and canonically sort members, each keyed once
        with ``ctx.sort_key``, which rejects a tuple not canonical for ctx."""
        return cls._of_keys(ctx, {ctx.sort_key(t) for t in items})

    @classmethod
    def _of_keys(cls, ctx: NContext, keys) -> "ConceptSet":
        """Verify distinct index tuples, sort them and label each once."""
        for pos in keys:
            if not ctx._is_concept_pos(pos):
                raise InputError(f"{ctx._labelled(pos)} is not a concept of {ctx!r}")
        return cls(tuple(ctx._labelled(pos) for pos in sorted(keys)))

    @property
    def concepts(self) -> tuple[ComponentTuple, ...]:
        return self._concepts

    def as_frozenset(self) -> frozenset[ComponentTuple]:
        return self._as_set

    def __iter__(self) -> Iterator[ComponentTuple]:
        return iter(self._concepts)

    def __len__(self) -> int:
        return len(self._concepts)

    def __contains__(self, t) -> bool:
        return t in self._as_set

    def __getitem__(self, k) -> ComponentTuple:
        return self._concepts[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, ConceptSet):
            return self._as_set == other._as_set
        if isinstance(other, (set, frozenset)):
            return self._as_set == other
        return NotImplemented

    def __hash__(self):
        return hash(self._as_set)

    def __repr__(self) -> str:
        return f"<ConceptSet of {len(self._concepts)}>"


def _elements(mask: int) -> list[int]:
    """Indices of the set bits of ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _covering(layer: list[int], w: int, members: int) -> int:
    """The bits of ``members`` whose layer row contains every bit of ``w``."""
    hit = 0
    while members:
        low = members & -members
        if layer[low.bit_length() - 1] & w == w:
            hit |= low
        members ^= low
    return hit


def closed_boxes(
    ctx: NContext, kept: list[int]
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Closed full boxes of ``ctx`` containing a starting box, as indices.

    ``kept`` holds one ``int`` bitmask per dimension, a full box every result
    contains.  A dimension whose starting mask is non-empty is pinned: it gets
    no candidates and no discards.  Pinning element x of dimension i thus
    yields the concepts of the slice at x in the parent's coordinates, with
    ``(x,)`` in component i; the empty box yields the concepts of ``ctx``.

    Search state per dimension, each an ``int`` bitmask over its elements:
    kept elements, undecided candidates, and discarded elements.  A candidate
    whose layer does not cover the product of the kept components is dropped,
    at the start and after each keep.  At each node, a candidate whose layer
    covers the whole still-reachable box (kept plus candidates) is forced in,
    and the node is abandoned as soon as a discarded element's layer covers
    it, because no closed box below can avoid that element.

    Nodes wait on an explicit stack, so search depth is not bounded by the
    interpreter's recursion limit.  Each branch takes the dimension with the
    fewest candidates left (ties to the lowest dimension) and its lowest
    element index, keeping it in one child and discarding it in the other,
    so the search is deterministic and reaches each box once.
    """
    n = ctx.arity
    layers = ctx._layers
    width = ctx._width_bits

    def fit(cand: list[int], comps: list[list[int]], skip: int = -1) -> None:
        for j in range(n):
            if j != skip and cand[j]:
                w = width(j, comps[:j] + comps[j + 1 :])
                cand[j] = _covering(layers[j], w, cand[j])

    cand = [0 if k else (1 << len(row)) - 1 for k, row in zip(kept, layers)]
    fit(cand, [_elements(k) for k in kept])
    stack = [(list(kept), cand, [0] * n)]
    while stack:
        kept, cand, out = stack.pop()
        # Forced moves keep kept|cand unchanged, so one pass is a fixpoint.
        reach = [_elements(k | c) for k, c in zip(kept, cand)]
        for i in range(n):
            if not (cand[i] or out[i]):
                continue
            w = width(i, reach[:i] + reach[i + 1 :])
            if _covering(layers[i], w, out[i]):
                break
            forced = _covering(layers[i], w, cand[i])
            kept[i] |= forced
            cand[i] ^= forced
        else:
            counts = [(c.bit_count(), i) for i, c in enumerate(cand) if c]
            if not counts:
                yield tuple(tuple(_elements(k)) for k in kept)
                continue
            i = min(counts)[1]
            bit = cand[i] & -cand[i]
            # Keeping the element adds cells to the kept box only where
            # component i holds it, so a candidate of another dimension still
            # fits iff its layer covers the cells of that one-element slice.
            kept_in = kept.copy()
            kept_in[i] |= bit
            cand_in = cand.copy()
            cand_in[i] ^= bit
            comps = [_elements(k) for k in kept_in]
            comps[i] = [bit.bit_length() - 1]
            fit(cand_in, comps, i)
            cand[i] ^= bit
            out_ex = out.copy()
            out_ex[i] |= bit
            stack.append((kept, cand, out_ex))
            stack.append((kept_in, cand_in, out))


def enumerate_concepts(
    ctx: NContext, *, max_concepts: int | None = None
) -> ConceptSet:
    """All n-concepts of ``ctx``, canonically ordered.

    Every result of ``closed_boxes`` is re-checked with the concept test.
    ``max_concepts`` is an optional hard cap; exceeding it raises
    ``ConceptLimitError``.
    """
    found: set[tuple[tuple[int, ...], ...]] = set()
    for pos in closed_boxes(ctx, [0] * ctx.arity):
        found.add(pos)
        if max_concepts is not None and len(found) > max_concepts:
            raise ConceptLimitError(f"more than {max_concepts} concepts in {ctx!r}")
    return ConceptSet._of_keys(ctx, found)


def oracle_cost(ctx: NContext) -> int:
    """Subset combinations the exhaustive oracle must walk for ``ctx``.

    The product of 2**|dimension| over every dimension except the largest
    (ties resolved to the first), which is also the known ceiling on the
    number of concepts the context can have.
    """
    sizes = [len(d) for d in ctx.dims]
    k = sizes.index(max(sizes))
    cost = 1
    for j, s in enumerate(sizes):
        if j != k:
            cost <<= s
    return cost


def brute_force_concepts(
    ctx: NContext, *, cap: int = DEFAULT_ORACLE_CAP
) -> ConceptSet:
    """Definitionally complete concept enumeration, for verification only.

    Walks every subset combination of all dimensions except the largest,
    derives the maximal remaining component, and keeps the index tuples that
    pass the concept test, sorted and labelled once.  Refuses inputs whose
    combination count exceeds ``cap``.
    """
    cost = oracle_cost(ctx)
    if cost > cap:
        raise OracleInfeasibleError(
            f"oracle infeasible: {cost} subset combinations exceed cap {cap}"
        )
    sizes = [len(d) for d in ctx.dims]
    k = sizes.index(max(sizes))

    def subsets(size: int):
        return itertools.chain.from_iterable(
            itertools.combinations(range(size), r) for r in range(size + 1)
        )

    hits = set()
    widths = (subsets(s) for j, s in enumerate(sizes) if j != k)
    for combo in itertools.product(*widths):
        pos = combo[:k] + (ctx._extend_pos(k, combo),) + combo[k:]
        if ctx._is_concept_pos(pos):
            hits.add(pos)
    return ConceptSet(tuple(ctx._labelled(pos) for pos in sorted(hits)))
