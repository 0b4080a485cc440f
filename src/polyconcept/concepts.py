"""Enumeration of all n-concepts of a context.

Two routes are provided.  ``enumerate_concepts`` is the working enumerator: a
closed n-set miner over per-dimension bitmasks in the style of Data-Peeler
(Cerf, Besson, Robardet & Boulicaut, *Closed Patterns Meet n-ary Relations*,
TKDD 2009).  It splits the element space one element at a time (kept or
discarded), drops candidates that no longer fit the kept box, forces in
candidates that every box below must contain, and prunes nodes that a
discarded element would extend.  The search runs on an explicit stack and
branches on the dimension with the fewest candidates left.
``brute_force_concepts`` is the exhaustive oracle: it walks every subset
combination of all dimensions but the largest, derives the remaining maximal
component, and keeps what passes ``is_concept``.  The two must agree on every
input the oracle can afford, and the test suite holds them to that.
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
    def collect(
        cls,
        ctx: NContext,
        items: Iterable[ComponentTuple],
        *,
        verify: bool = True,
    ) -> "ConceptSet":
        """Deduplicate, canonically sort, and (by default) verify members."""
        unique = set(items)
        if verify:
            for t in unique:
                if not ctx.is_concept(t):
                    raise InputError(f"{t} is not a concept of {ctx!r}")
        return cls(tuple(sorted(unique, key=ctx.sort_key)))

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


def enumerate_concepts(
    ctx: NContext, *, max_concepts: int | None = None
) -> ConceptSet:
    """All n-concepts of ``ctx``, canonically ordered.

    Search state per dimension, each an ``int`` bitmask over its elements:
    kept elements, undecided candidates, and discarded elements.  The kept
    box is always full, and every candidate fits it: a candidate whose layer
    stops covering the product of the kept components (after another element
    is kept) is dropped, since no box below the node can contain it.  At each
    node, a candidate whose layer covers the whole still-reachable box (kept
    plus candidates) is forced in, because every closed box below must
    contain it, and the node is abandoned as soon as a discarded element's
    layer covers the still-reachable box, because no closed box below can
    avoid it.  When no candidates remain, the kept box is full and maximal.

    Nodes wait on an explicit stack, so search depth is not bounded by the
    interpreter's recursion limit.  Each branch takes the dimension with the
    fewest candidates left (ties to the lowest dimension) and its lowest
    element index, keeping it in one child and discarding it in the other,
    so the search is deterministic.

    ``max_concepts`` is an optional hard cap; exceeding it raises
    ``ConceptLimitError``.
    """
    n = ctx.arity
    layers = ctx._layers
    width = ctx._width_bits
    found: list[tuple[tuple[int, ...], ...]] = []

    cand = [(1 << len(d)) - 1 for d in ctx.dims]
    if n == 1:  # no other dimension: a candidate fits only if it is related
        cand[0] = _covering(layers[0], 1, cand[0])
    stack = [([0] * n, cand, [0] * n)]
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
                found.append(tuple(tuple(_elements(k)) for k in kept))
                if max_concepts is not None and len(found) > max_concepts:
                    raise ConceptLimitError(
                        f"more than {max_concepts} concepts in {ctx!r}"
                    )
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
            for j in range(n):
                if j != i and cand_in[j]:
                    w = width(j, comps[:j] + comps[j + 1 :])
                    cand_in[j] = _covering(layers[j], w, cand_in[j])
            cand[i] ^= bit
            out_ex = out.copy()
            out_ex[i] |= bit
            stack.append((kept, cand, out_ex))
            stack.append((kept_in, cand_in, out))
    concepts = [
        ComponentTuple(
            tuple(
                tuple(d.elements[p] for p in comp)
                for d, comp in zip(ctx.dims, pos)
            )
        )
        for pos in found
    ]
    return ConceptSet.collect(ctx, concepts)


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
    derives the maximal remaining component, and filters with ``is_concept``.
    Refuses inputs whose combination count exceeds ``cap``.
    """
    cost = oracle_cost(ctx)
    if cost > cap:
        raise OracleInfeasibleError(
            f"oracle infeasible: {cost} subset combinations exceed cap {cap}"
        )
    n = ctx.arity
    sizes = [len(d) for d in ctx.dims]
    k = sizes.index(max(sizes))
    width_dims = [j for j in range(n) if j != k]

    def subsets(size: int):
        return itertools.chain.from_iterable(
            itertools.combinations(range(size), r) for r in range(size + 1)
        )

    hits = set()
    for combo in itertools.product(*(subsets(sizes[j]) for j in width_dims)):
        ext = ctx._extend_pos(k, combo)
        pos = list(combo)
        pos.insert(k, ext)
        t = ComponentTuple(
            tuple(
                tuple(d.elements[p] for p in comp)
                for d, comp in zip(ctx.dims, pos)
            )
        )
        if ctx.is_concept(t):
            hits.add(t)
    return ConceptSet.collect(ctx, hits, verify=False)
