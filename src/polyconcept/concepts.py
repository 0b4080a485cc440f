"""Enumeration of all n-concepts of a context.

One search, ``closed_tuples``, enumerates the concepts of an n-ary relation
held as one ``int`` bitmask: Close-by-One (Kuznetsov & Obiedkov, JETAI 2002)
over one dimension against the cells of the others, nested once per
dimension in the manner of TRIAS (Jäschke, Hotho, Schmitz, Ganter & Stumme,
ICDM 2006) down to two dimensions, whose closed pairs are the concepts.  A
candidate j is tested for canonicity on the rows below j, and only a
canonical one is closed, on the rows from j up.  ``enumerate_concepts`` runs
it on the relation of a context and the introducer computation on each
slice's row of it, both as ``NContext._search_input`` lays it out; both take
its concepts as component masks.
``brute_force_concepts``, the exhaustive oracle, must agree with it on every
input the oracle can afford, and the test suite holds them to that.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator, Sequence

from .context import ComponentTuple, NContext, _elements

DEFAULT_ORACLE_CAP = 1 << 20


class OracleInfeasibleError(RuntimeError):
    """The exhaustive oracle would exceed its configured work cap."""


class ConceptLimitError(RuntimeError):
    """Enumeration hit an explicitly configured concept-count cap."""


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


class ConceptSet:
    """Deduplicated concepts of one context in a total canonical order.

    ``ConceptSet(ctx, keys)`` holds the index tuples of concepts of ``ctx``,
    given in any order and with repeats, sorted and distinct, and checks
    none of them.  Components compare as tuples of element indices, so
    iteration is deterministic for a fixed context.  Members are labelled on
    the first read of ``concepts``, iteration or indexing; ``in``, ``hash``
    and ``==`` with a ``set`` or with a set over other dimensions compare
    the ``frozenset`` of labelled members.  Its length, and ``==`` between
    sets over equal dimensions, read only the keys.
    """

    __slots__ = ("_ctx", "_keys", "_concepts", "_as_set")

    def __init__(self, ctx: NContext, keys: Iterable[tuple[tuple[int, ...], ...]]):
        self._ctx, self._keys = ctx, sorted(set(keys))
        self._concepts = self._as_set = None

    @property
    def concepts(self) -> tuple[ComponentTuple, ...]:
        if self._concepts is None:
            self._concepts = tuple(map(self._ctx._labelled, self._keys))
        return self._concepts

    def _frozen(self) -> frozenset:
        if self._as_set is None:
            self._as_set = frozenset(self.concepts)
        return self._as_set

    def __iter__(self) -> Iterator[ComponentTuple]:
        return iter(self.concepts)

    def __len__(self) -> int:
        return len(self._keys)

    def __contains__(self, t) -> bool:
        return t in self._frozen()

    def __getitem__(self, k) -> ComponentTuple:
        return self.concepts[k]

    def __eq__(self, other) -> bool:
        if isinstance(other, ConceptSet):
            if self._ctx.dims == other._ctx.dims:
                return self._keys == other._keys
            return self._frozen() == other._frozen()
        if isinstance(other, (set, frozenset)):
            return self._frozen() == other
        return NotImplemented

    def __hash__(self):
        return hash(self._frozen())

    def __repr__(self) -> str:
        return f"<ConceptSet of {len(self)}>"


def _cbo(sizes: Sequence[int], cells: Sequence[int], rel: int, lv: int = 0):
    """(component masks, box mask) of every concept of ``rel``, each once.

    ``rel`` is a relation over the dimensions of ``sizes`` from level ``lv``
    on; ``cells[k]`` is the product of the sizes after k.  Close-by-One walks
    the closed pairs (A, C) of the first dimension against the cells of the
    others on an explicit stack.  A child adds a row j above the last one
    added and, with D the cells of C in row j, is canonical iff no row b < j
    outside A covers D; only then is it closed, from A over the rows from j
    up, since the rows of A cover D and those below j do not.  With two
    dimensions the closed pairs are the concepts; with more, each concept T
    of C as an (n-1)-ary relation gives the concept (A, T) iff no row
    outside A covers T's box, so the levels nest down to two dimensions and
    never reach one.  Box masks are built below level 0 only, as cells times
    the spread of A (bit ``b * stride`` per row b of A) carried on the stack.
    """
    n, stride, last = sizes[lv], cells[lv], lv + 2 == len(sizes)
    full = (1 << stride) - 1
    rows = [rel >> b * stride & full for b in range(n)]
    spread = [1 << b * stride if lv else 0 for b in range(n)]
    a = sum([1 << b for b in range(n) if rows[b] == full])
    stack = [(a, full, 0, sum(map(spread.__getitem__, _elements(a))))]
    while stack:
        a, c, y, s = stack.pop()
        if last:
            yield (a, c), c * s
        else:
            out = _elements(a ^ (1 << n) - 1)  # the rows outside A
            for comps, box in _cbo(sizes, cells, c, lv + 1):
                # The rows of A cover c, so a box that is all of c is kept.
                for b in out if box != c else ():
                    if rows[b] & box == box:
                        break
                else:
                    yield (a,) + comps, box * s
        for j in range(y, n):
            if a >> j & 1:
                continue
            d = rows[j] & c
            for b in range(j):
                if rows[b] & d == d and not a >> b & 1:
                    break
            else:
                e, t = a, s
                for k in range(j, n):
                    if rows[k] & d == d:
                        e |= 1 << k
                        t |= spread[k]
                stack.append((e, d, j + 1, t))


def closed_tuples(
    sizes: Sequence[int], cells: Sequence[int], rel: int, back: Sequence[int]
) -> Iterator[tuple[int, ...]]:
    """Every concept of an n-ary relation, exactly once, as component masks
    in original order.

    ``rel`` masks the cells of a product of dimensions of the given sizes,
    cell ``(p_1, ..., p_n)`` at bit ``sum(p_k * cells[k])`` with the last
    dimension fastest; ``back[j]`` is the rank of the dimension at original
    position j.  The arguments are what ``NContext._search_input`` returns,
    whose sizes ascend, so every level of the nested search has the smallest
    dimension left as its outer one, which bounds the cost of a closure.  A
    1-ary relation is its own single concept, yielded without a search.
    """
    if len(sizes) == 1:
        yield (rel,)
        return
    for masks, _ in _cbo(sizes, cells, rel):
        yield tuple(map(masks.__getitem__, back))


def enumerate_concepts(
    ctx: NContext, *, max_concepts: int | None = None
) -> ConceptSet:
    """All n-concepts of ``ctx``, canonically ordered.

    Every result of ``closed_tuples`` is re-checked with the concept test,
    then decoded; a failure raises ``ConsistencyError``.  ``max_concepts`` is
    an optional hard cap; exceeding it raises ``ConceptLimitError``.
    """
    found: set[tuple[int, ...]] = set()
    for masks in closed_tuples(*ctx._search_input()):
        found.add(masks)
        if max_concepts is not None and len(found) > max_concepts:
            raise ConceptLimitError(f"more than {max_concepts} concepts in {ctx!r}")
    for masks in found:
        if not ctx._is_concept_mask(masks):
            raise ConsistencyError(f"{ctx._text(masks)} is not a concept of {ctx!r}")
    return ConceptSet(ctx, [tuple(map(_elements, masks)) for masks in found])


def oracle_cost(ctx: NContext) -> int:
    """Subset combinations the exhaustive oracle must walk for ``ctx``.

    The product of 2**|dimension| over every dimension except one largest,
    which is also the known ceiling on the number of concepts the context
    can have.
    """
    sizes = [len(d) for d in ctx.dims]
    return 1 << sum(sizes) - max(sizes)


def brute_force_concepts(
    ctx: NContext, *, cap: int = DEFAULT_ORACLE_CAP
) -> ConceptSet:
    """Definitionally complete concept enumeration, for verification only.

    Walks every combination of component masks of all dimensions but the
    largest, derives the maximal remaining component, and keeps the tuples
    maximal in every other dimension.  Refuses inputs whose combination
    count exceeds ``cap``.
    """
    cost = oracle_cost(ctx)
    if cost > cap:
        raise OracleInfeasibleError(
            f"oracle infeasible: {cost} subset combinations exceed cap {cap}"
        )
    sizes = [len(d) for d in ctx.dims]
    k = sizes.index(max(sizes))
    hits = set()
    for combo in product(*[range(1 << s) for j, s in enumerate(sizes) if j != k]):
        masks = combo[:k] + (ctx._extend_mask(k, combo),) + combo[k:]
        # masks[k] is the extension of the others, so only they can fail.
        if ctx._is_concept_mask(masks, k):
            hits.add(tuple(map(_elements, masks)))
    return ConceptSet(ctx, hits)
