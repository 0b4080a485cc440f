"""Immutable n-dimensional cross tables and elementary box operations.

An ``NContext`` holds ``n`` named dimensions and an n-ary relation between
them.  Everything downstream (concept enumeration, introducer computation,
order diagrams) is built on three primitives defined here: slicing the table
at one element, testing whether a tuple of component sets is a box full of
crosses, and testing whether such a box is maximal in every dimension.

Labels are read and printed at the boundary; the box tests, the search and
the introducer merge hold a component as a bitmask, bit p for element p of
the declared element order, which fixes the canonical ordering of every
component set; index tuples are made only as keys.  The relation is held
once, as one bit row per (dimension, element) over the cells of the other
dimensions, laid out here only, smallest dimension slowest, as the search
reads them.  A slice context is cut from the parent's rows, bit block by bit
block, without decoding a cell or going through labels; layouts are cached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import add, ge, getitem, index, mul
from typing import Iterable, Sequence

MAX_ARITY = 500  # the concept search nests one generator per dimension


class InputError(ValueError):
    """A label, tuple, or dimension selector does not fit the context."""


class ArityError(InputError):
    """The operation requires a different number of dimensions."""


def check_label(label: str) -> str:
    """Validate an element label; returns it unchanged.

    Labels are arbitrary non-empty unicode strings without whitespace or
    commas (both act as field separators in the text formats) and may not
    start with '#' or '!' (reserved line markers) or U+FEFF (a text's
    byte-order mark).
    """
    if not isinstance(label, str) or not label:
        raise InputError(f"labels must be non-empty strings, got {label!r}")
    if label.split() != [label] or "," in label:
        raise InputError(f"label {label!r} contains whitespace or a comma")
    if label[0] in "#!\ufeff":
        raise InputError(f"label {label!r} may not start with {label[0]!r}")
    return label


def check_dimension_name(name: str) -> str:
    """Validate a dimension name (label rules plus no ':')."""
    check_label(name)
    if ":" in name:
        raise InputError(f"dimension name {name!r} may not contain ':'")
    return name


@lru_cache(maxsize=1024)
def _layout(sizes: tuple[int, ...]) -> tuple[tuple, ...]:
    """(order, strides, wide, ranked, cells, spreads, back) of a cell layout,
    cached per shape: ``order`` lists the dimensions smallest first (stable),
    the slowest first; ``strides[k]`` is the mixed-radix stride of dimension
    k; ``wide`` lists the dimensions of more than one element, fastest first;
    ``ranked`` and ``cells`` list the sizes and strides in ``order``;
    ``spreads[j]`` holds bit ``b * cells[j]`` for each row b of the rank-j
    dimension; ``back`` inverts ``order``."""
    order = tuple(sorted(range(len(sizes)), key=sizes.__getitem__))
    strides, step = [0] * len(sizes), 1
    for k in reversed(order):
        strides[k], step = step, step * sizes[k]
    wide = tuple([k for k in reversed(order) if sizes[k] > 1])
    ranked, cells = (tuple(map(seq.__getitem__, order)) for seq in (sizes, strides))
    spreads = tuple([tuple([1 << b * c for b in range(n)]) for n, c in zip(ranked, cells)])
    back = tuple(sorted(range(len(order)), key=order.__getitem__))
    return order, tuple(strides), wide, ranked, cells, spreads, back


_DECODED = [()]  # _DECODED[m]: the set bits of m, for every m < _SMALL
for _b in range(10):
    _DECODED += [bits + (_b,) for bits in _DECODED]
_SMALL = len(_DECODED)


def component_text(components: Iterable[Sequence[str]], seps: Iterable[str]) -> str:
    """The one text rule of a component tuple, ``(αβ, 13, ∅)``: component k's
    labels joined by ``seps[k]``, an empty one as ``∅``."""
    return "(" + ", ".join([s.join(c) if c else "∅" for s, c in zip(seps, components)]) + ")"


def _mask(positions: Iterable[int]) -> int:
    """The bitmask of a collection of element indices."""
    return sum(map((1).__lshift__, positions))


def _elements(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of ``mask``, ascending: looked up below
    ``_SMALL``, else peeled off lowest first."""
    if mask < _SMALL:
        return _DECODED[mask]
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _inclusion(comps: Sequence[tuple[int, ...]], size: int) -> tuple[dict, list[int]]:
    """For each distinct component c, in order of first appearance, the
    positions whose component contains c: the AND over c's elements of
    ``has[x]``, the positions holding element x, which is also returned.
    Components are tuples of element indices below ``size``."""
    everyone = (1 << len(comps)) - 1
    has = [0] * size
    for p, comp in enumerate(comps):
        bit = 1 << p
        for x in comp:
            has[x] |= bit
    up = {}
    for comp in dict.fromkeys(comps):
        above = everyone
        for x in comp:
            above &= has[x]
        up[comp] = above
    return up, has


@dataclass(frozen=True)
class Dimension:
    """One axis of a cross table: a named, ordered set of element labels.

    The element order is fixed at construction and defines the canonical
    ordering of every component set built over this axis.
    """

    index: int  # 1-based position of the axis in its context
    name: str
    elements: tuple[str, ...]
    _pos: dict = field(init=False, repr=False, compare=False)
    _sep: str = field(init=False, repr=False, compare=False)  # joins a component's labels

    def __post_init__(self):
        check_dimension_name(self.name)
        elements = tuple(self.elements)
        object.__setattr__(self, "elements", elements)
        pos = {}
        for k, label in enumerate(elements):
            check_label(label)
            if label in pos:
                raise InputError(
                    f"dimension {self.name!r} declares element {label!r} twice"
                )
            pos[label] = k
        object.__setattr__(self, "_pos", pos)
        object.__setattr__(self, "_sep", "" if all(len(e) == 1 for e in elements) else " ")

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label) -> bool:
        return label in self._pos

    def position(self, label: str) -> int:
        """0-based position of a label in this dimension's element order."""
        try:
            return self._pos[label]
        except KeyError:
            raise self._unknown(label) from None

    def _unknown(self, label) -> InputError:
        return InputError(f"element {label!r} is not in dimension {self.name!r}")

    def _positions(self, labels: Iterable[str]) -> tuple[int, ...]:
        """Sorted, deduplicated positions of a collection of labels."""
        if isinstance(labels, str):
            raise InputError(
                f"component for dimension {self.name!r} must be an iterable of "
                f"labels, not the bare string {labels!r}"
            )
        return tuple(sorted({self.position(lb) for lb in labels}))

    def canonical(self, labels: Iterable[str]) -> tuple[str, ...]:
        """Deduplicate and sort labels into the dimension's element order."""
        return tuple(self.elements[p] for p in self._positions(labels))


@dataclass(frozen=True)
class ComponentTuple:
    """An n-tuple of element subsets, one per dimension, in canonical form.

    Each component lists its labels once, in its dimension's element order
    (``NContext.box`` builds it; context methods reject any other form), so
    two tuples are equal exactly when they are equal as tuples of sets.  A
    ComponentTuple is just a box; it need not be full or maximal.  A tuple
    made by a context carries its index key for that context's ``dims``.
    """

    components: tuple[tuple[str, ...], ...]
    _key: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _dims: tuple | None = field(default=None, init=False, compare=False, repr=False)

    @property
    def arity(self) -> int:
        return len(self.components)

    def has_empty_component(self) -> bool:
        return any(not comp for comp in self.components)

    def __str__(self) -> str:
        return component_text(self.components, repeat(" "))

    def __reduce__(self):
        # A copy cannot keep the dims identity its key is valid for.
        return ComponentTuple, (self.components,)


class NContext:
    """An immutable n-ary cross table.

    ``dims`` is a sequence of ``Dimension`` objects or ``(name, elements)``
    pairs; ``relation`` is an iterable of label tuples, one label per
    dimension.  Duplicate tuples collapse (set semantics).  The relation is
    stored only as bit rows, one per (dimension, element), over the
    flattened product of the other dimensions, so box and maximality tests
    reduce to integer mask comparisons; membership, size, the tuple listing,
    equality and hashing read the rows of dimension 0.  The concept search
    reads the rows through ``_search_input``; everything else goes through
    the per-dimension strides.

    A context never changes value: all operations are read-only and safe
    to share between threads.  Slices are independent values: the rows of a
    slice at x of dimension i are cut from the parent's rows of the other
    dimensions, not from ``_layers[i][x]``.  Everything else about such a
    slice depends on the shape only: it is built on the first slice of
    dimension i, kept in ``_sliced`` and shared by every later one, down to
    its ``dims`` tuple.  Two threads racing to fill it build equal shapes.
    """

    _provenance = None  # (dimension name, element) on a slice

    def __init__(self, dims: Sequence, relation: Iterable[Sequence[str]] = ()):
        norm: list[Dimension] = []
        for k, d in enumerate(dims):
            if isinstance(d, Dimension):
                if d.index != k + 1:
                    raise InputError(
                        f"dimension {d.name!r} carries index {d.index}, "
                        f"expected {k + 1} for its position"
                    )
                norm.append(d)
            else:
                name, elements = d
                norm.append(Dimension(k + 1, name, tuple(elements)))
        # _build sets what _index reads before it consumes the map.
        self._build(tuple(norm), map(self._index, relation))

    @classmethod
    def _of_indices(cls, dims, rel: Iterable[tuple[int, ...]]) -> "NContext":
        """The unsliced context of in-range index tuples over Dimensions 1..n."""
        ctx = object.__new__(cls)
        ctx._build(tuple(dims), rel)
        return ctx

    def _build(self, dims, rel: Iterable[tuple[int, ...]]) -> None:
        """Check the dimensions, set them and lay index tuples out as bit rows.

        The rows of dimension i flatten the product of the other dimensions
        as ``_layout`` orders them (``_strides[i]``).  Each
        tuple sets one bit of one row per dimension: in the rows of dimension
        i, bit ``sum(p_j * stride_ij)`` over its fields j != i.  The tuples
        are transposed once into columns, and each dimension's offsets are
        summed column by column, skipping one-element dimensions (p_j = 0).
        """
        if not dims:
            raise ArityError("a context needs at least one dimension")
        names = [d.name for d in dims]
        if len(set(names)) != len(names):
            raise InputError(f"dimension names must be unique, got {names}")
        self._shape(dims)
        self._layers: list[list[int]] = [[0] * len(d) for d in dims]
        cols = list(zip(*rel))
        for i, layer in enumerate(self._layers if cols else ()):
            strides, offsets = self._strides[i], repeat(0)
            for k in self._wide[i]:  # k counts the dimensions other than i
                offsets = list(map(add, offsets, map(strides[k].__mul__, cols[k + (k >= i)])))
            for p, o in zip(cols[i], offsets):
                layer[p] |= 1 << o

    def _shape(self, dims: tuple[Dimension, ...]) -> None:
        """Set checked dimensions, their text forms and label getters, the
        ``_layout`` of each dimension's rows, and an empty cache of slice
        shapes."""
        self._dims = dims
        self._names = {d.index: d.name for d in dims}
        self._seps = tuple([d._sep for d in dims])
        self._lookup = tuple(d._pos for d in dims)  # read by _index
        self._getters = tuple([d.elements.__getitem__ for d in dims])  # read by _labelled
        self._arity = len(dims)
        self._sliced = {}
        sizes = tuple([len(d) for d in dims])
        _, self._strides, self._wide, self._ranked, self._cells, self._spreads, self._back = zip(
            *[_layout(sizes[:i] + sizes[i + 1 :]) for i in range(self._arity)]
        )

    # -- basic accessors ---------------------------------------------------

    @property
    def arity(self) -> int:
        return self._arity

    @property
    def dims(self) -> tuple[Dimension, ...]:
        return self._dims

    @property
    def provenance(self) -> tuple[str, str] | None:
        """(dimension name, element) this context was sliced at, if any."""
        return self._provenance

    @property
    def relation_size(self) -> int:
        return sum(row.bit_count() for row in self._layers[0])

    def tuples(self) -> tuple[tuple[str, ...], ...]:
        """All relation tuples as labels, in canonical (index) order."""
        # The rows' bit order need not be index order: decode, sort, label.
        radix = list(zip(self._strides[0], map(len, self._dims[1:])))
        rows = enumerate(self._layers[0])
        out = sorted((x, *[c // s % n for s, n in radix]) for x, row in rows for c in _elements(row))
        columns = zip(self._dims, zip(*out))
        return tuple(zip(*(map(d.elements.__getitem__, col) for d, col in columns)))

    def has(self, t: Sequence[str]) -> bool:
        """Exact membership test for one relation tuple of labels."""
        x, *rest = self._index(t)
        return bool(self._layers[0][x] >> sum(map(mul, rest, self._strides[0])) & 1)

    def _index(self, t: Sequence[str]) -> tuple[int, ...]:
        """Positions of the labels of one relation tuple, one per dimension."""
        t = tuple(t)
        if len(t) != len(self._dims):
            raise InputError(
                f"tuple {t!r} has {len(t)} fields, expected {len(self._dims)}"
            )
        try:
            return tuple(map(getitem, self._lookup, t))
        except KeyError:  # let Dimension.position name the unknown label
            return tuple(map(Dimension.position, self._dims, t))

    def dim(self, selector) -> Dimension:
        """Resolve a 1-based index or a dimension name to its Dimension."""
        return self._dims[self._dim0(selector)]

    def _dim0(self, selector) -> int:
        """Resolve a dimension selector to a 0-based position."""
        if isinstance(selector, str):
            for k, d in enumerate(self._dims):
                if d.name == selector:
                    return k
            raise InputError(f"unknown dimension name {selector!r}")
        try:
            i = index(selector)
        except TypeError:
            raise InputError(f"not a dimension name or index: {selector!r}") from None
        if not 1 <= i <= self._arity:
            raise InputError(
                f"dimension index {i} out of range 1..{self._arity}"
            )
        return i - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, NContext):
            return NotImplemented
        return self._dims == other._dims and self._layers[0] == other._layers[0]

    def __hash__(self):
        return hash((self._dims, tuple(self._layers[0])))

    def __repr__(self) -> str:
        shape = "x".join(str(len(d)) for d in self._dims)
        src = f", sliced at {self._provenance[0]}={self._provenance[1]}" if self._provenance else ""
        return f"<NContext {shape}, {self.relation_size} tuples{src}>"

    # -- component tuples --------------------------------------------------

    def box(self, *components: Iterable[str]) -> ComponentTuple:
        """A canonical ComponentTuple from one label collection per dimension,
        as separate arguments: ``ctx.box(["1"], ["a", "b"])``."""
        if len(components) != self._arity:
            raise InputError(
                f"expected {self._arity} components, got {len(components)}"
            )
        return ComponentTuple(
            tuple(d.canonical(c) for d, c in zip(self._dims, components))
        )

    def sort_key(self, t: ComponentTuple) -> tuple[tuple[int, ...], ...]:
        """Index components of a canonical ComponentTuple; they sort totally.

        The one checked step from labels to indices: raises ``InputError``
        for a non-ComponentTuple, a wrong arity, an unknown label, or labels
        not strictly increasing in their dimension's element order.  A tuple
        this context made carries its key, which is returned unchecked.
        """
        if not isinstance(t, ComponentTuple):
            raise InputError(f"expected a ComponentTuple, got {type(t).__name__}")
        if t._dims is self._dims:
            return t._key
        if t.arity != self._arity:
            raise InputError(
                f"tuple has arity {t.arity}, context has arity {self._arity}"
            )
        key = []
        for d, comp in zip(self._dims, t.components):
            try:
                pos = tuple(map(d._pos.__getitem__, comp))
            except KeyError as err:
                raise d._unknown(err.args[0]) from None
            if any(map(ge, pos, pos[1:])):  # unsorted or repeated
                raise InputError(
                    f"component {d.index} of {t} is not strictly increasing in "
                    f"the element order of dimension {d.name!r}"
                )
            key.append(pos)
        return tuple(key)

    # -- bit-row machinery ---------------------------------------------------

    def _extend_mask(self, i0: int, masks: Sequence[int]) -> int:
        """Mask of the elements of dimension i0 whose layer covers the width,
        given as component masks of the other dimensions in original order.

        An empty component makes every layer qualify vacuously; a 1-D context
        extends to its relation.  A 2-D width of fewer elements than this
        dimension has rows ANDs its rows (this one's columns); otherwise the
        rows are scanned for the width's cells: the width mask itself in 2-D,
        else shifted copies (cell ``p`` at bit ``sum(p_k * stride_k)``).
        """
        rows = self._layers[i0]
        if not all(masks):
            return (1 << len(rows)) - 1
        if self._arity == 2 and masks[0].bit_count() < len(rows):
            w, cols, ext = masks[0], self._layers[1 - i0], (1 << len(rows)) - 1
            while w:
                ext &= cols[(w & -w).bit_length() - 1]
                w &= w - 1  # drop the lowest bit
            return ext
        strides, wide = self._strides[i0], self._wide[i0]
        w = masks[wide[0]] if wide else 1  # the fastest has stride 1
        for k in wide[1:]:
            m, acc = masks[k], 0
            while m:
                acc |= w << ((m & -m).bit_length() - 1) * strides[k]
                m &= m - 1
            w = acc
        ext = 0
        for e, row in enumerate(rows):
            if row & w == w:
                ext |= 1 << e
        return ext

    def _extend(self, i0: int, width: Sequence[Iterable[str]]) -> tuple[str, ...]:
        """``_extend_mask`` from and to labels, for ``derive`` and ``extend_height``."""
        others = self._dims[:i0] + self._dims[i0 + 1 :]
        if len(width) != len(others):
            raise InputError(f"width has {len(width)} components, expected {len(others)}")
        ext = self._extend_mask(i0, [_mask(d._positions(c)) for d, c in zip(others, width)])
        return tuple(map(self._dims[i0].elements.__getitem__, _elements(ext)))

    def _search_input(self, i0: int | None = None, x: int = 0):
        """(sizes, cells, spreads, mask, back), the input of
        ``concepts.closed_tuples``.

        The slice at element x of dimension i0 is that element's row; with no
        i0, the rows of the slowest, smallest dimension, packed, are the
        relation.  The rest is the mask's cached ``_layout``: its ranked sizes
        and strides, smallest first (stable), the row bits of each rank, and
        the rank of each original position.  Raises ``ArityError`` above
        ``MAX_ARITY``.
        """
        if self._arity > MAX_ARITY:
            raise ArityError(f"concept search takes at most {MAX_ARITY} dimensions, got {self._arity}")
        if i0 is not None:
            return (self._ranked[i0], self._cells[i0], self._spreads[i0],
                    self._layers[i0][x], self._back[i0])
        order, _, _, sizes, cells, spreads, back = _layout(tuple([len(d) for d in self._dims]))
        mask = sum(row << y * cells[0] for y, row in enumerate(self._layers[order[0]]))
        return sizes, cells, spreads, mask, back

    # -- box predicates ------------------------------------------------------

    def is_full_box(self, t: ComponentTuple) -> bool:
        """True iff every cell in the product of t's components is crossed,
        that is, iff its first component lies in the extension of the others.

        A tuple with any empty component is vacuously full.
        """
        masks = tuple(map(_mask, self.sort_key(t)))
        return masks[0] & ~self._extend_mask(0, masks[1:]) == 0

    def is_concept(self, t: ComponentTuple) -> bool:
        """True iff t, checked by ``sort_key``, is a full box maximal in every
        dimension."""
        return self._is_concept_mask(tuple(map(_mask, self.sort_key(t))))

    def _is_concept_mask(self, masks: tuple[int, ...], derived: int | None = None) -> bool:
        """``is_concept`` on component masks: each equals the extension of
        the others (for any one dimension that also makes the box full).
        Dimension ``derived``, whose component the caller made the extension
        of the others, is not tested again."""
        for i, m in enumerate(masks):
            if i != derived and self._extend_mask(i, masks[:i] + masks[i + 1 :]) != m:
                return False
        return True

    def _text(self, masks: tuple[int, ...]) -> str:
        """Component masks as the CLI prints them, for error messages."""
        return component_text(self._labelled(tuple(map(_elements, masks))).components, self._seps)

    def _labelled(self, pos: tuple[tuple[int, ...], ...]) -> ComponentTuple:
        """The ComponentTuple of ascending index components, carrying them."""
        t = object.__new__(ComponentTuple)  # frozen: filled as unpickling does
        labels = tuple(map(tuple, map(map, self._getters, pos)))
        vars(t).update(components=labels, _key=pos, _dims=self._dims)
        return t

    # -- slicing and 2D derivation --------------------------------------------

    def slice(self, dim, element: str) -> "NContext":
        """Fix one element of one dimension; drop that dimension.

        Returns the (n-1)-ary context whose relation keeps exactly the tuples
        that carried ``element`` at the selected position, with that field
        removed.  Its layout is the parent's without that dimension, so each
        of its rows is the parent's row of that element, keeping the bits
        whose sliced digit is ``element``'s: one stride-long run per block of
        the slower dimensions.  The result records where it was sliced; the
        rest of it is the shape ``_slice_shape`` keeps.
        """
        if self._arity == 1:
            raise ArityError("cannot slice a 1-dimensional context")
        i0 = self._dim0(dim)
        src = self._dims[i0]
        x = src.position(element)
        shape, cuts = self._sliced.get(i0) or self._slice_shape(i0)
        sub = object.__new__(NContext)
        vars(sub).update(shape, _provenance=(src.name, element))
        sub._layers = layers = []
        for k, st, low, runs in cuts:
            rows, off = self._layers[k], x * st
            layers.append([sum([(r >> a + off & low) << b for a, b in runs]) for r in rows])
        return sub

    def _slice_shape(self, i0: int) -> tuple[dict, list]:
        """(attributes, cuts) shared by every slice of dimension i0, made on
        first use and kept in ``_sliced``.  The attributes are what ``_shape``
        sets for the other dimensions, renumbered, down to the slices' own
        ``_sliced``, as a shape depends on the dimensions only.  A cut (k, st,
        low, runs) makes the slice's rows of dimension k from the parent's:
        for each run (a, b), the ``st`` bits at ``a + x * st`` move to bit b."""
        n = len(self._dims[i0])
        dims = list(self._dims)
        del dims[i0]
        for k in range(i0, len(dims)):  # renumbered; no label is checked again
            d = dims[k] = object.__new__(Dimension)
            vars(d).update(vars(self._dims[k + 1]), index=k + 1)
        proto = object.__new__(NContext)
        proto._shape(tuple(dims))
        cuts = []
        for k in range(self._arity):
            if k != i0:
                st = self._strides[k][i0 - (i0 > k)]
                size = self._ranked[k][0] * self._cells[k][0]
                cuts.append((k, st, (1 << st) - 1, [(a, a // n) for a in range(0, size, st * n)]))
        made = self._sliced[i0] = (vars(proto), cuts)
        return made

    def derive(self, side, labels: Iterable[str]) -> tuple[str, ...]:
        """2D derivation: elements of the other side related to all of X.

        ``side`` names the side X lives on (1, 2, or a dimension name);
        an empty X yields every element of the other side.
        """
        if self._arity != 2:
            raise ArityError(
                f"derivation is defined on 2-dimensional contexts, arity is {self._arity}"
            )
        return self._extend(1 - self._dim0(side), [labels])
