"""Immutable n-dimensional cross tables and elementary box operations.

An ``NContext`` holds ``n`` named dimensions and an n-ary relation between
them.  Everything downstream (concept enumeration, introducer computation,
order diagrams) is built on three primitives defined here: slicing the table
at one element, testing whether a tuple of component sets is a box full of
crosses, and testing whether such a box is maximal in every dimension.

Element identity is label-based at the boundary and index-based internally;
the element order declared at construction time fixes the canonical ordering
of every component set produced by the library.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import ge
from typing import Iterable, Sequence


class InputError(ValueError):
    """A label, tuple, or dimension selector does not fit the context."""


class ArityError(InputError):
    """The operation requires a different number of dimensions."""


def check_label(label: str) -> str:
    """Validate an element label; returns it unchanged.

    Labels are arbitrary non-empty unicode strings without whitespace or
    commas (both act as field separators in the text formats) and may not
    start with '#' or '!' (reserved line markers).
    """
    if not isinstance(label, str) or not label:
        raise InputError(f"labels must be non-empty strings, got {label!r}")
    if any(ch.isspace() for ch in label) or "," in label:
        raise InputError(f"label {label!r} contains whitespace or a comma")
    if label[0] in "#!":
        raise InputError(f"label {label!r} may not start with {label[0]!r}")
    return label


def check_dimension_name(name: str) -> str:
    """Validate a dimension name (label rules plus no ':')."""
    check_label(name)
    if ":" in name:
        raise InputError(f"dimension name {name!r} may not contain ':'")
    return name


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

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, label) -> bool:
        return label in self._pos

    def position(self, label: str) -> int:
        """0-based position of a label in this dimension's element order."""
        try:
            return self._pos[label]
        except KeyError:
            raise InputError(
                f"element {label!r} is not in dimension {self.name!r}"
            ) from None

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
    ComponentTuple is just a box; it need not be full or maximal.
    """

    components: tuple[tuple[str, ...], ...]

    @property
    def arity(self) -> int:
        return len(self.components)

    def has_empty_component(self) -> bool:
        return any(not comp for comp in self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(" ".join(c) if c else "∅" for c in self.components) + ")"


class NContext:
    """An immutable n-ary cross table.

    ``dims`` is a sequence of ``Dimension`` objects or ``(name, elements)``
    pairs; ``relation`` is an iterable of label tuples, one label per
    dimension.  Duplicate tuples collapse (set semantics).  Per-dimension,
    per-element bit rows over the flattened product of the other dimensions
    are built once at construction so box and maximality tests reduce to
    integer mask comparisons.

    Instances never change after construction; all operations are read-only
    and safe to share between threads.  Slices are independent values.
    """

    def __init__(
        self,
        dims: Sequence,
        relation: Iterable[Sequence[str]] = (),
        *,
        provenance: tuple[str, str] | None = None,
    ):
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
        if not norm:
            raise ArityError("a context needs at least one dimension")
        names = [d.name for d in norm]
        if len(set(names)) != len(names):
            raise InputError(f"dimension names must be unique, got {names}")
        self._dims = tuple(norm)
        self._arity = len(norm)

        rel: set[tuple[int, ...]] = set()
        for t in relation:
            t = tuple(t)
            if len(t) != self._arity:
                raise InputError(
                    f"relation tuple {t!r} has {len(t)} fields, expected {self._arity}"
                )
            rel.add(tuple(dim.position(lb) for dim, lb in zip(self._dims, t)))
        self._rel = frozenset(rel)
        self._provenance = provenance

        # Mixed-radix strides for flattening the product of all dimensions
        # except dimension i, then one bit row per (dimension, element), held
        # as a dense list per dimension.
        sizes = [len(d) for d in self._dims]
        self._strides: list[tuple[int, ...]] = []
        for i in range(self._arity):
            other = [s for j, s in enumerate(sizes) if j != i]
            strides = []
            acc = 1
            for s in reversed(other):
                strides.append(acc)
                acc *= s
            self._strides.append(tuple(reversed(strides)))
        self._layers: list[list[int]] = [[0] * s for s in sizes]
        for t in self._rel:
            for i in range(self._arity):
                rest = t[:i] + t[i + 1 :]
                idx = sum(p * s for p, s in zip(rest, self._strides[i]))
                self._layers[i][t[i]] |= 1 << idx

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
        return len(self._rel)

    @property
    def relation(self) -> frozenset[tuple[str, ...]]:
        """The relation as a frozenset of label tuples."""
        return frozenset(self.tuples())

    def tuples(self) -> tuple[tuple[str, ...], ...]:
        """All relation tuples as labels, in canonical (index) order."""
        out = []
        for t in sorted(self._rel):
            out.append(tuple(d.elements[p] for d, p in zip(self._dims, t)))
        return tuple(out)

    def has(self, t: Sequence[str]) -> bool:
        """Exact membership test for one relation tuple of labels."""
        t = tuple(t)
        if len(t) != self._arity:
            raise InputError(
                f"tuple {t!r} has {len(t)} fields, expected {self._arity}"
            )
        return tuple(d.position(lb) for d, lb in zip(self._dims, t)) in self._rel

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
        i = int(selector)
        if not 1 <= i <= self._arity:
            raise InputError(
                f"dimension index {i} out of range 1..{self._arity}"
            )
        return i - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, NContext):
            return NotImplemented
        return self._dims == other._dims and self._rel == other._rel

    def __hash__(self):
        return hash((self._dims, self._rel))

    def __repr__(self) -> str:
        shape = "x".join(str(len(d)) for d in self._dims)
        src = f", sliced at {self._provenance[0]}={self._provenance[1]}" if self._provenance else ""
        return f"<NContext {shape}, {len(self._rel)} tuples{src}>"

    # -- component tuples --------------------------------------------------

    def box(self, *components: Iterable[str]) -> ComponentTuple:
        """Build a canonical ComponentTuple from one label set per dimension."""
        if len(components) == 1 and not isinstance(components[0], (str, bytes)):
            first = list(components[0])
            if len(first) == self._arity and all(
                not isinstance(c, str) for c in first
            ):
                components = tuple(first)
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
        not strictly increasing in their dimension's element order.
        """
        if not isinstance(t, ComponentTuple):
            raise InputError(f"expected a ComponentTuple, got {type(t).__name__}")
        if t.arity != self._arity:
            raise InputError(
                f"tuple has arity {t.arity}, context has arity {self._arity}"
            )
        key = []
        for d, comp in zip(self._dims, t.components):
            pos = tuple(map(d.position, comp))
            if any(map(ge, pos, pos[1:])):  # unsorted or repeated
                raise InputError(
                    f"component {d.index} of {t} is not strictly increasing in "
                    f"the element order of dimension {d.name!r}"
                )
            key.append(pos)
        return tuple(key)

    # -- bit-row machinery ---------------------------------------------------

    def _width_bits(self, i0: int, comps: Sequence[Sequence[int]]) -> int:
        """Mask of the product of index components over all dimensions != i0.

        Cell ``(p_1, ..., p_m)`` of the product sits at bit
        ``sum(p_k * stride_k)``.  The mask is built one dimension at a time,
        smallest stride first: each step ORs together one copy of the mask so
        far shifted by ``p * stride`` for every ``p`` in that dimension's
        component.  An empty component gives 0; with no other dimension the
        product is the single empty cell, bit 1.
        """
        mask = 1
        for comp, stride in zip(reversed(comps), reversed(self._strides[i0])):
            acc = 0
            for p in comp:
                acc |= mask << p * stride
            mask = acc
        return mask

    def _extend_pos(self, i0: int, comps: Sequence[Sequence[int]]) -> tuple[int, ...]:
        """All elements of dimension i0 whose layer covers the given width.

        ``comps`` are index components for the dimensions other than i0, in
        original order.  An empty width component makes every layer qualify
        vacuously; for a 1-dimensional context the result is the relation.
        """
        w = self._width_bits(i0, comps)
        return tuple(
            e for e, row in enumerate(self._layers[i0]) if row & w == w
        )

    # -- box predicates ------------------------------------------------------

    def is_full_box(self, t: ComponentTuple) -> bool:
        """True iff every cell in the product of t's components is crossed.

        A tuple with any empty component is vacuously full.
        """
        pos = self.sort_key(t)
        w = self._width_bits(0, pos[1:])
        layer = self._layers[0]
        return all(layer[e] & w == w for e in pos[0])

    def is_concept(self, t: ComponentTuple) -> bool:
        """True iff t, checked by ``sort_key``, is a full box maximal in every
        dimension."""
        return self._is_concept_pos(self.sort_key(t))

    def _is_concept_pos(self, pos: tuple[tuple[int, ...], ...]) -> bool:
        """``is_concept`` on index components: each equals the extension of
        the others (for dimension 0 that also makes the box full)."""
        return all(
            self._extend_pos(i, pos[:i] + pos[i + 1 :]) == pos[i]
            for i in range(self._arity)
        )

    def _labelled(self, pos: Sequence[Sequence[int]]) -> ComponentTuple:
        """The ComponentTuple of ascending index components."""
        labels = (tuple(d.elements[p] for p in c) for d, c in zip(self._dims, pos))
        return ComponentTuple(tuple(labels))

    # -- slicing and 2D derivation --------------------------------------------

    def slice(self, dim, element: str) -> "NContext":
        """Fix one element of one dimension; drop that dimension.

        Returns the (n-1)-ary context whose relation keeps exactly the tuples
        that carried ``element`` at the selected position, with that field
        removed.  The result records where it was sliced for diagnostics.
        """
        if self._arity == 1:
            raise ArityError("cannot slice a 1-dimensional context")
        i0 = self._dim0(dim)
        src = self._dims[i0]
        e = src.position(element)
        keep = [j for j in range(self._arity) if j != i0]
        new_dims = [(self._dims[j].name, self._dims[j].elements) for j in keep]
        rel = []
        for t in self._rel:
            if t[i0] == e:
                rest = t[:i0] + t[i0 + 1 :]
                rel.append(
                    tuple(self._dims[j].elements[p] for j, p in zip(keep, rest))
                )
        return NContext(new_dims, rel, provenance=(src.name, element))

    def derive(self, side, labels: Iterable[str]) -> tuple[str, ...]:
        """2D derivation: elements of the other side related to all of X.

        ``side`` names the side X lives on (1, 2, or a dimension name);
        an empty X yields every element of the other side.
        """
        if self._arity != 2:
            raise ArityError(
                f"derivation is defined on 2-dimensional contexts, arity is {self._arity}"
            )
        i0 = self._dim0(side)
        j0 = 1 - i0
        pos = self._extend_pos(j0, (self._dims[i0]._positions(labels),))
        return tuple(self._dims[j0].elements[p] for p in pos)
