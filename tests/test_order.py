"""Quasi-orders, the two structural axioms, and covering diagrams."""

import pickle
import random

import pytest

from polyconcept import (
    ArityError,
    ComponentTuple,
    InputError,
    IntroducerRecord,
    NContext,
    check_n_ordered,
    dimension_diagram,
    enumerate_concepts,
    generate_random,
    gsh_2d,
    introducers,
    parse_context,
    serialize_tuples,
)

from polyconcept.order import _numbered, _up_down

from conftest import FIG1_COVER_EDGES, FIG1_GSH_EDGES, box


class TestAxioms:
    def test_fig3_introducers_satisfy_both(self, fig3):
        report = check_n_ordered(introducers(fig3))
        assert report.ok
        assert report.uniqueness_ok and not report.uniqueness_violations
        assert report.antiordinal_ok and not report.antiordinal_violations

    def test_fig1_gsh_satisfies_both(self, fig1):
        report = check_n_ordered(introducers(fig1))
        assert report.ok

    def test_full_concept_sets_satisfy_both(self, fig1, fig3):
        for ctx in (fig1, fig3):
            report = check_n_ordered(list(enumerate_concepts(ctx)))
            assert report.ok

    def test_duplicate_members_violate_uniqueness(self):
        dup = [box("αβ", "13", "a"), box("α", "1", "ab"), box("αβ", "13", "a")]
        report = check_n_ordered(dup)
        assert not report.uniqueness_ok
        assert report.uniqueness_violations == (
            (box("αβ", "13", "a"), box("αβ", "13", "a")),
        )

    def test_antiordinal_violation_on_fabricated_pair(self):
        # one box below another in every dimension cannot happen for concepts
        report = check_n_ordered([box("1", "a"), box("12", "ab")])
        assert not report.antiordinal_ok
        assert report.antiordinal_violations

    def test_uniqueness_quantified_over_sweep(self):
        for seed in range(10):
            ctx = generate_random((3, 3, 3), 0.4, seed)
            assert check_n_ordered(list(enumerate_concepts(ctx))).ok
            assert check_n_ordered(introducers(ctx)).ok

    def test_relation_sizes_counted_per_dimension(self):
        report = check_n_ordered([box("1", "ab"), box("12", "b")])
        # dim 1: only (first, second); dim 2: only (second, first)
        assert report.per_dimension_relation_sizes == (1, 1)

    def test_matches_pairwise_reference_on_random_boxes(self):
        for n, _, members in _random_box_lists():
            uniq, anti, sizes = _pairwise_reference(members, n)
            report = check_n_ordered(members)
            assert report.uniqueness_violations == uniq
            assert report.antiordinal_violations == anti
            assert report.per_dimension_relation_sizes == (
                sizes if members else ()
            )
            assert report.ok == (not uniq and not anti)

    def test_matches_pairwise_reference_at_realistic_size(self):
        # more than 30 members, so the bitsets span several int digits
        for ctx, members in _realistic_member_lists():
            uniq, anti, sizes = _pairwise_reference(members, ctx.arity)
            report = check_n_ordered(members)
            assert report.uniqueness_violations == uniq
            assert report.antiordinal_violations == anti
            assert report.per_dimension_relation_sizes == sizes
            assert uniq and anti  # the doubled and shrunk members

    def test_matches_pairwise_reference_when_dimensions_choose_differently(self):
        # Dimension 1 holds singletons of 37 labels: few members above each,
        # many labels missing, so the members below are found by transposing.
        # Dimension 2 holds prefixes of "abc": the reverse, so they are found
        # by ORing the positions of the missing labels.  The first member is
        # repeated, and the second comes again with a larger prefix, which
        # only the members below it in dimension 2 tell apart.
        members = [
            ComponentTuple(((f"o{p}",), tuple("abc"[: 1 + p % 3]))) for p in range(37)
        ]
        members += [members[0], ComponentTuple((("o1",), ("a", "b", "c")))]
        for i, transposes in ((0, True), (1, False)):
            comps = [m.components[i] for m in members]
            held = {lb for c in comps for lb in c}
            set_bits = sum(set(c) <= set(d) for c in comps for d in comps)
            missing = sum(len(held - set(c)) for c in set(comps))
            assert (set_bits <= missing) == transposes
        uniq, anti, sizes = _pairwise_reference(members, 2)
        report = check_n_ordered(members)
        assert report.uniqueness_violations == uniq and len(uniq) == 1
        assert report.antiordinal_violations == anti and anti
        assert report.per_dimension_relation_sizes == sizes

    def test_members_above_and_below_are_exact_bitsets(self):
        # Both ways of finding the members below, on the columns of the test
        # above, give exactly the positions of the member list, no others.
        members = [
            ComponentTuple(((f"o{p}",), tuple("abc"[: 1 + p % 3]))) for p in range(37)
        ]
        members += [members[0], ComponentTuple((("o1",), ("a", "b", "c")))]
        for i in (0, 1):
            comps, size = _numbered([m.components[i] for m in members])
            up, down, pairs = _up_down(comps, size)
            sets = list(map(set, comps))
            assert up == [sum(1 << q for q, d in enumerate(sets) if c <= d) for c in sets]
            assert down == [sum(1 << q for q, d in enumerate(sets) if d <= c) for c in sets]
            assert pairs == sum(map(int.bit_count, up))

    def test_empty_input(self):
        report = check_n_ordered([])
        assert report.ok
        assert report.per_dimension_relation_sizes == ()

    def test_nullary_members_are_all_equal(self):
        # no dimension tells 0-ary members apart, so each pair breaks uniqueness
        empty = ComponentTuple(())
        report = check_n_ordered([empty, ComponentTuple(()), empty])
        assert report.uniqueness_violations == ((empty, empty),)
        assert report.antiordinal_ok and report.per_dimension_relation_sizes == ()

    def test_rejects_bad_members(self):
        with pytest.raises(InputError, match="members have mixed arity"):
            check_n_ordered([box("1", "a"), box("1", "a", "b")])
        with pytest.raises(InputError, match="expected ComponentTuple or IntroducerRecord, got tuple"):
            check_n_ordered([("1", "a")])


def _random_box_lists():
    """40 seeded member lists of arity 1-4, as (arity, labels, members).

    The members are arbitrary boxes, not concepts, so both axioms are
    violated; some components are empty and some members repeat.  Every
    dimension draws from the same labels.
    """
    for seed in range(40):
        rng = random.Random(seed)
        n = 1 + seed % 4
        labels = [f"e{k}" for k in range(rng.randint(1, 4))]
        pool = [
            ComponentTuple(
                tuple(
                    tuple(lb for lb in labels if rng.random() < 0.5)
                    for _ in range(n)
                )
            )
            for _ in range(rng.randint(1, 8))
        ]
        yield n, labels, [rng.choice(pool) for _ in range(rng.randint(0, 12))]


def _realistic_member_lists():
    """(context, members) for the introducers and the concepts of seeded
    100x10 and 8x6x5 tables, each with a few members repeated and a few
    shrunk by one label, so that both axioms are violated far apart."""
    for shape, seed in (((100, 10), 0), ((100, 10), 1), ((8, 6, 5), 0)):
        ctx = generate_random(shape, 0.3, seed)
        for found in (introducers(ctx), list(enumerate_concepts(ctx))):
            members = [_tuple(m) for m in found]
            shrunk = [
                ComponentTuple((m.components[0][:-1], *m.components[1:]))
                for m in members[::13]
                if m.components[0]
            ]
            yield ctx, members + members[::17] + shrunk


def _tuple(member):
    return member.concept if isinstance(member, IntroducerRecord) else member


def _pairwise_reference(members, n):
    """Both axioms and the relation sizes by comparing every ordered pair."""
    sets = [[frozenset(c) for c in t.components] for t in members]
    uniq, anti, sizes = set(), set(), [0] * n
    for p, sp in enumerate(sets):
        for q, sq in enumerate(sets):
            if p == q:
                continue
            below = [sp[i] <= sq[i] for i in range(n)]
            above = [sq[i] <= sp[i] for i in range(n)]
            for i in range(n):
                sizes[i] += below[i]
            if p < q and all(below) and all(above):
                uniq.add((members[p], members[q]))
            for j in range(n):
                if all(below[i] for i in range(n) if i != j) and not above[j]:
                    anti.add((members[p], members[q]))

    def ordered(pairs):
        return tuple(sorted(pairs, key=lambda ab: (ab[0].components, ab[1].components)))

    return ordered(uniq), ordered(anti), tuple(sizes)


def _edges_as_components(diagram):
    return {
        (diagram.nodes[lo].component, diagram.nodes[hi].component)
        for lo, hi in diagram.edges
    }


class TestDimensionDiagram:
    def test_fig1_concepts_extent_diagram_recovers_cover_edges(self, fig1):
        diagram = dimension_diagram(fig1, list(enumerate_concepts(fig1)), 1)
        assert len(diagram.nodes) == 8
        expected = {
            (a.components[0], b.components[0]) for a, b in FIG1_COVER_EDGES
        }
        assert _edges_as_components(diagram) == expected

    def test_fig1_gsh_restriction(self, fig1):
        diagram = dimension_diagram(fig1, introducers(fig1), 1)
        assert len(diagram.nodes) == 6
        expected = {
            (a.components[0], b.components[0]) for a, b in FIG1_GSH_EDGES
        }
        assert _edges_as_components(diagram) == expected

    def test_singleton(self, fig1):
        diagram = dimension_diagram(fig1, [box("1", "ab")], 1)
        assert len(diagram.nodes) == 1
        assert diagram.edges == ()

    def test_fig3_introducers_dim1_classes(self, fig3):
        diagram = dimension_diagram(fig3, introducers(fig3), 1)
        # canonical node order is lexicographic over element indices
        assert [n.component for n in diagram.nodes] == [
            (), ("α",), ("α", "β"), ("β",),
        ]
        assert _edges_as_components(diagram) == {
            ((), ("α",)),
            ((), ("β",)),
            (("α",), ("α", "β")),
            (("β",), ("α", "β")),
        }

    def test_reduction_preserves_reachability(self):
        # reachability of the reduced diagram equals the raw inclusion order
        for seed in range(10):
            ctx = generate_random((3, 3, 3), 0.45, seed)
            members = list(enumerate_concepts(ctx))
            for d in ctx.dims:
                diagram = dimension_diagram(ctx, members, d.index)
                adj = {k: set() for k in range(len(diagram.nodes))}
                for lo, hi in diagram.edges:
                    adj[lo].add(hi)

                def reach(a):
                    seen, todo = set(), [a]
                    while todo:
                        for nxt in adj[todo.pop()]:
                            if nxt not in seen:
                                seen.add(nxt)
                                todo.append(nxt)
                    return seen

                comps = [frozenset(n.component) for n in diagram.nodes]
                for a in range(len(comps)):
                    expected = {
                        b
                        for b in range(len(comps))
                        if a != b and comps[a] < comps[b]
                    }
                    assert reach(a) == expected

    def test_matches_reference_on_random_boxes(self):
        for n, labels, members in _random_box_lists():
            ctx = NContext([(f"d{i}", labels) for i in range(n)], [])
            for i in range(n):
                diagram = dimension_diagram(ctx, members, i + 1)
                assert diagram.dimension == i + 1
                nodes, edges = _diagram_reference([labels] * n, members, i)
                assert [(nd.component, nd.members) for nd in diagram.nodes] == nodes
                assert diagram.edges == edges

    def test_matches_reference_at_realistic_size(self):
        # more than 30 classes, so the bitsets span several int digits
        for ctx, members in _realistic_member_lists():
            orders = [d.elements for d in ctx.dims]
            for i in range(ctx.arity):
                diagram = dimension_diagram(ctx, members, i + 1)
                nodes, edges = _diagram_reference(orders, members, i)
                assert [(nd.component, nd.members) for nd in diagram.nodes] == nodes
                assert diagram.edges == edges

    def test_rejects_bad_members(self, fig1):
        # wrong arity both ways, unknown labels, then non-canonical components
        # (unsorted, repeated), which would put one set in two classes
        for bad in (
            box("1", "a", "a"), box("1"), box("9", "a"), box("1", "z"),
            box("1", "ba"), box("11", "a"),
        ):
            with pytest.raises(InputError):
                dimension_diagram(fig1, [box("1", "ab"), bad], 1)
        with pytest.raises(InputError, match="expected ComponentTuple or IntroducerRecord, got tuple"):
            dimension_diagram(fig1, [("1", "a")], 1)

    def test_classes_partition_members(self, fig3):
        members = list(enumerate_concepts(fig3))
        diagram = dimension_diagram(fig3, members, 2)
        spread = [m for node in diagram.nodes for m in node.members]
        assert sorted(spread, key=fig3.sort_key) == sorted(
            members, key=fig3.sort_key
        )


def _diagram_reference(orders, members, i):
    """Classes, their members and covering edges of dimension i, by comparing
    frozensets pairwise; dimension j is ordered like ``orders[j]``."""

    def key(comp, j):
        return tuple(orders[j].index(lb) for lb in comp)

    ordered = sorted(
        members, key=lambda m: tuple(key(c, j) for j, c in enumerate(m.components))
    )
    comps = sorted({m.components[i] for m in members}, key=lambda c: key(c, i))
    nodes = [
        (c, tuple(m for m in ordered if m.components[i] == c)) for c in comps
    ]
    sets = [frozenset(c) for c in comps]
    edges = tuple(
        (a, b)
        for a, sa in enumerate(sets)
        for b, sb in enumerate(sets)
        if sa < sb and not any(sa < sc < sb for sc in sets)
    )
    return nodes, edges


class TestGsh2d:
    def test_fig1(self, fig1):
        diagram = gsh_2d(fig1)
        assert len(diagram.nodes) == 6
        assert len(diagram.edges) == 6
        expected = {
            (a.components[0], b.components[0]) for a, b in FIG1_GSH_EDGES
        }
        assert _edges_as_components(diagram) == expected
        # node labels carry what each concept introduces
        for node in diagram.nodes:
            (record,) = node.members
            assert record.introduces

    def test_single_cross_introduces_both_sides(self):
        ctx = NContext([("d1", "o"), ("d2", "a")], [("o", "a")])
        diagram = gsh_2d(ctx)
        assert len(diagram.nodes) == 1
        (record,) = diagram.nodes[0].members
        assert dict(record.introduces) == {1: ("o",), 2: ("a",)}

    def test_empty_relation_two_nodes(self):
        ctx = NContext([("d1", "abc"), ("d2", "xy")], [])
        diagram = gsh_2d(ctx)
        assert [n.component for n in diagram.nodes] == [(), ("a", "b", "c")]
        # the empty extent sits below the full one
        assert diagram.edges == ((0, 1),)

    def test_size_bound(self):
        for seed in range(10):
            ctx = generate_random((5, 4), 0.3, seed)
            assert len(gsh_2d(ctx).nodes) <= 9

    def test_arity_guard(self, fig3):
        with pytest.raises(ArityError):
            gsh_2d(fig3)


class TestIndexSources:
    """``check_n_ordered`` reads the index keys of members that one context
    made, and numbers the labels of any other list as first seen; the two
    give one report."""

    @staticmethod
    def _variants(ctx, members):
        """The library-made members, their pickle round trips and box
        rebuilds (no key), and a list mixing them with an equal context's."""
        twin = parse_context(serialize_tuples(ctx))  # equal, but other dims
        tuples = [_tuple(m) for m in members]
        yield members
        yield pickle.loads(pickle.dumps(members))
        yield [ctx.box(*t.components) for t in tuples]
        yield [twin._labelled(ctx.sort_key(t)) if p % 2 else t for p, t in enumerate(tuples)]

    def _check(self, ctx, members):
        made, *others = self._variants(ctx, members)
        assert all(_tuple(m)._dims is ctx.dims for m in made)
        report = check_n_ordered(made)
        uniq, anti, sizes = _pairwise_reference([_tuple(m) for m in made], ctx.arity)
        assert report.uniqueness_violations == uniq
        assert report.antiordinal_violations == anti
        assert report.per_dimension_relation_sizes == sizes
        for members in others:
            assert not all(_tuple(m)._dims is ctx.dims for m in members)
            assert check_n_ordered(members) == report
        return report

    def test_introducers_with_a_duplicated_member(self):
        ctx = generate_random((6, 5, 4), 0.5, 3)
        records = list(introducers(ctx))
        report = self._check(ctx, records + records[2:3])
        assert report.uniqueness_violations and report.antiordinal_ok

    def test_hand_built_list_breaking_antiordinal_dependency(self, fig1):
        # labels first seen out of element order: c, b before a
        keys = [((2,), (2,)), ((1, 2), (1, 2)), ((0, 1, 2), (0,)), ((0, 1), ())]
        report = self._check(fig1, [fig1._labelled(k) for k in keys])
        assert report.antiordinal_violations and report.uniqueness_ok
