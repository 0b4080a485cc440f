"""Quasi-orders, the two structural axioms, and covering diagrams."""

import random

import pytest

from polyconcept import (
    ArityError,
    ComponentTuple,
    InputError,
    NContext,
    check_n_ordered,
    dimension_diagram,
    enumerate_concepts,
    generate_random,
    gsh_2d,
    introducers,
    leq,
)

from conftest import FIG1_COVER_EDGES, FIG1_GSH_EDGES, box


class TestLeq:
    def test_subset_in_first_dimension(self):
        assert leq(box("α", "1", "ab"), box("αβ", "13", "a"), 1)

    def test_not_subset_in_second_dimension(self):
        assert not leq(box("αβ", "13", "a"), box("α", "1", "ab"), 2)

    def test_reflexive(self):
        t = box("αβ", "13", "a")
        for i in (1, 2, 3):
            assert leq(t, t, i)

    def test_transitive_on_fig1_concepts(self, fig1):
        found = list(enumerate_concepts(fig1))
        for a in found:
            for b in found:
                for c in found:
                    if leq(a, b, 1) and leq(b, c, 1):
                        assert leq(a, c, 1)

    def test_accepts_records(self, fig1):
        records = introducers(fig1)
        assert leq(records[0], records[0], 1)

    def test_range_errors(self):
        with pytest.raises(InputError):
            leq(box("α", "1", "a"), box("α", "1", "a"), 4)
        with pytest.raises(InputError):
            leq(box("α", "1"), box("α", "1", "a"), 1)


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

    def test_empty_input(self):
        report = check_n_ordered([])
        assert report.ok
        assert report.per_dimension_relation_sizes == ()


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
                nodes, edges = _diagram_reference(labels, members, i)
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

    def test_classes_partition_members(self, fig3):
        members = list(enumerate_concepts(fig3))
        diagram = dimension_diagram(fig3, members, 2)
        spread = [m for node in diagram.nodes for m in node.members]
        assert sorted(spread, key=fig3.sort_key) == sorted(
            members, key=fig3.sort_key
        )


def _diagram_reference(labels, members, i):
    """Classes, their members and covering edges of dimension i, by comparing
    frozensets pairwise; every dimension is ordered like ``labels``."""

    def key(comp):
        return tuple(labels.index(lb) for lb in comp)

    ordered = sorted(members, key=lambda m: tuple(key(c) for c in m.components))
    comps = sorted({m.components[i] for m in members}, key=key)
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
