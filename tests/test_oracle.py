import hashlib
import inspect
import random
import sys

import pytest

from widthiso import (
    Graph,
    InternalError,
    apply_permutation,
    brute_force_iso,
    compose_permutations,
    enumerate_connected_graphs,
    identity_permutation,
    inverse_permutation,
    is_connected,
    is_isomorphism,
    is_permutation,
    iso_tdw,
    iso_tw,
    random_relabel,
)
from widthiso import oracle
from widthiso.oracle import canonical_code

from helpers import cycle_graph, path_graph, petersen_graph, random_narrow_graph, star_graph


def test_permutation_helpers():
    assert identity_permutation(3) == (0, 1, 2)
    assert is_permutation((2, 0, 1)) and not is_permutation((0, 0, 1))
    assert inverse_permutation((2, 0, 1)) == (1, 2, 0)
    assert compose_permutations((2, 0, 1), (1, 2, 0)) == (0, 1, 2)


def test_is_isomorphism_refuses_sizes_non_permutations_and_edge_counts():
    p2 = path_graph(2)
    assert is_isomorphism(p2, p2, (1, 0))
    assert not is_isomorphism(p2, path_graph(3), (1, 0))
    assert not is_isomorphism(p2, p2, (0,))
    assert not is_isomorphism(p2, p2, (0, 0))
    assert not is_isomorphism(p2, Graph(2), (0, 1))


def test_apply_permutation_preserves_structure():
    g = path_graph(4)
    h = apply_permutation(g, (3, 1, 0, 2))
    assert h.edge_count == g.edge_count
    assert is_isomorphism(g, h, (3, 1, 0, 2))
    with pytest.raises(ValueError):
        apply_permutation(g, (0, 0, 1, 2))


def test_brute_force_identity():
    g = cycle_graph(5)
    perm = brute_force_iso(g, g)
    assert perm is not None and is_isomorphism(g, g, perm)


def test_brute_force_distinguishes_triangle_and_path():
    assert brute_force_iso(cycle_graph(3), path_graph(3)) is None


def test_brute_force_petersen_relabeling():
    g = petersen_graph()
    h, _ = random_relabel(g, 12345)
    perm = brute_force_iso(g, h)
    assert perm is not None and is_isomorphism(g, h, perm)


def test_brute_force_deep_search_without_recursion():
    # The search maps one vertex per level; 1,500 levels run on an explicit
    # stack, well past a recursion limit of the current depth + 100.
    g = path_graph(1500)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        perm = brute_force_iso(g, g)
    finally:
        sys.setrecursionlimit(limit)
    assert perm == tuple(range(1500))


def test_brute_force_symmetry():
    pool = [
        (path_graph(4), star_graph(3)),
        (cycle_graph(5), cycle_graph(5)),
        (cycle_graph(6), Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)])),
        (random_relabel(petersen_graph(), 3)[0], petersen_graph()),
    ]
    for g, h in pool:
        assert (brute_force_iso(g, h) is None) == (brute_force_iso(h, g) is None)


KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_enumerator_counts_match_known_values():
    for n, expected in KNOWN_CONNECTED_COUNTS.items():
        assert len(enumerate_connected_graphs(n)) == expected


@pytest.mark.parametrize("n", [0, 9])
def test_enumerator_refuses_sizes_outside_its_range(n):
    with pytest.raises(ValueError, match="supports 1..8 vertices"):
        enumerate_connected_graphs(n)


def test_canonical_code_of_graphs_without_edge_slots():
    # Graphs on at most one vertex have no vertex pair to hold an edge.
    assert canonical_code(Graph(0)) == canonical_code(Graph(1)) == 0
    assert canonical_code(Graph(2, [(0, 1)])) == 1


def test_enumerator_output_is_pinned():
    # Classes are found by an invariant and brute_force_iso, and ordered by
    # one canonical_code per class: the representatives and their order are
    # those of deduplicating every candidate by its canonical_code.
    adjacency = [g._adj for n in range(1, 8) for g in enumerate_connected_graphs(n)]
    assert hashlib.sha256(repr(adjacency).encode()).hexdigest() == (
        "9231c360d16974fff5992f38778b3fca1a542281705c5d383b5ce6b094ef8fd1"
    )


def test_enumerator_members_are_connected_and_distinct():
    for n in range(1, 7):
        graphs = enumerate_connected_graphs(n)
        for g in graphs:
            assert g.vertex_count == n and is_connected(g)
        for i in range(len(graphs)):
            for j in range(i + 1, len(graphs)):
                assert brute_force_iso(graphs[i], graphs[j]) is None


def test_tree_engines_agree_with_the_oracle():
    """iso_tdw and iso_tw at width 1 agree with brute_force_iso on random
    trees, each against a relabelled copy or a relabelled twin with one
    leaf moved."""
    rng = random.Random(2026)
    verdicts = set()
    for trial in range(200):
        n = rng.randint(2, 12)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        twin = edges
        if trial % 2 and n >= 3:
            g = Graph(n, edges)
            leaf = rng.choice([v for v in range(n) if g.degree(v) == 1])
            (old,) = g.neighbors(leaf)
            new = rng.choice([v for v in range(n) if v not in (leaf, old)])
            twin = [e for e in edges if leaf not in e] + [(leaf, new)]
        g = Graph(n, edges)
        h, _ = random_relabel(Graph(n, twin), seed=trial)
        expected = brute_force_iso(g, h) is not None
        assert iso_tdw(g, h, 1) == iso_tw(g, h, 1) == expected, (edges, twin)
        verdicts.add(expected)
    assert verdicts == {False, True}


def test_width_two_engines_agree_with_the_oracle():
    """iso_tdw at width 2, iso_tw at width 3 and brute_force_iso agree on
    random graphs of tree distance width 2, each against a relabelled copy
    and against a relabelled connected twin with one edge moved.  A tree
    distance decomposition of width w gives a tree decomposition of width
    2w - 1, so every graph here fits both bounds."""
    rng = random.Random(2027)
    verdicts = []
    for trial in range(100):
        n = rng.randint(8, 14)
        g = random_narrow_graph(rng, n)
        while True:
            moved = rng.choice(sorted(g.edges))
            added = rng.choice([(u, v) for u in range(n) for v in range(u + 1, n)
                                if (u, v) not in g.edges])
            twin = Graph(n, [e for e in g.edges if e != moved] + [added])
            if is_connected(twin):
                break
        for partner in (g, twin):
            h, _ = random_relabel(partner, seed=trial + 1)
            expected = brute_force_iso(g, h) is not None
            assert iso_tdw(g, h, 2) == iso_tw(g, h, 3) == expected, (g.edges, h.edges)
            verdicts.append(expected)
    assert len(verdicts) == 200 and set(verdicts) == {False, True}


def test_brute_force_iso_checks_the_map_it_found(monkeypatch):
    # The backtracking's map is checked before it is returned: a check that
    # refuses it turns into an InternalError, never a wrong witness.
    monkeypatch.setattr(oracle, "is_isomorphism", lambda g, h, perm: False)
    with pytest.raises(InternalError, match="not an isomorphism"):
        brute_force_iso(cycle_graph(5), cycle_graph(5))


def test_enumerator_refuses_classes_that_share_a_code(monkeypatch):
    # The path and the triangle on three vertices are two classes; a code
    # that cannot tell them apart is refused, not used to merge them.
    monkeypatch.setattr(oracle, "canonical_code", lambda g: 0)
    oracle.enumerate_connected_graphs.cache_clear()
    try:
        with pytest.raises(InternalError, match="share a canonical code"):
            oracle.enumerate_connected_graphs(3)
    finally:
        oracle.enumerate_connected_graphs.cache_clear()
