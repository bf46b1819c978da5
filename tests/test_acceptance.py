"""End-to-end acceptance suite.

Every test prints one PASS line with its statistics; run with `pytest -s
tests/test_acceptance.py -v` to watch them.  The exhaustive families are the
connected graphs on up to seven vertices, one representative per
isomorphism class, filtered by the width bound under test; the brute-force
oracle is the reference on every pair.
"""

import random
from functools import lru_cache

from widthiso import (
    Graph,
    TreeDecomposition,
    brute_force_iso,
    build_augmented_tree,
    build_minimal_tdd,
    canon_tdw,
    canonical_map,
    compare_augmented,
    compose_permutations,
    compute_tree_decomposition,
    connected_components,
    enumerate_connected_graphs,
    full_theta,
    generate_partial_ktree,
    inverse_permutation,
    is_isomorphism,
    iso_one_decomp,
    iso_respecting_both,
    iso_tdw,
    iso_tw,
    random_relabel,
    set_distance,
    tree_distance_width,
    validate_tdd,
)
from itertools import combinations, combinations_with_replacement, product

from helpers import random_narrow_graph


@lru_cache(maxsize=None)
def all_connected(max_n: int = 7):
    out = []
    for n in range(1, max_n + 1):
        out.extend(enumerate_connected_graphs(n))
    return tuple(out)


@lru_cache(maxsize=None)
def tdw2_family():
    return tuple(g for g in all_connected() if tree_distance_width(g, 2) is not None)


@lru_cache(maxsize=None)
def tw2_family():
    out = []
    for g in all_connected():
        d = compute_tree_decomposition(g, 2)
        if d is not None:
            out.append((g, d))
    return tuple(out)


def test_criterion_1_exhaustive_tdw_oracle_agreement():
    family = tdw2_family()
    pairs = 0
    for i in range(len(family)):
        for j in range(i, len(family)):
            a, b = family[i], family[j]
            expected = brute_force_iso(a, b) is not None
            assert iso_tdw(a, b, 2) == expected, (a, b)
            pairs += 1
    print(
        f"\nPASS criterion 1: iso_tdw agrees with the oracle on all {pairs} pairs "
        f"of the {len(family)} connected graphs (n<=7, tree distance width <= 2)"
    )


def test_criterion_2_canon_completeness():
    family = tdw2_family()
    forms = [canon_tdw(g, 2) for g in family]
    # distinct representatives must get distinct forms, and the only
    # collision candidates share (n, m, degrees): recheck those by oracle
    by_form = {}
    for g, form in zip(family, forms):
        assert form not in by_form, (g, by_form[form])
        by_form[form] = g
    checked = 0
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            a, b = family[i], family[j]
            if (a.vertex_count, a.degree_sequence()) != (
                b.vertex_count,
                b.degree_sequence(),
            ):
                continue
            assert brute_force_iso(a, b) is None
            assert forms[i] != forms[j]
            checked += 1

    rng = random.Random(20240)
    trials = 1000
    for _ in range(trials):
        g = random_narrow_graph(rng, rng.randint(3, 20))
        h, _ = random_relabel(g, rng.randint(1, 10**9))
        assert canon_tdw(g, 2) == canon_tdw(h, 2)
        map_g = canonical_map(g, 2)
        map_h = canonical_map(h, 2)
        iso = compose_permutations(inverse_permutation(map_h), map_g)
        assert is_isomorphism(g, h, iso)
    print(
        f"\nPASS criterion 2: canon forms distinct across all {len(family)} classes "
        f"({checked} same-degree pairs oracle-checked) and invariant with verified "
        f"canonical maps over {trials} random relabeling trials (n<=20, k<=2)"
    )


def test_criterion_3_exhaustive_tw_oracle_agreement():
    family = tw2_family()
    pairs = 0
    one_decomp_pairs = 0
    for i in range(len(family)):
        for j in range(i, len(family)):
            (a, da), (b, db) = family[i], family[j]
            expected = brute_force_iso(a, b) is not None
            assert iso_tw(a, b, 2) == expected, (a, b)
            pairs += 1
            if a.vertex_count == b.vertex_count:
                got = iso_one_decomp(a, da, b, 2)
                assert (got is not None) == expected, (a, b)
                if got is not None:
                    assert is_isomorphism(a, b, got)
                one_decomp_pairs += 1
    print(
        f"\nPASS criterion 3: iso_tw ({pairs} pairs) and iso_one_decomp "
        f"({one_decomp_pairs} equal-size pairs) agree with the oracle on the "
        f"{len(family)} connected graphs (n<=7, treewidth <= 2)"
    )


def test_width_3_exhaustive_oracle_agreement():
    # Criterion 3 stops at treewidth 2.  Here every connected 6-vertex graph
    # of treewidth <= 3 and every 6-vertex union of two connected graphs
    # (3 + 3 and 2 + 4 vertices) is paired with each graph of its degree
    # sequence and with a relabelled copy of it.  Unions against graphs with
    # other components reach the component key with equal degree sequences.
    connected = [g for g in enumerate_connected_graphs(6) if compute_tree_decomposition(g, 3)]
    unions = [
        Graph(6, list(a.edges) + [(u + a.vertex_count, v + a.vertex_count) for u, v in b.edges])
        for a, b in list(combinations_with_replacement(enumerate_connected_graphs(3), 2))
        + list(product(enumerate_connected_graphs(2), enumerate_connected_graphs(4)))
    ]
    family = connected + unions
    sizes = [sorted(map(len, connected_components(g))) for g in family]
    rng = random.Random(6)
    calls = non_iso = split = 0
    for i, a in enumerate(family):
        d_a = compute_tree_decomposition(a, 3)
        for j in range(i, len(family)):
            b = family[j]
            if a.degree_sequence() != b.degree_sequence():
                continue
            split += sizes[i] != sizes[j]
            for partner in (b, random_relabel(b, rng.randrange(1, 1 << 30))[0]):
                expected = brute_force_iso(a, partner) is not None
                assert iso_tw(a, partner, 3) == expected, (a, partner)
                got = iso_one_decomp(a, d_a, partner, 3)
                assert (got is not None) == expected, (a, partner)
                assert got is None or is_isomorphism(a, partner, got)
                calls += 1
                non_iso += not expected
    assert len(connected) == 102 and split
    print(
        f"\nPASS width 3: iso_tw and iso_one_decomp agree with the oracle on {calls} "
        f"calls ({non_iso} non-isomorphic; {split} pairs with equal degrees and "
        f"different component sizes) over {len(connected)} connected 6-vertex graphs "
        f"of treewidth <= 3 and {len(unions)} unions of two components"
    )


def test_criterion_4_randomized_scale():
    ratios = (0.6, 0.8, 1.0)
    matched = 0
    verdicts = 0
    for idx in range(200):
        seed = 1000 + idx
        n = 8 + (idx * 5) % 23  # 8..30
        k = 1 + idx % 3
        ratio = ratios[idx % 3]
        bundle = generate_partial_ktree(n, k, ratio, seed)
        relabeled, _ = random_relabel(bundle.graph, seed + 10**6)
        perm = iso_one_decomp(bundle.graph, bundle.decomposition, relabeled, k)
        assert perm is not None, (n, k, ratio, seed)
        assert is_isomorphism(bundle.graph, relabeled, perm)
        matched += 1
        if n <= 12:
            partner = None
            for probe in range(1, 40):
                candidate = generate_partial_ktree(n, k, ratio, seed + 10**4 + probe)
                if candidate.graph.edge_count == bundle.graph.edge_count:
                    partner = candidate
                    break
            if partner is None:
                continue
            expected = brute_force_iso(bundle.graph, partner.graph) is not None
            got = iso_one_decomp(bundle.graph, bundle.decomposition, partner.graph, k)
            assert (got is not None) == expected, (n, k, ratio, seed)
            verdicts += 1
    print(
        f"\nPASS criterion 4: {matched} relabeled bundles matched with verified maps; "
        f"{verdicts} equal-count independent pairs agreed with the oracle (n<=12)"
    )


def test_criterion_5_decomposition_validity():
    built = 0
    for g in all_connected():
        n = g.vertex_count
        roots = [(v,) for v in range(n)]
        roots += list(combinations(range(n), 2))
        for root in roots:
            d = build_minimal_tdd(g, root)
            assert validate_tdd(g, d) == [], (g, root)
            root_bag = d.bags[d.root]
            for i, bag in enumerate(d.bags):
                for v in bag:
                    assert set_distance(g, root_bag, v) == d.depth[i]
            built += 1
    print(
        f"\nPASS criterion 5: {built} decompositions over all connected graphs "
        f"(n<=7) and all root sets of size <= 2 valid, depths equal distances"
    )


def test_criterion_6_order_laws():
    pool_graphs = []
    for g in all_connected():
        if 4 <= g.vertex_count <= 6:
            pool_graphs.append(g)
        if len(pool_graphs) == 55:
            break
    trees = [(g, build_augmented_tree(g, build_minimal_tdd(g, [0]))) for g in pool_graphs]
    size = len(trees)
    results = [[0] * size for _ in range(size)]
    for i, (ga, ta) in enumerate(trees):
        for j, (gb, tb) in enumerate(trees):
            theta = full_theta(ta.handle(), tb.handle())
            results[i][j] = compare_augmented(
                ga, ta.handle(), gb, tb.handle(), theta
            ).value
    for i in range(size):
        assert results[i][i] == 0
        for j in range(size):
            assert results[i][j] == -results[j][i], (i, j)
    for i in range(size):
        for j in range(size):
            for k in range(size):
                if results[i][j] <= 0 and results[j][k] <= 0:
                    assert results[i][k] <= 0, (i, j, k)
                    if results[i][j] < 0 or results[j][k] < 0:
                        assert results[i][k] < 0, (i, j, k)
    print(
        f"\nPASS criterion 6: antisymmetry on all {size * size} ordered pairs and "
        f"transitivity on all {size ** 3} triples of a {size}-graph pool"
    )


def test_criterion_7_blockwise_respect_separation():
    c4 = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    fine = TreeDecomposition(
        bags=((0, 1, 3), (1, 2, 3), (2, 3)),
        tree_edges=frozenset({(0, 1), (1, 2)}),
        root=0,
    )
    coarse = TreeDecomposition(bags=((0, 1, 2, 3),), tree_edges=frozenset(), root=0)
    assert brute_force_iso(c4, c4) is not None
    assert not iso_respecting_both(c4, fine, c4, coarse)
    print(
        "\nPASS criterion 7: isomorphic graphs with incompatible decompositions "
        "admit no blockwise map while the oracle finds a plain isomorphism"
    )
