"""The all-sources ball sweep behind transmissions, eccentricities, the
diameter and per-edge counts: block widths, graphs past the exhaustive
range, the tree, bipartite and diameter <= 2 routes that skip the general
sweep's per-edge work, and the one- and two-vertex graphs where the sweep
only starts."""

import json
import random
from itertools import combinations, zip_longest

import pytest

import helpers
from distbalance import (
    Graph,
    complete_graph,
    cycle_graph,
    diameter,
    from_edge_list,
    imbalance_report,
    path_graph,
    szeged_index,
    write_edge_list,
)
from distbalance import analysis, construct_closure, graph
from distbalance.analysis import report_with_diameter
from distbalance.cli import main
from distbalance.graph import _ball_sweep
from distbalance.trees import FAMILIES, FamilyTag, broom, canonical_family_tree


def random_tree(n: int, rng: random.Random) -> Graph:
    return from_edge_list(n, [(rng.randrange(v), v) for v in range(1, n)])


def hypercube(k: int) -> Graph:
    return from_edge_list(1 << k, [(v, v ^ 1 << i) for v in range(1 << k)
                                   for i in range(k) if v < v ^ 1 << i])


def torus(a: int, b: int) -> Graph:
    return from_edge_list(a * b, [(i * b + j, i2 * b + j2)
                                  for i in range(a) for j in range(b)
                                  for i2, j2 in (((i + 1) % a, j), (i, (j + 1) % b))])


def random_connected(n: int, extra: int, rng: random.Random) -> Graph:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += rng.sample(list(combinations(range(n), 2)), extra)
    return from_edge_list(n, edges)


def tree_with_triangle(n: int, rng: random.Random) -> Graph:
    """A random tree plus the chord from one vertex to its grandparent."""
    parent = [0] + [rng.randrange(v) for v in range(1, n)]
    v = rng.choice([v for v in range(1, n) if parent[v]])
    return from_edge_list(n, [(parent[u], u) for u in range(1, n)] + [(parent[parent[v]], v)])


def assert_matches_oracle(g: Graph) -> None:
    """Transmissions, eccentricities, records, Szeged index, plain check and
    diameter against queue-BFS distance rows and the per-edge definition."""
    edges = g.edges()
    rows = [helpers.bfs_distances(g.n, edges, v) for v in range(g.n)]
    trans, diam, _ = _ball_sweep(g.adj)
    assert (trans, diam) == ([sum(row) for row in rows], max(map(max, rows)))
    expected = helpers.edge_balance_oracle(g)
    records = [(r.x, r.y, r.closer_to_x, r.closer_to_y)
               for r in imbalance_report(g).records]
    assert records == expected
    assert szeged_index(g) == sum(cx * cy for _, _, cx, cy in expected)
    worst, diam, _ = report_with_diameter(g, records=False)
    assert (worst is None, worst, diam) == helpers.plain_check_oracle(g)
    assert diameter(g) == max(max(row) for row in rows)


@pytest.mark.parametrize("width", [1, 3, 64])
def test_block_width_does_not_change_results(monkeypatch, random_corpus, width):
    """Ball columns in blocks narrower than n add up to the one-block counts."""
    monkeypatch.setattr(graph, "_BLOCK", width)
    rng = random.Random(width)
    graphs = random_corpus[:60] + [
        random_tree(width + 1, rng), random_tree(2 * width + 5, rng),
        random_tree(90, rng), random_connected(80, 40, rng),
        cycle_graph(70), hypercube(7), torus(6, 12), broom(70),
        complete_graph(66), canonical_family_tree(FamilyTag.S3, 64),
        # trees and bipartite graphs skip the blocks or the parity sets, so these
        # keep long-diameter inputs on the general sweep at every width
        cycle_graph(71), torus(5, 12), tree_with_triangle(90, rng),
    ]
    for g in graphs:
        assert_matches_oracle(g)


def _refuse(*args):
    raise AssertionError("general sweep step taken")


def test_odd_block_inputs_take_the_parity_sets(monkeypatch):
    """Odd cycles, odd tori and trees plus a triangle, the block test's
    general-sweep inputs, are not bipartite: their per-edge counts come from
    the sweep's parity XOR."""
    monkeypatch.setattr(graph, "xor", _refuse)
    for g in (cycle_graph(71), torus(5, 12), tree_with_triangle(90, random.Random(1))):
        with pytest.raises(AssertionError, match="general sweep"):
            _ball_sweep(g.adj, g.edges())


@pytest.mark.parametrize("g", [cycle_graph(71), torus(5, 12)], ids=["C71", "T5x12"])
def test_sweep_step_ors_each_neighbour_column_after_the_first(monkeypatch, g):
    """For d >= 1 the union of B_d(w) over w in N(u) holds B_d(u), so a step
    starts from the first neighbour column's gather: on an r-regular graph in
    one block it makes n (r - 1) ORs, where ORing each ball with its own
    previous ball too made n r.  The diameter - 1 steps end at the diameter."""
    real, calls = graph.or_, []
    monkeypatch.setattr(graph, "or_", lambda a, b: calls.append(1) or real(a, b))
    r = g.max_degree()
    assert g.min_degree() == r and g.n <= graph._BLOCK
    diam = _ball_sweep(g.adj, g.edges())[1]
    assert diam == {71: 35, 60: 8}[g.n]
    assert len(calls) == (diam - 1) * g.n * (r - 1)


def ring_of_cliques(cliques: int, size: int) -> Graph:
    """``cliques`` copies of K_size in a ring, each joined to the next by one edge."""
    return from_edge_list(cliques * size, [
        (c * size + a, c * size + b) for c in range(cliques)
        for a, b in combinations(range(size), 2)] + [
        (c * size + size - 1, (c + 1) % cliques * size) for c in range(cliques)])


def lollipop(k: int) -> Graph:
    """K_k with a k-vertex path hanging from its vertex k - 1."""
    return from_edge_list(2 * k, [*combinations(range(k), 2),
                                  *((v, v + 1) for v in range(k - 1, 2 * k - 1))])


@pytest.mark.parametrize("width", [1, 3, 64])
def test_dense_long_diameter_inputs_match_the_oracle(monkeypatch, width):
    """Dense graphs that are not bipartite, with diameters far past 2, take the
    general sweep's parity sets over many steps at every block width."""
    monkeypatch.setattr(graph, "_BLOCK", width)
    for g in (ring_of_cliques(11, 6), ring_of_cliques(12, 5), lollipop(33), lollipop(36)):
        assert not _takes_the_route(g)
        assert_matches_oracle(g)


@pytest.mark.parametrize("g,balanced", [
    (cycle_graph(71), True), (hypercube(5), True), (complete_graph(9), True),
    (random_tree(40, random.Random(40)), False), (lollipop(33), False),
], ids=["C71", "Q5", "K9", "tree40", "lollipop33"])
def test_balanced_reports_reuse_one_count_list(g, balanced):
    """On a transmission-regular graph |closer to x| - |closer to y| = D(y) -
    D(x) = 0 on every edge, so one list holds both sides' counts; on any
    other graph the far side is a list of its own.  Either way the records
    and the Szeged index are the per-edge definition's."""
    edges, near, far, _, _ = analysis._closer_counts(g)
    assert (near is far) is balanced
    expected = helpers.edge_balance_oracle(g)
    assert [(x, y, cx, cy) for (x, y), cx, cy in zip(edges, near, far)] == expected
    assert_matches_oracle(g)


def _cli_results(capsys, tmp_path, g):
    """The JSON result and input diameter of check, check --report and szeged."""
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    out = []
    for argv in (["check"], ["check", "--report"], ["szeged"]):
        main([argv[0], str(path), *argv[1:], "--json"])
        report = json.loads(capsys.readouterr().out)
        out.append((report["input"]["diameter"], report["result"]))
    return out


def _oracle_results(g):
    records = helpers.edge_balance_oracle(g)
    balanced, worst, diam = helpers.plain_check_oracle(g)
    worst = worst and list(worst)
    return [(diam, {"balanced": balanced, "worst_edge": worst}),
            (diam, {"balanced": balanced, "worst_edge": worst,
                    "records": [list(r) for r in records]}),
            (diam, {"szeged_index": sum(cx * cy for _, _, cx, cy in records)})]


def _takes_the_route(g: Graph) -> bool:
    return 2 * g.min_degree() >= g.n - 1 or g.max_degree() == g.n - 1


def _assert_route(monkeypatch, g: Graph) -> None:
    """The oracle's answers, from a ball sweep that takes no BFS: the degrees
    alone prove the graph connected with diameter <= 2."""
    assert_matches_oracle(g)
    with monkeypatch.context() as patched:
        patched.setattr(graph, "_levels", _refuse)
        _ball_sweep(g.adj, g.edges())


def test_dense_route_on_every_small_graph(monkeypatch, small_connected_graphs):
    """Every labelled connected graph with n <= 6 that has 2 delta >= n - 1 or
    a dominant vertex (two non-adjacent vertices then share a neighbour)
    takes the route, and every other one takes vertex 0's BFS."""
    graphs = [g for graphs in small_connected_graphs.values() for g in graphs]
    route = [g for g in graphs if _takes_the_route(g)]
    assert len(route) == 6539
    for g in route:
        _assert_route(monkeypatch, g)
    monkeypatch.setattr(graph, "_levels", _refuse)
    for g in graphs:
        if not _takes_the_route(g):
            with pytest.raises(AssertionError, match="general sweep"):
                _ball_sweep(g.adj)


def test_c5_takes_the_route_and_c6_the_sweep(monkeypatch):
    """C5 (2 delta = n - 1) has diameter 2; C6 (2 delta = n - 2) has diameter 3
    and needs the BFS of vertex 0."""
    _assert_route(monkeypatch, cycle_graph(5))
    assert _ball_sweep(cycle_graph(5).adj)[1] == 2
    assert_matches_oracle(cycle_graph(6))
    monkeypatch.setattr(graph, "_levels", _refuse)
    with pytest.raises(AssertionError, match="general sweep"):
        _ball_sweep(cycle_graph(6).adj)


def test_diameter_2_sweep_ends_its_first_step_early(monkeypatch):
    """A diameter-2 graph below the route's threshold takes the general sweep,
    whose first step ends once every ball is full: it draws fewer neighbour
    columns than the graph's largest degree."""
    rng = random.Random(45)
    g = from_edge_list(80, [pair for pair in combinations(range(80), 2) if rng.random() < 0.45])
    assert not _takes_the_route(g)
    assert_matches_oracle(g)
    drawn = []

    def counted(*rows):
        for column in zip_longest(*rows):
            drawn.append(column)
            yield column

    monkeypatch.setattr(graph, "zip_longest", counted)
    assert _ball_sweep(g.adj)[1] == 2
    assert 0 < len(drawn) < g.max_degree()


def _with_least_degree(n: int, low: int, rng: random.Random) -> Graph:
    """A random graph on n vertices whose least degree is ``low``: K_n minus
    random pairs that leave every degree at least ``low``, taken until a random
    share of the pairs is seen and some vertex is down to ``low``."""
    cap, share = n - 1 - low, rng.random()
    lost, missing = [0] * n, []
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    for i, (u, v) in enumerate(pairs):
        if i > share * len(pairs) and cap in lost:
            break
        if lost[u] < cap and lost[v] < cap:
            missing.append((u, v))
            lost[u] += 1
            lost[v] += 1
    return helpers.complete_minus(n, missing)


@pytest.mark.parametrize("n", range(20, 71, 5))
def test_random_graphs_around_the_route_threshold(monkeypatch, n):
    """2 delta = n - 1 (odd n) or n takes the route; 2 delta = n - 2 (even n)
    takes the sweep unless some vertex is dominant."""
    rng = random.Random(n)
    for twice_low in (n - 2, n - 1, n):
        if twice_low % 2:
            continue
        for _ in range(3):
            g = _with_least_degree(n, twice_low // 2, rng)
            assert 2 * g.min_degree() == twice_low
            if _takes_the_route(g):
                _assert_route(monkeypatch, g)
            else:
                assert_matches_oracle(g)


def test_dominant_vertex_inputs_take_the_route(monkeypatch):
    """The closure workload's non-trees: a star on hub 0 plus random chords
    between the spokes, under a random labelling."""
    rng = random.Random(24)
    for n, extra in ((8, 3), (24, 10), (40, 100)):
        spokes = [(0, v) for v in range(1, n)]
        chords = rng.sample(list(combinations(range(1, n), 2)), extra)
        perm = list(range(n))
        rng.shuffle(perm)
        g = from_edge_list(n, [(perm[u], perm[v]) for u, v in spokes + chords])
        assert g.max_degree() == n - 1 and 2 * g.min_degree() < n - 1
        _assert_route(monkeypatch, g)


def test_every_family_closure_up_to_m_40_takes_the_route(monkeypatch):
    for tag, row in FAMILIES.items():
        for m in range(row.verify_min_m, 41):
            closure = construct_closure(canonical_family_tree(tag, m)).closure
            assert 2 * closure.min_degree() >= closure.n - 1
            _assert_route(monkeypatch, closure)


@pytest.mark.parametrize("g", [
    path_graph(3), broom(6), canonical_family_tree(FamilyTag.S22, 9),
    random_tree(60, random.Random(60)), path_graph(150),
], ids=["P3", "broom6", "s22_9", "random60", "P150"])
def test_trees_take_two_passes_and_no_ball_step(monkeypatch, capsys, tmp_path, g):
    """A tree's reports come from subtree sizes and heights over vertex 0's BFS
    tree: the general sweep never cuts a neighbour column."""
    monkeypatch.setattr(graph, "zip_longest", _refuse)
    assert _cli_results(capsys, tmp_path, g) == _oracle_results(g)


@pytest.mark.parametrize("g", [
    cycle_graph(8), hypercube(3), hypercube(6), torus(4, 6),
    helpers.complete_bipartite(3, 5),
], ids=["C8", "Q3", "Q6", "T4x6", "K3,5"])
def test_bipartite_records_take_no_meets(monkeypatch, capsys, tmp_path, g):
    """A bipartite graph's per-edge counts come from its transmissions: no
    vertex is equidistant from the ends of an edge, so the sweep XORs no
    parity sets."""
    monkeypatch.setattr(graph, "xor", _refuse)
    assert _cli_results(capsys, tmp_path, g) == _oracle_results(g)


def test_random_trees_of_order_200():
    """Many steps, with eccentricities (and so finished balls) spread out."""
    rng = random.Random(2008)
    for n in (190, 200, 210):
        assert_matches_oracle(random_tree(n, rng))


@pytest.mark.parametrize("g,expected,balanced", [
    (hypercube(8), 8 * 2 ** 21, True),            # k 2^(k-1) edges, 2^(k-1) a side
    (complete_graph(150), 150 * 149 // 2, True),  # one vertex a side
    (cycle_graph(300), 300 * 150 ** 2, True),     # even: n/2 a side
    (cycle_graph(301), 301 * 150 ** 2, True),     # odd: (n-1)/2 a side
    (torus(8, 12), (8 * 12) ** 3 // 2, True),     # even torus: 2ab edges, ab/2 a side
    (path_graph(300), sum(i * (300 - i) for i in range(1, 300)), False),
], ids=["Q8", "K150", "C300", "C301", "T8x12", "P300"])
def test_szeged_closed_forms_past_the_exhaustive_range(g, expected, balanced):
    assert szeged_index(g) == expected
    report = imbalance_report(g)
    assert sum(r.closer_to_x * r.closer_to_y for r in report.records) == expected
    assert report.balanced == balanced


def test_plain_check_of_a_balanced_graph_lists_no_edges(monkeypatch):
    """Equal transmissions decide balance; no edge list is built or scanned."""
    def refuse(self):
        raise AssertionError("edges() called")

    monkeypatch.setattr(Graph, "edges", refuse)
    for g in (complete_graph(40), cycle_graph(41), hypercube(5), torus(4, 6)):
        worst, _, _ = report_with_diameter(g, records=False)
        assert worst is None


def test_szeged_builds_no_records(monkeypatch):
    def refuse(*args):
        raise AssertionError("EdgeBalance built")

    g = broom(5)
    expected = sum(cx * cy for _, _, cx, cy in helpers.edge_balance_oracle(g))
    monkeypatch.setattr(analysis, "EdgeBalance", refuse)
    assert szeged_index(g) == expected


_TINY_INPUT = {
    1: {"diameter": 0, "edge_count": 0, "max_degree": 0, "n": 1},
    2: {"diameter": 1, "edge_count": 1, "max_degree": 1, "n": 2},
}
_TINY_RESULT = {
    (1, "check"): {"balanced": True, "worst_edge": None},
    (1, "--report"): {"balanced": True, "records": [], "worst_edge": None},
    (1, "szeged"): {"szeged_index": 0},
    (2, "check"): {"balanced": True, "worst_edge": None},
    (2, "--report"): {"balanced": True, "records": [[0, 1, 1, 1]], "worst_edge": None},
    (2, "szeged"): {"szeged_index": 1},
}


@pytest.mark.parametrize("n,argv", [
    (n, argv) for n in (1, 2)
    for argv in (["check"], ["check", "--report"], ["szeged"])])
def test_tiny_graph_reports_are_pinned(capsys, tmp_path, n, argv):
    path = tmp_path / "g.el"
    write_edge_list(path_graph(n), path)
    assert main([argv[0], str(path), *argv[1:], "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    del report["timing"]
    assert report == {
        "command": argv[0],
        "input": {"path": str(path), **_TINY_INPUT[n]},
        "result": _TINY_RESULT[n, argv[-1]],
        "version": "0.2.0",
    }
