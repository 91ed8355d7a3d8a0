"""Pair listings written as text straight from bit rows (``graph._pair_text``).

The CLI's edge lists, ``gen --json``'s edges and a closure's added pairs are
rendered from bit rows with no tuple per pair; each check here compares the
text with what the tuple route printed, so a dropped, repeated or reordered
pair shows as a mismatch.
"""

import json
import random
import re
from itertools import combinations

import pytest

import helpers
from distbalance import (
    __version__,
    canonical_family_tree,
    complete_graph,
    construct_closure,
    diameter,
    format_edge_list,
    from_edge_list,
    relabel,
    write_edge_list,
)
from distbalance.cli import main
from distbalance.graph import _pair_text
from distbalance.trees import FAMILIES


def _labelled_graphs(n):
    """Every labelled graph on n vertices with its edges in lex order, edgeless
    and disconnected ones included."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        edges = [pair for i, pair in enumerate(pairs) if mask >> i & 1]
        yield from_edge_list(n, edges), edges


def test_three_shapes_match_the_tuple_route_on_every_graph_up_to_order_6():
    # rows of up to five neighbours above u reach both branches of _members
    graphs = 0
    for n in range(1, 7):
        for g, edges in _labelled_graphs(n):
            assert "[" + _pair_text(g.adj, "[", ", ", "]", ", ") + "]" == json.dumps(edges)
            assert format_edge_list(g) == "\n".join(
                [str(n), *(f"{u} {v}" for u, v in edges)]) + "\n"
            assert _pair_text(g.adj, "(", ",", ")", " ") == " ".join(
                map("(%d,%d)".__mod__, edges))
            graphs += 1
    assert graphs == sum(1 << n * (n - 1) // 2 for n in range(1, 7))


# the vertices above u missing from row u: its first, its last, both, two
# adjacent ones at either end or in the middle, or none (a full row)
_GAPS = {
    "first": lambda u, n: {u + 1},
    "last": lambda u, n: {n - 1},
    "first_and_last": lambda u, n: {u + 1, n - 1},
    "adjacent_at_first": lambda u, n: {u + 1, u + 2},
    "adjacent_in_middle": lambda u, n: {(u + n) // 2, (u + n) // 2 + 1},
    "adjacent_at_last": lambda u, n: {n - 2, n - 1},
    "full": lambda u, n: set(),
}


@pytest.mark.parametrize("n", [2, 3, 4, 7, 64, 65, 129, 130])
def test_near_full_rows_match_the_tuple_route(n):
    """Rows at least half full are joined from one slice of the name table per
    run between their clear bits; each gap shape on every row, then all
    shapes mixed, row by row."""
    shapes = list(_GAPS.values())
    graphs = [[shape] * n for shape in shapes] + [[shapes[u % len(shapes)] for u in range(n)]]
    for row_gaps in graphs:
        g = helpers.complete_minus(n, [(u, v) for u in range(n)
                                       for v in row_gaps[u](u, n) if u < v < n])
        assert "[" + _pair_text(g.adj, "[", ", ", "]", ", ") + "]" == json.dumps(g.edges())
        assert _pair_text(g.adj, "(", ",", ")", " ") == " ".join(
            map("(%d,%d)".__mod__, g.edges()))


@pytest.mark.parametrize("n", [1, 3])
def test_edgeless_edge_list_is_the_count_line(n):
    assert format_edge_list(from_edge_list(n, [])) == f"{n}\n"


def _shuffled(g, seed):
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return relabel(g, perm)


def _closure_inputs():
    # each family's first two m include the degenerate s22 m = 2 and s3 m = 3, 4
    for tag, row in FAMILIES.items():
        for m in sorted({row.verify_min_m, row.verify_min_m + 1, 10, 57, 200}):
            yield f"{tag.value}_m{m}", _shuffled(canonical_family_tree(tag, m), m)
    yield "dominant", _shuffled(from_edge_list(
        7, [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (4, 5)]), 7)
    yield "K4", complete_graph(4)


CLOSURE_INPUTS = dict(_closure_inputs())
_TIMING = re.compile(r'"timing": [^,}]+')


def _old_closure_output(g, path):
    """(human, --json) stdout of closure construct, built from the tuples of
    ``construct_closure`` and ``json.dumps`` over them, with timing 0."""
    res = construct_closure(g)
    cert = res.certificate
    result = {
        "mode": "construct",
        "family": res.family.tag.value,
        "m": res.family.m,
        "min_added_edges": res.min_additions,
        "added_edges": res.added_edges,
        "certificate": cert._asdict(),
        "via_search": res.via_search,
    }
    summary = {"path": path, "n": g.n, "edge_count": g.edge_count,
               "max_degree": g.max_degree(), "diameter": diameter(g)}
    report = {"command": "closure", "input": summary, "result": result,
              "timing": 0, "version": __version__}
    human = "\n".join([
        f"family: {res.family.tag.value} (m={res.family.m})"
        + (" [fallback search]" if res.via_search else ""),
        f"min added edges: {res.min_additions}",
        "added: " + " ".join(map("(%d,%d)".__mod__, res.added_edges)),
        f"certificate: contains_input={cert.contains_input} "
        f"distance_balanced={cert.distance_balanced} diameter={cert.diameter} "
        f"regular_degree={cert.regular_degree} matches_formula={cert.matches_formula}",
    ]) + "\n"
    return human, json.dumps(report, sort_keys=True) + "\n"


def test_corpus_takes_the_fallback_search():
    assert [name for name, g in CLOSURE_INPUTS.items()
            if construct_closure(g).via_search] == ["s22_m2", "s3_m3", "s3_m4"]


def _timing_zero(text):
    # on the raw text: a parse and re-dump would hide a spacing slip
    return _TIMING.sub('"timing": 0', text)


@pytest.mark.parametrize("name", CLOSURE_INPUTS)
def test_closure_output_matches_the_tuple_route(name, capsys, tmp_path):
    g = CLOSURE_INPUTS[name]
    path = str(tmp_path / "g.el")
    write_edge_list(g, path)
    human, report = _old_closure_output(g, path)
    assert main(["closure", path]) == 0
    assert capsys.readouterr().out == human
    assert main(["closure", path, "--json"]) == 0
    assert _timing_zero(capsys.readouterr().out) == report
    if name == "K4":
        assert "\nadded: \n" in human


def test_closure_splice_ignores_the_key_text_in_a_path(capsys, tmp_path):
    # the path's '"' is escaped in the report, so its copy of the key's text
    # cannot be taken for the result's
    g = CLOSURE_INPUTS["star_m10"]
    path = str(tmp_path / 'x"added_edges": [].el')
    write_edge_list(g, path)
    assert main(["closure", path, "--json"]) == 0
    out = capsys.readouterr().out
    assert _timing_zero(out) == _old_closure_output(g, path)[1]


def test_gen_complete_300_matches_the_tuple_route(capsys, tmp_path):
    g = complete_graph(300)
    result = {"kind": "complete", "param": "300", "out": None, "n": 300,
              "edge_count": g.edge_count, "edges": g.edges()}
    report = {"command": "gen", "input": {"kind": "complete", "param": "300"},
              "result": result, "timing": 0, "version": __version__}
    assert main(["gen", "complete", "300", "--json"]) == 0
    assert _timing_zero(capsys.readouterr().out) == json.dumps(report, sort_keys=True) + "\n"
    out = tmp_path / "k300.el"
    assert main(["gen", "complete", "300", "--out", str(out)]) == 0
    assert out.read_text() == "\n".join(
        ["300", *(f"{u} {v}" for u, v in combinations(range(300), 2))]) + "\n"


# edge densities of the random rows, from the empty graph to the complete one
_DENSITIES = (0.0, 0.05, 0.3, 0.5, 0.7, 0.95, 1.0)


def _shaped_row(rng, u, n, density):
    """The members above u of one row: at the dense threshold (half of the
    n - u - 1 vertices above u, rounded down), one member, all but two
    adjacent gaps at the low or the high end, or each vertex with ``density``."""
    above = range(u + 1, n)
    shape = rng.randrange(8)
    if shape == 0:
        return sorted(rng.sample(above, len(above) // 2))
    if shape == 1:
        return rng.sample(above, min(1, len(above)))
    if shape == 2:
        return list(above[2:])
    if shape == 3:
        return list(above[:-2])
    return [v for v in above if rng.random() < density]


def test_random_rows_match_the_tuple_route_in_all_three_formats():
    """Seeded random graphs on orders 1..70, 129 and 130 at each density, one
    with rows drawn at that density alone and one mixing in the shaped rows of
    ``_shaped_row``; the corpus must hit each shape at least 100 times."""
    rng = random.Random(5)
    hits = dict.fromkeys(["threshold", "single", "adjacent_low", "adjacent_high"], 0)
    for n in [*range(1, 71), 129, 130]:
        for density in _DENSITIES:
            for shaped in (False, True):
                members = [_shaped_row(rng, u, n, density) if shaped
                           else [v for v in range(u + 1, n) if rng.random() < density]
                           for u in range(n)]
                edges = [(u, v) for u in range(n) for v in members[u]]
                g = from_edge_list(n, edges)
                assert "[" + _pair_text(g.adj, "[", ", ", "]", ", ") + "]" == json.dumps(edges)
                assert format_edge_list(g) == "\n".join(
                    [str(n), *(f"{u} {v}" for u, v in edges)]) + "\n"
                assert _pair_text(g.adj, "(", ",", ")", " ") == " ".join(
                    map("(%d,%d)".__mod__, edges))
                for u, row in enumerate(members):
                    width, gaps = n - u - 1, set(range(u + 1, n)) - set(row)
                    hits["threshold"] += width > 0 and 2 * len(row) == width
                    hits["single"] += len(row) == 1
                    dense = width > 2 and 2 * len(row) >= width and len(gaps) == 2
                    hits["adjacent_low"] += dense and gaps == {u + 1, u + 2}
                    hits["adjacent_high"] += dense and gaps == {n - 2, n - 1}
    assert min(hits.values()) >= 100, hits
