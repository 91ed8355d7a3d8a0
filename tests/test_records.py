"""The public records: immutable NamedTuples whose fields keep their names
and order."""

import pytest

import distbalance
from distbalance import (
    SearchConfig,
    StarlikeSpec,
    classify_tree,
    construct_closure,
    from_edge_list,
    imbalance_report,
    path_graph,
    search_minimum_additions,
)

FIELDS = {
    "Graph": ("n", "adj", "edge_count"),
    "EdgeBalance": ("x", "y", "closer_to_x", "closer_to_y"),
    "ImbalanceReport": ("records", "balanced", "worst_edge"),
    "StarlikeSpec": ("branches",),
    "TreeFamily": ("tag", "m", "relabeling"),
    "Certificate": ("contains_input", "distance_balanced", "diameter",
                    "regular_degree", "matches_formula"),
    "ClosureResult": ("closure", "added_edges", "min_additions", "certificate",
                      "family", "via_search"),
    "SearchConfig": ("prune_mode", "max_k", "all_witnesses", "time_budget"),
    "LevelStats": ("k", "skipped", "lex", "visited", "tested"),
    "SearchResult": ("min_additions", "witnesses", "explored", "mode_used", "levels"),
}


def _instance(name):
    g = path_graph(5)
    closure = construct_closure(g)
    report = imbalance_report(g)
    return {
        "Graph": g,
        "EdgeBalance": report.records[0],
        "ImbalanceReport": report,
        "StarlikeSpec": StarlikeSpec.from_text("2,2"),
        "TreeFamily": classify_tree(g),
        "Certificate": closure.certificate,
        "ClosureResult": closure,
        "SearchConfig": SearchConfig(),
        "LevelStats": search_minimum_additions(g, SearchConfig()).levels[0],
        "SearchResult": search_minimum_additions(g, SearchConfig()),
    }[name]


@pytest.mark.parametrize("name", FIELDS)
def test_fields_in_order(name):
    assert getattr(distbalance, name)._fields == FIELDS[name]


@pytest.mark.parametrize("name", FIELDS)
def test_fields_cannot_be_assigned(name):
    record = _instance(name)
    assert type(record) is getattr(distbalance, name)
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_replace_and_asdict():
    assert SearchConfig._field_defaults == {
        "prune_mode": "naive", "max_k": None, "all_witnesses": False, "time_budget": None}
    config = SearchConfig(prune_mode="regular")
    assert config._replace(max_k=3) == SearchConfig("regular", 3)
    assert config == SearchConfig(prune_mode="regular")
    assert _instance("Certificate")._asdict() == {
        "contains_input": True, "distance_balanced": True, "diameter": 2,
        "regular_degree": 2, "matches_formula": True}


def test_equal_graphs_are_equal_and_hash_alike():
    a = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    b = from_edge_list(4, [(3, 2), (2, 1), (1, 0), (0, 1)])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, path_graph(4)}) == 1
    assert a != path_graph(5)
    n, adj, edge_count = a
    assert (n, adj, edge_count) == (4, (0b10, 0b101, 0b1010, 0b100), 3)
