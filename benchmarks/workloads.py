"""The four benchmark workloads: seeded input files, CLI ops and answer checks.

Each workload is a fixed *round* of CLI invocations plus one warm-up op.
The seed decides vertex labels, edge-line order and the structure of the
random graphs; the sizes are fixed, so the cost of a round barely depends
on the seed.  Every op carries the answer it must produce, computed by
``reference`` (which never imports distbalance), and a checker that
compares the CLI's JSON report and exit code against it.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable

import reference as R

WORKLOADS = ("check", "closure", "oracle", "oracle_mt")


@dataclass
class Op:
    """One CLI invocation and the answer it must give."""

    label: str
    argv: list[str]
    expected: dict
    checker: Callable[[dict, int, dict], str | None] = field(repr=False)

    def fault(self, rc: int, report: dict | None) -> str | None:
        """Why the exit code and JSON report are wrong, or None."""
        if report is None:
            return f"exit code {rc} with no JSON report"
        try:
            return self.checker(self.expected, rc, report)
        except (IndexError, KeyError, TypeError, ValueError) as exc:
            return f"malformed report: {exc!r}"


@dataclass
class Workload:
    warmup: Op
    ops: list[Op]


# ------------------------------------------------------------------ checkers

def _summary_fault(exp: dict, report: dict) -> str | None:
    summary = report["input"]
    if summary["n"] != exp["n"] or summary["edge_count"] != len(exp["edges"]):
        return f"input summary n={summary['n']} edges={summary['edge_count']}"
    return None


def _check_balance(exp: dict, rc: int, report: dict) -> str | None:
    want_rc = 0 if exp["balanced"] else 2
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    res = report["result"]
    if res["balanced"] is not exp["balanced"]:
        return f"balanced={res['balanced']}, expected {exp['balanced']}"
    worst = res["worst_edge"]
    if (worst is None) != exp["balanced"]:
        return f"worst_edge {worst} for balanced={exp['balanced']}"
    if worst is not None and R.pair(*worst) not in exp["edges"]:
        return f"worst_edge {worst} is not an input edge"
    if "records" in res:
        records = res["records"]
        if {R.pair(x, y) for x, y, _, _ in records} != exp["edges"] \
                or len(records) != len(exp["edges"]):
            return "records do not list each input edge once"
        if sum(cx * cy for _, _, cx, cy in records) != exp["szeged"]:
            return "record products do not sum to the Szeged index"
        if worst is not None:
            gaps = {R.pair(x, y): abs(cx - cy) for x, y, cx, cy in records}
            if gaps[R.pair(*worst)] != max(gaps.values()):
                return f"worst_edge {worst} does not have the largest gap"
    return _summary_fault(exp, report)


def _check_szeged(exp: dict, rc: int, report: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    value = report["result"]["szeged_index"]
    if value != exp["szeged"]:
        return f"szeged_index {value}, expected {exp['szeged']}"
    return _summary_fault(exp, report)


def _check_closure(exp: dict, rc: int, report: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    res = report["result"]
    got = (res["family"], res["m"], res["min_added_edges"], res["via_search"])
    want = (exp["family"], exp["m"], exp["k"], exp["via_search"])
    if got != want:
        return f"(family, m, min_added_edges, via_search) = {got}, expected {want}"
    cert = res["certificate"]
    if not (cert["contains_input"] and cert["distance_balanced"]
            and cert["regular_degree"] is not None and cert["diameter"] <= 2
            and cert["matches_formula"] is True):
        return f"certificate reports a failure: {cert}"
    return R.closure_fault(exp["n"], exp["edges"], res["added_edges"], exp["k"])


def _check_search(exp: dict, rc: int, report: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    res = report["result"]
    if res["min_added_edges"] != exp["k"]:
        return f"min_added_edges {res['min_added_edges']}, expected {exp['k']}"
    witness = [R.pair(u, v) for u, v in res["witnesses"][0]]
    if len(set(witness)) != exp["k"] or set(witness) & exp["edges"]:
        return f"witness {witness} is not {exp['k']} new edges"
    if not R.transmission_regular(exp["n"], sorted(exp["edges"]) + witness):
        return f"witness {witness} does not balance the input"
    if not isinstance(res["explored"], int) or res["explored"] < 1:
        return f"explored {res['explored']!r}"
    return None


def _check_verify(exp: dict, rc: int, report: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    res = report["result"]
    rows = {(row["family"], row["m"]): row for row in res["rows"]}
    if set(rows) != set(exp["table"]) or len(res["rows"]) != len(rows):
        return f"rows for {sorted(rows)}"
    for key, k in exp["table"].items():
        row = rows[key]
        if row["min_added_edges"] != k or row["oracle"] != k or row["pass"] is not True:
            return f"row {key}: formula {row['min_added_edges']}, oracle {row['oracle']}, table {k}"
    if res["all_pass"] is not True:
        return "all_pass is not true"
    return None


def corrupted(op: Op) -> Op:
    """A copy of ``op`` whose expected answer is wrong by one."""
    exp = dict(op.expected)
    if op.checker is _check_balance:
        exp["balanced"] = not exp["balanced"]
    elif op.checker is _check_szeged:
        exp["szeged"] += 1
    elif op.checker is _check_verify:
        key = min(exp["table"])
        exp["table"] = {**exp["table"], key: exp["table"][key] + 1}
    else:
        exp["k"] += 1
    return Op(op.label, op.argv, exp, op.checker)


# ---------------------------------------------------------------- instances

class _Writer:
    """Writes seeded, relabeled edge-list files under one directory."""

    def __init__(self, workdir: str, rng: random.Random):
        self.workdir = workdir
        self.rng = rng
        os.makedirs(workdir, exist_ok=True)

    def write(self, name: str, n: int, edges) -> tuple[str, set]:
        """Relabel, shuffle and write; returns the path and the relabeled edge set."""
        lines = R.relabeled(n, edges, self.rng)
        path = f"{self.workdir}/{name}.el"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# {name}\n{n}\n")
            fh.writelines(f"{u} {v}\n" for u, v in lines)
        return path, {R.pair(u, v) for u, v in lines}


def _check_ops(w: _Writer) -> tuple[Op, list[Op]]:
    rng = w.rng
    graphs = [
        ("K48", *R.complete(48), True, R.szeged_complete(48)),
        ("K96", *R.complete(96), True, R.szeged_complete(96)),
        ("K192", *R.complete(192), True, R.szeged_complete(192)),
        ("C160", *R.cycle(160), True, R.szeged_cycle(160)),
        ("C321", *R.cycle(321), True, R.szeged_cycle(321)),
        ("Q7", *R.hypercube(7), True, R.szeged_hypercube(7)),
        ("Q8", *R.hypercube(8), True, R.szeged_hypercube(8)),
        ("T8x12", *R.torus(8, 12), True, R.szeged_torus(8, 12)),
        ("T15x16", *R.torus(15, 16), True, R.szeged_torus(15, 16)),
    ]
    for name, tag, m in (("s3_60", "s3", 60), ("broom_150", "broom", 150)):
        n, edges = R.family_tree(tag, m)
        graphs.append((name, n, edges, False, R.szeged_tree(n, edges)))
    for name, size in (("tree120", 120), ("tree240", 240)):
        n, edges = R.random_tree(size, rng)
        graphs.append((name, n, edges, False, R.szeged_tree(n, edges)))
    for name, size, extra in (("rand80", 80, 80), ("rand160", 160, 120)):
        n, edges = R.random_connected(size, extra, rng)
        graphs.append((name, n, edges, R.balanced_by_definition(n, edges),
                       R.szeged_by_definition(n, edges)))

    def ops_for(name, n, edges, balanced, szeged):
        path, relabeled = w.write(name, n, edges)
        exp = {"n": n, "edges": relabeled, "balanced": balanced, "szeged": szeged}
        return [
            Op(f"check {name}", ["check", path, "--json"], exp, _check_balance),
            Op(f"check --report {name}", ["check", path, "--report", "--json"],
               exp, _check_balance),
            Op(f"szeged {name}", ["szeged", path, "--json"], exp, _check_szeged),
        ]

    warmup = ops_for("warmup_K64", *R.complete(64), True, R.szeged_complete(64))[0]
    return warmup, [op for g in graphs for op in ops_for(*g)]


# (family, m) per closure slot; m=200 on s3 is the largest certificate
CLOSURE_TREES = [("s3", 8), ("star", 16), ("s2", 24), ("s22", 40), ("broom", 64),
                 ("s3", 96), ("s2", 128), ("broom", 160), ("s3", 200)]
# closed forms whose removed cycles degenerate: construct falls back to search
DEGENERATE = [("s22", 2), ("s3", 3), ("s3", 4)]
# (n, extra chords) of the dominant-vertex non-trees, whose closure is K_n
DOMINANT = [(24, 10), (64, 100), (120, 300)]


def _closure_op(w: _Writer, name: str, family: str, m: int, n: int, edges) -> Op:
    path, relabeled = w.write(name, n, edges)
    if family == "dominant":
        k = n * (n - 1) // 2 - len(edges)
    else:
        k = R.min_additions(family, m)
    exp = {"n": n, "edges": relabeled, "family": family, "m": m, "k": k,
           "via_search": (family, m) in DEGENERATE}
    return Op(f"closure {name}", ["closure", path, "--json"], exp, _check_closure)


def _closure_ops(w: _Writer) -> tuple[Op, list[Op]]:
    ops = [_closure_op(w, f"{tag}_{m}", tag, m, *R.family_tree(tag, m))
           for tag, m in CLOSURE_TREES + DEGENERATE]
    for n, extra in DOMINANT:
        ops.append(_closure_op(w, f"dominant_{n}", "dominant", n - 1,
                               *R.dominant_graph(n, extra, w.rng)))
    warmup = _closure_op(w, "warmup_s22_48", "s22", 48, *R.family_tree("s22", 48))
    return warmup, ops


# Connected non-family graphs of order 6 and 7, with the minimum number of
# added edges found by reference.search_minimum (re-derived by --selftest).
OTHER_GRAPHS = {
    "P6": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], 1),
    "C4_two_pendants": (6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (2, 5)], 3),
    "lollipop_3_3": (6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)], 3),
    "C5_pendant": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5)], 3),
    "diamond_tail": (6, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 4), (4, 5)], 5),
    "K4_tail": (6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)], 7),
    "spider_2_2_2": (7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)], 8),
    "double_broom": (7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)], 8),
    "C6_pendant": (7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6)], 7),
    "C3_path4": (7, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (5, 6)], 7),
    "C4_C3_pendant": (7, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4), (4, 5), (3, 5),
                          (5, 6)], 6),
}
ORDER7_FAMILY = [("star", 6), ("s2", 5), ("s22", 4), ("s3", 4), ("broom", 4)]
ORDER6_FAMILY = [("star", 5), ("s2", 4), ("s22", 3), ("s3", 3), ("broom", 3)]
# order-6 inputs are cheap, so each appears under several labelings
ORDER6_LABELINGS = 4
# The thread pool makes every search about four times slower, so oracle_mt
# keeps of oracle's inputs only two order-7 graphs and the first labeling
# of the order-6 ones: a round short enough that a 20 s run holds many
# rounds.  Those two take 17.1-17.4k candidates under any labeling (the
# family trees' counts move by up to 30% with it), and as two of 13 ops
# they hold p90 inside their own latencies.
MT_ORDER7 = ("spider_2_2_2", "double_broom")
MT_ORDER6_LABELINGS = 1
VERIFY_M = (3, 5)


def _search_op(w: _Writer, name: str, n: int, edges, k: int, extra: list[str]) -> Op:
    path, relabeled = w.write(name, n, edges)
    exp = {"n": n, "edges": relabeled, "k": k}
    argv = ["closure", path, "--mode", "search", "--prune", "naive", *extra, "--json"]
    return Op(f"search {name}", argv, exp, _check_search)


def _oracle_ops(w: _Writer, threads: int) -> tuple[Op, list[Op]]:
    """Naive searches and, serial only, verify --oracle, which takes no --threads.

    Every input is written for both, so oracle_mt's files are oracle's.
    """
    extra = ["--threads", str(threads)] if threads > 1 else []
    inputs = []  # (keep with threads, name, n, edges, k)
    for tag, m in ORDER7_FAMILY:
        inputs.append((False, f"{tag}_{m}", *R.family_tree(tag, m), R.min_additions(tag, m)))
    for name, (n, edges, k) in OTHER_GRAPHS.items():
        if n == 7:
            inputs.append((name in MT_ORDER7, name, n, edges, k))
    for i in range(ORDER6_LABELINGS):
        keep = i < MT_ORDER6_LABELINGS
        for tag, m in ORDER6_FAMILY:
            inputs.append((keep, f"{tag}_{m}_{i}", *R.family_tree(tag, m),
                           R.min_additions(tag, m)))
        for name, (n, edges, k) in OTHER_GRAPHS.items():
            if n == 6:
                inputs.append((keep, f"{name}_{i}", n, edges, k))
    ops = [(keep, _search_op(w, *inp, extra)) for keep, *inp in inputs]
    if threads > 1:
        return _search_warmup(w, extra), [op for keep, op in ops if keep]
    lo, hi = VERIFY_M
    table = {(tag, m): R.min_additions(tag, m) for tag in R.FAMILIES for m in range(lo, hi + 1)}
    verify = Op("verify --oracle", ["verify", "--family", "all", "--m", f"{lo}..{hi}",
                                    "--oracle", "--json"], {"table": table}, _check_verify)
    return _search_warmup(w, extra), [op for _, op in ops] + [verify]


def _search_warmup(w: _Writer, extra: list[str]) -> Op:
    # the star's closure needs every missing edge, so its search cost is label-free
    return _search_op(w, "warmup_star_5", *R.family_tree("star", 5),
                      R.min_additions("star", 5), extra)


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload ``name`` for ``seed`` and return its ops.

    The round's order is shuffled with the seed, then fixed for the run.
    """
    # oracle_mt's inputs are some of oracle's, in the very same files
    rng = random.Random(f"{name.removesuffix('_mt')}:{seed}")
    w = _Writer(workdir, rng)
    if name == "check":
        warmup, ops = _check_ops(w)
    elif name == "closure":
        warmup, ops = _closure_ops(w)
    elif name in ("oracle", "oracle_mt"):
        warmup, ops = _oracle_ops(w, threads=2 if name == "oracle_mt" else 1)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return Workload(warmup, ops)
