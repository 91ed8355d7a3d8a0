"""Plain-text edge-list format shared by the CLI and the generators.

The first non-comment line is the vertex count n; every following
non-empty line is "u v" with 0-based indices, whitespace-delimited.
Lines starting with '#' are comments.  Duplicate pairs and both
orientations collapse to a single edge.

The canonical form that ``format_edge_list`` writes ('#' lines, the count,
then "u v" lines in ASCII digits with one space, each ending in "\\n") is read
in C; any other text goes through the line loop, to the same graph or error.
"""

from __future__ import annotations

import json
import os

from .errors import EdgeListFormatError
from .graph import Graph, _pair_text, from_edge_list

_DIGITS = dict.fromkeys(range(ord("0"), ord("9") + 1))  # str.translate deletes them


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise EdgeListFormatError(f"line {lineno}: {token!r} is not an integer") from None


def _parse_lines(text: str) -> Graph:
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise EdgeListFormatError(
                    f"line {lineno}: expected a single vertex count, got {raw!r}")
            n = _parse_int(tokens[0], lineno)
            if n < 1:
                raise EdgeListFormatError(f"line {lineno}: vertex count must be positive")
            continue
        if len(tokens) != 2:
            raise EdgeListFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        edges.append((_parse_int(tokens[0], lineno), _parse_int(tokens[1], lineno)))
    if n is None:
        raise EdgeListFormatError("missing vertex count line")
    return from_edge_list(n, edges)


def parse_edge_list(text: str) -> Graph:
    start = 0
    while text.startswith("#", start):
        start = text.find("\n", start) + 1 or len(text)
    body = text[start:]
    # canonical: the header splits into the lines the line loop sees, then
    # come only ASCII digits, one space a line and "\n"; the count is not 0 or ""
    if (len(text[:start].splitlines()) == text.count("\n", 0, start)
            and body.translate(_DIGITS) == "\n" + " \n" * (body.count("\n") - 1)
            and not body.startswith(("0", "\n"))):
        try:
            ints = iter(json.loads("[" + body[:-1].replace(" ", ",").replace("\n", ",") + "]"))
        except ValueError:  # an empty token, a leading zero or too many digits
            return _parse_lines(text)
        return from_edge_list(next(ints), zip(ints, ints))
    return _parse_lines(text)


def format_edge_list(g: Graph) -> str:
    pairs = _pair_text(g.adj, "", " ", "", "\n")
    return f"{g.n}\n{pairs}\n" if pairs else f"{g.n}\n"


def read_edge_list(path: str | os.PathLike) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def write_edge_list(g: Graph, path: str | os.PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
