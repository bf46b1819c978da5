"""Text formats for graphs and decompositions.

Everything external is 1-based.  A graph file is

    c optional comments
    p tw <n> <m>
    e <u> <v>          (m lines, ascending (min,max) pairs when written)

and a tree decomposition file is

    p td <bags> <width+1> <n>
    b <id> <v1> <v2> ...
    t <id1> <id2>
    r <id>             (optional root marker)

Readers tolerate blank lines, comments and reordered e/b/t lines but insist
on consistent counts and label ranges.  A malformed file is refused with its
first fault in line order, naming the line when the fault lies on one (a
missing header, a missing bag or a wrong count lies on none).

Each reader first tries the layout the writers emit: leading comments, the
header, then the records in written order.  The e and t lines are split as
one text, converting each distinct label spelling once, and each b line is
converted whole.  Any text that check refuses, valid or not, goes to the
line-by-line reader, which alone reports faults.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

from .errors import FormatError
from .graph import Graph
from .tdd import TreeDistanceDecomposition
from .treewidth import TreeDecomposition


def write_graph(g: Graph, comment: str | None = None) -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"c {row}")
    lines.append(f"p tw {g.vertex_count} {g.edge_count}")
    for u, nbrs in enumerate(g._adj):  # ascending (min, max) pairs
        for v in nbrs:
            if v > u:
                lines.append(f"e {u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    lines = text.splitlines()
    g = _graph_in_bulk(lines)
    return _graph_by_line(lines) if g is None else g


def _graph_in_bulk(lines: list[str]) -> Graph | None:
    """The graph when lines are laid out as write_graph lays them out; None
    for any other text, valid or not."""
    start = _first_record(lines)
    head = lines[start].split() if start < len(lines) else []
    if len(head) != 4 or head[:2] != ["p", "tw"]:
        return None
    try:
        n, m = int(head[2]), int(head[3])
    except ValueError:
        return None
    body = lines[start + 1:]
    columns = _pair_columns(body, "e", n) if len(body) == m else None
    if columns is None:
        return None
    try:
        g = Graph(n, zip(*columns))
    except ValueError:  # a negative vertex count or a self-loop
        return None
    return g if g.edge_count == m else None


def _graph_by_line(lines: list[str]) -> Graph:
    n = None
    m = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate p line")
            if len(parts) != 4 or parts[1] != "tw":
                raise FormatError(f"line {lineno}: expected 'p tw <n> <m>'")
            n, m = _ints(parts[2:], lineno)
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative count in 'p tw {n} {m}'")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: e line before p line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'e <u> <v>'")
            u, v = _ints(parts[1:], lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise FormatError(f"line {lineno}: endpoint outside 1..{n}")
            if u == v:
                raise FormatError(f"line {lineno}: self-loop at {u}")
            edges.append((u - 1, v - 1))
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None or m is None:
        raise FormatError("missing 'p tw' header")
    if len(edges) != m:
        raise FormatError(f"header promises {m} edges, file has {len(edges)}")
    g = Graph(n, edges)
    if g.edge_count != len(edges):
        raise FormatError("duplicate edges in file")
    return g


def write_tree_decomposition(d: TreeDecomposition, n: int) -> str:
    lines = [f"p td {d.bag_count()} {d.width() + 1} {n}"]
    for i, bag in enumerate(d.bags):
        lines.append(" ".join(["b", str(i + 1)] + [str(v + 1) for v in bag]))
    for a, b in sorted(d.tree_edges):
        lines.append(f"t {a + 1} {b + 1}")
    if d.root is not None:
        lines.append(f"r {d.root + 1}")
    return "\n".join(lines) + "\n"


def parse_tree_decomposition(text: str) -> tuple[TreeDecomposition, int]:
    """Returns the decomposition and the vertex count the header declares."""
    lines = text.splitlines()
    parsed = _decomposition_in_bulk(lines)
    return _decomposition_by_line(lines) if parsed is None else parsed


def _decomposition_in_bulk(lines: list[str]) -> tuple[TreeDecomposition, int] | None:
    """The decomposition when lines are laid out as write_tree_decomposition
    lays them out (bags 1..<bags> in order, then t lines, then at most one r
    line); None for any other text, valid or not."""
    start = _first_record(lines)
    head = lines[start].split() if start < len(lines) else []
    if len(head) != 5 or head[:2] != ["p", "td"]:
        return None
    try:
        n_bags, size, n = map(int, head[2:])
    except ValueError:
        return None
    body = lines[start + 1:]
    if min(size, n) < 0 or not 0 <= n_bags <= len(body):
        return None
    tail = body[n_bags:]
    root = None
    if tail and tail[-1].startswith("r "):
        row = tail.pop().split()
        labels = _labels(row[1:], n_bags)
        if len(row) != 2 or labels is None:
            return None
        root = labels[row[1]]
    columns = _pair_columns(tail, "t", n_bags)
    if columns is None:
        return None
    bags = []
    for bag_id, line in enumerate(body[:n_bags], start=1):
        row = line.split()
        if len(row) < 2 or row[0] != "b" or row[1] != str(bag_id):
            return None
        try:
            bag = sorted(map(int, row[2:]))
        except ValueError:
            return None
        if bag and (bag[0] < 1 or bag[-1] > n or len(set(bag)) < len(bag)):
            return None
        bags.append(tuple(map(_minus_one, bag)))
    if size != max(map(len, bags), default=0):
        return None
    tree_edges = frozenset(zip(map(min, *columns), map(max, *columns)))
    return TreeDecomposition(bags=tuple(bags), tree_edges=tree_edges, root=root), n


def _decomposition_by_line(lines: list[str]) -> tuple[TreeDecomposition, int]:
    header = None
    bag_lines: dict[int, tuple[int, ...]] = {}
    tree_edges: list[tuple[int, int]] = []
    root = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate p line")
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(f"line {lineno}: expected 'p td <bags> <width+1> <n>'")
            header = _ints(parts[2:], lineno)
            if min(header) < 0:
                n_bags, size, n = header
                raise FormatError(f"line {lineno}: negative count in 'p td {n_bags} {size} {n}'")
        elif parts[0] == "b":
            if header is None:
                raise FormatError(f"line {lineno}: b line before p line")
            nums = _ints(parts[1:], lineno)
            if not nums:
                raise FormatError(f"line {lineno}: bag line without id")
            bag_id, verts = nums[0], nums[1:]
            n_bags, _, n = header
            if not (1 <= bag_id <= n_bags):
                raise FormatError(f"line {lineno}: bag id {bag_id} outside 1..{n_bags}")
            if bag_id in bag_lines:
                raise FormatError(f"line {lineno}: duplicate bag {bag_id}")
            seen: set[int] = set()
            for v in verts:
                if not (1 <= v <= n):
                    raise FormatError(f"line {lineno}: vertex {v} outside 1..{n}")
                if v in seen:
                    raise FormatError(f"line {lineno}: bag {bag_id} repeats vertex {v}")
                seen.add(v)
            bag_lines[bag_id] = tuple(sorted(v - 1 for v in seen))
        elif parts[0] == "t":
            if header is None:
                raise FormatError(f"line {lineno}: t line before p line")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 't <id1> <id2>'")
            a, b = _ints(parts[1:], lineno)
            n_bags = header[0]
            if not (1 <= a <= n_bags and 1 <= b <= n_bags):
                raise FormatError(f"line {lineno}: tree edge outside 1..{n_bags}")
            tree_edges.append((min(a, b) - 1, max(a, b) - 1))
        elif parts[0] == "r":
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected 'r <id>'")
            if root is not None:
                raise FormatError(f"line {lineno}: duplicate r line")
            (root_id,) = _ints(parts[1:], lineno)
            root = root_id - 1
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if header is None:
        raise FormatError("missing 'p td' header")
    n_bags, size, n = header
    for i in range(1, n_bags + 1):
        if i not in bag_lines:
            raise FormatError(f"bag {i} missing")
    largest = max(map(len, bag_lines.values()), default=0)
    if size != largest:
        raise FormatError(f"header width+1 is {size}, but the largest bag has {largest} vertices")
    if root is not None and not (0 <= root < n_bags):
        raise FormatError(f"root {root + 1} outside 1..{n_bags}")
    d = TreeDecomposition(
        bags=tuple(bag_lines[i] for i in range(1, n_bags + 1)),
        tree_edges=frozenset(tree_edges),
        root=root,
    )
    return d, n


def format_tdd_records(d: TreeDistanceDecomposition) -> str:
    """One line per bag, ascending id: 'b <bag_id> <depth> <v1> <v2> ...'."""
    lines = []
    for i, bag in enumerate(d.bags):
        fields = ["b", str(i + 1), str(d.depth[i])]
        fields.extend(str(v + 1) for v in bag)
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


_minus_one = (-1).__add__


def _first_record(lines: list[str]) -> int:
    """Index of the first line that is neither blank nor a comment."""
    for i, line in enumerate(lines):
        line = line.lstrip()
        if line and not line.startswith("c"):
            return i
    return len(lines)


def _labels(tokens: Iterable[str], top: int) -> dict[str, int] | None:
    """Each distinct token to its 0-based label, converted once; None unless
    every token is an integer in 1..top."""
    try:
        labels = {token: int(token) - 1 for token in set(tokens)}
    except ValueError:
        return None
    if labels and not (0 <= min(labels.values()) and max(labels.values()) < top):
        return None
    return labels


def _pair_columns(lines: list[str], kind: str, top: int) -> tuple[list[int], list[int]] | None:
    """The two 0-based label columns of lines that all read '<kind> <a> <b>'
    with a and b in 1..top; None if any line does not.

    The lines are split as one text, so that no list is made per line.  That
    still checks each line: every line starts with the token <kind>, which
    is no integer, so with three tokens per line in all and integers in the
    second and third of every three places, the line starts fall on every
    third place and each line holds exactly three tokens."""
    if not all(map(str.startswith, lines, repeat(kind + " "))):
        return None
    tokens = " ".join(lines).split()
    if len(tokens) != 3 * len(lines):
        return None
    a_col, b_col = tokens[1::3], tokens[2::3]
    labels = _labels(a_col + b_col, top)
    if labels is None:
        return None
    return list(map(labels.__getitem__, a_col)), list(map(labels.__getitem__, b_col))


def _ints(parts: list[str], lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: expected integers, got {parts}") from exc
