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

Once the header is read, a label spelt the usual way, "1" to "<n>", is read
by one lookup in a table.  A record whose labels are all in the table and
that breaks no rule is taken as it stands.  Any other record (a label with a
sign or leading zeros, out of range or past the table's cap, or a rule
broken) goes through the checked conversion, which alone reports faults.
"""

from __future__ import annotations

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
    n = m = None
    labels: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) == 3 and parts[0] == "e":
            u = labels.get(parts[1])
            v = labels.get(parts[2])
            if u is not None and v is not None and u != v:
                edges.append((u, v))
                continue
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate p line")
            if len(parts) != 4 or parts[1] != "tw":
                raise FormatError(f"line {lineno}: expected 'p tw <n> <m>'")
            n, m = _ints(parts[2:], lineno)
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative count in 'p tw {n} {m}'")
            labels = _label_table(n, len(text))
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
    g = Graph.__new__(Graph)._build(n, edges)  # every edge was checked as it was read
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
    header = None
    bag_ids: dict[str, int] = {}
    labels: dict[str, int] = {}
    bag_lines: dict[int, tuple[int, ...]] = {}
    tree_edges: list[tuple[int, int]] = []
    root = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if len(parts) > 1 and parts[0] == "b":
            bag_id = bag_ids.get(parts[1])
            bag = set(map(labels.get, parts[2:]))
            # A label missing from the table reads None; a repeated one shrinks the set.
            fresh = bag_id is not None and bag_id not in bag_lines
            if fresh and None not in bag and len(bag) == len(parts) - 2:
                bag_lines[bag_id] = tuple(sorted(bag))
                continue
        elif len(parts) == 3 and parts[0] == "t":
            a = bag_ids.get(parts[1])
            b = bag_ids.get(parts[2])
            if a is not None and b is not None:
                tree_edges.append((a, b) if a < b else (b, a))
                continue
        if not parts or parts[0].startswith("c"):
            continue
        if parts[0] == "p":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate p line")
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(f"line {lineno}: expected 'p td <bags> <width+1> <n>'")
            header = _ints(parts[2:], lineno)
            n_bags, size, n = header
            if min(header) < 0:
                raise FormatError(f"line {lineno}: negative count in 'p td {n_bags} {size} {n}'")
            bag_ids = _label_table(n_bags, len(text))
            labels = _label_table(n, len(text))
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
            if bag_id - 1 in bag_lines:
                raise FormatError(f"line {lineno}: duplicate bag {bag_id}")
            seen: set[int] = set()
            for v in verts:
                if not (1 <= v <= n):
                    raise FormatError(f"line {lineno}: vertex {v} outside 1..{n}")
                if v in seen:
                    raise FormatError(f"line {lineno}: bag {bag_id} repeats vertex {v}")
                seen.add(v)
            bag_lines[bag_id - 1] = tuple(sorted(v - 1 for v in seen))
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
    for i in range(n_bags):
        if i not in bag_lines:
            raise FormatError(f"bag {i + 1} missing")
    largest = max(map(len, bag_lines.values()), default=0)
    if size != largest:
        raise FormatError(f"header width+1 is {size}, but the largest bag has {largest} vertices")
    if root is not None and not (0 <= root < n_bags):
        raise FormatError(f"root {root + 1} outside 1..{n_bags}")
    d = TreeDecomposition(
        bags=tuple(bag_lines[i] for i in range(n_bags)),
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


def _label_table(count: int, cap: int) -> dict[str, int]:
    """The spellings "1".."count" to their 0-based labels, at most cap of them,
    so that a header count never sizes an allocation."""
    top = min(count, cap)
    return dict(zip(map(str, range(1, top + 1)), range(top)))


def _ints(parts: list[str], lineno: int) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise FormatError(f"line {lineno}: expected integers, got {parts}") from exc
