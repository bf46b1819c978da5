import json
import random
import time

import pytest

from widthiso import (
    Graph,
    InternalError,
    TreeDecomposition,
    cli,
    generate_partial_ktree,
    random_relabel,
)
from widthiso.cli import main
from widthiso.formats import (
    parse_graph,
    parse_tree_decomposition,
    write_graph,
    write_tree_decomposition,
)

from helpers import cycle_graph, mutants, path_graph, star_graph


@pytest.fixture
def files(tmp_path):
    def write(name, graph):
        path = tmp_path / name
        path.write_text(write_graph(graph))
        return str(path)

    return tmp_path, write


def test_tdd_build_records(files, capsys):
    tmp, write = files
    g = write("c4.gr", cycle_graph(4))
    assert main(["tdd-build", g, "--root", "1"]) == 0
    out = capsys.readouterr().out
    assert out == "b 1 0 1\nb 2 1 2 4\nb 3 2 3\n"


def test_tdd_width_and_exceeded(files, capsys):
    tmp, write = files
    g = write("c4.gr", cycle_graph(4))
    assert main(["tdd-width", g, "-k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["tdd-width", g, "-k", "1"]) == 2


def test_empty_graph_on_the_tdw_route(files, capsys):
    tmp, write = files
    empty = write("e.gr", Graph(0))
    single = write("v.gr", Graph(1))
    assert main(["tdd-width", empty, "-k", "1"]) == 0
    assert capsys.readouterr().out.strip() == "0"
    assert main(["iso-tdw", empty, empty, "-k", "1"]) == 0
    assert main(["iso-tdw", empty, single, "-k", "1"]) == 1
    assert main(["canon-tdw", empty, "-k", "0"]) == 0
    # the empty hex form, then the empty map
    assert capsys.readouterr().out == "isomorphic\nnon-isomorphic\n\n"


def test_augtree_output(files, capsys):
    tmp, write = files
    g = write("p3.gr", path_graph(3))
    assert main(["augtree", g, "--root", "1"]) == 0
    assert capsys.readouterr().out.strip() == "B(1)(S(1)(B(2)(S(2)(B(3)))))"


def test_iso_tdw_exit_codes(files, capsys):
    tmp, write = files
    a = write("p4.gr", path_graph(4))
    b = write("star.gr", star_graph(3))
    assert main(["iso-tdw", a, a, "-k", "1"]) == 0
    assert main(["iso-tdw", a, b, "-k", "1"]) == 1
    capsys.readouterr()


def test_canon_tdw_output(files, capsys):
    tmp, write = files
    a = write("p4.gr", path_graph(4))
    b = write("p4b.gr", Graph(4, [(2, 0), (0, 3), (3, 1)]))
    assert main(["canon-tdw", a, "-k", "1"]) == 0
    hex_a, map_a = capsys.readouterr().out.strip().splitlines()
    assert main(["canon-tdw", b, "-k", "1"]) == 0
    hex_b, map_b = capsys.readouterr().out.strip().splitlines()
    assert hex_a == hex_b
    assert sorted(map_a.split()) == ["1", "2", "3", "4"]


def test_canon_width_error_exit(files, capsys):
    tmp, write = files
    from helpers import complete_graph

    a = write("k5.gr", complete_graph(5))
    assert main(["canon-tdw", a, "-k", "2"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_and_iso_one_pipeline(tmp_path, capsys):
    g_path = tmp_path / "g.gr"
    d_path = tmp_path / "g.td"
    assert (
        main(
            [
                "gen", "--n", "9", "--k", "2", "--ratio", "0.8", "--seed", "7",
                "--out-graph", str(g_path), "--out-decomp", str(d_path),
            ]
        )
        == 0
    )
    capsys.readouterr()
    # relabel by writing a shifted copy
    g = parse_graph(g_path.read_text())
    from widthiso import random_relabel

    h, _ = random_relabel(g, 3)
    h_path = tmp_path / "h.gr"
    h_path.write_text(write_graph(h))
    assert main(["iso-one", str(g_path), str(d_path), str(h_path), "-k", "2"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 9 and all(line.startswith("map ") for line in lines)


def test_gen_prints_graph_then_decomposition(capsys):
    assert main(["gen", "--n", "9", "--k", "2", "--ratio", "0.8", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    cut = out.index("p td")
    bundle = generate_partial_ktree(9, 2, 0.8, 7)
    assert parse_graph(out[:cut]) == bundle.graph
    assert parse_tree_decomposition(out[cut:]) == (bundle.decomposition, 9)


def test_iso_one_refuses_a_tree_edge_from_a_bag_to_itself(files, capsys):
    tmp, write = files
    g = write("p2.gr", path_graph(2))
    loop = tmp / "loop.td"
    loop.write_text("p td 1 2 2\nb 1 1 2\nt 1 1\n")
    d, n = parse_tree_decomposition(loop.read_text())
    assert n == 2 and d.tree_edges == frozenset({(0, 0)})
    assert main(["iso-one", g, str(loop), g, "-k", "1"]) == 2
    assert "structure: invalid tree edge (0, 0)" in capsys.readouterr().err


def test_iso_both_cli(tmp_path, capsys):
    from widthiso import compute_tree_decomposition
    from widthiso.formats import write_tree_decomposition

    g = cycle_graph(4)
    d = compute_tree_decomposition(g, 2)
    g_path = tmp_path / "g.gr"
    d_path = tmp_path / "g.td"
    g_path.write_text(write_graph(g))
    d_path.write_text(write_tree_decomposition(d, 4))
    assert main(["iso-both", str(g_path), str(d_path), str(g_path), str(d_path)]) == 0
    capsys.readouterr()


def test_iso_tw_and_brute_cli(files, capsys):
    tmp, write = files
    a = write("c6.gr", cycle_graph(6))
    b = write("tri.gr", Graph(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5)]))
    assert main(["iso-tw", a, b, "-k", "2"]) == 1
    assert main(["iso-brute", a, b]) == 1
    assert main(["iso-brute", a, a]) == 0
    capsys.readouterr()


def test_iso_tw_refinement_verdict_precedes_the_width_bound(files, capsys):
    # Neither graph fits width 3 (both hold K5), but refinement tells a
    # 5-vertex path from a triangle and an edge: exit 1, not the bound's 2.
    tmp, write = files
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    a = write("k5p5.gr", Graph(10, k5 + [(5, 6), (6, 7), (7, 8), (8, 9)]))
    b = write("k5te.gr", Graph(10, k5 + [(5, 6), (6, 7), (5, 7), (8, 9)]))
    assert main(["iso-tw", a, b, "-k", "3"]) == 1
    assert main(["iso-tw", a, a, "-k", "3"]) == 2
    capsys.readouterr()


def test_json_mode(files, capsys):
    tmp, write = files
    a = write("p4.gr", path_graph(4))
    assert main(["iso-tdw", a, a, "-k", "1", "--json"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "iso-tdw"
    assert record["verdict"] == "isomorphic"
    assert record["inputs"]["k"] == 1


def test_bad_file_exits_with_usage_error(tmp_path, capsys):
    for text in ("p tw 2 1\ne 1 7\n", "p tw -1 0\n"):
        bad = tmp_path / "bad.gr"
        bad.write_text(text)
        assert main(["tdd-width", str(bad), "-k", "1"]) == 2
        assert "error" in capsys.readouterr().err


def test_malformed_decomposition_exits_with_usage_error(files, capsys):
    tmp, write = files
    g = write("p3.gr", path_graph(3))
    for name, text in (
        ("wide.td", "p td 2 3 3\nb 1 1 2\nb 2 2 3\nt 1 2\n"),  # header width+1 too large
        ("roots.td", "p td 2 2 3\nb 1 1 2\nb 2 2 3\nt 1 2\nr 1\nr 2\n"),  # two r lines
    ):
        bad = tmp / name
        bad.write_text(text)
        assert main(["iso-one", g, str(bad), g, "-k", "1"]) == 2
        assert "error" in capsys.readouterr().err


def test_missing_file_exits_with_usage_error(tmp_path, capsys):
    assert main(["tdd-width", str(tmp_path / "nope.gr"), "-k", "1"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("exc", [RuntimeError("boom"), InternalError("broken invariant")])
def test_internal_error_exits_3(files, capsys, monkeypatch, exc):
    tmp, write = files
    a = write("p4.gr", path_graph(4))

    def broken(*args):
        raise exc

    monkeypatch.setattr(cli, "iso_tdw", broken)
    assert main(["iso-tdw", a, a, "-k", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and str(exc) in err


@pytest.mark.parametrize(
    "command, message",
    [
        (["iso-one", "{g}", "{d}", "{g}", "-k", "1"],
         "decomposition declares 4 vertices, graph has 3"),
        (["tdd-build", "{g}", "--root", "1,x"], "bad root list '1,x'"),
        (["augtree", "{g}", "--root", "4"], "root vertex 4 outside 1..3"),
    ],
)
def test_inconsistent_arguments_exit_with_usage_error(files, capsys, command, message):
    tmp, write = files
    g = write("p3.gr", path_graph(3))
    d = tmp / "p4.td"
    d.write_text("p td 3 2 4\nb 1 1 2\nb 2 2 3\nb 3 3 4\nt 1 2\nt 2 3\n")
    assert main([arg.format(g=g, d=d) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err


# The nine commands that read files: g and h name graph files, d and e their
# decomposition files; k and root are drawn for every run.  A root list may
# start with "-", so it is joined to its option.
_FILE_COMMANDS = [
    ["tdd-build", "{g}", "--root={root}"],
    ["tdd-width", "{g}", "-k", "{k}"],
    ["augtree", "{g}", "--root={root}"],
    ["iso-tdw", "{g}", "{h}", "-k", "{k}"],
    ["canon-tdw", "{g}", "-k", "{k}"],
    ["iso-both", "{g}", "{d}", "{h}", "{e}"],
    ["iso-one", "{g}", "{d}", "{h}", "-k", "{k}"],
    ["iso-tw", "{g}", "{h}", "-k", "{k}"],
    ["iso-brute", "{g}", "{h}"],
]


@pytest.mark.parametrize("command", _FILE_COMMANDS, ids=lambda command: command[0])
def test_non_utf8_file_exits_with_usage_error(tmp_path, capsys, command):
    # Each file a command reads, in turn, holds bytes that are not UTF-8
    # while the others are valid: the reader refuses it by name, whatever
    # the locale, and no command reports an internal error.
    value = {"k": "1", "root": "1"}
    for name, text in (
        ("g", write_graph(path_graph(3))),
        ("d", "p td 2 2 3\nb 1 1 2\nb 2 2 3\nt 1 2\n"),
        ("h", write_graph(path_graph(3))),
        ("e", "p td 2 2 3\nb 1 1 2\nb 2 2 3\nt 1 2\n"),
    ):
        value[name] = tmp_path / name
        value[name].write_text(text)
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe p tw 2 1\ne 1 2\n")
    for slot in [name for name in "gdhe" if "{" + name + "}" in command]:
        argv = [arg.format(**{**value, slot: bad}) for arg in command]
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err and "not UTF-8" in err, (argv, err)


def _fuzz_texts(rng: random.Random) -> dict[str, str]:
    """Files of a seeded partial k-tree with n <= 9 (g, d) and of a relabelled
    copy or another such graph (h, e); each file is mutated with chance 0.3."""
    n = rng.randint(2, 9)
    bundle = generate_partial_ktree(n, rng.randint(1, min(3, n - 1)), rng.random(), rng.randrange(1 << 30))
    g, d = bundle.graph, bundle.decomposition
    if rng.random() < 0.5:
        h, perm = random_relabel(g, rng.randrange(1, 1 << 30))
        e = TreeDecomposition(
            bags=tuple(tuple(sorted(perm[v] for v in bag)) for bag in d.bags),
            tree_edges=d.tree_edges,
            root=d.root,
        )
    else:
        m = rng.randint(2, 9)
        other = generate_partial_ktree(m, rng.randint(1, min(3, m - 1)), rng.random(), rng.randrange(1 << 30))
        h, e = other.graph, other.decomposition
    texts = {
        "g": write_graph(g),
        "d": write_tree_decomposition(d, g.vertex_count),
        "h": write_graph(h),
        "e": write_tree_decomposition(e, h.vertex_count),
    }
    return {
        name: mutants(text, rng, 1)[0] if rng.random() < 0.3 else text
        for name, text in texts.items()
    }


def test_mutated_files_never_crash_a_command(tmp_path, capsys):
    """Seeded runs of every file-reading command on mutated files, for about
    5 s: each exits 0, 1 or 2, and none prints a traceback or an internal
    error."""
    rng = random.Random(27)
    codes = {0: 0, 1: 0, 2: 0}
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        texts = _fuzz_texts(rng)
        value = {"k": str(rng.randint(-1, 3))}
        value["root"] = ",".join(
            rng.choice(["1", "2", "3", "9", "0", "-1", "x", ""]) for _ in range(rng.randint(1, 3))
        )
        for name, text in texts.items():
            path = tmp_path / name
            path.write_text(text)
            value[name] = str(path)
        argv = [arg.format(**value) for arg in rng.choice(_FILE_COMMANDS)]
        code = main(argv)
        err = capsys.readouterr().err
        assert code in codes and "Traceback" not in err and "internal error" not in err, (
            argv, texts, err,
        )
        codes[code] += 1
    # every exit code is reached, so mutants reach the engines and the readers
    assert all(count >= 5 for count in codes.values()), codes
