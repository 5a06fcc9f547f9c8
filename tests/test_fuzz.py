"""Fuzz tests of the text parsers, the builders and the CLI on generated
input.

Malformed input must end in ValueError (library) or exit 2 (CLI), never
in another exception or exit 4.  Generated vertex counts stay at 64 or
below wherever a search or a decomposition runs, and above sys.maxsize
only where the count is refused before anything is allocated.
"""

import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from steinercycles import FlowNetwork, build_digraph, build_graph, \
    parse_digraph, parse_network, parse_witness
from steinercycles.cli import main

_NUMBERS = st.one_of(
    st.integers(-3, 70),
    st.sampled_from([10 ** 20, -10 ** 20, sys.maxsize + 1]))
_TOKENS = st.one_of(
    _NUMBERS.map(str),
    st.sampled_from(["", "x", "1.5", "0x3", "+2", "٣", "#", "--"]))
_DIRECTIVES = st.sampled_from(
    ["n", "a", "source", "sink", "lambda", "cycle:", "#", "b", "lambda3",
     "cycle:3", "N"])


@st.composite
def _token_lines(draw):
    """A line a parser may half understand: a directive and a few tokens."""
    words = [draw(_DIRECTIVES)] + draw(st.lists(_TOKENS, max_size=4))
    return " ".join(words)


_TEXT = st.one_of(
    st.text(max_size=200),
    st.lists(st.one_of(_token_lines(), st.text(max_size=20)),
             max_size=12).map("\n".join))


@pytest.mark.deep
@given(_TEXT)
def test_parsers_return_or_raise_value_error(text):
    for parse in (parse_digraph, parse_witness, parse_network):
        try:
            parse(text)
        except ValueError:
            pass


# What a caller might pass for a count, a vertex or a flow: ints, floats
# (integral ones too), bools and digit strings.
_VALUES = st.one_of(st.integers(-2, 6), st.floats(), st.booleans(),
                    st.integers(0, 6).map(str))
_COUNTS = st.one_of(_VALUES, st.sampled_from([sys.maxsize + 1, 10 ** 20]))
_PAIRS = st.lists(st.tuples(_VALUES, _VALUES), max_size=6)


def _plain(values, below):
    return all(type(v) is int and 0 <= v < below for v in values)


@pytest.mark.deep
@given(_COUNTS, _PAIRS, _PAIRS, st.data())
def test_builders_return_plain_ints_or_raise_value_error(count, arcs, edges,
                                                         data):
    try:
        d = build_digraph(count, arcs)
    except ValueError:
        d = build_digraph(2, [(0, 1)])
    n = d.vertex_count
    assert type(n) is int and _plain((v for arc in d.arcs for v in arc), n)
    try:
        g = build_graph(count, edges)
    except ValueError:
        pass
    else:
        assert type(g.vertex_count) is int
        assert _plain((v for edge in g.edges for v in edge), g.vertex_count)
    ends = st.lists(_VALUES, max_size=3)
    flow = st.lists(_VALUES, min_size=len(d.arcs), max_size=len(d.arcs))
    try:
        net = FlowNetwork(d, data.draw(ends), data.draw(ends), data.draw(flow))
    except ValueError:
        return
    assert _plain(net.sources, n) and _plain(net.sinks, n)
    assert all(type(x) is int and x >= 0 for x in net.flow)
    assert len(net.flow) == len(d.arcs)


@st.composite
def _cli_files(draw):
    """A digraph, a terminal list, a witness and a flow network over 2 to
    64 vertices with a few arcs.  Each is well formed, or about one
    time in four carries a malformed line: an arc or vertex outside the
    digraph, a loop, or a half-understood directive."""
    n = draw(st.integers(2, 64))
    # Vertices among the first ten, so that arcs meet.
    inside = st.integers(0, min(n, 10) - 1)
    outside = st.sampled_from([-1, n])
    arcs = [(u, v) for (u, v) in draw(st.lists(st.tuples(inside, inside),
                                                max_size=10)) if u != v]

    def mixed(lines, bad):
        if draw(st.integers(0, 3)) == 0:
            lines.insert(draw(st.integers(1, len(lines))),
                         draw(st.one_of(_token_lines(), bad)))
        return "\n".join(lines) + "\n"

    bad_arc = st.builds("a {} {}".format, st.one_of(inside, outside),
                        st.one_of(inside, outside))
    graph = mixed([f"n {n}"] + [f"a {u} {v}" for (u, v) in arcs], bad_arc)
    terminals = draw(st.lists(inside, min_size=2, max_size=4, unique=True))
    if draw(st.integers(0, 3)) == 0:
        terminals.append(draw(st.one_of(inside, outside)))
    terminals = ",".join(map(str, terminals))
    cycles = draw(st.lists(st.lists(inside, min_size=2, max_size=6,
                                    unique=True), max_size=3))
    witness = mixed([f"lambda {draw(st.integers(0, 3))}"]
                    + ["cycle: " + " ".join(map(str, c + c[:1]))
                       for c in cycles],
                    st.builds("cycle: {} {}".format, inside, outside))
    flows = draw(st.lists(st.integers(0, 3), min_size=len(arcs),
                          max_size=len(arcs)))
    network = mixed([f"n {n}"]
                    + [f"a {u} {v} {f}" for (u, v), f in zip(arcs, flows)]
                    + [f"source {v}" for v in draw(st.lists(inside, max_size=2))]
                    + [f"sink {v}" for v in draw(st.lists(inside, max_size=2))],
                    st.one_of(bad_arc.map(lambda a: a + " -1"),
                              outside.map("sink {}".format)))
    return graph, terminals, witness, network


def _run(argv) -> tuple:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@given(_cli_files())
def test_cli_on_generated_files_exits_cleanly(files):
    graph, terminals, witness, network = files
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in (("graph", graph), ("witness", witness),
                           ("network", network)):
            paths[name] = str(Path(tmp) / name)
            Path(paths[name]).write_text(text, encoding="utf-8")
        # `--S=` keeps a list starting with "-1" from reading as an option.
        code, solved = _run(["solve", "--graph", paths["graph"],
                             f"--S={terminals}"])
        assert code in (0, 2)
        verify = ["verify", "--graph", paths["graph"],
                  "--witness", paths["witness"], f"--S={terminals}"]
        assert _run(verify)[0] in (0, 1, 2)
        if code == 0:
            # The solver's own witness passes verification.
            Path(paths["witness"]).write_text(solved, encoding="utf-8")
            assert _run(verify)[0] == 0
        assert _run(["flow-decompose",
                     "--network", paths["network"]])[0] in (0, 2)
