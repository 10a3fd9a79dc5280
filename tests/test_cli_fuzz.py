"""Random graph files through the command line: every run ends in an exit code.

The examples are derandomized, so every run of the suite tries the same
inputs, and no deadline applies, so no outcome depends on machine speed.
"""

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from bnskit import cli

NAMES = [f"v{i}" for i in range(12)] + ["", "a-b", "v0"]
VERTEX_TOKEN = st.sampled_from(NAMES)
EDGE_TOKEN = st.one_of(
    st.builds(lambda a, b: f"{a}-{b}", VERTEX_TOKEN, VERTEX_TOKEN),
    st.sampled_from(["v1", "-v2", "v1-", "v1-v2-v3", "--"]),
)
LINE = st.one_of(
    st.lists(VERTEX_TOKEN, max_size=12).map(lambda ts: "vertices: " + " ".join(ts)),
    st.lists(EDGE_TOKEN, max_size=30).map(lambda ts: "edges: " + " ".join(ts)),
    st.sampled_from(["", "# comment", "vertices:", "edges:", "   ", "noise"]),
    st.text(max_size=20),
)


@st.composite
def graph_files(draw):
    """A well-formed graph file on at most 12 vertices, its edges spread
    over several lines."""
    n = draw(st.integers(0, 12))
    names = draw(st.permutations(NAMES[:12]))[:n]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    cut = draw(st.integers(0, len(edges)))
    lines = ["vertices: " + " ".join(names) + "  # declared order"]
    lines += ["edges: " + " ".join(f"{a}-{b}" for a, b in part) for part in (edges[:cut], edges[cut:])]
    return lines


@st.composite
def damaged_graph_files(draw):
    lines = draw(graph_files())
    lines.insert(draw(st.integers(0, len(lines))), draw(LINE))
    return lines


GRAPH_TEXT = st.one_of(
    graph_files().map("\n".join),
    damaged_graph_files().map("\n".join),
    st.lists(LINE, max_size=6).map("\n".join),
    st.text(max_size=80),
)


@settings(deadline=None, derandomize=True, database=None, max_examples=200)
@given(GRAPH_TEXT)
def test_graph_commands_end_in_an_exit_code(text):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "g.graph")
        with open(path, "w", encoding="utf-8", errors="surrogatepass") as handle:
            handle.write(text)
        for argv in (["graph", "analyze", path], ["raag", "complement", path]):
            report = cli.run(["--porcelain", *argv])
            assert report.exit_code in (0, 1, 2)
            if report.exit_code:
                assert any(line.startswith("error=") for line in report.porcelain)
