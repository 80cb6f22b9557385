"""The text input formats: one comment-aware line reader, one edge parser."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnpipeline.bayesnet import read_structure
from bnpipeline.config import ConfigError, parse_config_text
from bnpipeline.dataset import DataError, content_lines, read_schema, read_text
from bnpipeline.structlearn import read_constraints, read_orientation


def test_content_lines_cuts_comments_and_keeps_line_numbers():
    text = "# header\n\n  A -> B  # link\n#\nnode C\n"
    assert content_lines(text) == [(3, "A -> B"), (5, "node C")]


@pytest.mark.parametrize("reader", [read_structure, read_constraints, read_orientation])
@pytest.mark.parametrize("line", ["A ->", "-> B", "A B", "require A ->", "A -> B -> C"])
def test_malformed_edge_line_names_file_and_line(tmp_path, reader, line):
    path = tmp_path / "edges.txt"
    path.write_text(f"# edges\n{line}\n", encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2:")):
        reader(path)


@pytest.mark.parametrize("reader", [read_schema, read_structure, read_constraints, read_orientation])
def test_undecodable_byte_names_the_file(tmp_path, reader):
    path = tmp_path / "input.txt"
    path.write_bytes(b"# \xff\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: byte 2 is not valid utf-8")):
        reader(path)


def test_read_text_drops_one_leading_byte_order_mark(tmp_path):
    path = tmp_path / "input.txt"
    path.write_bytes(b"\xef\xbb\xbfA -> B\r\n")
    assert read_text(path) == "A -> B\r\n"
    path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfA\n")
    assert read_text(path) == "\ufeffA\n"


def _from_file(read):
    def call(text, path):
        path.write_text(text, encoding="utf-8")
        return read(path)

    return call


READERS = {
    "schema": (_from_file(read_schema), DataError),
    "structure": (_from_file(read_structure), DataError),
    "constraints": (_from_file(read_constraints), DataError),
    "orientation": (_from_file(read_orientation), DataError),
    "config": (lambda text, path: parse_config_text(text, str(path)), ConfigError),
}

# the formats' own tokens, so that examples reach past the first syntax check
TOKENS = (
    "A", "B", "C", "->", "node", "require", "forbid", ":", "|", "[target]",
    "[data]", "[split]", "[mcmc]", "[bogus]", "dataset", "schema", "seed", "thin",
    "=", "#", "0", "1", "x",
)
NAMES = st.sampled_from(("A", "B", "C"))
LINES = st.one_of(
    st.builds(
        lambda tokens, sep: sep.join(tokens),
        st.lists(st.sampled_from(TOKENS), max_size=6),
        st.sampled_from([" ", ""]),
    ),
    # well-formed edges, so that whole files of them reach the graph checks
    st.builds("{} {} -> {}".format, st.sampled_from(("", "require", "forbid")), NAMES, NAMES),
)
TEXTS = st.lists(LINES, max_size=8).map("\n".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers")


@pytest.mark.parametrize("fmt", sorted(READERS))
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(text=TEXTS)
def test_reader_returns_or_raises_its_input_error(scratch, fmt, text):
    read, error = READERS[fmt]
    try:
        read(text, scratch / f"input.{fmt}")
    except error:
        pass
