import csv
import io
import itertools
import math
import re
import shutil
import warnings
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnpipeline.dataset import (
    DataError,
    Dataset,
    MissingColumn,
    Schema,
    SchemaError,
    SplitError,
    SplitPlan,
    UnknownState,
    VariableSpec,
    contingency_table,
    ingest_csv,
    load_dataset,
    make_split,
    numeric_state_values,
    read_schema,
    write_csv,
    write_rows,
    write_schema,
    write_split_plan,
)
from bnpipeline import dataset
from bnpipeline.dataset import _CsvCells

DEMO = Path(__file__).resolve().parents[1] / "data"

def two_var_schema():
    return Schema((
        VariableSpec("A", ("x", "z"), "target"),
        VariableSpec("B", ("y",) + ("w",)),
    ))


class TestSchema:
    def test_exactly_one_target(self):
        with pytest.raises(SchemaError):
            Schema((VariableSpec("A", ("a", "b")),))
        with pytest.raises(SchemaError):
            Schema((
                VariableSpec("A", ("a", "b"), "target"),
                VariableSpec("B", ("a", "b"), "target"),
            ))

    def test_duplicate_states_rejected(self):
        with pytest.raises(SchemaError):
            VariableSpec("A", ("a", "a"))

    def test_single_state_rejected(self):
        with pytest.raises(SchemaError):
            VariableSpec("A", ("a",))

    def test_file_round_trip(self, tmp_path):
        schema = two_var_schema()
        path = tmp_path / "vars.schema"
        write_schema(schema, path)
        assert read_schema(path) == schema

    def test_file_comments_and_blanks(self, tmp_path):
        path = tmp_path / "vars.schema"
        path.write_text("# header\nA : x|z  [target]\n\nB : y|w  # trailing\n")
        schema = read_schema(path)
        assert schema.target == "A"
        assert schema.spec("B").states == ("y", "w")

    def test_numeric_state_values(self):
        spec = VariableSpec("T", tuple(str(i) for i in range(1, 11)), "target")
        assert numeric_state_values(spec).tolist() == [float(i) for i in range(1, 11)]
        spec2 = VariableSpec("T", ("lo", "mid", "hi"), "target")
        assert numeric_state_values(spec2).tolist() == [1.0, 2.0, 3.0]


def three_var_schema():
    return Schema((
        VariableSpec("T", ("1", "2", "3"), "target"),
        VariableSpec("U", ("a", "b")),
        VariableSpec("V", ("p", "q", "r", "s")),
    ))


def add_at_table(records, cols, shape):
    """Count table by np.add.at over the records' rows, independent of layout."""
    table = np.zeros(shape, dtype=np.int64)
    np.add.at(table, tuple(np.asarray(records)[:, c] for c in cols), 1)
    return table


def assert_column_major_read_only(data):
    assert data.records.flags.f_contiguous
    assert not data.records.flags.writeable


class TestLayout:
    """Records are column-major and read-only, and counts do not depend on
    the layout of the array a Dataset was built from."""

    @pytest.mark.parametrize("layout", ["C", "F", "sliced", "empty"])
    def test_contingency_table_matches_add_at(self, layout):
        schema = three_var_schema()
        rng = np.random.default_rng(11)
        base = np.column_stack([
            rng.integers(0, 3, 80), rng.integers(0, 2, 80), rng.integers(0, 4, 80),
        ])
        records = {
            "C": np.ascontiguousarray(base),
            "F": np.asfortranarray(base),
            # every other row, and the columns of a wider reversed array
            "sliced": np.column_stack([base[:, ::-1], base])[::2, 3:],
            "empty": base[:0],
        }[layout]
        data = Dataset(schema, records)
        assert_column_major_read_only(data)
        for names in (("T",), ("U", "T"), ("T", "U", "V"), ("V", "T", "U"), ("V", "V")):
            cols = [schema.index(n) for n in names]
            shape = tuple(schema.cardinality(n) for n in names)
            table = contingency_table(data, names)
            assert table.dtype == np.int64
            assert np.array_equal(table, add_at_table(records, cols, shape))

    def test_ingest_subset_and_select_keep_the_layout(self, tmp_path):
        schema = three_var_schema()
        rng = np.random.default_rng(12)
        data = Dataset(schema, rng.integers(0, 2, size=(40, 3)))
        write_csv(data, tmp_path / "d.csv")
        loaded = ingest_csv(tmp_path / "d.csv", schema)
        assert_column_major_read_only(loaded)
        rows = [5, 0, 39, 5]
        sub = loaded.subset(rows)
        assert_column_major_read_only(sub)
        assert np.array_equal(sub.records, data.records[rows])
        picked = loaded.select_variables(["V", "T"])
        assert_column_major_read_only(picked)
        assert picked.schema.names == ("T", "V")
        assert np.array_equal(picked.records, data.records[:, [0, 2]])


class TestWriteRows:
    def test_fields_read_back_and_lines_end_in_lf(self, tmp_path):
        header = ["F1,\"x\"é", "plain"]
        rows = [["lo,\"w\"", repr(0.1)], ["a\nb", "c"], ["", "x"]]
        write_rows(tmp_path / "t.csv", header, rows)
        raw = (tmp_path / "t.csv").read_bytes()
        assert raw.startswith('"F1,""x""é",plain\n'.encode("utf-8"))
        assert raw.endswith(b'"a\nb",c\n,x\n') and b"\r" not in raw
        with open(tmp_path / "t.csv", newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [header, *rows]


@st.composite
def memo_cases(draw):
    """(Dataset, requests): 1-6 variables of 2-5 states (a variable needs
    at least 2) and 0-300 rows, and every 1-3-name request in every order,
    shuffled."""
    cards = draw(st.lists(st.integers(2, 5), min_size=1, max_size=6))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    schema = Schema(tuple(
        VariableSpec(f"V{j}", tuple(str(k) for k in range(r)), "target" if j == 0 else "predictor")
        for j, r in enumerate(cards)
    ))
    records = np.column_stack([rng.integers(0, r, n) for r in cards])
    requests = [
        order for k in (1, 2, 3) for names in itertools.combinations(schema.names, k)
        for order in itertools.permutations(names)
    ]
    return Dataset(schema, records), draw(st.permutations(requests))


def fresh_count(data, names):
    """The table of a counting pass, past any kept table."""
    return dataset._count(data, names)


MEMO_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


class TestTableMemo:
    @MEMO_SETTINGS
    @given(case=memo_cases())
    def test_every_request_equals_a_fresh_count(self, case):
        data, requests = case
        for names in requests:
            got, fresh = contingency_table(data, names), fresh_count(data, names)
            assert got.dtype == fresh.dtype == np.int64 and got.shape == fresh.shape
            assert got.flags.c_contiguous and got.tobytes() == fresh.tobytes()
            cols = [data.schema.index(n) for n in names]
            assert np.array_equal(got, add_at_table(data.records, cols, fresh.shape))

    @MEMO_SETTINGS
    @given(case=memo_cases())
    def test_a_changed_answer_changes_no_later_one(self, case):
        data, requests = case
        for names in requests:
            contingency_table(data, names)[...] += 1
            contingency_table(data, names[::-1])[...] = -1
            assert contingency_table(data, names).tobytes() == fresh_count(data, names).tobytes()

    @MEMO_SETTINGS
    @given(case=memo_cases())
    def test_the_cells_bound_holds_and_the_kept_order_is_the_first_requests(self, case):
        data, requests = case
        expected, cells, seen = [], 0, set()
        for names in requests:
            contingency_table(data, names)
            size = math.prod(data.schema.cardinality(n) for n in names)
            if frozenset(names) not in seen and cells + size <= data.records.size:
                expected.append(names)
                cells += size
                seen.add(frozenset(names))
        memo = data._memo
        assert [order for order, _ in memo.tables.values()] == expected
        assert memo.cells == sum(t.size for _, t in memo.tables.values()) == cells <= data.records.size

    @MEMO_SETTINGS
    @given(case=memo_cases())
    def test_groups_are_never_served_from_kept_tables(self, case):
        data, requests = case
        groups = np.arange(data.n_records) % 3
        for names in requests:
            shape = tuple(data.schema.cardinality(n) for n in names)
            # a wrong table kept under these names: served without groups, never with them
            data._memo.tables[frozenset(names)] = (names, np.full(shape, 7, dtype=np.int64))
            assert np.all(contingency_table(data, names) == 7)
            cols = [data.schema.index(n) for n in names]
            stacked = contingency_table(data, names, groups)
            reference = [add_at_table(data.records[groups == g], cols, shape) for g in range(groups.max(initial=-1) + 1)]
            assert stacked.shape == (len(reference), *shape)
            assert all(np.array_equal(s, r) for s, r in zip(stacked, reference))

    @MEMO_SETTINGS
    @given(case=memo_cases())
    def test_subset_starts_empty_and_select_variables_shares(self, case):
        data, requests = case
        target = data.schema.target
        names = requests[0]
        shape = tuple(data.schema.cardinality(n) for n in names)
        data._memo.tables[frozenset(names)] = (names, np.full(shape, 7, dtype=np.int64))
        picked = data.select_variables({target, *names})
        assert np.all(contingency_table(picked, names) == 7)
        sub = data.subset(np.arange(data.n_records))
        assert sub._memo.tables == {}
        assert contingency_table(sub, names).tobytes() == fresh_count(data, names).tobytes()

    def test_repeated_names_are_counted_not_kept(self):
        data = Dataset(three_var_schema(), np.array([[0, 1, 2], [2, 0, 3]]))
        assert contingency_table(data, ("V", "V")).tolist()[2][2] == 1
        assert data._memo.tables == {}


@st.composite
def stack_cases(draw):
    """(Dataset, names): 2-9 variables of 2-6 states, some of them constant,
    and 1-3,000 rows, so that the blocks of contingency_stacks are single
    variables on some and several on others, and the variables in a drawn
    order."""
    cards = draw(st.lists(st.integers(2, 6), min_size=2, max_size=9))
    n = draw(st.integers(1, 3_000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    constant = draw(st.lists(st.booleans(), min_size=len(cards), max_size=len(cards)))
    schema = Schema(tuple(
        VariableSpec(f"V{j}", tuple(str(k) for k in range(r)), "target" if j == 0 else "predictor")
        for j, r in enumerate(cards)
    ))
    records = np.column_stack([
        np.full(n, rng.integers(0, r)) if still else rng.integers(0, r, n) for r, still in zip(cards, constant)
    ])
    return Dataset(schema, records), draw(st.permutations(schema.names))


def reference_tables(data, names):
    """The per-table loop contingency_stacks stands for: every single, pair
    and triple of names, in combinations order, one contingency_table call
    each."""
    for width in (1, 2, 3):
        for combo in itertools.combinations(names, width):
            contingency_table(data, combo)


class TestContingencyStacks:
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(case=stack_cases())
    def test_every_table_equals_a_counting_pass_bit_for_bit(self, case):
        data, names = case
        seen = set()
        for positions, tables in dataset.contingency_stacks(data, names):
            assert tables.dtype == np.int64 and len(positions) == len(tables)
            for row, table in zip(positions.tolist(), tables):
                assert row == sorted(set(row)) and tuple(row) not in seen
                seen.add(tuple(row))
                fresh = fresh_count(data, [names[p] for p in row])
                assert table.shape == fresh.shape and table.tobytes() == fresh.tobytes()
        assert seen == {c for w in (1, 2, 3) for c in itertools.combinations(range(len(names)), w)}

    def test_blocks_follow_the_records_per_cell(self):
        assert dataset._blocks([5] * 10, 100_000) == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        assert dataset._blocks([5] * 10, 15_625) == [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9]]
        assert dataset._blocks([5] * 10, 15_624) == [[i] for i in range(10)]
        assert dataset._blocks([2, 2], 10**6) == [[0, 1]]
        assert dataset._blocks([2, 50, 2, 2], 1_000) == [[0], [1], [2, 3]]

    @pytest.mark.parametrize("cards, n, order, kept_first", [
        ((3, 4), 50, None, None),  # two variables in one block
        ((5,) * 6, 10_000, None, None),  # blocks of two; every table fits
        ((5,) * 8, 40, None, None),  # single variables; the cells bound stops the triples
        ((6, 6, 6, 2, 2, 2), 30, None, None),  # smaller triples fit after larger ones did not
        ((4, 3, 2, 5, 2), 2_000, (3, 1, 4, 0, 2), (2, 0)),  # names permuted; one table already kept
    ])
    def test_kept_tables_and_counts_file_equal_the_per_table_loop(self, tmp_path, cards, n, order, kept_first):
        schema = Schema(tuple(
            VariableSpec(f"V{j}", tuple(str(k) for k in range(r)), "target" if j == 0 else "predictor")
            for j, r in enumerate(cards)
        ))
        rng = np.random.default_rng(n)
        write_csv(Dataset(schema, np.column_stack([rng.integers(0, r, n) for r in cards])), tmp_path / "d.csv")
        names = [schema.names[i] for i in order] if order else list(schema.names)
        outcome = []
        for stacked in (True, False):
            out = tmp_path / ("stacked" if stacked else "loop")
            out.mkdir()
            data = load_dataset(tmp_path / "d.csv", schema, out)
            if kept_first:
                contingency_table(data, [schema.names[i] for i in kept_first])
            if stacked:
                with mock.patch.object(dataset._TableMemo, "get", side_effect=AssertionError("a table served")):
                    list(dataset.contingency_stacks(data, names))
            else:
                reference_tables(data, names)
            dataset.store_counts(data, out)
            kept = [(order, table.dtype, table.tobytes()) for order, table in data._memo.tables.values()]
            (name,) = counts_files(out)
            outcome.append((kept, name, (out / name).read_bytes()))
        assert outcome[0] == outcome[1]
        every = sum(math.prod(cards[schema.names.index(v)] for v in c) for w in (1, 2, 3) for c in itertools.combinations(names, w))
        assert data._memo.cells <= data.records.size and (data._memo.cells < every) == (n * len(cards) < every)


# cells with embedded delimiters and quotes, and an extra column E
PARITY_STATES = {"A": ("x", "a,b", 'say "hi"'), "B": ("y", "w;v", "1"), "E": ("e", "f,g")}
PARITY_SCHEMA = Schema((
    VariableSpec("A", PARITY_STATES["A"], "target"),
    VariableSpec("B", PARITY_STATES["B"]),
))


@st.composite
def csv_cases(draw):
    """(header, rows, line terminator, quoting): a header-only file
    when rows is empty; cells are mostly valid, with unknown states and ragged
    rows mixed in."""
    header = list(draw(st.permutations(draw(st.sampled_from((("A", "B"), ("A", "B", "E")))))))
    row = st.tuples(
        *(st.sampled_from(PARITY_STATES[name] * 3 + ("bad",)) for name in header)
    ).map(list)
    ragged = st.lists(st.sampled_from(("x", "y", "a,b", "")), max_size=len(header) + 1)
    rows = draw(st.lists(st.one_of(row, row, row, ragged), max_size=6))
    return (
        header,
        rows,
        draw(st.sampled_from(("\n", "\r\n", "\r"))),
        draw(st.sampled_from((csv.QUOTE_MINIMAL, csv.QUOTE_ALL))),
    )


def write_case(path, case):
    header, rows, terminator, quoting = case
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=terminator, quoting=quoting)
        writer.writerows([header, *rows])


def reference_outcome(path):
    """Row-by-row encoder: the first row that is ragged or holds an unknown
    state (first schema variable in the row) decides the error."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *body = csv.reader(fh)
    encoded = []
    for row_num, cells in enumerate(body, 1):
        if len(cells) != len(header):
            return ("error", f"{path}: row {row_num} has {len(cells)} cells, expected {len(header)}")
        codes = []
        for spec in PARITY_SCHEMA.variables:
            value = cells[header.index(spec.name)]
            if value not in spec.states:
                return ("unknown", spec.name, value, row_num)
            codes.append(spec.states.index(value))
        encoded.append(codes)
    return ("ok", encoded)


def ingest_outcome(path):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            data = ingest_csv(path, PARITY_SCHEMA)
    except UnknownState as exc:
        return ("unknown", exc.variable, exc.value, exc.row)
    except DataError as exc:
        return ("error", str(exc))
    return ("ok", data.records.tolist())


@pytest.fixture(scope="module")
def parity_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("ingest")


class TestIngest:
    def test_header_mapping(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx,y\n")
        data = ingest_csv(path, two_var_schema())
        assert data.n_records == 1
        assert data.records.tolist() == [[0, 0]]

    def test_column_order_free(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("B,A\ny,z\nw,x\n")
        data = ingest_csv(path, two_var_schema())
        assert data.records.tolist() == [[1, 0], [0, 1]]

    def test_unknown_column_warns(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B,EXTRA\nx,y,1\n")
        with pytest.warns(UserWarning, match="EXTRA"):
            data = ingest_csv(path, two_var_schema())
        assert data.n_records == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A\nx\n")
        with pytest.raises(MissingColumn):
            ingest_csv(path, two_var_schema())

    def test_unknown_state_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx,y\nq,y\n")
        with pytest.raises(UnknownState) as err:
            ingest_csv(path, two_var_schema())
        assert err.value.variable == "A"
        assert err.value.value == "q"
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty"):
            ingest_csv(path, two_var_schema())

    def test_duplicate_header_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,A,B\nx,x,y\n")
        with pytest.raises(DataError, match="duplicate"):
            ingest_csv(path, two_var_schema())

    def test_header_only_file_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n")
        assert ingest_csv(path, two_var_schema()).n_records == 0

    def test_empty_schema_file(self, tmp_path):
        path = tmp_path / "empty.schema"
        path.write_text("# only comments\n")
        with pytest.raises(SchemaError, match="empty"):
            read_schema(path)

    def test_quoted_fields(self, tmp_path):
        schema = Schema((VariableSpec("A", ("a,b", "c"), "target"), VariableSpec("B", ("y", "w"))))
        path = tmp_path / "d.csv"
        path.write_text('A,B\n"a,b",y\n')
        assert ingest_csv(path, schema).records.tolist() == [[0, 0]]

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        schema = Schema((
            VariableSpec("T", ("1", "2", "3"), "target"),
            VariableSpec("U", ("a", "b")),
            VariableSpec("V", ("p", "q", "r", "s")),
        ))
        data = Dataset(schema, np.column_stack([
            rng.integers(0, 3, 50), rng.integers(0, 2, 50), rng.integers(0, 4, 50),
        ]))
        path = tmp_path / "d.csv"
        write_csv(data, path)
        again = ingest_csv(path, schema)
        assert again == data
        write_csv(again, tmp_path / "d2.csv")
        assert (tmp_path / "d2.csv").read_bytes() == path.read_bytes()

    def test_semicolon_delimiter(self, tmp_path):
        # cells are split on commas only: a semicolon is text of its cell
        path = tmp_path / "d.csv"
        path.write_text("A;B\nx;y\n")
        with pytest.raises(MissingColumn, match="no column for variable 'A'"):
            ingest_csv(path, two_var_schema())

    def test_byte_order_mark(self, tmp_path):
        # the UTF-8 byte-order mark spreadsheet programs write first is not
        # part of the first column's name
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (DEMO / "synthetic.csv").read_bytes())
        schema = read_schema(DEMO / "synthetic.schema")
        assert ingest_csv(path, schema) == ingest_csv(DEMO / "synthetic.csv", schema)
        path.write_bytes(b"\xef\xbb\xbf")
        with pytest.raises(DataError, match="empty file"):
            ingest_csv(path, schema)

    def test_only_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        # a second mark, or one inside a cell, is text
        path = tmp_path / "d.csv"
        path.write_text("\ufeff\ufeffA,B\nx,y\n", encoding="utf-8")
        with pytest.raises(MissingColumn, match="no column for variable 'A'"):
            ingest_csv(path, two_var_schema())
        path.write_text("\ufeffA,B\nx,y\n\ufeffx,y\n", encoding="utf-8")
        with pytest.raises(UnknownState) as info:
            ingest_csv(path, two_var_schema())
        assert (info.value.variable, info.value.value, info.value.row) == ("A", "\ufeffx", 2)

    def test_bytes_that_are_not_utf8_after_a_byte_order_mark(self, tmp_path):
        # the offset in the message counts the file's bytes, the mark's too
        path = tmp_path / "d.csv"
        path.write_bytes(b"\xef\xbb\xbfA,B\n\xff,y\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: byte 7 is not valid utf-8")):
            ingest_csv(path, two_var_schema())

    def test_survey_sized_file(self, tmp_path):
        # 234 records over ten variables, the scale the pipeline was sized for
        rng = np.random.default_rng(6)
        specs = [VariableSpec("T", tuple(str(i) for i in range(1, 11)), "target")]
        specs += [VariableSpec(f"V{i}", tuple(str(i) for i in range(1, 6))) for i in range(9)]
        schema = Schema(tuple(specs))
        records = np.column_stack(
            [rng.integers(0, 10, 234)] + [rng.integers(0, 5, 234) for _ in range(9)]
        )
        path = tmp_path / "survey.csv"
        write_csv(Dataset(schema, records), path)
        data = ingest_csv(path, schema)
        assert data.records.shape == (234, 10)

    def test_ragged_row_names_row_and_widths(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx,y\nx\nz,w\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: row 2 has 1 cells, expected 2")):
            ingest_csv(path, two_var_schema())

    def test_unknown_state_before_ragged_row_wins(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx,y\nx,q\nx,y,z\n")
        with pytest.raises(UnknownState) as err:
            ingest_csv(path, two_var_schema())
        assert (err.value.variable, err.value.value, err.value.row) == ("B", "q", 2)

    def test_ragged_row_before_unknown_state_wins(self, tmp_path):
        # the ragged row holds an unknown state too; its width is checked first
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx,y\nq,y,z\nq,y\n")
        with pytest.raises(DataError, match="row 2 has 3 cells, expected 2") as err:
            ingest_csv(path, two_var_schema())
        assert not isinstance(err.value, UnknownState)

    def test_first_schema_variable_of_a_row_is_reported(self, tmp_path):
        # B's cell comes first in the file, but A comes first in the schema
        path = tmp_path / "d.csv"
        path.write_text("B,A\ny,x\nq,r\nq,x\n")
        with pytest.raises(UnknownState) as err:
            ingest_csv(path, two_var_schema())
        assert (err.value.variable, err.value.value, err.value.row) == ("A", "r", 2)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(case=csv_cases())
    def test_matches_row_by_row_reference(self, parity_dir, case):
        path = parity_dir / "d.csv"
        write_case(path, case)
        assert ingest_outcome(path) == reference_outcome(path)


    @pytest.mark.parametrize("body, fault", [
        ('x,y\nx,a"b\nx,y\n', "malformed quoting"),  # a quote inside an unquoted cell
        ('x,y\n"x"z,y\nx,y\n', "malformed quoting"),  # text after the closing quote
        ('x,y\nx,a"y"\nx,y\n', "malformed quoting"),  # a quoted tail on an unquoted cell
        ('x,y\nx,"y\nx,y\n', "unterminated quoted field"),  # open to the end of the file
    ], ids=["quote_in_unquoted_cell", "text_after_closing_quote", "quoted_tail", "unterminated"])
    def test_malformed_quoting_names_the_row(self, tmp_path, body, fault):
        path = tmp_path / "d.csv"
        path.write_text("A,B\n" + body, encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: row 2: {fault}")) as err:
            ingest_csv(path, two_var_schema())
        assert not isinstance(err.value, UnknownState)

    def test_malformed_quoting_in_the_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"A"B,B\nx,y\n', encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: header row: malformed quoting")):
            ingest_csv(path, two_var_schema())

    def test_first_offending_row_wins_over_quoting(self, tmp_path):
        # an unknown state in row 2 comes before the broken quote in row 3
        path = tmp_path / "d.csv"
        path.write_text('A,B\nx,y\nq,y\nx,"y\n', encoding="utf-8")
        with pytest.raises(UnknownState) as err:
            ingest_csv(path, two_var_schema())
        assert (err.value.variable, err.value.value, err.value.row) == ("A", "q", 2)
        # a row both ragged and badly quoted reports its quoting
        path.write_text('A,B\nx,y\nx,y"z,w\n', encoding="utf-8")
        with pytest.raises(DataError, match=re.escape(f"{path}: row 2: malformed quoting")):
            ingest_csv(path, two_var_schema())

    @pytest.mark.parametrize("cell", ["1\x00", "12", "\x001", '"1\x00"', "", '""'])
    def test_cell_extending_or_shortening_a_label_is_unknown(self, tmp_path, cell):
        schema = Schema((VariableSpec("A", ("1", "2"), "target"), VariableSpec("B", ("y", "w"))))
        path = tmp_path / "d.csv"
        path.write_text(f"A,B\n1,y\n{cell},w\n", encoding="utf-8")
        with pytest.raises(UnknownState) as err:
            ingest_csv(path, schema)
        value = cell[1:-1] if cell.startswith('"') else cell
        assert (err.value.variable, err.value.value, err.value.row) == ("A", value, 2)

    def test_labels_differing_by_a_trailing_nul(self, tmp_path):
        schema = Schema((VariableSpec("A", ("1\x00", "1"), "target"), VariableSpec("B", ("y", "w"))))
        path = tmp_path / "d.csv"
        path.write_text("A,B\n1,y\n1\x00,w\n", encoding="utf-8")
        assert ingest_csv(path, schema).records.tolist() == [[1, 0], [0, 1]]

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order mark"])
    def test_non_ascii_labels_and_delimiter(self, tmp_path, bom):
        # labels of multi-byte characters; one over 8 bytes spans more than
        # one key word. A byte-order mark before the header is not text of
        # the first column's name
        long = "\u65e5\u672c\u8a9e\u306e\u30e9\u30d9\u30eb"
        schema = Schema((
            VariableSpec("\u00c9T", ("\u00e9", long, "e"), "target"),
            VariableSpec("B", ("y", 'w\u00a6"v', "\U0001f600")),
        ))
        rows = [["\u00e9", "y"], ["e", 'w\u00a6"v'], [long, "\U0001f600"]]
        path = tmp_path / "d.csv"
        with open(path, "wb") as fh:
            fh.write(bom)
        with open(path, "a", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([["B", "\u00c9T"]] + [r[::-1] for r in rows])
        data = ingest_csv(path, schema)
        assert data.records.tolist() == [[0, 0], [2, 1], [1, 2]]

    def test_blank_lines_and_line_ends(self, tmp_path):
        # LF, CRLF and a lone CR end rows; a blank line is a row of no cells
        path = tmp_path / "d.csv"
        path.write_bytes(b'A,B\r\nx,y\rz,"w"\nx,y')
        assert ingest_csv(path, two_var_schema()).records.tolist() == [[0, 0], [1, 1], [0, 0]]
        path.write_bytes(b"A,B\nx,y\n\r\nx,y\n")
        with pytest.raises(DataError, match=re.escape(f"{path}: row 2 has 0 cells, expected 2")):
            ingest_csv(path, two_var_schema())


def cache_files(out):
    return sorted(p.name for p in out.glob("records-*.npy"))


def one_column(path, labels=("x", "y")):
    """A one-variable CSV and its schema."""
    path.write_text("T\nx\ny\nx\n", encoding="utf-8")
    return Schema((VariableSpec("T", labels, "target"),))


class TestRecordsCache:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(case=csv_cases())
    def test_hit_equals_parse(self, parity_dir, case):
        path, out = parity_dir / "cached.csv", parity_dir / "cache"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        write_case(path, case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                parsed = ingest_csv(path, PARITY_SCHEMA)
            except DataError as exc:
                # a parse error stores nothing, and is raised again on the next call
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    load_dataset(path, PARITY_SCHEMA, out)
                assert cache_files(out) == []
                return
            missed = load_dataset(path, PARITY_SCHEMA, out)
        with mock.patch.object(dataset, "ingest_csv", side_effect=AssertionError("parsed on a hit")):
            hit = load_dataset(path, PARITY_SCHEMA, out)
        for data in (missed, hit):
            assert data.records.dtype == parsed.records.dtype and data.records.flags.f_contiguous
            assert data.records.tobytes(order="F") == parsed.records.tobytes(order="F")
        assert len(cache_files(out)) == 1

    def test_key_changes_with_each_input_and_stale_files_go(self, tmp_path):
        path, out = tmp_path / "d.csv", tmp_path / "out"
        out.mkdir()
        (out / "records-0123abcd.npy").write_bytes(b"left by an earlier run")
        (out / "records.txt").write_text("not a cache file", encoding="utf-8")
        schema = one_column(path)
        seen = []

        def load(schema=schema):
            data = load_dataset(path, schema, out)
            assert len(cache_files(out)) == 1 and cache_files(out)[0] not in seen
            seen.extend(cache_files(out))
            return data

        assert load().records.ravel().tolist() == [0, 1, 0]
        path.write_text("T\nx\nx\nx\n", encoding="utf-8")  # one byte
        assert load().records.ravel().tolist() == [0, 0, 0]
        path.write_text("T\nx\ny\nx\n", encoding="utf-8")
        assert load(one_column(path, ("y", "x"))).records.ravel().tolist() == [1, 0, 1]
        assert (out / "records.txt").is_file()

    def test_demo_key_is_pinned(self):
        # the name of every demo records and counts file: a change to what
        # the key hashes renames them all
        key = dataset._records_key(DEMO / "synthetic.csv", read_schema(DEMO / "synthetic.schema"))
        assert key == "d58cb1e20c22cd11b454af58367220207762aaea4bc574476eb7233173542ac4"

    def test_byte_order_mark_file_keeps_its_own_cache_file(self, tmp_path):
        # the key hashes the raw bytes: a BOM-prefixed copy has a key of its
        # own, the same records, and is read from its file on the next call
        out = tmp_path / "out"
        out.mkdir()
        schema = read_schema(DEMO / "synthetic.schema")
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + (DEMO / "synthetic.csv").read_bytes())
        plain = load_dataset(DEMO / "synthetic.csv", schema, out)
        assert dataset._records_key(path, schema) != dataset._records_key(DEMO / "synthetic.csv", schema)
        missed = load_dataset(path, schema, out)
        with mock.patch.object(dataset, "ingest_csv", side_effect=AssertionError("parsed on a hit")):
            hit = load_dataset(path, schema, out)
        assert missed == plain and hit == plain
        (name,) = cache_files(out)  # the plain file's is replaced
        assert name.startswith(f"records-{dataset._records_key(path, schema)}-")

    def test_largest_state_index_sets_the_stored_dtype(self, tmp_path):
        for states, dtype in ((256, np.uint8), (257, np.uint16)):
            labels = tuple(f"s{k}" for k in range(states))
            path, out = tmp_path / f"{states}.csv", tmp_path / f"out{states}"
            out.mkdir()
            path.write_text(f"T\ns0\ns{states - 1}\n", encoding="utf-8")
            data = load_dataset(path, Schema((VariableSpec("T", labels, "target"),)), out)
            stored = np.load(out / cache_files(out)[0], allow_pickle=False)
            assert stored.dtype == dtype and np.array_equal(stored, data.records)

    @pytest.mark.parametrize("damage", [
        "empty", "truncated header", "truncated data", "extra bytes", "more rows", "fewer rows",
        "int64", "signed", "C order", "extra column", "out of range", "pickled", "npz", "directory",
    ])
    def test_unusable_file_is_a_miss_and_is_rewritten(self, tmp_path, damage):
        path, out = tmp_path / "d.csv", tmp_path / "out"
        out.mkdir()
        path.write_text("A,B\nx,y\nz,w\nz,y\n", encoding="utf-8")
        parsed = load_dataset(path, two_var_schema(), out)
        cached = out / cache_files(out)[0]
        good = cached.read_bytes()
        records = np.load(cached, allow_pickle=False)

        def saved(array, **kwargs):
            buffer = io.BytesIO()
            np.save(buffer, array, **kwargs)
            return buffer.getvalue()

        header = good[: good.index(b"\n") + 1]
        damaged = {
            "empty": b"",
            "truncated header": good[:20],
            "truncated data": good[:-1],
            "extra bytes": good + b"\0",
            "more rows": header.replace(b"(3, 2)", b"(4, 2)") + good[len(header):],
            "fewer rows": header.replace(b"(3, 2)", b"(2, 2)") + good[len(header):],
            "int64": saved(records.astype(np.int64)),
            "signed": saved(records.astype(np.int8)),
            "C order": saved(np.ascontiguousarray(records)),
            "extra column": saved(np.asfortranarray(np.column_stack([records, records[:, 0]]))),
            "out of range": saved(np.asfortranarray(records + 1)),
            "pickled": saved(records.astype(object), allow_pickle=True),
            "npz": None,
            "directory": None,
        }[damage]
        cached.unlink()
        if damage == "npz":
            np.savez(cached, records)
            cached.with_name(cached.name + ".npz").rename(cached)
        elif damage == "directory":
            cached.mkdir()
        else:
            cached.write_bytes(damaged)
        assert load_dataset(path, two_var_schema(), out) == parsed
        if damage == "directory":  # cannot be replaced: the parse is still returned
            assert cached.is_dir()
        else:
            assert cached.read_bytes() == good
        assert not list(out.glob(".*.tmp"))

    def test_changed_in_range_state_is_a_miss(self, tmp_path):
        # one data byte changed to another state of its variable keeps the
        # size, dtype, layout and range; only the digest in the name tells
        path, out = tmp_path / "d.csv", tmp_path / "out"
        out.mkdir()
        path.write_text("A,B\nx,y\nz,w\nz,y\n", encoding="utf-8")
        parsed = ingest_csv(path, two_var_schema())
        load_dataset(path, two_var_schema(), out)
        (name,) = cache_files(out)
        good = (out / name).read_bytes()
        assert good[-1] == 0  # B of the last row, y; w is state 1
        (out / name).write_bytes(good[:-1] + b"\x01")
        with mock.patch.object(dataset, "ingest_csv", wraps=dataset.ingest_csv) as parse:
            assert load_dataset(path, two_var_schema(), out) == parsed
        assert parse.call_count == 1
        assert cache_files(out) == [name] and (out / name).read_bytes() == good

    def test_zero_filled_file_of_the_right_name_and_length_is_a_miss(self, tmp_path):
        # what a crash can leave of a file that was renamed into place but
        # never reached the disk: its name and length, and zeros
        path, out = tmp_path / "d.csv", tmp_path / "out"
        out.mkdir()
        path.write_text("A,B\nx,y\nz,w\nz,y\n", encoding="utf-8")
        parsed = load_dataset(path, two_var_schema(), out)
        (name,) = cache_files(out)
        good = (out / name).read_bytes()
        (out / name).write_bytes(bytes(len(good)))
        with mock.patch.object(dataset, "ingest_csv", wraps=dataset.ingest_csv) as parse:
            assert load_dataset(path, two_var_schema(), out) == parsed
        assert parse.call_count == 1
        assert cache_files(out) == [name] and (out / name).read_bytes() == good

    def test_extra_column_warning_shows_only_on_a_parse(self, tmp_path):
        path, out = tmp_path / "d.csv", tmp_path / "out"
        out.mkdir()
        path.write_text("A,B,EXTRA\nx,y,1\n", encoding="utf-8")
        with pytest.warns(UserWarning, match="EXTRA"):
            load_dataset(path, two_var_schema(), out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_dataset(path, two_var_schema(), out).records.tolist() == [[0, 0]]

    def test_output_directory_that_cannot_hold_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("A,B\nx,y\n", encoding="utf-8")
        data = load_dataset(path, two_var_schema(), tmp_path / "missing")
        assert data.records.tolist() == [[0, 0]] and not (tmp_path / "missing").exists()


def counts_files(out):
    return sorted(p.name for p in out.glob("counts-*.npz"))


def kept_tables(data):
    return [(order, table.tolist()) for order, table in data._memo.tables.values()]


def write_npz(path, *members, compress=False):
    """An npz of (member name, array) pairs at path, a *.npz name, written
    by numpy's savez."""
    (np.savez_compressed if compress else np.savez)(path, **dict(members))


class TestCountsCache:
    """store_counts writes the tables kept on a Dataset of load_dataset, and
    load_dataset starts each later Dataset of the same records from them."""

    def stored(self, tmp_path):
        path, out = tmp_path / "d.csv", tmp_path / "out"
        out.mkdir(exist_ok=True)
        path.write_text("A,B\nx,y\nz,w\nz,y\n", encoding="utf-8")
        data = load_dataset(path, two_var_schema(), out)
        for names in (("B",), ("A",), ("A", "B")):  # 2 + 2 cells; the pair's 4 would pass 3 x 2
            contingency_table(data, names)
        dataset.store_counts(data, out)
        return path, out, data

    def test_round_trip_keeps_order_and_bytes(self, tmp_path):
        path, out, data = self.stored(tmp_path)
        (name,) = counts_files(out)
        first = (out / name).read_bytes()
        assert kept_tables(data) == [(("B",), [2, 1]), (("A",), [1, 2])]
        with mock.patch.object(dataset, "_count", side_effect=AssertionError("counted a stored table")):
            loaded = load_dataset(path, two_var_schema(), out)
            assert kept_tables(loaded) == kept_tables(data)
            assert contingency_table(loaded, ("A",)).tolist() == [1, 2]
        with np.load(out / name, allow_pickle=False) as stored:
            assert stored["variables"].tolist() == [[1], [0]]
            assert stored["counts"].dtype == np.uint8 and stored["counts"].tolist() == [2, 1, 1, 2]
        dataset.store_counts(loaded, out)  # the same tables, written again later
        assert counts_files(out) == [name] and (out / name).read_bytes() == first
        assert not list(out.glob(".*.tmp"))

    def test_the_same_arrays_written_by_numpy_load(self, tmp_path):
        path, out, data = self.stored(tmp_path)
        (name,) = counts_files(out)
        with np.load(out / name, allow_pickle=False) as stored:
            members = [("variables", stored["variables"]), ("counts", stored["counts"])]
        (out / name).unlink()
        write_npz(out / name, *members)
        assert kept_tables(load_dataset(path, two_var_schema(), out)) == kept_tables(data)

    def test_other_counts_files_go_and_a_dataset_without_a_key_stores_nothing(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "counts-0123-4567.npz").write_bytes(b"left by an earlier run")
        (out / "counts.txt").write_text("not a counts file", encoding="utf-8")
        path, out, data = self.stored(tmp_path)
        assert len(counts_files(out)) == 1 and (out / "counts.txt").is_file()
        plain = Dataset(data.schema, data.records)
        contingency_table(plain, ("A",))
        dataset.store_counts(plain, tmp_path)
        assert counts_files(tmp_path) == []

    def test_a_file_of_other_records_is_not_read(self, tmp_path):
        path, out, data = self.stored(tmp_path)
        path.write_text("A,B\nx,y\nz,w\nx,y\n", encoding="utf-8")
        assert kept_tables(load_dataset(path, two_var_schema(), out)) == []

    def test_zero_filled_file_of_the_right_name_and_length_counts_as_absent(self, tmp_path):
        path, out, data = self.stored(tmp_path)
        (name,) = counts_files(out)
        (out / name).write_bytes(bytes(len((out / name).read_bytes())))
        loaded = load_dataset(path, two_var_schema(), out)
        assert kept_tables(loaded) == []
        for names in (("A",), ("B", "A")):
            assert contingency_table(loaded, names).tolist() == contingency_table(data, names).tolist()

    @pytest.mark.parametrize("damage", [
        "empty", "truncated", "npy", "directory", "extra member", "members swapped", "compressed",
        "pickled", "one count changed", "int32 variables", "uint16 counts", "short of a record",
        "index out of range", "padding inside a row", "no variable", "a set named twice",
        "a repeated name", "cells of no table", "past the cells bound",
    ])
    def test_unusable_file_counts_as_absent(self, tmp_path, damage):
        path, out, data = self.stored(tmp_path)
        (name,) = counts_files(out)
        target = out / name
        good = target.read_bytes()
        with np.load(target, allow_pickle=False) as stored:
            variables, counts = stored["variables"], stored["counts"]
        target.unlink()
        u8 = lambda *cells: np.array(cells, dtype=np.uint8)
        # arrays that fail one check each; the file is named after them, so
        # that the digest holds
        wrong = {
            "int32 variables": (variables.astype(np.int32), counts),
            "uint16 counts": (variables, counts.astype(np.uint16)),
            "short of a record": (variables, u8(1, 1, 1, 2)),
            "index out of range": (variables + 1, counts),
            "padding inside a row": (np.array([[-1, 1], [0, -1]]), counts),
            "no variable": (np.array([[-1], [0]]), counts),
            "a set named twice": (np.array([[0], [0]]), u8(1, 2, 1, 2)),
            "a repeated name": (np.array([[0, 0]]), u8(1, 0, 0, 2)),
            "cells of no table": (variables, np.append(counts, u8(0))),
            "past the cells bound": (np.array([[1, -1], [0, -1], [0, 1]]), u8(2, 1, 1, 2, 1, 0, 1, 1)),
        }
        if damage in wrong:
            v, c = wrong[damage]
            write_npz(out / dataset._counts_name(data._memo.key, v, c), ("variables", v), ("counts", c))
        elif damage in ("empty", "truncated"):
            target.write_bytes(b"" if damage == "empty" else good[:-7])
        elif damage == "npy":
            np.save(target, counts)
            target.with_name(target.name + ".npy").rename(target)
        elif damage == "directory":
            target.mkdir()
        elif damage == "pickled":
            with zipfile.ZipFile(target, "w") as archive:
                for member, array in (("variables", variables), ("counts", counts.astype(object))):
                    buffer = io.BytesIO()
                    np.save(buffer, array, allow_pickle=True)
                    archive.writestr(f"{member}.npy", buffer.getvalue())
        else:
            members = {
                "extra member": [("variables", variables), ("counts", counts), ("more", counts)],
                "members swapped": [("counts", counts), ("variables", variables)],
                "compressed": [("variables", variables), ("counts", counts)],
                "one count changed": [("variables", variables), ("counts", u8(1, 2, 1, 2))],
            }[damage]
            write_npz(target, *members, compress=damage == "compressed")
        assert len(counts_files(out)) == 1 or damage == "directory"
        loaded = load_dataset(path, two_var_schema(), out)
        assert kept_tables(loaded) == []
        for names in (("A",), ("B", "A")):
            assert contingency_table(loaded, names).tolist() == contingency_table(data, names).tolist()


LABEL_TEXT = st.text(alphabet="ab1Z\xe9\u20ac", min_size=1, max_size=20).filter(lambda t: len(t.encode()) <= 20)


class TestEncode:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        st.lists(LABEL_TEXT, min_size=2, max_size=12, unique=True),
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 11), LABEL_TEXT), min_size=1, max_size=40),
    )
    def test_matches_label_by_label_comparison(self, states, picks):
        # cells: labels, their prefixes, labels with more text, and other text
        column = []
        for kind, k, other in picks:
            label = states[k % len(states)]
            column.append((label, label[:-1], label + other, other)[kind])
        states = tuple(states)
        text = "A,B\n" + "".join(f"{c},{c[::-1]}\n" for c in column)
        cells = _CsvCells(text)
        for j, col in enumerate((column, [c[::-1] for c in column])):
            got = cells.encode(slice(2 + j, None, 2), states)
            assert got.tolist() == [states.index(c) if c in states else -1 for c in col]

    @pytest.mark.parametrize("states", [
        tuple(f"a{k}" for k in range(1, 10)),  # every label shares its first byte
        ("a1", "a2", "b", "c3", "\u00e9", "\u00e8x", "d"),  # some do: a, and the UTF-8 lead byte of é and è
        ("x", "y"),  # none does
    ])
    @pytest.mark.parametrize("row, first", [
        ("{},z\n", 2),  # the labels' column first, its cells end at a comma
        ("z,{}\r\n", 3),  # last, its cells end at a CRLF row end
    ], ids=["first column", "last column"])
    def test_labels_that_share_their_first_byte_or_not(self, states, row, first):
        column = [*states, *(s + "1" for s in states), *(s[:-1] for s in states), "a", "a0", "b1", "e", "\u00ea", ""]
        text = "A,B\n" + "".join(row.format(c) for c in column)
        got = _CsvCells(text).encode(slice(first, None, 2), states)
        assert got.tolist() == [states.index(c) if c in states else -1 for c in column]

    def test_labels_that_differ_only_in_the_last_byte_of_each_word(self, tmp_path):
        states = tuple(f"xxxxxxx{a}xxxxxxx{b}" for a in "!Aa" for b in "!Aa")
        picks = [8, 0, 4, 2, 6, 1, 3, 5, 7, 0]
        path = tmp_path / "d.csv"
        path.write_text("T\n" + "".join(f"{states[k]}\n" for k in picks))
        data = ingest_csv(path, Schema((VariableSpec("T", states, "target"),)))
        assert data.records.ravel().tolist() == picks

    def test_ten_thousand_states(self, tmp_path):
        states = tuple(f"s{k}" for k in range(10_000))
        picks = np.random.default_rng(3).integers(0, len(states), 3_000).tolist()
        path = tmp_path / "d.csv"
        path.write_text("T\n" + "".join(f"{states[k]}\n" for k in picks))
        data = ingest_csv(path, Schema((VariableSpec("T", states, "target"),)))
        assert data.records.ravel().tolist() == picks


class TestSplit:
    def test_sizes_for_234_records(self):
        split = make_split(234, 0.15, fold_count=2, fold_fraction=0.10, seed=1)
        assert len(split.test_idx) == 35
        assert len(split.train_idx) == 199
        assert split.fold_size == 23

    def test_ten_tenth_sized_folds_do_not_fit(self):
        # 10 folds of 23 cannot be disjoint inside 199 training rows
        with pytest.raises(SplitError):
            make_split(234, 0.15, fold_count=10, fold_fraction=0.10, seed=1)

    def test_same_seed_identical(self):
        def same(x, y):
            sizes = (x.test_fraction, x.fold_count, x.fold_size) == (y.test_fraction, y.fold_count, y.fold_size)
            return sizes and all(
                np.array_equal(p, q) for p, q in zip((x.train_idx, x.test_idx, *x.folds), (y.train_idx, y.test_idx, *y.folds))
            )

        a = make_split(200, 0.2, 4, 0.1, seed=9)
        b = make_split(200, 0.2, 4, 0.1, seed=9)
        assert a.seed == b.seed and same(a, b)
        c = make_split(200, 0.2, 4, 0.1, seed=10)
        assert not same(a, c)

    @given(
        st.integers(30, 400),
        st.floats(0.05, 0.4),
        st.integers(2, 8),
        st.floats(0.02, 0.2),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_partition_properties(self, n, test_fraction, fold_count, fold_fraction, seed):
        try:
            split = make_split(n, test_fraction, fold_count, fold_fraction, seed)
        except SplitError:
            return
        for indices in (split.train_idx, split.test_idx, *split.folds):
            assert type(indices) is np.ndarray and indices.dtype == np.int64 and not indices.flags.writeable
            assert np.array_equal(indices, np.sort(indices))
        train, test = set(split.train_idx), set(split.test_idx)
        assert train | test == set(range(n))
        assert not train & test
        assert len(test) == round(test_fraction * n)
        seen = set()
        for fold in split.folds:
            fold_set = set(fold)
            assert len(fold) == split.fold_size
            assert fold_set <= train
            assert not fold_set & seen
            seen |= fold_set

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 101, 1_001, 10_001, 100_001, 1_000_001])
    def test_plan_csv_matches_line_by_line_writer(self, tmp_path, monkeypatch, n):
        # row indices of 1 to 7 digits; small plans are also written 7 rows a block
        rng = np.random.default_rng(n)
        perm = rng.permutation(n)
        n_test = (n + 2) // 3
        size = (n - n_test) // 4
        folds = tuple(np.sort(perm[n_test + f * size : n_test + (f + 1) * size]) for f in range(3))
        split = SplitPlan(n, n_test / n, 3, size, np.sort(perm[n_test:]), np.sort(perm[:n_test]), folds)
        labels = np.full(n, "train_only", dtype=object)
        labels[list(split.test_idx)] = "test"
        for f, fold in enumerate(split.folds, 1):
            labels[list(fold)] = f"fold_{f}"
        want = "row_index,assignment\n" + "".join(f"{i},{label}\n" for i, label in enumerate(labels))
        write_split_plan(split, tmp_path / "plan.csv")
        assert (tmp_path / "plan.csv").read_bytes() == want.encode()
        if n <= 10_001:
            monkeypatch.setattr(dataset, "_SPLIT_BLOCK_ROWS", 7)
            write_split_plan(split, tmp_path / "blocks.csv")
            assert (tmp_path / "blocks.csv").read_bytes() == want.encode()

    def test_plan_csv(self, tmp_path):
        split = make_split(50, 0.2, 3, 0.1, seed=2)
        path = tmp_path / "plan.csv"
        write_split_plan(split, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "row_index,assignment"
        assert len(lines) == 51
        tags = [ln.split(",")[1] for ln in lines[1:]]
        assert tags.count("test") == 10
        for f in (1, 2, 3):
            assert tags.count(f"fold_{f}") == split.fold_size
