import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bnpipeline.dataset import Dataset, Schema, VariableSpec, contingency_table
from bnpipeline.infotheory import (
    ScoreTable,
    _entropies,
    build_score_tables,
    conditional_mutual_information,
    entropy,
    histogram,
    mutual_information,
    normalized_cmi,
    normalized_mi,
    write_histogram,
    write_score_table,
)

from test_bayesnet import five_state_chain

LN2 = math.log(2.0)


# independent brute-force oracles ------------------------------------------

def mi_oracle(table):
    """Sum of p(x,y) * log(p(x,y) / (p(x)p(y))) straight from the definition."""
    t = np.asarray(table, dtype=float)
    p = t / t.sum()
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    total = 0.0
    for i in range(p.shape[0]):
        for j in range(p.shape[1]):
            if p[i, j] > 0:
                total += p[i, j] * math.log(p[i, j] / (px[i] * py[j]))
    return total


def cmi_oracle(table):
    """Weighted per-slice MI oracle: sum over z of p(z) * MI(X,Y | z)."""
    t = np.asarray(table, dtype=float)
    p = t / t.sum()
    total = 0.0
    for z in range(p.shape[2]):
        pz = p[:, :, z].sum()
        if pz > 0:
            total += pz * mi_oracle(p[:, :, z] / pz)
    return total


def entropy_base2(counts):
    c = np.asarray(counts, dtype=float).ravel()
    p = c[c > 0] / c.sum()
    return float(-(p * np.log2(p)).sum())


nonzero_tables_2d = arrays(
    np.int64, st.tuples(st.integers(2, 4), st.integers(2, 4)), elements=st.integers(0, 9)
).filter(lambda t: t.sum() > 0)

nonzero_tables_3d = arrays(
    np.int64,
    st.tuples(st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
    elements=st.integers(0, 9),
).filter(lambda t: t.sum() > 0)


class TestEntropy:
    def test_uniform_two_states(self):
        assert entropy([1, 1]) == pytest.approx(LN2, abs=1e-12)

    def test_degenerate(self):
        assert entropy([5, 0, 0]) == 0.0

    def test_two_one(self):
        expected = -(2 / 3) * math.log(2 / 3) - (1 / 3) * math.log(1 / 3)
        assert entropy([2, 1]) == pytest.approx(expected, abs=1e-12)
        assert entropy([2, 1]) == pytest.approx(0.636514, abs=1e-6)

    def test_errors(self):
        with pytest.raises(ValueError):
            entropy([0, 0])
        with pytest.raises(ValueError):
            entropy([-1, 2])
        with pytest.raises(ValueError):
            entropy([])


class TestMutualInformation:
    def test_independent_product_table(self):
        table = np.outer([2, 3], [1, 4])
        assert mutual_information(table) == pytest.approx(0.0, abs=1e-12)

    def test_identical_uniform(self):
        assert mutual_information(np.diag([2, 2])) == pytest.approx(LN2, abs=1e-12)

    def test_small_table_value(self):
        # brute-force evaluation of [[2,1],[1,2]] gives 0.0566334
        assert mutual_information([[2, 1], [1, 2]]) == pytest.approx(0.0566334, abs=1e-6)

    @given(nonzero_tables_2d)
    @settings(max_examples=300, deadline=None)
    def test_matches_definition_oracle(self, table):
        assert mutual_information(table) == pytest.approx(mi_oracle(table), abs=1e-10)

    @given(nonzero_tables_2d)
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_nonnegativity(self, table):
        mi = mutual_information(table)
        assert mi == pytest.approx(mutual_information(table.T), abs=1e-12)
        assert mi >= -1e-12


class TestConditionalMutualInformation:
    def test_constant_z_reduces_to_mi(self):
        table = np.array([[2, 1], [1, 2]])[:, :, None]
        assert conditional_mutual_information(table) == pytest.approx(
            mutual_information(table[:, :, 0]), abs=1e-12
        )

    def test_conditionally_independent_given_z(self):
        # within each z slice, X and Y independent by construction
        t = np.zeros((2, 2, 2))
        t[:, :, 0] = np.outer([1, 3], [2, 2])
        t[:, :, 1] = np.outer([5, 1], [1, 1])
        assert conditional_mutual_information(t) == pytest.approx(0.0, abs=1e-12)

    def test_xor_triple(self):
        t = np.zeros((2, 2, 2))
        for x in (0, 1):
            for y in (0, 1):
                t[x, y, x ^ y] = 1
        assert mutual_information(t.sum(axis=2)) == pytest.approx(0.0, abs=1e-12)
        assert conditional_mutual_information(t) == pytest.approx(LN2, abs=1e-12)

    @given(nonzero_tables_3d)
    @settings(max_examples=200, deadline=None)
    def test_matches_slice_oracle(self, table):
        assert conditional_mutual_information(table) == pytest.approx(
            cmi_oracle(table), abs=1e-10
        )

    @given(nonzero_tables_3d)
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, table):
        assert conditional_mutual_information(table) == pytest.approx(
            conditional_mutual_information(np.swapaxes(table, 0, 1)), abs=1e-12
        )

    def test_compound_conditioning_set(self):
        # conditioning on two variables at once = conditioning on their product
        rng = np.random.default_rng(11)
        table4 = rng.integers(0, 6, size=(3, 3, 2, 2)).astype(float)
        table4[0, 0, 0, 0] += 1
        compound = table4.reshape(3, 3, 4)
        assert conditional_mutual_information(table4) == pytest.approx(
            conditional_mutual_information(compound), abs=1e-12
        )
        assert normalized_cmi(table4) == pytest.approx(normalized_cmi(compound), abs=1e-12)
        with pytest.raises(ValueError):
            conditional_mutual_information(np.ones((2, 2)))


class TestNormalizedScores:
    def test_self_information_is_one(self):
        assert normalized_mi(np.diag([3, 2, 5])) == pytest.approx(1.0, abs=1e-12)

    def test_independent_is_zero(self):
        assert normalized_mi(np.outer([1, 1], [1, 1])) == pytest.approx(0.0, abs=1e-12)

    def test_small_table_value(self):
        assert normalized_mi([[2, 1], [1, 2]]) == pytest.approx(0.081704, abs=1e-5)

    def test_zero_denominator(self):
        # both variables constant: single occupied row/column
        assert normalized_mi([[4, 0], [0, 0]]) == 0.0
        t = np.zeros((2, 2, 2))
        t[0, 0, :] = [2, 3]
        assert normalized_cmi(t) == 0.0
        # X and Y are functions of Z: rounding leaves H(Y|Z) and the CMI at the
        # same one-ulp residue, and the ratio of two residues is not a score
        assert normalized_cmi([[[4, 0, 0, 0], [0, 5, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 0]]]) == 0.0

    @given(nonzero_tables_2d)
    @settings(max_examples=200, deadline=None)
    def test_mi_norm_bounds(self, table):
        assert -1e-12 <= normalized_mi(table) <= 1 + 1e-12

    @given(nonzero_tables_3d)
    @settings(max_examples=200, deadline=None)
    def test_cmi_norm_bounds(self, table):
        assert -1e-12 <= normalized_cmi(table) <= 1 + 1e-12

    @given(nonzero_tables_2d)
    @settings(max_examples=150, deadline=None)
    def test_base_invariance(self, table):
        t = np.asarray(table, dtype=float)
        hx = entropy_base2(t.sum(axis=1))
        hy = entropy_base2(t.sum(axis=0))
        hxy = entropy_base2(t)
        denom = hx + hy
        base2 = 0.0 if denom <= 0 else 2.0 * (hx + hy - hxy) / denom
        assert normalized_mi(table) == pytest.approx(base2, abs=1e-10)


def small_dataset(m=4, n=60, seed=1):
    rng = np.random.default_rng(seed)
    specs = [VariableSpec("T", ("a", "b", "c"), "target")]
    specs += [VariableSpec(f"V{i}", ("a", "b", "c")) for i in range(1, m)]
    schema = Schema(tuple(specs))
    return Dataset(schema, rng.integers(0, 3, size=(n, m)))


@st.composite
def score_problems(draw):
    """A dataset of 2-6 variables with 2-6 states and 1-60 rows, some of its
    columns constant, plus the variables to score in a drawn order."""
    cards = draw(st.lists(st.integers(2, 6), min_size=2, max_size=6))
    n = draw(st.integers(1, 60))
    columns = []
    for r in cards:
        if draw(st.booleans()):
            columns.append([draw(st.integers(0, r - 1))] * n)
        else:
            columns.append(draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)))
    specs = [
        VariableSpec(f"V{j}", tuple(str(k) for k in range(r)), "target" if j == 0 else "predictor")
        for j, r in enumerate(cards)
    ]
    data = Dataset(Schema(tuple(specs)), np.array(columns, dtype=np.int64).T)
    variables = draw(st.permutations(data.schema.names))
    return data, variables[: draw(st.integers(2, len(variables)))]


def table_rows(table):
    """(x, y, z, mi_norm, cmi_norm, delta, perc) of each row of a score
    table, read from its columns: names, Python floats, and None for a
    column the table does not have."""
    none = [None] * len(table)
    columns = [none if c is None else [table.names[i] for i in c.tolist()] for c in (table.x, table.y, table.z)]
    columns += [none if c is None else c.tolist() for c in (table.mi_norm, table.cmi_norm, table.delta, table.perc)]
    return list(zip(*columns))


def reference_score_rows(data, names):
    """Score rows from each entry's own contingency table, sorted as documented."""
    mi = {}
    for i, x in enumerate(names):
        for y in names[i + 1 :]:
            mi[(x, y)] = normalized_mi(contingency_table(data, (x, y)))
    pairwise = sorted(((x, y, None, m, None, None, None) for (x, y), m in mi.items()),
                      key=lambda r: (-r[3], r[0], r[1]))
    triple = []
    for (x, y), m in mi.items():
        for z in names:
            if z not in (x, y):
                cmi = normalized_cmi(contingency_table(data, (x, y, z)))
                delta = cmi - m
                perc = 100.0 * delta / m if m > 0.0 else (math.inf if delta > 0.0 else 0.0)
                triple.append((x, y, z, m, cmi, delta, perc))
    return (
        pairwise,
        sorted(triple, key=lambda r: (-r[4], r[0], r[1], r[2])),
        sorted(triple, key=lambda r: (-r[6], r[0], r[1], r[2])),
    )


class TestScoreTables:
    @given(score_problems())
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    def test_every_score_equals_its_own_table_reference(self, problem):
        data, names = problem
        tables = build_score_tables(data, names)
        for table, expected in zip(tables, reference_score_rows(data, names)):
            rows = table_rows(table)
            assert rows == expected

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_score_tables(small_dataset(), ["T", "V1", "T"])

    def test_two_variable_counts(self):
        data = small_dataset(m=2)
        pairwise, triple, delta = build_score_tables(data)
        assert len(pairwise) == 1
        assert len(triple) == 0
        assert len(delta) == 0

    def test_combinatorial_counts(self):
        data = small_dataset(m=5)
        pairwise, triple, delta = build_score_tables(data)
        m = 5
        assert len(pairwise) == m * (m - 1) // 2
        assert len(triple) == m * (m - 1) * (m - 2) // 2
        assert len(delta) == len(triple)

    def test_sorted_descending(self):
        pairwise, triple, delta = build_score_tables(small_dataset(m=5))
        mi = pairwise.mi_norm.tolist()
        assert mi == sorted(mi, reverse=True)
        cmi = triple.cmi_norm.tolist()
        assert cmi == sorted(cmi, reverse=True)
        perc = delta.perc.tolist()
        assert perc == sorted(perc, reverse=True)

    def test_relative_gain_from_rounded_scores(self):
        # a conditional score of 0.048 against a marginal 0.026 reads as an
        # 80-ish percent gain once three-decimal rounding is taken into account
        delta = 0.048 - 0.026
        perc = 100.0 * delta / 0.026
        assert perc == pytest.approx(80.3, abs=5.0)

    def test_export(self, tmp_path):
        pairwise, triple, _ = build_score_tables(small_dataset())
        write_score_table(pairwise, tmp_path / "mi.csv")
        lines = (tmp_path / "mi.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,mi_norm,cmi_norm,delta,perc"
        assert len(lines) == 1 + len(pairwise)
        # pairwise rows leave the conditional columns empty
        assert lines[1].split(",")[2] == ""
        write_score_table(triple, tmp_path / "cmi.csv")
        first = (tmp_path / "cmi.csv").read_text().splitlines()[1].split(",")
        assert first[2] != ""


class TestStackedEntropies:
    @pytest.mark.parametrize("shape", [(9,), (3, 3), (2, 2, 3), (4, 6), (2, 3, 4), (5, 5, 5), (6, 6, 6), (30, 30, 12)])
    def test_bit_for_bit_equal_to_entropy_on_tables_with_zeros(self, shape):
        rng = np.random.default_rng(math.prod(shape))
        cells = math.prod(shape)
        k = 60 if cells < 1_000 else 6
        draws = [rng.multinomial(int(rng.integers(1, 3 * cells)), rng.dirichlet(np.full(cells, 0.3))) for _ in range(k)]
        tables = np.array(draws).reshape(k, *shape)
        tables[:, 0] = 0  # every table holds zeros, and counts something
        tables.reshape(k, -1)[:, -1] += 1
        tables[0] = 0
        tables[0].flat[-1] = 7  # one nonzero cell: an entropy of -0.0
        orders = list(itertools.permutations(range(len(shape))))
        got = _entropies(tables, orders)
        for table, row in zip(tables, got):
            for order, h in zip(orders, row.tolist()):
                want = entropy(table.transpose(order))
                assert h == want and math.copysign(1.0, h) == math.copysign(1.0, want)


class TestScoreTablesOnAChain:
    def test_pairs_and_a_sample_of_triples_equal_their_own_tables(self):
        _, data = five_state_chain(40, 2000, seed=40)
        pairwise, triple, _ = build_score_tables(data)
        fresh = Dataset(data.schema, data.records)  # counts each reference table itself
        rows = table_rows(pairwise)
        assert len(rows) == 40 * 39 // 2
        for x, y, *rest in rows:
            assert list(map(repr, rest)) == ["None", repr(normalized_mi(contingency_table(fresh, (x, y))))] + ["None"] * 3
        rows = table_rows(triple)
        for r in np.random.default_rng(40).choice(len(rows), 500, replace=False).tolist():
            x, y, z, mi, cmi, delta, perc = rows[r]
            want_mi = normalized_mi(contingency_table(fresh, (x, y)))
            want_cmi = normalized_cmi(contingency_table(fresh, (x, y, z)))
            want_perc = 100.0 * (want_cmi - want_mi) / want_mi if want_mi > 0.0 else (math.inf if want_cmi > want_mi else 0.0)
            assert list(map(repr, (mi, cmi, delta, perc))) == list(map(repr, (want_mi, want_cmi, want_cmi - want_mi, want_perc)))


class TestHistogram:
    def test_edge_value_falls_in_lower_bin(self):
        edges, counts = histogram([0.0, 0.5, 1.0], 2)
        assert edges == [0.0, 0.5, 1.0]
        assert counts == [2, 1]

    def test_single_score(self):
        edges, counts = histogram([0.3], 4)
        assert sum(counts) == 1
        assert counts[0] == 1

    def test_uniform_grid(self):
        edges, counts = histogram(list(range(100)), 10)
        assert counts == [10] * 10

    def test_counts_sum(self):
        rng = np.random.default_rng(5)
        scores = rng.random(137).tolist()
        _, counts = histogram(scores, 7)
        assert sum(counts) == 137

    def test_errors(self):
        with pytest.raises(ValueError):
            histogram([], 3)
        with pytest.raises(ValueError):
            histogram([1.0], 0)

    def test_export(self, tmp_path):
        edges, counts = histogram([0.1, 0.2, 0.4], 2)
        write_histogram(edges, counts, tmp_path / "h.csv")
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 3
