"""Each reference computation against a small table worked out by hand."""

import math

import numpy as np
import pytest

import oracles

# records (T, V) of a two-node network T -> V, both binary
RECORDS = np.array([[0, 0], [0, 0], [1, 1]])
TABLE = oracles.Table(("T", "V"), {"T": ("a", "b"), "V": ("x", "y")}, "T", RECORDS)
STRUCTURE = {"T": (), "V": ("T",)}


def test_counts():
    assert oracles.counts(TABLE, ("T", "V")).tolist() == [[2, 0], [0, 1]]


def test_normalized_mi():
    assert oracles.normalized_mi([[2, 0], [0, 2]]) == pytest.approx(1.0)
    assert oracles.normalized_mi([[1, 1], [1, 1]]) == pytest.approx(0.0, abs=1e-15)
    # p = [[3, 1], [1, 3]] / 8: H(X) = H(Y) = ln 2, H(X,Y) = 1.255482
    assert oracles.normalized_mi([[3, 1], [1, 3]]) == pytest.approx(0.188722, abs=1e-6)
    assert oracles.normalized_mi([[4, 0], [0, 0]]) == 0.0


def test_family_log_marginal():
    # Dirichlet(1, 1) sequence probability of counts (2, 1): 1*2*1 / (2*3*4)
    assert oracles.family_log_marginal(np.array([2, 1]), 1.0) == pytest.approx(math.log(1 / 12))
    # alpha0 = 2: (2*3*2) / (4*5*6)
    assert oracles.family_log_marginal(np.array([2, 1]), 2.0) == pytest.approx(math.log(0.1))


def test_log_marginal_likelihood():
    # T: counts (2, 1) -> 1/12; V | T=a: (2, 0) -> 1/3; V | T=b: (0, 1) -> 1/2
    assert oracles.log_marginal_likelihood(TABLE, STRUCTURE, 1.0) == pytest.approx(math.log(1 / 72))


def test_posterior_mean_network_marginal_and_mi():
    cpts = oracles.posterior_mean_cpts(TABLE, STRUCTURE, 1.0)
    assert cpts["T"] == pytest.approx([3 / 5, 2 / 5])
    assert cpts["V"] == pytest.approx(np.array([[3 / 4, 1 / 4], [1 / 3, 2 / 3]]))
    joint = oracles.network_marginal(STRUCTURE, cpts, ("T", "V"))
    expected = np.array([[0.45, 0.15], [2 / 15, 4 / 15]])
    assert joint == pytest.approx(expected)
    assert oracles.network_marginal(STRUCTURE, cpts, ("V", "T")) == pytest.approx(expected.T)
    assert oracles.network_marginal(STRUCTURE, cpts, ("V",)) == pytest.approx([0.45 + 2 / 15, 0.15 + 4 / 15])
    pt, pv = expected.sum(axis=1), expected.sum(axis=0)
    mi = sum(expected[i, j] * math.log(expected[i, j] / (pt[i] * pv[j])) for i in range(2) for j in range(2))
    assert oracles.mutual_information(joint) == pytest.approx(mi)


def test_network_marginal_sums_out_a_chain():
    structure = {"T": (), "V": ("T",), "W": ("V",)}
    cpts = {"T": np.array([0.3, 0.7]), "V": np.array([[0.9, 0.1], [0.2, 0.8]]), "W": np.array([[0.5, 0.5], [0.1, 0.9]])}
    # T=0: 0.3 * (0.9 * [0.5, 0.5] + 0.1 * [0.1, 0.9]) = [0.138, 0.162]
    assert oracles.network_marginal(structure, cpts, ("T", "W")) == pytest.approx(np.array([[0.138, 0.162], [0.126, 0.574]]))


def test_target_posterior():
    cpts = oracles.posterior_mean_cpts(TABLE, STRUCTURE, 1.0)
    # p(T | V=y) proportional to (0.15, 4/15)
    assert oracles.target_posterior(STRUCTURE, cpts, "T", {"V": 1}) == pytest.approx([0.36, 0.64])


def test_readers(tmp_path):
    (tmp_path / "s.schema").write_text("# comment\nV : x|y\nT : a|b  [target]\n")
    (tmp_path / "d.csv").write_text("T,V,extra\na,x,1\nb,y,2\n")
    table = oracles.read_table(tmp_path / "d.csv", tmp_path / "s.schema")
    assert table.names == ("V", "T") and table.target == "T"
    assert table.records.tolist() == [[0, 0], [1, 1]]
    (tmp_path / "g.structure").write_text("T -> V  # edge\nnode W\n")
    assert oracles.read_structure(tmp_path / "g.structure") == {"T": (), "V": ("T",), "W": ()}
    (tmp_path / "f.csv").write_text(
        "node,parent_config,state,alpha_posterior\nT,-,a,3.0\nT,-,b,2.0\n"
        "V,T=a,x,3.0\nV,T=a,y,1.0\nV,T=b,x,1.0\nV,T=b,y,2.0\n"
    )
    parents, tables = oracles.read_fitted_network(tmp_path / "f.csv", TABLE.states)
    assert parents == STRUCTURE
    assert tables["V"].tolist() == [[3.0, 1.0], [1.0, 2.0]]
