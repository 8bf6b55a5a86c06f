import json

import pytest
from hypothesis import given, strategies as st

from ferroent.graphs import (
    ChainParams,
    SpinGraph,
    cube_graph,
    grid_graph,
    is_connected,
    load_graph,
    make_graph,
    open_chain,
    random_graph,
    ring_chain,
    save_graph,
    star_graph,
)


def edge_map(graph):
    return {(i, j): c for i, j, c in graph.edges}


class TestRingChain:
    def test_nearest_neighbor_ring(self):
        g = ring_chain(ChainParams(n_spins=4, g1=-1.0))
        assert edge_map(g) == {(0, 1): -1.0, (1, 2): -1.0, (2, 3): -1.0, (0, 3): -1.0}

    def test_second_neighbor_terms_accumulate_for_n4(self):
        # The distance-2 sum visits each of the two diagonals twice.
        g = ring_chain(ChainParams(n_spins=4, g1=0.0, g2=-1.0))
        assert edge_map(g) == {(0, 2): -2.0, (1, 3): -2.0}

    def test_n6_all_shells(self):
        g = ring_chain(ChainParams(n_spins=6, g1=-1.0, g2=-1.0, g3=-1.0))
        edges = edge_map(g)
        assert len(edges) == 15
        # wrap-distance-3 pairs are visited from both ends
        for pair in [(0, 3), (1, 4), (2, 5)]:
            assert edges[pair] == -2.0
        assert edges[(0, 1)] == -1.0
        assert edges[(0, 2)] == -1.0

    def test_two_spin_ring_accumulates_both_directions(self):
        g = ring_chain(ChainParams(n_spins=2, g1=-1.0))
        assert edge_map(g) == {(0, 1): -2.0}

    def test_rejects_open_params(self):
        with pytest.raises(ValueError):
            ring_chain(ChainParams(n_spins=4, g1=-1.0, periodic=False))


class TestOpenChain:
    def test_two_spins(self):
        g = open_chain(ChainParams(n_spins=2, g1=-1.0, periodic=False))
        assert edge_map(g) == {(0, 1): -1.0}

    def test_counting_first_and_second_shell(self):
        g = open_chain(ChainParams(n_spins=5, g1=-1.0, g2=-1.0, periodic=False))
        edges = edge_map(g)
        assert len(edges) == 7  # 4 nearest + 3 next-nearest
        assert all(c == -1.0 for c in edges.values())

    def test_no_accumulation_without_wrap(self):
        g = open_chain(ChainParams(n_spins=4, g1=-1.0, g2=-1.0, g3=-1.0, periodic=False))
        edges = edge_map(g)
        assert len(edges) == 6
        assert all(c == -1.0 for c in edges.values())

    def test_wrap_edge_is_the_only_difference(self):
        for n in range(3, 9):
            ring = ring_chain(ChainParams(n_spins=n, g1=-1.0))
            chain = open_chain(ChainParams(n_spins=n, g1=-1.0, periodic=False))
            extra = set(edge_map(ring)) - set(edge_map(chain))
            assert extra == {(0, n - 1)}


class TestGridAndCube:
    def test_open_3x3_has_12_edges(self):
        assert len(grid_graph(3, 3, False, -1.0).edges) == 12

    def test_torus_3x3_has_18_edges(self):
        assert len(grid_graph(3, 3, True, -1.0).edges) == 18

    def test_1x2_single_edge(self):
        assert edge_map(grid_graph(1, 2, False, -1.0)) == {(0, 1): -1.0}

    def test_periodic_two_wide_dimension_accumulates(self):
        g = grid_graph(2, 2, True, -1.0)
        assert all(c == -2.0 for c in edge_map(g).values())
        assert len(g.edges) == 4

    def test_cube_counts(self):
        g = cube_graph(-1.0)
        assert g.n_spins == 8
        assert len(g.edges) == 12
        assert all(c == -1.0 for _, _, c in g.edges)
        degree = [0] * 8
        for i, j, _ in g.edges:
            degree[i] += 1
            degree[j] += 1
        assert degree == [3] * 8
        assert is_connected(g)

    def test_star(self):
        g = star_graph(6, -1.0)
        assert len(g.edges) == 5
        assert is_connected(g)
        assert g.coupling_sum == -5.0


class TestRandomGraph:
    def test_p_one_gives_complete_graph(self):
        g = random_graph(4, 1.0, (-1.0, -1.0), seed=0)
        assert len(g.edges) == 6
        assert all(c == -1.0 for _, _, c in g.edges)

    def test_seed_determinism(self):
        a = random_graph(5, 0.5, (-2.0, 0.0), seed=7)
        b = random_graph(5, 0.5, (-2.0, 0.0), seed=7)
        assert a == b

    def test_p_zero_fails(self):
        with pytest.raises(RuntimeError):
            random_graph(3, 0.0, (-1.0, -1.0), seed=1)

    def test_always_ferromagnetic_and_connected(self):
        for seed in range(5):
            g = random_graph(6, 0.5, (-3.0, -0.1), seed=seed)
            assert g.is_ferromagnetic
            assert is_connected(g)

    def test_bad_j_range(self):
        with pytest.raises(ValueError):
            random_graph(4, 0.5, (-1.0, 0.5), seed=0)


class TestConnectivity:
    def test_ring5_connected(self):
        assert is_connected(ring_chain(ChainParams(n_spins=5, g1=-1.0)))

    def test_two_disjoint_edges(self):
        g = make_graph(4, [(0, 1, -1.0), (2, 3, -1.0)])
        assert not is_connected(g)

    def test_zero_coupling_does_not_connect(self):
        g = make_graph(5, [(0, 1, -1.0), (1, 2, -1.0), (2, 3, 0.0), (3, 4, -1.0)])
        assert not is_connected(g)


class TestSpinGraphInvariants:
    def test_parallel_couplings_merge(self):
        g = make_graph(3, [(0, 1, -1.0), (1, 0, -0.5)])
        assert edge_map(g) == {(0, 1): -1.5}

    def test_self_coupling_rejected(self):
        with pytest.raises(ValueError):
            make_graph(3, [(1, 1, -1.0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SpinGraph(n_spins=3, edges=((0, 3, -1.0),))
        with pytest.raises(ValueError):
            SpinGraph(n_spins=3, edges=((2, 1, -1.0),))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            SpinGraph(n_spins=3, edges=((0, 1, -1.0), (0, 1, -2.0)))

    @pytest.mark.parametrize("coupling", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_coupling_rejected(self, coupling):
        with pytest.raises(ValueError, match="non-finite coupling"):
            SpinGraph(n_spins=3, edges=((0, 1, -1.0), (1, 2, coupling)))
        with pytest.raises(ValueError, match="non-finite coupling"):
            ring_chain(ChainParams(n_spins=4, g1=coupling))

    def test_edges_sorted(self):
        g = make_graph(4, [(2, 3, -1.0), (0, 1, -1.0)])
        assert g.edges == ((0, 1, -1.0), (2, 3, -1.0))

    def test_ferromagnetic_predicate(self):
        assert make_graph(2, [(0, 1, -1.0)]).is_ferromagnetic
        assert not make_graph(2, [(0, 1, 1.0)]).is_ferromagnetic


@given(
    n=st.integers(min_value=4, max_value=10),
    g1=st.floats(-4, 0),
    g2=st.floats(-4, 0),
    g3=st.floats(-4, 0),
)
def test_ring_coupling_sum_matches_term_count(n, g1, g2, g3):
    g = ring_chain(ChainParams(n_spins=n, g1=g1, g2=g2, g3=g3))
    expected = sum(gk * n for gk in (g1, g2, g3))
    assert g.coupling_sum == pytest.approx(expected, abs=1e-12)


@given(
    n=st.integers(min_value=4, max_value=10),
    g1=st.floats(-4, 0),
    g2=st.floats(-4, 0),
    g3=st.floats(-4, 0),
)
def test_open_coupling_sum_matches_term_count(n, g1, g2, g3):
    g = open_chain(ChainParams(n_spins=n, g1=g1, g2=g2, g3=g3, periodic=False))
    expected = g1 * (n - 1) + g2 * (n - 2) + g3 * (n - 3)
    assert g.coupling_sum == pytest.approx(expected, abs=1e-12)


def test_json_round_trip(tmp_path):
    g = random_graph(6, 0.5, (-2.0, -0.5), seed=9)
    path = tmp_path / "graph.json"
    save_graph(g, str(path))
    assert load_graph(str(path)) == g
    raw = json.loads(path.read_text())
    assert raw["n"] == 6
    assert all(len(edge) == 3 for edge in raw["edges"])
