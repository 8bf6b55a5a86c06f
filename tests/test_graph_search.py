from ferroent.graphs import ChainParams, ring_chain
from ferroent.sweep import RAW_CONCURRENCE_THRESHOLD
from graph_search import max_raw_concurrence, search


def test_no_pair_entanglement_on_random_connected_ferromagnets():
    search(50)()


def test_planted_antiferromagnetic_bond_fails_the_predicate():
    # ring 6 with one bond turned to J = +0.5 is entangled, and the search must see it
    ring = ring_chain(ChainParams(n_spins=6, g1=-1.0))
    edges = [(a, b, 0.5 if k == 0 else j) for k, (a, b, j) in enumerate(ring.edges)]
    assert max_raw_concurrence(6, edges) > RAW_CONCURRENCE_THRESHOLD
