"""Maximum h-club: exactness vs brute force, Theorem 3, Algorithm 7, budgets."""
from itertools import combinations

import numpy as np
import pytest

from repro.clubs import (
    ClubBudgetExceeded,
    is_h_club,
    max_h_club_dbc,
    max_h_club_itdbc,
    max_h_club_with_cores,
    star_incumbent,
)
from repro.clubs import clubs as clubs_mod
from repro.clubs import wrapper as wrapper_mod
from repro.core import BudgetExceeded, Counter, h_lb_ub
from repro.core.reference import brute_force_cores
from repro.graphs.datasets import DATASETS
from repro.graphs.generators import erdos_renyi
from repro.graphs.graph import Graph
from tests.conftest import small_graph


def brute_max_club(g: Graph, h: int) -> int:
    for size in range(g.n, 0, -1):
        for sub in combinations(range(g.n), size):
            m = np.zeros(g.n, dtype=bool)
            m[list(sub)] = True
            if is_h_club(g.adjacency, m, h):
                return size
    return 0


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("h", [2, 3])
def test_solvers_match_brute_force(seed, h):
    g = erdos_renyi(10, 0.25, seed=seed)
    ref = brute_max_club(g, h)
    d = max_h_club_dbc(g, h)
    i = max_h_club_itdbc(g, h)
    assert is_h_club(g.adjacency, d, h) and int(d.sum()) == ref
    assert is_h_club(g.adjacency, i, h) and int(i.sum()) == ref


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("algo", [max_h_club_dbc, max_h_club_itdbc])
def test_wrapper_matches_direct(seed, algo):
    g = erdos_renyi(12, 0.2, seed=seed)
    h = 2
    direct = int(algo(g, h).sum())
    wrapped = max_h_club_with_cores(g, h, algo)
    assert is_h_club(g.adjacency, wrapped, h)
    assert int(wrapped.sum()) == direct


@pytest.mark.parametrize("seed", range(5))
def test_theorem3_club_inside_core(seed):
    """Every h-club of size k+1 is inside the (k,h)-core."""
    g = erdos_renyi(14, 0.2, seed=seed)
    h = 2
    core = brute_force_cores(g, h)
    club = max_h_club_dbc(g, h)
    k = int(club.sum()) - 1
    assert (core[club] >= k).all()


def _substrates(g: Graph) -> list:
    """Both adjacencies the kernel walks: the dense matrix and the lists."""
    return [g.adjacency, g.adjacency_lists]


def test_is_h_club_basics(path_graph, clique_graph, star_graph):
    full = np.ones(5, dtype=bool)
    subs = zip(_substrates(path_graph), _substrates(clique_graph), _substrates(star_graph))
    for P, K, S in subs:
        assert not is_h_club(P, full, 2)  # P5 diameter 4
        assert is_h_club(P, full, 4)
        assert is_h_club(K, np.ones(6, bool), 1)
        assert is_h_club(S, np.ones(6, bool), 2)
        assert not is_h_club(S, np.ones(6, bool), 1)


def test_is_h_club_induced_semantics():
    """The defining subtlety: distances are measured in the induced
    subgraph, so dropping the hub of a star breaks the club."""
    g = Graph.from_edges(4, np.array([[0, 1], [0, 2], [0, 3]]))
    leaves = np.array([False, True, True, True])
    for A in _substrates(g):
        assert not is_h_club(A, leaves, 2)  # leaves are disconnected


def test_star_incumbent_is_club_and_max_degree(star_graph):
    mask = np.ones(6, dtype=bool)
    for A in _substrates(star_graph):
        s = star_incumbent(A, mask, 2)
        assert int(s.sum()) == 6
        assert is_h_club(A, s, 2)


def test_star_incumbent_h1_edge(path_graph):
    for A in _substrates(path_graph):
        s = star_incumbent(A, np.ones(5, bool), 1)
        assert np.flatnonzero(s).tolist() == [0, 1]  # first vertex, first edge
        assert is_h_club(A, s, 1)


def test_wrapper_stops_at_theorem3_bound():
    """A club of |best| >= k* vertices found in the k*-core is optimal, and
    otherwise a larger one lies in the |best|-core: at most two calls."""
    g = erdos_renyi(20, 0.15, seed=2)
    dec = h_lb_ub(g, 2)
    assert int(dec.core.max()) == 8
    calls = []

    def spy(g, h, mask, **kw):
        club = max_h_club_dbc(g, h, mask=mask, **kw)
        calls.append((mask.copy(), int(club.sum())))
        return club

    club = max_h_club_with_cores(g, 2, spy, decomposition=dec)
    assert int(club.sum()) == int(max_h_club_dbc(g, 2).sum())
    assert 1 <= len(calls) <= 2
    assert np.array_equal(calls[0][0], dec.core >= 8)
    if len(calls) == 2:
        assert np.array_equal(calls[1][0], dec.core >= calls[0][1])


def _club_solvers(g, h):
    """Each h-club entry point as ``counter -> mask``; the wrapper gets a
    precomputed decomposition, so its BFS work is the solver's own."""
    dec = h_lb_ub(g, h)
    return {
        "dbc": lambda c: max_h_club_dbc(g, h, counter=c),
        "itdbc": lambda c: max_h_club_itdbc(g, h, counter=c),
        "a7+dbc": lambda c: max_h_club_with_cores(
            g, h, max_h_club_dbc, decomposition=dec, counter=c
        ),
        "a7+itdbc": lambda c: max_h_club_with_cores(
            g, h, max_h_club_itdbc, decomposition=dec, counter=c
        ),
    }


@pytest.mark.parametrize("solver", ["dbc", "itdbc", "a7+dbc", "a7+itdbc"])
def test_solvers_charge_the_counter(solver):
    g = erdos_renyi(30, 0.15, seed=1)
    c = Counter()
    club = _club_solvers(g, 2)[solver](c)
    assert is_h_club(g.adjacency, club, 2)
    assert c.visits > 0 and c.bfs_calls > 0


@pytest.mark.parametrize("solver", ["dbc", "itdbc", "a7+dbc", "a7+itdbc"])
@pytest.mark.parametrize(
    "budget", [{"visit_budget": 0}, {"deadline": 0.0}], ids=["visits", "deadline"]
)
def test_budget_raises_with_incumbent(solver, budget):
    g = erdos_renyi(30, 0.15, seed=1)
    with pytest.raises(BudgetExceeded) as ei:
        _club_solvers(g, 2)[solver](Counter(**budget))
    club = ei.value.incumbent  # only ClubBudgetExceeded carries one
    assert club.any() and is_h_club(g.adjacency, club, 2)  # a feasible fallback


@pytest.mark.parametrize("name", ["coli", "rnPA"])
@pytest.mark.parametrize("h", [2, 3])
def test_sparse_solvers_match_dense_and_stay_off_the_matrix(name, h, monkeypatch):
    """On a sparse graph every solver walks the neighbour lists: the same
    club, visits and BFS calls as on the dense matrix, which is never built."""
    g = DATASETS[name]()
    runs = {}
    for label, solve in _club_solvers(g, h).items():
        c = Counter()
        runs[label] = (solve(c), c.visits, c.bfs_calls)
    assert g._adj is None
    for mod in (clubs_mod, wrapper_mod):
        monkeypatch.setattr(mod, "substrate", lambda graph: graph.adjacency)
    dense = DATASETS[name]()
    for label, solve in _club_solvers(dense, h).items():
        c = Counter()
        club, visits, calls = runs[label]
        assert np.array_equal(solve(c), club), label
        assert (c.visits, c.bfs_calls) == (visits, calls), label
    assert dense._adj is not None


# rnPA, precomputed h-LB+UB decomposition: solver -> (club size, visits,
# BFS calls). Pins the search's cost, not only its answer.
RNPA_CLUB_COSTS = {
    2: {"dbc": (12, 18424, 1444), "itdbc": (12, 35602, 3264),
        "a7+dbc": (12, 0, 0), "a7+itdbc": (12, 154, 12)},
    3: {"dbc": (14, 45804, 1545), "itdbc": (14, 469089, 23119),
        "a7+dbc": (14, 648, 28), "a7+itdbc": (14, 972, 42)},
}


@pytest.mark.parametrize("h", [2, 3])
def test_search_cost_golden_rnpa(h):
    g = DATASETS["rnPA"]()
    for label, solve in _club_solvers(g, h).items():
        c = Counter()
        club = solve(c)
        got = (int(club.sum()), c.visits, c.bfs_calls)
        assert got == RNPA_CLUB_COSTS[h][label], label


def test_wrapper_charges_its_own_decomposition():
    g = erdos_renyi(30, 0.15, seed=1)
    dec = h_lb_ub(g, 2)
    given, own = Counter(), Counter()
    max_h_club_with_cores(g, 2, max_h_club_itdbc, decomposition=dec, counter=given)
    max_h_club_with_cores(g, 2, max_h_club_itdbc, counter=own)
    assert own.visits == given.visits + dec.visits
    assert own.bfs_calls == given.bfs_calls + dec.bfs_calls
    with pytest.raises(ClubBudgetExceeded) as ei:
        max_h_club_with_cores(g, 2, max_h_club_itdbc, counter=Counter(visit_budget=0))
    assert is_h_club(g.adjacency, ei.value.incumbent, 2)


def test_disconnected_components_handled():
    # Two cliques of different sizes, no connection.
    edges = [[i, j] for i in range(4) for j in range(i + 1, 4)]
    edges += [[i, j] for i in range(4, 10) for j in range(i + 1, 10)]
    g = Graph.from_edges(10, np.array(edges))
    club = max_h_club_dbc(g, 2)
    assert int(club.sum()) == 6  # the bigger clique


def test_empty_mask():
    g = erdos_renyi(5, 0.3, seed=0)
    out = max_h_club_itdbc(g, 2, mask=np.zeros(5, dtype=bool))
    assert int(out.sum()) <= 1
    g0 = Graph.from_edges(0, np.zeros((0, 2), dtype=np.int64))
    for algo in (max_h_club_dbc, max_h_club_itdbc):
        assert algo(g0, 2).shape == (0,)
        assert max_h_club_with_cores(g0, 2, algo).shape == (0,)
