"""Benchmark for Table 6: maximum h-club, direct vs Algorithm 7.

Uses the road-network instance (exactly solvable at this scale); the dense
instances where the direct solvers NT are covered by the Table 6 job.
"""
from repro.clubs import max_h_club_dbc, max_h_club_itdbc, max_h_club_with_cores
from repro.core import h_lb_ub


def test_bench_table6_dbc_direct(benchmark, rnpa):
    club = benchmark.pedantic(
        lambda: max_h_club_dbc(rnpa, 2),
        rounds=2, iterations=1,
    )
    assert club.any()


def test_bench_table6_itdbc_direct(benchmark, rnpa):
    club = benchmark.pedantic(
        lambda: max_h_club_itdbc(rnpa, 2),
        rounds=2, iterations=1,
    )
    assert club.any()


def test_bench_table6_alg7(benchmark, rnpa):
    dec = h_lb_ub(rnpa, 2)
    club = benchmark.pedantic(
        lambda: max_h_club_with_cores(rnpa, 2, max_h_club_dbc, decomposition=dec),
        rounds=2, iterations=1,
    )
    assert club.any()
