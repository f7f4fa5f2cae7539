"""Maximum h-club: exact solvers + the paper's Algorithm 7 core wrapper."""
from repro.clubs.clubs import (
    ClubBudgetExceeded,
    is_h_club,
    max_h_club_dbc,
    max_h_club_itdbc,
    star_incumbent,
)
from repro.clubs.wrapper import max_h_club_with_cores

__all__ = [
    "is_h_club",
    "max_h_club_dbc",
    "max_h_club_itdbc",
    "max_h_club_with_cores",
    "star_incumbent",
    "ClubBudgetExceeded",
]
