"""Exact chip-firing games, reduced divisors, and Riemann-Roch checks."""

from .arithmetical import (
    ArithmeticalGraph,
    associated_digraph,
    chip_game,
    euclidean_sequence,
    euclidean_star,
    g0,
    good_representation,
    staircase_divisors,
)
from .errors import (
    BudgetExceeded,
    ChipfireError,
    DimensionError,
    InvalidBase,
    InvalidGraph,
    NotArithmetical,
    NotPrimitive,
    NotSandpileForm,
    NotStable,
    NotStronglyConnected,
    ZeroStrategy,
)
from .games import Game, column_game, row_game, scaled_game
from .graph_core import (
    DirectedMultigraph,
    LatticeHandle,
    build_digraph,
    is_strongly_connected,
    laplacian,
    period_vector,
)
from .rank_extremes import enumerate_extremes, in_sigma, rank
from .reduction import all_reduced_representatives, dhar, is_reduced, reduce
from .riemann_roch import crit_points, natural_divisor, rr_verdict
from .sandpile import is_recurrent, minimal_recurrents, stabilize

__version__ = "0.1.0"
