"""Eternal vertex colouring game: engine, strategies, exact solver, audits."""

__version__ = "0.1.0"

from .engine import GameOutcome, GameState, Player, RuleVariant, apply_move, legal_colors, play_game
from .graph import Graph, GnpSpec, gnp_generate, make_named

__all__ = [
    "Graph",
    "GnpSpec",
    "GameOutcome",
    "GameState",
    "Player",
    "RuleVariant",
    "apply_move",
    "gnp_generate",
    "legal_colors",
    "make_named",
    "play_game",
    "__version__",
]
