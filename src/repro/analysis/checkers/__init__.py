"""Checker registry: every rule implementation the runner dispatches."""

from repro.analysis.checkers.imports import ForbiddenImportsChecker
from repro.analysis.checkers.rng import RngDisciplineChecker

#: instantiation order == reporting precedence for equal locations
ALL_CHECKERS = (
    RngDisciplineChecker,
    ForbiddenImportsChecker,
)

__all__ = [
    "ALL_CHECKERS",
    "ForbiddenImportsChecker",
    "RngDisciplineChecker",
]
