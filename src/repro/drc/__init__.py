"""Pixel-level design-rule checking: rules, measurement kernels, decks."""

from .cache import DrcCache, clear_shared_caches
from .decks import RuleDeck, advanced_deck, basic_deck, complex_deck, deck_by_name
from .engine import DrcEngine
from .measure import ClipMeasurements, GapTable, RunTable, gap_table, run_table
from .rules import (
    WIDE_CLASS,
    DiscreteWidthRule,
    EndToEndRule,
    MaxAreaRule,
    MaxSpacingRule,
    MaxWidthRule,
    MinAreaRule,
    MinSpacingRule,
    MinWidthRule,
    NonEmptyRule,
    Rule,
    WidthDependentSpacingRule,
    classify_width,
)
from .violations import DrcReport, Violation

__all__ = [
    "WIDE_CLASS",
    "ClipMeasurements",
    "DiscreteWidthRule",
    "DrcCache",
    "DrcEngine",
    "DrcReport",
    "EndToEndRule",
    "GapTable",
    "MaxAreaRule",
    "MaxSpacingRule",
    "MaxWidthRule",
    "MinAreaRule",
    "MinSpacingRule",
    "MinWidthRule",
    "NonEmptyRule",
    "Rule",
    "RuleDeck",
    "RunTable",
    "Violation",
    "WidthDependentSpacingRule",
    "advanced_deck",
    "basic_deck",
    "classify_width",
    "clear_shared_caches",
    "complex_deck",
    "deck_by_name",
    "gap_table",
    "run_table",
]
