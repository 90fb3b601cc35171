"""Shared utilities: seeded RNG management, logging, serialization, tables."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.logging import get_logger
from repro.utils.serialization import load_json, save_json, to_jsonable
from repro.utils.tables import Table, format_markdown

__all__ = [
    "as_generator",
    "spawn_generators",
    "get_logger",
    "load_json",
    "save_json",
    "to_jsonable",
    "Table",
    "format_markdown",
]
