"""Fixtures shared by the test suite and the benchmarks."""

from __future__ import annotations

import json
from pathlib import Path

import pytest


@pytest.fixture
def store_lines():
    """Read a result store root's record lines, keyed by each record's ``job``.

    The raw bytes of each stored line, so two stores can be compared bitwise.
    """

    def read(root) -> dict:
        lines = {}
        for segment in sorted(Path(root).glob("*/seg-*.jsonl")):
            for line in segment.read_bytes().splitlines():
                lines[json.loads(line)["job"]] = line
        return lines

    return read
