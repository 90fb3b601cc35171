"""Content-addressed result store of append-only record segments.

Each writer (process and thread) appends one compact JSON line per result,
``{"job": <spec hash>, "job_id", "kind", "params", "result"}``, to its own
segment ``<root>/v<namespace>/seg-<pid>-<thread id>.jsonl``.  The namespace
defaults to the first 16 hex digits of
:func:`repro.version.source_fingerprint`, so any code edit starts a fresh,
empty store; re-running a sweep on unchanged code is a pure cache hit.

Writers never share a file, so their records cannot interleave.  A writer
killed mid-record leaves a torn last line: its next append starts a fresh
line, and readers skip every line that is not a record.  Reads answer from an
in-memory map built by an incremental scan that reads each segment from where
the previous scan stopped up to its last newline.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Set

from repro.utils.serialization import PathLike, append_jsonl
from repro.version import source_fingerprint

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "REPRO_RUNTIME_CACHE"

#: Sentinel distinguishing "no entry" from a legitimately-None cached result.
MISS = object()


def default_cache_root() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro" / "runtime"


class ResultCache:
    """Maps job specs to previously computed results on disk."""

    def __init__(self, root: Optional[PathLike] = None, version: Optional[str] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = version if version is not None else source_fingerprint()[:16]
        self._lines: Dict[str, bytes] = {}  # spec hash -> stored record line
        self._scanned: Dict[str, int] = {}  # segment name -> bytes consumed

    @property
    def namespace(self) -> Path:
        return self.root / f"v{self.version}"

    # ------------------------------------------------------------------ access
    def get(self, spec) -> Any:
        """The stored result for ``spec``, or :data:`MISS`.

        Rescans only on a miss.  The stored line is parsed on every call, so
        no two callers share a result object.
        """
        line = self._lines.get(spec.spec_hash)
        if line is None:
            self._scan()
            line = self._lines.get(spec.spec_hash)
            if line is None:
                return MISS
        return json.loads(line)["result"]

    def index(self) -> Set[str]:
        """The spec hashes stored so far (records appended later are misses)."""
        self._scan()
        return set(self._lines)

    def __contains__(self, spec) -> bool:
        return self.get(spec) is not MISS

    def put(self, spec, result: Any) -> Path:
        """Append ``result`` for ``spec`` to this writer's segment; returns it."""
        segment = self.namespace / f"seg-{os.getpid()}-{threading.get_ident()}.jsonl"
        record = {
            "job": spec.spec_hash,
            "job_id": spec.job_id,
            "kind": spec.kind,
            "params": spec.params,
            "result": result,
        }
        return append_jsonl(segment, record)

    def _scan(self) -> None:
        if not self.namespace.is_dir():
            return
        for segment in sorted(self.namespace.glob("seg-*.jsonl")):
            start = self._scanned.get(segment.name, 0)
            with segment.open("rb") as handle:
                handle.seek(start)
                chunk = handle.read()
            end = chunk.rfind(b"\n") + 1
            self._scanned[segment.name] = start + end
            for line in chunk[:end].splitlines():
                try:
                    record = json.loads(line)
                except ValueError:  # a torn line, or bytes that are not UTF-8
                    continue
                if isinstance(record, dict) and isinstance(record.get("job"), str):
                    if "result" in record:
                        self._lines[record["job"]] = line

    # ------------------------------------------------------------------ maintenance
    def __len__(self) -> int:
        return len(self.index())

    def clear(self) -> int:
        """Delete every segment of this namespace; returns the records removed."""
        removed = len(self)
        for segment in self.namespace.glob("seg-*.jsonl"):
            segment.unlink()
        self._lines.clear()
        self._scanned.clear()
        return removed
