"""Content-addressed on-disk result cache.

Results are stored as one JSON document per job under
``<root>/<code-version>/<hash[:2]>/<hash>.json``, keyed by the job's
:attr:`~repro.runtime.jobs.JobSpec.spec_hash`.  Namespacing by the package
version means a code change that could alter results invalidates the whole
cache without any explicit flush; re-running a sweep on unchanged code is a
pure cache hit.

Writes go through a temp file + ``os.replace`` so a crash mid-write can never
leave a truncated entry that later reads as a corrupt hit.  Each writer
(process and thread) has its own temp name, so concurrent writers of one entry
never rename each other's temp file away; the last rename wins with a
complete record.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Optional, Set

from repro.utils.serialization import PathLike, save_json
from repro.version import __version__

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

    def __init__(self, root: Optional[PathLike] = None, version: str = __version__) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = version

    # ------------------------------------------------------------------ layout
    @property
    def version_root(self) -> Path:
        return self.root / f"v{self.version}"

    def path_for(self, spec) -> Path:
        digest = spec.spec_hash
        return self.version_root / digest[:2] / f"{digest}.json"

    # ------------------------------------------------------------------ access
    def get(self, spec) -> Any:
        """The cached result for ``spec``, or :data:`MISS`."""
        path = self.path_for(spec)
        try:
            with path.open("r", encoding="utf-8") as handle:
                record = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            return MISS
        return record.get("result")

    def index(self) -> Set[str]:
        """The spec hashes present on disk, from one directory walk.

        The engine probes the cache once per job; on a warm re-run of a
        1440-job sweep that used to be 1440 ``stat`` + ``open`` round-trips.
        One ``glob`` over the two-level fan-out replaces them with a set
        lookup.  The snapshot is taken at call time — entries added by a
        concurrent writer afterwards are simply treated as misses, which is
        the same outcome as probing before that writer finished.
        """
        if not self.version_root.exists():
            return set()
        return {entry.stem for entry in self.version_root.glob("*/*.json")}

    def __contains__(self, spec) -> bool:
        return self.get(spec) is not MISS

    def put(self, spec, result: Any) -> Path:
        """Store ``result`` for ``spec`` atomically; returns the entry path."""
        path = self.path_for(spec)
        record = {
            "job_id": spec.job_id,
            "kind": spec.kind,
            "params": spec.params,
            "version": self.version,
            "result": result,
        }
        temp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
        save_json(temp, record)
        os.replace(temp, path)
        return path

    # ------------------------------------------------------------------ maintenance
    def __len__(self) -> int:
        if not self.version_root.exists():
            return 0
        return sum(1 for _ in self.version_root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry for the current code version; returns the count."""
        removed = 0
        if not self.version_root.exists():
            return removed
        for entry in self.version_root.glob("*/*.json"):
            entry.unlink()
            removed += 1
        return removed
