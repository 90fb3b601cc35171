"""Single source of truth for the package version and the source fingerprint."""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path
from typing import Optional, Union

__version__ = "0.2.0"


def source_fingerprint(package_dir: Optional[Union[str, Path]] = None) -> str:
    """A hex SHA-256 over every ``*.py`` file of the ``repro`` package.

    Each file contributes its path relative to ``package_dir`` and its
    bytes, in sorted path order, so any edit to the code — not just a
    version bump — yields a new fingerprint.  The result store and the
    journals are namespaced by it: results computed by other code are never
    served.  ``package_dir`` defaults to this package; that fingerprint is
    computed on first use and memoised for the process, never at import.
    """
    if package_dir is None:
        return _own_fingerprint()
    root = Path(package_dir)
    digest = hashlib.sha256()
    for relative in sorted(path.relative_to(root).as_posix() for path in root.rglob("*.py")):
        data = (root / relative).read_bytes()
        digest.update(f"{relative}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _own_fingerprint() -> str:
    return source_fingerprint(Path(__file__).resolve().parent)
