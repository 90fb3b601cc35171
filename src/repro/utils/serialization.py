"""JSON (de)serialization helpers for experiment results and configurations.

Everything the experiment harness produces (tables, sweep results, metric
records) is plain data; these helpers convert numpy scalars/arrays and
dataclasses into JSON-compatible structures so results can be written to disk
and diffed between runs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Iterator, Sequence, Union

import numpy as np

PathLike = Union[str, Path]


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into JSON-serialisable builtins."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"cannot convert {type(value).__name__} to a JSON-serialisable value")


def canonical_json(value: Any) -> str:
    """A canonical, whitespace-free JSON encoding of ``value``.

    Dictionary keys are sorted so that logically equal values — regardless of
    construction order — encode to the same string.  This is the byte stream
    the runtime's content-addressed hashes (:func:`stable_hash`) are computed
    over, so its format must stay stable across sessions.
    """
    return json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))


def stable_hash(value: Any) -> str:
    """A hex SHA-256 digest of ``value``'s canonical JSON encoding.

    Unlike builtin ``hash()`` this is stable across processes and Python
    versions, which makes it usable as an on-disk cache key and as a
    deterministic seed source.
    """
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def append_jsonl(path: PathLike, record: Any) -> Path:
    """Append one record to a JSON-lines file, creating parents as needed.

    If the file's previous write was torn (no trailing newline — e.g. the
    process was killed mid-record), a newline is inserted first so the new
    record starts on a fresh line instead of being glued onto the fragment.
    """
    return append_jsonl_many(path, [record])


def append_jsonl_many(path: PathLike, records: Sequence[Any]) -> Path:
    """Append many records to a JSON-lines file in one open/write.

    Identical on-disk format to calling :func:`append_jsonl` per record —
    including the torn-line repair — but one file-handle round-trip for the
    whole batch, which is what makes journal write batching worthwhile.
    Parent directories are created only when the open finds them missing.
    """
    target = Path(path)
    if not records:
        return target
    try:
        handle = target.open("a+b")
    except FileNotFoundError:
        target.parent.mkdir(parents=True, exist_ok=True)
        handle = target.open("a+b")
    with handle:
        handle.seek(0, 2)
        if handle.tell() > 0:
            handle.seek(-1, 2)
            if handle.read(1) != b"\n":
                handle.write(b"\n")
        payload = "".join(
            json.dumps(to_jsonable(record), sort_keys=False) + "\n" for record in records
        )
        handle.write(payload.encode("utf-8"))
    return target


def iter_jsonl(path: PathLike) -> Iterator[Any]:
    """Yield records from a JSON-lines file; missing files yield nothing.

    A truncated final line (e.g. from a run interrupted mid-write) is skipped
    rather than raised, so a journal can always be re-opened for resume.
    """
    target = Path(path)
    if not target.exists():
        return
    with target.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue


def save_json(path: PathLike, value: Any, indent: int = 2) -> Path:
    """Serialise ``value`` (via :func:`to_jsonable`) to ``path``; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", encoding="utf-8") as handle:
        json.dump(to_jsonable(value), handle, indent=indent, sort_keys=False)
        handle.write("\n")
    return target


def load_json(path: PathLike) -> Any:
    """Load a JSON document previously written by :func:`save_json`."""
    with Path(path).open("r", encoding="utf-8") as handle:
        return json.load(handle)
