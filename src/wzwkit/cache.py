"""On-disk cache of modular-data documents.

One canonical JSON file per (series, rank, level) and S algorithm, written
atomically; a stored document is byte-identical on re-store.  The caller
builds the document (``modular_data_to_doc``) and passes it to
``cache_store``, so a cache miss can write and report one and the same
document.  A load checks that the file holds the document of its own key,
takes S from it (symmetric and unitary), derives the rest, and requires
the rebuilt document to serialize to the file's exact bytes; a hit returns
that rebuilt document too, so it is built once.  Corruption is not fatal:
the caller recomputes and overwrites, with a warning on standard error.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

from .affine import S_ALGORITHM, ModularData, modular_data_from_doc, modular_data_to_doc
from .config import Config, DEFAULT_CONFIG


def default_cache_dir() -> Path:
    env = os.environ.get("WZWKIT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "wzwkit"


def cache_key(series: str, rank: int, level: int) -> str:
    """File name of a cached document, tagged with the S algorithm; files of
    another algorithm (or of none, as written before the tag) are never read."""
    return f"{series}-{rank}-{level}.{S_ALGORITHM}.json"


def canonical_json(doc) -> str:
    """The one serialization used for cache files and payload hashing."""
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True)


def _first_difference(rebuilt: dict, doc: dict) -> str:
    """Why a stored document is not the rebuilt one, naming the first key
    whose canonical serialization differs."""
    for key in dict.fromkeys([*rebuilt, *doc]):
        if (key not in rebuilt or key not in doc
                or canonical_json(rebuilt[key]) != canonical_json(doc[key])):
            return f"stored {key!r} differs from the rebuilt document"
    return "stored document is not in canonical form"


def cache_lookup(cache_dir: Path, series: str, rank: int, level: int,
                 config: Config = DEFAULT_CONFIG) -> tuple[ModularData, dict] | None:
    """Return the cached modular data and its document, or None on miss or
    corruption."""
    path = cache_dir / cache_key(series, rank, level)
    if not path.is_file():
        return None
    try:
        text = path.read_text()
        doc = json.loads(text)
        if cache_key(doc["series"], doc["rank"], doc["level"]) != path.name:
            raise ValueError("stored series, rank or level does not match the file name")
        md = modular_data_from_doc(doc, config)
        rebuilt = modular_data_to_doc(md)
        if canonical_json(rebuilt) != text:
            raise ValueError(_first_difference(rebuilt, doc))
        return md, rebuilt
    except Exception as exc:  # corrupted cache: recompute and overwrite
        print(f"wzwkit: cache file {path} is corrupted ({exc}); recomputing",
              file=sys.stderr)
        return None


def cache_store(cache_dir: Path, doc: dict) -> Path:
    """Write a modular_data_to_doc document atomically (write-to-temp plus
    rename) under the key of its series, rank and level; return the path."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_dir / cache_key(doc["series"], doc["rank"], doc["level"])
    payload = canonical_json(doc)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
