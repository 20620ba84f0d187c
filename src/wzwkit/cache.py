"""On-disk cache of the S-matrices of modular data.

One canonical JSON file per (series, rank, level) and S algorithm, written
atomically.  It holds only the key and S (``series``, ``rank``, ``level``,
``sMatrix``): S is the one expensive quantity, and everything else is
derived from it.  ``cache_store`` takes the modular data and writes those
fields straight from its S array.  A load checks that the file holds the
key of its own name, takes S from it (finite, symmetric and unitary),
derives the rest, and requires the cached fields of the rebuilt data to
serialize to the file's exact bytes; a hit returns the modular data only.
Corruption is not fatal: the caller recomputes and overwrites, with a
warning on standard error.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .affine import S_ALGORITHM, ModularData, modular_data_from_doc
from .config import Config, DEFAULT_CONFIG
from .jsonout import literal_table


def default_cache_dir() -> Path:
    env = os.environ.get("WZWKIT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "wzwkit"


def cache_key(series: str, rank: int, level: int) -> str:
    """File name of a cached S-matrix, tagged with the S algorithm and the
    S-only format; files of another algorithm or format (the full documents
    of older versions included) are never read."""
    return f"{series}-{rank}-{level}.{S_ALGORITHM}.s-only.json"


def canonical_json(doc) -> str:
    """The one serialization used for cache files and payload hashing; an
    ndarray in doc counts as its ``tolist()``."""
    return json.dumps(doc, separators=(",", ":"), ensure_ascii=True, default=np.ndarray.tolist)


def _cache_text(md: ModularData) -> str:
    """``canonical_json`` of the cached fields of md, S as [re, im] pairs.
    S repeats most of its entries, so it is written in the compact layout
    from ``jsonout.literal_table``: each distinct double is spelt once and
    one ``%`` fills the template; on A2:16 that is a quarter of the time of
    canonical_json with S as lists."""
    s = md.s_matrix
    n = len(s)
    literals, codes = literal_table(np.stack((s.real, s.imag), -1))
    row = "[" + ",".join(["[%s,%s]"] * n) + "]"
    s_text = "[" + ",".join([row] * n) % tuple(literals[codes].tolist()) + "]"
    t = md.level_data.lie_type
    head = canonical_json({"series": t.series, "rank": t.rank, "level": md.level_data.level})
    return f'{head[:-1]},"sMatrix":{s_text}}}'


def cache_lookup(cache_dir: Path, series: str, rank: int, level: int,
                 config: Config = DEFAULT_CONFIG) -> ModularData | None:
    """Return the cached modular data, or None on miss or corruption."""
    path = cache_dir / cache_key(series, rank, level)
    if not path.is_file():
        return None
    try:
        text = path.read_text()
        doc = json.loads(text)
        if cache_key(doc["series"], doc["rank"], doc["level"]) != path.name:
            raise ValueError("stored series, rank or level does not match the file name")
        md = modular_data_from_doc(doc, config)
        if _cache_text(md) != text:
            raise ValueError("stored file is not the canonical S-only document of its key")
        return md
    except Exception as exc:  # corrupted cache: recompute and overwrite
        print(f"wzwkit: cache file {path} is corrupted ({exc}); recomputing",
              file=sys.stderr)
        return None


def cache_store(cache_dir: Path, md: ModularData) -> Path:
    """Write the cached fields of md atomically (write-to-temp plus rename)
    under the key of its series, rank and level; return the path."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    t = md.level_data.lie_type
    path = cache_dir / cache_key(t.series, t.rank, md.level_data.level)
    payload = _cache_text(md)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
