"""On-disk cache of the S-matrices of modular data.

One binary file per (series, rank, level) and S algorithm, written
atomically.  It holds only the key and S, as two ``.npy`` arrays one after
the other: the key ``[ord(series), rank, level, crc32 of S's bytes]`` as
int64, then S as complex128.  S is the one expensive quantity, and
everything else is derived from it.  A load refuses anything but ``.npy``
arrays, pickles included, checks that the file holds the key of its own name
and a 2-D complex128 S in C order, rebuilds the modular data from S (finite,
symmetric and unitary), compares S's checksum with the stored one, so a
flipped bit that keeps S within tolerance is caught too, and requires the
key and S of the rebuilt data to save to the file's exact bytes; a hit
returns the modular data only, carrying the Config of the lookup as a fresh
computation would.
Corruption is not fatal: the caller recomputes and overwrites, with a
warning on standard error.  An S that matches its checksum is the one that
was stored, so when the lookup's Config refuses it (a tighter tolerance, Weyl
cap or object cap) that refusal is raised as on a miss, and the file is kept.
"""

from __future__ import annotations

import io
import os
import sys
import tempfile
import zlib
from pathlib import Path

import numpy as np

from .affine import S_ALGORITHM, ModularData, modular_data_from_doc
from .config import Config, DEFAULT_CONFIG
from .errors import WzwError


def default_cache_dir() -> Path:
    env = os.environ.get("WZWKIT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "wzwkit"


def cache_key(series: str, rank: int, level: int) -> str:
    """File name of a cached S-matrix, tagged with the S algorithm and the
    checksummed S-only binary format; files of another algorithm or format
    (the unchecksummed ``.s-only.npy`` and the JSON files of older versions
    included) are never read."""
    return f"{series}-{rank}-{level}.{S_ALGORITHM}.s-crc32.npy"


def _checksum(s: np.ndarray) -> int:
    return zlib.crc32(s.tobytes())


def _cache_bytes(md: ModularData) -> bytes:
    """The cache file of md: its key with S's checksum, then its S, each
    saved by ``np.save``."""
    t = md.level_data.lie_type
    key = [ord(t.series), t.rank, md.level_data.level, _checksum(md.s_matrix)]
    buf = io.BytesIO()
    np.save(buf, np.array(key, dtype=np.int64))
    np.save(buf, md.s_matrix)
    return buf.getvalue()


_NPY_MAGIC = b"\x93NUMPY"


def _next_array(fh: io.BytesIO) -> np.ndarray:
    """The next ``.npy`` array of fh; anything else, pickles included, is refused."""
    start = fh.tell()
    if fh.read(len(_NPY_MAGIC)) != _NPY_MAGIC:
        raise ValueError("stored data is not a .npy array: the \\x93NUMPY magic is missing")
    fh.seek(start)
    return np.load(fh)


def cache_lookup(cache_dir: Path, series: str, rank: int, level: int,
                 config: Config = DEFAULT_CONFIG) -> ModularData | None:
    """Return the cached modular data, or None on miss or corruption.  A
    WzwError of rebuilding a stored S that matches its checksum propagates."""
    path = cache_dir / cache_key(series, rank, level)
    if not path.is_file():
        return None
    intact = False
    try:
        blob = path.read_bytes()
        fh = io.BytesIO(blob)
        key, s = _next_array(fh), _next_array(fh)
        if (key.dtype != np.int64 or key.shape != (4,)
                or key[:3].tolist() != [ord(series), rank, level]):
            raise ValueError("stored series, rank or level does not match the file name")
        if s.dtype != np.complex128 or s.ndim != 2:
            raise ValueError("stored S-matrix is not a 2-D complex128 array")
        if not s.flags.c_contiguous:
            raise ValueError("stored S-matrix is not in C order")
        intact = _checksum(s) == key[3]
        n = len(s)
        md = modular_data_from_doc({"series": series, "rank": rank, "level": level,
                                    "sMatrix": s.view(np.float64).reshape(n, n, 2)}, config)
        if not intact:
            raise ValueError("stored S-matrix does not match its checksum")
        if _cache_bytes(md) != blob:
            raise ValueError("stored file is not the saved key and S of its data, byte for byte")
        return md
    except Exception as exc:  # corrupted cache: recompute and overwrite
        if intact and isinstance(exc, WzwError):
            raise  # the stored S itself is refused, as a computed one would be
        print(f"wzwkit: cache file {path} is corrupted ({exc}); recomputing",
              file=sys.stderr)
        return None


def cache_store(cache_dir: Path, md: ModularData) -> Path:
    """Write the key and S of md atomically (write-to-temp plus rename)
    under the key of its series, rank and level; return the path."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    t = md.level_data.lie_type
    path = cache_dir / cache_key(t.series, t.rank, md.level_data.level)
    payload = _cache_bytes(md)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path
