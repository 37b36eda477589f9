"""Content-addressed on-disk cache of sweep-point results.

Layout: ``<root>/<key[:2]>/<key>.json`` — one JSON document per point,
fanned out over 256 shard directories so a full paper grid never piles
thousands of files into one listing.  Writes are atomic (temp file in the
shard directory, then ``os.replace``), so a reader can never observe a
half-written entry; a concurrent ``tbd cache clear`` at worst deletes an
entry that is immediately recomputed.

Robustness contract: a corrupted, truncated, or wrong-schema entry is a
*miss with a warning*, never an exception and never a wrong result — the
engine recomputes the point and overwrites the bad entry.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import dataclass, field

from repro.engine.keys import canonical_json

#: Entry-format version; bump when the stored payload shape changes.
ENTRY_SCHEMA = 1

#: Environment override for the default cache location.
CACHE_DIR_ENV = "TBD_CACHE_DIR"

#: Default cache directory (relative to the working directory).
DEFAULT_CACHE_DIR = ".tbd-cache"


class CacheCorruptionWarning(UserWarning):
    """A cache entry could not be read and will be recomputed."""


def default_cache_dir() -> str:
    """``$TBD_CACHE_DIR`` or ``./.tbd-cache``."""
    return os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR


@dataclass
class CacheStats:
    """One ``tbd cache stats`` snapshot."""

    root: str
    entries: int = 0
    total_bytes: int = 0
    by_model: dict = field(default_factory=dict)

    def format_report(self) -> str:
        lines = [
            f"cache {self.root}",
            f"  entries: {self.entries}",
            f"  size:    {self.total_bytes} bytes",
        ]
        for model in sorted(self.by_model):
            lines.append(f"  {model:16s} {self.by_model[model]} point(s)")
        return "\n".join(lines)


class ResultCache:
    """The content-addressed store the sweep engine memoizes into."""

    def __init__(self, root: str | None = None):
        self.root = root if root is not None else default_cache_dir()
        self.corrupt_entries = 0

    def path_for(self, key: str) -> str:
        """Sharded entry path for one point key."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------

    def load(self, key: str) -> dict | None:
        """The stored point payload, or ``None`` on miss *or* damage."""
        path = self.path_for(key)
        try:
            with open(path, encoding="utf-8") as handle:
                entry = json.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, ValueError) as exc:
            self._quarantine(path, f"unreadable entry ({exc})")
            return None
        if (
            not isinstance(entry, dict)
            or entry.get("schema") != ENTRY_SCHEMA
            or entry.get("key") != key
            or not isinstance(entry.get("point"), dict)
        ):
            self._quarantine(path, "schema/key mismatch")
            return None
        return entry["point"]

    def store(self, key: str, point: dict, config: dict | None = None) -> str:
        """Atomically write one entry; returns its path.

        Safe against a concurrent :meth:`clear`: the shard directory is
        recreated on demand and the final ``os.replace`` either lands the
        entry or (if the root vanished mid-write) is retried once.
        """
        entry = {
            "schema": ENTRY_SCHEMA,
            "key": key,
            "config": config or {},
            "point": point,
        }
        text = canonical_json(entry)
        path = self.path_for(key)
        for attempt in (0, 1):
            shard = os.path.dirname(path)
            os.makedirs(shard, exist_ok=True)
            handle, temp_path = tempfile.mkstemp(
                prefix=".tmp-", suffix=".json", dir=shard
            )
            try:
                with os.fdopen(handle, "w", encoding="utf-8") as stream:
                    stream.write(text)
                os.replace(temp_path, path)
                return path
            except FileNotFoundError:
                # The shard was cleared between mkdir and replace; retry.
                if attempt:
                    raise
            finally:
                if os.path.exists(temp_path):
                    try:
                        os.remove(temp_path)
                    except OSError:
                        pass
        return path

    def discard(self, key: str, reason: str) -> None:
        """Drop one entry that decoded but failed deeper validation (the
        engine's payload check); counted and warned like any corruption."""
        self._quarantine(self.path_for(key), reason)

    def _quarantine(self, path: str, reason: str) -> None:
        """Count, warn about, and remove a damaged entry so the recompute
        path can overwrite it cleanly."""
        self.corrupt_entries += 1
        warnings.warn(
            f"discarding damaged cache entry {path}: {reason}; recomputing",
            CacheCorruptionWarning,
            stacklevel=3,
        )
        try:
            os.remove(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------

    def _entry_paths(self):
        if not os.path.isdir(self.root):
            return
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json") and not name.startswith(".tmp-"):
                    yield os.path.join(shard_dir, name)

    def stats(self) -> CacheStats:
        """Entry count, byte size, and per-model point counts."""
        stats = CacheStats(root=self.root)
        for path in self._entry_paths():
            try:
                size = os.path.getsize(path)
                with open(path, encoding="utf-8") as handle:
                    entry = json.load(handle)
            except (OSError, ValueError):
                continue
            stats.entries += 1
            stats.total_bytes += size
            model = entry.get("config", {}).get("model", "<unknown>")
            stats.by_model[model] = stats.by_model.get(model, 0) + 1
        return stats

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.  Safe to run
        while a sweep is in flight — in-flight points simply recompute."""
        removed = 0
        for path in list(self._entry_paths()):
            try:
                os.remove(path)
                removed += 1
            except FileNotFoundError:
                pass
        if os.path.isdir(self.root):
            for shard in os.listdir(self.root):
                shard_dir = os.path.join(self.root, shard)
                try:
                    os.rmdir(shard_dir)
                except OSError:
                    pass
        return removed
