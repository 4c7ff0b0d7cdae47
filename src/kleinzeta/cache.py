"""Append-only JSONL cache for point counts.

Records look like {"p": 3, "k": 4, "count": 538084, "algorithm": "slice-chi",
"version": "0.1.0"}; re-runs consult the cache unless asked not to.  The
path comes from an explicit argument, the KLEINZETA_CACHE environment
variable, or a per-user default, in that order.  Two records that give
different counts for the same (p, k) are an error, never a silent choice.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .counting import CountRecord, count_klein
from .lfunc import InconsistentCounts

VERSION = "0.1.0"
CACHE_ENV = "KLEINZETA_CACHE"


def resolve_cache_path(explicit=None) -> Path:
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "kleinzeta" / "counts.jsonl"


class ConflictingRecords(InconsistentCounts):
    """The cache holds records with different counts for the same (p, k)."""


def cached_count(path: Path, p: int, k: int) -> int | None:
    if not path.exists():
        return None
    counts = set()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError:
                continue
            if rec.get("p") == p and rec.get("k") == k:
                counts.add(int(rec["count"]))
    if len(counts) > 1:
        raise ConflictingRecords(f"{path} holds counts {sorted(counts)} for (p, k) = ({p}, {k})")
    return counts.pop() if counts else None


def record_count(path: Path, rec: CountRecord) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as fh:
        fh.write(json.dumps({"p": rec.p, "k": rec.k, "count": rec.count,
                             "algorithm": rec.algorithm, "version": VERSION}) + "\n")


def count_with_cache(p: int, k: int, *, cache_path=None, no_cache: bool = False,
                     budget=None) -> tuple:
    """(count, hit) -- consult the cache first, then count and record."""
    path = resolve_cache_path(cache_path)
    if not no_cache:
        hit = cached_count(path, p, k)
        if hit is not None:
            return hit, True
    rec = count_klein(p, k) if budget is None else count_klein(p, k, budget=budget)
    if not no_cache:
        record_count(path, rec)
    return rec.count, False
