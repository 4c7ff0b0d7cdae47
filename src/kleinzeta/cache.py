"""Append-only JSONL cache for point counts.

Records look like {"p": 3, "k": 4, "count": 538084, "algorithm": "slice-delsarte",
"version": "0.1.0"}; re-runs consult the cache unless asked not to.  The
path comes from an explicit argument, the KLEINZETA_CACHE environment
variable, or a per-user default, in that order.  The file is parsed once
per state (inode, size and modification time).  A malformed line, or a count
above #P^4(F_q), is an error, and so are two records that give different
counts for the same (p, k): never a silent choice.
"""

from __future__ import annotations

import json
import os
import time
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


class BadRecord(InconsistentCounts):
    """A cache line is not a well-formed record, or its count cannot be a
    point count of a hypersurface in P^4(F_{p^k})."""


# resolved path -> ((st_ino, st_size, st_mtime_ns), {(p, k): set of counts})
_parsed: dict = {}
# a file whose mtime is this close to the parse may be rewritten within one
# timestamp tick, keeping size and mtime, so it is not memoised yet
_RACY_NS = 100_000_000


def _parse_record(line: str) -> tuple:
    try:
        rec = json.loads(line)
        p, k, n = rec["p"], rec["k"], rec["count"]
        # k >= 40 would mean q >= 2^40, past what build_field accepts
        if not all(type(v) is int for v in (p, k, n)) or p < 2 or not 1 <= k < 40:
            raise ValueError("p, k and count must be integers with p >= 2, 1 <= k < 40")
        CountRecord(p, k, n, "", 0.0)  # checks the #P^4(F_q) bound
    except (ValueError, TypeError, KeyError) as exc:
        raise BadRecord(f"bad record {line!r} ({type(exc).__name__}: {exc})") from exc
    return (p, k), n


def _records(path: Path) -> dict:
    """{(p, k): counts} for the whole file, parsed once per file state."""
    key = path.resolve()
    st = key.stat()
    stamp = (st.st_ino, st.st_size, st.st_mtime_ns)
    hit = _parsed.get(key)
    if hit is not None and hit[0] == stamp:
        return hit[1]
    parsed_at = time.time_ns()
    table = {}
    with open(key) as fh:
        for line in fh:
            line = line.strip()
            if line:
                pk, n = _parse_record(line)
                table.setdefault(pk, set()).add(n)
    if st.st_mtime_ns < parsed_at - _RACY_NS:
        _parsed[key] = (stamp, table)
    return table


def cached_count(path: Path, p: int, k: int) -> int | None:
    if not path.exists():
        return None
    counts = _records(path).get((p, k), set())
    if len(counts) > 1:
        raise ConflictingRecords(f"{path} holds counts {sorted(counts)} for (p, k) = ({p}, {k})")
    return next(iter(counts), None)


def record_count(path: Path, rec: CountRecord) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    _parsed.pop(path.resolve(), None)
    with open(path, "a") as fh:
        fh.write(json.dumps({"p": rec.p, "k": rec.k, "count": rec.count,
                             "algorithm": rec.algorithm, "version": VERSION}) + "\n")


def count_with_cache(p: int, k: int, *, cache_path=None, no_cache: bool = False) -> tuple:
    """(count, hit) -- consult the cache first, then count and record."""
    path = resolve_cache_path(cache_path)
    if not no_cache:
        hit = cached_count(path, p, k)
        if hit is not None:
            return hit, True
    rec = count_klein(p, k)
    if not no_cache:
        record_count(path, rec)
    return rec.count, False
