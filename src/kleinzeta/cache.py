"""Append-only JSONL cache for point counts.

Records look like {"p": 3, "k": 4, "count": 538084, "algorithm": "jacobi-weil",
"version": "0.1.0"}.  The cache is used only when a run is given its path;
without one, every count is computed and no file is written.  Each run holds
one CountCache: it parses the file at most once, on its first lookup, and
adds every count the run records to what it parsed, so a change another
writer makes to the file mid-run is seen by the next run.  It makes the
file's directory once, on its first record, and appends and closes the file
once per record, so each count is on disk as soon as it is recorded.  A malformed
line, or a count above #P^4(F_q), is an error, and so are two records that
give different counts for the same (p, k): never a silent choice.
"""

from __future__ import annotations

import json
from pathlib import Path

from .counting import CountRecord, count_klein
from .ffield import field_order
from .lfunc import InconsistentCounts

VERSION = "0.1.0"


class ConflictingRecords(InconsistentCounts):
    """The cache holds records with different counts for the same (p, k)."""


class BadRecord(InconsistentCounts):
    """A cache line is not a well-formed record, or its count cannot be a
    point count of a hypersurface in P^4(F_{p^k})."""


def _parse_record(line: str) -> tuple:
    try:
        rec = json.loads(line)
        p, k, n = rec["p"], rec["k"], rec["count"]
        # k < 40 keeps q = p^k cheap to form from outside input (build_field stops at 2^20)
        if not all(type(v) is int for v in (p, k, n)) or p < 2 or not 1 <= k < 40:
            raise ValueError("p, k and count must be integers with p >= 2, 1 <= k < 40")
        CountRecord(p, k, n, "")  # checks the #P^4(F_q) bound
    except (ValueError, TypeError, KeyError, ArithmeticError) as exc:
        raise BadRecord(f"bad record {line!r} ({type(exc).__name__}: {exc})") from exc
    return (p, k), n


class CountCache:
    """The count cache of one run; its path is None when the cache is off."""

    def __init__(self, path):
        self.path = None if path is None else Path(path)
        self._table = None      # {(p, k): set of counts}, once parsed
        self._dir_made = False  # its directory, made on the first record

    def _counts(self) -> dict:
        if self._table is None:
            table = {}
            if self.path.exists():
                with open(self.path) as fh:
                    for line in fh:
                        line = line.strip()
                        if line:
                            pk, n = _parse_record(line)
                            table.setdefault(pk, set()).add(n)
            self._table = table
        return self._table


def cached_count(cache: CountCache, p: int, k: int) -> int | None:
    counts = cache._counts().get((p, k), set())
    if len(counts) > 1:
        raise ConflictingRecords(
            f"{cache.path} holds counts {sorted(counts)} for (p, k) = ({p}, {k})")
    return next(iter(counts), None)


def record_count(cache: CountCache, rec: CountRecord) -> None:
    if not cache._dir_made:
        cache.path.parent.mkdir(parents=True, exist_ok=True)
        cache._dir_made = True
    with open(cache.path, "a") as fh:
        fh.write(json.dumps({"p": rec.p, "k": rec.k, "count": rec.count,
                             "algorithm": rec.algorithm, "version": VERSION}) + "\n")
    if cache._table is not None:    # else the first lookup reads it from the file
        cache._table.setdefault((rec.p, rec.k), set()).add(rec.count)


def count_with_cache(cache: CountCache, p: int, k: int) -> tuple:
    """(count, hit) -- consult the run's cache first, then count and record.
    field_order refuses (p, k) before the lookup, so a cached count is never
    read past the size rule that refuses it uncached."""
    field_order(p, k)
    if cache.path is not None:
        hit = cached_count(cache, p, k)
        if hit is not None:
            return hit, True
    rec = count_klein(p, k)
    if cache.path is not None:
        record_count(cache, rec)
    return rec.count, False
