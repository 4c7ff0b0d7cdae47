#!/usr/bin/env python3
"""Benchmark of the kleinzeta command line, end to end and layer by layer.

    python3 perfbench/run.py --workload l3-tower --seed 1 --seconds 30 --trace 0

Each CLI call runs `kleinzeta.cli.main(argv)` in a fresh interpreter
(child.py), one call at a time, and the gate below checks every call's
output.  With --trace 0 the run prints the end-to-end metrics; with --trace 1
it alternates untraced and traced calls and prints the per-layer metrics.
setup_s is in reference seconds on every workload, and so are wall_s and
cpu_s on report-warm, whose calls run pure Python (see reference_setup_s and
reference_times).
The last line of standard output is the JSON result.  README.md in this
directory says why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
RUN_LIMIT_S = 170.0   # a run must end within 180 s; calls stop being started here
MIN_CALLS = 3         # timed calls per untraced run, so a median exists
SETUP_PROBES = 5      # extra interpreter-start-plus-import samples per run
REF_PROBE_S = 0.0027  # child.speed_probe() time that defines a reference second; about
                      # its mean on a 2-vCPU 2.0 GHz Xeon VM with Python 3.11.7

# det(1 - Frob_3 x | H^3) = (1 + 3x + 27x^2)(1 - 3x - 18x^2 + 135x^3 + 81x^4
# + 3645x^5 - 13122x^6 - 59049x^7 + 531441x^8), expanded
PINNED_L3 = [1, 0, 0, 0, 0, 7533, 0, 0, 0, 0, 14348907]
BAD_PRIME = 11
GOOD_PRIMES = tuple(p for p in range(2, 101)
                    if all(p % d for d in range(2, p)) and p != BAD_PRIME)
THETA_TYPES = ("I", "II", "III", "IV")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple            # CLI arguments ahead of --cache and --json
    expected_checks: int
    cold_pairs: tuple      # (p, k) a cold call must write exactly once
    record_check: str      # check a bad record fails, formatted with p
    prefilled: bool        # call on a copy of the prefilled cache, else an empty one
    certificates: bool     # the report carries theta certificates
    speed_scaled: bool     # calls run pure Python in one process: wall and cpu time
                           # in reference seconds


WORKLOADS = {w.name: w for w in (
    Workload("l3-tower", ("verify-l3",), 3,
             tuple((3, k) for k in range(1, 6)), "l3-counting-route", False, False, False),
    Workload("trace-sweep", ("trace-sweep", "--max", "100"), 24,
             tuple((p, 1) for p in GOOD_PRIMES), "trace-p{p}", False, False, False),
    Workload("report-warm", ("report",), 42, (), "", True, True, True),
)}
ORACLE_PAIRS = sorted({pair for w in WORKLOADS.values() for pair in w.cold_pairs})


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill what is left of the child's process group and wait for it to end."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One benchmark run: its scratch directory, its calls and its gate tally."""

    def __init__(self, name: str, limit_s: float = RUN_LIMIT_S):
        self.dir = WORK / name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.deadline = time.monotonic() + limit_s
        self.env = {k: v for k, v in os.environ.items() if k != "KLEINZETA_CACHE"}
        self.env["PYTHONPATH"] = str(SRC)
        self.ncalls = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.oracle = None

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, argv, opts=()) -> dict | None:
        """Run child.py once; None when it produced no result."""
        self.ncalls += 1
        out = self.dir / f"call{self.ncalls}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(out), *opts, "--", *argv]
        with open(self.dir / f"call{self.ncalls}.log", "w") as log:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.dir, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.time_left()))
            except subprocess.TimeoutExpired:
                pass
            finally:
                _stop_group(proc)
        if proc.returncode != 0 or not out.exists():
            return None
        result = json.loads(out.read_text())
        result["setup_s"] = result["ready"] - start
        return result

    def probe(self, opts=()) -> dict:
        """A call that only starts the interpreter and imports `kleinzeta.cli`."""
        if self.oracle is None:
            opts = (*opts, "--oracle", json.dumps(ORACLE_PAIRS))
        result = self.spawn((), opts)
        if result is None:
            raise RuntimeError(f"cannot import kleinzeta from {SRC}; see {self.dir}")
        if self.oracle is None:
            self.oracle = result["oracle"]
            if self.oracle["reference_l3"] != PINNED_L3:
                raise RuntimeError("reference_degree10_at_3() differs from the pinned factor")
        return result

    def call(self, wl: Workload, cache_source: Path | None = None, trace: bool = False,
             sampling: str | None = None):
        """One gated CLI call: (child result or None, cache path, spans path)."""
        n = self.ncalls + 1
        cache = self.dir / f"cache{n}.jsonl"
        report = self.dir / f"report{n}.json"
        spans = self.dir / f"spans{n}.json"
        if cache_source is None:
            cache.touch()
        else:
            shutil.copyfile(cache_source, cache)
        argv = [*wl.argv, "--cache", str(cache), "--json", str(report)]
        opts = ("--spans", str(spans)) if trace else ()
        if sampling:
            opts += ("--speed-samples", sampling)
        result = self.spawn(argv, opts)
        failed = self.gate(wl, result, report, cache if cache_source is None else None)
        self.attempted += wl.expected_checks
        self.failed += len(failed)
        if failed:
            self.failures.append(f"{wl.name} call {n}: {len(failed)} of {wl.expected_checks} "
                                 f"checks failed ({', '.join(sorted(set(failed)))})")
        return result, cache, spans

    def gate(self, wl: Workload, result, report_path: Path, cold_cache: Path | None) -> list:
        """One entry per expected check this call failed, naming the cause."""
        if result is None:
            return ["no result"] * wl.expected_checks
        if result["rc"] != 0:
            cause = f"exit {result['rc']}" + (f": {result['error']}" if result["error"] else "")
            return [cause] * wl.expected_checks
        try:
            report = json.loads(report_path.read_text())
        except (OSError, ValueError):
            return ["unreadable report"] * wl.expected_checks
        checks = {c["name"]: c for c in report.get("checks", [])}
        failed = {name for name, c in checks.items() if c.get("status") != "pass"}
        l3 = checks.get("l3-counting-route")
        if l3 is not None and l3.get("actual") != json.dumps(self.oracle["reference_l3"]):
            failed.add("l3-counting-route")
        if wl.certificates:
            certs = report.get("certificates", {})
            failed.update(f"theta-type-{ty}-p11" for ty in THETA_TYPES
                          if certs.get(ty, {}).get("status") != "certified")
        if cold_cache is not None:
            failed.update(self._bad_records(wl, cold_cache))
        missing = ["missing check"] * (wl.expected_checks - len(checks))
        return (sorted(failed) + missing)[:wl.expected_checks]

    def _bad_records(self, wl: Workload, path: Path) -> set:
        records, bad = [], set()
        for line in path.read_text().splitlines():
            if line.strip():
                try:
                    records.append(json.loads(line))
                except ValueError:
                    bad.add("unparsable cache record")
        for p, k in wl.cold_pairs:
            found = [r for r in records if r.get("p") == p and r.get("k") == k]
            if len(found) != 1 or found[0].get("count") != self.oracle["predicted"][f"{p},{k}"]:
                bad.add(wl.record_check.format(p=p))
        return bad

    def prefill(self, seed: int) -> Path:
        """The records one cold l3-tower and one cold trace-sweep call write,
        in an order shuffled by the seed."""
        lines = []
        for name in ("l3-tower", "trace-sweep"):
            _, cache, _ = self.call(WORKLOADS[name])
            lines += [line for line in cache.read_text().splitlines() if line.strip()]
        random.Random(seed).shuffle(lines)
        path = self.dir / "prefilled.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        return path


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def reference_times(result: dict) -> dict | None:
    """A sampled call's wall and cpu time in reference seconds; None without samples.

    child.SpeedSampler timed child.speed_probe() every 0.1 s of the call, on
    the vCPU that ran the call at that moment.  The probes' own time is taken
    out of wall and cpu time, and what is left is multiplied by REF_PROBE_S
    over the mean time of the probes that ran inside `main`.  On a shared
    host the vCPU's speed for pure-Python code drifts by up to 1.6x within
    minutes; the mean probe time tracked a report-warm call's wall time with
    correlation 0.95, so the product barely drifts.  No program change alters
    the probe's work, so a report 30% slower reads about 30% slower.
    """
    samples = result["speed_samples"][result["setup_samples"]:]
    if not samples:
        return None
    during = sum(samples)
    scale = REF_PROBE_S / statistics.fmean(samples)
    return {**result,
            "measured_wall_s": result["wall_s"] - during,
            "wall_s": (result["wall_s"] - during) * scale,
            "cpu_s": (result["cpu_s"] - during) * scale,
            "scale": scale}


def reference_setup_s(results: list) -> float:
    """Median set-up time of sampled calls, in reference seconds.

    Set-up is interpreter start and imports, pure Python on every workload,
    so it drifts with the vCPU like report-warm does.  Each set-up loses the
    time of its own probes; the median is scaled by REF_PROBE_S over the mean
    of all set-up probes of the run (about three per set-up).
    """
    before = [r["speed_samples"][:r["setup_samples"]] for r in results]
    pooled = [t for samples in before for t in samples]
    if not pooled:
        raise RuntimeError("no set-up took a speed sample")
    measured = statistics.median(r["setup_s"] - sum(b) for r, b in zip(results, before))
    return measured * REF_PROBE_S / statistics.fmean(pooled)


def measure(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    run = Run(wl.name)
    run.probe()
    scaled = wl.speed_scaled and not trace
    setups = [run.probe(("--speed-samples", "setup")) for _ in range(SETUP_PROBES)]
    source = run.prefill(seed) if wl.prefilled else None
    untraced, traced = [], []
    end = time.monotonic() + seconds
    step = 0.0
    # start another call (or traced pair) only if it should end within --seconds
    while run.time_left() > 0:
        enough = bool(untraced and traced) if trace else len(untraced) >= MIN_CALLS
        if enough and time.monotonic() + step > end:
            break
        started = time.monotonic()
        result, _, _ = run.call(wl, source, sampling="call" if scaled else "setup")
        if result is not None:
            untraced.append(result)
        if trace and run.time_left() > 0:
            result, cache, spans = run.call(wl, source, trace=True)
            if result is not None and spans.exists():
                values, missing = tracing.layer_metrics(json.loads(spans.read_text()))
                values["cache.file_bytes"] = float(cache.stat().st_size)
                traced.append((result, values, missing))
        step = time.monotonic() - started
    if not untraced:
        raise RuntimeError(f"no call of {wl.name} finished; see {run.dir}")

    out = {"run": run, "calls": len(untraced) + len(traced)}
    if not trace:
        setup_s = reference_setup_s(setups + untraced)
    if scaled:
        untraced = [t for t in map(reference_times, untraced) if t is not None]
        if not untraced:
            raise RuntimeError(f"no call of {wl.name} took a speed sample; see {run.dir}")
        out["speed"] = {"measured_wall_s": _median([r["measured_wall_s"] for r in untraced]),
                        "scale": _median([r["scale"] for r in untraced])}
    wall = _median([r["wall_s"] for r in untraced])
    if trace:
        names = [name for name, _, _ in tracing.LAYER_METRICS] + ["cache.file_bytes"]
        out["metrics"] = {name: _median([v[name] for _, v, _ in traced]) for name in names}
        out["metrics"]["trace.overhead_s"] = _median([r["wall_s"] for r, _, _ in traced]) - wall
        out["missing"] = sorted({m for _, _, missing in traced for m in missing})
    else:
        out["metrics"] = {
            "wall_s": wall,
            "cpu_s": _median([r["cpu_s"] for r in untraced]),
            "setup_s": setup_s,
            "peak_rss_mb": _median([r["rss_kb"] / 1024.0 for r in untraced]),
        }
    return out


def units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "kleinzeta" / "cli.py").is_file():
        print(f"error: no kleinzeta sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        out = measure(wl, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    run, unit = out["run"], units()

    print(f"# workload {wl.name}, seed {args.seed}, trace {args.trace}, {out['calls']} timed calls")
    for name, value in out["metrics"].items():
        print(f"{name:<34} {value:>14.6f} {unit[name]}")
    for name, value in out.get("speed", {}).items():
        print(f"{'speed.' + name:<34} {value:>14.6f}")
    print(f"{'failed_frac':<34} {run.failed / run.attempted:>14.6f} ratio "
          f"({run.failed} of {run.attempted} checks)")
    for failure in run.failures:
        print(f"FAILED {failure}")
    oracle = run.oracle
    print(json.dumps({"provenance": {
        "git_commit": git_commit(),
        "nproc": oracle["nproc"],
        "os_cpu_count": oracle["os_cpu_count"],
        "python": oracle["python_version"],
        "numpy": oracle["numpy_version"],
        "kleinzeta": oracle["kleinzeta_version"],
        "seed": args.seed,
        "argv": {w.name: [*w.argv, "--cache", "<cache>", "--json", "<report>"]
                 for w in WORKLOADS.values()},
        "missing": out.get("missing", []),
        "speed": out.get("speed"),
    }}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit[name]}
                    for name, value in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
