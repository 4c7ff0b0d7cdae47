"""Batch verification harness and report emission.

Every subcommand is one entry of one table, COMMANDS: its help text, its
flags (read by parse_args and listed by --help) and its runner.  main
parses the command line, builds the report (and, for the subcommands that
count, the count cache), calls the runner, and writes the check table and,
with --json, the JSON report.  A runner adds its checks to the report and
returns the payload it adds to the JSON (the cohomology summary, the theta
certificates), or None.  `report`'s runner calls the other runners in turn
on one cache, and adds two checks of its own.  The counting subcommands
read and append a count cache only with --cache.

A flag is its exact name (no abbreviations), given as `--flag value` or
`--flag=value`; a repeated flag keeps its last value.  `kleinzeta --help`
lists every subcommand with its flags, `kleinzeta CMD --help` one of them.

Every check's work goes through VerificationReport.run, which times it on
one clock and applies one failure rule: an ArithmeticError (a failed exact
computation, or counts that cannot be right, such as lfunc.InconsistentCounts
and the cache's bad or conflicting records) fails the check it feeds, and
the report is still written.  Any other exception -- a ValueError or OSError
from bad usage (an unknown command or flag, a missing or malformed value), a
field past the size limit, an unwritable path -- ends the run in main.

Exit status: 0 when every check passes, 1 on any failure, 2 on bad usage.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field

from . import __version__, counting, gdcohom, hecke, lfunc, thetasupp
from . import cache as cachemod
from .ffield import LOG_TABLE_MAX_Q, is_prime
from .reference import reference_degree10_at_3


@dataclass
class Check:
    name: str
    status: str           # pass | fail | inconclusive
    expected: str
    actual: str
    elapsed_ms: float


@dataclass
class VerificationReport:
    tool: str
    version: str
    config: dict
    checks: list = field(default_factory=list)

    def add(self, name: str, ok, expected, actual, elapsed_s: float = 0.0,
            inconclusive: bool = False) -> None:
        status = "inconclusive" if inconclusive else ("pass" if ok else "fail")
        self.checks.append(Check(name, status, str(expected), str(actual),
                                 round(elapsed_s * 1000.0, 3)))

    def run(self, fn, *args) -> tuple:
        """(value, error, seconds) of fn(*args): the harness's one clock and
        its one failure rule.  An ArithmeticError -- a failed exact
        computation, or counts that cannot be right -- comes back as error
        text, for the check it feeds to fail, and value is None.  Any other
        exception (bad usage, BudgetExceeded, an unwritable path) ends the run."""
        value = error = None
        clock = time.perf_counter
        t0 = clock()
        try:
            value = fn(*args)
        except ArithmeticError as exc:
            error = f"{type(exc).__name__}: {exc}"
        return value, error, clock() - t0

    def check(self, name: str, expected, fn, *args, ok=None) -> None:
        """Run fn(*args) and add a check of its value: against expected, or
        by ok(value) when ok is given."""
        value, error, dt = self.run(fn, *args)
        if error is not None:
            self.add(name, False, expected, error, dt)
        else:
            self.add(name, value == expected if ok is None else ok(value), expected, value, dt)

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "tool": self.tool,
            "version": self.version,
            "config": self.config,
            "overall": "pass" if self.passed else "fail",
            "checks": [vars(c) for c in self.checks],
        }

    def print_table(self, out=None) -> None:
        """Write the check table to out (stdout) in one write, so an
        unbuffered stream does not write line by line."""
        width = max((len(c.name) for c in self.checks), default=4)
        lines = []
        for c in self.checks:
            line = f"{c.name:<{width}}  {c.status:<12}"
            if c.status != "pass":
                line += f"  expected={c.expected}  actual={c.actual}"
            lines.append(line)
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}\n")
        (out or sys.stdout).write("\n".join(lines))


# ---------------------------------------------------------------------------
# check batteries


def run_count(report: VerificationReport, cache: cachemod.CountCache, p: int, k: int,
              name: str | None = None):
    """Check the count at (p, k) against hecke's prediction, at every p; the
    count, or None on an error.  Both share one run, so a failing prediction
    fails the check.  The check is name, or count-p{p}-k{k} with -cached on
    a cache hit."""
    def counted():
        n, hit = cachemod.count_with_cache(cache, p, k)
        return n, hit, hecke.predicted_count(p, k)

    value, error, dt = report.run(counted)
    n, hit, expected = value or (error, False, "a count and its prediction")
    ok = error is None and n == expected
    report.add(name or f"count-p{p}-k{k}{'-cached' if hit else ''}", ok, expected, n, dt)
    return None if error else n


def _count(report: VerificationReport, args: dict, cache: cachemod.CountCache):
    n = run_count(report, cache, args["p"], args["k"])
    if n is not None:
        print(f"#X(P^4(F_{args['p']}^{args['k']})) = {n}")


def _counting_route(cache: cachemod.CountCache) -> lfunc.LocalFactor:
    counts = [cachemod.count_with_cache(cache, 3, k)[0] for k in range(1, 6)]
    return lfunc.power_sums_to_local_factor(lfunc.counts_to_power_sums(counts, 3))


def run_verify_l3(report: VerificationReport, args: dict, cache: cachemod.CountCache):
    target = list(reference_degree10_at_3().coeffs)
    L_counting, error, dt = report.run(_counting_route, cache)
    actual = error or list(L_counting.coeffs)
    report.add("l3-counting-route", actual == target, target, actual, dt)
    report.check("l3-product-route", target,
                 lambda: list(hecke.h3_local_factor_product(3).coeffs))
    expected = "all |lambda| = 3^(3/2) (exact)"
    if L_counting is None:
        report.add("l3-purity", False, expected, "no counting-route factor", inconclusive=True)
    else:
        report.check("l3-purity", expected, lfunc.weil_bound_check, L_counting, ok=bool)


def run_trace_sweep(report: VerificationReport, args: dict, cache: cachemod.CountCache):
    for p in hecke.primes_up_to(args["max"]):
        if p != lfunc.BAD_PRIME:
            run_count(report, cache, p, 1, f"trace-p{p}")


def _hecke_table(report: VerificationReport, args: dict, cache):
    report.check("hecke-table", f"rows for primes <= {args['max']}", hecke.write_hecke_csv,
                 args["out"], args["max"], ok=lambda nrows: nrows > 0)


def _cm_structure(max_p: int) -> bool:
    ok = True
    for p in hecke.primes_up_to(max_p):
        a = hecke.ap_f(p)
        ok = ok and (a == 0) == (hecke.split_type(p) != "split") and a * a <= 4 * p
        if p != lfunc.BAD_PRIME:
            ok = ok and a == p + 1 - counting.count_weierstrass(counting.CM_CURVE, p)
    return ok


def run_cohomology(report: VerificationReport, args: dict, cache):
    """The six cohomology checks, and the report's cohomology block.

    A stage runs only when the stages it needs succeeded: the basis, then
    the rotation matrix and its eigenspace split, then (when the rotation's
    fifth power is 1) the Fourier vectors; the Gorenstein pairing stands
    alone.  That fifth power is 1 exactly when the eigenspace dimensions sum
    to 10.  A stage that raises ArithmeticError fails the first check it
    feeds (the Fourier-vector stage feeds cohomology-fil2-intersections),
    and the fields it would have filled stay None; a check whose inputs
    were never computed is inconclusive.  Each check carries the time of
    the stage that feeds it.
    """
    summary = dict.fromkeys((
        "dimension", "fil2_rank", "pole3_rank", "rotation_has_order_5", "eigenvalue_multiset",
        "fil2_intersections", "fourier_vector_eigenvalues", "gorenstein_pairing_nondegenerate"))
    errors, seconds = {}, {}

    def stage(name, fn, *args):
        value, error, dt = report.run(fn, *args)
        if error is not None:
            errors[name] = error
        seconds[name] = seconds.get(name, 0.0) + dt
        return value

    basis = stage("basis", gdcohom.h3_basis)
    if basis is not None:
        summary.update(dimension=basis.dimension, fil2_rank=len(basis.pole2_monomials),
                       pole3_rank=len(basis.pole3_monomials))
        M = stage("rotation", gdcohom.alpha_pullback)
        split = None if M is None else stage("rotation", gdcohom.eigenspace_split, M)
        if split is not None:
            summary["rotation_has_order_5"] = sum(split.dims) == len(M)
        if summary["rotation_has_order_5"]:
            summary["eigenvalue_multiset"] = {f"zeta5^{j}": d for j, d in enumerate(split.dims)}
            summary["fil2_intersections"] = {
                f"zeta5^{j}": d for j, d in enumerate(split.fil2_dims)}
            eigmap = stage("fourier", gdcohom.fil2_eigenvector_map, M)
            if eigmap is not None:
                summary["fourier_vector_eigenvalues"] = {
                    f"v_{j}": f"zeta5^{e}" for j, e in eigmap.items()}
    summary["gorenstein_pairing_nondegenerate"] = stage(
        "gorenstein", gdcohom.gorenstein_pairing_nondegenerate)

    def add(name, expected, key, stage_name, first=True):
        actual = summary[key]
        if isinstance(actual, dict):
            actual = tuple(actual.values())
        elapsed_s = seconds.get(stage_name, 0.0)
        if first and stage_name in errors:
            report.add(name, False, expected, errors[stage_name], elapsed_s)
        elif actual is None:
            report.add(name, False, expected, "not computed: an earlier stage failed",
                       elapsed_s, inconclusive=True)
        else:
            report.add(name, actual == expected, expected, actual, elapsed_s)

    add("cohomology-dimension", 10, "dimension", "basis")
    add("cohomology-fil2-rank", 5, "fil2_rank", "basis", first=False)
    add("cohomology-rotation-order", True, "rotation_has_order_5", "rotation")
    add("cohomology-eigenspace-dims", (2, 2, 2, 2, 2), "eigenvalue_multiset", "rotation",
        first=False)
    add("cohomology-fil2-intersections", (1, 1, 1, 1, 1), "fil2_intersections", "fourier")
    add("cohomology-gorenstein", True, "gorenstein_pairing_nondegenerate", "gorenstein")
    return {"cohomology": summary}


def run_theta_support(report: VerificationReport, args: dict, cache):
    """The theta checks at args["p"], and the report's certificates block.
    The coset scans run in the box of radius args["box"], with the x-window
    ScanBox gives that radius."""
    p = args["p"]
    box = thetasupp.ScanBox(radius=args["box"])
    certificates = {}
    for ty in thetasupp.COSET_TYPES if args["type"] == "all" else (args["type"],):
        rep, error, dt = report.run(thetasupp.scan_type, p, ty, box)
        certificates[ty] = rep and rep.to_dict()
        status = error or rep.status
        report.add(f"theta-type-{ty}-p{p}", status == "certified", "certified", status, dt,
                   inconclusive=(status == "inconclusive"))
    report.check(f"theta-char-sums-p{p}", "0 for 1 <= v <= 4",
                 lambda: not any(any(thetasupp.char_sum(p, v)) for v in range(1, 5)), ok=bool)
    report.check(f"theta-stabilizer-invariance-p{p}", True,
                 thetasupp.stabilizer_invariance_check, p)
    report.check("theta-archimedean-equivariance",
                 "no residual at either rotation generator (exact)",
                 thetasupp.archimedean_equivariance, ok=lambda residuals: not residuals)
    return {"certificates": certificates}


def _report(report: VerificationReport, args: dict, cache: cachemod.CountCache):
    run_verify_l3(report, args, cache)
    run_trace_sweep(report, args, cache)
    report.check("fermat-cover", True, counting.verify_fermat_cover)
    report.check("cm-structure-to-200", "dichotomy, Hasse, curve agreement", _cm_structure, 200,
                 ok=bool)
    run_cohomology(report, args, cache)
    return run_theta_support(report, {"p": 11, "box": 4, "type": "all"}, cache)


# ---------------------------------------------------------------------------
# command line

# subcommand -> (help, {flag: (type, default, help)}, runner); the type is int,
# str or a tuple of choices, and a default of ... marks a required flag.
# runner(report, args, cache) adds the checks and returns the JSON payload it
# adds, or None; cache is None for a subcommand without --cache.
_CACHE = (str, None, "count cache file (JSONL); none if omitted")
_JSON = (str, None, "write the report as JSON to this path")
COMMANDS = {
    "count": ("count points over F_{p^k}",
              {"p": (int, ..., ""), "k": (int, 1, ""), "cache": _CACHE, "json": _JSON}, _count),
    "verify-l3": ("flagship degree-10 identity at p = 3", {"cache": _CACHE, "json": _JSON},
                  run_verify_l3),
    "trace-sweep": ("count vs trace prediction for good p <= B",
                    {"max": (int, 100, ""), "cache": _CACHE, "json": _JSON}, run_trace_sweep),
    "hecke-table": ("write the coefficient table as CSV",
                    {"max": (int, 200, ""), "out": (str, ..., ""), "json": _JSON}, _hecke_table),
    "cohomology": ("middle-cohomology verification summary", {"json": _JSON}, run_cohomology),
    "theta-support": ("coset support scan certificates",
                      {"p": (int, 11, ""), "box": (int, 4, "|m|,|n|,|r| radius"),
                       "type": ((*thetasupp.COSET_TYPES, "all"), "all", ""), "json": _JSON},
                      run_theta_support),
    "report": ("run the full battery",
               {"max": (int, 100, "trace-sweep prime bound"), "cache": _CACHE, "json": _JSON},
               _report),
}


def _help(commands) -> str:
    lines = ["usage: kleinzeta COMMAND [--FLAG VALUE | --FLAG=VALUE ...]", "",
             "desk-scale zeta verification for the Klein cubic"]
    for command in commands:
        text, flags, _ = COMMANDS[command]
        lines += ["", f"{command:<15}{text}"]
        for flag, (kind, default, note) in flags.items():
            value = ("{" + ",".join(kind) + "}" if isinstance(kind, tuple)
                     else "INT" if kind is int else "PATH")
            state = "required" if default is ... else f"default {default}"
            if default is not None:
                note = f"{note}; {state}" if note else state
            lines.append(f"  --{flag + ' ' + value:<26}{note}")
    return "\n".join(lines)


def parse_args(argv) -> tuple:
    """(command, {flag: value}) with every flag of the command, at its default
    when not given; (None, None) once -h or --help has printed the help.

    A flag is its exact name, as `--flag value` or `--flag=value`, and a
    repeated flag keeps its last value.  A value may start with one dash
    (`--box -1`), not with two.  Every usage error raises ValueError.
    """
    if not argv:
        raise ValueError(f"a command is required: {', '.join(COMMANDS)}")
    if argv[0] in ("-h", "--help"):
        print(_help(COMMANDS))
        return None, None
    command, words = argv[0], list(argv[1:])
    if command not in COMMANDS:
        raise ValueError(f"invalid command {command!r} (choose from {', '.join(COMMANDS)})")
    flags = COMMANDS[command][1]
    args = {flag: default for flag, (_, default, _) in flags.items()}
    unknown = []
    while words:
        word = words.pop(0)
        if word in ("-h", "--help"):
            print(_help([command]))
            return None, None
        flag, eq, value = word[2:].partition("=")
        if not word.startswith("--") or flag not in flags:
            unknown.append(word)
            continue
        if not eq:
            if not words or words[0].startswith("--"):
                raise ValueError(f"argument --{flag}: expected one argument")
            value = words.pop(0)
        kind = flags[flag][0]
        if isinstance(kind, tuple) and value not in kind:
            raise ValueError(f"argument --{flag}: invalid choice: {value!r} "
                             f"(choose from {', '.join(kind)})")
        digits = value.strip()
        digits = digits[1:] if digits[:1] in ("+", "-") else digits     # int() takes one sign
        if kind is int and not all(map(str.isdecimal, digits.split("_"))):
            raise ValueError(f"argument --{flag}: invalid int value: {value!r}")
        args[flag] = int(value) if kind is int else value
    missing = [f"--{flag}" for flag, value in args.items() if value is ...]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise ValueError(f"unrecognized arguments: {' '.join(unknown)}")
    return command, args


def _finish(report: VerificationReport, json_path, extra=None) -> int:
    report.print_table()
    if json_path:
        payload = report.to_dict()
        if extra:
            payload.update(extra)
        # one line: without indent, json.dumps runs the C encoder in one
        # shot, where indent (and json.dump) take the pure-Python one
        with open(json_path, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
    return 0 if report.passed else 1


def main(argv=None) -> int:
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else argv)
        if command is None:     # the help was printed
            return 0
        report = VerificationReport("kleinzeta", __version__, {"command": command, **args})
        if args.get("max", 2) < 2:     # a sweep with no primes checks nothing
            raise ValueError(f"--max {args['max']} leaves no primes to check; use --max >= 2")
        if "max" in args:
            # field_order refuses every q past LOG_TABLE_MAX_Q, so a sweep that
            # reaches a prime past it would count every smaller prime and then fail;
            # hecke-table counts nothing but keeps the same bound on its sieve
            past = LOG_TABLE_MAX_Q + 1
            while not is_prime(past):
                past += 1
            if args["max"] >= past:
                raise ValueError(f"--max {args['max']} reaches the prime {past}, past the "
                                 f"field limit {LOG_TABLE_MAX_Q}; use --max < {past}")
        cache = cachemod.CountCache(args["cache"]) if "cache" in args else None
        return _finish(report, args["json"], COMMANDS[command][2](report, args, cache))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
