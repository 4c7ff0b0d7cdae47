import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kleinzeta import cache as cachemod
from kleinzeta import cli, ffield
from kleinzeta.cache import ConflictingRecords, CountCache, cached_count, record_count
from kleinzeta.cli import main, parse_args
from kleinzeta.counting import CountRecord
from kleinzeta.ffield import LOG_TABLE_MAX_Q
from kleinzeta.hecke import predicted_count
from kleinzeta.lfunc import InconsistentCounts


def run(args):
    return main(args)


def test_count_subcommand_and_cache(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    assert run(["count", "--p", "3", "--k", "1", "--cache", str(cache)]) == 0
    first = capsys.readouterr().out
    assert "count-p3-k1" in first and "pass" in first
    assert cache.exists()
    rec = json.loads(cache.read_text().splitlines()[0])
    assert rec == {"p": 3, "k": 1, "count": 40, "algorithm": "jacobi-weil",
                   "version": rec["version"]}
    # second run hits the cache
    assert run(["count", "--p", "3", "--k", "1", "--cache", str(cache)]) == 0
    second = capsys.readouterr().out
    assert "cached" in second
    assert len(cache.read_text().splitlines()) == 1


def test_count_at_the_bad_prime_checks_its_prediction(tmp_path, capsys):
    # chi(11) = 0 makes the prediction at p = 11 the count 1 + q + q^2 + q^3,
    # so the check compares two numbers there as at every other prime
    for k in range(1, 6):
        out = tmp_path / f"p11-k{k}.json"
        assert run(["count", "--p", "11", "--k", str(k), "--json", str(out)]) == 0
        q = 11 ** k
        flat = str(1 + q + q * q + q ** 3)
        [check] = json.loads(out.read_text())["checks"]
        assert ((check["name"], check["status"], check["expected"], check["actual"])
                == (f"count-p11-k{k}", "pass", flat, flat))


def test_count_without_cache_writes_no_file(tmp_path, monkeypatch, capsys):
    # without --cache the count is computed and nothing is written: not in
    # the home or working directory, nor where the retired variable points
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv("KLEINZETA_CACHE", str(tmp_path / "env.jsonl"))
    monkeypatch.chdir(tmp_path)
    assert run(["count", "--p", "2", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "#X(P^4(F_2^2)) = 85" in out and "cached" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["count", "--p", "3", "--no-cache"], ["verify-l3", "--no-cache"],
                                  ["trace-sweep", "--no-cache"], ["report", "--no-cache"],
                                  ["report", "--quick"]],
                         ids=["count-no-cache", "verify-l3-no-cache", "trace-sweep-no-cache",
                              "report-no-cache", "report-quick"])
def test_removed_flags_are_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert "unrecognized arguments: " + argv[-1] in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required"),
    (["counts", "--p", "3", "--json", "r.json"], "invalid command 'counts'"),
    (["--p", "3", "count", "--json", "r.json"], "invalid command '--p'"),
    (["count", "--p", "3", "--ks", "2", "--cache", "c.jsonl"], "unrecognized arguments: --ks 2"),
    (["report", "--ma", "10", "--json", "r.json"], "unrecognized arguments: --ma 10"),
    (["count", "--p", "3", "-k", "2", "--json", "r.json"], "unrecognized arguments: -k 2"),
    (["count", "--cache", "c.jsonl", "--p"], "argument --p: expected one argument"),
    (["count", "--cache", "--p", "3"], "argument --cache: expected one argument"),
    (["count", "--k", "2", "--cache", "c.jsonl"], "the following arguments are required: --p"),
    (["hecke-table", "--max", "10"], "the following arguments are required: --out"),
    (["count", "--p", "three", "--json", "r.json"], "argument --p: invalid int value: 'three'"),
    (["count", "--p", "3", "--k=2.5", "--json", "r.json"],
     "argument --k: invalid int value: '2.5'"),
    (["count", "--p", "3", "--k", "+-2", "--json", "r.json"],
     "argument --k: invalid int value: '+-2'"),
    (["count", "--p=-+3", "--json", "r.json"], "argument --p: invalid int value: '-+3'"),
    (["count", "--p", "1__0", "--json", "r.json"], "argument --p: invalid int value: '1__0'"),
    (["count", "--p", "_1", "--json", "r.json"], "argument --p: invalid int value: '_1'"),
    (["count", "--p", "1_", "--json", "r.json"], "argument --p: invalid int value: '1_'"),
    (["theta-support", "--type", "V", "--json", "t.json"], "argument --type: invalid choice: 'V'"),
    (["theta-support", "--type=iv", "--json", "t.json"], "argument --type: invalid choice: 'iv'"),
], ids=["no-command", "unknown-command", "flag-before-command", "unknown-flag",
        "abbreviated-flag", "single-dash-flag", "no-value", "flag-as-value", "missing-p",
        "missing-out", "bad-int", "bad-int-equals", "bad-int-signs", "bad-int-signs-equals",
        "bad-int-double-underscore",
        "bad-int-leading-underscore", "bad-int-trailing-underscore", "bad-type",
        "bad-type-equals"])
def test_usage_errors_exit_2_and_write_nothing(tmp_path, monkeypatch, capsys, argv, message):
    # every usage error leaves through main's one handler: exit 2, the
    # message on stderr, and no report, cache or table written
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_flag_forms():
    # --flag=value, the last of a repeated flag, and a value with one dash
    assert parse_args(["count", "--p=5", "--k", "2", "--k=3"]) == (
        "count", {"p": 5, "k": 3, "cache": None, "json": None})
    assert parse_args(["theta-support", "--box", "-1", "--type=IV", "--type", "II"]) == (
        "theta-support", {"p": 11, "box": -1, "type": "II", "json": None})
    assert parse_args(["hecke-table", "--out=a=b.csv", "--max", " 1_0 "]) == (
        "hecke-table", {"max": 10, "out": "a=b.csv", "json": None})


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["report", "--help"],
                                  ["count", "--p", "3", "-h", "--bogus"]])
def test_help_exits_0(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: kleinzeta COMMAND")
    commands = [c for c in cli.COMMANDS if f"\n{c} " in out]
    if argv[0].startswith("-"):
        assert commands == list(cli.COMMANDS) and len(commands) == 7
        assert "--type {I,II,III,IV,all}" in out and "count cache file (JSONL)" in out
    else:
        assert commands == [argv[0]]
    assert list(tmp_path.iterdir()) == []


def test_verify_l3_loads_no_argparse(tmp_path):
    # the flag table replaced argparse, which imports gettext, and gettext
    # imports locale on first use: a verify-l3 run in a fresh interpreter
    # loads none of the three
    report = tmp_path / "r.json"
    code = ("import sys\n"
            "from kleinzeta.cli import main\n"
            f"assert main(['verify-l3', '--json', {str(report)!r}]) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == "[]"
    assert json.loads(report.read_text())["overall"] == "pass"


def test_count_reads_a_file_rewritten_between_runs(tmp_path, capsys):
    # a record rewritten in place to the same size, its mtime put back, is
    # what the next run in the same process reads: the file now says 49
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"p": 3, "k": 1, "count": 40}) + "\n")
    past = cache.stat().st_mtime_ns - 10 ** 10
    os.utime(cache, ns=(past, past))
    argv = ["count", "--p", "3", "--k", "1", "--cache", str(cache)]
    assert run(argv) == 0
    cache.write_text(json.dumps({"p": 3, "k": 1, "count": 49}) + "\n")
    os.utime(cache, ns=(past, past))
    out = tmp_path / "r.json"
    assert run(argv + ["--json", str(out)]) == 1
    (check,) = json.loads(out.read_text())["checks"]
    assert check["status"] == "fail" and check["actual"] == "49"


def test_count_f3_10_is_genuine(tmp_path, capsys):
    # F_59049 is within the field-size limit: counted, checked against the
    # trace identity's prediction, and recorded
    cache = tmp_path / "c.jsonl"
    assert run(["count", "--p", "3", "--k", "10", "--cache", str(cache)]) == 0
    expected = predicted_count(3, 10)
    assert f"#X(P^4(F_3^10)) = {expected}" in capsys.readouterr().out
    assert json.loads(cache.read_text())["count"] == expected


def test_count_past_the_budget_is_a_usage_error(tmp_path, capsys):
    # 23^5 is past the log/exp cap: BudgetExceeded exits 2 and records nothing
    cache = tmp_path / "c.jsonl"
    assert run(["count", "--p", "23", "--k", "5", "--cache", str(cache)]) == 2
    assert f"q = 23^5 exceeds the log/exp limit {LOG_TABLE_MAX_Q}" in capsys.readouterr().err
    assert not cache.exists()


def test_a_cached_count_past_the_budget_is_refused_too(tmp_path, capsys):
    # the size rule runs before the cache lookup, so a record for a refused
    # (p, k) changes no verdict: with the cache as without it, exit 2
    p = 1048583     # the first prime past LOG_TABLE_MAX_Q
    cache = tmp_path / "c.jsonl"
    cache.write_text(json.dumps({"p": p, "k": 1, "count": predicted_count(p, 1),
                                 "algorithm": "jacobi-weil",
                                 "version": cachemod.VERSION}) + "\n")
    assert cached_count(CountCache(cache), p, 1) == predicted_count(p, 1)
    for extra in (["--cache", str(cache)], []):
        assert run(["count", "--p", str(p)] + extra) == 2
        assert f"q = {p}^1 exceeds the log/exp limit {LOG_TABLE_MAX_Q}" in capsys.readouterr().err


def test_count_with_a_huge_degree_names_the_field_limit(capsys):
    # the degree is refused before p^k is formed: 3^100000 has 47713 digits,
    # past what Python converts to a string, and 3^30000000 takes seconds
    for k in ("100000", "30000000"):
        assert run(["count", "--p", "3", "--k", k]) == 2
        assert f"q = 3^{k} exceeds the log/exp limit 1048576" in capsys.readouterr().err


def test_trace_sweep_small(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["trace-sweep", "--max", "10", "--cache", str(tmp_path / "c.jsonl"),
                "--json", str(out)]) == 0
    text = capsys.readouterr().out
    for p in (2, 3, 5, 7):
        assert f"trace-p{p}" in text
    assert "trace-p11" not in text
    payload = json.loads(out.read_text())
    assert payload["overall"] == "pass"


def test_hecke_table_subcommand(tmp_path):
    out = tmp_path / "h.csv"
    assert run(["hecke-table", "--max", "30", "--out", str(out)]) == 0
    assert out.read_text().startswith("p,split_type,a,b,ap_f,ap_g,chi_dlog")


def test_cohomology_subcommand(tmp_path):
    out = tmp_path / "c.json"
    assert run(["cohomology", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["cohomology"]["dimension"] == 10
    assert payload["cohomology"]["fil2_rank"] == 5
    assert payload["cohomology"]["eigenvalue_multiset"] == {
        f"zeta5^{j}": 2 for j in range(5)}


def test_cohomology_json_matches_golden(tmp_path):
    golden = Path(__file__).parent / "data" / "cohomology_golden.json"
    out = tmp_path / "c.json"
    assert run(["cohomology", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["cohomology"] == json.loads(golden.read_text())["cohomology"]


def _order_two_rotation():
    # a swap of the first two classes: M^2 = 1, so M^5 != 1
    return [[Fraction(int((i, j) in ((0, 1), (1, 0)) or i == j > 1)) for j in range(10)]
            for i in range(10)]


def _failing_pullback():
    raise ArithmeticError("ideal membership failed during reduction")


def _identity_rotation():
    # order 1 divides 5, but every class sits in the zeta^0 eigenspace
    return [[Fraction(int(i == j)) for j in range(10)] for i in range(10)]


def _jordan_rotation():
    # a Jordan block for eigenvalue 1: not monomial, so the split refuses it
    return [[Fraction(int(i == j or j == i + 1)) for j in range(10)] for i in range(10)]


_NO_EIGENSPACES = {"cohomology-eigenspace-dims": ("inconclusive", "not computed"),
                   "cohomology-fil2-intersections": ("inconclusive", "not computed")}


@pytest.mark.parametrize("pullback, rotation, eigen", [
    (_order_two_rotation, ("fail", "False"), _NO_EIGENSPACES),
    (_failing_pullback, ("fail", "ArithmeticError: ideal"), _NO_EIGENSPACES),
    (_jordan_rotation, ("fail", "ArithmeticError: rotation matrix is not monomial"),
     _NO_EIGENSPACES),
    (_identity_rotation, ("pass", "True"),
     {"cohomology-eigenspace-dims": ("fail", "(10, 0, 0, 0, 0)"),
      "cohomology-fil2-intersections": ("fail", "(5, 0, 0, 0, 0)")}),
], ids=["order-two", "arithmetic-error", "not-monomial", "identity"])
def test_cohomology_failure_is_a_failing_check(monkeypatch, tmp_path, capsys, pullback,
                                               rotation, eigen):
    # a bad rotation matrix fails a check; when its order does not divide 5,
    # or it is not monomial, the eigenspace checks are inconclusive; the
    # JSON is still written and the exit code is 1
    import kleinzeta.cli as climod
    monkeypatch.setattr(climod.gdcohom, "alpha_pullback", pullback)
    out = tmp_path / "c.json"
    assert run(["cohomology", "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    expected = {"cohomology-dimension": ("pass", "10"), "cohomology-fil2-rank": ("pass", "5"),
                "cohomology-rotation-order": rotation, **eigen,
                "cohomology-gorenstein": ("pass", "True")}
    assert [c["name"] for c in payload["checks"]] == list(expected)
    for c in payload["checks"]:
        status, actual = expected[c["name"]]
        assert c["status"] == status
        assert c["actual"].startswith(actual)
    assert payload["overall"] == "fail"
    assert (payload["cohomology"]["eigenvalue_multiset"] is None) == (eigen is _NO_EIGENSPACES)


def test_theta_support_subcommand(tmp_path):
    out = tmp_path / "t.json"
    assert run(["theta-support", "--p", "3", "--box", "2", "--type", "I",
                "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["certificates"]["I"]["status"] == "certified"
    assert payload["certificates"]["I"]["box"]["radius"] == 2


def test_report_determinism_with_warm_cache(tmp_path):
    cache = tmp_path / "c.jsonl"
    out = tmp_path / "report.json"
    base = ["trace-sweep", "--max", "7", "--cache", str(cache), "--json", str(out)]
    assert run(base) == 0
    first = out.read_text()
    assert run(base) == 0
    second = out.read_text()

    def strip(text):
        d = json.loads(text)
        for c in d["checks"]:
            c.pop("elapsed_ms")
        return d

    # identical modulo timings; the cached rerun flips no values
    assert strip(first) == strip(second)


def test_verify_l3_with_warm_cache(tmp_path, capsys):
    # the five tower counts, frozen from the acceptance run, pre-seed the
    # cache so the subcommand exercises the pipeline without recounting;
    # the records carry the algorithm name older versions wrote
    cache = tmp_path / "c.jsonl"
    tower = {1: 40, 2: 820, 3: 20440, 4: 538084, 5: 14445865}
    with open(cache, "w") as fh:
        for k, n in tower.items():
            fh.write(json.dumps({"p": 3, "k": k, "count": n,
                                 "algorithm": "quad-fiber", "version": "0.1.0"}) + "\n")
    out = tmp_path / "l3.json"
    assert run(["verify-l3", "--cache", str(cache), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    names = {c["name"]: c["status"] for c in payload["checks"]}
    assert names["l3-counting-route"] == "pass"
    assert names["l3-product-route"] == "pass"
    assert names["l3-purity"] == "pass"


def test_verify_l3_poisoned_cache_fails_check(tmp_path, capsys):
    # a wrong count breaks the Weil bound of its power sum: a failing
    # check (exit 1), not a usage error (exit 2); 121 = #P^4(F_3) is the
    # largest count the cache itself accepts at (3, 1)
    cache = tmp_path / "c.jsonl"
    tower = {1: 121, 2: 820, 3: 20440, 4: 538084, 5: 14445865}
    with open(cache, "w") as fh:
        for k, n in tower.items():
            fh.write(json.dumps({"p": 3, "k": k, "count": n,
                                 "algorithm": "slice-chi", "version": "0.1.0"}) + "\n")
    out = tmp_path / "l3.json"
    assert run(["verify-l3", "--cache", str(cache), "--json", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["l3-counting-route"]["status"] == "fail"
    assert "InconsistentCounts" in checks["l3-counting-route"]["actual"]
    assert checks["l3-product-route"]["status"] == "pass"
    assert checks["l3-purity"]["status"] == "inconclusive"


def _write_cache(path, records):
    with open(path, "w") as fh:
        for p, k, n in records:
            fh.write(json.dumps({"p": p, "k": k, "count": n,
                                 "algorithm": "slice-chi", "version": "0.1.0"}) + "\n")


def test_cached_count_rejects_conflicting_records(tmp_path):
    path = tmp_path / "c.jsonl"
    _write_cache(path, [(3, 1, 40), (3, 2, 820), (3, 1, 40)])
    assert cached_count(CountCache(path), 3, 1) == 40   # duplicates that agree are fine
    _write_cache(path, [(3, 1, 40), (3, 2, 820), (3, 1, 41)])
    cache = CountCache(path)
    assert cached_count(cache, 3, 2) == 820
    with pytest.raises(ConflictingRecords) as err:
        cached_count(cache, 3, 1)
    assert isinstance(err.value, InconsistentCounts)


_TOWER_LINES = [json.dumps({"p": 3, "k": k, "count": n, "algorithm": "slice-chi",
                            "version": "0.1.0"})
                for k, n in {1: 40, 2: 820, 3: 20440, 4: 538084, 5: 14445865}.items()]


@pytest.mark.parametrize("bad", [
    _TOWER_LINES[2][:25],                                       # truncated line
    _TOWER_LINES[2].replace("20440", '"20440"'),                # non-integer count
    _TOWER_LINES[0].replace("40", "99999999999", 1),            # count > #P^4(F_3)
], ids=["truncated", "non-integer", "out-of-bound"])
def test_verify_l3_bad_record_fails_check(tmp_path, capsys, bad):
    # a record the cache cannot trust fails the counting route (exit 1); it
    # is neither skipped nor taken on trust
    cache = tmp_path / "c.jsonl"
    cache.write_text("\n".join(_TOWER_LINES[1:] + [bad]) + "\n")
    out = tmp_path / "l3.json"
    assert run(["verify-l3", "--cache", str(cache), "--json", str(out)]) == 1
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["l3-counting-route"]["status"] == "fail"
    assert "BadRecord" in checks["l3-counting-route"]["actual"]
    assert checks["l3-product-route"]["status"] == "pass"
    assert checks["l3-purity"]["status"] == "inconclusive"
    assert cache.read_text().count("\n") == 5   # nothing was recounted or appended


def test_cached_count_parses_once_and_sees_appends(tmp_path, monkeypatch):
    # one CountCache parses each line once however often it is looked up,
    # and sees what it records without reading the file again; a new
    # CountCache sees lines another writer appended, a conflicting one too
    parsed = []
    parse = cachemod._parse_record
    monkeypatch.setattr(cachemod, "_parse_record", lambda line: parsed.append(line) or parse(line))
    path = tmp_path / "c.jsonl"
    path.write_text("\n".join(_TOWER_LINES[:2]) + "\n")
    cache = CountCache(path)
    for _ in range(3):
        assert cached_count(cache, 3, 1) == 40 and cached_count(cache, 3, 3) is None
    assert len(parsed) == 2
    record_count(cache, CountRecord(3, 3, 20440, "slice-chi"))
    assert cached_count(cache, 3, 3) == 20440
    assert len(parsed) == 2
    with open(path, "a") as fh:
        fh.write(_TOWER_LINES[3] + "\n")
    assert cached_count(CountCache(path), 3, 4) == 538084
    with open(path, "a") as fh:
        fh.write(json.dumps({"p": 3, "k": 1, "count": 41}) + "\n")
    with pytest.raises(ConflictingRecords):
        cached_count(CountCache(path), 3, 1)


def test_record_count_makes_its_directory_once(tmp_path, monkeypatch):
    # the first record makes the cache's missing directory and no later one
    # asks again, while each record is on disk as soon as it is recorded
    made = []
    mkdir = Path.mkdir

    def counted(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counted)
    path = tmp_path / "new" / "c.jsonl"
    cache = CountCache(path)
    for k, n in ((1, 40), (2, 820), (3, 20440)):
        record_count(cache, CountRecord(3, k, n, "jacobi-weil"))
        assert cached_count(CountCache(path), 3, k) == n
    assert made == [path.parent]


@pytest.mark.parametrize("argv", [["count", "--p", "3", "--k", "1"],
                                  ["trace-sweep", "--max", "5"],
                                  ["verify-l3"]],
                         ids=["count", "trace-sweep", "verify-l3"])
def test_conflicting_cache_records_fail_check(tmp_path, capsys, argv):
    # two records disagree at (3, 1), the right one first: the cache must
    # not pick either silently, and the disagreement is a failing check
    # (exit 1), not a usage error (exit 2)
    cache = tmp_path / "c.jsonl"
    tower = {1: 40, 2: 820, 3: 20440, 4: 538084, 5: 14445865}
    _write_cache(cache, [(3, k, n) for k, n in tower.items()] + [(3, 1, 41)])
    out = tmp_path / "r.json"
    assert run(argv + ["--cache", str(cache), "--json", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    failed = [c for c in checks if c["status"] == "fail"]
    assert len(failed) == 1
    assert "ConflictingRecords" in failed[0]["actual"]


def test_report_without_cache(tmp_path, monkeypatch):
    # the full battery counts everything and writes only its report
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert run(["report", "--json", "report.json"]) == 0
    payload = json.loads((tmp_path / "report.json").read_text())
    assert payload["overall"] == "pass"
    assert len(payload["checks"]) == 42
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert all(c["elapsed_ms"] > 0 for c in payload["checks"])   # each check read the clock
    assert payload["certificates"]["IV"]["status"] == "certified"
    assert list(tmp_path.iterdir()) == [tmp_path / "report.json"]


def test_report_json_is_one_c_encoded_line(tmp_path, monkeypatch):
    # the report is one compact line from the C encoder: the pure-Python
    # encoder, which indent or json.dump would run, is never called, and the
    # line parses to the report's to_dict() plus its certificates
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    finished = {}
    finish = cli._finish

    def spy(report, json_path, extra=None):
        finished.update(report=report, extra=extra)
        return finish(report, json_path, extra)

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    monkeypatch.setattr(cli, "_finish", spy)
    out = tmp_path / "report.json"
    assert run(["report", "--json", str(out)]) == 0
    text = out.read_text()
    assert "\n" not in text
    assert list(finished["extra"]) == ["certificates"]
    expected = {**finished["report"].to_dict(), **finished["extra"]}
    assert json.loads(text) == json.loads(json.dumps(expected))
    assert len(json.loads(text)["checks"]) == 42


def test_check_table_is_one_write():
    # the aligned table and the overall line reach the stream in one write,
    # which an unbuffered stdout (PYTHONUNBUFFERED) passes on as one write
    class Stream:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

    report = cli.VerificationReport("kleinzeta", "0", {})
    report.add("fermat-cover", True, True, True)
    report.add("cm-structure-to-200", False, "x", "y")
    out = Stream()
    report.print_table(out)
    assert out.writes == ["fermat-cover         pass        \n"
                          "cm-structure-to-200  fail          expected=x  actual=y\n"
                          "overall: FAIL\n"]
    empty = Stream()
    cli.VerificationReport("kleinzeta", "0", {}).print_table(empty)
    assert empty.writes == ["overall: pass\n"]


def _eigvals_calls(monkeypatch):
    """A list that records every LAPACK eigvals call, np.roots's included."""
    import inspect

    import numpy as np

    calls, real = [], np.linalg.eigvals

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvals", spy)
    monkeypatch.setitem(inspect.unwrap(np.roots).__globals__, "eigvals", spy)
    np.roots([1, 0, -1])
    assert len(calls) == 1      # the spy sees the call behind np.roots
    calls.clear()
    return calls


def test_cm_structure_builds_no_field_table():
    # #E(F_p) from square-root counts and residue products: the 45 curve
    # counts to 200 build and read no log/exp table
    before = ffield._log_exp_cached.cache_info()
    assert cli._cm_structure(200)
    assert ffield._log_exp_cached.cache_info() == before


def test_warm_report_builds_no_field_table_and_calls_no_lapack(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "c.jsonl"
    assert run(["report", "--cache", str(cache)]) == 0     # the counts fill the cache
    eigvals_calls = _eigvals_calls(monkeypatch)
    before = ffield._log_exp_cached.cache_info()
    out = tmp_path / "report.json"
    assert run(["report", "--cache", str(cache), "--json", str(out)]) == 0
    assert ffield._log_exp_cached.cache_info() == before
    assert eigvals_calls == []
    checks = {c["name"]: c for c in json.loads(out.read_text())["checks"]}
    assert all(c["status"] == "pass" for c in checks.values())
    assert checks["l3-purity"]["expected"] == "all |lambda| = 3^(3/2) (exact)"


def test_verify_l3_times_every_check(tmp_path):
    out = tmp_path / "l3.json"
    assert run(["verify-l3", "--json", str(out)]) == 0
    checks = json.loads(out.read_text())["checks"]
    assert len(checks) == 3
    assert all(c["elapsed_ms"] > 0 for c in checks)


def _failing_counter(p, k):
    raise ArithmeticError("affine count is not 1 mod (q-1); counter is inconsistent")


@pytest.mark.parametrize("argv", [["count", "--p", "3", "--k", "2"], ["trace-sweep", "--max", "10"],
                                  ["verify-l3"], ["report"]],
                         ids=["count", "trace-sweep", "verify-l3", "report"])
def test_counter_failure_is_a_failing_check(monkeypatch, tmp_path, capsys, argv):
    # a counter that fails its own self-check fails every check a count
    # feeds, with the error as its actual value: exit 1 with the JSON
    # written, not a traceback; every other check reads as it does without
    # the fault (purity, which needs the counting-route factor, is inconclusive)
    def checks(name):
        out = tmp_path / name
        code = run(argv + ["--json", str(out)])
        return code, {c["name"]: (c["status"], c["expected"], c["actual"])
                      for c in json.loads(out.read_text())["checks"]}

    code, clean = checks("clean.json")
    assert code == 0
    monkeypatch.setattr(cachemod, "count_klein", _failing_counter)
    code, broken = checks("broken.json")
    assert code == 1
    assert list(broken) == list(clean)
    fed = [name for name in broken
           if name.startswith(("count-", "trace-p")) or name == "l3-counting-route"]
    assert fed
    for name, (status, expected, actual) in broken.items():
        if name in fed:
            assert status == "fail" and actual.startswith("ArithmeticError: affine count")
        elif name == "l3-purity":
            assert (status, actual) == ("inconclusive", "no counting-route factor")
        else:
            assert (status, expected, actual) == clean[name]


def test_config_error_exit_code(tmp_path, capsys):
    # unwritable table path surfaces as configuration error
    assert run(["hecke-table", "--max", "10", "--out",
                str(tmp_path / "nodir" / "h.csv")]) == 2


@pytest.mark.parametrize("argv", [["trace-sweep"], ["report"], ["hecke-table", "--out", "h.csv"]],
                         ids=["trace-sweep", "report", "hecke-table"])
def test_empty_sweep_is_a_usage_error(monkeypatch, tmp_path, capsys, argv):
    # a --max below 2 leaves no prime to check: exit 2 before any work,
    # with no report, cache or table written
    import kleinzeta.cli as climod

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(climod.hecke, "primes_up_to", no_work)
    monkeypatch.chdir(tmp_path)
    extra = [] if argv[0] == "hecke-table" else ["--cache", "c.jsonl"]
    assert run(argv + ["--max", "1", "--json", "r.json"] + extra) == 2
    assert "--max" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["trace-sweep", "report", "hecke-table"])
def test_sweep_past_the_field_limit_is_a_usage_error(monkeypatch, tmp_path, capsys, command):
    # 1048583 is the first prime past LOG_TABLE_MAX_Q = 2^20, whose field
    # build_field refuses: a sweep that reaches it is refused before any
    # count or sieve, exit 2 with no report, cache or table written; one
    # bound lower the sweep starts as before
    import kleinzeta.cli as climod

    assert LOG_TABLE_MAX_Q == 1 << 20
    monkeypatch.chdir(tmp_path)
    output = ["--out", "t.csv"] if command == "hecke-table" else ["--cache", "c.jsonl"]
    argv = [command, "--json", "r.json"] + output + ["--max"]
    t0 = time.perf_counter()
    assert run(argv + ["1048583"]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "reaches the prime 1048583" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

    class SweepStarted(Exception):
        pass

    def started(max_p):
        raise SweepStarted(max_p)

    monkeypatch.setattr(climod.hecke, "primes_up_to", started)
    with pytest.raises(SweepStarted, match="1048582"):
        run(argv + ["1048582"])


def test_failing_check_exit_code(monkeypatch, tmp_path, capsys):
    import kleinzeta.cli as climod
    monkeypatch.setattr(climod.hecke, "predicted_count", lambda p, k: -1)
    assert run(["count", "--p", "3", "--k", "1", "--cache", str(tmp_path / "c.jsonl")]) == 1
    assert "fail" in capsys.readouterr().out


@pytest.mark.parametrize("argv, fed", [
    (["count", "--p", "3", "--k", "2"], "count-p3-k2"),
    (["trace-sweep", "--max", "10"], "trace-p"),
    (["report", "--max", "10"], "trace-p"),
], ids=["count", "trace-sweep", "report"])
def test_failing_prediction_is_a_failing_check(monkeypatch, tmp_path, argv, fed):
    # the prediction runs inside the check it feeds: one that raises
    # ArithmeticError fails that check with the error as its actual value,
    # exit 1 with the JSON written, not a traceback; every other check reads
    # as it does without the fault
    import kleinzeta.cli as climod

    def checks(name):
        out = tmp_path / name
        code = run(argv + ["--json", str(out)])
        return code, {c["name"]: (c["status"], c["expected"], c["actual"])
                      for c in json.loads(out.read_text())["checks"]}

    def no_prediction(p, k):
        raise ArithmeticError("no prediction")

    code, clean = checks("clean.json")
    assert code == 0
    monkeypatch.setattr(climod.hecke, "predicted_count", no_prediction)
    code, broken = checks("broken.json")
    assert code == 1
    assert list(broken) == list(clean)
    assert any(name.startswith(fed) for name in broken)
    for name, (status, expected, actual) in broken.items():
        if name.startswith(fed):
            assert (status, actual) == ("fail", "ArithmeticError: no prediction")
        else:
            assert (status, expected, actual) == clean[name]


@pytest.mark.parametrize("ty", ["I", "IV"])
def test_theta_support_negative_box_is_a_usage_error(monkeypatch, tmp_path, capsys, ty):
    # a negative radius scans no combination, which must not refute the
    # paper: exit 2 before any scan, with no report written
    import kleinzeta.cli as climod
    monkeypatch.setattr(climod.thetasupp, "scan_type",
                        lambda *a: pytest.fail("scan started"))
    monkeypatch.chdir(tmp_path)
    assert run(["theta-support", "--box", "-1", "--type", ty, "--json", "t.json"]) == 2
    assert "scan box bounds must be >= 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_theta_support_box_widens_the_x_window(tmp_path):
    # --box 5 scans the rows |v(x)| <= 5: family (-5, -5, 0) of type I has
    # row -5 in its support, which the default window of 4 would drop
    out = tmp_path / "t.json"
    assert run(["theta-support", "--box", "5", "--type", "I", "--json", str(out)]) == 0
    cert = json.loads(out.read_text())["certificates"]["I"]
    assert cert["box"] == {"radius": 5, "x_val_range": 5, "x_res_exponent": 3}
    [family] = [c for c in cert["nonempty_support"] if (c["m"], c["n"], c["r"]) == (-5, -5, 0)]
    assert family["in_support"]["by_val"]["-5"] > 0


def test_theta_support_past_p_31_certifies(tmp_path):
    # the row sets take memory independent of p: p = 37 scans at the
    # default box and certifies
    out = tmp_path / "t.json"
    assert run(["theta-support", "--p", "37", "--type", "IV", "--json", str(out)]) == 0
    assert json.loads(out.read_text())["certificates"]["IV"]["status"] == "certified"


def test_theta_scan_with_a_surviving_marked_row_fails_its_check(monkeypatch, tmp_path):
    # a row the valuations leave to the units must not reach a certificate:
    # with every entry rule marking all of its rows, the type I scan raises
    # ArithmeticError and its check fails (exit 1, JSON written)
    from kleinzeta import thetasupp

    entry_rule = thetasupp._entry_rule

    def undecided(*args):
        zero, bits, _ = entry_rule(*args)
        return zero, bits, bits

    monkeypatch.setattr(thetasupp, "_entry_rule", undecided)
    out = tmp_path / "t.json"
    assert run(["theta-support", "--p", "3", "--type", "I", "--json", str(out)]) == 1
    payload = json.loads(out.read_text())
    check = next(c for c in payload["checks"] if c["name"] == "theta-type-I-p3")
    assert check["status"] == "fail"
    assert check["actual"].startswith("ArithmeticError: ") and "undecided" in check["actual"]
    assert payload["certificates"] == {"I": None}


@pytest.mark.parametrize("command", ["theta-support", "report"])
def test_swapped_projectors_fail_the_archimedean_check(monkeypatch, tmp_path, command):
    # P+ and P- trade phases: the archimedean check fails (exit 1, JSON
    # written) and every other check reads as it does unpatched
    from kleinzeta import thetasupp

    def checks(code):
        out = tmp_path / "r.json"
        assert run([command, "--json", str(out)]) == code
        return {c["name"]: (c["status"], c["expected"], c["actual"])
                for c in json.loads(out.read_text())["checks"]}

    name = "theta-archimedean-equivariance"
    before = checks(0)
    plus, minus = thetasupp._projectors()
    monkeypatch.setattr(thetasupp, "_projectors", lambda: (minus, plus))
    after = checks(1)
    assert before[name] == ("pass", "no residual at either rotation generator (exact)", "[]")
    assert after.pop(name)[0] == "fail"
    del before[name]
    assert after == before


@pytest.mark.parametrize("argv, patch, check", [
    (["hecke-table", "--out", "h.csv"], ("hecke", "ap_f", lambda p: 100), "hecke-table"),
    (["count", "--p", "3"], ("cachemod", "count_klein",
                             lambda p, k: CountRecord(p, k, 10 ** 12, "jacobi-weil")),
     "count-p3-k1"),
], ids=["hecke-table", "count"])
def test_broken_record_bound_fails_its_check(monkeypatch, tmp_path, argv, patch, check):
    # a Hecke row past the Hasse bound, or a count past #P^4(F_q), is a
    # failed computation: the check fails (exit 1) and the JSON is written
    import kleinzeta.cli as climod

    module, name, fake = patch
    monkeypatch.setattr(getattr(climod, module), name, fake)
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--json", "r.json"]) == 1
    checks = json.loads(Path("r.json").read_text())["checks"]
    assert [(c["name"], c["status"]) for c in checks] == [(check, "fail")]
    assert checks[0]["actual"].startswith("ArithmeticError: ")


def _readme_commands():
    """The argv of each `kleinzeta` line of the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```")[1]
    return [line.split("#", 1)[0].split()[1:] for line in block.splitlines()
            if line.startswith("kleinzeta ")]


def test_readme_command_examples_parse():
    # a flag removed from the parser must not linger in the docs
    commands = _readme_commands()
    assert len(commands) == 7
    for argv in commands:
        parse_args(argv)


README_CONFIGS = [
    {"command": "count", "p": 3, "k": 4, "cache": None, "json": None},
    {"command": "verify-l3", "cache": None, "json": None},
    {"command": "trace-sweep", "max": 100, "cache": None, "json": None},
    {"command": "hecke-table", "max": 200, "out": "hecke.csv", "json": None},
    {"command": "cohomology", "json": "coh.json"},
    {"command": "theta-support", "p": 11, "box": 4, "type": "all", "json": "theta.json"},
    {"command": "report", "max": 100, "cache": None, "json": "report.json"},
]


@pytest.mark.parametrize("config", README_CONFIGS, ids=[c["command"] for c in README_CONFIGS])
def test_readme_command_config_blocks(monkeypatch, config):
    # the report's config block of each README command: the command and
    # every flag of it, given or at its default
    argv = {argv[0]: argv for argv in _readme_commands()}[config["command"]]

    class Built(Exception):
        pass

    def built(tool, version, config):
        raise Built(config)

    monkeypatch.setattr(cli, "VerificationReport", built)
    with pytest.raises(Built) as exc:
        main(argv)
    assert exc.value.args[0] == config
