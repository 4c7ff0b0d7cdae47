#!/usr/bin/env python3
"""Self-test of the benchmark's output gate.

    python3 perfbench/selftest.py

Feeds the gate two poisoned caches and requires a nonzero failed_frac for
each, so a wrong count can never pass as a timing:

  * report-warm on the prefilled cache with the (3, 5) count off by one;
  * verify-l3 on a cache that holds 99999999999 at (3, 1).

Both make the CLI exit 2 today, because it classes the error a bad count
raises as a usage error.  A call that does not exit 0 fails all its checks.

It then feeds the gate fabricated reports that exit 0 with every check
passing, each with one defect only the gate can see: a wrong
l3-counting-route coefficient, a cold cache record off by one, and a theta
certificate that is not certified.

Exits 0 when the gate caught every case, else 1.
"""

import json
import sys

from run import WORKLOADS, Run


def poison(lines, p, k, count):
    out = []
    for line in lines:
        rec = json.loads(line)
        if (rec["p"], rec["k"]) == (p, k):
            rec["count"] = count(rec["count"])
        out.append(json.dumps(rec))
    return out


def fabricated(oracle):
    """(workload, check the gate must fail, report, cache records) cases."""
    def records(pairs, bad=None):
        return [{"p": p, "k": k, "count": oracle["predicted"][f"{p},{k}"] + ((p, k) == bad)}
                for p, k in pairs]

    def report(names, **extra):
        return {"checks": [{"name": n, "status": "pass", "actual": "True"} for n in names],
                **extra}

    l3 = WORKLOADS["l3-tower"]
    wrong = list(oracle["reference_l3"])
    wrong[5] += 1
    l3_report = report(["l3-product-route", "l3-purity"])
    l3_report["checks"].append({"name": "l3-counting-route", "status": "pass",
                                "actual": json.dumps(wrong)})
    sweep = WORKLOADS["trace-sweep"]
    certs = {ty: {"status": "certified"} for ty in ("I", "II", "III")}
    certs["IV"] = {"status": "inconclusive"}
    return (
        ("l3-tower", "l3-counting-route", l3_report, records(l3.cold_pairs)),
        ("trace-sweep", "trace-p5",
         report([f"trace-p{p}" for p, _ in sweep.cold_pairs]),
         records(sweep.cold_pairs, bad=(5, 1))),
        ("report-warm", "theta-type-IV-p11",
         report([f"check-{i}" for i in range(42)], certificates=certs), []),
    )


def main() -> int:
    run = Run("selftest", limit_s=600.0)
    run.probe()
    prefilled = run.prefill(seed=0).read_text().splitlines()
    if run.failed:
        print(f"the unpoisoned cold calls failed: {run.failures}")
        return 1
    cases = (
        ("report-warm", "(3, 5) off by one", poison(prefilled, 3, 5, lambda n: n + 1)),
        ("l3-tower", "99999999999 at (3, 1)", poison(
            [line for line in prefilled if json.loads(line)["p"] == 3],
            3, 1, lambda n: 99999999999)),
    )
    caught = True
    for name, label, lines in cases:
        path = run.dir / f"poisoned-{name}.jsonl"
        path.write_text("".join(line + "\n" for line in lines))
        before_failed, before_attempted = run.failed, run.attempted
        run.call(WORKLOADS[name], path)
        failed, attempted = run.failed - before_failed, run.attempted - before_attempted
        print(f"{name} with {label}: failed_frac = {failed / attempted:.4f} "
              f"({failed} of {attempted} checks)")
        caught = caught and failed > 0
    for failure in run.failures:
        print(f"  {failure}")
    for name, check, report, records in fabricated(run.oracle):
        wl = WORKLOADS[name]
        report_path, cache_path = run.dir / f"fake-{name}.json", run.dir / f"fake-{name}.jsonl"
        report_path.write_text(json.dumps(report))
        cache_path.write_text("".join(json.dumps(r) + "\n" for r in records))
        failed = run.gate(wl, {"rc": 0, "error": None}, report_path,
                          cache_path if wl.cold_pairs else None)
        print(f"fabricated {name} report: gate fails {failed}")
        caught = caught and check in failed
    print("gate self-test:", "pass" if caught else "FAIL")
    return 0 if caught else 1


if __name__ == "__main__":
    sys.exit(main())
