"""Run one `kleinzeta.cli.main(argv)` call in this fresh interpreter.

Usage: child.py OUT [--spans FILE] [--oracle PAIRS_JSON] [--speed-samples setup|call]
                -- ARGV...

Writes a JSON object to OUT: the monotonic time at which `kleinzeta.cli`
finished importing (the parent subtracts its spawn time to get set-up time),
the wall and cpu time spent inside `main`, peak RSS of this process and of
its largest reaped child, and the exit code.  With --oracle it adds what the
output gate compares against (the reference factor at p = 3 and the
predicted count of each (p, k) in PAIRS_JSON, a JSON list of pairs) and the
versions for the provenance.  With --spans the call runs under the tracer
and the spans are written to FILE after `main` returns.  With --speed-samples
a SpeedSampler runs from the first line until `main` starts (setup) or until
it returns (call), and OUT gets its sample times and how many of them fell
before `main` started.
"""

import json
import os
import platform
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

FIRST_SAMPLE_S = 0.02   # so that a set-up of about 0.25 s gets three samples
SAMPLE_EVERY_S = 0.1


def speed_probe() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work.

    Fractions, tuples and dicts, like most of what kleinzeta runs outside
    numpy.  It does not touch kleinzeta, so no program change alters its work.
    """
    t0 = time.perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, 300):
        f = Fraction(i % 97 + 1, i % 89 + 2)
        acc = acc * f + f
        acc = Fraction(acc.numerator % 1009, acc.denominator % 1013 + 1)
        key = (i % 211, acc.numerator % 7)
        seen[key] = seen.get(key, 0) + acc.denominator % 5
    return time.perf_counter() - t0


class SpeedSampler:
    """Times speed_probe() every SAMPLE_EVERY_S of wall time, in the main thread.

    A SIGALRM handler runs the probe between two bytecodes of whatever the
    process is doing, so each sample measures the vCPU that runs the call at
    that moment.  The host changes that speed within a second, and a probe
    run before or after the call, or in another process, misses it.  The
    samples' own time is in the call's times; the parent takes it out.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame):
        self.samples.append(speed_probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, FIRST_SAMPLE_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def _oracle(pairs) -> dict:
    import numpy

    import kleinzeta
    from kleinzeta import hecke
    from kleinzeta.reference import reference_degree10_at_3
    return {
        "reference_l3": list(reference_degree10_at_3().coeffs),
        "predicted": {f"{p},{k}": hecke.predicted_count(p, k) for p, k in pairs},
        "kleinzeta_version": kleinzeta.__version__,
        "numpy_version": numpy.__version__,
        "python_version": platform.python_version(),
        "os_cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, argv = args[:split], args[split + 1:]
    sampling = opts[opts.index("--speed-samples") + 1] if "--speed-samples" in opts else None
    sampler = SpeedSampler() if sampling else None
    if sampler is not None:
        sampler.start()
    out_path = opts[0]
    spans_path = opts[opts.index("--spans") + 1] if "--spans" in opts else None
    src = Path(__file__).resolve().parent.parent / "src"

    import kleinzeta.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"kleinzeta imported from {cli.__file__}, not from {src}")
    tracer = None
    if spans_path:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    ready = time.monotonic()
    setup_samples = len(sampler.samples) if sampler is not None else 0
    if sampling == "setup":
        sampler.stop()

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    error = None
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv) if argv else 0
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the gate counts a raising run as failed
        rc, error = None, repr(exc)
        traceback.print_exc()
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if sampler is not None:
        sampler.stop()

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(spans_path)
    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "rss_kb": max(self1.ru_maxrss, kids1.ru_maxrss),
        "rc": rc,
        "error": error,
    }
    if sampler is not None:
        result["speed_samples"] = sampler.samples
        result["setup_samples"] = setup_samples
    if "--oracle" in opts:
        result["oracle"] = _oracle(json.loads(opts[opts.index("--oracle") + 1]))
    with open(out_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
