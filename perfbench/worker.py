"""The measured process: set up mwq, then run one workload's ops in a closed loop.

It reads a job (JSON) from stdin, sets up (imports mwq from the checkout's
`src`, builds the built-in table, runs one warm-up call) and prints `ready`.
A probe job stops there.  Otherwise it runs the op list pass after pass,
printing one JSON line per op with its time and output, and ends with one
summary line.  Ops call `mwq.cli.main` in this process, one at a time; an op
that runs past the per-op limit is interrupted and reported as a timeout.

The machine the benchmark runs on is shared, and its speed drifts by tens of
percent over seconds.  A `Speedometer` therefore times a fixed reference
computation before each op and every 50 ms of CPU time during it; each op's
time is also reported scaled to the nominal speed of that reference
(`norm_s = s * REF_NOMINAL_S / trimmed mean reference time`).  The sampler's own
time is taken out of the op's time.

With tracing, set-up is traced, then a phase of untraced passes is timed, then
the tracer is installed again for a phase of traced passes; the spans are
written to the job's `spans_path` at the end.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from fractions import Fraction

# Time of `reference()` on an unloaded core of the machine the benchmark was
# defined on; normalized times are seconds at that speed.
REF_NOMINAL_S = 0.00107
SAMPLE_EVERY_S = 0.05
PROBES_PER_OP = 5

_REF_A = [Fraction(3 * i + 1, 7 + i) for i in range(7)]
_REF_B = [Fraction(5 - 2 * i, 3 + 2 * i) for i in range(7)]


def reference() -> None:
    """A fixed computation in the program's style: Fraction products and the
    building and sorting of small integer tuples."""
    acc = [Fraction(0)] * 13
    for i, a in enumerate(_REF_A):
        for j, b in enumerate(_REF_B):
            acc[i + j] += a * b
    sorted(tuple((k * 7919 + m) % 13 - 6 for m in range(8)) for k in range(400))


def trimmed_mean(samples: list[float]) -> float:
    """Mean without the highest and lowest tenth.  The op's time integrates
    the machine's speed over the op, so a mean tracks it better than a median."""
    ordered = sorted(samples)
    cut = len(ordered) // 10
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Speedometer:
    """Times `reference()` on demand and on SIGPROF, every SAMPLE_EVERY_S of CPU time."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0  # seconds spent in reference runs
        self._running = False
        signal.signal(signal.SIGPROF, lambda signum, frame: self.measure())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def measure(self) -> None:
        if self._running:
            return
        self._running = True
        try:
            start = time.perf_counter()
            reference()
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.busy += elapsed
        finally:
            self._running = False

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)


class OpTimeout(BaseException):
    """Raised by the per-op alarm; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(argv: list[str], limit_s: float) -> dict:
    import mwq.cli

    out, err = io.StringIO(), io.StringIO()
    rc, status = None, "ok"
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = mwq.cli.main(argv + ["--format", "records"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        status = "timeout"
    except SystemExit as exc:
        status, rc = "exit", exc.code
    except Exception:
        status = "exception"
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    return {"s": elapsed, "status": status, "rc": rc, "out": out.getvalue(), "err": err.getvalue()}


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")
    sys.stdout.flush()


class Runner:
    def __init__(self, job: dict, speed: Speedometer, hard_end: float):
        self.job = job
        self.speed = speed
        self.hard_end = hard_end  # no op starts after this perf_counter() time

    def timed_op(self, argv: list[str]) -> dict:
        speed = self.speed
        mark = len(speed.samples)
        for _ in range(PROBES_PER_OP):
            speed.measure()
        busy = speed.busy
        result = run_op(argv, self.job["op_limit_s"])
        result["s"] -= speed.busy - busy
        result["ref_s"] = trimmed_mean(speed.samples[mark:])
        result["norm_s"] = result["s"] * REF_NOMINAL_S / result["ref_s"]
        return result

    def run_phase(self, phase: str, budget_s: float, tracer=None) -> tuple[list[float], list[float]]:
        """Whole passes while the next one is expected to fit in the budget
        (at least one).  Returns the normalized and the raw time of each pass,
        summed over its ops.  With a tracer, each op line also carries the
        calls it made per function."""
        ops = self.job["ops"]
        norm: list[float] = []
        raw: list[float] = []
        phase_start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            norm.append(0.0)
            raw.append(0.0)
            for op in ops:
                if time.perf_counter() > self.hard_end:
                    emit({"id": op["id"], "pass": len(raw) - 1, "phase": phase, "s": 0.0,
                          "status": "skipped", "rc": None, "out": "", "err": "run time limit"})
                    continue
                if tracer is not None:
                    tracer.op = op["id"]
                    before = list(tracer.calls)
                result = self.timed_op(op["argv"])
                norm[-1] += result["norm_s"]
                raw[-1] += result["s"]
                record = {"id": op["id"], "pass": len(raw) - 1, "phase": phase, **result}
                if tracer is not None:
                    record["calls"] = {name: after - was for name, after, was
                                       in zip(tracer.names, tracer.calls, before) if after != was}
                emit(record)
            spent = time.perf_counter() - phase_start
            pass_s = time.perf_counter() - pass_start
            if time.perf_counter() > self.hard_end or spent + pass_s > budget_s:
                return norm, raw


def main() -> int:
    started = time.perf_counter()
    job = json.load(sys.stdin)
    speed = Speedometer()
    root = job["root"]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    signal.signal(signal.SIGALRM, _on_alarm)

    import mwq

    if not os.path.abspath(mwq.__file__).startswith(src + os.sep):
        print(f"mwq imported from {mwq.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    import mwq.mwtable

    mwq.mwtable.builtin_table()
    warm = run_op(job["warmup"], job["op_limit_s"])
    emit({"ready": True, "warmup_status": warm["status"], "warmup_rc": warm["rc"]})
    setup_busy = speed.busy
    for _ in range(PROBES_PER_OP):
        speed.measure()
    emit({"setup_busy_s": setup_busy, "setup_ref_s": trimmed_mean(speed.samples)})
    if job["probe"]:
        speed.stop()
        return 0

    summary: dict = {"summary": True}
    runner = Runner(job, speed, started + job["hard_s"])
    if tracer is None:
        summary["timed_passes_s"], summary["timed_passes_raw_s"] = runner.run_phase("timed", job["seconds"])
    else:
        summary["setup_trace"] = tracer.snapshot()
        tracer.uninstall()
        summary["timed_passes_s"], summary["timed_passes_raw_s"] = runner.run_phase(
            "timed", job["seconds"] / 2)
        tracer.install()
        summary["traced_passes_s"], summary["traced_passes_raw_s"] = runner.run_phase(
            "traced", job["seconds"] / 2, tracer)
        tracer.uninstall()
        summary["end_trace"] = tracer.snapshot()
        summary["spans"] = tracer.write_spans(job["spans_path"])
    speed.stop()
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    emit(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
