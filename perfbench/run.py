"""Benchmark of the mwq command line: one workload, one seed, one run.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 25

Run from the root of a checkout.  The generator (sympy only) makes the op
list of the workload from the seed.  A fresh process imports mwq from the
checkout's `src`, builds the table, makes one warm-up call, and then runs the
ops through `mwq.cli.main(... --format records)` in a closed loop: one client,
the next op when the previous one returns, whole passes over the op list for
`--seconds`.  Set-up is timed in several fresh processes and reported as the
median.  Every answer is checked by `oracle.py`, outside the measured
process.  The last line of output is one JSON object: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from worker import REF_NOMINAL_S  # noqa: E402

SETUP_SAMPLES = 5  # fresh processes timed for setup_s, the measured one included
OP_LIMIT_S = 30.0  # an op running longer is interrupted and counted as failed
RUN_LIMIT_S = 160.0  # set-up samples and ops end by then; ops not started are failed

# Layers whose summed self time is a per-layer metric.
LAYER_SELF = ("poly", "surface", "quartic", "lattice", "report", "parsing", "replay")


def _spawn(job: dict, deadline: float) -> tuple[float, list[dict]]:
    """Run the worker on `job`; returns (seconds from spawn to ready, the
    JSON lines it printed)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-I", str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
    )
    bufs = {proc.stdout.fileno(): bytearray(), proc.stderr.fileno(): bytearray()}
    ready_at = None
    try:
        proc.stdin.write(json.dumps(job).encode())
        proc.stdin.close()
        with selectors.DefaultSelector() as sel:
            for f in (proc.stdout, proc.stderr):
                sel.register(f.fileno(), selectors.EVENT_READ)
            open_fds = len(bufs)
            while open_fds:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("the measured process ran past the run limit")
                for key, _ in sel.select(timeout=left):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        sel.unregister(key.fd)
                        open_fds -= 1
                        continue
                    bufs[key.fd] += chunk
                    if ready_at is None and key.fd == proc.stdout.fileno() and b"\n" in bufs[key.fd]:
                        ready_at = time.perf_counter()
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    err = bufs[proc.stderr.fileno()].decode(errors="replace")
    if proc.returncode != 0 or ready_at is None:
        raise RuntimeError(f"worker exited with {proc.returncode}: {err.strip()[-2000:]}")
    lines = [json.loads(line) for line in bufs[proc.stdout.fileno()].decode().splitlines()]
    return ready_at - start, lines


def _job(workload: str, ops: list[dict], seconds: float, trace: bool, probe: bool,
         deadline: float, spans: str = "") -> dict:
    """The worker's job; it starts no op later than OP_LIMIT_S before `deadline`."""
    from workloads import WARMUP

    return {
        "root": str(ROOT), "warmup": WARMUP[workload], "seconds": seconds, "trace": trace,
        "probe": probe, "op_limit_s": OP_LIMIT_S, "spans_path": spans,
        "hard_s": deadline - time.monotonic() - OP_LIMIT_S - 2,
        "ops": [{"id": op["id"], "argv": op["argv"]} for op in ops],
    }


def _tail(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least 10 samples beyond it, if any at or above p50."""
    n = len(samples)
    k = n - 10  # 1-based rank of the sample with ten beyond it
    if k < (n + 1) // 2:
        return None
    return 100.0 * k / n, sorted(samples)[k - 1]


def _check_ops(ops: list[dict], lines: list[dict]) -> tuple[int, int, list[str]]:
    import oracle

    by_id = {op["id"]: op for op in ops}
    attempted, failures = 0, []
    for line in lines:
        if "id" not in line:
            continue
        attempted += 1
        reason = oracle.check(by_id[line["id"]], line)
        if reason is not None:
            failures.append(f"op {line['id']} pass {line['pass']} ({line['phase']}): {reason}")
    return attempted, len(failures), failures


def _label(op: dict) -> str:
    if "lattice" in op:
        return f"{op['lattice']} {op['norm']} {op['kind']}"
    return op.get("image") or op.get("which") or op["kind"]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _setup(ready_s: float, lines: list[dict]) -> tuple[float, float]:
    """(normalized, raw) set-up time of one worker: spawn to ready, less the
    reference sampling done meanwhile, scaled to the reference's nominal speed."""
    ref = next(line for line in lines if "setup_ref_s" in line)
    raw = ready_s - ref["setup_busy_s"]
    return raw * REF_NOMINAL_S / ref["setup_ref_s"], raw


def end_to_end(workload: str, ops: list[dict], seconds: float, seed: int) -> tuple[dict, int, int, list[str], list[str]]:
    deadline = time.monotonic() + RUN_LIMIT_S
    setups = [_setup(*_spawn(_job(workload, ops, seconds, False, True, deadline), deadline))
              for _ in range(SETUP_SAMPLES - 1)]
    ready, lines = _spawn(_job(workload, ops, seconds, False, False, deadline), deadline)
    setups.append(_setup(ready, lines))
    summary = lines[-1]
    op_lines = [line for line in lines if "id" in line and line["status"] == "ok"]
    attempted, failed, failures = _check_ops(ops, lines)
    op_s = [line["norm_s"] for line in op_lines]
    passes = summary["timed_passes_s"]
    metrics = {
        "setup_s": _metric(statistics.median(norm for norm, _ in setups), "s"),
        "wall_s": _metric(statistics.median(passes), "s"),
        "op_p50_s": _metric(statistics.median(op_s) if op_s else 0.0, "s"),
        "peak_rss_mb": _metric(summary["peak_rss_mb"], "MB"),
    }
    raw_ops = [line["s"] for line in op_lines]
    notes = [
        f"setup samples (normalized/raw s): {', '.join(f'{n:.4f}/{r:.4f}' for n, r in setups)}",
        f"passes: {len(passes)} over {len(ops)} ops each; ops attempted {attempted}, failed {failed}",
        f"raw seconds: wall {statistics.median(summary['timed_passes_raw_s']):.4f}, "
        f"op p50 {statistics.median(raw_ops) if raw_ops else 0.0:.4f}; median speed "
        f"{REF_NOMINAL_S / statistics.median(line['ref_s'] for line in op_lines) if op_lines else 0.0:.3f} "
        "of nominal",
    ]
    tail = _tail(op_s)
    if tail is None:
        notes.append(f"op_tail_s: not reported, {len(op_s)} ops are too few for a percentile with 10 beyond it")
    else:
        notes.append(f"op_tail_s: p{tail[0]:.1f} = {tail[1]:.6f} s over {len(op_s)} ops, 10 beyond it")
    return metrics, attempted, failed, failures, notes


def _layer_metrics(summary: dict) -> dict:
    setup, end = summary["setup_trace"], summary["end_trace"]
    n_pass = len(summary["traced_passes_s"])

    def per_run(field: int, name: str) -> float:
        """Set-up plus one traced pass; field 0 is calls, 1 self seconds."""
        s = setup["functions"].get(name, [0, 0.0])[field]
        e = end["functions"].get(name, [0, 0.0])[field]
        return s + (e - s) / n_pass

    def counter(key: str) -> float:
        s = setup["counters"].get(key, 0)
        return s + (end["counters"].get(key, 0) - s) / n_pass

    def layer_self(layer: str) -> float:
        return sum(per_run(1, name) for name in end["functions"] if name.split(".")[0] == layer)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    calls = lambda name: per_run(0, name)  # noqa: E731
    self_s = lambda name: per_run(1, name)  # noqa: E731
    c, s, r = "count", "s", "ratio"
    m = {
        "poly.rational_roots.calls": (calls("poly.rational_roots"), c),
        "poly.rational_roots.self_s": (self_s("poly.rational_roots"), s),
        "poly.rational_roots.in_bits": (counter("poly.rational_roots.in_bits"), "bit"),
        "poly.irreducible_factors.self_s": (self_s("poly.irreducible_factors"), s),
        "poly.squarefree_decompose.self_s": (self_s("poly.squarefree_decompose"), s),
        "poly.poly_gcd.calls": (calls("poly.poly_gcd"), c),
        "surface.height_context.calls": (calls("surface.height_context"), c),
        "surface.height_context.per_quartic": (
            ratio(calls("surface.height_context"), calls("quartic.PreparedQuartic")), "calls/quartic"),
        "surface.kodaira_type_at.calls": (calls("surface.kodaira_type_at"), c),
        "quartic.even_tangency.per_conic": (
            ratio(calls("quartic.even_tangency"), calls("quartic.Conic")), "calls/conic"),
        "quartic.singular_configuration.calls": (calls("quartic.singular_configuration"), c),
        "quartic.qr_symbol.calls": (calls("quartic.qr_symbol"), c),
        "quartic.lift_conic.calls": (calls("quartic.lift_conic"), c),
        "surface.halve.calls": (calls("surface.halve"), c),
        "surface.halve.self_s": (self_s("surface.halve"), s),
        "surface.two_torsion_free.self_s": (self_s("surface.two_torsion_free"), s),
        "surface.height_pairing.self_s": (self_s("surface.height_pairing"), s),
        "lattice.enumerate_up_to.vectors": (counter("lattice.enumerate_up_to.vectors"), c),
        "lattice.enumerate_by_norm.vectors": (counter("lattice.enumerate_by_norm.vectors"), c),
        "lattice.enumerate.hit_ratio": (
            ratio(counter("lattice.enumerate_by_norm.vectors"), counter("lattice.enumerate.walked")), r),
        "lattice.enumerate_up_to.self_s": (self_s("lattice.enumerate_up_to"), s),
        "lattice.find_sublattice_embedding.self_s": (self_s("lattice.find_sublattice_embedding"), s),
        "mwtable.builtin_table.self_s": (self_s("mwtable.builtin_table"), s),
        "lattice.solve_integer.calls": (calls("lattice.solve_integer"), c),
        "lattice.solve_integer.hit_ratio": (
            ratio(counter("lattice.solve_integer.hits"), calls("lattice.solve_integer")), r),
        "mwtable.verify_table.self_s": (self_s("mwtable.verify_table"), s),
        "cli.main.self_s": (self_s("cli.main"), s),
        "trace.overhead": (ratio(statistics.median(summary["traced_passes_s"]),
                                 statistics.median(summary["timed_passes_s"])), r),
    }
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (layer_self(layer), s)
    return {name: _metric(float(v), unit) for name, (v, unit) in sorted(m.items())}


def per_layer(workload: str, ops: list[dict], seconds: float, seed: int) -> tuple[dict, int, int, list[str], list[str]]:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{workload}-{seed}.tsv"
    deadline = time.monotonic() + RUN_LIMIT_S
    _, lines = _spawn(_job(workload, ops, seconds, True, False, deadline, str(spans)), deadline)
    summary = lines[-1]
    attempted, failed, failures = _check_ops(ops, lines)
    notes = [f"spans: {summary['spans']} written to {spans.relative_to(ROOT)}",
             f"passes: {len(summary['timed_passes_s'])} untraced, {len(summary['traced_passes_s'])} traced"]
    by_id = {op["id"]: op for op in ops}
    key = ("surface.height_context", "quartic.singular_configuration", "quartic.qr_symbol",
           "quartic.even_tangency", "surface.halve", "poly.rational_roots", "lattice.enumerate_by_norm")
    for line in lines:
        if line.get("phase") == "traced" and line["pass"] == 0:
            counts = " ".join(f"{k.split('.')[1]}={line['calls'].get(k, 0)}" for k in key)
            notes.append(f"calls in op {line['id']} [{by_id[line['id']]['argv'][0]} {_label(by_id[line['id']])}]: {counts}")
    return _layer_metrics(summary), attempted, failed, failures, notes


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from workloads import make_ops

    ops = make_ops(workload, seed)
    measure = per_layer if trace else end_to_end
    metrics, attempted, failed, failures, notes = measure(workload, ops, seconds, seed)
    bits = [op["bits"] for op in ops]
    notes.append(f"input bit height: median {statistics.median(bits)}, max {max(bits)}, "
                 f"share over 32 bits {sum(b > 32 for b in bits) / len(bits):.2f}, over {len(ops)} ops")
    for line in [f"# {workload} seed={seed} trace={int(trace)}"] + notes + failures[:20]:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "mwq" / "__init__.py").is_file():
        print(f"no mwq sources under {ROOT / 'src'}: run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    results = {w: run_one(w, args.seed, args.seconds, bool(args.trace))
               for w in (WORKLOADS if args.all else [args.workload])}
    print(json.dumps(results[args.workload] if args.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
