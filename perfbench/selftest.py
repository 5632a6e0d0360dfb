"""Self-tests of the benchmark: the oracle must fail wrong answers, and the
generator must be deterministic.

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

Each check runs one cheap real op, confirms the oracle passes it, then breaks
the answer the way a regression would and confirms the op is counted failed.
"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from workloads import BASES, WORKLOADS, conic_image, make_ops, poly_text, T  # noqa: E402

signal.signal(signal.SIGALRM, worker._on_alarm)  # the per-op limit, as in the worker


def _failed(op: dict, result: dict) -> int:
    line = {"id": op["id"], "pass": 0, "phase": "timed", **result}
    return run._check_ops([op], [line])[1]


def _edit(result: dict, edit) -> dict:
    """A copy of `result` whose records stream went through `edit(records)`."""
    recs = [json.loads(line) for line in result["out"].splitlines()]
    edit(recs)
    return {**result, "out": "\n".join(json.dumps(r, sort_keys=True) for r in recs)}


def _result(recs: list[dict], name: str) -> dict:
    return next(r for r in recs if r.get("name") == name)


def _run(op: dict) -> dict:
    result = worker.run_op(op["argv"], run.OP_LIMIT_S)
    assert _failed(op, result) == 0, f"oracle rejects a correct answer: {result['err'] or result['out'][:300]}"
    return result


def _conic_op(expect: int, kind: str = "symbol") -> dict:
    f, q1, q2 = conic_image("5.2", 2, -1, 1 + T)
    ftext, c1, c2 = poly_text(f), "u = " + poly_text(q1), "u = " + poly_text(q2)
    argv = {"symbol": ["symbol", ftext, c1 if expect == 1 else c2],
            "zariski": ["zariski", ftext, c1, c2]}[kind]
    want = {"symbol": expect} if kind == "symbol" else {"verdict": "ZariskiPair"}
    return {"id": 0, "kind": kind, "argv": argv, "expect": want, "bits": 0}


def test_flipped_symbol_fails():
    for expect in (1, -1):
        op = _conic_op(expect)
        result = _run(op)

        def flip(recs):
            _result(recs, "symbol")["value"] = -expect

        assert _failed(op, _edit(result, flip)) == 1


def test_bad_certificate_fails():
    op = _conic_op(1)
    result = _run(op)

    def corrupt(recs):
        cert = _result(recs, "splitting_certificate")["value"]
        cert["a3"] = cert["a3"] + " + 1"

    assert _failed(op, _edit(result, corrupt)) == 1


def test_wrong_verdict_fails():
    op = _conic_op(1, "zariski")
    result = _run(op)

    def flip(recs):
        _result(recs, "verdict")["value"] = "Inconclusive"

    assert _failed(op, _edit(result, flip)) == 1


def test_wrong_row_count_fails():
    op = make_ops("table", 0)[0]
    result = _run(op)

    def miscount(recs):
        _result(recs, "row[50]")["value"]["etc"] += 1

    assert _failed(op, _edit(result, miscount)) == 1

    def drop_row(recs):
        recs.remove(_result(recs, "row[07]"))

    assert _failed(op, _edit(result, drop_row)) == 1


def test_wrong_vector_count_fails():
    ops = [op for op in make_ops("shortvec", 0) if op["lattice"] == "E6*"]
    assert {op["kind"] for op in ops} == {"standard", "skew"}
    for op in ops:
        result = _run(op)

        def drop_vector(recs):
            _result(recs, "count")["value"] -= 1
            _result(recs, "vectors")["value"].pop()

        assert _failed(op, _edit(result, drop_vector)) == 1

        def wrong_vector(recs):
            vecs = _result(recs, "vectors")["value"]
            vecs[0] = [2 * x for x in vecs[0]]

        assert _failed(op, _edit(result, wrong_vector)) == (1 if op["kind"] == "skew" else 0)


def test_failed_identity_fails():
    op = {"id": 0, "kind": "example", "which": "5.2", "argv": ["example", "5.2"], "bits": 0}
    result = _run(op)

    def mismatch(recs):
        _result(recs, "height[s_o,s_o]")["ok"] = False

    assert _failed(op, _edit(result, mismatch)) == 1

    def drop(recs):
        recs.remove(_result(recs, "zariski_verdict"))

    assert _failed(op, _edit(result, drop)) == 1


def test_timeout_and_errors_fail():
    op = make_ops("shortvec", 0)[4]  # E8 at norm 6, seconds of work
    assert (op["lattice"], op["norm"]) == ("E8", "6")
    result = worker.run_op(op["argv"], 0.05)
    assert result["status"] == "timeout"
    assert _failed(op, result) == 1
    bad_input = {**_conic_op(1), "argv": ["symbol", BASES["5.2"][0], "u = t"]}
    result = worker.run_op(bad_input["argv"], run.OP_LIMIT_S)
    assert result["rc"] == 2 and _failed(bad_input, result) == 1


def test_tracer_counts_and_restores():
    import mwq.surface
    from tracer import Tracer

    original = mwq.surface.height_context
    tracer = Tracer()
    for _ in range(2):  # counts survive a reinstall
        tracer.install()
        assert mwq.surface.height_context is not original
        assert worker.run_op(["example", "5.2"], run.OP_LIMIT_S)["rc"] == 0
        tracer.uninstall()
    assert mwq.surface.height_context is original
    calls = dict(zip(tracer.names, tracer.calls))
    assert calls["surface.height_context"] == 14 and calls["quartic.PreparedQuartic"] == 2
    assert all(t > -1e-9 for t in tracer.self_time)
    assert len(tracer.span_fid) == len(tracer.span_end) == sum(tracer.calls)


def test_generator_is_deterministic():
    for workload in WORKLOADS:
        first = json.dumps(make_ops(workload, 7), sort_keys=True)
        assert first == json.dumps(make_ops(workload, 7), sort_keys=True), workload
    for workload in ("conics", "shortvec"):
        assert make_ops(workload, 7) != make_ops(workload, 8), workload


def test_tail_percentile():
    assert run._tail([1.0] * 19) is None
    assert run._tail([float(i) for i in range(1, 21)]) == (50.0, 10.0)
    assert run._tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
