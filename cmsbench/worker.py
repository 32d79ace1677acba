"""Benchmark worker: one fresh interpreter, one operation at a time.

    python3 cmsbench/worker.py PROFILE --seconds S [--spans PATH]

An operation does the work of one CLI command on the profile document, which
the worker reads once and keeps as text:

* solve:   parse_profile -> solve_profile -> serialize_solution
* analyze: parse_profile -> classify -> to_text

Without ``--spans`` the worker warms up with one operation of each kind, then
runs rounds of one solve and one analyze batch until another round would end
after ``S`` seconds.  An operation shorter than 0.2 s runs in batches that
take about as long as one solve (at least 0.2 s), so both kinds are timed
for a similar share of the run; a batch reports the time per operation.

With ``--spans`` a round is one untraced and one traced solve batch; the
spans of the traced operations are written to PATH.

The worker prints one JSON object: wall and CPU time per operation, every
distinct output text with its count, the errors raised, and its peak RSS.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import cmsvote
from cmsvote import analysis, dispatch, textio

from tracing import Tracer

BATCH_S = 0.2


def solve_op(text: str) -> str:
    profile = textio.parse_profile(text)
    solution = dispatch.solve_profile(profile)
    return textio.serialize_solution(profile, solution)


def analyze_op(text: str) -> str:
    profile = textio.parse_profile(text)
    return analysis.classify(profile).to_text()


class Runner:
    def __init__(self, text: str):
        self.text = text
        self.attempted = 0
        self.outputs = {"solve": {}, "analyze": {}}
        self.errors = {"solve": {}, "analyze": {}}

    def once(self, kind: str, op) -> None:
        self.attempted += 1
        try:
            out = op(self.text)
        except Exception as exc:  # a failing operation is counted, not fatal
            key = f"{type(exc).__name__}: {exc}"
            self.errors[kind][key] = self.errors[kind].get(key, 0) + 1
            return
        self.outputs[kind][out] = self.outputs[kind].get(out, 0) + 1

    def batch(self, kind: str, op, reps: int):
        """(wall, cpu) seconds per operation over ``reps`` operations."""
        wall, cpu = time.perf_counter(), time.process_time()
        for _ in range(reps):
            self.once(kind, op)
        return (
            (time.perf_counter() - wall) / reps,
            (time.process_time() - cpu) / reps,
        )


def reps_for(wall: float, target: float) -> int:
    """Batch size for an operation that took ``wall`` seconds once."""
    if wall >= BATCH_S:
        return 1
    return math.ceil(max(target, BATCH_S) / max(wall, 1e-6))


def measure(runner: Runner, seconds: float) -> dict:
    kinds = (("solve", solve_op), ("analyze", analyze_op))
    warmup = {kind: runner.batch(kind, op, 1)[0] for kind, op in kinds}
    reps = {kind: reps_for(wall, warmup["solve"]) for kind, wall in warmup.items()}
    samples = {f"{kind}_{clock}": [] for kind, _ in kinds for clock in ("wall", "cpu")}
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for kind, op in kinds:
            wall, cpu = runner.batch(kind, op, reps[kind])
            samples[f"{kind}_wall"].append(wall)
            samples[f"{kind}_cpu"].append(cpu)
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            return {"warmup": warmup, "reps": reps, "samples": samples}


def trace(runner: Runner, seconds: float, spans_path: str) -> dict:
    tracer = Tracer()
    warmup = {"solve": runner.batch("solve", solve_op, 1)[0]}
    reps = reps_for(warmup["solve"], BATCH_S)
    untraced = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        untraced.append(runner.batch("solve", solve_op, reps)[0])
        tracer.install()
        try:
            for _ in range(reps):
                first = len(tracer.spans)
                tracer.span("op.solve", runner.once, "solve", solve_op)
                tracer.settle(first)
        finally:
            tracer.uninstall()
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    tracer.dump(spans_path)
    return {
        "warmup": warmup,
        "reps": {"solve": reps},
        "samples": {"untraced_wall": untraced},
    }


def peak_rss_kb() -> int:
    """This process's peak resident set size.

    ``getrusage`` would also count the parent's size at the fork that
    started this interpreter, so the kernel's high-water mark of this
    address space is read instead.
    """
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/status has no VmHWM line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("profile")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    with open(args.profile, encoding="utf-8") as handle:
        runner = Runner(handle.read())
    if args.spans is None:
        result = measure(runner, args.seconds)
    else:
        result = trace(runner, args.seconds, args.spans)
    result.update(
        module=cmsvote.__file__,
        attempted=runner.attempted,
        outputs=runner.outputs,
        errors=runner.errors,
        peak_rss_kb=peak_rss_kb(),
    )
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
