"""Seeded end-to-end benchmark of ``cmsvote solve`` and ``cmsvote analyze``.

    python3 cmsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
``src``).  The benchmark generates the workload's profile document from the
seed, computes its optimum and component count apart from the package, then
starts a worker interpreter (``worker.py``) that runs the operations
closed-loop, and checks every output the worker returns.

With ``--trace 0`` it reports the end-to-end metrics: ``solve_s``,
``solve_cpu_s`` and ``analyze_s`` (medians over the operations), ``setup_s``
(median over several fresh interpreters of the time until ``import cmsvote``
is done) and ``peak_rss_mb`` of the worker.  With ``--trace 1`` the worker
wraps the package's layers in spans and the per-layer metrics are derived
from the spans it writes.  The last line of standard output is the result
object; the line before it holds the details.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

import families
import oracle
import tracing

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, "work")
WORKLOADS = tuple(families.FAMILIES)
SETUP_RUNS = 6
WORKER_TIMEOUT_S = 120
# Variables that change how the package runs; workers start without them.
UNSET = ("CMS_THREADS", "CMS_BACKEND")
END_TO_END_UNITS = {
    "solve_s": "s",
    "solve_cpu_s": "s",
    "analyze_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

HEADER = re.compile(r"issues in (\d+) component\(s\), heuristic width (\S+)")
COMPONENT = re.compile(r"component \d+: issues \[([^\]]*)\] -> (\w+)")


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(env: dict, runs: int) -> list:
    """Times from starting an interpreter to ``import cmsvote`` done.

    The child reports ``time.monotonic()`` after the import; CLOCK_MONOTONIC
    is shared by all processes of the machine.
    """
    code = "import time, cmsvote; print(repr(time.monotonic()))"
    times = []
    for _ in range(runs):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        times.append(float(done.stdout) - start)
    return times


def run_worker(profile_path: str, seconds: int, env: dict, spans_path=None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), profile_path]
    cmd += ["--seconds", str(seconds)]
    if spans_path is not None:
        cmd += ["--spans", spans_path]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=seconds + WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out)


def read_outcome(inst, text: str):
    """(declared cost, outcome) from a solution document, by issue and
    alternative name."""
    issues = {families.issue_name(j): j for j in range(inst.m)}
    outcome = [None] * inst.m
    cost = None
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["cost"]:
            cost = int(tokens[1])
        elif tokens[:1] == ["assign"]:
            j = issues[tokens[1]]
            alts = [families.alt_name(a) for a in range(inst.domains[j])]
            if outcome[j] is not None:
                raise ValueError(f"issue {tokens[1]} assigned twice")
            outcome[j] = alts.index(tokens[2])
    if cost is None or None in outcome:
        raise ValueError("solution document lacks the cost or an assignment")
    return cost, outcome


def solve_problem(inst, optimum: int, text: str):
    """None when the solution is optimal, else what is wrong with it."""
    try:
        declared, outcome = read_outcome(inst, text)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable solution: {exc}"
    cost = families.evaluate(inst, outcome)
    if cost != optimum:
        return f"outcome costs {cost}, the optimum is {optimum}"
    if declared != cost:
        return f"document declares cost {declared}, the outcome costs {cost}"
    return None


def analyze_problem(workload: str, components: int, text: str):
    """None when the report has the workload's expected structure."""
    header = HEADER.search(text)
    found = COMPONENT.findall(text)
    if header is None:
        return "report lacks the component header"
    if int(header.group(1)) != components or len(found) != components:
        return (
            f"report has {header.group(1)} components ({len(found)} listed), "
            f"union-find counts {components}"
        )
    if workload == "mincut_single":
        bad = [route for issues, route in found if "," in issues and route != "MINCUT"]
        if bad:
            return f"non-singleton components routed {sorted(set(bad))}, not MINCUT"
    elif workload == "brute_scan":
        if any(route != "BRUTE" for _, route in found):
            return "component not routed BRUTE"
    elif workload == "treewidth_grid":
        width = header.group(2)
        if not width.isdigit() or int(width) < 5:
            return f"heuristic width {width} is below the 5-row grid's treewidth 5"
    return None


def check_outputs(result: dict, inst, workload: str, optimum: int, components: int):
    """(failed operations, distinct problems found)."""
    failed = 0
    problems = {}
    for kind, errors in result["errors"].items():
        for message, count in errors.items():
            failed += count
            problems[f"{kind} raised {message}"] = count
    for text, count in result["outputs"]["solve"].items():
        problem = solve_problem(inst, optimum, text)
        if problem is not None:
            failed += count
            problems[f"solve: {problem}"] = count
    for text, count in result["outputs"]["analyze"].items():
        problem = analyze_problem(workload, components, text)
        if problem is not None:
            failed += count
            problems[f"analyze: {problem}"] = count
    return failed, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cmsvote benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cmsvote", "__init__.py")):
        print(f"error: no cmsvote sources under {SRC}", file=sys.stderr)
        return 2

    inst = families.generate(args.workload, args.seed)
    os.makedirs(WORK, exist_ok=True)
    stem = os.path.join(WORK, f"{args.workload}-{args.seed}-{args.trace}")
    with open(stem + ".profile", "w", encoding="utf-8") as handle:
        handle.write(families.write_document(inst))
    if inst.grid is not None:
        optimum = oracle.grid_optimum(inst)
    else:
        optimum = oracle.milp_optimum(inst)
    components = oracle.component_count(inst)

    env = worker_env()
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "unset_env": {name: os.environ.get(name) for name in UNSET},
        "optimum": optimum,
        "components": components,
    }
    correct = True
    if args.trace:
        spans_path = stem + ".spans"
        result = run_worker(stem + ".profile", args.seconds, env, spans_path)
        ops = tracing.op_metrics(tracing.load_spans(spans_path))
        overrun = [op["self_sum_s"] - op["wall_s"] for op in ops]
        correct = max(overrun) <= 1e-9
        values = tracing.layer_metrics(ops, result["samples"]["untraced_wall"])
        units = tracing.UNITS
        details["traced_ops"] = len(ops)
    else:
        # One untimed interpreter compiles the bytecode.  The timed ones run
        # half before and half after the worker, so that their median spans
        # the run and not one moment of the machine's load.
        setup_seconds(env, 1)
        setup = setup_seconds(env, SETUP_RUNS // 2)
        result = run_worker(stem + ".profile", args.seconds, env)
        setup += setup_seconds(env, SETUP_RUNS - SETUP_RUNS // 2)
        samples = result["samples"]
        values = {
            "solve_s": statistics.median(samples["solve_wall"]),
            "solve_cpu_s": statistics.median(samples["solve_cpu"]),
            "analyze_s": statistics.median(samples["analyze_wall"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_kb"] / 1024,
        }
        units = END_TO_END_UNITS
        details["setup_samples"] = setup
    correct = correct and os.path.dirname(result["module"]) == os.path.join(SRC, "cmsvote")
    failed, problems = check_outputs(result, inst, args.workload, optimum, components)
    details.update(
        module=result["module"],
        warmup=result["warmup"],
        reps=result["reps"],
        samples=result["samples"],
        problems=problems,
    )
    print(json.dumps(details))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
