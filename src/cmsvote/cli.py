"""Command-line surface.

Subcommands: ``solve`` (optimal outcome, optionally checked against a
dissatisfaction threshold), ``analyze`` (structure report and solver
routing), ``generate`` (random/reduction instances) and ``verify`` (recheck a
solution document).  Exit codes: 0 success or decision-yes, 1 decision-no or
failed verification, 2 usage or parse errors, 3 intractable instances and
solves that exceed a budget or run out of memory.
"""

from __future__ import annotations

import argparse
import sys

from . import generators, textio
from .analysis import classify
from .dispatch import METHODS, SolveConfig, solve_profile
from .errors import (
    BudgetExceeded,
    CmsError,
    InternalMismatch,
    Intractable,
    ParseError,
)
from .model import make_solution


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmsvote",
        description="Exact winner determination for conditional approval voting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="compute a minisum-optimal outcome")
    solve.add_argument("profile", help="profile document path")
    solve.add_argument(
        "--method",
        choices=METHODS,
        default="auto",
        help="force one solver instead of routing per component",
    )
    solve.add_argument(
        "--max-dissat",
        type=int,
        default=None,
        metavar="S",
        help="exit 0 iff the optimum is at most S, else 1",
    )
    solve.add_argument(
        "--cross-validate",
        action="store_true",
        help="run every applicable solver per component and require equal costs",
    )
    solve.add_argument("--out", default=None, help="write the solution document here")

    analyze = sub.add_parser("analyze", help="report structure and solver routing")
    analyze.add_argument("profile")
    analyze.add_argument(
        "--kv", action="store_true", help="machine-readable key-value output"
    )

    generate = sub.add_parser("generate", help="write instance documents")
    kinds = generate.add_subparsers(dest="kind", required=True)

    g_random = kinds.add_parser("random", help="seeded random profile")
    g_random.add_argument("--issues", type=int, required=True)
    g_random.add_argument("--voters", type=int, required=True)
    g_random.add_argument("--dmax", type=int, default=2)
    g_random.add_argument("--delta", type=int, default=1)
    g_random.add_argument("--density", type=float, default=0.25)
    g_random.add_argument("--seed", type=int, default=0)
    g_random.add_argument("--group-dichotomous", action="store_true")
    g_random.add_argument("--out", default=None)

    g_sat = kinds.add_parser("sat", help="from a DIMACS CNF file")
    g_sat.add_argument("cnf")
    g_sat.add_argument("--issues", type=int, required=True)
    g_sat.add_argument("--out", default=None)

    g_clique = kinds.add_parser("clique", help="from a colored graph file")
    g_clique.add_argument("graph")
    g_clique.add_argument("--out", default=None)

    g_csp = kinds.add_parser("csp", help="from a binary CSP file")
    g_csp.add_argument("csp")
    g_csp.add_argument("--out", default=None)

    g_grid = kinds.add_parser("grid", help="two path-voters over a grid")
    g_grid.add_argument("rho", type=int)
    g_grid.add_argument("--out", default=None)

    verify = sub.add_parser("verify", help="recheck a solution document")
    verify.add_argument("profile")
    verify.add_argument("solution")

    return parser


def _cmd_solve(args) -> int:
    profile = textio.parse_profile(_read(args.profile))
    config = SolveConfig(method=args.method, cross_validate=args.cross_validate)
    try:
        solution = solve_profile(profile, config)
    except (BudgetExceeded, MemoryError) as exc:
        # Reported like Intractable: the analysis first, then the reason.
        print(classify(profile).to_text(), file=sys.stderr)
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    _emit(textio.serialize_solution(profile, solution), args.out)
    if args.max_dissat is not None:
        return 0 if solution.cost <= args.max_dissat else 1
    return 0


def _cmd_analyze(args) -> int:
    profile = textio.parse_profile(_read(args.profile))
    report = classify(profile)
    text = report.to_kv() if args.kv else report.to_text()
    sys.stdout.write(text + "\n")
    return 0


def _cmd_generate(args) -> int:
    if args.kind == "random":
        profile = generators.gen_random(
            args.issues,
            args.voters,
            d_max=args.dmax,
            delta_max=args.delta,
            statement_density=args.density,
            seed=args.seed,
            group_dichotomous=args.group_dichotomous,
        )
    elif args.kind == "sat":
        cnf = textio.parse_dimacs(_read(args.cnf))
        profile = generators.gen_from_sat(cnf, args.issues)
    elif args.kind == "clique":
        graph = textio.parse_colored_graph(_read(args.graph))
        profile = generators.gen_from_multicolored_clique(graph)
    elif args.kind == "csp":
        csp = textio.parse_csp(_read(args.csp))
        profile = generators.gen_from_2csp(csp)
    else:  # grid
        profile = generators.gen_grid(args.rho)
    _emit(textio.serialize_profile(profile), args.out)
    return 0


def _cmd_verify(args) -> int:
    profile = textio.parse_profile(_read(args.profile))
    cost, outcome, per_voter = textio.parse_solution(_read(args.solution), profile)
    solution = make_solution(profile, outcome, "verify")
    ok = True
    for voter, dissat in zip(profile.voters, solution.per_voter):
        line = f"voter {voter.name} dissat {dissat}"
        declared = per_voter.get(voter.name)
        if declared is not None and declared != dissat:
            line += f"  (document claims {declared})"
            ok = False
        print(line)
    print(f"recomputed cost {solution.cost}")
    if solution.cost != cost:
        print(f"MISMATCH: document claims cost {cost}")
        ok = False
    else:
        print("cost confirmed")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "analyze":
            return _cmd_analyze(args)
        if args.command == "generate":
            return _cmd_generate(args)
        return _cmd_verify(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Intractable as exc:
        print(exc.report.to_text(), file=sys.stderr)
        print("error: no applicable solver route", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalMismatch:
        raise  # a reduction or kernel bug; abort loudly
    except CmsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
