"""Exact winner determination for conditional approval voting.

Voters cast per-issue approval sets that may be conditioned on the outcomes
of other issues; the winning outcome minimizes the total number of
(voter, issue) disagreements.  The package provides the ballot model, three
exact solvers (bucket elimination in descending issue order for components
whose tables fit a fixed entry limit, a min-cut reduction for group-dichotomous
binary ballots, and bucket elimination in a nice tree decomposition's forget
order for single-premise ballots; the two bucket-elimination routes share
one factor-table compilation of the objective and one kernel), structural
analysis with automatic solver routing, instance generators built from
classic hardness reductions, and text formats plus a CLI tying it together.
"""

from ._scan import CostModel, compile_cost_model
from .analysis import (
    AnalysisReport,
    NiceTreeDecomposition,
    TreeDecomposition,
    build_global_graph,
    classify,
    heuristic_tree_decomposition,
    is_group_dichotomous,
    make_nice,
    verify_decomposition,
    vertex_cover_number,
)
from .brute import solve_brute
from .dispatch import SolveConfig, solve_profile
from .errors import (
    BudgetExceeded,
    CmsError,
    InternalMismatch,
    Intractable,
    InvalidDecomposition,
    NotGroupDichotomous,
    ParseError,
)
from .generators import (
    CnfFormula,
    ColoredGraph,
    CspInstance,
    gen_from_2csp,
    gen_from_multicolored_clique,
    gen_from_sat,
    gen_grid,
    gen_random,
)
from .mincut import (
    TwoMonotoneConstraint,
    build_network,
    compile_constraints,
    max_flow_min_cut,
    solve_mincut,
)
from .model import (
    IssueBallot,
    Profile,
    Solution,
    approve,
    is_satisfied,
    issue_ballot,
    make_profile,
    total_dissatisfaction,
    validate_profile,
    voter_dissatisfaction,
)
from .textio import (
    parse_colored_graph,
    parse_csp,
    parse_dimacs,
    parse_profile,
    parse_solution,
    serialize_profile,
    serialize_solution,
)
from .treewidth import solve_treewidth

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BudgetExceeded",
    "CmsError",
    "CnfFormula",
    "ColoredGraph",
    "CostModel",
    "CspInstance",
    "InternalMismatch",
    "Intractable",
    "InvalidDecomposition",
    "IssueBallot",
    "NiceTreeDecomposition",
    "NotGroupDichotomous",
    "ParseError",
    "Profile",
    "Solution",
    "SolveConfig",
    "TreeDecomposition",
    "TwoMonotoneConstraint",
    "approve",
    "build_global_graph",
    "build_network",
    "classify",
    "compile_constraints",
    "compile_cost_model",
    "gen_from_2csp",
    "gen_from_multicolored_clique",
    "gen_from_sat",
    "gen_grid",
    "gen_random",
    "heuristic_tree_decomposition",
    "is_group_dichotomous",
    "is_satisfied",
    "issue_ballot",
    "make_nice",
    "make_profile",
    "max_flow_min_cut",
    "parse_colored_graph",
    "parse_csp",
    "parse_dimacs",
    "parse_profile",
    "parse_solution",
    "serialize_profile",
    "serialize_solution",
    "solve_brute",
    "solve_mincut",
    "solve_profile",
    "solve_treewidth",
    "total_dissatisfaction",
    "validate_profile",
    "verify_decomposition",
    "vertex_cover_number",
    "voter_dissatisfaction",
]
