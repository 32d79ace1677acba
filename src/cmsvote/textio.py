"""Bit-exact text formats.

Profile documents::

    cmsprofile 1
    issues <m>
    issue <name> <alt>+          # one line per issue, declaration order
    voters <n>
    voter <name>
    approve <issue> <alt>+
    cond <target> if <issue>=<alt>(,<issue>=<alt>)* then <alt>+
    depends <target> on <issue>+
    end

Tokens are whitespace-separated; ``#`` starts a comment.  Lines are read by
position, so ``if``, ``then`` and ``on`` are names like any other; issue and
alternative names may not hold ``=`` or ``,`` (``_premise_name``), which no
premise entry could name.  Issues a voter never mentions default to
unconditional approval of everything.  An ``approve`` line is the statement
of the empty premise, and all lines of one (voter, target) must agree on the
scope, so ``approve`` and ``cond`` may not both appear for one target.  A
``depends`` line declares a conditional ballot's scope without any
statement: such a ballot is never satisfied (the serializer only emits it
for statement-free conditional ballots).  Repeated premises are merged with
a warning.  Counts are ASCII digits without a leading zero, as the
serializer writes them.

``parse_profile`` reads a document in one pass over the rows that ``_rows``
yields line by line, so no list of rows is held.  Each ballot line kind
parses its own syntax into a target, a scope and, but for ``depends``, a
premise and approval tokens; one path then checks the scope, reads the
approval set into an int mask (``model.alternatives`` lists its bits) and
merges it.  Within one document each issue's approval tokens map to one
remembered mask.  Every ballot gets its own statement dict.  Unconditional
ballots that approve every alternative (``model.approves_all``) are dropped
while parsing, as ``make_profile`` drops them.

Solution documents::

    cmssolution 1
    cost <int>
    assign <issue> <alt>         # one line per issue
    voter <name> dissat <int>    # optional breakdown

Integers there are a count or ``-`` followed by a nonzero count.

DIMACS CNF (``p cnf`` header, 0-terminated clauses), colored graphs
(``class <color> <vertex>+`` and ``edge <u> <v>`` lines) and binary CSPs
(``alphabet <sym>+`` then ``constraint <u> <v> <a>:<b>*`` lines) are accepted
as generator inputs.  Everything is UTF-8; CRLF input is tolerated, LF is
canonical on output.
"""

from __future__ import annotations

import warnings

from .errors import ParseError
from .generators import CnfFormula, ColoredGraph, CspInstance
from .model import (
    Issue,
    IssueBallot,
    Profile,
    Solution,
    Voter,
    alternatives,
    approves_all,
)


class FormatWarning(UserWarning):
    """Recoverable oddity in an input document (e.g. duplicate premise)."""


_COND_SYNTAX = "expected 'cond <target> if <issue>=<alt>,... then <alt>+'"


def _rows(text):
    """The (line number, tokens) of each line with a token, comments cut."""
    for ln, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        tokens = line.split()
        if tokens:
            yield ln, tokens


def _take(rows, ln, what):
    """The next row; ``ln`` is the last row read, which an end-of-document
    error names."""
    row = next(rows, None)
    if row is None:
        raise ParseError(ln, f"unexpected end of document, expected {what}")
    return row


def _is_count(token):
    """Whether the token is a count as the serializer writes it: ASCII digits
    without a leading zero."""
    return token.isascii() and token.isdigit() and (token[0] != "0" or token == "0")


def _signed_int(token):
    """The value of a count or of '-' and a nonzero count, else None."""
    if token.startswith("-"):
        digits = token[1:]
        return -int(digits) if _is_count(digits) and digits != "0" else None
    return int(token) if _is_count(token) else None


def _issue(issue_index, ln, name):
    """The index of the issue named ``name``, read on line ``ln``."""
    j = issue_index.get(name)
    if j is None:
        raise ParseError(ln, f"unknown issue {name!r}")
    return j


def _unknown_alternative(ln, issue, name):
    return ParseError(ln, f"unknown alternative {name!r} for issue {issue.name!r}")


def parse_profile(text: str) -> Profile:
    """Parse a profile document; raises ParseError with a line number.

    Ballots are assembled canonical while the lines are read (sorted scope,
    aligned premises, merged duplicates), so each equals what
    ``issue_ballot`` would build from the same statements, and approve-all
    unconditional ballots are dropped as ``make_profile`` drops them.  The
    module docstring describes the pass and the one ballot-line path.
    """
    rows = _rows(text)
    ln, tokens = _take(rows, 1, "'cmsprofile 1' header")
    if tokens != ["cmsprofile", "1"]:
        raise ParseError(ln, "expected header 'cmsprofile 1'")

    ln, tokens = _take(rows, ln, "'issues <m>'")
    if len(tokens) != 2 or tokens[0] != "issues" or not _is_count(tokens[1]):
        raise ParseError(ln, "expected 'issues <m>'")
    m = int(tokens[1])
    if m < 1:
        raise ParseError(ln, "profiles need at least one issue")

    issues = []
    issue_index = {}
    alt_index = []
    for _ in range(m):
        ln, tokens = _take(rows, ln, "'issue <name> <alt>+'")
        if len(tokens) < 2 or tokens[0] != "issue":
            raise ParseError(ln, "expected 'issue <name> <alt>+'")
        name, alts = tokens[1], tokens[2:]
        if len(alts) < 2:
            raise ParseError(ln, f"issue {name!r} needs at least two alternatives")
        if name in issue_index:
            raise ParseError(ln, f"issue name {name!r} already used")
        table = {a: v for v, a in enumerate(alts)}
        if len(table) != len(alts):
            raise ParseError(ln, f"issue {name!r} repeats an alternative name")
        if not _premise_name("".join(tokens)):
            bad = next(token for token in tokens[1:] if not _premise_name(token))
            raise ParseError(ln, f"issue and alternative names may not hold '=' or ',': {bad!r}")
        issue_index[name] = len(issues)
        alt_index.append(table)
        issues.append(Issue(name, tuple(alts)))

    ln, tokens = _take(rows, ln, "'voters <n>'")
    if len(tokens) != 2 or tokens[0] != "voters" or not _is_count(tokens[1]):
        raise ParseError(ln, "expected 'voters <n>'")
    n = int(tokens[1])
    if n < 1:
        raise ParseError(ln, "profiles need at least one voter")

    approvals = [{} for _ in range(m)]  # per issue: alternative tokens -> mask
    voters = []
    voter_names = set()
    for _ in range(n):
        ln, tokens = _take(rows, ln, "'voter <name>'")
        if len(tokens) != 2 or tokens[0] != "voter":
            raise ParseError(ln, "expected 'voter <name>'")
        voter_name = tokens[1]
        if voter_name in voter_names:
            raise ParseError(ln, f"voter name {voter_name!r} already used")
        voter_names.add(voter_name)

        # target -> its ballot, canonical as read: the scope is sorted, each
        # premise follows it and repeated lines merge into one approval set.
        drafts = {}
        for ln, tokens in rows:
            # Each kind reads its own syntax into a target j, a scope and,
            # unless it is a depends line, a premise and approval tokens.
            kind = tokens[0]
            if kind == "cond":
                if len(tokens) < 6 or tokens[2] != "if":
                    raise ParseError(ln, _COND_SYNTAX)
                j = _issue(issue_index, ln, tokens[1])
                try:
                    then_at = tokens.index("then", 3)
                except ValueError:
                    raise ParseError(ln, _COND_SYNTAX) from None
                premise_text = "".join(tokens[3:then_at])
                alt_tokens = tuple(tokens[then_at + 1 :])
                if not premise_text or not alt_tokens:
                    raise ParseError(ln, "conditional lines need a premise and alternatives")
                pairs = []
                for part in premise_text.split(","):
                    issue_name, eq, alt_name = part.partition("=")
                    if not eq or "=" in alt_name:
                        raise ParseError(ln, f"malformed premise entry {part!r}")
                    k = issue_index.get(issue_name)
                    if k is None:
                        raise ParseError(ln, f"unknown issue {issue_name!r}")
                    v = alt_index[k].get(alt_name)
                    if v is None:
                        raise _unknown_alternative(ln, issues[k], alt_name)
                    pairs.append((k, v))
                pairs.sort()
                scope, premise = zip(*pairs)
            elif kind == "approve":
                if len(tokens) < 3:
                    raise ParseError(ln, "expected 'approve <issue> <alt>+'")
                j = _issue(issue_index, ln, tokens[1])
                scope = premise = ()
                alt_tokens = tuple(tokens[2:])
            elif kind == "end":
                if len(tokens) != 1:
                    raise ParseError(ln, "'end' takes no arguments")
                break
            elif kind == "depends":
                if len(tokens) < 4 or tokens[2] != "on":
                    raise ParseError(ln, "expected 'depends <target> on <issue>+'")
                j = _issue(issue_index, ln, tokens[1])
                scope = tuple(sorted([_issue(issue_index, ln, name) for name in tokens[3:]]))
                alt_tokens = None
            else:
                raise ParseError(ln, f"unknown directive {kind!r}")

            # One path for every kind from here on; tokens[1] names the
            # target.  A draft over the same scope passed the scope checks.
            draft = drafts.get(j)
            if draft is None or draft.scope != scope:
                if scope and len(set(scope)) != len(scope):
                    raise ParseError(ln, "premise repeats an issue")
                if j in scope:
                    raise ParseError(ln, f"self-premise: {tokens[1]!r} conditions on itself")
                if draft is None:
                    draft = drafts[j] = IssueBallot(j, scope, {})
                elif not draft.scope:
                    raise ParseError(ln, f"issue {tokens[1]!r} already has an approval line")
                elif not scope:
                    raise ParseError(ln, f"issue {tokens[1]!r} already has conditional lines")
                else:
                    raise ParseError(
                        ln, f"inconsistent scope for issue {tokens[1]!r}: saw {draft.scope} before"
                    )
            if alt_tokens is None:
                continue
            approved = approvals[j].get(alt_tokens)
            if approved is None:
                table = alt_index[j]
                approved = 0
                try:
                    for a in alt_tokens:
                        approved |= 1 << table[a]
                except KeyError as missing:
                    raise _unknown_alternative(ln, issues[j], missing.args[0]) from None
                approvals[j][alt_tokens] = approved
            statements = draft.statements
            if premise in statements:
                what = "premise" if scope else "approval"
                warnings.warn(
                    f"line {ln}: duplicate {what} for issue {tokens[1]!r} merged",
                    FormatWarning,
                    stacklevel=2,
                )
                approved |= statements[premise]
            statements[premise] = approved
        else:
            raise ParseError(ln, "unexpected end of document, expected a ballot line or 'end'")
        # Approve-all unconditional ballots are the implicit default.
        ballots = {
            j: ballot
            for j, ballot in drafts.items()
            if not approves_all(ballot, len(alt_index[j]))
        }
        voters.append(Voter(voter_name, ballots))

    for ln, _ in rows:
        raise ParseError(ln, "unexpected content after the last voter block")
    return Profile(tuple(issues), tuple(voters))


def _premise_name(name: str) -> bool:
    """Whether an issue or alternative name can appear in a premise entry
    ``<issue>=<alt>,...``; the parser and the serializer refuse any other."""
    return "=" not in name and "," not in name


def _check_name(name: str, in_premises: bool = True) -> str:
    """The name, if the parser reads it back as written: one token without
    '#' and, for an issue or alternative name, ``_premise_name``.  Keywords
    are fine, as every line kind reads its tokens by position."""
    if (
        not name
        or "#" in name
        or any(c.isspace() for c in name)
        or (in_premises and not _premise_name(name))
    ):
        raise ValueError(f"name {name!r} cannot be written to the text format")
    return name


def serialize_profile(profile: Profile) -> str:
    """Canonical document: issues, statements and approvals in index order."""
    out = ["cmsprofile 1", f"issues {profile.m}"]
    for issue in profile.issues:
        parts = [_check_name(issue.name)] + [_check_name(a) for a in issue.alternatives]
        out.append("issue " + " ".join(parts))
    out.append(f"voters {profile.n}")
    for voter in profile.voters:
        out.append("voter " + _check_name(voter.name, in_premises=False))
        for j in sorted(voter.ballots):
            ballot = voter.ballots[j]
            issue = profile.issues[j]
            if approves_all(ballot, len(issue.alternatives)):
                continue
            if not ballot.scope:
                approved = alternatives(ballot.statements[()])
                alts = " ".join(issue.alternatives[a] for a in approved)
                out.append(f"approve {issue.name} {alts}")
                continue
            if not ballot.statements:
                names = " ".join(profile.issues[k].name for k in ballot.scope)
                out.append(f"depends {issue.name} on {names}")
                continue
            for premise in sorted(ballot.statements):
                approved = alternatives(ballot.statements[premise])
                condition = ",".join(
                    f"{profile.issues[k].name}={profile.issues[k].alternatives[v]}"
                    for k, v in zip(ballot.scope, premise)
                )
                alts = " ".join(issue.alternatives[a] for a in approved)
                out.append(f"cond {issue.name} if {condition} then {alts}")
        out.append("end")
    return "\n".join(out) + "\n"


def serialize_solution(profile: Profile, solution: Solution) -> str:
    out = ["cmssolution 1", f"cost {solution.cost}"]
    for j, issue in enumerate(profile.issues):
        out.append(f"assign {issue.name} {issue.alternatives[solution.outcome[j]]}")
    for voter, dissat in zip(profile.voters, solution.per_voter):
        out.append(f"voter {voter.name} dissat {dissat}")
    return "\n".join(out) + "\n"


def parse_solution(text: str, profile: Profile):
    """Parse a solution document against its profile.

    Returns (cost, outcome, per_voter) where per_voter maps voter names to
    their declared dissatisfaction (empty when the document has no voter
    lines).  Consistency with the profile is the caller's job.
    """
    rows = _rows(text)
    ln, tokens = _take(rows, 1, "'cmssolution 1' header")
    if tokens != ["cmssolution", "1"]:
        raise ParseError(ln, "expected header 'cmssolution 1'")
    ln, tokens = _take(rows, ln, "'cost <int>'")
    if len(tokens) != 2 or tokens[0] != "cost":
        raise ParseError(ln, "expected 'cost <int>'")
    cost = _signed_int(tokens[1])
    if cost is None:
        raise ParseError(ln, f"cost {tokens[1]!r} is not an integer")

    issue_index = {issue.name: j for j, issue in enumerate(profile.issues)}
    voter_names = {voter.name for voter in profile.voters}
    assignment = {}
    per_voter = {}
    for ln, tokens in rows:
        if tokens[0] == "assign":
            if len(tokens) != 3:
                raise ParseError(ln, "expected 'assign <issue> <alt>'")
            if tokens[1] not in issue_index:
                raise ParseError(ln, f"unknown issue {tokens[1]!r}")
            j = issue_index[tokens[1]]
            alts = profile.issues[j].alternatives
            if tokens[2] not in alts:
                raise ParseError(ln, f"unknown alternative {tokens[2]!r}")
            if j in assignment:
                raise ParseError(ln, f"issue {tokens[1]!r} assigned twice")
            assignment[j] = alts.index(tokens[2])
        elif tokens[0] == "voter":
            if len(tokens) != 4 or tokens[2] != "dissat":
                raise ParseError(ln, "expected 'voter <name> dissat <int>'")
            if tokens[1] not in voter_names:
                raise ParseError(ln, f"unknown voter {tokens[1]!r}")
            dissat = _signed_int(tokens[3])
            if dissat is None:
                raise ParseError(ln, f"dissatisfaction {tokens[3]!r} is not an integer")
            if tokens[1] in per_voter:
                raise ParseError(ln, f"voter {tokens[1]!r} listed twice")
            per_voter[tokens[1]] = dissat
        else:
            raise ParseError(ln, f"unknown directive {tokens[0]!r}")
    missing = [profile.issues[j].name for j in range(profile.m) if j not in assignment]
    if missing:
        # ln is the last row read.
        raise ParseError(ln, f"assignment missing issues: {', '.join(missing)}")
    outcome = tuple(assignment[j] for j in range(profile.m))
    return cost, outcome, per_voter


def parse_dimacs(text: str) -> CnfFormula:
    """Standard DIMACS CNF: 'c' comments, 'p cnf <vars> <clauses>' header,
    whitespace-separated 0-terminated clauses."""
    num_vars = None
    num_clauses = None
    clauses = []
    current = []
    header_line = 1
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.strip()
        if not body or body.startswith("c"):
            continue
        if body.startswith("p"):
            if num_vars is not None:
                raise ParseError(ln, "duplicate problem line")
            parts = body.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError(ln, "expected 'p cnf <vars> <clauses>'")
            if not (_is_count(parts[2]) and _is_count(parts[3])):
                raise ParseError(ln, "problem line counts must be integers")
            num_vars, num_clauses = int(parts[2]), int(parts[3])
            if num_vars < 1:
                raise ParseError(ln, "formulas need at least one variable")
            header_line = ln
            continue
        if num_vars is None:
            raise ParseError(ln, "clause data before the problem line")
        for token in body.split():
            lit = _signed_int(token)
            if lit is None:
                raise ParseError(ln, f"literal {token!r} is not an integer")
            if lit == 0:
                if not current:
                    raise ParseError(ln, "empty clause")
                clauses.append(tuple(current))
                current = []
            else:
                if abs(lit) > num_vars:
                    raise ParseError(ln, f"literal {lit} out of range")
                current.append(lit)
    if num_vars is None:
        raise ParseError(1, "missing 'p cnf' problem line")
    if current:
        raise ParseError(header_line, "unterminated clause at end of input")
    if len(clauses) != num_clauses:
        raise ParseError(
            header_line,
            f"header declares {num_clauses} clauses but {len(clauses)} were given",
        )
    return CnfFormula(num_vars, tuple(clauses))


def parse_colored_graph(text: str) -> ColoredGraph:
    """Colored graph document: 'class <color> <vertex>+' and 'edge <u> <v>' lines."""
    classes = []
    edges = []
    for ln, tokens in _rows(text):
        if tokens[0] == "class":
            if len(tokens) < 3:
                raise ParseError(ln, "expected 'class <color> <vertex>+'")
            classes.append((tokens[1], tuple(tokens[2:])))
        elif tokens[0] == "edge":
            if len(tokens) != 3:
                raise ParseError(ln, "expected 'edge <u> <v>'")
            edges.append((tokens[1], tokens[2]))
        else:
            raise ParseError(ln, f"unknown directive {tokens[0]!r}")
    if not classes:
        raise ParseError(1, "graph documents need at least one class line")
    try:
        return ColoredGraph.build(classes, edges)
    except ValueError as exc:
        raise ParseError(1, str(exc))


def parse_csp(text: str) -> CspInstance:
    """CSP document: one 'alphabet <sym>+' line, then 'constraint <u> <v> <a>:<b>*'."""
    alphabet = None
    constraints = []
    for ln, tokens in _rows(text):
        if tokens[0] == "alphabet":
            if alphabet is not None:
                raise ParseError(ln, "duplicate alphabet line")
            if len(tokens) < 3:
                raise ParseError(ln, "alphabets need at least two symbols")
            if any(":" in sym for sym in tokens[1:]):
                raise ParseError(ln, "alphabet symbols may not contain ':'")
            if len(set(tokens[1:])) != len(tokens[1:]):
                raise ParseError(ln, "alphabet symbols repeat")
            alphabet = tuple(tokens[1:])
            index = {sym: i for i, sym in enumerate(alphabet)}
        elif tokens[0] == "constraint":
            if alphabet is None:
                raise ParseError(ln, "constraint before the alphabet line")
            if len(tokens) < 3:
                raise ParseError(ln, "expected 'constraint <u> <v> <a>:<b>*'")
            u, v = tokens[1], tokens[2]
            if u == v:
                raise ParseError(ln, "constraints need two distinct variables")
            allowed = []
            for token in tokens[3:]:
                if token.count(":") != 1:
                    raise ParseError(ln, f"malformed pair {token!r}")
                a, b = token.split(":")
                if a not in index or b not in index:
                    raise ParseError(ln, f"pair {token!r} uses unknown symbols")
                allowed.append((index[a], index[b]))
            constraints.append((u, v, tuple(allowed)))
        else:
            raise ParseError(ln, f"unknown directive {tokens[0]!r}")
    if alphabet is None:
        raise ParseError(1, "missing alphabet line")
    if not constraints:
        raise ParseError(1, "CSP documents need at least one constraint")
    try:
        return CspInstance(alphabet, tuple(constraints))
    except ValueError as exc:
        raise ParseError(1, str(exc))
