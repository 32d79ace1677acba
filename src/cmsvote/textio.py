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

Tokens are whitespace-separated; ``#`` starts a comment.  Issues a voter
never mentions default to unconditional approval of everything.  All ``cond``
lines of one (voter, target) must agree on the premise issue set, and
``approve``/``cond`` may not both appear for one target.  A ``depends`` line
declares a conditional ballot's premise issues without any statement: such a
ballot is never satisfied (the serializer only emits it for statement-free
conditional ballots).  Duplicate premises are merged with a warning.

Solution documents::

    cmssolution 1
    cost <int>
    assign <issue> <alt>         # one line per issue
    voter <name> dissat <int>    # optional breakdown

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
from .model import IssueBallot, Profile, Solution, make_profile


class FormatWarning(UserWarning):
    """Recoverable oddity in an input document (e.g. duplicate premise)."""


_COND_SYNTAX = "expected 'cond <target> if <issue>=<alt>,... then <alt>+'"


def _rows(text):
    out = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((ln, body.split()))
    return out


class _Cursor:
    def __init__(self, text):
        self.rows = _rows(text)
        self.pos = 0

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self, what):
        if self.pos >= len(self.rows):
            last = self.rows[-1][0] if self.rows else 1
            raise ParseError(last, f"unexpected end of document, expected {what}")
        row = self.rows[self.pos]
        self.pos += 1
        return row


def parse_profile(text: str) -> Profile:
    """Parse a profile document; raises ParseError with a line number.

    Ballots are assembled canonical while the lines are read (sorted scope,
    aligned premises, merged duplicates), so each equals what
    ``issue_ballot`` would build from the same statements without a second
    pass over them.
    """
    cur = _Cursor(text)
    ln, tokens = cur.take("'cmsprofile 1' header")
    if tokens != ["cmsprofile", "1"]:
        raise ParseError(ln, "expected header 'cmsprofile 1'")

    ln, tokens = cur.take("'issues <m>'")
    if len(tokens) != 2 or tokens[0] != "issues" or not tokens[1].isdigit():
        raise ParseError(ln, "expected 'issues <m>'")
    m = int(tokens[1])
    if m < 1:
        raise ParseError(ln, "profiles need at least one issue")

    issues = []
    issue_index = {}
    alt_index = []
    for _ in range(m):
        ln, tokens = cur.take("'issue <name> <alt>+'")
        if len(tokens) < 2 or tokens[0] != "issue":
            raise ParseError(ln, "expected 'issue <name> <alt>+'")
        name, alts = tokens[1], tokens[2:]
        if len(alts) < 2:
            raise ParseError(ln, f"issue {name!r} needs at least two alternatives")
        if name in issue_index:
            raise ParseError(ln, f"issue name {name!r} already used")
        if len(set(alts)) != len(alts):
            raise ParseError(ln, f"issue {name!r} repeats an alternative name")
        issue_index[name] = len(issues)
        alt_index.append({alt: a for a, alt in enumerate(alts)})
        issues.append((name, tuple(alts)))

    ln, tokens = cur.take("'voters <n>'")
    if len(tokens) != 2 or tokens[0] != "voters" or not tokens[1].isdigit():
        raise ParseError(ln, "expected 'voters <n>'")
    n = int(tokens[1])
    if n < 1:
        raise ParseError(ln, "profiles need at least one voter")

    def unknown_alternative(ln, j, names):
        table = alt_index[j]
        name = next(a for a in names if a not in table)
        return ParseError(ln, f"unknown alternative {name!r} for issue {issues[j][0]!r}")

    def conditional_draft(drafts, ln, target, j, scope):
        """The target's draft for a cond or depends line over ``scope``."""
        if len(set(scope)) != len(scope):
            raise ParseError(ln, "premise repeats an issue")
        if j in scope:
            raise ParseError(ln, f"self-premise: {target!r} conditions on itself")
        draft = drafts.get(j)
        if draft is None:
            draft = drafts[j] = (scope, {})
        elif not draft[0]:
            raise ParseError(ln, f"issue {target!r} already has an approval line")
        elif draft[0] != scope:
            raise ParseError(
                ln, f"inconsistent scope for issue {target!r}: saw {draft[0]} before"
            )
        return draft

    rows = cur.rows
    voters = []
    voter_names = set()
    for _ in range(n):
        ln, tokens = cur.take("'voter <name>'")
        if len(tokens) != 2 or tokens[0] != "voter":
            raise ParseError(ln, "expected 'voter <name>'")
        voter_name = tokens[1]
        if voter_name in voter_names:
            raise ParseError(ln, f"voter name {voter_name!r} already used")
        voter_names.add(voter_name)

        # target -> (scope, statements), canonical as read: the scope is
        # sorted, each premise follows it and repeated lines merge into one
        # approval set.  Only approve lines have the empty scope.
        drafts = {}
        pos = cur.pos
        while True:
            if pos == len(rows):
                raise ParseError(
                    rows[-1][0], "unexpected end of document, expected a ballot line or 'end'"
                )
            ln, tokens = rows[pos]
            pos += 1
            kind = tokens[0]
            if kind == "cond":
                if len(tokens) < 6 or tokens[2] != "if":
                    raise ParseError(ln, _COND_SYNTAX)
                target = tokens[1]
                j = issue_index.get(target)
                if j is None:
                    raise ParseError(ln, f"unknown issue {target!r}")
                try:
                    then_at = tokens.index("then", 3)
                except ValueError:
                    raise ParseError(ln, _COND_SYNTAX)
                premise_text = "".join(tokens[3:then_at])
                alt_tokens = tokens[then_at + 1 :]
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
                        raise unknown_alternative(ln, k, (alt_name,))
                    pairs.append((k, v))
                pairs.sort()
                scope, premise = zip(*pairs)
                statements = conditional_draft(drafts, ln, target, j, scope)[1]
                table = alt_index[j]
                try:
                    approved = frozenset([table[a] for a in alt_tokens])
                except KeyError:
                    raise unknown_alternative(ln, j, alt_tokens) from None
                if premise in statements:
                    warnings.warn(
                        f"line {ln}: duplicate premise for issue {target!r} merged",
                        FormatWarning,
                        stacklevel=2,
                    )
                    approved = approved | statements[premise]
                statements[premise] = approved
            elif kind == "approve":
                if len(tokens) < 3:
                    raise ParseError(ln, "expected 'approve <issue> <alt>+'")
                target = tokens[1]
                j = issue_index.get(target)
                if j is None:
                    raise ParseError(ln, f"unknown issue {target!r}")
                draft = drafts.get(j)
                if draft is not None and draft[0]:
                    raise ParseError(ln, f"issue {target!r} already has conditional lines")
                table = alt_index[j]
                try:
                    approved = frozenset([table[a] for a in tokens[2:]])
                except KeyError:
                    raise unknown_alternative(ln, j, tokens[2:]) from None
                if draft is None:
                    drafts[j] = ((), {(): approved})
                else:
                    warnings.warn(
                        f"line {ln}: duplicate approval for issue {target!r} merged",
                        FormatWarning,
                        stacklevel=2,
                    )
                    draft[1][()] = approved | draft[1][()]
            elif kind == "end":
                if len(tokens) != 1:
                    raise ParseError(ln, "'end' takes no arguments")
                break
            elif kind == "depends":
                if len(tokens) < 4 or tokens[2] != "on":
                    raise ParseError(ln, "expected 'depends <target> on <issue>+'")
                target = tokens[1]
                j = issue_index.get(target)
                if j is None:
                    raise ParseError(ln, f"unknown issue {target!r}")
                members = []
                for name in tokens[3:]:
                    k = issue_index.get(name)
                    if k is None:
                        raise ParseError(ln, f"unknown issue {name!r}")
                    members.append(k)
                conditional_draft(drafts, ln, target, j, tuple(sorted(members)))
            else:
                raise ParseError(ln, f"unknown directive {kind!r}")
        cur.pos = pos
        ballots = [
            IssueBallot(j, scope, statements) for j, (scope, statements) in drafts.items()
        ]
        voters.append((voter_name, ballots))

    if cur.peek() is not None:
        ln, _ = cur.peek()
        raise ParseError(ln, "unexpected content after the last voter block")
    return make_profile(issues, voters)


def _check_token(name: str) -> str:
    if (
        not name
        or any(c.isspace() for c in name)
        or any(c in name for c in "=,#")
        or name in ("if", "then", "on")
    ):
        raise ValueError(f"name {name!r} cannot be written to the text format")
    return name


def serialize_profile(profile: Profile) -> str:
    """Canonical document: issues, statements and approvals in index order."""
    out = ["cmsprofile 1", f"issues {profile.m}"]
    for issue in profile.issues:
        parts = [_check_token(issue.name)] + [_check_token(a) for a in issue.alternatives]
        out.append("issue " + " ".join(parts))
    out.append(f"voters {profile.n}")
    for voter in profile.voters:
        out.append("voter " + _check_token(voter.name))
        for j in sorted(voter.ballots):
            ballot = voter.ballots[j]
            issue = profile.issues[j]
            if not ballot.scope:
                approved = sorted(ballot.statements[()])
                if len(approved) == len(issue.alternatives):
                    continue
                alts = " ".join(issue.alternatives[a] for a in approved)
                out.append(f"approve {issue.name} {alts}")
                continue
            if not ballot.statements:
                names = " ".join(profile.issues[k].name for k in ballot.scope)
                out.append(f"depends {issue.name} on {names}")
                continue
            for premise in sorted(ballot.statements):
                approved = sorted(ballot.statements[premise])
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
    cur = _Cursor(text)
    ln, tokens = cur.take("'cmssolution 1' header")
    if tokens != ["cmssolution", "1"]:
        raise ParseError(ln, "expected header 'cmssolution 1'")
    ln, tokens = cur.take("'cost <int>'")
    if len(tokens) != 2 or tokens[0] != "cost":
        raise ParseError(ln, "expected 'cost <int>'")
    try:
        cost = int(tokens[1])
    except ValueError:
        raise ParseError(ln, f"cost {tokens[1]!r} is not an integer")

    issue_index = {issue.name: j for j, issue in enumerate(profile.issues)}
    voter_names = {voter.name for voter in profile.voters}
    assignment = {}
    per_voter = {}
    while cur.peek() is not None:
        ln, tokens = cur.take("an 'assign' or 'voter' line")
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
            try:
                per_voter[tokens[1]] = int(tokens[3])
            except ValueError:
                raise ParseError(ln, f"dissatisfaction {tokens[3]!r} is not an integer")
        else:
            raise ParseError(ln, f"unknown directive {tokens[0]!r}")
    missing = [profile.issues[j].name for j in range(profile.m) if j not in assignment]
    if missing:
        raise ParseError(
            cur.rows[-1][0] if cur.rows else 1,
            f"assignment missing issues: {', '.join(missing)}",
        )
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
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError(ln, "problem line counts must be integers")
            if num_vars < 1:
                raise ParseError(ln, "formulas need at least one variable")
            header_line = ln
            continue
        if num_vars is None:
            raise ParseError(ln, "clause data before the problem line")
        for token in body.split():
            try:
                lit = int(token)
            except ValueError:
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
        elif tokens[0] == "constraint":
            if alphabet is None:
                raise ParseError(ln, "constraint before the alphabet line")
            if len(tokens) < 3:
                raise ParseError(ln, "expected 'constraint <u> <v> <a>:<b>*'")
            u, v = tokens[1], tokens[2]
            if u == v:
                raise ParseError(ln, "constraints need two distinct variables")
            index = {sym: i for i, sym in enumerate(alphabet)}
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
