import dataclasses
import gc
import random
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmsvote import (
    ParseError,
    gen_from_multicolored_clique,
    gen_grid,
    gen_random,
    parse_colored_graph,
    parse_csp,
    parse_dimacs,
    parse_profile,
    parse_solution,
    serialize_profile,
    serialize_solution,
    solve_brute,
    total_dissatisfaction,
)
from cmsvote.cli import main
from cmsvote.model import alternatives, approve, issue_ballot, make_profile
from cmsvote.textio import FormatWarning

from helpers import P1_DOC, build_p1

_COND_SYNTAX = "expected 'cond <target> if <issue>=<alt>,... then <alt>+'"


def _split(rng, approved):
    """The approval set as one or two overlapping nonempty parts."""
    values = sorted(approved)
    if len(values) < 2 or rng.random() < 0.5:
        return [values]
    cut = rng.randint(1, len(values) - 1)
    return [values[:cut], values[cut - 1 :]]


def scrambled_document(profile, rng):
    names = [issue.name for issue in profile.issues]
    alts = [issue.alternatives for issue in profile.issues]
    lines = ["cmsprofile 1", f"issues {profile.m}"]
    lines += [f"issue {name} " + " ".join(alts[j]) for j, name in enumerate(names)]
    lines.append(f"voters {profile.n}")
    for voter in profile.voters:
        body = []
        for j, ballot in voter.ballots.items():
            if not ballot.scope:
                for part in _split(rng, alternatives(ballot.statements[()])):
                    body.append(f"approve {names[j]} " + " ".join(alts[j][a] for a in part))
                continue
            if not ballot.statements or rng.random() < 0.3:
                scope = rng.sample(ballot.scope, len(ballot.scope))
                body.append(f"depends {names[j]} on " + " ".join(names[k] for k in scope))
            for premise, approved in ballot.statements.items():
                pairs = rng.sample(list(zip(ballot.scope, premise)), len(premise))
                condition = ",".join(f"{names[k]}={alts[k][v]}" for k, v in pairs)
                for part in _split(rng, alternatives(approved)):
                    body.append(
                        f"cond {names[j]} if {condition} then "
                        + " ".join(alts[j][a] for a in part)
                    )
        for j in range(profile.m):
            if j not in voter.ballots and rng.random() < 0.3:
                # explicit approve-all lines, which the profile leaves out
                for part in _split(rng, range(len(alts[j]))):
                    body.append(f"approve {names[j]} " + " ".join(alts[j][a] for a in part))
        rng.shuffle(body)
        lines += [f"voter {voter.name}"] + body + ["end"]
    return "\n".join(lines) + "\n"


# Tokens the format gives a role to, and tokens it refuses in some places.
_SPECIAL_TOKENS = (
    "approve", "cond", "depends", "end", "voter", "issue",
    "if", "then", "on", "=", ",", "=,", "#",
)


def mutated_document(text, rng):
    """The document after one to three random edits: a token replaced,
    dropped or added, a line dropped, copied or swapped, a voter renamed,
    or a ballot line over the document's own names added before an 'end'.
    New tokens come from the document itself, from ``_SPECIAL_TOKENS`` or
    are premise entries over its declared issues."""
    lines = [line.split() for line in text.splitlines()]
    tokens = [token for line in lines for token in line]
    issues = [line[1:] for line in lines if len(line) > 2 and line[0] == "issue"]

    def premise():
        entries = [rng.choice(issues) for _ in range(rng.randint(1, 2))]
        return ",".join(f"{issue[0]}={rng.choice(issue[1:])}" for issue in entries)

    def token():
        r = rng.random()
        if r < 0.5:
            return rng.choice(tokens)
        return rng.choice(_SPECIAL_TOKENS) if r < 0.8 else premise()

    def ballot_line():
        name, *alts = rng.choice(issues)
        alts = rng.sample(alts, rng.randint(1, len(alts)))
        kind = rng.choice(("approve", "cond", "depends"))
        if kind == "approve":
            return ["approve", name] + alts
        if kind == "cond":
            return ["cond", name, "if", premise(), "then"] + alts
        members = [rng.choice(issues)[0] for _ in range(rng.randint(1, 2))]
        return ["depends", name, "on"] + members

    for _ in range(rng.randint(1, 3)):
        if not lines or not issues:
            break
        at = rng.randrange(len(lines))
        line = lines[at]
        op = rng.randrange(8)
        if op == 0 and line:
            line[rng.randrange(len(line))] = token()
        elif op == 1 and line:
            del line[rng.randrange(len(line))]
        elif op == 2:
            line.insert(rng.randint(0, len(line)), token())
        elif op == 3:
            del lines[at]
        elif op == 4:
            lines.insert(rng.randint(0, len(lines)), list(line))
        elif op == 5:
            other = rng.randrange(len(lines))
            lines[at], lines[other] = lines[other], line
        elif op == 6:
            voters = [row for row in lines if row[:1] == ["voter"]]
            if voters:
                rng.choice(voters)[1:] = [token()]
        elif op == 7:
            ends = [k for k, row in enumerate(lines) if row == ["end"]]
            if ends:
                lines.insert(rng.choice(ends), ballot_line())
    return "\n".join(" ".join(line) for line in lines) + "\n"


class TestProfileParsing:
    def test_p1_document(self):
        assert parse_profile(P1_DOC) == build_p1()

    def test_omitted_issue_defaults_to_approve_all(self):
        doc = P1_DOC.replace("approve B 0\n", "")
        profile = parse_profile(doc)
        # v2 now approves anything for B: outcome B=1 no longer bothers them
        assert total_dissatisfaction(profile, (0, 1)) == 2

    def test_explicit_approve_all_matches_make_profile(self):
        # The parser drops an approve-all line by the rule make_profile uses.
        p1 = build_p1()
        v1, v2 = p1.voters
        built = make_profile(
            [(issue.name, issue.alternatives) for issue in p1.issues],
            [
                (v1.name, list(v1.ballots.values())),
                (v2.name, [approve(0, [0]), approve(1, [0, 1])]),
            ],
        )
        parsed = parse_profile(P1_DOC.replace("approve B 0\n", "approve B 1 0\n"))
        assert parsed == built
        assert list(parsed.voters[1].ballots) == [0]
        assert parse_profile(serialize_profile(built)) == built

    def test_self_premise_rejected(self):
        doc = P1_DOC.replace("cond B if A=0 then 0", "cond B if B=1 then 0")
        with pytest.raises(ParseError) as err:
            parse_profile(doc)
        assert "self-premise" in str(err.value)
        assert err.value.line == 8

    def test_inconsistent_scope_rejected(self):
        doc = P1_DOC.replace(
            "cond B if A=1 then 1", "cond B if A=1,A=0 then 1"
        )
        with pytest.raises(ParseError):
            parse_profile(doc)
        doc2 = """cmsprofile 1
issues 3
issue A 0 1
issue B 0 1
issue C 0 1
voters 1
voter v
cond C if A=0 then 0
cond C if B=0 then 0
end
"""
        with pytest.raises(ParseError) as err:
            parse_profile(doc2)
        assert "inconsistent scope" in str(err.value)

    def test_approve_and_cond_conflict(self):
        doc = P1_DOC.replace("approve A 0", "cond A if B=0 then 0")
        # v2 has approve B 0 after; reorder so cond comes second for B instead
        doc = """cmsprofile 1
issues 2
issue A 0 1
issue B 0 1
voters 1
voter v
approve B 0
cond B if A=0 then 0
end
"""
        with pytest.raises(ParseError) as err:
            parse_profile(doc)
        assert "approval line" in str(err.value)

    def test_unknown_names(self):
        with pytest.raises(ParseError):
            parse_profile(P1_DOC.replace("approve A 1", "approve Z 1"))
        with pytest.raises(ParseError):
            parse_profile(P1_DOC.replace("approve A 1", "approve A 7"))

    def test_header_and_counts(self):
        with pytest.raises(ParseError):
            parse_profile("cmsprofile 2\n")
        with pytest.raises(ParseError):
            parse_profile("cmsprofile 1\nissues 0\n")
        with pytest.raises(ParseError):
            parse_profile(P1_DOC + "voter extra\nend\n")

    def test_non_decimal_digit_counts(self):
        # Counts are ASCII digits only.  "²".isdigit() holds but int("²")
        # fails, and int() reads the Arabic-Indic "٢", the fullwidth "２",
        # "+2", "2_0" and "02", which the serializer would write back as
        # other bytes.
        for count in ("²", "٢", "２", "+2", "2_0", "02"):
            with pytest.raises(ParseError) as err:
                parse_profile(P1_DOC.replace("issues 2", f"issues {count}"))
            assert err.value.line == 2
            with pytest.raises(ParseError) as err:
                parse_profile(P1_DOC.replace("voters 2", f"voters {count}"))
            assert err.value.line == 5

    def test_missing_end(self):
        with pytest.raises(ParseError):
            parse_profile(P1_DOC.rsplit("end", 1)[0])

    def test_duplicate_premise_merges_with_warning(self):
        doc = P1_DOC.replace(
            "cond B if A=0 then 0", "cond B if A=0 then 0\ncond B if A=0 then 1"
        )
        with pytest.warns(FormatWarning):
            profile = parse_profile(doc)
        ballot = profile.voters[0].ballots[1]
        assert ballot.statements[(0,)] == 0b11

    def test_merge_warnings_name_their_lines(self):
        doc = """cmsprofile 1
issues 3
issue A 0 1 2
issue B 0 1
issue C 0 1
voters 1
voter v
approve A 0
cond C if B=1,A=2 then 1
approve A 2
cond C if A=2,B=1 then 0
end
"""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            profile = parse_profile(doc)
        assert [(w.category, str(w.message)) for w in caught] == [
            (FormatWarning, "line 10: duplicate approval for issue 'A' merged"),
            (FormatWarning, "line 11: duplicate premise for issue 'C' merged"),
        ]
        # attributed to the caller of parse_profile
        assert all(w.filename == __file__ for w in caught)
        ballots = profile.voters[0].ballots
        assert ballots[0] == issue_ballot(0, (), {(): {0, 2}})
        assert ballots[2] == issue_ballot(2, (0, 1), {(2, 1): {0, 1}})

    @pytest.mark.parametrize(
        "lines, line, message",
        [
            (["cond C if A=0 then 0", "cond C if B=0 then 0"], 9, "inconsistent scope"),
            (["depends C on A", "cond C if A=1,B=0 then 0"], 9, "inconsistent scope"),
            (["cond C if A=0 then 0", "approve C 1"], 9, "already has conditional lines"),
            (["approve C 1", "depends C on A"], 9, "already has an approval line"),
            (["approve A 1", "cond C if C=0 then 0"], 9, "self-premise"),
            (["approve A 1", "depends C on B C"], 9, "self-premise"),
            (["cond C if A=0,A=1 then 0"], 8, "premise repeats an issue"),
            (["cond C if A=0 then 2"], 8, "unknown alternative '2' for issue 'C'"),
            (["cond C if A=0"], 8, "expected 'cond <target>"),
            (["approve C 0"], 8, "unexpected end of document"),
        ],
    )
    def test_error_lines(self, lines, line, message):
        doc = "\n".join(
            ["cmsprofile 1", "issues 3", "issue A 0 1", "issue B 0 1", "issue C 0 1",
             "voters 1", "voter v"] + lines
        )
        if "unexpected end" not in message:
            doc += "\nend\n"
        with pytest.raises(ParseError) as err:
            parse_profile(doc)
        assert err.value.line == line
        assert message in str(err.value)

    @pytest.mark.parametrize(
        "lines, outcome",
        [
            # approve lines: syntax, target, conflict, alternatives
            (["approve C"], (8, "expected 'approve <issue> <alt>+'")),
            (["approve Z"], (8, "expected 'approve <issue> <alt>+'")),
            (["approve Z 0"], (8, "unknown issue 'Z'")),
            (["approve C 0 7 8"], (8, "unknown alternative '7' for issue 'C'")),
            (["cond C if A=0 then 0", "approve C 1"], (9, "issue 'C' already has conditional lines")),
            (["depends C on A", "approve C 1"], (9, "issue 'C' already has conditional lines")),
            (["cond C if A=0 then 0", "approve C 7"], (9, "issue 'C' already has conditional lines")),
            # cond lines: syntax, target, premise, repeat/self, conflict, alternatives
            (["cond C if A=0"], (8, _COND_SYNTAX)),
            (["cond Z if"], (8, _COND_SYNTAX)),
            (["cond C when A=0 then 0"], (8, _COND_SYNTAX)),
            (["cond C if A=0 B=0 0"], (8, _COND_SYNTAX)),
            (["cond Z if A=0 B=0 0"], (8, "unknown issue 'Z'")),
            (["cond Z if A=0 then 0"], (8, "unknown issue 'Z'")),
            (["cond C if then 0 1"], (8, "conditional lines need a premise and alternatives")),
            (["cond C if A=0 B=0 then"], (8, "conditional lines need a premise and alternatives")),
            (["cond C if A0 then 0"], (8, "malformed premise entry 'A0'")),
            (["cond C if A=0=1 then 0"], (8, "malformed premise entry 'A=0=1'")),
            (["cond C if A=0,,B=0 then 0"], (8, "malformed premise entry ''")),
            (["cond C if A=0 ,=0 then 0"], (8, "unknown issue ''")),
            (["cond C if A=0,Z=0 then 0"], (8, "unknown issue 'Z'")),
            (["cond C if A=2 then 7"], (8, "unknown alternative '2' for issue 'A'")),
            (["cond C if A=0,A=1 then 0"], (8, "premise repeats an issue")),
            (["cond C if C=0,C=1 then 0"], (8, "premise repeats an issue")),
            (["cond C if B=1,C=0 then 0"], (8, "self-premise: 'C' conditions on itself")),
            (["approve C 1", "cond C if A=0 then 7"], (9, "issue 'C' already has an approval line")),
            (
                ["cond C if A=0 then 0", "cond C if B=0 then 0"],
                (9, "inconsistent scope for issue 'C': saw (0,) before"),
            ),
            (
                ["depends C on B A", "cond C if A=0 then 0"],
                (9, "inconsistent scope for issue 'C': saw (0, 1) before"),
            ),
            (["cond C if A=0 then 0 7"], (8, "unknown alternative '7' for issue 'C'")),
            # depends lines: syntax, target, members, repeat/self, conflict
            (["depends C"], (8, "expected 'depends <target> on <issue>+'")),
            (["depends C of A"], (8, "expected 'depends <target> on <issue>+'")),
            (["depends Z on"], (8, "expected 'depends <target> on <issue>+'")),
            (["depends Z on A"], (8, "unknown issue 'Z'")),
            (["depends C on A Z"], (8, "unknown issue 'Z'")),
            (["depends C on A B A"], (8, "premise repeats an issue")),
            (["depends C on C C"], (8, "premise repeats an issue")),
            (["depends C on B C"], (8, "self-premise: 'C' conditions on itself")),
            (["approve C 1", "depends C on A"], (9, "issue 'C' already has an approval line")),
            (
                ["cond C if B=0,A=1 then 0", "depends C on B"],
                (9, "inconsistent scope for issue 'C': saw (0, 1) before"),
            ),
            # end, other directives and the end of the document
            (["end now"], (8, "'end' takes no arguments")),
            (["frobnicate C 0"], (8, "unknown directive 'frobnicate'")),
            (["approve C 0", "voter w"], (9, "unknown directive 'voter'")),
            (["approve C 0"], (8, "unexpected end of document, expected a ballot line or 'end'")),
            ([], (7, "unexpected end of document, expected a ballot line or 'end'")),
            (["end", "voter w", "end"], (9, "unexpected content after the last voter block")),
            # merges: the warnings' text and order
            (
                ["approve C 0", "depends A on B", "approve C 1", "approve C 0 1", "end"],
                [
                    "line 10: duplicate approval for issue 'C' merged",
                    "line 11: duplicate approval for issue 'C' merged",
                ],
            ),
            (
                [
                    "cond C if B=1,A=0 then 0",
                    "depends C on A B",
                    "cond C if A=0,B=1 then 1",
                    "cond A if B=0 then 0",
                    "cond C if A=0 , B=1 then 0",
                    "cond A if B=0 then 0",
                    "end",
                ],
                [
                    "line 10: duplicate premise for issue 'C' merged",
                    "line 12: duplicate premise for issue 'C' merged",
                    "line 13: duplicate premise for issue 'A' merged",
                ],
            ),
            (["approve A 0", "cond C if A=0 then 0", "depends B on C", "end"], []),
        ],
    )
    def test_ballot_line_outcomes(self, lines, outcome):
        # Every ballot-line error names its line and reason, checked in the
        # order syntax, target, premise or members, repeat and self-premise,
        # conflict, alternatives; merges warn in line order.
        doc = "\n".join(
            ["cmsprofile 1", "issues 3", "issue A 0 1", "issue B 0 1", "issue C 0 1",
             "voters 1", "voter v"] + lines
        ) + "\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if isinstance(outcome, tuple):
                with pytest.raises(ParseError) as err:
                    parse_profile(doc)
                assert (err.value.line, err.value.reason) == outcome
                assert not caught
            else:
                parse_profile(doc)
                assert [(w.category, str(w.message)) for w in caught] == [
                    (FormatWarning, message) for message in outcome
                ]

    @pytest.mark.parametrize("seed", range(30))
    def test_ballots_are_built_canonical(self, seed):
        # The statements reach the parser shuffled, premise entries in random
        # order, approval sets split over repeated lines, scopes also
        # declared by depends lines and approve-all lines added; the parsed
        # ballots must still be what issue_ballot builds, with the same
        # canonical types.
        rng = random.Random(seed)
        profile = gen_random(
            6, 4, d_max=3, delta_max=3, statement_density=0.5, seed=seed
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", FormatWarning)
            parsed = parse_profile(scrambled_document(profile, rng))
        assert parsed == profile
        for voter in parsed.voters:
            for j, ballot in voter.ballots.items():
                assert type(ballot.scope) is tuple
                assert all(type(p) is tuple for p in ballot.statements)
                assert all(type(a) is int for a in ballot.statements.values())
                assert ballot == issue_ballot(j, ballot.scope, ballot.statements)

    def test_shared_approval_sets_survive_a_merge(self):
        # Both voters' "then 0" lines share one interned approval set; the
        # merge in v1's ballot must leave v2's ballot as it was filed.
        doc = """cmsprofile 1
issues 2
issue A 0 1
issue B 0 1
voters 2
voter v1
cond B if A=0 then 0
cond B if A=0 then 1
end
voter v2
cond B if A=0 then 0
end
"""
        with pytest.warns(FormatWarning, match="line 8: duplicate premise"):
            profile = parse_profile(doc)
        first, second = (voter.ballots[1] for voter in profile.voters)
        assert first == issue_ballot(1, (0,), {(0,): {0, 1}})
        assert second == issue_ballot(1, (0,), {(0,): {0}})
        assert first.statements is not second.statements

    def test_parsed_ballots_are_read_only(self):
        profile = parse_profile(
            serialize_profile(gen_random(6, 5, d_max=3, delta_max=2, statement_density=0.5, seed=2))
        )
        before = profile.ballots_by_issue
        voter = next(voter for voter in profile.voters if len(voter.ballots) >= 2)
        j, ballot = next(iter(voter.ballots.items()))
        with pytest.raises(TypeError):
            voter.ballots[j] = approve(j, {0})
        with pytest.raises(TypeError):
            del voter.ballots[j]
        for field in ("issue", "scope", "statements"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(ballot, field, getattr(ballot, field))
        assert voter.ballots[j] is ballot
        after = type(profile)(profile.issues, profile.voters).ballots_by_issue
        assert before == after == profile.ballots_by_issue

    def test_parsed_statements_are_untracked_after_a_collection(self):
        # Masks and premise tuples of ints are atomic, so once collected the
        # statement dicts and their premise keys leave the cyclic GC's lists.
        text = serialize_profile(
            gen_random(30, 20, d_max=3, delta_max=3, statement_density=0.3, seed=5)
        )
        profile = parse_profile(text)
        gc.collect()
        statements = [
            ballot.statements for voter in profile.voters for ballot in voter.ballots.values()
        ]
        premises = [premise for stmts in statements for premise in stmts]
        assert len(statements) > 100 and any(premises)
        assert all(type(a) is int for stmts in statements for a in stmts.values())
        assert not any(gc.is_tracked(stmts) for stmts in statements)
        assert not any(gc.is_tracked(premise) for premise in premises)

    def test_parses_share_no_statement_dict(self):
        profile = gen_random(8, 30, d_max=3, delta_max=2, statement_density=0.5, seed=4)
        text = serialize_profile(profile)
        first, second = parse_profile(text), parse_profile(text)
        assert first == second == profile
        dicts = [
            id(ballot.statements)
            for parsed in (first, second)
            for voter in parsed.voters
            for ballot in voter.ballots.values()
        ]
        assert len(dicts) > 60
        assert len(set(dicts)) == len(dicts)

    def test_parse_peak_memory(self):
        # The parser streams its rows and shares premise and approval
        # values, so its peak stays close to the profile it returns.
        text = serialize_profile(
            gen_random(
                500, 500, delta_max=2, statement_density=0.005, seed=1,
                group_dichotomous=True,
            )
        )
        gc.collect()
        tracemalloc.start()
        try:
            profile = parse_profile(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert profile.n == 500
        assert peak <= 1.6 * retained, (peak, retained)

    def test_comments_and_crlf(self):
        doc = P1_DOC.replace("\n", "  # trailing\r\n", 1)
        assert parse_profile(doc) == build_p1()

    def test_statement_free_conditional_roundtrip(self):
        profile = make_profile(
            [("A", ("0", "1")), ("B", ("0", "1"))],
            [("v", [issue_ballot(1, (0,), {})])],
        )
        text = serialize_profile(profile)
        assert "depends B on A" in text
        assert parse_profile(text) == profile


class TestRoundTrip:
    def test_second_serialization_is_byte_identical(self):
        for profile in (build_p1(), gen_grid(3), gen_random(5, 4, 3, 2, 0.5, seed=3)):
            text = serialize_profile(profile)
            again = parse_profile(text)
            assert again == profile
            assert serialize_profile(again) == text

    @given(seed=st.integers(0, 10_000), gd=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_random_profiles_roundtrip(self, seed, gd):
        profile = gen_random(
            5, 4, d_max=3, delta_max=2, statement_density=0.5,
            seed=seed, group_dichotomous=gd,
        )
        assert parse_profile(serialize_profile(profile)) == profile

    @pytest.mark.parametrize("seed", range(6))
    def test_accepted_mutants_roundtrip(self, seed):
        # Whatever document parse_profile accepts, serialize_profile can
        # write its profile, and that document parses back equal.
        rng = random.Random(seed)
        accepted = 0
        for _ in range(150):
            profile = gen_random(
                rng.randint(2, 5), rng.randint(1, 4), d_max=3, delta_max=2,
                statement_density=0.5, seed=rng.randrange(10**6),
            )
            text = mutated_document(scrambled_document(profile, rng), rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", FormatWarning)
                try:
                    parsed = parse_profile(text)
                except ParseError:
                    continue
            accepted += 1
            assert parse_profile(serialize_profile(parsed)) == parsed, text
        assert accepted >= 15

    def test_one_name_rule_on_both_sides(self):
        # Every line reads its tokens by position, so keywords are names like
        # any other.  A premise entry cannot name an issue or alternative
        # holding '=' or ',', so the parser refuses those on the issue line
        # and the serializer refuses to write them; voter names may hold them.
        profile = make_profile(
            [("on", ("if", "then")), ("if", ("on", "end")), ("then", ("x", "y"))],
            [
                ("=,", [issue_ballot(0, (1, 2), {(0, 1): [1]}), approve(2, [1])]),
                ("on", [issue_ballot(1, (0,), {}), approve(2, [0])]),
                ("i0=0,i1=1", [issue_ballot(2, (0,), {(1,): [0]})]),
            ],
        )
        text = serialize_profile(profile)
        assert "cond on if if=on,then=y then then" in text
        assert "depends if on on" in text
        assert parse_profile(text) == profile
        for line, name in [("issue A=0 0 1", "A=0"), ("issue A 0 1,2", "1,2"), ("issue A = 1", "=")]:
            with pytest.raises(ParseError) as err:
                parse_profile(P1_DOC.replace("issue A 0 1", line))
            assert (err.value.line, err.value.reason) == (
                3, f"issue and alternative names may not hold '=' or ',': {name!r}"
            )
        for issues in ([("A=0", ("0", "1"))], [("A", ("0", "1,2"))]):
            with pytest.raises(ValueError, match="cannot be written"):
                serialize_profile(make_profile(issues, [("v", [])]))

    def test_unserializable_name_rejected(self):
        profile = make_profile([("has space", ("0", "1"))], [("v", [])])
        with pytest.raises(ValueError):
            serialize_profile(profile)


class TestSolutionDocuments:
    def test_roundtrip(self):
        p1 = build_p1()
        solution = solve_brute(p1)
        text = serialize_solution(p1, solution)
        cost, outcome, per_voter = parse_solution(text, p1)
        assert (cost, outcome) == (solution.cost, solution.outcome)
        assert per_voter == {"v1": 1, "v2": 0}

    def test_missing_assignment(self):
        p1 = build_p1()
        text = "cmssolution 1\ncost 1\nassign A 0\n\n# trailing comment\n"
        with pytest.raises(ParseError) as err:
            parse_solution(text, p1)
        assert "missing issues" in str(err.value)
        assert err.value.line == 3

    def test_end_of_document_names_the_last_line(self):
        p1 = build_p1()
        for text, line in (("", 1), ("\ncmssolution 1\n\n", 2), ("cmssolution 1\ncost 1\n", 2)):
            with pytest.raises(ParseError) as err:
                parse_solution(text, p1)
            assert err.value.line == line

    @pytest.mark.parametrize(
        "token", ["1_0", "+1", "٣", "１", "1.0", "-", "--1", "01", "-01", "-0", "00"]
    )
    def test_non_canonical_integers_rejected(self, token):
        # int() reads "1_0" as 10, "+1" as 1 and "٣" as 3, so verify would
        # confirm a cost the document does not spell; "01" and "-0" are not
        # the bytes the serializer writes for their values.
        p1 = build_p1()
        cost_doc = f"cmssolution 1\ncost {token}\nassign A 0\nassign B 0\n"
        with pytest.raises(ParseError) as err:
            parse_solution(cost_doc, p1)
        assert err.value.line == 2
        dissat_doc = f"cmssolution 1\ncost 1\nassign A 0\nassign B 0\nvoter v1 dissat {token}\n"
        with pytest.raises(ParseError) as err:
            parse_solution(dissat_doc, p1)
        assert err.value.line == 5

    def test_negative_integers_parse(self):
        # A negative claim parses, so verify reports it as a mismatch.
        text = "cmssolution 1\ncost -3\nassign A 0\nassign B 0\nvoter v1 dissat -1\n"
        assert parse_solution(text, build_p1()) == (-3, (0, 0), {"v1": -1})
        text = "cmssolution 1\ncost -10\nassign A 0\nassign B 0\nvoter v1 dissat 0\n"
        assert parse_solution(text, build_p1()) == (-10, (0, 0), {"v1": 0})

    def test_duplicate_and_unknown(self):
        p1 = build_p1()
        with pytest.raises(ParseError):
            parse_solution("cmssolution 1\ncost 0\nassign A 0\nassign A 1\n", p1)
        with pytest.raises(ParseError):
            parse_solution("cmssolution 1\ncost 0\nassign A 0\nassign Z 1\n", p1)
        with pytest.raises(ParseError):
            parse_solution("cmssolution 1\ncost 0\nassign A 9\nassign B 0\n", p1)

    def test_voter_listed_twice(self, tmp_path, capsys):
        # A later line must not overwrite an earlier claim for the same
        # voter: verify would then confirm a document that claims both.
        grid = gen_grid(2)
        text = serialize_solution(grid, solve_brute(grid))
        text = text.replace("voter rows dissat 0\n", "voter rows dissat 99\n") + (
            "voter rows dissat 0\n"
        )
        with pytest.raises(ParseError) as err:
            parse_solution(text, grid)
        assert err.value.line == 9
        assert "voter 'rows' listed twice" in str(err.value)
        profile_path = tmp_path / "grid.profile"
        profile_path.write_text(serialize_profile(grid))
        solution_path = tmp_path / "grid.solution"
        solution_path.write_text(text)
        assert main(["verify", str(profile_path), str(solution_path)]) == 2
        assert "listed twice" in capsys.readouterr().err


class TestDimacs:
    def test_basic(self):
        cnf = parse_dimacs("c a comment\np cnf 2 1\n1 -2 0\n")
        assert cnf.num_vars == 2
        assert cnf.clauses == ((1, -2),)

    def test_clause_spanning_lines(self):
        cnf = parse_dimacs("p cnf 3 2\n1 2\n3 0 -1\n-2 0\n")
        assert cnf.clauses == ((1, 2, 3), (-1, -2))

    def test_errors(self):
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n5 0\n")  # literal out of range
        with pytest.raises(ParseError):
            parse_dimacs("1 0\n")  # clause before header
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 2\n1 0\n")  # count mismatch
        with pytest.raises(ParseError):
            parse_dimacs("p cnf 2 1\n1 2\n")  # unterminated clause

    @pytest.mark.parametrize(
        "text",
        [
            "p cnf 1_0 1\n1 0\n",
            "p cnf ² 1\n1 0\n",  # a digit int() rejects
            "p cnf 1 ١\n1 0\n",  # a non-ASCII decimal digit
            "p cnf 02 1\n1 0\n",
            "p cnf +2 1\n1 0\n",
            "p cnf 2 1\n+1 0\n",
            "p cnf 2 1\n1 -٢ 0\n",
            "p cnf 2 1\n1_0 0\n",
            "p cnf 2 1\n01 0\n",
            "p cnf 2 1\n1 -0\n",  # -0 does not end a clause
            "p cnf 2 1\n1 00\n",
        ],
        ids=lambda text: text.replace("\n", "|"),
    )
    def test_non_canonical_integers_rejected(self, text):
        with pytest.raises(ParseError, match="integer"):
            parse_dimacs(text)


class TestGeneratorInputFormats:
    def test_colored_graph(self):
        graph = parse_colored_graph(
            "class r r0 r1\nclass g g0\nedge r0 g0\n"
        )
        assert graph.colors == ("r", "g")
        # padded to equal class size
        assert len(graph.classes[1]) == 2
        profile = gen_from_multicolored_clique(graph)
        assert profile.m == 3

    def test_colored_graph_errors(self):
        with pytest.raises(ParseError):
            parse_colored_graph("edge a b\n")
        with pytest.raises(ParseError):
            parse_colored_graph("class r r0\nedge r0 zz\n")

    def test_csp(self):
        csp = parse_csp("alphabet a b\nconstraint u v a:b b:a\nconstraint v w\n")
        assert csp.variables() == ("u", "v", "w")
        assert csp.constraints[1][2] == ()

    def test_csp_errors(self):
        with pytest.raises(ParseError):
            parse_csp("constraint u v a:b\n")
        with pytest.raises(ParseError):
            parse_csp("alphabet a b\nconstraint u u a:b\n")
        with pytest.raises(ParseError):
            parse_csp("alphabet a b\nconstraint u v a:z\n")
