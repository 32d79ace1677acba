import random
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
from cmsvote.model import issue_ballot, make_profile
from cmsvote.textio import FormatWarning

from helpers import P1_DOC, build_p1


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
                for part in _split(rng, ballot.statements[()]):
                    body.append(f"approve {names[j]} " + " ".join(alts[j][a] for a in part))
                continue
            if not ballot.statements or rng.random() < 0.3:
                scope = rng.sample(ballot.scope, len(ballot.scope))
                body.append(f"depends {names[j]} on " + " ".join(names[k] for k in scope))
            for premise, approved in ballot.statements.items():
                pairs = rng.sample(list(zip(ballot.scope, premise)), len(premise))
                condition = ",".join(f"{names[k]}={alts[k][v]}" for k, v in pairs)
                for part in _split(rng, approved):
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


class TestProfileParsing:
    def test_p1_document(self):
        assert parse_profile(P1_DOC) == build_p1()

    def test_omitted_issue_defaults_to_approve_all(self):
        doc = P1_DOC.replace("approve B 0\n", "")
        profile = parse_profile(doc)
        # v2 now approves anything for B: outcome B=1 no longer bothers them
        assert total_dissatisfaction(profile, (0, 1)) == 2

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
        assert ballot.statements[(0,)] == frozenset({0, 1})

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
                assert all(type(a) is frozenset for a in ballot.statements.values())
                assert ballot == issue_ballot(j, ballot.scope, ballot.statements)

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
        text = "cmssolution 1\ncost 1\nassign A 0\n"
        with pytest.raises(ParseError) as err:
            parse_solution(text, p1)
        assert "missing issues" in str(err.value)

    def test_duplicate_and_unknown(self):
        p1 = build_p1()
        with pytest.raises(ParseError):
            parse_solution("cmssolution 1\ncost 0\nassign A 0\nassign A 1\n", p1)
        with pytest.raises(ParseError):
            parse_solution("cmssolution 1\ncost 0\nassign A 0\nassign Z 1\n", p1)
        with pytest.raises(ParseError):
            parse_solution("cmssolution 1\ncost 0\nassign A 9\nassign B 0\n", p1)


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
