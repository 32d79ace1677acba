"""``analyze`` output pinned byte for byte on small seeded profiles.

Each case's ``to_text()`` and ``to_kv()`` output is kept under
``tests/data/analyze/<case>.txt`` and ``<case>.kv``.  Together the cases
cover a MINCUT component whose min-fill width is past ``WIDTH_THRESHOLD``,
per-voter vertex covers past ``VC_REPORT_CAP``, many components with mixed
routes, a TREEWIDTH route with small widths, a BRUTE route, ``gen_grid(3)``
and a SAT reduction that routes INTRACTABLE.  A change to the report kernels
(min-fill, vertex cover) must leave every file as it is; a deliberate change
to the report format rewrites them from ``CASES``.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from cmsvote import classify, gen_from_sat, gen_grid, gen_random

from helpers import random_cnf

DATA = Path(__file__).parent / "data" / "analyze"

CASES = {
    "mincut_wide": lambda: gen_random(
        30, 8, delta_max=2, statement_density=0.5, seed=0, group_dichotomous=True
    ),
    "covers_past_cap": lambda: gen_random(
        40, 4, d_max=3, delta_max=1, statement_density=0.8, seed=1
    ),
    "many_components": lambda: gen_random(
        120, 20, delta_max=1, statement_density=0.01, seed=0
    ),
    "treewidth_routes": lambda: gen_random(
        40, 6, delta_max=1, statement_density=0.2, seed=1
    ),
    "brute_route": lambda: gen_random(
        12, 6, d_max=3, delta_max=3, statement_density=0.2, seed=5
    ),
    "grid3": lambda: gen_grid(3),
    "sat_intractable": lambda: gen_from_sat(random_cnf(random.Random(0), 30, 120), 15),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_analyze_output_is_unchanged(case):
    report = classify(CASES[case]())
    assert report.to_text() == (DATA / f"{case}.txt").read_text()
    assert report.to_kv() == (DATA / f"{case}.kv").read_text()


def test_cases_cover_the_report_kernels():
    reports = {case: classify(make()) for case, make in CASES.items()}
    wide = reports["mincut_wide"].components
    assert any(c.route == "MINCUT" and c.heuristic_width is None for c in wide)
    assert None in reports["covers_past_cap"].per_voter_vertex_cover
    assert reports["many_components"].component_count > 50
    assert {c.route for c in reports["treewidth_routes"].components} >= {"TREEWIDTH"}
    assert {c.route for c in reports["brute_route"].components} >= {"BRUTE"}
    assert [c.route for c in reports["sat_intractable"].components] == ["INTRACTABLE"]
