"""The benchmark's outside tracer (``cmsbench/tracing.py``) wraps package
attributes by name, so a package change that drops or renames one of them
would stop every traced benchmark run.  These tests load the tracer by path,
unchanged, and check the names against the package."""

import importlib
import importlib.util
import pathlib

from cmsvote import (
    approve,
    build_network,
    classify,
    compile_constraints,
    dispatch,
    gen_grid,
    gen_random,
    issue_ballot,
    make_profile,
    mincut,
)

TRACING = pathlib.Path(__file__).resolve().parents[1] / "cmsbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("cmsbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_a_package_callable():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    for module_name, attr, _ in wrapped:
        assert module_name.split(".")[0] == "cmsvote", module_name
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), (module_name, attr)


def test_traced_solves_settle_and_uninstall():
    tracing = load_tracing()
    originals = [
        getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _ in tracing.WRAPPED
    ]
    # One MINCUT, one TREEWIDTH and one BRUTE component.
    profiles = [
        gen_grid(3),
        gen_random(6, 4, d_max=3, delta_max=1, statement_density=0.5, seed=3),
        gen_random(6, 4, d_max=3, delta_max=2, statement_density=0.5, seed=3),
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for profile in profiles:
            dispatch.solve_profile(profile)
    finally:
        tracer.uninstall()
    tracer.settle(0)
    restored = [
        getattr(importlib.import_module(module_name), attr)
        for module_name, attr, _ in tracing.WRAPPED
    ]
    assert restored == originals
    names = {record[0] for record in tracer.spans}
    assert {"dispatch", "mincut", "treewidth", "treewidth.nice", "brute"} <= names
    # The solver, not classify, puts each TREEWIDTH component's decomposition
    # in nice form: the tracer reads the width and table entries there.
    nice_parents = [
        tracer.spans[record[3]][0] for record in tracer.spans if record[0] == "treewidth.nice"
    ]
    treewidth_components = sum(
        comp.route == "TREEWIDTH"
        for profile in profiles
        for comp in classify(profile).components
    )
    assert treewidth_components > 0
    assert nice_parents == ["treewidth"] * treewidth_components


def test_traced_mincut_counts_match_the_compiled_network():
    # The tracer counts constraints and gadget arcs from the compile result
    # alone, reading each constraint's pos and neg terms.
    profile = gen_random(
        30, 25, delta_max=3, statement_density=0.3, seed=2, group_dichotomous=True
    )
    constraints, _ = compile_constraints(profile)
    network = build_network(constraints, profile.m)
    assert len(network.to) // 2 > len(constraints) > 0
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mincut.solve_mincut(profile)
    finally:
        tracer.uninstall()
    tracer.settle(0)
    counts = [record[4] for record in tracer.spans if record[0] == "mincut.compile"]
    assert counts == [
        {"mincut.constraints": len(constraints), "mincut.arcs": len(network.to) // 2}
    ]


def test_a_traced_solve_opens_every_solve_path_span():
    # A per-layer metric reads zero, without any error, when a layer calls
    # the next through a reference that the tracer does not replace, such as
    # one bound at import time.  So every solve-path span must open.
    isolated = make_profile(
        [("A", ("0", "1")), ("B", ("0", "1")), ("C", ("x", "y"))],
        [
            ("v", [approve(0, {1}), issue_ballot(1, (0,), {(0,): {0}, (1,): {1}})]),
            ("w", [approve(2, {1})]),
        ],
    )
    profiles = [
        gen_grid(3),
        gen_random(6, 4, d_max=3, delta_max=1, statement_density=0.5, seed=3),
        gen_random(6, 4, d_max=3, delta_max=2, statement_density=0.5, seed=3),
        isolated,
    ]
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        methods = [dispatch.solve_profile(profile).method for profile in profiles]
    finally:
        tracer.uninstall()
    tracer.settle(0)
    assert methods[-1] == "mincut+majority"
    names = {record[0] for record in tracer.spans}
    assert {
        "dispatch",
        "analysis.classify",
        "dispatch.split",
        "dispatch.majority",
        "mincut",
        "mincut.compile",
        "mincut.network",
        "mincut.flow",
        "brute",
        "treewidth",
        "treewidth.compile",
        "treewidth.decompose",
        "treewidth.nice",
        "model.verify",
    } <= names


def test_traced_route_unions_settle():
    # Several MINCUT and several TREEWIDTH components are solved as one
    # union per route; make_nice still runs inside the treewidth span, where
    # the tracer reads the width and table entries.
    profile = gen_random(30, 8, d_max=2, delta_max=1, statement_density=0.05, seed=1)
    routes = [comp.route for comp in classify(profile).components]
    assert routes.count("MINCUT") >= 2 and routes.count("TREEWIDTH") >= 2
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        dispatch.solve_profile(profile)
    finally:
        tracer.uninstall()
    tracer.settle(0)
    names = [record[0] for record in tracer.spans]
    assert names.count("mincut") == names.count("treewidth") == 1
    (nice,) = [record for record in tracer.spans if record[0] == "treewidth.nice"]
    assert tracer.spans[nice[3]][0] == "treewidth"
    assert nice[4]["treewidth.table_entries"] > 0
