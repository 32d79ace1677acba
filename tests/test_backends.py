"""The numba kernels and the numpy fallbacks must be interchangeable."""

import random
import subprocess
import sys

import pytest

from cmsvote import _backend, _dinic, _scan, gen_random
from cmsvote.mincut import build_network

from helpers import child_env, random_constraints

needs_numba = pytest.mark.skipif(
    not _backend.HAVE_NUMBA, reason="numba unavailable"
)


@needs_numba
class TestLaneAgreement:
    def test_scan_lanes_agree(self):
        for seed in range(25):
            profile = gen_random(
                5, 4, d_max=3, delta_max=2, statement_density=0.6, seed=seed
            )
            compiled = _scan.compile_evaluator(profile)
            assert _scan.scan_best(compiled, use_numba=True) == _scan.scan_best(
                compiled, use_numba=False
            )

    def test_scan_lanes_agree_with_early_zero(self):
        profile = gen_random(
            6, 2, d_max=2, delta_max=1, statement_density=0.1, seed=3
        )
        compiled = _scan.compile_evaluator(profile)
        assert _scan.scan_best(compiled, use_numba=True) == _scan.scan_best(
            compiled, use_numba=False
        )

    def test_dinic_lanes_agree(self):
        for seed in range(25):
            rng = random.Random(seed)
            n_vars = rng.randint(1, 7)
            network = build_network(
                random_constraints(rng, n_vars, rng.randint(1, 9)), n_vars
            )
            args = (
                network.n_nodes,
                network.source,
                network.sink,
                network.head,
                network.nxt,
                network.to,
                network.cap,
            )
            flow_nb, side_nb = _dinic.max_flow(*args, use_numba=True)
            flow_py, side_py = _dinic.max_flow(*args, use_numba=False)
            assert flow_nb == flow_py
            assert side_nb.tolist() == side_py.tolist()


def test_env_flag_selects_numpy_lane():
    env = child_env(CMS_BACKEND="numpy")
    proc = subprocess.run(
        [sys.executable, "-c", "import cmsvote; print(cmsvote.BACKEND)"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "numpy"


def test_env_flag_rejects_unknown_value():
    env = child_env(CMS_BACKEND="cuda")
    proc = subprocess.run(
        [sys.executable, "-c", "import cmsvote"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode != 0
    assert "CMS_BACKEND must be" in proc.stderr


def test_numpy_lane_solves_p1_in_subprocess():
    env = child_env(CMS_BACKEND="numpy")
    code = (
        "from cmsvote import gen_grid, solve_brute, solve_mincut;"
        "p = gen_grid(2);"
        "print(solve_brute(p).cost, solve_mincut(p).cost)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["0", "0"]
