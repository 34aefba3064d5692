"""Each benchmark check accepts bdmesh's output and rejects a corrupted copy.

Run with:  PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import hashlib
import math
import os
import random
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")]

import oracles  # noqa: E402
from oracles import CheckFailed  # noqa: E402
from bdmesh.probability import min_probes, success_probability  # noqa: E402

K = 64511


def test_law_exact_and_log_space_agree():
    # The lgamma path against exact rationals just above the exact limit.
    k, b, a = oracles.EXACT_K_MAX + 1, 7, 300
    exact = 1 - Fraction(math.comb(k - b, a), math.comb(k, a))
    assert abs(oracles.hit_probability(k, b, a) - float(exact)) < oracles.PROB_TOL / 10


@pytest.mark.parametrize("k,b,a", [(K, 256, 1000), (K, 1, 64000), (2000, 37, 400), (K, 512, 0)])
def test_law_matches_program(k, b, a):
    oracles.check_close("law", success_probability(k, b, a), oracles.hit_probability(k, b, a))


def test_law_check_rejects_a_wrong_probability():
    p = success_probability(K, 256, 1000)
    with pytest.raises(CheckFailed):
        oracles.check_close("law", p + 1e-8, oracles.hit_probability(K, 256, 1000))


def test_lossy_law_matches_program_and_rejects_wrong_delivery():
    loss = 0.05
    want = oracles.lossy_hit_probability(K, 256, 1000, loss)
    oracles.check_close("lossy", success_probability(K, 256, 1000, (1 - loss) ** 2), want)
    with pytest.raises(CheckFailed):   # (1 - loss) instead of (1 - loss)^2
        oracles.check_close("lossy", success_probability(K, 256, 1000, 1 - loss), want)


@pytest.mark.parametrize("b,target", [(1, 0.999), (3, 0.5), (256, 0.99), (4096, 0.73)])
def test_min_probes_check_rejects_off_by_one(b, target):
    a = min_probes(K, b, target)
    oracles.check_min_probes(K, b, target, a)
    for wrong in (a - 1, a + 1):
        with pytest.raises(CheckFailed):
            oracles.check_min_probes(K, b, target, wrong)


def test_success_count_check_rejects_five_sigma():
    n, p = 300, 0.98
    sd = math.sqrt(n * p * (1 - p))
    oracles.check_success_count("punch", round(n * p), n, p)
    with pytest.raises(CheckFailed):
        oracles.check_success_count("punch", round(n * p - 5 * sd), n, p)


def test_echo_check_rejects_one_flipped_byte():
    payload = random.Random(1).randbytes(1024)
    reply = bytearray(hashlib.sha256(payload).digest())
    oracles.check_echo("echo", payload, bytes(reply))
    reply[7] ^= 0x01
    with pytest.raises(CheckFailed):
        oracles.check_echo("echo", payload, bytes(reply))


def _report(paths):
    kinds = {"n0": "hard", "n1": "hard", "n2": "public", "n3": "blocked"}
    ids = sorted(kinds)
    links = [{"a": a, "b": b, "up": True, "encrypted": True, "path": paths[(a, b)]}
             for i, a in enumerate(ids) for b in ids[i + 1:]]
    return {"ok": True, "connected": True, "seed": 1, "links": links}, kinds


GOOD_PATHS = {("n0", "n1"): "relayed", ("n0", "n2"): "direct", ("n0", "n3"): "relayed",
              ("n1", "n2"): "relayed", ("n1", "n3"): "relayed", ("n2", "n3"): "relayed"}


def test_role_table():
    assert oracles.pair_role("hard", "hard") == "relay"
    assert oracles.pair_role("blocked", "public") == "relay"
    assert oracles.pair_role("hard", "easy") == "punch"
    assert oracles.pair_role("easy", "public") == "direct"


def test_mesh_check_rejects_direct_path_on_a_relay_pair():
    report, kinds = _report(GOOD_PATHS)
    oracles.check_mesh_report(report, kinds)   # n1-n2 punched and fell back: allowed
    report, kinds = _report({**GOOD_PATHS, ("n0", "n1"): "direct"})
    with pytest.raises(CheckFailed):
        oracles.check_mesh_report(report, kinds)


def test_mesh_check_rejects_a_missing_or_plain_link():
    report, kinds = _report(GOOD_PATHS)
    report["links"][0]["encrypted"] = False
    with pytest.raises(CheckFailed):
        oracles.check_mesh_report(report, kinds)
    report, kinds = _report(GOOD_PATHS)
    report["links"].pop()
    with pytest.raises(CheckFailed):
        oracles.check_mesh_report(report, kinds)


def _cli(argv):
    import io
    from contextlib import redirect_stderr, redirect_stdout
    from bdmesh import cli
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return out.getvalue()


def test_analyze_table_check_rejects_a_changed_digit():
    from workloads import Analyze
    argv = ["analyze", "table", "--open-ports", "300", "--rate", "100",
            "--durations", "3,9,14,20"]
    out = _cli(argv)
    Analyze._check_table(argv, out)
    row = out.splitlines()[2].split(",")
    row[2] = f"{float(row[2]) + 1e-6:.7f}"
    with pytest.raises(CheckFailed):
        Analyze._check_table(argv, out.replace(out.splitlines()[2], ",".join(row)))


def test_analyze_curve_check_rejects_a_missing_row():
    from workloads import Analyze
    argv = ["analyze", "curve", "--open-ports-list", "64,300", "--max-probes", "1000",
            "--step", "100"]
    out = _cli(argv)
    Analyze._check_curve(argv, out)
    lines = out.splitlines()
    with pytest.raises(CheckFailed):
        Analyze._check_curve(argv, "\n".join(lines[:5] + lines[6:]))
