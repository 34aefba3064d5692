"""Each entry point imports only what it runs.

jsonschema, the process pool and the simulator cost most of a fresh
process's start-up, so they load on first use.  The test process has
imported all of them already, so every check runs in a clean
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, sys

def loaded(*names):
    return sorted(n for n in names if n in sys.modules)

seen = {}
import bdmesh.cli
seen["after_cli"] = loaded("bdmesh.netsim", "bdmesh.montecarlo")
import bdmesh.montecarlo, bdmesh.realbackend, bdmesh.scenario
seen["after_all"] = loaded("jsonschema", "concurrent.futures.process", "multiprocessing")

from bdmesh import scenario
path = scenario.bundled_scenario_path("fullmesh5.json")
scenario.load_scenario(path)
seen["after_validate"] = loaded("jsonschema")
validator = scenario._validator()

import jsonschema
def no_build(*args, **kwargs):
    raise AssertionError("a second validator was built")
jsonschema.Draft202012Validator = no_build
scenario.load_scenario(path)
seen["reused"] = scenario._validator() is validator
print(json.dumps(seen))
"""


def run_clean(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_heavy_modules_load_on_first_use():
    seen = run_clean(PROBE)
    assert seen["after_cli"] == []
    assert seen["after_all"] == []
    assert seen["after_validate"] == ["jsonschema"]
    assert seen["reused"] is True
