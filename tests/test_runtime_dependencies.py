"""The runtime needs NumPy alone: a round that fine-tunes loads no SciPy.

SciPy's import holds ~44 MiB resident; the fine-tuning solver (Alg. 1
line 6) was the only reason the runtime loaded it.  The check runs in a
fresh interpreter, since the test process itself may have imported SciPy
as a reference.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The golden row whose every round reaches the fine-tuning solver.
GOLDEN = ROOT / "tests" / "golden" / "mergesfl_cifar10_alexnet_seed3.json"

SCRIPT = """
import json, sys
from repro.api.session import Session
from repro.config import ExperimentConfig
from repro.core import controller

solved = []
tune = controller.tune_batch_sizes

def counting(*args, **kwargs):
    sizes, solution = tune(*args, **kwargs)
    solved.append(solution is not None)
    return sizes, solution

controller.tune_batch_sizes = counting
config = ExperimentConfig.from_dict(json.loads(sys.argv[1]))
with Session.from_config(config) as session:
    session.run(1)
print(json.dumps({"solved": sum(solved),
                  "scipy": sorted(name for name in sys.modules
                                  if name.split(".")[0] == "scipy")}))
"""


def test_a_round_that_fine_tunes_imports_no_scipy():
    config = json.loads(GOLDEN.read_text())["config"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(config)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300, check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["solved"] == 1, report
    assert report["scipy"] == []
