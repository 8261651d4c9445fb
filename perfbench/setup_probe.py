"""Set-up of one benchmark run in a fresh interpreter, for the ``setup_s`` metric.

Usage: python3 perfbench/setup_probe.py CONFIGS_JSON

Imports ``adagb2`` from the checkout's ``src``, parses every config in the
JSON list and builds its problem, then prints ``ready``.  The caller times
the span from starting the interpreter to reading that line.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from adagb2 import ExperimentConfig  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    for data in json.load(fh):
        ExperimentConfig.from_dict(data).build_problem()
print("ready", flush=True)
