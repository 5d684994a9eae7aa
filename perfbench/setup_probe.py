"""Set-up as a user pays it: a fresh interpreter imports the package and
builds one workload's GameSpecs.  Prints the two phases in seconds as JSON.

    python3 perfbench/setup_probe.py WORKLOAD
"""

import importlib
import sys
import time
from pathlib import Path

started = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from workloads import WORKLOADS  # noqa: E402  (imports grapheq)

workload = WORKLOADS[sys.argv[1]]
importlib.import_module(workload.setup_import)
imported = time.perf_counter()
workload.build()
built = time.perf_counter()
print(f'{{"import_s": {imported - started!r}, "build_s": {built - imported!r}}}')
