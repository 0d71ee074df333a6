"""Time the program's set-up in a fresh interpreter and print it in seconds.

Set-up is importing stpt (which loads numpy and scipy) and loading a config
file, everything `stpt` does before its first operation.

    python3 perfbench/probe_setup.py SRC_DIR CONFIG
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import stpt.cli  # noqa: E402,F401  (imports every stpt module, numpy and scipy)
from stpt.config import load_run_config  # noqa: E402

load_run_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
