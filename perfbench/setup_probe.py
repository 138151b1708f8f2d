"""Time relgw's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py ENTRY...

Imports relgw, builds the named catalog entries and one seed table under a
SpeedMeter, and prints the reference seconds and the wall seconds that
took.  run.py starts this several times per run and reports the median
reference time as setup_s.
"""

import sys
import time
from pathlib import Path

from speedmeter import SpeedMeter, rescale

with SpeedMeter() as meter:
    start = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

    import relgw.cli  # noqa: E402,F401  (imports every engine module)
    from relgw.kbeval import seed_table  # noqa: E402
    from relgw.spaces import builtin  # noqa: E402

    for name in sys.argv[1:]:
        builtin(name)
    seed_table()
    end = time.perf_counter()
    time.sleep(0.03)   # the tick that closes the last stretch
wall, ref = rescale(start, end, meter.ticks)
print(ref, wall)
