"""Cold set-up probe, run in a fresh interpreter with ``src`` on the path.

Times what every CLI invocation pays before its real work: importing
``stablepar.cli`` and one small goodness-of-fit test, whose first call
builds the lazily tabulated stable CDF.  Then times the calibration
kernel and scales the set-up time by it.  Prints one JSON line.
"""

import json
import statistics
import time

t0 = time.perf_counter()
import stablepar.cli  # noqa: E402,F401
from stablepar.rng import RandomStream  # noqa: E402
from stablepar.stable import ad_stable_test  # noqa: E402

t1 = time.perf_counter()

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from inputs import cms_symmetric  # noqa: E402

sample = cms_symmetric(1.8, 200, np.random.default_rng(7))
t2 = time.perf_counter()
p_value = ad_stable_test(sample, n_sims=100, rng=RandomStream(7))
t3 = time.perf_counter()
if not 0.0 <= p_value <= 1.0:
    raise SystemExit(f"p-value {p_value} outside [0, 1]")
kernel_s = statistics.median(calibration.samples(7))
print(json.dumps({
    "import_s": t1 - t0,
    "first_gof_s": t3 - t2,
    "setup_s": (t1 - t0 + t3 - t2) * calibration.REFERENCE_S / kernel_s,
}))
