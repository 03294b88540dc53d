"""Set-up probe, run by run.py in a fresh interpreter.

    python3 bench/setup_probe.py SRC_DIR < configs.json

Reads a JSON list of scenario configs on standard input and prints the
seconds from the start of `import robustagg.cli` (numpy included) to every
scenario validated by `Scenario.from_dict`, as wall and as steady time
(see speed.py).
"""

import json
import sys
import time

from speed import SpeedSampler

configs = json.load(sys.stdin)
sys.path.insert(0, sys.argv[1])
with SpeedSampler() as sampler:
    t0 = time.perf_counter()
    from robustagg import cli  # noqa: E402
    from robustagg.scenario import Scenario  # noqa: E402

    for config in configs:
        Scenario.from_dict(config)
    t1 = time.perf_counter()
print(json.dumps({"wall_s": t1 - t0, "steady_s": sampler.steady(t0, t1), "module": cli.__file__}))
