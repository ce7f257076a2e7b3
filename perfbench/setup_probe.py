"""One set-up of a workload, as a fresh process: imports, inputs, model build.

    python3 perfbench/setup_probe.py WORKLOAD SEED

run.py starts this several times and reports the median wall time as
setup_s: interpreter start, importing specbulk, generating the seeded
inputs, and building and validating the models, up to the first timed call.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402

if __name__ == "__main__":
    env.use_checkout_source()
    from workloads import WORKLOADS

    WORKLOADS[sys.argv[1]].set_up(int(sys.argv[2]))
