"""One-off traced build of the shipped p=256 three-class density.

    python3 perfbench/reference_trace.py [--out perfbench/reference/threeclass_p256_density.json]

Runs `specbulk density` on configs/threeclass.json once, with the
benchmark's tracer installed, and writes the per-layer metrics, the wall
time and the run manifest as JSON. The build takes several minutes on two
cores, which is why it is a reference record and not a workload.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import env  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(
        env.ROOT / "perfbench" / "reference" / "threeclass_p256_density.json"))
    args = parser.parse_args(argv)
    env.use_checkout_source()
    import specbulk.cli as cli

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    work = Path(tempfile.mkdtemp(prefix="_work-", dir=env.ROOT / "perfbench"))
    try:
        start = time.perf_counter()
        code = cli.main(["density", "--config", str(env.ROOT / "configs" / "threeclass.json"),
                         "--out", str(work)])
        wall = time.perf_counter() - start
        support = json.loads((work / "support.json").read_text())
    finally:
        tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)
    layers = tracer.layer_metrics()
    layers["trace.wall_s"] = wall
    record = {
        "command": "specbulk density --config configs/threeclass.json",
        "exit_code": code,
        "wall_s": wall,
        "support": support["support"],
        "total_mass": support["total_mass"],
        "layers": {k: v for k, v in layers.items() if v},
        "manifest": env.manifest("reference-threeclass-p256", 0),
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record["layers"], indent=2, sort_keys=True))
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
