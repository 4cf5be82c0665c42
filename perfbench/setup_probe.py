"""Time the set-up of one workload in a fresh interpreter.

Set-up is what a census pays before its first channel: importing conebands
(and with it numpy and scipy), building the transversal spectrum,
enumerating the channels, building the profile and reading the stored
reference file.  Prints {"setup_s": ...} as JSON.

    python3 perfbench/setup_probe.py --workload torus-p1 --seed 0
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))

    import conebands.channels  # noqa: F401
    import conebands.oracle  # noqa: F401
    import conebands.radial  # noqa: F401
    from references import load_stored
    from workloads import build_inputs, get_workload

    wl = get_workload(args.workload, args.smoke)
    build_inputs(wl, args.seed)
    load_stored(wl.name)
    print(json.dumps({"setup_s": time.perf_counter() - T0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
