"""Regenerate the stored seed-0 references in perfbench/refs/.

    python3 perfbench/regen_refs.py [workload ...]

Each file holds, per channel, the oracle eigenvalues at theta = 0 and pi
(Richardson, on the workload's ref_n grid: 500 for torus-p1, 1000 for
oracle-verify, 2000 for circle-high) computed with the oracle's own dense
solver.  The script also runs the transfer-matrix census on the same inputs,
stores its band edges beside the oracle values, and refuses to write a file
whose two routes disagree in count or beyond references.TOL.  It takes a few
minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from conebands.radial import band_edges
    from references import census_edges, compute_refs, match, stored_path
    from workloads import WORKLOADS, build_inputs, channel_key

    names = argv or sorted(WORKLOADS)
    for name in names:
        wl = WORKLOADS[name]
        refs = compute_refs(wl, 0, banded=False)
        _, channels, profile = build_inputs(wl, 0)
        worst = 0.0
        for ch, row in zip(channels, refs["channels"]):
            assert row["key"] == channel_key(ch)
            edges = census_edges(band_edges(ch, profile, wl.lam_max))
            ok, err, why = match(edges, row["theta0"] + row["thetapi"], wl.lam_max)
            if not ok:
                print(f"{name} {row['key']}: census and oracle disagree: {why}",
                      file=sys.stderr)
                return 1
            row["census_edges"] = edges
            worst = max(worst, err)
        with open(stored_path(name), "w") as fh:
            json.dump(refs, fh, indent=1)
            fh.write("\n")
        n = sum(len(r["theta0"]) + len(r["thetapi"]) for r in refs["channels"])
        print(f"{name}: {len(channels)} channels, {n} values, "
              f"census vs oracle max relative error {worst:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
