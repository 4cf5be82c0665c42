"""Oracle-checked band-census benchmark for conebands.

    python3 perfbench/run.py --workload torus-p1 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout.  Workloads (see workloads.py):

  torus-p1       band_edges for every channel of the 2-torus census at p=1
  circle-high    band_edges for every channel of the circle up to lambda=400
  oracle-verify  oracle_eigenvalues at theta=0 and pi for the torus-p1 channels

The body runs the workload's units (one band_edges call per channel, or one
oracle call per channel and theta) in census order, pass after pass, until
--seconds have passed and at least one full pass is done.  Every unit's
output is checked against oracle references (references.py); a unit that
raises or disagrees counts as failed and the run goes on.

--trace 0 prints the end-to-end metrics; --trace 1 runs one pass with each
unit executed once plain and once under the span tracer (tracer.py),
alternating which goes first, and prints the per-layer metrics.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  --smoke swaps in small windows for the
benchmark's own tests.

The process keeps one Python thread and runs BLAS single-threaded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
MIN_UNIT_SAMPLES = 5  # host-clock samples a unit needs to be scaled by its own
CHILD_TIMEOUT_S = 150
# One BLAS thread: with two on a 2-core host the oracle's run-to-run spread
# reached 20-28% (the second core's availability drifts); with one, 4-8%.
BLAS_THREADS = 1
CACHE_DIR = ROOT / ".perfbench-cache"  # references of seeds other than 0


@dataclass
class Unit:
    label: str
    span: str  # census.scalar | census.pair | oracle.call
    run: Callable[[], list]  # returns the unit's eigenvalues or band edges
    ref: list | None
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    kernels: list = field(default_factory=list)  # host-clock samples taken during each run
    err: float = 0.0  # largest relative error of a passing check
    fails: int = 0  # executions that raised or disagreed with the reference


def child_json(args: list[str]) -> dict:
    """Run a helper script to completion and parse its last stdout line."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cached_refs(wl, seed: int, flags: list[str]) -> dict:
    """References of a seed, computed once per source tree in a child process.

    The cache key hashes the workload, the seed and every source file the
    references depend on, so an edited tree never reads stale values.
    """
    h = hashlib.sha256(repr((wl, seed)).encode())
    for path in sorted((ROOT / "src" / "conebands").glob("*.py")) + [
            HERE / "references.py", HERE / "workloads.py"]:
        h.update(path.read_bytes())
    path = CACHE_DIR / f"{wl.name}-{seed}-{h.hexdigest()[:16]}.json"
    if path.is_file():
        return json.loads(path.read_text())
    refs = child_json([str(HERE / "references.py"), *flags])
    CACHE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(refs))
    os.replace(tmp, path)
    return refs


def make_units(wl, channels, profile, refs) -> list[Unit]:
    from conebands.oracle import oracle_eigenvalues
    from conebands.radial import band_edges
    from references import THETAS, census_edges
    from workloads import channel_key

    by_key = {row["key"]: row for row in refs["channels"]}
    units = []
    for ch in channels:
        key = channel_key(ch)
        row = by_key.get(key)
        if wl.kind == "census":
            units.append(Unit(
                key, "census.pair" if ch.kind == "H5" else "census.scalar",
                lambda ch=ch: census_edges(band_edges(ch, profile, wl.lam_max)),
                None if row is None else row["theta0"] + row["thetapi"]))
            continue
        for label, theta in THETAS:
            units.append(Unit(
                f"{key}@{label}", "oracle.call",
                lambda ch=ch, theta=theta: oracle_eigenvalues(ch, theta, profile, wl.lam_max,
                                                              N=wl.oracle_n),
                None if row is None else row[label]))
    return units


def execute(unit: Unit, lam_max: float, tracer=None, clock=None) -> tuple[float, int]:
    """Run one unit, record its times and check it; returns (wall, values).

    Time the host clock's calibration kernel took during the unit is not
    counted as the unit's.
    """
    from references import match

    idx = tracer.open(unit.span) if tracer is not None else None
    stolen = (clock.stolen_wall, clock.stolen_cpu) if clock is not None else (0.0, 0.0)
    n_kernel = len(clock.samples) if clock is not None else 0
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        vals = unit.run()
    except Exception:  # a failing channel is counted, never fatal
        vals, why = None, "raised\n" + traceback.format_exc()
    finally:
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        if clock is not None:
            wall -= clock.stolen_wall - stolen[0]
            cpu -= clock.stolen_cpu - stolen[1]
        if idx is not None:
            tracer.close(idx)
    if tracer is None:
        unit.walls.append(wall)
        unit.cpus.append(cpu)
        unit.kernels.append(clock.samples[n_kernel:] if clock is not None else [])
    ok = False
    if vals is not None and unit.ref is None:
        why = "no reference for this channel"
    elif vals is not None:
        ok, err, why = match(vals, unit.ref, lam_max)
    if ok:
        unit.err = max(unit.err, err)
    else:
        if not unit.fails:
            print(f"FAIL {unit.label}: {why}", file=sys.stderr)
        unit.fails += 1
    return wall, len(vals or ())


def p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def median_time(fn, repeats: int = 5) -> float:
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return statistics.median(out)


def result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="small windows, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "conebands" / "__init__.py").is_file():
        print(f"no conebands sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(ROOT / "src"))

    from hostclock import HostClock
    from references import load_stored
    from workloads import build_inputs, channel_key, get_workload

    wl = get_workload(args.workload, args.smoke)
    flags = ["--workload", wl.name, "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])

    ts, channels, profile = build_inputs(wl, args.seed)
    t0 = time.perf_counter()
    refs = load_stored(wl.name) if args.seed == 0 and not args.smoke else None
    if refs is not None and ({row["key"] for row in refs["channels"]}
                             != {channel_key(ch) for ch in channels}):
        print("stored references do not cover the enumerated channels; recomputing")
        refs = None
    if refs is None:
        refs = cached_refs(wl, args.seed, flags)
    refs_s = time.perf_counter() - t0
    units = make_units(wl, channels, profile, refs)
    print(f"workload {wl.name} seed {args.seed} profile {refs['profile']} "
          f"lam_max {wl.lam_max}: {len(channels)} channels, {len(units)} units per pass; "
          f"references N={refs['N']} ({refs['solver']}) in {refs_s:.2f} s; "
          f"BLAS threads {BLAS_THREADS}")

    if wl.kind == "oracle":  # lazy LAPACK and thread-pool start-up, untimed
        from conebands.oracle import oracle_eigenvalues
        oracle_eigenvalues(channels[0], 0.0, profile, 1.0, N=100)

    if args.trace:
        return traced_run(wl, ts, units, channels)

    setups = [child_json([str(HERE / "setup_probe.py"), *flags])["setup_s"]
              for _ in range(SETUP_PROBES)]

    # the host clock tracks interpreter-bound census units, not the LAPACK
    # time of oracle units, whose times stay raw (see hostclock.py)
    clock = HostClock() if wl.kind == "census" else None
    t_start = time.perf_counter()
    passes = attempted = 0
    with clock or contextlib.nullcontext():
        while passes == 0 or time.perf_counter() - t_start < args.seconds:
            for unit in units:
                execute(unit, wl.lam_max, clock=clock)
                attempted += 1
                if passes > 0 and time.perf_counter() - t_start >= args.seconds:
                    break
            passes += 1
    speed = clock.speed_factor() if clock is not None else 1.0
    raw_wall = sum(statistics.median(u.walls) for u in units)
    for unit in units:
        factors = [clock.speed_factor(k) if len(k) >= MIN_UNIT_SAMPLES else speed
                   for k in unit.kernels]
        unit.walls = [w / f for w, f in zip(unit.walls, factors)]
        unit.cpus = [c / f for c, f in zip(unit.cpus, factors)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    per_unit = [statistics.median(u.walls) for u in units]
    p50, p90 = p50_p90(per_unit)
    failed_units = [u for u in units if u.fails]
    samples = sum(len(u.walls) for u in units)
    print(f"body: {samples} unit samples over {passes} passes "
          f"({min(len(u.walls) for u in units)}-{max(len(u.walls) for u in units)} per unit); "
          f"host speed factor {speed:.4f} from "
          f"{len(clock.samples) if clock is not None else 0} kernel samples, "
          f"raw wall {raw_wall:.3f} s; "
          f"setup probes {[round(s, 4) for s in setups]}; "
          f"failed units {[u.label for u in failed_units]}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(per_unit), "s"),
        "cpu_s": (sum(statistics.median(u.cpus) for u in units), "s"),
        "channel_p50_s": (p50, "s"),
        "channel_p90_s": (p90, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(result(not failed_units, attempted, sum(u.fails for u in units), metrics))
    return 0


def traced_run(wl, ts, units, channels) -> int:
    from conebands.channels import enumerate_channels
    from conebands.transversal import build_flat_torus_spectrum
    from tracer import Tracer, install, layer_metrics

    tr = Tracer()
    plain = traced = 0.0
    n_values = 0
    for i, unit in enumerate(units):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with install(tr):
                    wall, n = execute(unit, wl.lam_max, tr)
                traced += wall
                n_values += n
            else:
                plain += execute(unit, wl.lam_max)[0]
    if tr.absent:
        print(f"absent layers (reported as 0): {tr.absent}")

    metrics = {
        "transversal.build_s": (
            median_time(lambda: build_flat_torus_spectrum(list(wl.sides), wl.cutoff)), "s"),
        "channels.enumerate_s": (
            median_time(lambda: enumerate_channels(ts, wl.p, wl.lam_max)), "s"),
        "channels.count": (len(channels), "count"),
        "channels.count.H5": (sum(1 for c in channels if c.kind == "H5"), "count"),
    }
    metrics.update(layer_metrics(tr, n_values))
    metrics["check.edge_err_max"] = (max(u.err for u in units), "rel")
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "ratio")
    failed_units = [u for u in units if u.fails]
    print(f"traced pass: {len(units)} units, {n_values} values, "
          f"plain {plain:.3f} s, traced {traced:.3f} s, {len(tr.spans)} spans; "
          f"failed units {[u.label for u in failed_units]}")
    print(result(not failed_units, 2 * len(units), sum(u.fails for u in units), metrics))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
