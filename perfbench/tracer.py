"""In-memory span tracer for the traced benchmark run.

The tracer rebinds module-level names of conebands to wrappers that record
a span (name, start, end, parent) per call, and restores them on exit.  The
program itself is not edited: radial looks these names up as module
globals at call time, so a rebinding reaches every internal call.

A name that a later version removes or renames is reported as an absent
layer instead of raising, so a change may rename internals without editing
the benchmark; its metrics then read 0 and trace.absent_layers counts it.

A monodromy evaluated inside a brentq or minimize_scalar span is root
polish, and so is the one re-evaluation at the minimiser that follows a
minimize_scalar (its noise-floor check); any other is part of the lambda
scan.
"""

from __future__ import annotations

import time
from collections import Counter

POLISH = ("radial.brentq", "radial.minimize_scalar")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._polish_depth = 0
        self._dip_x = None  # minimiser of the last minimize_scalar
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def total(self, name: str) -> float:
        return sum(e - s for n, s, e, _ in self.spans if n == name)

    def calls(self, name: str) -> int:
        return sum(1 for sp in self.spans if sp[0] == name)

    # -- rebinding --------------------------------------------------------

    def wrap(self, module, attr: str, on_result=None) -> None:
        """Record a span for every call of module.attr while installed."""
        layer = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        orig = getattr(module, attr, None)
        if not callable(orig):
            self.absent.append(layer)
            return
        polish = layer in POLISH
        tracer = self

        def traced(*args, **kwargs):
            name = layer
            if layer == "radial.monodromy":
                lam = args[1] if len(args) > 1 else kwargs.get("lam")
                at_dip = tracer._dip_x is not None and lam == tracer._dip_x
                tracer._dip_x = None
                name += ".polish" if tracer._polish_depth or at_dip else ".scan"
            idx = tracer.open(name)
            tracer._polish_depth += polish
            try:
                res = orig(*args, **kwargs)
            finally:
                tracer._polish_depth -= polish
                tracer.close(idx)
            if layer == "radial.minimize_scalar":
                tracer._dip_x = getattr(res, "x", None)
            if on_result is not None:
                on_result(tracer.counts, args, res)
            return res

        setattr(module, attr, traced)
        self._restore.append((module, attr, orig))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for module, attr, orig in reversed(self._restore):
            setattr(module, attr, orig)
        self._restore.clear()
        return False


def _count_series_terms(counts, args, basis):
    f, g = getattr(basis, "f_coef", None), getattr(basis, "g_coef", None)
    if f is not None and g is not None:
        counts["cone_series_terms"] += len(f) + len(g)
        counts["cone_series_bases"] += 1


def _count_dim(counts, args, res):
    if args and hasattr(args[0], "shape"):
        counts["oracle_dim_max"] = max(counts["oracle_dim_max"], int(args[0].shape[0]))


def install(tracer: Tracer) -> Tracer:
    """Wrap every traced layer of conebands on `tracer`."""
    from conebands import oracle, radial

    tracer.wrap(radial, "monodromy")
    tracer.wrap(radial, "cone_basis", _count_series_terms)
    tracer.wrap(radial, "brentq")
    tracer.wrap(radial, "minimize_scalar")
    tracer.wrap(oracle, "dense_hermitian_eigenvalues", _count_dim)
    return tracer


def layer_metrics(tr: Tracer, n_edges: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    Body spans opened by the benchmark are named census.scalar, census.pair
    (one band_edges call each) and oracle.call (one oracle_eigenvalues call).
    """
    scan = tr.calls("radial.monodromy.scan")
    polish = tr.calls("radial.monodromy.polish")
    mono_s = tr.total("radial.monodromy.scan") + tr.total("radial.monodromy.polish")
    bases = tr.counts["cone_series_bases"]
    polish_s = sum(e - s for n, s, e, parent in tr.spans
                   if n in POLISH and (parent < 0 or tr.spans[parent][0] not in POLISH))
    eigh_s = tr.total("oracle.dense_hermitian_eigenvalues")
    return {
        "radial.monodromy_calls.scan": (scan, "count"),
        "radial.monodromy_calls.polish": (polish, "count"),
        "radial.monodromy_us": (1e6 * mono_s / (scan + polish) if scan + polish else 0.0, "us"),
        "radial.cone_basis_calls": (tr.calls("radial.cone_basis"), "count"),
        "radial.cone_basis_s": (tr.total("radial.cone_basis"), "s"),
        "radial.cone_series_terms": (tr.counts["cone_series_terms"] / bases if bases else 0.0,
                                     "terms"),
        "radial.polish_s": (polish_s, "s"),
        "radial.brentq_calls": (tr.calls("radial.brentq"), "count"),
        "radial.dip_solves": (tr.calls("radial.minimize_scalar"), "count"),
        "radial.monodromy_per_edge": ((scan + polish) / n_edges if n_edges else 0.0,
                                      "calls/edge"),
        "radial.band_edges_s.scalar": (tr.total("census.scalar"), "s"),
        "radial.band_edges_s.pair": (tr.total("census.pair"), "s"),
        "oracle.eigh_s": (eigh_s, "s"),
        "oracle.assemble_s": (max(0.0, tr.total("oracle.call") - eigh_s), "s"),
        "oracle.dim_max": (tr.counts["oracle_dim_max"], "count"),
        "trace.absent_layers": (len(tr.absent), "count"),
    }
