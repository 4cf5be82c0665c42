"""Transversal (cross-section) spectral data.

The periodic manifold is a warped product over a closed flat cross-section.
Everything downstream needs from the cross-section is:

  * Betti numbers b_q,
  * the coexact q-form eigenvalues mu^2 > 0 with multiplicities, for every q.

Exact q-form data never needs separate storage: d is an isomorphism from
coexact (q-1)-forms onto exact q-forms, so exact[q] == coexact[q-1].

For flat tori with side lengths that are rational multiples of 2*pi the
eigenvalues are exact rationals and are kept as `fractions.Fraction`; any
other side length falls back to floats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

# Relative tolerance for float mu^2 comparisons.  Rational data is compared
# exactly and never goes through this.
MU2_RTOL = 1e-12


class SpectrumFormatError(ValueError):
    """Raised when a spectrum file is malformed."""


def _as_float(x: Scalar) -> float:
    return float(x)


def _same_mu2(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= MU2_RTOL * max(1.0, abs(fa), abs(fb))


@dataclass
class TransversalSpectrum:
    """Cross-section data: dimension, Betti numbers, coexact eigenvalues.

    coexact[q] is a sorted list of (mu2, mult) with mu2 > 0.  exact(q)
    returns the exact q-form data, which is coexact[q-1] by d-isomorphism.
    """

    n: int
    label: str
    cutoff: Scalar
    betti: list[int]
    coexact: list[list[tuple[Scalar, int]]]

    def exact(self, q: int) -> list[tuple[Scalar, int]]:
        if q - 1 < 0 or q - 1 >= len(self.coexact):
            return []
        return list(self.coexact[q - 1])

    def coexact_at(self, q: int) -> list[tuple[Scalar, int]]:
        if q < 0 or q >= len(self.coexact):
            return []
        return list(self.coexact[q])


@dataclass
class ValidationReport:
    ok: bool
    violations: list[str] = field(default_factory=list)


def build_flat_torus_spectrum(side_lengths, cutoff, label: str | None = None) -> TransversalSpectrum:
    """Spectrum of the flat torus R^n / (l_1 Z x ... x l_n Z) up to `cutoff`.

    A lattice mode k in Z^n has scalar eigenvalue sum_i (2 pi k_i / l_i)^2.
    On q-forms every scalar eigenfunction is decorated by a constant q-form;
    splitting along the mode covector gives C(n-1, q) coexact directions per
    nonzero mode (the rest are exact, i.e. coexact in degree q-1).

    Side lengths that are rational multiples of 2*pi (detected within 1e-12
    relative) give exact rational eigenvalues.
    """
    sides = list(side_lengths)
    n = len(sides)
    if n < 1:
        raise ValueError("need at least one side length")

    cut = _parse_scalar(cutoff)
    if _as_float(cut) <= 0:
        raise ValueError("cutoff must be positive")

    # weight_i = (2 pi / l_i)^2, exact when l_i/(2 pi) snaps to a rational.
    weights: list[Scalar] = []
    all_exact = True
    for s in sides:
        if isinstance(s, str):
            s = Fraction(s)
        if isinstance(s, (Fraction, int)):
            # side given directly as a multiple of 2*pi? No: sides are true
            # lengths, so a Fraction side cannot be an exact 2*pi multiple.
            s = float(s)
        if not (s > 0) or not math.isfinite(s):
            raise ValueError("side lengths must be positive and finite")
        ratio = s / (2.0 * math.pi)
        # denominator cap 10^4 keeps generic irrational ratios (best error
        # ~ 5e-9) safely outside the 1e-12 snap window
        snapped = Fraction(ratio).limit_denominator(10_000)
        if abs(float(snapped) - ratio) <= 1e-12 * max(1.0, abs(ratio)) and snapped > 0:
            weights.append(1 / snapped**2)
        else:
            weights.append((2.0 * math.pi / s) ** 2)
            all_exact = False

    if not all_exact:
        weights = [float(w) for w in weights]
        cut_cmp: Scalar = float(cut)
    else:
        cut_cmp = cut if isinstance(cut, Fraction) else Fraction(cut).limit_denominator(10**9)

    # Enumerate lattice modes with sum k_i^2 w_i <= cutoff.  mult carries the
    # sign degeneracy 2 per nonzero k_i.
    lattice: dict[Scalar, int] = {}

    def within(x: Scalar) -> bool:
        if all_exact:
            return x <= cut_cmp
        return float(x) <= float(cut_cmp) * (1 + 1e-15)

    def recurse(i: int, acc: Scalar, mult: int):
        if i == n:
            if acc != 0:
                _bump(lattice, acc, mult)
            return
        w = weights[i]
        k = 0
        while True:
            term = acc + w * k * k
            if not within(term):
                break
            recurse(i + 1, term, mult * (1 if k == 0 else 2))
            k += 1

    recurse(0, Fraction(0) if all_exact else 0.0, 1)

    betti = [math.comb(n, q) for q in range(n + 1)]
    coexact: list[list[tuple[Scalar, int]]] = []
    for q in range(n):
        per_mode = math.comb(n - 1, q)
        entries = []
        if per_mode > 0:
            for mu2, m in lattice.items():
                entries.append((mu2, m * per_mode))
        entries.sort(key=lambda t: _as_float(t[0]))
        coexact.append(entries)
    # degree n carries no coexact forms (top degree) but keep the slot so
    # indexing by q in [0, n] is uniform.
    coexact.append([])

    if label is None:
        label = "torus(" + ",".join(f"{float(s):.12g}" for s in sides) + ")"
    return TransversalSpectrum(n=n, label=label, cutoff=cut, betti=betti, coexact=coexact)


def _bump(d: dict, key: Scalar, inc: int) -> None:
    for k in d:
        if _same_mu2(k, key):
            d[k] += inc
            return
    d[key] = inc


def _parse_scalar(x) -> Scalar:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, int):
        return Fraction(x)
    return float(x)


def validate(ts: TransversalSpectrum) -> ValidationReport:
    """Consistency checks on cross-section data.

    Checked: list lengths, Betti duality b_q = b_{n-q}, Euler characteristic
    zero (every closed flat manifold has chi = 0, by Gauss-Bonnet-Chern),
    positivity of mu^2 and multiplicities, Hodge-star pairing coexact[q] ~
    coexact[n-q-1], and completeness ordering below cutoff.
    """
    v: list[str] = []
    n = ts.n
    if len(ts.betti) != n + 1:
        v.append(f"betti has length {len(ts.betti)}, expected {n + 1}")
    if len(ts.coexact) != n + 1:
        v.append(f"coexact has length {len(ts.coexact)}, expected {n + 1}")
    if not v:
        for q in range(n + 1):
            if ts.betti[q] != ts.betti[n - q]:
                v.append(f"betti duality violated at q={q}: {ts.betti[q]} != {ts.betti[n - q]}")
        chi = sum((-1) ** q * ts.betti[q] for q in range(n + 1))
        if chi != 0:
            v.append(f"Euler characteristic {chi} != 0")
        for q in range(n + 1):
            for mu2, m in ts.coexact[q]:
                if _as_float(mu2) <= 0:
                    v.append(f"coexact[{q}] contains mu2={mu2} <= 0")
                if m <= 0:
                    v.append(f"coexact[{q}] has nonpositive multiplicity at mu2={mu2}")
                if _as_float(mu2) > _as_float(ts.cutoff) * (1 + MU2_RTOL):
                    v.append(f"coexact[{q}] contains mu2={mu2} above cutoff {ts.cutoff}")
        if ts.coexact[n]:
            v.append("coexact in top degree n must be empty")
        # Hodge star pairs coexact q-forms with coexact (n-q-1)-forms.
        for q in range(n):
            qq = n - q - 1
            if not _same_multiset(ts.coexact[q], ts.coexact[qq]):
                v.append(f"Hodge pairing violated: coexact[{q}] != coexact[{qq}]")
    return ValidationReport(ok=not v, violations=v)


def _same_multiset(a: list[tuple[Scalar, int]], b: list[tuple[Scalar, int]]) -> bool:
    if len(a) != len(b):
        return False
    sa = sorted(a, key=lambda t: _as_float(t[0]))
    sb = sorted(b, key=lambda t: _as_float(t[0]))
    for (m1, c1), (m2, c2) in zip(sa, sb):
        if c1 != c2 or not _same_mu2(m1, m2):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization


def _scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true/false load as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _scalar_from_json(x) -> Scalar:
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as e:
            raise SpectrumFormatError(f"bad rational literal {x!r}: {e}") from e
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return float(x)
    raise SpectrumFormatError(f"expected number or rational string, got {type(x).__name__}")


def save_spectrum(ts: TransversalSpectrum, path) -> None:
    """Write spectrum data as JSON.  Rationals go as 'a/b' strings so the
    round-trip is bit exact; floats rely on repr round-tripping."""
    doc = {
        "n": ts.n,
        "label": ts.label,
        "cutoff": _scalar_to_json(ts.cutoff),
        "betti": list(ts.betti),
        "coexact": [
            [{"mu2": _scalar_to_json(mu2), "mult": m} for mu2, m in level]
            for level in ts.coexact
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_spectrum(path) -> TransversalSpectrum:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpectrumFormatError(f"{path}: not valid JSON: {e}") from e
    for key in ("n", "label", "cutoff", "betti", "coexact"):
        if key not in doc:
            raise SpectrumFormatError(f"{path}: missing field '{key}'")
    n = doc["n"]
    if not _is_int(n) or n < 1:
        raise SpectrumFormatError(f"{path}: field 'n' must be a positive integer")
    betti = doc["betti"]
    if not isinstance(betti, list) or not all(_is_int(b) for b in betti):
        raise SpectrumFormatError(f"{path}: field 'betti' must be a list of integers")
    raw_co = doc["coexact"]
    if not isinstance(raw_co, list):
        raise SpectrumFormatError(f"{path}: field 'coexact' must be a list")
    coexact = []
    for q, level in enumerate(raw_co):
        entries = []
        for j, item in enumerate(level):
            where = f"{path}: coexact[{q}][{j}]"
            if not isinstance(item, dict) or "mu2" not in item or "mult" not in item:
                raise SpectrumFormatError(f"{where}: expected object with 'mu2' and 'mult'")
            mult = item["mult"]
            if not _is_int(mult) or mult <= 0:
                raise SpectrumFormatError(f"{where}: 'mult' must be a positive integer")
            entries.append((_scalar_from_json(item["mu2"]), mult))
        entries.sort(key=lambda t: _as_float(t[0]))
        coexact.append(entries)
    ts = TransversalSpectrum(
        n=n,
        label=str(doc["label"]),
        cutoff=_scalar_from_json(doc["cutoff"]),
        betti=betti,
        coexact=coexact,
    )
    rep = validate(ts)
    if not rep.ok:
        raise SpectrumFormatError(f"{path}: invalid spectrum: " + "; ".join(rep.violations))
    return ts
