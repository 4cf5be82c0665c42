"""Transversal (cross-section) spectral data.

The periodic manifold is a warped product over a closed cross-section.
Everything downstream needs from the cross-section is:

  * Betti numbers b_q,
  * the coexact q-form eigenvalues mu^2 > 0 with multiplicities, for every q.

build_flat_torus_spectrum computes them for a flat torus, the product of
its circles: the Kuenneth product of the circles' spectra.  load_spectrum
reads them from a file.  validate's Euler-characteristic check (chi = 0)
holds for a flat cross-section, so it refuses others, such as the round S^2.

For flat tori with side lengths that are rational multiples of 2*pi the
eigenvalues are exact rationals and are kept as `fractions.Fraction`; any
other side length falls back to floats.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, float]

# Relative tolerance for float mu^2 comparisons.  Rational data is compared
# exactly and never goes through this.
MU2_RTOL = 1e-12


class SpectrumFormatError(ValueError):
    """Raised when a spectrum file is malformed."""


def _same_mu2(a: Scalar, b: Scalar) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    fa, fb = float(a), float(b)
    return abs(fa - fb) <= MU2_RTOL * max(abs(fa), abs(fb))


@dataclass
class TransversalSpectrum:
    """Cross-section data: dimension, Betti numbers, coexact eigenvalues.

    coexact[q] is a sorted list of (mu2, mult) with mu2 > 0.
    """

    n: int
    label: str
    cutoff: Scalar
    betti: list[int]
    coexact: list[list[tuple[Scalar, int]]]


def build_flat_torus_spectrum(side_lengths, cutoff, label: str | None = None) -> TransversalSpectrum:
    """Spectrum of the flat torus R^n / (l_1 Z x ... x l_n Z) up to `cutoff`.

    The torus is the product of its circles, so its spectrum is the Kuenneth
    product (_product) of theirs.  The circle of side l has the eigenvalues
    (2 pi k / l)^2, k >= 1, each twice, on functions; they are exact
    rationals when every l / (2 pi) snaps to a rational (within 1e-12
    relative) and floats otherwise.
    """
    sides = list(side_lengths)
    if not sides:
        raise ValueError("need at least one side length")

    cut = _positive(cutoff, f"cutoff must be positive and finite, got {cutoff!r}")
    sides = [float(_positive(s, "side lengths must be positive and finite")) for s in sides]
    weights = [_circle_weight(s) for s in sides]
    if not all(isinstance(w, Fraction) for w in weights):
        weights = [float(w) for w in weights]
    betti, coexact = functools.reduce(lambda a, b: _product(a, b, cut),
                                      [_circle(w, cut) for w in weights])

    if label is None:
        label = "torus(" + ",".join(f"{s:.12g}" for s in sides) + ")"
    return TransversalSpectrum(n=len(sides), label=label, cutoff=cut, betti=betti,
                               coexact=coexact)


def _circle_weight(side: float) -> Scalar:
    """(2 pi / side)^2, a Fraction when side / (2 pi) snaps to a rational;
    inf, a circle with no levels, when the float overflows."""
    ratio = side / (2.0 * math.pi)
    # denominator cap 10^4 keeps generic irrational ratios (best error
    # ~ 5e-9) safely outside the 1e-12 snap window
    snapped = Fraction(ratio).limit_denominator(10_000)
    if abs(float(snapped) - ratio) <= 1e-12 * max(1.0, abs(ratio)) and snapped > 0:
        return 1 / snapped**2
    k = 2.0 * math.pi / side
    return k * k


def _within(x: Scalar, cut: Scalar) -> bool:
    """x <= cut, up to the rounding of a float sum of levels."""
    return float(x) <= float(cut) * (1 + 1e-15)


def _circle(w: Scalar, cut: Scalar) -> tuple[list[int], list[list[tuple[Scalar, int]]]]:
    """(betti, coexact) below cut of the circle whose first eigenvalue is w."""
    levels = []
    k = 1
    while _within(w * k * k, cut):
        levels.append((w * k * k, 2))
        k += 1
    return [1, 1], [levels, []]


def _product(A, B, cut: Scalar) -> tuple[list[int], list[list[tuple[Scalar, int]]]]:
    """(betti, coexact) below cut of A x B, by Kuenneth.  On (i + j)-forms
    the Hodge Laplacian has the eigenvalues alpha + beta of the i-forms of A
    and the j-forms of B, multiplicities multiplied.  Less its b_q zeros and
    its exact forms coexact[q - 1], the q-form spectrum is coexact[q]."""
    full = [[] for _ in range(len(A[0]) + len(B[0]) - 1)]
    for i in range(len(A[0])):
        for j in range(len(B[0])):
            full[i + j] += [(alpha + beta, ma * mb) for alpha, ma in _forms(A, i)
                            for beta, mb in _forms(B, j) if _within(alpha + beta, cut)]
    betti = [sum(m for mu2, m in terms if mu2 == 0) for terms in full]
    coexact: list[list[tuple[Scalar, int]]] = []
    for q, terms in enumerate(full):
        # zeros stay out of the merge: they are betti, not coexact
        exact = [(mu2, -m) for mu2, m in (coexact[q - 1] if q else [])]
        coexact.append(_merge([t for t in terms if t[0] != 0] + exact))
    return betti, coexact


def _forms(spectrum, q: int) -> list[tuple[Scalar, int]]:
    """The q-form spectrum of (betti, coexact): b_q zeros, coexact, exact."""
    betti, coexact = spectrum
    return [(0, betti[q])] + coexact[q] + (coexact[q - 1] if q else [])


def _merge(terms: list[tuple[Scalar, int]]) -> list[tuple[Scalar, int]]:
    """The levels of terms in ascending order, equal ones (_same_mu2) summed
    into the first, and those whose multiplicities cancel left out."""
    merged: list[list] = []
    for mu2, m in sorted(terms, key=lambda t: t[0]):
        if merged and _same_mu2(merged[-1][0], mu2):
            merged[-1][1] += m
        else:
            merged.append([mu2, m])
    return [(mu2, m) for mu2, m in merged if m]


def _positive(x, message: str) -> Scalar:
    """x as a Fraction (from an int, a Fraction or a rational string) or a
    float; ValueError(message) unless x is a real number (not a bool or a
    numpy bool) or a string whose double value is positive and finite."""
    try:
        val = Fraction(x) if isinstance(x, (int, str, Fraction)) else float(x)
        ok = (isinstance(x, (numbers.Real, str)) and not isinstance(x, bool)
              and 0 < float(val) < math.inf)
    except (ZeroDivisionError, OverflowError, ValueError):  # "1/0", 10**400, "x"
        ok = False
    if not ok:
        raise ValueError(message)
    return val


def validate(ts: TransversalSpectrum) -> list[str]:
    """Consistency checks on cross-section data: the violations found, an
    empty list when the data is consistent.

    Checked: a positive cutoff, list lengths, Betti numbers b_q >= 0, Betti
    duality b_q = b_{n-q}, Euler characteristic zero (every closed flat
    manifold has chi = 0, by Gauss-Bonnet-Chern), positivity of mu^2 and
    multiplicities, every coexact list non-decreasing in mu^2 and below the
    cutoff, and the Hodge-star pairing coexact[q] ~ coexact[n-q-1].
    """
    v: list[str] = []
    n = ts.n
    if not float(ts.cutoff) > 0:  # refuses a NaN too
        v.append(f"cutoff {ts.cutoff} is not positive")
    if len(ts.betti) != n + 1:
        v.append(f"betti has length {len(ts.betti)}, expected {n + 1}")
    if len(ts.coexact) != n + 1:
        v.append(f"coexact has length {len(ts.coexact)}, expected {n + 1}")
    if not v:
        for q in range(n + 1):
            if ts.betti[q] < 0:
                v.append(f"betti[{q}] = {ts.betti[q]} < 0")
            if ts.betti[q] != ts.betti[n - q]:
                v.append(f"betti duality violated at q={q}: {ts.betti[q]} != {ts.betti[n - q]}")
        chi = sum((-1) ** q * ts.betti[q] for q in range(n + 1))
        if chi != 0:
            v.append(f"Euler characteristic {chi} != 0")
        for q in range(n + 1):
            levels = [float(mu2) for mu2, _ in ts.coexact[q]]
            if any(b < a for a, b in zip(levels, levels[1:])):
                v.append(f"coexact[{q}] is not sorted by mu2")
            for mu2, m in ts.coexact[q]:
                if float(mu2) <= 0:
                    v.append(f"coexact[{q}] contains mu2={mu2} <= 0")
                if m <= 0:
                    v.append(f"coexact[{q}] has nonpositive multiplicity at mu2={mu2}")
                if float(mu2) > float(ts.cutoff) * (1 + MU2_RTOL):
                    v.append(f"coexact[{q}] contains mu2={mu2} above cutoff {ts.cutoff}")
        if ts.coexact[n]:
            v.append("coexact in top degree n must be empty")
        # Hodge star pairs coexact q-forms with coexact (n-q-1)-forms: the
        # levels of one less those of the other cancel
        for q in range(n):
            qq = n - q - 1
            if _merge(ts.coexact[q] + [(mu2, -m) for mu2, m in ts.coexact[qq]]):
                v.append(f"Hodge pairing violated: coexact[{q}] != coexact[{qq}]")
    return v


# ---------------------------------------------------------------------------
# serialization


def _scalar_to_json(x: Scalar):
    if isinstance(x, Fraction):
        return str(x)
    return float(x)


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true/false load as bool, an int subclass."""
    return isinstance(x, int) and not isinstance(x, bool)


def _scalar_from_json(x, where: str) -> Scalar:
    """The number or rational string x of the field `where`, finite as a
    double: a Fraction from an integer or a rational string, else a float."""
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise SpectrumFormatError(f"{where}: expected number or rational string, "
                                  f"got {type(x).__name__}")
    try:
        val = Fraction(x) if isinstance(x, (int, str)) else x
        finite = math.isfinite(val)
    except (ValueError, ZeroDivisionError) as e:
        raise SpectrumFormatError(f"{where}: bad rational literal {x!r}: {e}") from e
    except OverflowError:
        finite = False
    if not finite:
        raise SpectrumFormatError(f"{where}: must be finite, got {x!r}")
    return val if isinstance(val, Fraction) else float(val)


def save_spectrum(ts: TransversalSpectrum, path) -> None:
    """Write spectrum data as JSON.  Rationals go as 'a/b' strings so the
    round-trip is exact (load_spectrum reads a JSON integer as a rational
    too); floats rely on repr round-tripping."""
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
    """Read the JSON spectrum file that save_spectrum writes at `path`.

    Checks the fields' presence and types, sorts each coexact list by mu2
    and runs validate on the result.  Raises SpectrumFormatError for
    invalid JSON, a document that is not an object, a missing or ill-typed
    field, or a spectrum that fails validate."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise SpectrumFormatError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise SpectrumFormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
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
        if not isinstance(level, list):
            raise SpectrumFormatError(f"{path}: coexact[{q}] must be a list")
        entries = []
        for j, item in enumerate(level):
            where = f"{path}: coexact[{q}][{j}]"
            if not isinstance(item, dict) or "mu2" not in item or "mult" not in item:
                raise SpectrumFormatError(f"{where}: expected object with 'mu2' and 'mult'")
            mult = item["mult"]
            if not _is_int(mult) or mult <= 0:
                raise SpectrumFormatError(f"{where}: 'mult' must be a positive integer")
            entries.append((_scalar_from_json(item["mu2"], f"{where}: 'mu2'"), mult))
        entries.sort(key=lambda t: float(t[0]))
        coexact.append(entries)
    ts = TransversalSpectrum(
        n=n,
        label=str(doc["label"]),
        cutoff=_scalar_from_json(doc["cutoff"], f"{path}: field 'cutoff'"),
        betti=betti,
        coexact=coexact,
    )
    violations = validate(ts)
    if violations:
        raise SpectrumFormatError(f"{path}: invalid spectrum: " + "; ".join(violations))
    return ts
