import json
import math
from fractions import Fraction

import pytest

from conebands.transversal import (
    SpectrumFormatError,
    TransversalSpectrum,
    build_flat_torus_spectrum,
    load_spectrum,
    save_spectrum,
    validate,
)

TWO_PI = 2.0 * math.pi


def test_circle_2pi_cutoff_5():
    # S^1 of circumference 2*pi: scalar eigenvalues k^2, k in Z.
    # Below 5: mu^2 = 1 (k = +-1) and mu^2 = 4 (k = +-2), multiplicity 2 each.
    ts = build_flat_torus_spectrum([TWO_PI], 5)
    assert ts.n == 1
    assert ts.betti == [1, 1]
    assert ts.coexact[0] == [(Fraction(1), 2), (Fraction(4), 2)]
    assert ts.coexact[1] == []
    assert validate(ts).ok


def test_circle_4pi():
    # circumference 4*pi: eigenvalues (k/2)^2 = k^2/4.
    ts = build_flat_torus_spectrum([2 * TWO_PI], 3)
    assert ts.coexact[0] == [
        (Fraction(1, 4), 2),
        (Fraction(1), 2),
        (Fraction(9, 4), 2),
    ]


def test_torus_2d_cutoff_3():
    # T^2 with both sides 2*pi: scalar eigenvalues k1^2 + k2^2.
    # mu^2 = 1: modes (+-1,0),(0,+-1) -> lattice mult 4.
    # mu^2 = 2: modes (+-1,+-1) -> lattice mult 4.
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI], 3)
    assert ts.n == 2
    assert ts.betti == [1, 2, 1]
    assert ts.coexact[0] == [(Fraction(1), 4), (Fraction(2), 4)]
    # coexact 1-forms: C(1,1) = 1 per mode, same multiplicities.
    assert ts.coexact[1] == [(Fraction(1), 4), (Fraction(2), 4)]
    assert ts.coexact[2] == []
    assert validate(ts).ok


def test_exact_rationals_for_rational_sides():
    ts = build_flat_torus_spectrum([TWO_PI / 3, TWO_PI], 10)
    for level in ts.coexact:
        for mu2, _ in level:
            assert isinstance(mu2, Fraction)
    # smallest eigenvalue is 1 (long side); at 9 the short side's k=+-1 and
    # the long side's k=+-3 coincide, multiplicity 4
    assert ts.coexact[0][0] == (Fraction(1), 2)
    assert (Fraction(9), 4) in ts.coexact[0]


def test_irrational_side_falls_back_to_floats():
    ts = build_flat_torus_spectrum([math.e * 2.0], 30)
    assert all(isinstance(mu2, float) for mu2, _ in ts.coexact[0])
    expected = (TWO_PI / (2.0 * math.e)) ** 2
    assert ts.coexact[0][0][0] == pytest.approx(expected, rel=1e-14)
    assert ts.coexact[0][0][1] == 2


def brute_force_form_dims(sides, cutoff, n):
    """Independent count: the flat-torus Hodge Laplacian on q-forms has each
    scalar lattice eigenvalue with multiplicity C(n, q).  Returns dict
    mu2 -> total dimension summed over all q (= 2^n per lattice mult)."""
    weights = [(2.0 * math.pi / s) ** 2 for s in sides]
    out: dict[float, int] = {}
    kmax = [int(math.floor(math.sqrt(cutoff / w))) + 1 for w in weights]
    import itertools

    for ks in itertools.product(*[range(-k, k + 1) for k in kmax]):
        mu2 = sum(w * k * k for w, k in zip(weights, ks))
        if mu2 == 0 or mu2 > cutoff * (1 + 1e-12):
            continue
        key = round(mu2, 9)
        out[key] = out.get(key, 0) + 2**n
    return out


@pytest.mark.parametrize(
    "sides,cutoff",
    [
        ([TWO_PI], 7),
        ([TWO_PI, 2 * TWO_PI], 4),
        ([TWO_PI, TWO_PI, TWO_PI], 3),
    ],
)
def test_total_dimension_matches_brute_force(sides, cutoff):
    n = len(sides)
    ts = build_flat_torus_spectrum(sides, cutoff)
    expect = brute_force_form_dims(sides, cutoff, n)
    got_levels = {round(float(mu2), 9) for mu2, _ in ts.coexact[0]}
    assert got_levels == set(expect)
    # total dimension of the form-valued eigenspace: coexact plus exact
    # q-forms, summed over every degree q
    total: dict[float, int] = {}
    for q in range(n + 1):
        for mu2, m in ts.coexact_at(q) + ts.exact(q):
            key = round(float(mu2), 9)
            total[key] = total.get(key, 0) + m
    assert total == expect


def test_exact_equals_shifted_coexact():
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI], 3)
    assert ts.exact(1) == ts.coexact[0]
    assert ts.exact(0) == []
    assert ts.exact(2) == ts.coexact[1]


def test_validate_catches_betti_asymmetry():
    ts = build_flat_torus_spectrum([TWO_PI], 5)
    ts.betti = [1, 2]
    rep = validate(ts)
    assert not rep.ok
    assert any("duality" in s or "Euler" in s for s in rep.violations)


def test_validate_catches_negative_mu2_and_pairing():
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI], 3)
    ts.coexact[1] = [(Fraction(-1), 1)]
    rep = validate(ts)
    assert not rep.ok
    assert any("<= 0" in s for s in rep.violations)
    assert any("pairing" in s for s in rep.violations)


def test_roundtrip_exact(tmp_path):
    ts = build_flat_torus_spectrum([TWO_PI, 2 * TWO_PI], 5, label="demo")
    p = tmp_path / "spec.json"
    save_spectrum(ts, p)
    ts2 = load_spectrum(p)
    assert ts2.n == ts.n and ts2.label == "demo"
    assert ts2.cutoff == ts.cutoff and isinstance(ts2.cutoff, Fraction)
    assert ts2.betti == ts.betti
    assert ts2.coexact == ts.coexact


def test_roundtrip_float(tmp_path):
    ts = build_flat_torus_spectrum([2.0 * math.e], 20)
    p = tmp_path / "spec.json"
    save_spectrum(ts, p)
    ts2 = load_spectrum(p)
    # float payloads must round-trip bit exactly via repr
    assert ts2.coexact[0] == ts.coexact[0]


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SpectrumFormatError):
        load_spectrum(p)
    p.write_text('{"n": 1, "label": "x", "cutoff": "5", "betti": [1, 1]}')
    with pytest.raises(SpectrumFormatError, match="coexact"):
        load_spectrum(p)
    p.write_text(
        '{"n": 1, "label": "x", "cutoff": "5", "betti": [1, 1],'
        ' "coexact": [[{"mu2": "1", "mult": 0}], []]}'
    )
    with pytest.raises(SpectrumFormatError, match="mult"):
        load_spectrum(p)


def _spectrum_doc(n=1, cutoff="5", betti=(1, 1), mu2="1", mult=2):
    return {"n": n, "label": "x", "cutoff": cutoff, "betti": list(betti),
            "coexact": [[{"mu2": mu2, "mult": mult}, {"mu2": "4", "mult": 2}], []]}


@pytest.mark.parametrize("field,value,message", [
    pytest.param("n", True, "'n' must be a positive integer", id="n"),
    pytest.param("betti", (True, 1), "'betti' must be a list of integers", id="betti"),
    pytest.param("mult", True, "'mult' must be a positive integer", id="mult"),
    pytest.param("mu2", True, "expected number or rational string, got bool", id="mu2"),
    pytest.param("cutoff", True, "expected number or rational string, got bool", id="cutoff"),
])
def test_load_rejects_json_booleans(tmp_path, field, value, message):
    # JSON true loads as Python True, an int subclass; it is no number here
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(_spectrum_doc()))
    assert load_spectrum(p).coexact[0] == [(Fraction(1), 2), (Fraction(4), 2)]
    p.write_text(json.dumps(_spectrum_doc(**{field: value})))
    with pytest.raises(SpectrumFormatError, match=message):
        load_spectrum(p)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_flat_torus_spectrum([], 5)
    with pytest.raises(ValueError):
        build_flat_torus_spectrum([TWO_PI], 0)
    with pytest.raises(ValueError):
        build_flat_torus_spectrum([-1.0], 5)
