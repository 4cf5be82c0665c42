import json
import math
from fractions import Fraction

import pytest

from conebands.channels import enumerate_channels
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
    assert validate(ts) == []


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
    assert validate(ts) == []


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


def test_string_side_builds_like_its_fraction():
    # a side is parsed once, as the cutoff is: the default label once took
    # float("1/3") and raised
    ts = build_flat_torus_spectrum(["1/3"], 1000)
    ref = build_flat_torus_spectrum([Fraction(1, 3)], 1000)
    assert ts.coexact[0] and (ts.betti, ts.coexact) == (ref.betti, ref.coexact)
    assert ts.label == ref.label == "torus(0.333333333333)"


def brute_force_lattice(sides, cutoff):
    """Independent count: dict mu2 -> number of nonzero lattice modes k in
    Z^n with scalar eigenvalue mu2 = sum_i (2 pi k_i / l_i)^2 <= cutoff."""
    weights = [(2.0 * math.pi / s) ** 2 for s in sides]
    out: dict[float, int] = {}
    kmax = [int(math.floor(math.sqrt(cutoff / w))) + 1 for w in weights]
    import itertools

    for ks in itertools.product(*[range(-k, k + 1) for k in kmax]):
        mu2 = sum(w * k * k for w, k in zip(weights, ks))
        if mu2 == 0 or mu2 > cutoff * (1 + 1e-12):
            continue
        key = round(mu2, 9)
        out[key] = out.get(key, 0) + 1
    return out


@pytest.mark.parametrize(
    "sides,cutoff",
    [
        ([TWO_PI], 7),
        ([TWO_PI, 2 * TWO_PI], 4),
        ([TWO_PI, TWO_PI, TWO_PI], 3),
        ([TWO_PI] * 4, 10),
        # float sides: the product sums the levels in another order
        ([2.0 * math.e] * 3, 30),
        # a long side: hundreds of circle levels below the cutoff
        ([40 * TWO_PI, TWO_PI], 50),
    ],
)
def test_total_dimension_matches_brute_force(sides, cutoff):
    # On q-forms every lattice mode carries C(n, q) constant q-forms;
    # splitting along the mode covector leaves C(n-1, q) of them coexact.
    n = len(sides)
    ts = build_flat_torus_spectrum(sides, cutoff)
    lattice = brute_force_lattice(sides, cutoff)
    for q in range(n + 1):
        got = {round(float(mu2), 9): m for mu2, m in ts.coexact[q]}
        assert got == {mu2: math.comb(n - 1, q) * m for mu2, m in lattice.items() if q < n}
    # total dimension of the form-valued eigenspace: coexact plus exact
    # q-forms, summed over every degree q, is 2^n per lattice mode
    total: dict[float, int] = {}
    for q in range(n + 1):
        # exact q-forms are the d-image of the coexact (q-1)-forms
        for mu2, m in ts.coexact[q] + (ts.coexact[q - 1] if q else []):
            key = round(float(mu2), 9)
            total[key] = total.get(key, 0) + m
    assert total == {mu2: 2**n * m for mu2, m in lattice.items()}


def test_float_cutoff_is_compared_as_a_float():
    # a float cutoff was once snapped to a rational of denominator <= 10^9,
    # which turned 4e-14 into 0 and dropped every level below it; levels
    # this small must not merge into the zeros either
    sides = [1e7 * TWO_PI] * 2
    want = build_flat_torus_spectrum(sides, "4/100000000000000").coexact
    assert want[0] == [(Fraction(k, 10**14), 4) for k in (1, 2, 4)]
    assert build_flat_torus_spectrum(sides, 4e-14).coexact == want


def test_float_levels_below_1e_12_stay_apart():
    # the mixed torus makes every level a float; the float tolerance was
    # absolute below 1, which merged these ten levels into one
    ts = build_flat_torus_spectrum([1e7 * TWO_PI, 2 * math.e], 1e-12)
    assert len(ts.coexact[0]) == 10
    for k, (mu2, m) in enumerate(ts.coexact[0], 1):
        assert mu2 == pytest.approx(1e-14 * k * k, rel=1e-12, abs=0.0)
        assert m == 2
    assert ts.coexact[1] == ts.coexact[0]
    assert validate(ts) == []


def test_exact_equals_shifted_coexact():
    # H3 carries the exact (p-1)-forms, the d-image of the coexact
    # (p-2)-forms: none below p = 2
    for n in (1, 2, 3):
        ts = build_flat_torus_spectrum([TWO_PI] * n, 3)
        for p in range(n + 2):
            h3 = [(ch.mu2, ch.mult) for ch in enumerate_channels(ts, p, 3) if ch.kind == "H3"]
            assert h3 == (ts.coexact[p - 2] if p >= 2 else [])
            assert h3 or p < 2


def test_validate_catches_betti_asymmetry():
    ts = build_flat_torus_spectrum([TWO_PI], 5)
    ts.betti = [1, 2]
    violations = validate(ts)
    assert violations
    assert any("duality" in s or "Euler" in s for s in violations)


def test_validate_catches_negative_mu2_and_pairing():
    ts = build_flat_torus_spectrum([TWO_PI, TWO_PI], 3)
    ts.coexact[1] = [(Fraction(-1), 1)]
    violations = validate(ts)
    assert violations
    assert any("<= 0" in s for s in violations)
    assert any("pairing" in s for s in violations)


def test_validate_pairs_levels_below_1e_12():
    ts = TransversalSpectrum(n=2, label="tiny", cutoff=1.0, betti=[1, 2, 1],
                             coexact=[[(1e-14, 2)], [(2e-14, 2)], []])
    assert validate(ts) == ["Hodge pairing violated: coexact[0] != coexact[1]",
                                       "Hodge pairing violated: coexact[1] != coexact[0]"]


def test_validate_catches_an_unsorted_level_list():
    # each coexact list is sorted by mu^2 (TransversalSpectrum); this one
    # used to pass as ok
    ts = TransversalSpectrum(1, "x", 10, [1, 1], [[(4, 2), (1, 2)], []])
    assert validate(ts) == ["coexact[0] is not sorted by mu2"]
    ts.coexact[0].reverse()
    assert validate(ts) == []


@pytest.mark.parametrize("spectrum,violations", [
    (TransversalSpectrum(1, "x", math.nan, [1, 1], [[], []]),
     ["cutoff nan is not positive"]),
    (TransversalSpectrum(1, "x", 5, [1, 1, 0], [[], []]),
     ["betti has length 3, expected 2"]),
    (TransversalSpectrum(1, "x", 5, [1, 1], [[]]),
     ["coexact has length 1, expected 2"]),
    (TransversalSpectrum(1, "x", 5, [1, 1], [[(1, 0)], []]),
     ["coexact[0] has nonpositive multiplicity at mu2=1"]),
    (TransversalSpectrum(1, "x", 3, [1, 1], [[(1, 2), (4, 2)], []]),
     ["coexact[0] contains mu2=4 above cutoff 3"]),
    (TransversalSpectrum(1, "x", 5, [1, 1], [[(1, 2)], [(1, 2)]]),
     ["coexact in top degree n must be empty"]),
], ids=["nan-cutoff", "betti-length", "coexact-length", "zero-mult", "above-cutoff", "top-degree"])
def test_validate_lists_each_violation(spectrum, violations):
    assert validate(spectrum) == violations


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


def test_json_integers_load_as_rationals(tmp_path):
    # a hand-written circle file: its integers are the exact levels the
    # builder gives, not floats, and an integer beyond 2^53 keeps its value
    p = tmp_path / "spec.json"
    built = build_flat_torus_spectrum([TWO_PI], 5)
    p.write_text(json.dumps({"n": 1, "label": built.label, "cutoff": 5, "betti": [1, 1],
                             "coexact": [[{"mu2": 1, "mult": 2}, {"mu2": 4, "mult": 2}], []]}))
    loaded = load_spectrum(p)
    assert loaded == built
    assert type(loaded.cutoff) is Fraction
    assert [type(mu2) for mu2, _ in loaded.coexact[0]] == [Fraction, Fraction]
    p.write_text(json.dumps({"n": 1, "label": "x", "cutoff": 2 * 10**17, "betti": [1, 1],
                             "coexact": [[{"mu2": 10**17 + 1, "mult": 2}], []]}))
    assert load_spectrum(p).coexact[0] == [(Fraction(10**17 + 1), 2)]


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


@pytest.mark.parametrize("doc,kind", [
    (["n", "label", "cutoff", "betti", "coexact"], "list"),
    ("n label cutoff betti coexact", "str"),
    (7, "int"),
], ids=["list", "str", "int"])
def test_load_rejects_a_document_that_is_no_object(tmp_path, doc, kind):
    # a list or string holding every field name once passed the presence
    # check and raised TypeError on the first lookup, and 7 on the check
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(SpectrumFormatError, match=f"expected a JSON object, got {kind}$"):
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


@pytest.mark.parametrize("value", [math.nan, math.inf, 10**400], ids=["nan", "inf", "huge"])
def test_load_rejects_nonfinite_cutoff(tmp_path, value):
    # a cutoff of NaN or Infinity would pass enumerate_channels' window
    # check; an integer beyond double range has no float value
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(_spectrum_doc(cutoff=value)))
    with pytest.raises(SpectrumFormatError, match="field 'cutoff': must be finite"):
        load_spectrum(p)


def test_load_rejects_nonfinite_mu2(tmp_path):
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(_spectrum_doc(mu2=math.nan)))
    with pytest.raises(SpectrumFormatError, match=r"coexact\[0\]\[0\]: 'mu2': must be finite"):
        load_spectrum(p)


def test_load_rejects_a_coexact_level_that_is_no_list(tmp_path):
    p = tmp_path / "spec.json"
    doc = _spectrum_doc()
    doc["coexact"] = [5, []]
    p.write_text(json.dumps(doc))
    with pytest.raises(SpectrumFormatError, match=r"coexact\[0\] must be a list"):
        load_spectrum(p)


@pytest.mark.parametrize("cutoff", [-1, 0, "-3/2"], ids=["-1", "0", "-3/2"])
def test_load_rejects_a_cutoff_that_is_not_positive(tmp_path, cutoff):
    # build_flat_torus_spectrum refuses these cutoffs; a loaded -1 once
    # passed validate and failed only in enumerate_channels
    p = tmp_path / "spec.json"
    p.write_text(json.dumps({"n": 1, "label": "x", "cutoff": cutoff, "betti": [1, 1],
                             "coexact": [[], []]}))
    with pytest.raises(SpectrumFormatError, match=r"invalid spectrum: cutoff \S+ is not positive$"):
        load_spectrum(p)


@pytest.mark.parametrize("coexact,message", [
    (5, r"field 'coexact' must be a list"),
    ([[{"mu2": "1"}], []], r"coexact\[0\]\[0\]: expected object with 'mu2' and 'mult'"),
    ([["1"], []], r"coexact\[0\]\[0\]: expected object with 'mu2' and 'mult'"),
    ([[{"mu2": "1/0", "mult": 2}], []], r"coexact\[0\]\[0\]: 'mu2': bad rational literal"),
], ids=["not-a-list", "no-mult", "not-an-object", "mu2-1/0"])
def test_load_rejects_an_ill_formed_coexact_field(tmp_path, coexact, message):
    p = tmp_path / "spec.json"
    doc = _spectrum_doc()
    doc["coexact"] = coexact
    p.write_text(json.dumps(doc))
    with pytest.raises(SpectrumFormatError, match=message):
        load_spectrum(p)


def test_load_rejects_negative_betti_numbers(tmp_path):
    # b = (-1, -1) keeps duality and chi = 0; it once loaded, and the census
    # then dropped the H1 and H2 channels without a word
    p = tmp_path / "spec.json"
    p.write_text(json.dumps(_spectrum_doc(betti=(-1, -1))))
    with pytest.raises(SpectrumFormatError, match=r"betti\[0\] = -1 < 0; betti\[1\] = -1 < 0$"):
        load_spectrum(p)


@pytest.mark.parametrize("cutoff", [math.inf, math.nan], ids=["inf", "nan"])
def test_build_rejects_nonfinite_cutoff(cutoff):
    with pytest.raises(ValueError, match="cutoff must be positive and finite"):
        build_flat_torus_spectrum([TWO_PI], cutoff)


@pytest.mark.parametrize("cutoff", [10**400, Fraction(10**400, 3), "10" * 200],
                         ids=["int", "fraction", "string"])
def test_build_rejects_cutoff_beyond_double_range(cutoff):
    # float() of such a cutoff overflows; the builder must refuse it as the
    # loader does, not leak OverflowError
    with pytest.raises(ValueError, match="cutoff must be positive and finite"):
        build_flat_torus_spectrum([TWO_PI], cutoff)


@pytest.mark.parametrize("sides,cutoff,match", [
    ([10**400], 5, "side lengths must be positive and finite"),
    (["1/0"], 5, "side lengths must be positive and finite"),
    ([TWO_PI, "1/0"], 5, "side lengths must be positive and finite"),
    ([TWO_PI], "1/0", "cutoff must be positive and finite"),
    ([True], 5, "side lengths must be positive and finite"),
    ([TWO_PI], True, "cutoff must be positive and finite"),
], ids=["huge-side", "side-1/0", "second-side-1/0", "cutoff-1/0", "side-bool", "cutoff-bool"])
def test_build_refuses_input_without_a_positive_finite_double(sides, cutoff, match):
    # these leaked OverflowError and ZeroDivisionError; a bool was read as 1
    with pytest.raises(ValueError, match=match):
        build_flat_torus_spectrum(sides, cutoff)


@pytest.mark.parametrize("side", [1e-300, 1e-320])
def test_a_side_whose_first_level_overflows_has_no_levels(side):
    # (2 pi / side)^2 is beyond double range: valid input, an empty circle
    ts = build_flat_torus_spectrum([side], 5)
    assert (ts.betti, ts.coexact) == ([1, 1], [[], []])
    assert validate(ts) == []
