"""The ``R=alg<gens>`` hypothesis from the gate's left generating set.

Behind the axiom gate, ``algebra._generators_generate`` grows V, the span
of the words in the declared generators and the unit, level by level, and
stops once V holds b_g for every g in ``_left_generators(P)``. Its answer
must equal the full associative closure of the generators (and the unit),
which needs no axiom: on matrix algebras with the flip and transpose
involutions, example1 and example2 at D = 1 to 6, over Q and F_101, on a
dense change of basis and on tables declared with no unit, and on sets
that generate a proper subalgebra. A presentation that fails the gate
takes the closure itself.
"""

import pytest

import algcert as ac
from algcert import algebra, formats
from algcert.closure import assoc_closure, generator_set
from helpers import count_muls, dense_change_of_basis, without_unit

FIELDS = {"Q": ac.QQ, "Fp101": ac.PrimeField(101)}


def _with_generators(P, generators):
    """P's table, unit and involution with only the given generators,
    {name: coordinates}, declared."""
    d = formats.presentation_to_dict(P)
    d["generators"] = {name: [P.field.format(c) for c in coords]
                       for name, coords in generators.items()}
    return formats.presentation_from_dict(d)


def _instances():
    out = {}
    for field, F in FIELDS.items():
        for n in (2, 3, 4):
            for involution in ("flip", "transpose"):
                out[f"m{n}-{involution}-{field}"] = ac.build_matrix_algebra(n, F, involution)
        for D in range(1, 7):
            out[f"example1-D{D}-{field}"] = ac.build_example1(D, F)
            out[f"example2-D{D}-{field}"] = ac.build_example2(D, F)
        out[f"m3-flip-dense-{field}"] = dense_change_of_basis(out[f"m3-flip-{field}"], 5)
        for name in (f"m3-flip-{field}", f"example1-D3-{field}", f"example2-D3-{field}"):
            out[f"{name}-no-unit"] = without_unit(out[name])
    # Sets that generate a proper subalgebra.
    m2 = out["m2-flip-Q"]
    out["m2-E12-only"] = _with_generators(m2, {"E12": m2.generators["E12"].coords})
    out["m2-zero"] = _with_generators(m2, {"z": m2.zero().coords})
    out["m2-zero-no-unit"] = without_unit(out["m2-zero"])
    example2 = out["example2-D3-Q"]
    out["example2-D3-no-y"] = _with_generators(
        example2, {name: el.coords for name, el in example2.generators.items() if name != "y"}
    )
    return out


INSTANCES = _instances()
PROPER = ("m2-E12-only", "m2-zero", "m2-zero-no-unit", "example2-D3-no-y")


def _closure_generates(P):
    items = [(name, el, "declared") for name, el in sorted(P.generators.items())]
    if P.unital:
        items.append(("@1", P.unit, "unit"))
    return assoc_closure(P, generator_set("associative", items)).final.is_full


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_word_span_stop_equals_the_closure(name, monkeypatch):
    P = INSTANCES[name]
    assert not algebra.axiom_violations(P)
    expected = _closure_generates(P)
    assert expected == (name not in PROPER)
    with monkeypatch.context() as m:
        muls = count_muls(m)
        assert algebra._generators_generate(P, None) == expected
    if name.startswith("m") and name not in PROPER:
        # Every matrix unit, or a dense basis, is declared: V is full from
        # the generators, with no product.
        assert muls[0] == 0


@pytest.mark.parametrize("field", sorted(FIELDS))
@pytest.mark.parametrize("D", [6, 24])
def test_example2_stops_after_four_products(D, field, monkeypatch):
    # G = (E11, E12, E21, yE11, xE11), and the generators E11, E12, E21,
    # E22, x, y hold the first three. The first vector of level 1 is E11:
    # E11 E11 and E21 E11 add nothing, E12 E11 and E22 E11 lie outside the
    # reach, and x E11 = xE11 and y E11 = yE11 complete G, whatever D.
    P = ac.build_example2(D, FIELDS[field])
    algebra.require_axioms(P)
    assert len(algebra._left_generators(P)) == 5
    muls = count_muls(monkeypatch)
    assert algebra._generators_generate(P, None)
    assert muls[0] == 4


def test_a_presentation_that_fails_the_gate_is_refused():
    # A doubled structure constant of M3 flip breaks associativity, which
    # the word span needs: the hypothesis raises the gate's FormatError.
    P = ac.build_matrix_algebra(3, ac.QQ, "flip")
    d = formats.presentation_to_dict(P)
    d["mul"][0][3] = "2"
    Q = formats.presentation_from_dict(d)
    assert algebra.axiom_violations(Q)
    with pytest.raises(ac.errors.FormatError):
        algebra._generators_generate(Q, None)
