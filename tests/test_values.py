"""Value semantics of the parameter and result objects: construction,
equality, hashing, repr, immutability, pickling and copying, and the
validation messages of their constructors."""

import copy
import pickle

import pytest

from gammabw.bandwidth import GammaShapeSpec, OctaveResult, ShapeScale, WidthResult

PARAMS = ShapeScale(2.0, 1.0)
SPEC = GammaShapeSpec(ShapeScale(3.0, 2.0), 1.5, -0.25)
WIDTH = WidthResult(0.25, 2.75, 2.5, 1.0, 0.5)
OCTAVE = OctaveResult(8.0, 0.5, 4.0)

# (value, its fields in order, its exact repr)
VALUES = [
    (PARAMS, (2.0, 1.0), "ShapeScale(a=2.0, b=1.0)"),
    (
        SPEC,
        (ShapeScale(3.0, 2.0), 1.5, -0.25),
        "GammaShapeSpec(params=ShapeScale(a=3.0, b=2.0), K=1.5, s=-0.25)",
    ),
    (WIDTH, (0.25, 2.75, 2.5, 1.0, 0.5), "WidthResult(x_low=0.25, x_high=2.75, width=2.5, mode=1.0, y=0.5)"),
    (OCTAVE, (8.0, 0.5, 4.0), "OctaveResult(high=8.0, low=0.5, octaves=4.0)"),
]
FIELD_NAMES = {
    ShapeScale: ("a", "b"),
    GammaShapeSpec: ("params", "K", "s"),
    WidthResult: ("x_low", "x_high", "width", "mode", "y"),
    OctaveResult: ("high", "low", "octaves"),
}
IDS = [type(v).__name__ for v, _, _ in VALUES]


def fields(value):
    return tuple(getattr(value, name) for name in FIELD_NAMES[type(value)])


@pytest.mark.parametrize("value,values,text", VALUES, ids=IDS)
class TestValueSemantics:
    def test_positional_and_keyword_construction(self, value, values, text):
        cls = type(value)
        assert fields(cls(*values)) == values
        assert fields(cls(**dict(zip(FIELD_NAMES[cls], values)))) == values

    def test_match_args_are_the_fields(self, value, values, text):
        assert type(value).__match_args__ == FIELD_NAMES[type(value)]

    def test_equality_within_the_class_only(self, value, values, text):
        cls = type(value)
        assert value == cls(*values)
        assert not value != cls(*values)
        assert value != values
        assert values != value
        assert not isinstance(value, tuple)

    def test_hash_is_the_hash_of_the_field_tuple(self, value, values, text):
        assert hash(value) == hash(values)
        assert hash(value) == hash(type(value)(*values))
        assert len({value, type(value)(*values)}) == 1

    def test_repr(self, value, values, text):
        assert repr(value) == text

    def test_fields_cannot_be_set_or_deleted(self, value, values, text):
        for name in (*FIELD_NAMES[type(value)], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, 1.0)
        for name in FIELD_NAMES[type(value)]:
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert fields(value) == values

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, value, values, text, protocol):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value
        assert repr(back) == text
        with pytest.raises(AttributeError):
            setattr(back, FIELD_NAMES[type(value)][0], 1.0)

    @pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy])
    def test_copy_round_trip(self, value, values, text, copier):
        back = copier(value)
        assert type(back) is type(value)
        assert back == value
        assert hash(back) == hash(value)
        with pytest.raises(AttributeError):
            setattr(back, FIELD_NAMES[type(value)][0], 1.0)


def test_different_fields_compare_unequal():
    assert ShapeScale(2.0, 1.0) != ShapeScale(2.0, 1.5)
    assert ShapeScale(2.0, 1.0) != ShapeScale(3.0, 1.0)
    assert GammaShapeSpec(PARAMS) != GammaShapeSpec(PARAMS, s=1.0)
    assert WIDTH != WidthResult(0.25, 2.75, 2.5, 1.0, 0.25)
    assert OCTAVE != OctaveResult(8.0, 0.5, 3.0)


def test_class_patterns_match_positionally():
    match SPEC:
        case GammaShapeSpec(ShapeScale(a, b), K, s=s):
            assert (a, b, K, s) == (3.0, 2.0, 1.5, -0.25)
        case _:
            pytest.fail("no match")


def test_gamma_shape_spec_defaults():
    spec = GammaShapeSpec(PARAMS)
    assert (spec.params, spec.K, spec.s) == (PARAMS, 1.0, 0.0)
    assert spec == GammaShapeSpec(params=PARAMS, K=1.0, s=0.0)
    assert GammaShapeSpec(PARAMS, s=2.0) == GammaShapeSpec(PARAMS, 1.0, 2.0)
    assert repr(GammaShapeSpec(PARAMS, K=3.0)) == "GammaShapeSpec(params=ShapeScale(a=2.0, b=1.0), K=3.0, s=0.0)"


def test_integers_are_kept_as_given():
    params = ShapeScale(2, 1)
    assert params == ShapeScale(2.0, 1.0)
    assert hash(params) == hash((2.0, 1.0))
    assert repr(params) == "ShapeScale(a=2, b=1)"


@pytest.mark.parametrize(
    "build,message",
    [
        (
            lambda: ShapeScale(0.5, 1.0),
            "shape parameter a must be >= 1 (widths are undefined below that:"
            " no interior maximum), got 0.5",
        ),
        (lambda: ShapeScale(2.0, 0.0), "scale parameter b must be positive, got 0.0"),
        (lambda: ShapeScale(2.0, -1.0), "scale parameter b must be positive, got -1.0"),
        (lambda: GammaShapeSpec(PARAMS, K=0.0), "amplitude K must be positive, got 0.0"),
        (lambda: GammaShapeSpec(PARAMS, K=-2.0), "amplitude K must be positive, got -2.0"),
        (lambda: GammaShapeSpec(PARAMS, s=float("inf")), "domain shift s must be finite, got inf"),
        (lambda: GammaShapeSpec(PARAMS, s=float("nan")), "domain shift s must be finite, got nan"),
        (
            lambda: WidthResult(0.0, float("inf"), 1.0, 0.5, 0.5),
            "WidthResult(x_low=0.0, x_high=inf, width=1.0, mode=0.5, y=0.5) overflows double precision",
        ),
        (
            lambda: WidthResult(0.0, 1.0, float("inf"), 0.5, 0.5),
            "WidthResult(x_low=0.0, x_high=1.0, width=inf, mode=0.5, y=0.5) overflows double precision",
        ),
        (lambda: WidthResult(0.0, 1.0, 1.0, 2.0, 0.5), "crossings must straddle the mode"),
        (lambda: WidthResult(0.0, 1.0, -1.0, 0.5, 0.5), "width must be nonnegative"),
        (
            lambda: OctaveResult(float("inf"), 1.0, 2.0),
            "OctaveResult(high=inf, low=1.0, octaves=2.0) overflows double precision",
        ),
        (lambda: OctaveResult(1.0, 2.0, 1.0), "crossings must satisfy high >= low >= 0"),
        (lambda: OctaveResult(1.0, -1.0, 1.0), "crossings must satisfy high >= low >= 0"),
        (lambda: OctaveResult(2.0, 1.0, -1.0), "octave count must be nonnegative"),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
