import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2kisin import serial
from gl2kisin.fields import GF
from gl2kisin.laurent import Laurent
from gl2kisin.matrices import Mat2
from gl2kisin.weights import SerreWeightLabel

# a prime field and two extension fields, whose residues run past p
FIELDS = (GF(31), GF(3, 2), GF(2, 3))


def reference(obj):
    """The bytes serial.dumps promises: the json module's encoder."""
    return json.dumps(obj, default=serial._encode, sort_keys=True, indent=2) + "\n"


@st.composite
def field_elements(draw, field=None):
    field = field or draw(st.sampled_from(FIELDS))
    return field(draw(st.integers(0, field.order - 1)))


@st.composite
def laurents(draw, field=None):
    field = field or draw(st.sampled_from(FIELDS))
    # zero coefficients are dropped, so the zero polynomial is drawn too
    pairs = draw(st.lists(st.tuples(st.integers(-5, 8), field_elements(field)), max_size=4))
    return Laurent.from_pairs(field, pairs)


@st.composite
def matrices(draw):
    field = draw(st.sampled_from(FIELDS))
    return Mat2(field, *(draw(laurents(field)) for _ in range(4)))


STRINGS = st.text() | st.sampled_from(['"', "\\", "a\"b\\c", "\x00\x1f\n\t\x7f", "é ü", "☃", "\U0001f600"])

LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    STRINGS,
    field_elements(),
    laurents(),
    matrices(),
    st.lists(st.integers(1, 3), max_size=4).map(tuple),  # admissible elements
    st.builds(SerreWeightLabel, st.lists(st.integers(0, 40), max_size=3).map(tuple), st.integers(0, 10**6)),
)

VALUES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(STRINGS, children, max_size=4),
    ),
    max_leaves=25,
)


@given(VALUES)
@settings(max_examples=150, deadline=None)
def test_dumps_matches_json_module(obj):
    assert serial.dumps(obj) == reference(obj)


def test_dumps_long_list_matches_json_module():
    # more than 2^16 nested values: dumps joins its pieces in several chunks
    obj = {"rows": [[i, {"neg": -i}] for i in range(2**16 + 1)], "tail": [[]]}
    assert serial.dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_dumps_empty_and_nested():
    for obj in ([], {}, (), [[], {}], {"a": [], "b": {}, "c": ()}, [[[]]]):
        assert serial.dumps(obj) == reference(obj)


@pytest.mark.parametrize("bad", [1.5, float("nan"), {1, 2}, frozenset(), b"x", object()])
def test_dumps_refuses_unsupported_values(bad):
    with pytest.raises(TypeError):
        serial.dumps({"k": [bad]})


def test_dumps_refuses_non_string_keys():
    # json.dumps would write {"1": 2}; reports only have string keys
    with pytest.raises(TypeError):
        serial.dumps({1: 2})
