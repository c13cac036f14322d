"""``canonicalize`` equals its verbatim reference on every input.

``repro.runtime.canonicalize`` defines every digest in the repository:
config digests, what-if cache keys, and the text ``trace_digest`` writes
(``tests/property/test_trace_digest_properties.py`` builds its reference
digest on ``reference_canonicalize`` below).  The reference is the
generic function kept verbatim.  Over a recursive Hypothesis strategy,
and over named cases at the type boundaries of JSON (enums that
subclass ``int``/``str``, NumPy scalars, dict subclasses, non-str and
mixed keys, keys that JSON escapes), the two must return equal
structures that serialize to the same canonical bytes, or raise the same
error.
"""

import collections
import enum
import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobtypes import QosTier
from repro.runtime import canonicalize


def reference_canonicalize(obj: Any) -> Any:
    """Reduce an object to a JSON-stable structure for hashing.

    Handles the vocabulary config objects are built from: nested (frozen)
    dataclasses, enums, dicts with non-string keys, tuples/frozensets, and
    numpy scalars.  Dataclasses are tagged with their class name so two
    different types with identical fields cannot collide.
    """
    if is_dataclass(obj) and not isinstance(obj, type):
        return {
            "__dataclass__": type(obj).__name__,
            "fields": {
                f.name: reference_canonicalize(getattr(obj, f.name))
                for f in fields(obj)
            },
        }
    if isinstance(obj, enum.Enum):
        return [type(obj).__name__, obj.name]
    if isinstance(obj, dict):
        items = [
            [reference_canonicalize(k), reference_canonicalize(v)]
            for k, v in obj.items()
        ]
        items.sort(key=lambda kv: json.dumps(kv[0], sort_keys=True))
        return {"__dict__": items}
    if isinstance(obj, (frozenset, set)):
        members = [reference_canonicalize(v) for v in obj]
        members.sort(key=lambda v: json.dumps(v, sort_keys=True))
        return {"__set__": members}
    if isinstance(obj, (list, tuple)):
        return [reference_canonicalize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [reference_canonicalize(v) for v in obj.tolist()]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__!r} for hashing; "
        "add explicit support or make the config field a dataclass"
    )


class Colour(str, enum.Enum):
    RED = "red"
    BLUE = "blue"


class Level(enum.IntEnum):
    ONE = 1
    TWO = 2


class Tag(str):
    """A str subclass: canonicalizes as itself, encodes as its str."""


class Count(int):
    """An int subclass: canonicalizes as itself, encodes as its int."""


class Mapping(dict):
    """A dict subclass: canonicalized like any dict."""


@dataclass(frozen=True)
class Point:
    x: Any
    y: Any


def _canonical_bytes(value):
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _outcome(fn, obj):
    try:
        return "ok", fn(obj)
    except TypeError as exc:
        return "error", str(exc)


def assert_equivalent(obj):
    kind, got = _outcome(canonicalize, obj)
    want_kind, want = _outcome(reference_canonicalize, obj)
    assert kind == want_kind
    if kind == "error":
        assert got == want
        return
    # repr tells True from 1 and compares NaN, which == does not.
    assert repr(got) == repr(want)
    assert _canonical_bytes(got) == _canonical_bytes(want)


keys = st.one_of(
    st.text(),
    st.text(alphabet=st.characters(max_codepoint=0x7F)),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([Colour.RED, Level.TWO, QosTier.HIGH, Tag("k"), None]),
    st.tuples(st.integers(0, 3), st.text(max_size=2)),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(),
    st.sampled_from(
        [
            Colour.BLUE,
            Level.ONE,
            QosTier.LOW,
            Tag("t"),
            Count(3),
            np.float64(0.1),
            np.int64(-7),
            np.float32(2.5),
        ]
    ),
)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
        st.dictionaries(keys, inner, max_size=4),
        st.dictionaries(st.text(), inner, max_size=3).map(Mapping),
        st.frozensets(st.one_of(st.integers(), st.text()), max_size=3),
        st.builds(Point, inner, inner),
    ),
    max_leaves=25,
)


@given(obj=values)
@settings(deadline=None, max_examples=400)
def test_canonicalize_matches_reference(obj):
    assert_equivalent(obj)


NAMED_CASES = {
    # enums that subclass int/str, and bool against int
    "intenum": Level.ONE,
    "qos-tier": QosTier.HIGH,
    "str-enum": Colour.RED,
    "bool-vs-int-list": [True, 1, False, 0],
    "bool-vs-int-values": {"a": True, "b": 1},
    "intenum-and-int-keys": {Level.ONE: "x", 2: "y"},
    "str-enum-and-str-keys": {Colour.RED: 1, "red": 2},
    # numpy scalars and arrays
    "np-float64": np.float64(0.1),
    "np-int64": np.int64(2**40),
    "np-scalars-in-list": [np.float64(1.5), np.int64(3)],
    "np-array": np.array([[1, 2], [3, 4]]),
    "np-bool": np.bool_(True),
    "np-bool-value": {"flag": np.bool_(False)},
    # dict subclasses, non-str and mixed keys
    "dict-subclass": Mapping(b=1, a=2),
    "ordered-dict": collections.OrderedDict([("z", 1), ("a", 2)]),
    "nested-dict-subclass": {"outer": Mapping(k=[1, 2])},
    "int-keys": {1: "a", 2: "b"},
    "mixed-keys": {1: "int", "1": "str", (1, "x"): "tuple", None: "none"},
    "str-subclass-key": {Tag("b"): 1, "a": 2},
    "float-and-bool-keys": {2.5: "float", True: "bool"},
    # keys JSON escapes: quote, backslash, control, non-ASCII
    "escaped-keys": {'"': 1, "\\": 2, "\n": 3, "\x00": 4, "\x7f": 5, "a": 6},
    "non-ascii-keys": {
        "\u00e9": 1,
        "e": 2,
        "\u00fc": 3,
        "z": 4,
        " ": 5,
        "\U0001f600": 6,
        "\ud800": 7,
    },
    "nested-non-ascii": {"\u00df": {"\u03a3": [1, {"": None}]}},
    "empty-dict": {},
    "empty-list": [],
    "empty-tuple": (),
    "list-of-empty-dict": [{}],
    # float edge cases and non-finite values
    "float-edges": [float("inf"), float("-inf"), -0.0, 5e-324],
    "nan-value": {"nan": float("nan")},
    # sets and dataclasses
    "frozenset": frozenset({"b", "a"}),
    "set": {3, 1, 2},
    "dataclass": Point(x={"k": (1, 2)}, y=[Colour.BLUE]),
    # unsupported types raise the same error
    "object": object(),
    "object-value": {"bad": object()},
    "bytes-in-list": [b"bytes"],
}


@pytest.mark.parametrize("name", sorted(NAMED_CASES))
def test_canonicalize_named_cases(name):
    assert_equivalent(NAMED_CASES[name])
