"""``repro._json.dumps_report`` against its oracle, the stdlib call
``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

Every indented report goes through the writer, and the ``--verify`` runs
render both engines through it, so they cannot see a writer bug; these
tests can.
"""

from __future__ import annotations

import importlib
import json
from json import encoder
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _json
from repro._json import dumps_report


def oracle(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_matches_oracle(doc) -> None:
    """Same text as the oracle, or the same exception type."""
    try:
        expected = oracle(doc)
    except Exception as exc:
        with pytest.raises(type(exc)):
            dumps_report(doc)
    else:
        assert dumps_report(doc) == expected


class SubDict(dict):
    pass


class SubList(list):
    pass


class SubInt(int):
    pass


class SubFloat(float):
    pass


#: Strings a line- or bracket-based shortcut could trip on.
TRICKY = ("", '"', "\\", "\n", "],\n  [", ",\n    ", "é", " ",
          "\ud800", "\x00", "{}", "[]")
numbers = st.one_of(
    st.integers(),
    st.sampled_from((2**64, -(2**100), 10**300, 0, -1)),
    st.floats(),  # NaN, +-inf and -0.0 included
)
scalars = st.one_of(
    st.none(), st.booleans(), numbers, st.text(), st.sampled_from(TRICKY)
)
#: Ragged and empty numeric rows, as lists and tuples.
rows = st.lists(
    st.lists(numbers, max_size=4) | st.tuples(numbers, numbers),
    max_size=4,
)
str_keys = st.text(max_size=6) | st.sampled_from(TRICKY)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(str_keys, children, max_size=5),
    )


def odd_containers(children):
    """Also subclasses and non-``str`` keys: all numbers, or ``None``
    among strings (which no sort can order once both appear)."""
    return containers(children) | st.one_of(
        st.lists(children, max_size=3).map(SubList),
        st.dictionaries(str_keys, children, max_size=3).map(SubDict),
        st.dictionaries(
            st.one_of(st.integers(), st.floats(), st.booleans()),
            children, max_size=3,
        ),
        st.dictionaries(st.none() | str_keys, children, max_size=3),
    )


documents = st.recursive(scalars | rows, containers, max_leaves=40)
odd_scalars = st.builds(SubInt, st.integers()) | st.builds(SubFloat, st.floats())
odd_documents = st.recursive(
    scalars | odd_scalars | rows, odd_containers, max_leaves=20
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_matches_stdlib_on_json_trees(doc):
    # With no stdlib to fall back to, only the fast path can answer.
    with mock.patch.object(_json, "json", None):
        text = dumps_report(doc)
    assert text == oracle(doc)


@settings(max_examples=300, deadline=None)
@given(odd_documents)
def test_matches_stdlib_on_odd_trees(doc):
    assert_matches_oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {"powers_w": [[0.1, -0.0], [float("nan"), float("inf")], [1]]},
        {"rows": [["a", "],\n    [", 1.5], ["b", None]]},
        {"rows": [[1, 2], []], "empty": [[], {}], "nested": [[[]]]},
        [{"b": 1, "a": [1, {"c": {}}], "c": "x"}, (1, (2, 3))],
        {"big": 10**40, "neg": -(2**70), "t": True, "f": False, "n": None},
        {"leaf": {2: "b", 1.5: None, True: 0}},
        "text", 1.25, None, [], {},
    ],
)
def test_matches_stdlib_on_report_shapes(doc):
    with mock.patch.object(_json, "json", None):
        text = dumps_report(doc)
    assert text == oracle(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {1: {"a": 1}, 2: [3]},
        {"a": SubFloat(1.5), "b": [SubInt(3)]},
        SubDict(a=[1]),
        [SubList([1, 2])],
        {"a": [np.float64(0.1)]},
        {"big": [10**5000]},
    ],
    ids=["int-keys", "subclass-scalars", "subdict", "sublist", "float64",
         "over-long-int"],
)
def test_falls_back_to_stdlib(doc):
    assert_matches_oracle(doc)


@pytest.mark.parametrize(
    "bad",
    [{1, 2}, np.float32(1.5)],
    ids=["set", "float32"],
)
def test_not_serialisable_raises_type_error(bad):
    for doc in (bad, [bad], {"a": [1.0, bad]}, {"a": {"b": bad}}):
        with pytest.raises(TypeError):
            dumps_report(doc)


def test_circular_document_raises_like_stdlib():
    doc: list = [1]
    doc.append([doc])
    assert_matches_oracle(doc)


def test_without_c_encoder_uses_stdlib(monkeypatch):
    monkeypatch.setattr(encoder, "c_make_encoder", None)
    monkeypatch.setattr(_json, "_encoders", {})  # none built before either
    doc = {"a": [[1.5, 2]], "b": {"c": "é"}, "d": [float("nan")]}
    assert dumps_report(doc) == oracle(doc)


@pytest.mark.parametrize(
    "study, argv",
    [("sweep", []), ("explore", []), ("montecarlo", ["--seed", "0"])],
)
def test_default_reports_match_stdlib(study, argv, monkeypatch, capsys):
    """The default CLI reports, byte for byte, against the oracle run on
    the very document each one rendered."""
    report = importlib.import_module(f"repro.{study}.report")
    main = importlib.import_module(f"repro.{study}.__main__").main
    docs = []

    def spy(doc):
        docs.append(doc)
        return dumps_report(doc)

    monkeypatch.setattr(report, "dumps_report", spy)
    assert main(argv) == 0
    [doc] = docs
    assert capsys.readouterr().out == oracle(doc)
