"""The readers of values read from outside: integers, flags and sizes."""

import re

import numpy as np
import pytest

from splinefollow.errors import ParameterError, flag, integer, positive


@pytest.mark.parametrize("value, lo, hi, even", [
    (3, 1, 2**63 - 1, False), (np.int64(4), 2, 12, True), (0, 0, 0, False),
])
def test_integer_in_range_is_read(value, lo, hi, even):
    out = integer("n", value, lo, hi, even)
    assert out == value and type(out) is int


@pytest.mark.parametrize("value, kwargs, message", [
    (True, {}, "n must be an integer >= 1; got True"),
    (2.0, {}, "n must be an integer >= 1; got 2.0"),
    ("2", {}, "n must be an integer >= 1; got '2'"),
    (None, {}, "n must be an integer >= 1; got None"),
    (0, {}, "n must be an integer >= 1; got 0"),
    (2**63, {}, f"n must be an integer >= 1; got {2**63}"),
    (7, {"hi": 6}, "n must be an integer in 1..6; got 7"),
    (3, {"hi": 6, "even": True}, "n must be an even integer in 1..6; got 3"),
], ids=["bool", "float", "string", "null", "below", "past-64-bits", "above", "odd"])
def test_integer_out_of_range_names_the_key(value, kwargs, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        integer("n", value, 1, **kwargs)


def test_flag():
    assert flag("closed", True) is True and flag("closed", False) is False
    for value in (1, 0, "false", None):
        with pytest.raises(ParameterError, match=re.escape(
                f"closed must be true or false; got {value!r}")):
            flag("closed", value)


@pytest.mark.parametrize("value, message", [
    (0.0, "r must be positive; got 0.0"),
    (-1, "r must be positive; got -1.0"),
    ([1.0], "r must be a finite real number; got [1.0]"),
    (True, "r must be a finite real number; got True"),
], ids=["zero", "negative", "list", "bool"])
def test_positive_names_the_key(value, message):
    assert positive("r", 2) == 2.0
    with pytest.raises(ParameterError, match=re.escape(message)):
        positive("r", value)
