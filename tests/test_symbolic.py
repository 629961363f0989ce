"""The checked-in plant code is what ``symbolic`` generates today.

``_plants_generated.py`` is written by ``python -m splinefollow.symbolic``
and never at run time; this comparison is its only invalidation rule,
so a derivation changed without regenerating fails here.
"""

import pytest

pytest.importorskip("sympy", reason="generating the plant code needs sympy")

from splinefollow import symbolic  # noqa: E402


def test_generated_module_is_current():
    assert symbolic.GENERATED.read_text() == symbolic.source(), (
        "stale plant code: regenerate with python -m splinefollow.symbolic")
