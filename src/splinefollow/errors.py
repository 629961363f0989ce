"""Exception types raised across the library, and the readers of every
value read from outside it: ``from_json`` checks a JSON object's keys,
``reals`` reads numbers at the shape its caller states, ``positive`` a
size, ``integer`` a count or index in a range and ``flag`` true or false.
Each raises ParameterError naming the key and the value."""

import inspect
import math
import sys
from numbers import Integral, Real

import numpy as np


class SplineFollowError(Exception):
    """Base class for all library errors.

    ``time`` is the simulated time of the control step that failed; a
    closed-loop run sets it, and the message then starts with it.
    """

    time = None

    def __str__(self):
        msg = super().__str__()
        return msg if self.time is None else f"t={self.time:.3f}s: {msg}"


class NumericalFailure(SplineFollowError):
    """Valid input, but the numerics broke down during a computation."""


class DegenerateChordError(SplineFollowError):
    """Consecutive waypoints coincide, so the chord length is zero."""


class FitFailureError(SplineFollowError):
    """The spline fitting linear system is rank deficient."""


class DomainError(SplineFollowError):
    """Parameter lies outside a segment's domain."""


class UnsupportedOrderError(SplineFollowError):
    """Requested derivative order exceeds what the path supports."""


class IrregularCurveError(SplineFollowError):
    """The curve's first derivative vanishes at the query point."""


class DegenerateFrameError(SplineFollowError):
    """Gram-Schmidt collapsed: derivatives are not linearly independent."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NonConvergenceError(NumericalFailure):
    """Projection descent hit the iteration cap."""

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


class NonSPDInertiaError(NumericalFailure):
    """Inertia matrix failed its positive-definite factorization."""


class NearSingularDecouplingError(NumericalFailure):
    """beta * W^-1 * beta^T is too ill-conditioned to invert reliably.

    ``cond`` is its condition number (nan when it is not finite).
    """

    def __init__(self, message, cond=None):
        super().__init__(message)
        self.cond = cond


class DivergenceError(NumericalFailure):
    """Simulated state magnitude exceeded the divergence guard."""


class SingularManifoldError(NumericalFailure):
    """[J; Z] is singular at the internal state ``zeta`` (a straight arm)."""

    def __init__(self, message, zeta=None):
        super().__init__(message)
        self.zeta = zeta


class ParameterError(SplineFollowError, ValueError):
    """A model or configuration parameter is out of its valid range."""


def from_json(where, build, d, rename={}, **convert):
    """``build`` called with the JSON object d's keys as arguments.

    d may hold the parameters of ``build`` (a dataclass's init fields),
    some under the key ``rename`` maps them to, and must hold those with
    no default; a value with a ``convert`` entry goes through it.
    ParameterError, naming ``where``, if d is not an object or a key is
    unknown or missing."""
    if not isinstance(d, dict):
        raise ParameterError(f"{where} must be a JSON object; got {d!r}")
    params = dict(inspect.signature(build).parameters)
    for name, key in rename.items():
        params[key] = params.pop(name)
    unknown = [k for k in d if k not in params]
    if unknown:
        raise ParameterError(f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
                             f"known: {', '.join(params)}")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in d]
    if missing:
        raise ParameterError(f"missing {where} key(s) {', '.join(missing)}")
    return build(**{params[k].name: convert[k](v) if k in convert else v
                    for k, v in d.items()})


def _conforms(x, shape):
    """Whether x nests lists, tuples or arrays as ``shape`` says, down to real
    numbers that are finite as floats and not bools (JSON true or false)."""
    if not shape:
        try:
            return isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x)
        except OverflowError:   # an integer too large for a float
            return False
    return (isinstance(x, (list, tuple, np.ndarray)) and getattr(x, "ndim", 1) > 0
            and shape[0] in (None, len(x)) and all(_conforms(y, shape[1:]) for y in x))


def reals(where, value, shape=()):
    """``value`` as a float array of ``shape``: (), (n,) or (None, m), for
    lengths n and m or None for any length.

    ParameterError, naming ``where`` and the value, unless every entry
    is a real number that is not a bool and is finite as a float, and
    the lists, tuples or arrays nest as ``shape`` says.
    """
    try:
        out = np.array(value, dtype=float) if _conforms(value, shape) else None
    except ValueError:   # rows of unequal lengths
        out = None
    if out is not None and out.ndim == len(shape):
        return out
    what = ("a finite real number" if not shape
            else "finite real numbers" if shape == (None,)
            else f"a list of finite real numbers of length {shape[0]}" if len(shape) == 1
            else f"lists of {shape[1]} finite real numbers" if shape[1] is not None
            else "lists of finite real numbers of one length")
    raise ParameterError(f"{where} must be {what}; got {value!r}")


def positive(where, value):
    """``value`` as a float; ParameterError naming ``where`` and the value
    unless it is a finite real number > 0."""
    value = float(reals(where, value))
    if not value > 0:
        raise ParameterError(f"{where} must be positive; got {value!r}")
    return value


def integer(where, value, lo, hi=sys.maxsize, even=False):
    """``value`` as an int in lo..hi (64 bits without ``hi``), even if
    ``even``; ParameterError naming ``where`` and the value unless it is
    such an integer and not a bool (JSON true or false)."""
    if (isinstance(value, Integral) and not isinstance(value, bool)
            and lo <= value <= hi and not (even and value % 2)):
        return int(value)
    bound = f">= {lo}" if hi == sys.maxsize else f"in {lo}..{hi}"
    raise ParameterError(f"{where} must be an {'even ' if even else ''}integer {bound}; "
                         f"got {value!r}")


def flag(where, value):
    """``value`` if it is true or false, else ParameterError naming ``where``."""
    if not isinstance(value, bool):
        raise ParameterError(f"{where} must be true or false; got {value!r}")
    return value
