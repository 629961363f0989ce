"""Exception types raised across the library, and the checks of
parameters read from JSON."""

import inspect
import math
from numbers import Real

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


class ParameterError(SplineFollowError):
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


def is_real(x):
    """Whether x is a real number; a bool (JSON true or false) is not."""
    return isinstance(x, Real) and not isinstance(x, bool)


def check_finite(where, size=None, **params):
    """ParameterError naming the first of ``params`` that is not a finite
    real number or, given as a list, tuple or array, not all of them are;
    with ``size``, each must be such a list of ``size`` entries."""
    for name, value in params.items():
        many = isinstance(value, (list, tuple, np.ndarray))
        if not (all(is_real(x) and math.isfinite(x)
                    for x in (value if many else [value]))
                and (size is None or many and len(value) == size)):
            what = (f"a list of finite real numbers of length {size}" if size is not None
                    else "finite real numbers" if many else "a finite real number")
            raise ParameterError(f"{where} parameter {name} must be {what}; "
                                 f"got {value!r}")
