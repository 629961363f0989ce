"""Straight-line float code, recorded from the arithmetic that defines it.

The package's generated arithmetic is written once, as plain Python on
sequences of numbers: the curve jets, the projection's Newton and
descent step, the frame jet, the linearization, the input
resolution with its conditioning check, the arms' forces and kinematics
(from their geometry), the plant's right-hand side and Cholesky solve,
and the RK4 substep.  Run on ``Var`` inputs, each operator records one
assignment of the code that computes its result, so the code does the
float operations of the written arithmetic in the same order.  A
``Recorder`` writes its record as the body of one function with no
loops and no calls but those it is given: an assignment whose value is
never used is left out, one used once is written into its use, and an
expression recorded twice is computed once.  A builder returns only its
source; ``kernel`` compiles it once per key and ``lib`` in ``namespace``,
with math's functions to run on floats or with numpy's on arrays.

Checks and calls are written around the record as source text: a
``Var`` formatted into a string gives its name and stays computed,
``Recorder.require`` raises a typed error, and ``Recorder.unpack``
names the results of a call.  All code the package generates is
recorded here.
"""

import linecache
import math
from functools import lru_cache

from numpy.linalg import eigvalsh

from . import errors


class Var:
    """A float of the recorded code; its operators record assignments."""

    __slots__ = ("code", "name")

    def __init__(self, code, name):
        self.code, self.name = code, name

    def __add__(self, other):
        return self.code.let("{} + {}", self, other)

    def __radd__(self, other):
        return self.code.let("{} + {}", other, self)

    def __sub__(self, other):
        return self.code.let("{} - {}", self, other)

    def __rsub__(self, other):
        return self.code.let("{} - {}", other, self)

    def __mul__(self, other):
        return self.code.let("{} * {}", self, other)

    def __rmul__(self, other):
        return self.code.let("{} * {}", other, self)

    def __truediv__(self, other):
        return self.code.let("{} / {}", self, other)

    def __rtruediv__(self, other):
        return self.code.let("{} / {}", other, self)

    def __pow__(self, n):
        return self.code.let("{} ** {}", self, n)

    def __neg__(self):
        return self.code.let("-{}", self)

    def __abs__(self):
        return self.code.let("abs({})", self)

    def __bool__(self):
        raise TypeError("a recorded float has no truth value; write a check")

    def __format__(self, spec):
        self.code.named.add(self.name)
        return self.name


def _recorded(name):
    """The ``math`` function ``name``, its call recorded on a Var."""
    f = getattr(math, name)
    return lambda x: x.code.let(name + "({})", x) if isinstance(x, Var) else f(x)


sqrt, cos, sin = map(_recorded, ("sqrt", "cos", "sin"))


def clamp(x, lo, hi):
    """min(max(x, lo), hi), recorded when x is a Var."""
    if isinstance(x, Var):
        return x.code.let("min(max({}, {}), {})", x, lo, hi)
    return min(max(x, lo), hi)


def at_least(x, lo, above, below):
    """``above()`` if x >= lo else ``below()``, lists; on a Var, entrywise
    conditional expressions, into which an entry used once is written, so
    it is evaluated only where its branch is taken.  NaN takes ``below``."""
    if not isinstance(x, Var):
        return above() if x >= lo else below()
    return [x.code.let("{} if {} >= {} else {}", a, x, lo, b)
            for a, b in zip(above(), below())]


# IEEE-754 addition and multiplication are commutative, so an expression
# and its mirror image are one expression
_COMMUTATIVE = ("{} + {}", "{} * {}")


class Recorder:
    """The record of one function's body: assignments and source lines."""

    def __init__(self):
        self.lines = []     # (Var, template, args) assignments, or source text
        self.memo = {}      # (template, arg names) -> Var
        self.named = set()  # names the source text refers to

    def let(self, template, *args):
        """The Var assigned ``template`` filled with the args."""
        keys = [a.name if isinstance(a, Var) else repr(a) for a in args]
        if template in _COMMUTATIVE and keys[1] < keys[0]:
            keys.reverse()
            args = args[::-1]
        key = (template, *keys)
        if key not in self.memo:
            var = self.memo[key] = Var(self, f"t{len(self.memo)}")
            self.lines.append((var, template, args))
        return self.memo[key]

    def source(self, text):
        """Add lines of source text (a statement, a check)."""
        self.lines.append(text)

    def require(self, test, error, message, **fields):
        """Raise the ``errors`` class named ``error`` unless ``test`` is true.

        ``message`` is the body of its f-string, a field its keyword's
        source.  A NaN fails every comparison, so it fails the test.
        """
        args = "".join(f", {k}={v}" for k, v in fields.items())
        self.source(f"if not {test}:\n    raise {error}(f{message!r}{args})")

    def unpack(self, value, shape, prefix=None):
        """Vars for the entries of the nested sequence ``value``.

        ``value`` is a source expression; ``shape`` is (n,) for n floats
        or (n, m) for n rows of m.  The Vars are named after ``prefix``
        (``value`` by default) and their indices.
        """
        prefix = prefix or value

        def names(stem, dims):
            if not dims:
                return Var(self, stem)
            sep = "_" if stem != prefix else ""
            return [names(f"{stem}{sep}{i}", dims[1:]) for i in range(dims[0])]

        out = names(prefix, tuple(shape))
        self.source(f"{render(out, lambda v: v.name)} = {value}")
        return out

    def function(self, signature, result):
        """Source of ``def f(signature)`` returning ``result``.

        ``result`` nests lists and tuples of Vars and numbers.
        """
        uses = {}

        def count(name):
            uses[name] = uses.get(name, 0) + 1

        # one backward pass: every use of a line's variable comes after
        # it, so the count is complete when the pass reaches the line
        _walk(result, count)
        for line in reversed(self.lines):
            if isinstance(line, tuple) and (line[0].name in uses
                                            or line[0].name in self.named):
                _walk(line[2], count)
        live = self.named | uses.keys()
        inline = {}

        def text(x):
            if isinstance(x, Var):
                return inline.pop(x.name, x.name)
            s = repr(x)
            return f"({s})" if s.startswith("-") else s

        body = []
        for line in self.lines:
            if isinstance(line, str):
                body += line.split("\n")
            elif line[0].name in live:
                var, template, args = line
                expr = template.format(*map(text, args))
                if uses.get(var.name) == 1 and var.name not in self.named:
                    inline[var.name] = f"({expr})"
                else:
                    body.append(f"{var.name} = {expr}")
        body.append(f"return {render(result, text)}")
        return "\n    ".join([f"def f({signature}):", *body])


def _walk(x, visit):
    if isinstance(x, (list, tuple)):
        for y in x:
            _walk(y, visit)
    elif isinstance(x, Var):
        visit(x.name)


def render(x, text):
    """Source of the nested lists and tuples x, entries written by text."""
    if isinstance(x, list):
        return f"[{', '.join(render(y, text) for y in x)}]"
    if isinstance(x, tuple):
        return f"({''.join(render(y, text) + ', ' for y in x)})"
    return text(x)


def namespace(lib=math):
    """The names of all generated code: the exception classes of ``errors``,
    ``eigvalsh``, and ``lib``'s sqrt, cos, sin, hypot, isfinite, nan, inf."""
    names = {k: v for k, v in vars(errors).items() if isinstance(v, type)}
    names.update((k, getattr(lib, k)) for k in
                 ("sqrt", "cos", "sin", "hypot", "isfinite", "nan", "inf"))
    return {**names, "eigvalsh": eigvalsh}


def compiled(source, label="generated", lib=math):
    """The function ``f`` that ``source`` defines in ``namespace(lib)``; the
    source is kept in ``linecache`` as the file ``<label>`` with no mtime,
    which ``checkcache`` keeps, so tracebacks show the generated lines."""
    names, filename = namespace(lib), f"<{label}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), names)
    return names["f"]


@lru_cache(maxsize=None)
def kernel(build, *key, lib=math):
    """The function ``build(*key)`` writes, compiled once per (build, key, lib).

    ``build`` returns the source alone; bound to numpy, its math
    functions run on arrays.  The compiled code's file name is ``build``
    and the key, a function in the key (a segment kind's row recorder)
    written by its name.
    """
    on = "" if lib is math else f" on {lib.__name__}"
    label = f"{build.__qualname__}{tuple(getattr(k, '__name__', k) for k in key)}{on}"
    return compiled(build(*key), label, lib=lib)
