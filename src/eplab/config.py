"""Tolerance configuration threaded through every numerical decision, the
tolerance gates, and :class:`Record`, the frozen base of every eplab record."""

import math

from .errors import InapplicableError, InputError

# Gram-matrix defect allowed of a basis handed to Subspace
ORTHONORMALITY_TOL = 1e-8
_store = object.__setattr__  # sets a Record's field past its own __setattr__
_UNSET = object()  # default of a field with none; found by id: arrays == elementwise


class Record:
    """A frozen record whose fields are a subclass's own annotations, in order,
    with class attributes as defaults; compared, hashed and printed field by
    field (by identity if declared ``eq=False``), and with no code per class."""

    def __init_subclass__(cls, eq=True):
        cls._fields = tuple(cls.__annotations__)  # the class's own, never a base's
        cls._defaults = tuple(cls.__dict__.get(f, _UNSET) for f in cls._fields)
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        # CPython 3.11 adds names to a class's shared keys only while it has few
        # instances, and a name first stored later makes an instance dict
        blank = object.__new__(cls)  # so this one stores each field and kept fact
        for name in (*cls._fields, *(n for n, v in vars(cls).items() if type(v) is _lazy)):
            _store(blank, name, None)

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):  # not one value per field, by position
            tail = slice(len(args), None)  # the fields not given by position
            args += tuple(map(kwargs.pop, fields[tail], self._defaults[tail]))
            if kwargs or len(args) != len(fields) or id(_UNSET) in map(id, args):
                raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        for name, value in zip(fields, args):  # in inline values: filling __dict__
            _store(self, name, value)  # would make each later read ~5x slower
        if hasattr(self, "__post_init__"):  # looked up now: it may be patched
            self.__post_init__()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete {name!r} of a frozen record")

    __delattr__ = __setattr__

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        same = type(other) is type(self)
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes):
        return type(self)(**({f: getattr(self, f) for f in self._fields} | changes))


class _lazy:
    """A record's fact computed on first access and stored like a field, in
    the instance's inline values, where it shadows this descriptor.  Unlike
    Python 3.11's cached property it takes no lock: a racing first access
    may compute a fact twice, which ``factor_pair``'s memo already allows."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.fn(obj)
        _store(obj, self.name, value)
        return value


class ToleranceConfig(Record):
    """Thresholds used by rank decisions, subspace tests, and PSD checks.

    rank_multiplier scales the singular-value cutoff
    ``rank_multiplier * eps * max(rows, cols) * sigma_max``; subspace_tol
    bounds inclusion/equality residuals (sines of principal angles);
    psd_tol, times the matrix's scale, bounds how negative an eigenvalue of a
    Hermitian matrix may be before it is indefinite.  Each is finite and > 0.
    """

    rank_multiplier: float = 50.0
    subspace_tol: float = 1e-8
    psd_tol: float = 1e-10

    def __post_init__(self):
        for name, value in zip(self._fields, self._values()):
            if not (math.isfinite(value) and value > 0.0):
                raise InputError(f"{name} must be finite and strictly positive, got {value!r}")


DEFAULT_TOLERANCES = ToleranceConfig()


def within(residual, bound, name="residual"):
    """True iff ``residual <= bound``: the one tolerance comparison, under :func:`gate`.

    A NaN or infinite residual (an overflow, or inf - inf) raises
    InapplicableError naming it, instead of silently passing or failing.
    """
    if not math.isfinite(residual):
        raise InapplicableError(f"{name} is not finite ({residual!r})")
    return residual <= bound


def gate(cfg, **residuals):
    """The flag of each named residual, in order under its own name: ``within``
    it against the config's ``subspace_tol``.  The one gate of every subspace
    decision; a non-finite residual raises naming the key it is passed under."""
    return {name: within(r, cfg.subspace_tol, name) for name, r in residuals.items()}
