"""gfinv: exact inference and occupation-invariant synthesis for probabilistic loops."""

import contextvars
import math
import time
from contextlib import contextmanager

__version__ = "0.1.0"

_set_field = object.__setattr__    # past Frozen's refusal, for __init__ only


class Record:
    """Base of gfinv's record classes, with no code generated per class: the
    fields are the class's annotations, in order, and a class-level value is a
    default.  Records are equal when of one class with equal fields; ``repr``
    reads ``Name(field=value, ...)``.  A plain record is mutable and unhashable."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {n: cls.__dict__[n] for n in cls._fields
                         if n in cls.__dict__ and n not in cls.__slots__}

    def __init__(self, *args, **kwargs):
        # field by field: a write to self.__dict__ would slow every later read
        fields = self._fields
        for name, value in zip(fields, args):
            _set_field(self, name, value)
        if len(args) == len(fields) and not kwargs:
            return
        for name in fields[len(args):]:
            if name not in kwargs and name not in self._defaults:
                raise TypeError(f"{type(self).__name__}() missing field {name!r}")
            _set_field(self, name, kwargs.pop(name) if name in kwargs else self._defaults[name])
        if kwargs or len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(fields)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields cannot be set again; it hashes as the tuple of its fields."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# the monotonic time past which every layer stops, as decimal.localcontext
# holds a precision: one per thread and task, inf when no limit is set
_deadline = contextvars.ContextVar("gfinv_deadline", default=math.inf)


@contextmanager
def time_limit(seconds):
    """Bound the work inside the block to ``seconds`` (None: no limit).  An
    inner limit never extends an outer one; leaving restores the outer one."""
    limit = _deadline.get()
    token = _deadline.set(limit if seconds is None else min(limit, time.monotonic() + seconds))
    try:
        yield
    finally:
        _deadline.reset(token)


def check_deadline(where: str) -> None:
    """Raise TimeoutError once the innermost ``time_limit`` has run out."""
    if time.monotonic() >= _deadline.get():
        raise TimeoutError(f"deadline reached {where}")
