"""Frozen result records without ``dataclasses``.

``import dataclasses`` loads ``inspect`` (and with it ``ast`` and ``dis``),
which costs a pure-math CLI call more than its own arithmetic, so the
package's result records subclass `Record` instead of using
``@dataclass(frozen=True)``.  A subclass lists its fields as annotations,
in order; a class attribute of the same name is that field's default.  It
gets what the frozen dataclass gave it:

- ``__init__`` taking the fields by position or keyword, then calling
  ``__post_init__`` if the class defines one;
- the repr ``Name(field=value!r, ...)`` in field order;
- equality with records of the same class only, by the field tuple, and
  the hash of that tuple;
- AttributeError on assigning or deleting any attribute.

``__init__`` is generated as straight-line code that stores the fields in
declaration order, as the dataclass's did: every instance of a class then
shares one key table for its ``__dict__``, which keeps instances as small
as the dataclass's, and construction as fast.
"""

import math
import operator


def check_int(name: str, value, least: float = -math.inf) -> int:
    """value as a Python int (operator.index: numpy integers pass, floats do
    not, even integral ones), or ValueError if it is none or below least;
    the one check of an integer size, count or offset."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return value


class Record:
    __match_args__: tuple = ()  # a subclass's field names, in order

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", {}))
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls.__dict__ else f for f in fields)
        body = "".join(f"\n    _set(self, {f!r}, {f})" for f in fields)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        values = "".join(f"self.{f}, " for f in fields)
        namespace: dict = {}
        exec(f"def __init__(self, {params}):{body}\n"
             f"def _astuple(self):\n    return ({values})",
             {"_set": object.__setattr__, "_defaults": cls.__dict__}, namespace)
        for name, method in namespace.items():
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
        cls.__match_args__ = fields

    def __repr__(self) -> str:
        inner = ", ".join(map("{}={!r}".format, self.__match_args__, self._astuple()))
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
