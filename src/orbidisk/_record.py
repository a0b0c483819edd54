"""Frozen records: the one class decorator behind every immutable value type.

`frozen` takes a class's annotated names, in order, as its fields; a value
given in the class body is that field's default.  It adds __init__ (fields
by position or keyword), __repr__ (`Name(field=value, ...)`), __eq__ (equal
to a record of the same class with equal fields, NotImplemented otherwise)
and __hash__ (the hash of the tuple of fields).  Assigning or deleting an
attribute raises AttributeError.  Instances keep a __dict__, so
functools.cached_property works on them.

The package uses this in place of the standard library's frozen data
classes, whose import (with inspect) and per-class code generation cost
more than the rest of a command's set-up.
"""

from __future__ import annotations


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    if any(n in cls.__dict__ for n in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a required field follows a default")
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    stores = "".join(f"\n    _set(self, {n!r}, {n})" for n in names)
    # compiled per class, so that these run as fast as hand-written methods;
    # object.__setattr__, not a write to __dict__, keeps the values inline,
    # where attribute reads are fastest
    source = f"""
def __init__(self, {', '.join(names)}):{stores}

def __eq__(self, other):
    if other.__class__ is self.__class__:
        return ({mine}) == ({theirs})
    return NotImplemented

def __hash__(self):
    return hash(({mine}))
"""
    scope: dict = {}
    exec(source, {"_set": object.__setattr__}, scope)
    scope["__init__"].__defaults__ = defaults or None

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    for fn in (*scope.values(), __repr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls
