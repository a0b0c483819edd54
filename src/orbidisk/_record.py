"""Frozen records: the one class decorator behind every immutable value type.

`frozen` takes a class's annotated names, in order, as its fields; a value
given in the class body is that field's default.  It adds __init__ (fields
by position or keyword, bound as a signature `(f1, ..., fk=default)` would
bind them), __repr__ (`Name(field=value, ...)`), __eq__ (equal to a record
of the same class with equal fields, NotImplemented otherwise) and __hash__
(the hash of the tuple of fields).  Assigning or deleting an attribute
raises AttributeError.  Instances keep a __dict__, so
functools.cached_property works on them.

__hash__ is computed once per record: the first call stores it on the
instance, outside the fields, so equality and repr never see it, and every
later call (each lookup of a cache keyed by the record) returns it without
hashing the fields again.  Fields never change, so the stored hash cannot
go stale.  A string's hash differs between interpreter processes; the
package pickles no record, so no stored hash crosses processes.

The methods are closures over the class's field names; no source is
compiled per class.  __init__ stores each field with object.__setattr__,
not by a write to __dict__, which keeps the values inline, where attribute
reads are fastest.  A call with exactly one value per field, by position,
is stored at once; keywords, defaults and binding errors go through
`_bind`.

The package uses this in place of the standard library's frozen data
classes, whose import (with inspect) and per-class code generation cost
more than the rest of a command's set-up.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


def _refuse_set(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _bind(cls, names, defaults, args, kwargs) -> list:
    """The field values of a call to `cls`: positional `args` first, then
    each remaining field from `kwargs` (which this consumes) or its
    default."""
    values = list(args)
    first_default = len(names) - len(defaults)
    for i in range(len(args), len(names)):
        if names[i] in kwargs:
            values.append(kwargs.pop(names[i]))
        elif i >= first_default:
            values.append(defaults[i - first_default])
        else:
            break
    if kwargs or len(values) != len(names):
        raise TypeError(_binding_error(cls, names, args, kwargs, len(values)))
    return values


def _binding_error(cls, names, args, kwargs, bound) -> str:
    """Why `_bind` refused a call, given the keywords it left unconsumed
    and the number of fields it bound."""
    where = f"{cls.__qualname__}()"
    if len(args) > len(names):
        return (
            f"{where} takes {len(names)} positional arguments"
            f" but {len(args)} were given"
        )
    for name in kwargs:
        if name not in names:
            return f"{where} got an unexpected keyword argument {name!r}"
        if names.index(name) < len(args):
            return f"{where} got multiple values for argument {name!r}"
    return f"{where} missing required argument {names[bound]!r}"


def frozen(cls):
    names = tuple(cls.__annotations__)
    defaults = tuple(cls.__dict__[n] for n in names if n in cls.__dict__)
    if any(n in cls.__dict__ for n in names[: len(names) - len(defaults)]):
        raise TypeError(f"{cls.__name__}: a required field follows a default")
    count = len(names)
    slots = tuple(enumerate(names))
    # attrgetter of one name returns the bare value, not a 1-tuple, and
    # attrgetter of none raises
    values = (
        attrgetter(*names)
        if count > 1
        else lambda self: tuple(getattr(self, n) for n in names)
    )

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        for i, name in slots:
            _set(self, name, args[i])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        try:
            return self._frozen_hash
        except AttributeError:
            h = hash(values(self))
            _set(self, "_frozen_hash", h)
            return h

    def __repr__(self):
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in names)
        return f"{self.__class__.__qualname__}({shown})"

    for fn in (__init__, __eq__, __hash__, __repr__):
        fn.__qualname__ = f"{cls.__qualname__}.{fn.__name__}"
        setattr(cls, fn.__name__, fn)
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls
