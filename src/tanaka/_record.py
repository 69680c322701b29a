"""Frozen value classes, made without the standard dataclass module.

`record` turns an annotated class into an immutable value: every
annotated name is a field, in declaration order, with an optional
class-level default, and the class gets `__init__`, `__eq__`,
`__hash__` and `__repr__` over all of its fields, with the meaning
that `dataclass(frozen=True)` gives them. `fields(rec)` returns a
record's fields by name, in that order. `__init__`, `__eq__` and
`__hash__` are compiled in one `exec` per class, so they run as fast
as the dataclass ones (an `operator.attrgetter` comparison is about
twice as slow on nested records); `__repr__`, `__setattr__` and
`__delattr__` are shared. Importing the dataclass module and compiling
six methods per class in six `exec` calls would cost every CLI process
about 35 ms of start-up.

`__post_init__` runs last in `__init__`, and a `__hash__` written in
the class body is kept. Instances keep a `__dict__`, so a per-instance
cache is a `functools.cached_property`: it stays out of `__init__`,
`==`, `hash` and `repr`, and a new instance starts without it.
`object.__setattr__` in `__post_init__` works as on a frozen dataclass.
"""


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, an attribute of a record."""


def fields(rec) -> dict:
    """The fields of a record, name to value, in declaration order."""
    return {name: getattr(rec, name) for name in rec.__record_fields__}


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _repr(self):
    values = ", ".join(f"{name}={value!r}" for name, value in fields(self).items())
    return f"{type(self).__qualname__}({values})"


def record(cls):
    """Make cls a frozen value class over its annotated fields."""
    names = cls.__record_fields__ = tuple(cls.__annotations__)
    env = {"_set": object.__setattr__, "_defaults": cls.__dict__}
    params = [f"{name}=_defaults[{name!r}]" if name in cls.__dict__ else name for name in names]
    init = [f" _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        init.append(" self.__post_init__()")
    mine, theirs = ("".join(f"{side}.{name}," for name in names) for side in ("self", "other"))
    lines = [f"def __init__(self, {', '.join(params)}):", *init, " pass",
             "def __eq__(self, other):",
             " if other.__class__ is self.__class__:",
             f"  return ({mine}) == ({theirs})",
             " return NotImplemented"]
    if "__hash__" not in cls.__dict__:
        lines += ["def __hash__(self):", f" return hash(({mine}))"]
    exec("\n".join(lines), env)
    for name in ("__init__", "__eq__", "__hash__"):
        if name in env:
            env[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, env[name])
    cls.__repr__, cls.__setattr__, cls.__delattr__ = _repr, _setattr, _delattr
    return cls
