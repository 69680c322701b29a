"""Frozen value classes, made without the standard dataclass module.

`record` turns an annotated class into an immutable value: the
annotated names are its fields, in order, and it gets `__init__`,
`__eq__`, `__hash__` and `__repr__` with the meaning that
`dataclass(frozen=True)` gives them. `__init__`, `__eq__` and
`__hash__` are compiled in one `exec` per class, so they run as fast
as the dataclass ones (an `operator.attrgetter` comparison is about
twice as slow on nested records); `__repr__`, `__setattr__` and
`__delattr__` are shared. Importing the dataclass module and compiling
six methods per class in six `exec` calls would cost every CLI process
about 35 ms of start-up.

`field(init=False, compare=False, repr=False, default=...)`, or
`default_factory=...` for a field outside `__init__`, marks a cache
slot. `__post_init__` runs last in `__init__`, and a `__hash__` written
in the class body is kept. Instances keep a `__dict__`, so
`functools.cached_property` and `object.__setattr__` in
`__post_init__` work as on a frozen dataclass.
"""

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Raised on assignment to, or deletion of, an attribute of a record."""


class field:
    """Options of one field, given as its default in the class body."""

    __slots__ = ("default", "default_factory", "init", "compare", "repr")

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, init=True, compare=True,
                 repr=True):
        if default_factory is not _MISSING and (init or default is not _MISSING):
            raise TypeError("default_factory needs init=False and no default")
        self.default, self.default_factory = default, default_factory
        self.init, self.compare, self.repr = init, compare, repr


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def record(cls):
    """Make cls a frozen value class over its annotated fields."""
    params, init, env, compared, shown = [], [], {"_set": object.__setattr__}, [], []
    for name in cls.__annotations__:
        spec = cls.__dict__.get(name, _MISSING)
        if not isinstance(spec, field):
            spec = field(default=spec)
        if spec.default is not _MISSING:
            setattr(cls, name, spec.default)  # the class attribute a dataclass leaves
        elif name in cls.__dict__:
            delattr(cls, name)
        if spec.init:
            env[f"_d_{name}"] = spec.default
            params.append(name if spec.default is _MISSING else f"{name}=_d_{name}")
            init.append(f" _set(self, {name!r}, {name})")
        elif spec.default_factory is not _MISSING:
            env[f"_f_{name}"] = spec.default_factory
            init.append(f" _set(self, {name!r}, _f_{name}())")
        if spec.compare:
            compared.append(name)
        if spec.repr:
            shown.append(name)
    if hasattr(cls, "__post_init__"):
        init.append(" self.__post_init__()")
    mine, theirs = ("".join(f"{side}.{name}," for name in compared) for side in ("self", "other"))
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

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{type(self).__qualname__}({values})"

    cls.__repr__, cls.__setattr__, cls.__delattr__ = __repr__, _setattr, _delattr
    return cls
