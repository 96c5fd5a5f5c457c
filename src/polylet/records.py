"""Records: slotted dataclasses whose `__init__`, `__repr__`, `__eq__` and
`__hash__` these give, over the fields and `__match_args__`.  Dataclass
makes the fields, slots and `__match_args__` only.  Since a record always
has a docstring, it never calls `inspect.signature`, and an `__init__` made
here from a short source costs less to import than dataclass's."""

from dataclasses import MISSING, dataclass, fields
from reprlib import recursive_repr


@recursive_repr()
def record_repr(self) -> str:
    fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
    return f"{type(self).__qualname__}({fields})"


def record_eq(self, other: object):
    if other.__class__ is not self.__class__:
        return NotImplemented
    names = self.__match_args__
    return [getattr(self, n) for n in names] == [getattr(other, n) for n in names]


def record_hash(self) -> int:
    return hash(tuple([getattr(self, name) for name in self.__match_args__]))


def record_init(cls):
    """The `__init__` dataclass would make: the fields in order, with their
    defaults, a factory called when its field is not given, then
    `__post_init__` if the class has one."""
    scope, params, body = {"__name__": cls.__module__, "MISSING": MISSING}, ["self"], []
    for f in fields(cls):
        name = param = value = f.name
        if f.default is not MISSING:
            scope[f"_default_{name}"] = f.default
            param = f"{name}=_default_{name}"
        elif f.default_factory is not MISSING:
            scope[f"_factory_{name}"] = f.default_factory
            param = f"{name}=MISSING"
            value = f"_factory_{name}() if {name} is MISSING else {name}"
        params.append(param)
        body.append(f"self.{name} = {value}")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n " + "\n ".join(body or ["pass"]), scope)
    scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
    return scope["__init__"]


def record(cls=None, /, *, eq: bool = True):
    """`@record`: equal and hashed as dataclass would; `@record(eq=False)`: by identity."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls.__repr__ = record_repr
    if eq:
        cls.__eq__, cls.__hash__ = record_eq, record_hash
    cls.__doc__ = cls.__doc__ or f"{cls.__name__}({', '.join(cls.__annotations__)})"
    cls = dataclass(cls, slots=True, init=False, repr=False, eq=False)
    cls.__init__ = record_init(cls)
    return cls
