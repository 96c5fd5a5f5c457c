"""Records: slotted dataclasses whose `__init__` alone dataclass generates, and
whose `__repr__`, `__eq__` and `__hash__` these give, over `__match_args__`."""

from dataclasses import dataclass
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


def record(cls=None, /, *, eq: bool = True):
    """`@record`: equal and hashed as dataclass would; `@record(eq=False)`: by identity."""
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    cls.__repr__ = record_repr
    if eq:
        cls.__eq__, cls.__hash__ = record_eq, record_hash
    return dataclass(cls, slots=True, repr=False, eq=False)
