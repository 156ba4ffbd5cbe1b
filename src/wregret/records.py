"""Immutable values: `record` builds a class body of annotated fields as a
`namedtuple`, which compares, hashes and copies as its tuple; `Frozen` is the
base of the other classes, which do so as the arguments that rebuild them.

`typing.NamedTuple` checks every field annotation when it builds the class.
Under `from __future__ import annotations` each annotation is a string, and
the check compiles it into a `typing.ForwardRef`, which is most of what a
record costs at import.  `record` builds the same class without the check:
the annotations stay the strings they were written as, and one of them,
`Mapping[...]`, marks a field that `record` holds as a read-only copy.

Every class in the package is a record, a `Frozen` without an instance
`__dict__`, an exception, or one of four helpers whose state changes as
they work: `decisions.PreferenceOracle` (which custom oracles extend), the
axiom `Sampler`, the parser's token stream and the CLI's argument parser.
"""

from collections import namedtuple
from types import MappingProxyType


def record(cls: type) -> type:
    """The class as a `namedtuple`, as `typing.NamedTuple` would build it.

    The annotated names are the fields, in order; a value given in the body
    is that field's default, and only the last fields may have one.  The
    rest of the body (docstring, methods, properties, constants) is copied
    onto the namedtuple.  Equality, hashing, `repr`, pickling and
    immutability are the tuple's.  A field annotated `Mapping[...]` holds a
    read-only copy (`MappingProxyType` over a `dict`) of the mapping given,
    and then a `_check(self)` in the body, which raises on a bad field, runs.
    Both happen to every record the constructor or `_make` builds, and so
    through `_replace`, copying and unpickling, which rebuild from the dicts
    `__getnewargs__` gives.  A record with neither keeps the namedtuple's own
    `__new__` and `_make`.
    """
    body = dict(vars(cls))
    annotations = body.get("__annotations__", {})
    fields = tuple(annotations)
    with_default = [name for name in fields if name in body]
    if tuple(with_default) != fields[len(fields) - len(with_default):]:
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    built = namedtuple(
        cls.__name__, fields, defaults=[body.pop(name) for name in with_default], module=cls.__module__
    )
    built.__qualname__ = cls.__qualname__
    if body["__doc__"] is None:  # keep the namedtuple's own `Name(field, ...)` docstring
        del body["__doc__"]
    for key, value in body.items():
        if key not in ("__dict__", "__weakref__"):  # the plain class's, not the tuple's
            setattr(built, key, value)
    maps = {i for i, name in enumerate(fields) if str(annotations[name]).startswith("Mapping[")}
    check = body.get("_check")
    if not maps and check is None:
        return built
    new, make = built.__new__, vars(built)["_make"].__func__

    def finish(self):
        if maps:
            values = list(self)
            for i in maps:
                values[i] = MappingProxyType(dict(values[i]))
            self = tuple.__new__(type(self), values)
        if check is not None:
            check(self)
        return self

    def __new__(cls, *args, **kwargs):
        return finish(new(cls, *args, **kwargs))

    def _make(cls, iterable):
        return finish(make(cls, iterable))

    def __getnewargs__(self):  # a mapping proxy cannot be pickled; its dict can
        return tuple([dict(v) if i in maps else v for i, v in enumerate(self)])

    built.__new__, built._make, built.__getnewargs__ = staticmethod(__new__), classmethod(_make), __getnewargs__
    return built


class Frozen:
    """A base whose instances refuse attribute assignment and deletion.  A
    subclass declares its fields as `__slots__` and sets them once, when
    built, through `object.__setattr__` or the slots' descriptors.  It states
    `_args()`, the arguments that rebuild a value through `_build` (another
    constructor, such as `from_ints`, or else the class), as copying and
    pickling do.  `==` and `hash` compare `_key()`: `_args`, unless the
    subclass states a coarser key; a value equals only values of its type,
    and one whose key holds a dict is unhashable, as such a record is.
    """

    __slots__ = ()
    _build = None

    def __init_subclass__(cls):
        if "_args" in vars(cls) and "_key" not in vars(cls):
            cls._key = cls._args  # not a method calling `_args`: `==` on a measure is hot

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self):
        return self._build or type(self), self._args()

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__
