"""Frozen records without generated code.

`@dataclass(frozen=True)` writes six methods per class as source text and
runs it through `exec`: for gaussmap's 25 record classes, about 34 ms of a
55 ms `import gaussmap.cli` (`python -X importtime`, Python 3.11), plus
about 15 ms to import `dataclasses` and `inspect`, on every CLI call. A
`Record` subclass is read once, when it is defined, and behaves as that
dataclass: its own annotations are its fields, a class attribute is a
default; `__init__` takes the fields positionally or by keyword, raises
`TypeError` on a missing, unknown or repeated one, then calls the class's
`__post_init__`; setting or deleting raises `AttributeError`; `==`, `hash`
and `repr` read the field tuple, and `==` needs the same class. The instance
`__dict__` holds every field, so `cached_property` works.
"""

from operator import attrgetter


class Record:
    """Base class of gaussmap's immutable records (see the module notes)."""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(fields)
        own = cls.__dict__
        cls._defaults = {name: own[name] for name in fields if name in own}
        cls._post_init = own.get("__post_init__")
        # attrgetter of one name returns the bare value: hash a 1-tuple instead
        key = attrgetter(*fields)
        cls._key = staticmethod(key if len(fields) > 1 else lambda obj: (key(obj),))

    def __init__(self, *args, **kwargs) -> None:
        if args:
            named = dict(zip(self._fields, args))
            if len(named) < len(args) or named.keys() & kwargs.keys():
                raise TypeError(f"{type(self).__qualname__}() got too many or repeated arguments")
            kwargs = {**named, **kwargs}
        if kwargs.keys() != self._field_set:
            kwargs = {**self._defaults, **kwargs}
            if kwargs.keys() != self._field_set:
                wrong = sorted(kwargs.keys() ^ self._field_set)
                raise TypeError(f"{type(self).__qualname__}() has missing or unknown arguments {wrong}")
        self.__dict__.update(kwargs)
        if self._post_init is not None:
            self._post_init()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def replace(record: Record, **changes) -> Record:
    """A copy of `record` with the given fields changed; as with
    `dataclasses.replace`, `__init__` and so `__post_init__` run again."""
    values = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**values, **changes})
