"""Immutable value records, the base of troplane's small result classes.

A record lists its fields in ``__slots__``, in order, and stores them in its
own ``__init__`` with ``setfield``.  The base gives it field-wise ``==``
(``NotImplemented`` for another class), ``hash`` of the tuple of fields, a
``Name(field=value, ...)`` repr, ``AttributeError`` on assignment, and
``copy``/``pickle`` support.  Defining a record generates no code at import,
as ``dataclasses`` does.
"""

from operator import attrgetter

setfield = object.__setattr__  # for __init__, past Record.__setattr__


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            one = get
            get = lambda r: (one(r),)  # noqa: E731
        cls._values = staticmethod(get)  # the tuple of fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")
