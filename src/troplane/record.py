"""Immutable value records, the base of troplane's small result classes.

A record lists its fields in ``__slots__``, in order.  Unless the class
defines its own ``__init__`` (which stores fields with ``setfield``), the
base compiles one small ``__init__(self, <fields in order>)`` for it, as
``namedtuple`` does; no ``dataclasses`` import is needed.  The base gives
field-wise ``==`` (``NotImplemented`` for another class), ``hash`` of the
tuple of fields, a ``Name(field=value, ...)`` repr, ``AttributeError`` on
assignment and deletion, and ``copy``/``pickle`` support.
"""

from operator import attrgetter

setfield = object.__setattr__  # for __init__, past Record.__setattr__


def _compile_init(cls):
    """The __init__(self, <fields in order>) of a record class.

    Each field gets its own setfield line: a loop over the fields at every
    construction measured slower on the analyze and piecewise workloads.
    """
    fields = cls.__slots__
    source = f"def __init__(self, {', '.join(fields)}):\n" + "".join(
        f"    setfield(self, {name!r}, {name})\n" for name in fields)
    namespace = {}
    exec(source, {"setfield": setfield}, namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__module__ = cls.__module__
    return init


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            one = get
            get = lambda r: (one(r),)  # noqa: E731
        cls._values = staticmethod(get)  # the tuple of fields
        if "__init__" not in cls.__dict__:
            cls.__init__ = _compile_init(cls)

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
