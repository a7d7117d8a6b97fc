"""Frozen value classes that ``record`` builds from a class's annotated
fields and defaults without generating code, unlike ``dataclass``."""

from operator import attrgetter


def record(cls=None, *, uncompared=()):
    """Make ``cls`` a frozen value class over its annotated fields, taken
    positionally or by keyword, then ``__post_init__`` if defined; equality
    (same class only), hashing and repr leave out the ``uncompared`` ones."""
    if cls is None:
        return lambda c: record(c, uncompared=uncompared)
    names = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    shown = tuple(n for n in names if n not in uncompared)
    key = attrgetter(*shown)

    def __init__(self, *args, **kwargs):
        values = dict(defaults, **dict(zip(names, args)), **kwargs)
        if len(args) > len(names) or values.keys() != set(names):
            raise TypeError(f"{cls.__name__}() takes ({', '.join(names)}); got "
                            f"{len(args)} positional, keywords {sorted(kwargs)}")
        self.__dict__.update(values)
        if hasattr(cls, "__post_init__"):
            self.__post_init__()

    def frozen(self, name, *value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set {name!r}")

    cls.__init__, cls.__setattr__, cls.__delattr__ = __init__, frozen, frozen
    cls.__eq__ = lambda a, b: (key(a) == key(b) if b.__class__ is a.__class__
                               else NotImplemented)
    cls.__hash__ = lambda self: hash(key(self))
    cls.__repr__ = lambda self: "{}({})".format(cls.__qualname__, ", ".join(
        f"{n}={getattr(self, n)!r}" for n in shown))
    return cls


def asdict(obj):
    """A record's fields and values, in declaration order."""
    return {n: getattr(obj, n) for n in obj._fields}
