"""igkit: a workbench for grammars whose variables carry stacks of indices.

Subsystems: the grammar data model and one-step semantics (igkit.grammar),
budgeted derivation search (igkit.engine), language-preserving closure
constructions (igkit.closure, igkit.automata), linear/semilinear sets with an
exact bit-vector decision core and a grammar synthesizer (igkit.semilinear,
igkit.vector_automata), table-driven parallel rewriting systems (igkit.etol),
reversal-bounded counter machines (igkit.counters), and a batch CLI
(igkit.cli). Their value types are `record`s, so none of them loads `dataclasses`.
"""

from operator import attrgetter
from pathlib import Path

_MISSING = object()
_set = object.__setattr__


class field:
    """A record field with a `default`, or a `default_factory` called per
    instance; `compare=False` keeps it out of equality, `repr=False` of repr."""

    def __init__(self, *, default=_MISSING, default_factory=None, compare=True, repr=True):
        self.default = default
        self.default_factory = default_factory
        self.compare = compare
        self.repr = repr


def record(cls=None, /, *, frozen=True, eq=True):
    """Make `cls` a value type over the fields its annotations name, in order:
    `__init__` takes them by position or keyword, fills in defaults and runs
    `__post_init__`; `__repr__` reads `Name(field=value, ...)`; records of one
    class with equal compared fields are equal and hash alike (eq=False: each
    equals only itself; frozen=False: unhashable); a frozen one refuses
    assignment. `__init__` is compiled from source, as namedtuple compiles
    `__new__`, so that a call binds its arguments at the speed of a written
    one; the other methods are closures."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen, eq=eq)
    names = tuple(cls.__annotations__)
    specs = {name: vars(cls).get(name, _MISSING) for name in names}
    specs = {name: s if isinstance(s, field) else field(default=s) for name, s in specs.items()}
    env = {"_set": _set, "_post": getattr(cls, "__post_init__", None), "_MISSING": _MISSING}
    params = []
    lines = []
    for name, spec in specs.items():
        value = name
        if spec.default_factory is not None:
            env[f"_make_{name}"] = spec.default_factory
            params.append(f"{name}=_MISSING")
            value = f"_make_{name}() if {name} is _MISSING else {name}"
        elif spec.default is not _MISSING:
            env[f"_default_{name}"] = spec.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        # not through __dict__, which would slow every read of the field
        lines.append(f"    _set(self, {name!r}, {value})\n")
    if env["_post"] is not None:
        lines.append("    _post(self)\n")
    exec(f"def __init__(self, {', '.join(params)}):\n{''.join(lines)}", env)

    def __repr__(self):
        shown = (f"{name}={getattr(self, name)!r}" for name in names if specs[name].repr)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __eq__(self, other):
        return key(self) == key(other) if type(other) is type(self) else NotImplemented

    def refuse(self, name, value=None):
        raise AttributeError(f"{cls.__name__} is frozen: cannot set or delete {name!r}")

    key = attrgetter(*(name for name in names if specs[name].compare))
    cls.__init__ = env["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__repr__ = __repr__
    cls._fields = names
    if eq:
        cls.__eq__ = __eq__
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    if frozen:
        cls.__setattr__ = cls.__delattr__ = refuse
    return cls


def replace(obj, /, **changes):
    """A copy of the record `obj` with `changes`, checked by `__post_init__`."""
    return type(obj)(*[changes.pop(name, getattr(obj, name)) for name in obj._fields], **changes)


def fixture_path(name: str) -> Path:
    """Filesystem path of a bundled fixture file."""
    return Path(__file__).parent / "fixtures" / name


def fixture_text(name: str) -> str:
    return fixture_path(name).read_text(encoding="utf-8")


__all__ = ["field", "fixture_path", "fixture_text", "record", "replace"]
__version__ = "0.1.0"
