"""Every telesim dataclass behaves as the stdlib's would.

One instance of each class is taken from the parsed, evaluated and verified
goldens (statements, coefficient nodes, ``Loc``, ``ModeId``, ``ParamEnv``,
``PortTiming``, the reports and suites, ``ProtocolOutput`` and
``ReportDocument``) and compared with a twin that
:func:`dataclasses.make_dataclass` builds over the class's own fields, with
their ``compare``, ``repr`` and ``hash`` flags: frozen, unless the class is
one of the mutable records. ``repr``, ``==`` and ``hash`` must agree with
the twin's on an equal and on a changed copy, a frozen instance must refuse
to set or delete a field, a mutable one must be unhashable, and
``dataclasses.replace`` must round-trip.
"""

import importlib
from dataclasses import FrozenInstanceError, field, fields, is_dataclass, make_dataclass, replace
from pathlib import Path

import pytest

from telesim.circuit import ELEMENTS, Loc, Stmt, evaluate_circuit
from telesim.cli import emit_report
from telesim.dsl import parse_circuit
from telesim.opalg import ModeExpr
from telesim.verify import covariance_oracle, verify_suite

SRC = Path(__file__).resolve().parents[1] / "src" / "telesim"
GOLDEN_DIR = SRC / "golden"
MUTABLE = {"ProtocolOutput", "CovarianceRecord", "LimitSuite", "CheckSuite", "ReportDocument"}


def _dataclasses() -> set[type]:
    """Every public dataclass a telesim module defines."""
    found = set()
    for path in SRC.glob("*.py"):
        module = importlib.import_module(f"telesim.{path.stem}" if path.stem != "__init__" else "telesim")
        found.update(value for value in vars(module).values() if isinstance(value, type)
                     and is_dataclass(value) and value.__module__ == module.__name__
                     and not value.__name__.startswith("_"))
    return found


def _instances() -> dict[type, object]:
    """The first instance of each dataclass reached from the goldens' circuits,
    protocols, check suites, covariance records and reports, by class."""
    roots = [Stmt(Loc(1, 1)), *ELEMENTS.values()]
    for path in sorted(GOLDEN_DIR.glob("*.tls")):
        protocol = evaluate_circuit(parse_circuit(path.read_text()))
        suite = verify_suite(protocol)
        roots += [protocol, suite, covariance_oracle(protocol.circuit, protocol.env),
                  emit_report(protocol, suite, "machine")]
    found, seen, stack = {}, set(), roots
    while stack:
        value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if is_dataclass(value) and not isinstance(value, type):
            found.setdefault(type(value), value)
            stack += [getattr(value, f.name) for f in fields(value)]
        elif isinstance(value, ModeExpr):
            stack.append(value.terms)
        elif isinstance(value, dict):
            stack += [*value.keys(), *value.values()]
        elif isinstance(value, (list, tuple, set, frozenset)):
            stack += value
    return found


INSTANCES = _instances()


def test_every_dataclass_has_an_instance():
    assert set(INSTANCES) == _dataclasses()
    assert {cls.__name__ for cls in INSTANCES} >= MUTABLE


def _twin(cls: type) -> type:
    """The stdlib dataclass over cls's fields, with their flags."""
    spec = [(f.name, f.type, field(compare=f.compare, repr=f.repr, hash=f.hash)) for f in fields(cls)]
    return make_dataclass(cls.__qualname__, spec, frozen=cls.__name__ not in MUTABLE)


def _copy(cls: type, obj, **changes):
    return cls(**{f.name: changes.get(f.name, getattr(obj, f.name)) for f in fields(obj)})


def _changed(value):
    """A value unequal to value, of its type where that is simple."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float, complex)):
        return value + 1
    if isinstance(value, str):
        return value + "'"
    return (value,)


def _outcome(func, *args):
    """func(*args), or TypeError if it raises one (an unhashable field)."""
    try:
        return func(*args)
    except TypeError:
        return TypeError


@pytest.mark.parametrize("cls", sorted(INSTANCES, key=lambda cls: cls.__qualname__),
                         ids=lambda cls: cls.__qualname__)
def test_a_dataclass_matches_its_stdlib_twin(cls):
    obj, twin = INSTANCES[cls], _twin(cls)
    mirror = _copy(twin, obj)
    assert repr(obj) == repr(mirror)

    copies = [(replace(obj), _copy(twin, obj))]
    for f in fields(cls):
        if f.compare and f.init:
            value = _changed(getattr(obj, f.name))
            try:
                changed = replace(obj, **{f.name: value})
            except (TypeError, ValueError):  # a constructor that checks its field
                continue
            copies.append((changed, _copy(twin, obj, **{f.name: value})))
    for ours, theirs in copies:
        assert (obj == ours) == (mirror == theirs)
        assert (obj != ours) == (mirror != theirs)
        assert repr(ours) == repr(theirs)
        assert _outcome(hash, ours) == _outcome(hash, theirs)
    assert _outcome(hash, obj) == _outcome(hash, mirror)
    assert replace(obj) == obj and repr(replace(obj)) == repr(obj)

    names = [f.name for f in fields(cls)]
    if cls.__name__ in MUTABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(obj)
    elif names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, names[0], getattr(obj, names[0]))
        with pytest.raises(FrozenInstanceError):
            delattr(obj, names[0])
