"""The object semantics of syntax nodes, types and run-time values.

They are records, slotted dataclasses immutable by convention: no instance
has a `__dict__`, and neither has a type scheme or a type environment;
ground values, nodes, types and locations compare and hash by value, and
only within their own class; cells, closures, schemes and persisted values
compare by identity; and running the pipeline assigns no field of a tree.
Dataclass generates each record's `__init__` only: the other methods are
the ones `records` shares, and give what dataclass's own would.
"""

import dataclasses
import gc
import inspect

import pytest

from polylet import backends, diagnostics, engine, records, typesys
from polylet import syntax as S
from polylet.backends import QuoteCode, StringCode, evaluate
from polylet.corpus import ENTRIES
from polylet.diagnostics import Diagnostic, Location
from polylet.engine import (
    RuntimeValue,
    VClosure,
    VCode,
    VInt,
    VList,
    VPair,
    VRefCell,
    VScope,
    VStr,
    VUnit,
)
from polylet.parser import parse_source
from polylet.typecheck import infer_host, infer_staged
from polylet.typesys import (
    INT,
    STR,
    UNIT,
    Scheme,
    TArrow,
    TCode,
    TFunScope,
    TList,
    TPair,
    TRef,
    TScope,
    TVar,
    Type,
    TypeEnv,
)
from polylet.unstage import translate

X, Y = S.Var("x"), S.Var("y")

# One instance of every concrete class, in three groups.
BY_VALUE = [
    X,
    S.IntLit(1),
    S.StrLit("s"),
    S.Nil(),
    S.Unit(),
    S.Add(X, Y),
    S.Pair(X, Y),
    S.Cons(X, Y),
    S.RefNew(X),
    S.RefGet(X),
    S.Rset(X, Y),
    S.App(X, Y),
    S.Fun("x", X),
    S.Let("x", X, Y),
    S.Bracket(X),
    S.Escape(X),
    S.Csp(X),
    S.Comb("pair", (X, Y)),
    INT,
    STR,
    UNIT,
    TList(INT),
    TPair(INT, STR),
    TArrow(INT, STR),
    TRef(INT),
    TCode(INT),
    TScope(INT),
    TFunScope(INT),
    VInt(1),
    VStr("s"),
    VUnit(),
    VList((VInt(1),)),
    VPair(VInt(1), VStr("s")),
    QuoteCode(S.Pair(X, Y)),
    StringCode("(x, y)"),
    Location(3, 1, 4),
]
BY_IDENTITY = [
    S.CspValue(VRefCell(VList(()))),
    VRefCell(VList(())),
    VClosure("x", X, {}),
    VCode(S.Unit()),
    VScope(),
    Scheme((), INT),
]
CELLS = [TVar(), TypeEnv()]
IDENTITY_CLASSES = {type(obj) for obj in BY_IDENTITY}


def _concrete_classes():
    """Every class that derives from a node, type or value base.  Collect
    first: `dataclass(slots=True)` replaces the class it was given, and the
    replaced one stays among the subclasses until it is collected."""
    gc.collect()
    out, todo = set(), [S.Expr, Type, RuntimeValue]
    while todo:
        for cls in todo.pop().__subclasses__():
            out.add(cls)
            todo.append(cls)
    return out


def _record_classes():
    """Every dataclass the record modules define."""
    modules = (S, typesys, engine, backends, diagnostics)
    return {
        cls
        for module in modules
        for cls in vars(module).values()
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and cls.__module__ == module.__name__
    }


def _name(obj):
    return type(obj).__name__


def _copy(obj):
    return type(obj)(*(getattr(obj, f.name) for f in dataclasses.fields(obj)))


def test_every_class_has_a_sample():
    sampled = {type(obj) for obj in BY_VALUE + BY_IDENTITY + CELLS}
    assert _concrete_classes() <= sampled
    assert _record_classes() <= sampled
    assert {QuoteCode, StringCode} <= sampled


def test_records_share_every_method_but_init():
    classes = _record_classes()
    assert len(classes) == 42
    for cls in classes:
        assert cls.__repr__ is records.record_repr, cls
        if cls in IDENTITY_CLASSES:
            assert (cls.__eq__, cls.__hash__) == (object.__eq__, object.__hash__), cls
        else:
            assert (cls.__eq__, cls.__hash__) == (records.record_eq, records.record_hash), cls
        generated = [
            name
            for name, fn in vars(cls).items()
            if inspect.isfunction(fn) and fn.__code__.co_filename == "<string>"
        ]
        assert generated == ["__init__"], cls
    assert len(classes - IDENTITY_CLASSES) == 36


def test_type_variables_keep_the_c_level_identity_hash():
    # Inference keys dicts by type variable, on its hot path.
    assert TVar.__hash__ is object.__hash__
    assert TVar.__eq__ is object.__eq__


@pytest.mark.parametrize("obj", BY_VALUE + BY_IDENTITY, ids=_name)
def test_repr_is_the_class_name_and_fields(obj):
    fields = ", ".join(f"{f.name}={getattr(obj, f.name)!r}" for f in dataclasses.fields(obj))
    assert repr(obj) == f"{type(obj).__qualname__}({fields})"


def test_repr_text():
    let = S.Let("x", S.IntLit(1), X)
    assert repr(let) == "Let(name='x', rhs=IntLit(value=1), body=Var(name='x'))"
    assert repr(S.Comb("nil", ())) == "Comb(name='nil', args=())"
    assert repr(TArrow(INT, TList(STR))) == "TArrow(arg=TInt(), result=TList(item=TStr()))"
    assert repr(VScope(True)) == "VScope(fun=True, memo=None, depth=0, lets=[])"
    assert repr(Location(3, 1, 4)) == "Location(offset=3, line=1, column=4)"


def test_repr_of_a_cyclic_value():
    cell = VRefCell(VUnit())
    cell.contents = VPair(VInt(1), cell)
    assert repr(cell) == "VRefCell(contents=VPair(first=VInt(value=1), second=...))"


@pytest.mark.parametrize("obj", BY_VALUE + BY_IDENTITY + CELLS, ids=_name)
def test_slotted_without_instance_dict(obj):
    for cls in type(obj).__mro__[:-1]:
        assert "__slots__" in cls.__dict__, cls
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("obj", BY_VALUE, ids=_name)
def test_equal_fields_compare_and_hash_equal(obj):
    twin = _copy(obj)
    assert twin is not obj
    assert twin == obj and not twin != obj
    assert hash(twin) == hash(obj)
    assert hash(obj) == hash(tuple(getattr(obj, f.name) for f in dataclasses.fields(obj)))
    assert len({obj, twin}) == 1


@pytest.mark.parametrize(
    "a, b",
    [
        (TList(INT), TRef(INT)),
        (TCode(INT), TScope(INT)),
        (TScope(INT), TFunScope(INT)),
        (S.RefNew(X), S.RefGet(X)),
        (S.Bracket(X), S.Escape(X)),
        (S.Nil(), S.Unit()),
        (VInt(1), VStr("1")),
        (VInt(1), S.IntLit(1)),
        (VUnit(), S.Unit()),
        (S.Var("x"), S.StrLit("x")),
        (TList(INT), (INT,)),
    ],
    ids=lambda obj: _name(obj),
)
def test_equal_fields_in_different_classes_differ(a, b):
    assert a != b
    assert b != a
    assert a.__eq__(b) is NotImplemented


@pytest.mark.parametrize("obj", BY_IDENTITY + CELLS, ids=_name)
def test_identity_classes_compare_by_identity(obj):
    assert obj == obj
    assert type(obj).__eq__ is object.__eq__
    assert hash(obj) == object.__hash__(obj)
    if dataclasses.is_dataclass(obj):
        assert _copy(obj) != obj
    else:
        assert TVar() != obj


@pytest.mark.parametrize(
    "entry", [e for e in ENTRIES if e.source is not None], ids=lambda e: e.name
)
def test_running_the_pipeline_assigns_no_field(entry):
    tree = parse_source(entry.source)
    term = translate(tree)
    for run in (
        lambda: infer_staged(TypeEnv(), tree),
        lambda: infer_host(TypeEnv(), term),
        lambda: evaluate(term, "quote"),
        lambda: evaluate(term, "string"),
        lambda: evaluate(term, "eval").force(),
    ):
        try:
            run()
        except Diagnostic:
            pass
    fresh = parse_source(entry.source)
    assert tree == fresh
    assert term == translate(fresh)
