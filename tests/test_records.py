"""The immutable records: fields, defaults, the tuple contract and `_check`.

Each entry builds one record of each class and pins its fields, its
defaults and its `repr`; the pins were recorded when the records were
`typing.NamedTuple`s (`Trajectory`'s when it became a record).
"""

import ast
import copy
import pickle
import random
from collections import namedtuple
from fractions import Fraction as F
from importlib import import_module
from pathlib import Path
from pkgutil import iter_modules

import pytest

import wregret
from wregret import axioms, cli, decisions, dsl, dynamics, learning
from wregret.errors import MalformedTree
from wregret.decisions import Act, Alternative, Lottery, Menu, UtilitySpec
from wregret.measures import Event, Measure, RegularHull, SubProbabilityVector, WeightedMeasureSet, to_hull
from wregret.rational import IntVector
from wregret.records import Frozen, record

MODULES = [import_module(f"wregret.{module.name}") for module in iter_modules(wregret.__path__)]

STATES = ("s1", "s2")
ONE = Measure({"s1": F(1, 4), "s2": F(3, 4)})
TWO = Measure({"s1": F(1, 2), "s2": F(1, 2)})
UTILITY = decisions.UtilitySpec({"win": 1, "lose": 0})
LEAF = dynamics.Leaf(utility=F(1, 3))

# (class, args, kwargs, fields, defaults, repr)
RECORDS = {
    "GeneratorConfig": (
        axioms.GeneratorConfig, (5,), {},
        ("samples", "include_curated"), {"samples": 200, "include_curated": True},
        "GeneratorConfig(samples=5, include_curated=True)",
    ),
    "Instance": (
        axioms.Instance, ((), {"f": "a"}), {},
        ("menu", "acts", "params"), {"params": {}},
        "Instance(menu=(), acts=mappingproxy({'f': 'a'}), params=mappingproxy({}))",
    ),
    "Finding": (
        axioms.Finding, (), {"description": "d"},
        ("scores", "params", "acts", "description"),
        {"scores": {}, "params": {}, "acts": {}, "description": ""},
        "Finding(scores=mappingproxy({}), params=mappingproxy({}), acts=mappingproxy({}), description='d')",
    ),
    "Witness": (
        axioms.Witness, ("1", "mwer", "violation", "text", (), {}), {"scores": {"f": F(1, 2)}},
        ("axiom", "rule", "kind", "description", "menu", "acts", "params", "scores"),
        {"params": {}, "scores": {}},
        "Witness(axiom='1', rule='mwer', kind='violation', description='text', menu=(), acts=mappingproxy({}),"
        " params=mappingproxy({}), scores=mappingproxy({'f': Fraction(1, 2)}))",
    ),
    "AxiomReport": (
        axioms.AxiomReport, ("1", "mwer", "violated", 10, 7, 2, 0), {},
        ("axiom", "rule", "verdict", "samples", "applicable", "curated", "seed", "counterexample",
         "unwitnessed", "unwitnessed_example"),
        {"counterexample": None, "unwitnessed": 0, "unwitnessed_example": None},
        "AxiomReport(axiom='1', rule='mwer', verdict='violated', samples=10, applicable=7, curated=2,"
        " seed=0, counterexample=None, unwitnessed=0, unwitnessed_example=None)",
    ),
    "Axiom": (
        axioms.Axiom, (len, abs, "text"), {},
        ("draw", "judge", "description", "kind"), {"kind": "violation"},
        "Axiom(draw=<built-in function len>, judge=<built-in function abs>, description='text',"
        " kind='violation')",
    ),
    "BeliefFixtures": (
        axioms.BeliefFixtures, (UTILITY, STATES, (ONE, TWO), WeightedMeasureSet([(ONE, 1), (TWO, F(1, 2))])), {},
        ("utility", "state_space", "measures", "weighted"), {},
        "BeliefFixtures(utility=UtilitySpec({lose: 0/1, win: 1/1}), state_space=('s1', 's2'),"
        " measures=(Measure({s1: 1/4, s2: 3/4}), Measure({s1: 1/2, s2: 1/2})),"
        " weighted=WeightedMeasureSet([(Measure({s1: 1/4, s2: 3/4}), 1/1), (Measure({s1: 1/2, s2: 1/2}), 1/2)]))",
    ),
    "AxiomMatrix": (
        axioms.AxiomMatrix, ({}, 3), {},
        ("reports", "seed"), {},
        "AxiomMatrix(reports=mappingproxy({}), seed=3)",
    ),
    "Leaf": (
        dynamics.Leaf, (), {"utility": F(1, 3)},
        ("lottery", "utility"), {"lottery": None, "utility": None},
        "Leaf(lottery=None, utility=Fraction(1, 3))",
    ),
    "DecisionNode": (
        dynamics.DecisionNode, ("d", (("go", LEAF),)), {},
        ("name", "branches"), {},
        "DecisionNode(name='d', branches=(('go', Leaf(lottery=None, utility=Fraction(1, 3))),))",
    ),
    "NatureNode": (
        dynamics.NatureNode, (((Event(STATES), LEAF),),), {},
        ("partition",), {},
        "NatureNode(partition=((Event({s1, s2}), Leaf(lottery=None, utility=Fraction(1, 3))),))",
    ),
    "DecisionTree": (
        dynamics.DecisionTree, (LEAF,), {},
        ("root",), {},
        "DecisionTree(root=Leaf(lottery=None, utility=Fraction(1, 3)))",
    ),
    "Plan": (
        dynamics.Plan, ("go", (("d", "go"),)), {},
        ("name", "choices"), {},
        "Plan(name='go', choices=(('d', 'go'),))",
    ),
    "NodeDiagnostic": (
        dynamics.NodeDiagnostic, ("d", STATES, ("a", "b"), {"a": F(1, 2)}, ("b",), ("a",)), {},
        ("node", "live", "menu", "scores", "eliminated", "kept"), {},
        "NodeDiagnostic(node='d', live=('s1', 's2'), menu=('a', 'b'), scores=mappingproxy({'a': Fraction(1, 2)}),"
        " eliminated=('b',), kept=('a',))",
    ),
    "TreeEvaluation": (
        dynamics.TreeEvaluation, ("ex-ante", "full", None, ("go",), (), ()), {},
        ("planning", "menu_policy", "chosen", "survivors", "diagnostics", "plans"), {},
        "TreeEvaluation(planning='ex-ante', menu_policy='full', chosen=None, survivors=('go',),"
        " diagnostics=(), plans=())",
    ),
    "ParseDiagnostic": (
        dsl.ParseDiagnostic, (2, 5, "unexpected character"), {},
        ("line", "column", "message", "token"), {"token": ""},
        "ParseDiagnostic(line=2, column=5, message='unexpected character', token='')",
    ),
    "Token": (
        dsl.Token, ("IDENT", "states", 1, 1), {},
        ("kind", "text", "line", "column"), {},
        "Token(kind='IDENT', text='states', line=1, column=1)",
    ),
    "ProblemDoc": (
        dsl.ProblemDoc, (STATES, ("win",), None, {}, {}, {}, {}, {}), {},
        ("states", "prizes", "utility", "lotteries", "acts", "menus", "hypotheses", "events"), {},
        "ProblemDoc(states=('s1', 's2'), prizes=('win',), utility=None, lotteries=mappingproxy({}),"
        " acts=mappingproxy({}), menus=mappingproxy({}), hypotheses=mappingproxy({}), events=mappingproxy({}))",
    ),
    "_RawEntry": (
        dsl._RawEntry, (dsl.Token("EOF", "", 3, 1), [1, 2]), {},
        ("token", "payload"), {},
        "_RawEntry(token=Token(kind='EOF', text='', line=3, column=1), payload=[1, 2])",
    ),
    "ObservationModel": (
        learning.ObservationModel,
        (("h", "t"), {"fair": Measure({"h": F(1, 2), "t": F(1, 2)}), "bent": Measure({"h": 1, "t": 0})}, "fair"),
        {},
        ("outcomes", "likelihoods", "truth"), {},
        "ObservationModel(outcomes=('h', 't'), likelihoods=mappingproxy({'fair': Measure({h: 1/2, t: 1/2}),"
        " 'bent': Measure({h: 1/1, t: 0/1})}), truth='fair')",
    ),
    "Trajectory": (
        learning.Trajectory,
        (0, 1, "mt19937", "fair", ("fair",), (("a",),), ((1.0, 1.0),)), {
            "rankings": (((("a",),), True),) * 2, "outcomes": (None, "h"),
        },
        ("seed", "rounds", "rng_algorithm", "truth", "hypotheses", "truth_seu_groups", "weights", "rankings",
         "outcomes"), {},
        "Trajectory(seed=0, rounds=1, rng_algorithm='mt19937', truth='fair', hypotheses=('fair',),"
        " truth_seu_groups=(('a',),), weights=((1.0, 1.0),), rankings=(((('a',),), True), ((('a',),),"
        " True)), outcomes=(None, 'h'))",
    ),
    "ComparisonSummary": (
        learning.ComparisonSummary, (1, (0, 1), F(1, 2), (1.0, 0.5), (1.0, 0.25), (1.0, 1.0), (1.0, 0.0)), {},
        ("rounds", "seeds", "threshold", "agree_mwer_mer", "agree_mwer_es", "agree_mer_es", "agree_all"), {},
        "ComparisonSummary(rounds=1, seeds=(0, 1), threshold=Fraction(1, 2), agree_mwer_mer=(1.0, 0.5),"
        " agree_mwer_es=(1.0, 0.25), agree_mer_es=(1.0, 1.0), agree_all=(1.0, 0.0))",
    ),
    "Rule": (
        decisions.Rule, (max, "weighted", True), {},
        ("score", "belief", "lower_is_better"), {},
        "Rule(score=<built-in function max>, belief='weighted', lower_is_better=True)",
    ),
}


def _hash(value):
    try:
        return hash(value)
    except TypeError:  # a record holding a dict is unhashable, as its tuple is
        return "unhashable"


@pytest.mark.parametrize("name", RECORDS)
def test_record_contract(name):
    cls, args, kwargs, fields, defaults, shown = RECORDS[name]
    record = cls(*args, **kwargs)
    assert (cls._fields, cls._field_defaults, repr(record)) == (fields, defaults, shown)
    assert isinstance(record, tuple) and len(record) == len(fields)
    again = cls(*args, **kwargs)
    assert record == again and _hash(record) == _hash(again) == _hash(tuple(record))
    assert record == tuple(record) and record._replace() == record
    for twin in (copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is cls and twin == record
    loaded = pickle.loads(pickle.dumps(record))
    assert type(loaded) is cls and loaded == record
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)
    with pytest.raises(AttributeError):
        record.unknown = None
    assert not hasattr(record, "__dict__")


# A record with a `_check`: (field, a value it rejects, the error type, its message)
REJECTED = {
    "GeneratorConfig": ("samples", 0, ValueError, "samples must be at least 1"),
    "BeliefFixtures": ("measures", (ONE,), ValueError, "fixtures need a multi-measure belief"),
    "Leaf": ("utility", None, MalformedTree, "a leaf holds exactly one of: lottery, utility"),
    "DecisionNode": ("branches", (), MalformedTree, "decision node 'd' has no branches"),
    "NatureNode": ("partition", (), MalformedTree, "nature node has an empty partition"),
    "ObservationModel": ("truth", "loaded", ValueError, "truth 'loaded' is not a hypothesis"),
    # the per-round layout: one weight tuple per round instead of one column per hypothesis
    "Trajectory": ("weights", ((1.0,), (1.0,)), ValueError, "weights must be one column of 2 per hypothesis"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_every_way_of_building_a_record_runs_its_check(name):
    cls, args, kwargs, *_ = RECORDS[name]
    field, bad, error, message = REJECTED[name]
    good = cls(*args, **kwargs)
    values = {**good._asdict(), field: bad}
    unchecked = tuple.__new__(cls, values.values())
    builds = {
        "positional": lambda: cls(*values.values()),
        "keyword": lambda: cls(**values),
        "_make": lambda: cls._make(values.values()),
        "_replace": lambda: good._replace(**{field: bad}),
        "copy": lambda: copy.copy(unchecked),
        "pickle": lambda: pickle.loads(pickle.dumps(unchecked)),
    }
    for way, build in builds.items():
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value) == message, way


def _mapping_fields(cls) -> tuple[str, ...]:
    """The fields annotated `Mapping[...]`, which a record holds read-only."""
    return tuple(name for name, kind in cls.__annotations__.items() if kind.startswith("Mapping["))


@pytest.mark.parametrize("name", RECORDS)
def test_every_way_of_building_a_record_closes_its_mapping_fields(name):
    # a field that holds a mapping is annotated `Mapping[...]`, and holds it read-only
    cls, args, kwargs, *_ = RECORDS[name]
    record = cls(*args, **kwargs)
    maps = _mapping_fields(cls)
    assert [field for field, value in record._asdict().items() if isinstance(value, dict)] == []
    builds = {
        "constructor": record,
        "_make": cls._make(record),
        "_replace": record._replace(**{field: dict(getattr(record, field)) for field in maps}),
        "copy": copy.copy(record),
        "deepcopy": copy.deepcopy(record),
        "pickle": pickle.loads(pickle.dumps(record)),
    }
    for way, built in builds.items():
        assert built == record, way
        for field in maps:
            value = getattr(built, field)
            assert not isinstance(value, dict), (way, field)
            with pytest.raises(TypeError):
                value["added"] = None
            assert "added" not in value, (way, field)


def test_a_record_copies_the_mapping_it_is_given():
    acts = {"f": "a"}
    instance = axioms.Instance((), acts)
    acts["g"] = "b"
    assert dict(instance.acts) == {"f": "a"}


PLAIN = [name for name, (cls, *_) in RECORDS.items() if "_check" not in vars(cls) and not _mapping_fields(cls)]


@pytest.mark.parametrize("name", PLAIN)
def test_a_record_without_a_check_keeps_the_namedtuple_constructors(name):
    # a record with neither a `_check` nor a `Mapping` field, so a hot record
    # such as `dsl.Token` costs no more than a namedtuple
    cls = RECORDS[name][0]
    plain = namedtuple(cls.__name__, cls._fields, defaults=cls._field_defaults.values())
    assert cls.__new__.__code__.co_code == plain.__new__.__code__.co_code
    assert cls.__new__.__defaults__ == plain.__new__.__defaults__
    assert cls._make.__func__.__code__ is plain._make.__func__.__code__


def _bound_names(tree: ast.Module) -> set[str]:
    """The names a module's defs and assignments bind, attributes included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Store):
            names.add(node.id if isinstance(node, ast.Name) else node.attr)
    return names


def test_one_form_for_each_immutable_value():
    # a record is a namedtuple and nothing else, `records.record` alone
    # overrides `_make`, and `records.Frozen` alone refuses assignment and
    # decides how a value that is not a record is compared, hashed and copied
    classes = [
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    assert [c.__qualname__ for c in classes if issubclass(c, tuple) and c.__bases__ != (tuple,)] == []
    for method in ("__setattr__", "__eq__", "__hash__", "__reduce__"):
        owners = [f"{c.__module__}.{c.__qualname__}" for c in classes if method in vars(c)]
        assert owners == ["wregret.records.Frozen"], method
    package = Path(wregret.__file__).parent
    bound = {path.name: _bound_names(ast.parse(path.read_text(encoding="utf-8"))) for path in package.rglob("*.py")}
    for name in ("_make", "__eq__", "__hash__", "__reduce__"):
        assert {module for module, names in bound.items() if name in names} == {"records.py"}, name


# the classes whose instances change as they are used or take a subclass's own
# attributes, with the reason
STATEFUL = {
    decisions.PreferenceOracle: "keeps nothing between calls, but custom oracles extend its `__dict__`",
    axioms.Sampler: "draws from its own random stream",
    dsl._TokenStream: "advances through the tokens as it parses",
    cli._ArgumentParser: "an argparse parser, built up by adding arguments",
}


def test_every_class_is_a_record_a_slotted_frozen_an_exception_or_a_stateful_helper():
    classes = [
        value
        for module in MODULES
        for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    ]
    others = [
        f"{c.__module__}.{c.__qualname__}"
        for c in classes
        if not (issubclass(c, tuple) and hasattr(c, "_fields"))  # a record
        and not (issubclass(c, Frozen) and c.__dictoffset__ == 0)  # its instances have no `__dict__`
        and not issubclass(c, Exception)
        and c not in STATEFUL
    ]
    assert others == []


MENU = decisions.Menu([
    decisions.Act("a", {"s1": decisions.sure("win"), "s2": decisions.sure("lose")}),
    decisions.Act("b", {"s1": decisions.sure("lose"), "s2": decisions.sure("win")}),
])
WSET = WeightedMeasureSet([(ONE, 1), (TWO, F(1, 2))])

# a value of each non-record immutable class, and its public fields
VALUES = {
    "Event": (Event(STATES), ("members",)),
    "Menu": (MENU, ("acts",)),
    "WeightedMeasureSet": (WSET, ("entries", "state_space")),
    "RegularHull": (to_hull(WSET), ("generators", "state_space")),
    "Ranking": (decisions.rank("mwer", MENU, UTILITY, WSET), ("rule", "lower_is_better", "scores", "groups")),
    "Probe": (learning.Probe(MENU, UTILITY, {"one": ONE, "two": TWO}), ("menu", "utility", "measures", "acts")),
}


@pytest.mark.parametrize("name", VALUES)
def test_an_immutable_value_refuses_assignment_and_copies_its_fields(name):
    value, names = VALUES[name]
    for field in names:
        with pytest.raises(AttributeError):
            setattr(value, field, getattr(value, field))
    assert not hasattr(value, "__dict__")
    for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(twin) is type(value) and [getattr(twin, f) for f in names] == [getattr(value, f) for f in names]


def test_a_field_without_a_default_may_not_follow_one_with_a_default():
    # namedtuple would give the defaults to the last fields instead
    with pytest.raises(TypeError, match="without a default follows"):

        @record
        class Bad:
            first: int = 0
            second: int


FROZEN = sorted(
    {value for module in MODULES for value in vars(module).values()
     if isinstance(value, type) and issubclass(value, Frozen) and value is not Frozen},
    key=lambda c: c.__qualname__,
)
UNHASHABLE = {learning.Probe}  # its key holds its `measures` as a dict


def _ints(value) -> tuple:
    """The ints a value holds, unreduced, read through its public fields."""
    if isinstance(value, (IntVector, Alternative)):
        return value.numerators, value.denominator
    if isinstance(value, WeightedMeasureSet):
        return tuple([(_ints(m), w) for m, w in value.entries])
    if isinstance(value, RegularHull):
        return tuple([_ints(g) for g in value.generators])
    if isinstance(value, Act):
        return tuple([(state, _ints(lottery)) for state, lottery in value.items()])
    if isinstance(value, Menu):
        return tuple([_ints(act) for act in value])
    if isinstance(value, learning.Probe):
        return _ints(value.menu), _ints(value.utility), {h: _ints(m) for h, m in value.measures.items()}
    return ()  # an `Event` holds no ints


def _equal_pairs(rng: random.Random) -> list[tuple[object, object]]:
    """Pairs of equal values of every `Frozen` class, each built two ways."""
    states = tuple(f"s{i}" for i in range(rng.randint(2, 4)))
    scale = rng.randint(2, 4)  # `from_ints` reduces what it is given

    def ints(low, high, total=None):
        while True:
            numerators = [rng.randint(low, high) for _ in states]
            if total is None or 0 < sum(numerators) <= total:
                return numerators

    def spelled(cls, numerators, denominator, keys=states):
        mapping = {key: F(n, denominator) for key, n in zip(keys, numerators)}
        unreduced = [n * scale for n in numerators]
        return cls(dict(reversed(mapping.items()))), cls.from_ints(keys, unreduced, denominator * scale)

    def measure():
        numerators = ints(0, 6, total=6 * len(states))
        return spelled(Measure, numerators, sum(numerators))

    measures = [measure() for _ in range(rng.randint(1, 4))]
    entries = [(m, F(rng.randint(1, 8), 8)) for m, _ in measures]
    entries[0] = (entries[0][0], F(1))  # `to_hull` needs an entry of weight 1
    reordered = rng.sample(entries, len(entries))
    dominated = [(m, w * F(rng.randint(0, 3), 4)) for m, w in entries]  # each below an entry of the set
    wset = WeightedMeasureSet(entries, states)
    hull = to_hull(wset)
    lower = [SubProbabilityVector.from_ints(g.keys, [n // 2 for n in g.numerators], g.denominator)
             for g in hull.generators]
    subs = ints(0, 3)
    prizes = ("p", "q", "r")
    utility = spelled(UtilitySpec, [0, 1, rng.randint(-3, 3)], rng.randint(1, 3), prizes)
    lottery_ints = [rng.randint(0, 2) for _ in prizes[:-1]] + [1]  # a prize of probability 0 is dropped
    lotteries = spelled(Lottery, lottery_ints, sum(lottery_ints), prizes)

    def act(name, lottery):
        outcomes = [(s, lottery if i % 2 else decisions.sure("p")) for i, s in enumerate(states)]
        return Act(name, dict(rng.sample(outcomes, len(outcomes))))

    acts = [act(name, lotteries[0]) for name in ("f", "g")], [act(name, lotteries[1]) for name in ("f", "g")]
    acts[0][0].alternative(utility[0])  # the act's cache of its last alternative is not compared
    menus = Menu(acts[0]), Menu(acts[1])
    hypotheses = [(f"h{i}", pair) for i, pair in enumerate(measures)]
    probes = (learning.Probe(menus[0], utility[0], {h: m for h, (m, _) in hypotheses}),
              learning.Probe(menus[1], utility[1], {h: m for h, (_, m) in reversed(hypotheses)}))
    probes[0].regret_rows(tuple(h for h, _ in hypotheses))  # nor are a probe's tables
    profile = ints(-5, 5)
    event = rng.sample(states, rng.randint(0, len(states)))
    return [
        *measures,
        spelled(IntVector, ints(-6, 6), rng.randint(1, 6)),
        spelled(SubProbabilityVector, subs, sum(subs) + rng.randint(0, 2) or 1),
        utility,
        lotteries,
        (Alternative.from_ints("a", [3 * n for n in profile], 6), Alternative.from_ints("a", profile, 2)),
        (Alternative("a", [F(n, 2) for n in profile]), Alternative.from_ints("a", profile, 2)),
        (Event(event + event), Event(frozenset(event))),
        (wset, WeightedMeasureSet(reordered, states[::-1])),  # a set, and a hull, over the states in any order
        (hull, to_hull(WeightedMeasureSet(reordered + dominated, states))),
        (hull, RegularHull(rng.sample(hull.generators, len(hull.generators)) + lower, states[::-1])),
        *zip(*acts),
        menus,
        probes,
    ]


@pytest.mark.parametrize("seed", range(40))
def test_equal_values_hash_alike_and_copy_as_themselves(seed):
    pairs = _equal_pairs(random.Random(seed))
    assert sorted({type(a) for a, _ in pairs}, key=lambda c: c.__qualname__) == FROZEN
    for first, second in pairs:
        assert type(first) is type(second) and first == second and not first != second, (first, second)
        assert first.__eq__(object()) is NotImplemented and first != (first,)
        if type(first) in UNHASHABLE:
            for value in (first, second):
                with pytest.raises(TypeError):
                    hash(value)
        else:
            assert hash(first) == hash(second)
        for value in (first, second):
            for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
                assert type(twin) is type(value) and twin == value and _ints(twin) == _ints(value), twin


def test_a_value_equals_only_values_of_its_own_type():
    keys, numerators = ("s1", "s2"), (1, 3)
    same = [cls.from_ints(keys, numerators, 4) for cls in (IntVector, Measure, SubProbabilityVector)]
    for first in same:
        for second in same:
            assert (first == second) is (first is second) and (first != second) is (first is not second)
