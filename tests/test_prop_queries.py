"""Property-based tests: evaluator/executor agreement, minimization
soundness, chase soundness on constraint-satisfying instances, and
parser/printer round-trips — all on randomly generated relational queries
and instances over R(A, B) and S(B, C).
"""

from hypothesis import given, settings, strategies as st

from repro.backchase.minimize import minimize
from repro.chase.chase import chase
from repro.exec.engine import execute
from repro.model.instance import Instance
from repro.model.values import Row
from repro.physical.indexes import SecondaryIndex
from repro.physical.views import MaterializedView
from repro.query.ast import Binding, Eq, PCQuery, StructOutput
from repro.query.evaluator import evaluate
from repro.query.parser import parse_query
from repro.query.paths import Attr, Const, SName, Var

REL_ATTRS = {"R": ("A", "B"), "S": ("B", "C")}


@st.composite
def instances(draw):
    def rows(attrs):
        return frozenset(
            Row(**{a: draw(st.integers(0, 3)) for a in attrs})
            for _ in range(draw(st.integers(0, 4)))
        )

    return Instance({"R": rows(("A", "B")), "S": rows(("B", "C"))})


@st.composite
def queries(draw):
    n = draw(st.integers(1, 3))
    bindings = []
    for i in range(n):
        rel = draw(st.sampled_from(["R", "S"]))
        bindings.append(Binding(f"x{i}", SName(rel)))
    attr_paths = [
        Attr(Var(b.var), attr)
        for b in bindings
        for attr in REL_ATTRS[b.source.name]
    ]
    n_conds = draw(st.integers(0, 2))
    conditions = []
    for _ in range(n_conds):
        left = draw(st.sampled_from(attr_paths))
        if draw(st.booleans()):
            right = draw(st.sampled_from(attr_paths))
        else:
            right = Const(draw(st.integers(0, 3)))
        conditions.append(Eq(left, right))
    out_fields = tuple(
        (f"O{i}", draw(st.sampled_from(attr_paths)))
        for i in range(draw(st.integers(1, 2)))
    )
    query = PCQuery(StructOutput(out_fields), tuple(bindings), tuple(conditions))
    query.validate()
    return query


@settings(max_examples=60, deadline=None)
@given(queries(), instances())
def test_executor_agrees_with_reference(query, instance):
    assert execute(query, instance).results == evaluate(query, instance)


@settings(max_examples=40, deadline=None)
@given(queries(), instances())
def test_compiled_executor_agrees(query, instance):
    # the compiled executor's one join algorithm: a value-index probe
    compiled = execute(query, instance, mode="compiled")
    assert compiled.mode == "compiled"
    assert compiled.results == evaluate(query, instance)


@settings(max_examples=30, deadline=None)
@given(queries(), instances())
def test_minimization_preserves_semantics(query, instance):
    minimal = minimize(query)
    assert len(minimal.bindings) <= len(query.bindings)
    assert evaluate(minimal, instance) == evaluate(query, instance)


@settings(max_examples=30, deadline=None)
@given(queries())
def test_minimization_idempotent(query):
    once = minimize(query)
    assert minimize(once).canonical_key() == once.canonical_key()


@settings(max_examples=25, deadline=None)
@given(queries(), instances())
def test_chase_preserves_semantics_on_consistent_instances(query, instance):
    """Chasing with view/index constraints must not change results on
    instances where those structures are faithfully materialized."""

    view = MaterializedView(
        "V", parse_query("select struct(A = r.A, B = r.B) from R r")
    )
    index = SecondaryIndex("IS", "S", "B")
    view.install(instance)
    index.install(instance)
    deps = view.constraints() + index.constraints()
    chased = chase(query, deps).query
    assert evaluate(chased, instance) == evaluate(query, instance)


@settings(max_examples=50, deadline=None)
@given(queries())
def test_parser_round_trip(query):
    reparsed = parse_query(str(query))
    assert reparsed.canonical_key() == query.canonical_key()


@settings(max_examples=30, deadline=None)
@given(queries(), instances())
def test_canonical_form_preserves_semantics(query, instance):
    canonical = query.canonical()
    assert evaluate(canonical, instance) == evaluate(query, instance)
