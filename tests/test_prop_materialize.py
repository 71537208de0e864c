"""Property: a structure installed through the compiled executor holds the
reference evaluator's extent, for any generated definition and instance.

Definitions come from the PC query generator the optimizer properties
use (``conftest.pc_queries``), instances from ``conftest.gen_instances``
over the same schema.  A view must equal ``evaluate(definition,
instance)``; a gmap over the definition's body — keyed by its first
output field, valued by the whole output, and the other way round —
must equal the evaluator's grouping of that body.
"""

from __future__ import annotations

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import evaluator_grouping, gen_instances, pc_queries
from repro.physical.gmap import GMap
from repro.physical.views import MaterializedView
from repro.query.evaluator import evaluate

RELAXED = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])


@settings(max_examples=80, **RELAXED)
@given(definition=pc_queries(), instance=gen_instances())
def test_installed_view_is_the_evaluators_extent(definition, instance):
    view = MaterializedView("V", definition)
    assert view.install(instance) == evaluate(definition, instance)
    assert instance["V"] == evaluate(definition, instance)


@settings(max_examples=60, **RELAXED)
@given(definition=pc_queries(), instance=gen_instances(), struct_key=st.booleans())
def test_gmap_is_the_evaluators_grouping(definition, instance, struct_key):
    first = definition.output.fields[0][1]
    key, value = (
        (definition.output, first) if struct_key else (first, definition.output)
    )
    gmap = GMap(
        name="G",
        bindings=definition.bindings,
        conditions=definition.conditions,
        key_output=key,
        value_output=value,
    )
    assert gmap.materialize(instance) == evaluator_grouping(gmap, instance)
