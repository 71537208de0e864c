"""Cross-strategy golden suite: the optimizer's winners, snapshotted.

For the paper scenario (ProjDept, whose plan space contains P1–P4) and
every built-in workload, the chosen plan's shape and cost under **both**
backchase strategies are snapshotted in ``tests/golden/plans.json``.  Any
silent drift — a cost-model tweak reordering winners, a backchase change
losing a plan, a strategy divergence — fails loudly here instead of
slipping through the behavioral tests.

Regenerate intentionally with ``make golden`` (sets ``GOLDEN_REGEN=1``),
then review the diff of ``tests/golden/plans.json`` like any other code
change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from conftest import GOLDEN_WORKLOADS

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "plans.json"
STRATEGIES = ("full", "pruned")
REGEN = os.environ.get("GOLDEN_REGEN") == "1"


def snapshot_entry(result) -> dict:
    """What the suite locks down for one (workload, strategy) pair."""

    return {
        "best_plan": str(result.best.query),
        "best_key": result.best.query.canonical_key(),
        "cost": round(result.best.cost, 6),
        "physical_only": result.best.physical_only,
        "refined": result.best.refined,
        "universal_plan_bindings": len(result.universal_plan.bindings),
        "plan_count": len(result.plans),
    }


def compute_snapshot(optimized_workloads) -> dict:
    """The run's one optimization per (golden workload, strategy) —
    ``conftest.GOLDEN_WORKLOADS`` fixes the builds — in snapshot form."""

    data = {
        name: {
            strategy: snapshot_entry(optimized_workloads.result(name, strategy))
            for strategy in STRATEGIES
        }
        for name in GOLDEN_WORKLOADS
    }
    # The paper plans P1-P4: the full enumeration must keep finding them
    # (canonical keys locked), and which one wins is part of the snapshot.
    full = optimized_workloads.result("projdept", "full")
    keys = {p.query.canonical_key() for p in full.plans}
    data["paper_examples"] = {
        name: {
            "key": plan.canonical_key(),
            "in_full_plan_space": plan.canonical_key() in keys,
        }
        for name, plan in sorted(
            optimized_workloads.workload("projdept").reference_plans.items()
        )
    }
    return data


@pytest.fixture(scope="module")
def computed(optimized_workloads):
    return compute_snapshot(optimized_workloads)


@pytest.mark.golden
def test_golden_plans_match(computed):
    """The live optimizer output equals the reviewed snapshot, key by key."""

    if REGEN:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(computed, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"golden file missing at {GOLDEN_PATH}; generate it with `make golden`"
    )
    golden = json.loads(GOLDEN_PATH.read_text())
    mismatches = []
    for case, strategies in golden.items():
        for strategy, expected in strategies.items():
            actual = computed.get(case, {}).get(strategy)
            if actual != expected:
                mismatches.append(
                    f"{case}/{strategy}:\n  golden:  {expected}\n  actual:  {actual}"
                )
    extra = {
        f"{case}/{strategy}"
        for case, strategies in computed.items()
        for strategy in strategies
        if strategy not in golden.get(case, {})
    }
    if extra:
        mismatches.append(f"cases missing from golden file: {sorted(extra)}")
    assert not mismatches, (
        "optimizer output drifted from the golden snapshot "
        "(if intentional, regenerate with `make golden` and review the diff):\n"
        + "\n".join(mismatches)
    )


@pytest.mark.golden
def test_strategies_agree_on_cost(computed):
    """Strategy invariant, independent of the snapshot: pruned's winner
    always costs the same as full's (the ROADMAP's preserved property)."""

    for case, strategies in computed.items():
        if case == "paper_examples":
            continue
        full, pruned = strategies["full"], strategies["pruned"]
        assert full["cost"] == pytest.approx(pruned["cost"]), case
        assert full["physical_only"] == pruned["physical_only"], case
        assert pruned["plan_count"] <= full["plan_count"], case


@pytest.mark.golden
def test_paper_plans_stay_in_plan_space(computed):
    """P1-P4 presence is part of the contract, not just the snapshot."""

    examples = computed["paper_examples"]
    assert set(examples) == {"P1", "P2", "P3", "P4"}
    # P2 and P3 appear verbatim in the full plan space.  P1 is non-minimal
    # under the full structure set (subsumed) and P4 surfaces as a refined
    # variant rather than its textbook form (test_paper_examples matches
    # them structurally) — their canonical keys are still locked by the
    # snapshot comparison, so any drift in *shape* fails the golden test.
    for name in ("P2", "P3"):
        assert examples[name]["in_full_plan_space"], name
