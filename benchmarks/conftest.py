"""Shared workloads for the benchmark suite (session-scoped).

Workload construction goes through the one dispatch in
:func:`repro.api.build_workload` — the same path ``Database.from_workload``
and the CLI use — instead of per-file copies of the builder imports.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.api import build_workload
from repro.api.context import OptimizeContext
from repro.optimizer.optimizer import Optimizer

# The reference enumerators the benchmarks cross-check against are test oracles.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture(scope="session")
def projdept_small():
    return build_workload("projdept", n_depts=4, projs_per_dept=3, seed=3)


@pytest.fixture(scope="session")
def projdept_medium():
    return build_workload(
        "projdept", n_depts=40, projs_per_dept=25, citibank_share=0.05, seed=9
    )


@pytest.fixture(scope="session")
def projdept_optimized(projdept_small):
    # Full enumeration: E1 asserts the complete P1-P4 plan inventory.
    opt = Optimizer(
        OptimizeContext(
            constraints=projdept_small.constraints,
            physical_names=projdept_small.physical_names,
            statistics=projdept_small.statistics,
            strategy="full",
        )
    )
    return projdept_small, opt.optimize(projdept_small.query)


@pytest.fixture(scope="session")
def rabc_workload():
    return build_workload("rabc", n=2000, a_values=50, b_values=50, seed=5)


@pytest.fixture(scope="session")
def rs_small():
    return build_workload("rs", n_r=80, n_s=80, b_values=40, seed=5)


@pytest.fixture(scope="session")
def rs_medium():
    return build_workload(
        "rs", n_r=2000, n_s=2000, b_values=500, join_hit_rate=0.1, seed=5
    )
