"""Tests for the ODL-ish DDL parser (figure 2)."""

import pytest

from repro.errors import QuerySyntaxError, SchemaError
from repro.model.ddl import PROJDEPT_DDL, parse_ddl
from repro.model.types import INT, STRING, SetType, StructType
from repro.query.parser import parse_query
from repro.query.typing import typecheck_query


class TestRelationDecl:
    def test_fields_and_types(self):
        result = parse_ddl(
            "relation R { A: int, B: string, Tags: Set<string> }"
        )
        ty = result.schema.type_of("R")
        assert ty.elem.field("A") == INT
        assert ty.elem.field("Tags") == SetType(STRING)

    def test_primary_key_constraint(self):
        result = parse_ddl("relation R { A: int primary key (A) }")
        assert any(c.name == "R_A_key" and c.is_egd() for c in result.constraints)

    def test_foreign_key_constraint(self):
        result = parse_ddl(
            "relation R { A: int }\n"
            "relation S { A: int foreign key (A) references R.A }"
        )
        fk = next(c for c in result.constraints if c.name == "S_A_fk")
        assert fk.is_tgd()
        assert fk.schema_names() == frozenset({"R", "S"})

    def test_key_over_unknown_attr(self):
        with pytest.raises(SchemaError):
            parse_ddl("relation R { A: int primary key (Z) }")

    def test_dict_and_struct_types(self):
        result = parse_ddl(
            "relation R { M: Dict<string, Struct{X: int}> }"
        )
        ty = result.schema.type_of("R").elem.field("M")
        assert ty.key == STRING
        assert ty.value == StructType((("X", INT),))


class TestClassDecl:
    def test_paper_schema(self):
        result = parse_ddl(PROJDEPT_DDL)
        schema = result.schema
        assert "Proj" in schema and "depts" in schema
        info = schema.class_info("Dept")
        assert info.extent == "depts"
        assert info.attributes.field("DProjs") == SetType(STRING)
        names = {c.name for c in result.constraints}
        assert "Proj_PName_key" in names  # KEY2
        assert "Dept_DName_key" in names  # KEY1
        assert "Proj_PDept_fk" in names  # RIC2
        assert "Dept_DProjs_fk" in names  # RIC1
        assert "Dept_DProjs_inv1" in names and "Dept_DProjs_inv2" in names

    def test_encoding_produced(self):
        result = parse_ddl(PROJDEPT_DDL)
        encoding = result.encoding_for("Dept")
        assert encoding.extent == "depts"
        assert encoding.dict_name == "Dept"
        assert len(encoding.constraints()) >= 5

    def test_paper_query_typechecks_against_ddl_schema(self):
        result = parse_ddl(PROJDEPT_DDL)
        query = parse_query(
            "select struct(PN = s, PB = p.Budg, DN = d.DName) "
            "from depts d, d.DProjs s, Proj p "
            'where s = p.PName and p.CustName = "CitiBank"'
        )
        typecheck_query(query, result.schema, strict=True)

    def test_inverse_requires_key(self):
        bad = """
        class C (extent cs) {
            relationship Set<string> Rel
                inverse R.Back
                foreign key references R.K
        }
        """
        with pytest.raises(SchemaError):
            parse_ddl(bad)

    def test_unknown_member_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse_ddl("class C (extent cs) { banana }")

    def test_missing_encoding_lookup(self):
        result = parse_ddl("relation R { A: int }")
        with pytest.raises(SchemaError):
            result.encoding_for("Nope")


class TestConstraintSemantics:
    def test_ddl_constraints_match_workload_constraints(self):
        """The DDL-generated assertions hold on a generated instance."""

        from repro.constraints.checker import check_all
        from repro.workloads.projdept import build_projdept

        wl = build_projdept(n_depts=3, projs_per_dept=2, seed=1)
        result = parse_ddl(PROJDEPT_DDL)
        assert check_all(result.constraints, wl.instance) == []

    def test_end_to_end_optimization_from_ddl(self):
        """DDL constraints + encoding drive the optimizer directly."""

        from repro.api.context import OptimizeContext
        from repro.optimizer.optimizer import Optimizer
        from repro.workloads.projdept import build_projdept

        wl = build_projdept(n_depts=3, projs_per_dept=2, seed=1)
        ddl = parse_ddl(PROJDEPT_DDL)
        deps = ddl.constraints + ddl.encoding_for("Dept").constraints()
        # full enumeration: P2 need not win, it must merely be *present*
        opt = Optimizer(
            OptimizeContext(
                constraints=deps,
                physical_names={"Dept", "Proj"},
                strategy="full",
            )
        )
        result = opt.optimize(wl.query)
        # P2 (scan Proj) is reachable purely from DDL constraints
        assert any(
            p.query.schema_names() == frozenset({"Proj"}) for p in result.plans
        )
