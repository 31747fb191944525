import pytest

from tkhist.catalog import schema_from_document
from tkhist.errors import (CyclicJoinError, ParseError, PlanError,
                           UnsupportedQueryError)
from tkhist.queryfront import Query, bind, decompose, parse_sql


def chain_schema():
    doc = {
        "tables": [
            {"name": "a", "columns": [{"name": "k1", "role": "key"},
                                      {"name": "y", "kind": "integer"}]},
            {"name": "b", "columns": [{"name": "k1", "role": "key"},
                                      {"name": "k2", "role": "key"}]},
            {"name": "c", "columns": [{"name": "k2", "role": "key"},
                                      {"name": "tag", "kind": "categorical"}]},
        ],
        "foreign_keys": [{"from": "b.k1", "to": "a.k1"},
                         {"from": "c.k2", "to": "b.k2"}],
    }
    return schema_from_document(doc)


COLUMN_DOMAIN = {"a.k1": "a.k1", "b.k1": "a.k1", "b.k2": "b.k2", "c.k2": "b.k2"}


class TestParse:
    def test_joins_aliases_predicates(self):
        q = parse_sql("SELECT COUNT(*) FROM a, b AS bb, c "
                      "WHERE a.k1 = bb.k1 AND bb.k2 = c.k2 AND a.y <= 10 "
                      "AND c.tag = 'x'")
        assert q.aliases == {"a": "a", "bb": "b", "c": "c"}
        assert q.join_edges == [("a.k1", "bb.k1"), ("bb.k2", "c.k2")]
        assert [p.op for p in q.predicates] == ["<=", "="]

    def test_between_and_in(self):
        q = parse_sql("select count(*) from a where a.y between 1 and 5 "
                      "and a.y in (1, 2, 3)")
        assert q.predicates[0].value == (1, 5)
        assert q.predicates[1].value == frozenset({1, 2, 3})

    def test_string_literal_escaping(self):
        q = parse_sql("SELECT COUNT(*) FROM c WHERE c.tag = 'it''s'")
        assert q.predicates[0].value == "it's"

    def test_or_rejected(self):
        with pytest.raises(UnsupportedQueryError, match="OR"):
            parse_sql("SELECT COUNT(*) FROM a WHERE a.y = 1 OR a.y = 2")

    def test_parse_error_carries_offset(self):
        with pytest.raises(ParseError) as err:
            parse_sql("SELECT COUNT(*) FROM a WHERE ???")
        assert err.value.offset == 29

    def test_negative_numeric_literals(self):
        q = parse_sql("SELECT COUNT(*) FROM a WHERE a.y > -5 "
                      "AND a.y BETWEEN -2.5 AND -1 AND a.y IN (-3, 4)")
        assert [p.value for p in q.predicates] == [
            -5, (-2.5, -1), frozenset({-3, 4})]

    @pytest.mark.parametrize("literal", ["--5", "-"])
    def test_minus_without_number_is_parse_error(self, literal):
        with pytest.raises(ParseError, match="unexpected character '-'"):
            parse_sql(f"SELECT COUNT(*) FROM a WHERE a.y > {literal}")

    def test_between_bounds_of_mixed_types_rejected(self):
        with pytest.raises(UnsupportedQueryError, match="not comparable"):
            parse_sql("SELECT COUNT(*) FROM a WHERE a.y BETWEEN 'a' AND 5")


class TestBind:
    def test_bare_column_resolved(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a, c WHERE y <= 3"),
                 chain_schema())
        assert q.predicates[0].column == "a.y"

    def test_ambiguous_bare_column_rejected(self):
        with pytest.raises(UnsupportedQueryError, match="ambiguous"):
            bind(parse_sql("SELECT COUNT(*) FROM a, b WHERE k1 = 1"),
                 chain_schema())

    def test_unknown_column_rejected(self):
        with pytest.raises(UnsupportedQueryError, match="no column"):
            bind(parse_sql("SELECT COUNT(*) FROM a WHERE a.zzz = 1"),
                 chain_schema())

    def test_type_coercion_errors(self):
        schema = chain_schema()
        with pytest.raises(UnsupportedQueryError, match="categorical"):
            bind(parse_sql("SELECT COUNT(*) FROM c WHERE c.tag = 3"), schema)
        with pytest.raises(UnsupportedQueryError, match="string literal"):
            bind(parse_sql("SELECT COUNT(*) FROM a WHERE a.y = 'x'"), schema)
        with pytest.raises(UnsupportedQueryError, match="fractional"):
            bind(parse_sql("SELECT COUNT(*) FROM a WHERE a.y = 1.5"), schema)

    @pytest.mark.parametrize("column", ["y", "x"])  # INTEGER, REAL
    @pytest.mark.parametrize("literal", ["1" + "0" * 400, "-1" + "0" * 400,
                                         "1" + "0" * 400 + ".5"],
                             ids=["integer", "negative", "decimal"])
    def test_literal_past_float64_rejected(self, column, literal):
        schema = schema_from_document({"tables": [{"name": "d", "columns": [
            {"name": "y", "kind": "integer"}, {"name": "x", "kind": "real"}]}]})
        for cond in (f"d.{column} > {literal}",
                     f"d.{column} BETWEEN {literal} AND {literal}",
                     f"d.{column} IN (1, {literal})"):
            with pytest.raises(UnsupportedQueryError, match="float64 range"):
                bind(parse_sql(f"SELECT COUNT(*) FROM d WHERE {cond}"),
                     schema)
        # an integer past 2**53 that float64 holds stays exact
        q = bind(parse_sql(f"SELECT COUNT(*) FROM d WHERE d.y > {2**60 + 1}"),
                 schema)
        assert q.predicates[0].value == 2 ** 60 + 1

    def test_duplicate_join_edges_deduped(self):
        schema = schema_from_document({"tables": [
            {"name": "r", "columns": [{"name": "k", "role": "key"}]},
            {"name": "s", "columns": [{"name": "j", "role": "key"}]}]})
        q = bind(parse_sql("SELECT COUNT(*) FROM r, s WHERE r.k = s.j "
                           "AND k = j AND s.j = r.k AND j = k"), schema)
        assert q.join_edges == [("r.k", "s.j")]

    def test_integral_float_accepted(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a WHERE a.y = 2.0"),
                 chain_schema())
        assert q.predicates[0].value == 2


class TestValidateAcyclic:
    def test_cycle_rejected(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.k1 = b.k1 "
                           "AND b.k2 = c.k2 AND c.k2 = a.k1"), chain_schema())
        with pytest.raises(CyclicJoinError, match="at edge c.k2 = a.k1"):
            decompose(q, COLUMN_DOMAIN)

    def test_self_join_rejected(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a WHERE a.k1 = a.y"),
                 chain_schema())
        with pytest.raises(CyclicJoinError, match="self-join"):
            decompose(q, COLUMN_DOMAIN)

    def test_tree_accepted(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.k1 = b.k1 "
                           "AND b.k2 = c.k2"), chain_schema())
        assert len(decompose(q, COLUMN_DOMAIN).groups) == 2


class TestDecompose:
    def test_two_groups_one_link(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.k1 = b.k1 "
                           "AND b.k2 = c.k2"), chain_schema())
        plan = decompose(q, COLUMN_DOMAIN)
        assert len(plan.groups) == 2
        root = plan.root
        assert root is plan.groups[0] and root.domain_id == "a.k1"
        assert len(root.children) == 1
        link = root.children[0]
        assert link.bridge_alias == "b"
        assert (link.parent_col, link.child_col) == ("k1", "k2")
        assert link.group is plan.groups[1] and not link.group.children
        assert link.group.members == [("b", "k2"), ("c", "k2")]
        # the bridge's parent-side member is left out of the parent group
        assert root.members == [("a", "k1")]

    def test_single_group_no_links(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a, b WHERE a.k1 = b.k1"),
                 chain_schema())
        plan = decompose(q, COLUMN_DOMAIN)
        assert len(plan.groups) == 1 and not plan.root.children
        assert plan.root.members == [("a", "k1"), ("b", "k1")]

    def test_disconnected_graph_rejected(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.k1 = b.k1"),
                 chain_schema())
        with pytest.raises(PlanError, match="disconnected"):
            decompose(q, COLUMN_DOMAIN)

    def test_one_table_has_no_group(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a WHERE a.y = 1"),
                 chain_schema())
        assert decompose(q, COLUMN_DOMAIN).groups == []

    def test_table_joined_on_two_columns_of_one_domain_rejected(self):
        q = bind(parse_sql("SELECT COUNT(*) FROM a, b, c WHERE a.k1 = b.k1 "
                           "AND b.k2 = c.k2"), chain_schema())
        one_domain = dict.fromkeys(COLUMN_DOMAIN, "a.k1")
        with pytest.raises(PlanError, match="not chained into a tree"):
            decompose(q, one_domain)

    def test_bridge_on_three_domains_unsupported(self):
        aliases = {"a": "a", "b": "b", "c": "c", "d": "d"}
        edges = [("a.k1", "b.k1"), ("b.k2", "c.k2"), ("b.k3", "d.k3")]
        q = Query(aliases=aliases, join_edges=edges, predicates=[])
        cd = dict(COLUMN_DOMAIN)
        cd.update({"b.k3": "b.k3", "d.k3": "b.k3"})
        with pytest.raises(UnsupportedQueryError, match="key domains"):
            decompose(q, cd)
