//! Rewrite-rule tests: SQL in, rewritten plan shape out (execution-level
//! checks live in the core crate's tests).

use std::collections::HashMap;

use perm_algebra::catalog::{BaseTableMeta, CatalogProvider};
use perm_algebra::{bind_statement, plan_tree, BoundStatement, LogicalPlan};
use perm_sql::{parse_statement, Query, Statement};
use perm_types::{Column, DataType, Schema};

use crate::*;

struct Forum {
    tables: HashMap<String, BaseTableMeta>,
    views: HashMap<String, Query>,
}

impl Forum {
    fn new() -> Forum {
        let mut tables = HashMap::new();
        let t = |cols: &[(&str, DataType)]| BaseTableMeta {
            schema: Schema::new(cols.iter().map(|(n, t)| Column::new(*n, *t)).collect()),
            provenance_cols: vec![],
        };
        tables.insert(
            "messages".into(),
            t(&[
                ("mid", DataType::Int),
                ("text", DataType::Text),
                ("uid", DataType::Int),
            ]),
        );
        tables.insert(
            "imports".into(),
            t(&[
                ("mid", DataType::Int),
                ("text", DataType::Text),
                ("origin", DataType::Text),
            ]),
        );
        tables.insert(
            "approved".into(),
            t(&[("uid", DataType::Int), ("mid", DataType::Int)]),
        );
        // An eagerly-materialized provenance table: columns 1.. are
        // recorded provenance.
        tables.insert(
            "eager_p".into(),
            BaseTableMeta {
                schema: Schema::new(vec![
                    Column::new("mid", DataType::Int),
                    Column::new("prov_public_messages_mid", DataType::Int),
                    Column::new("prov_public_messages_text", DataType::Text),
                ]),
                provenance_cols: vec![1, 2],
            },
        );
        let mut views = HashMap::new();
        views.insert(
            "v1".into(),
            query("SELECT mid, text FROM messages UNION SELECT mid, text FROM imports"),
        );
        Forum { tables, views }
    }
}

fn query(sql: &str) -> Query {
    match parse_statement(sql).unwrap() {
        Statement::Query(q) => q,
        _ => unreachable!(),
    }
}

impl CatalogProvider for Forum {
    fn base_table(&self, name: &str) -> Option<BaseTableMeta> {
        self.tables.get(&name.to_ascii_lowercase()).cloned()
    }
    fn view_definition(&self, name: &str) -> Option<Query> {
        self.views.get(&name.to_ascii_lowercase()).cloned()
    }
}

/// Bind a `SELECT PROVENANCE` query through the rewriter with options.
fn rewrite_with(sql: &str, options: RewriteOptions) -> perm_types::Result<LogicalPlan> {
    let cat = Forum::new();
    let rewriter = Rewriter::new(options, &UnknownCardinality);
    let stmt = parse_statement(sql)?;
    match bind_statement(&stmt, &cat, Some(&rewriter))? {
        BoundStatement::Query(p) => Ok(p),
        other => panic!("expected query, got {other:?}"),
    }
}

fn rewrite_sql(sql: &str) -> LogicalPlan {
    rewrite_with(sql, RewriteOptions::default())
        .unwrap_or_else(|e| panic!("rewrite of {sql:?} failed: {e}"))
}

// ----------------------------------------------------------------------
// Base access and projection rules
// ----------------------------------------------------------------------

#[test]
fn scan_provenance_duplicates_all_attributes() {
    let p = rewrite_sql("SELECT PROVENANCE mid, text, uid FROM messages");
    assert_eq!(
        p.schema().names(),
        vec![
            "mid",
            "text",
            "uid",
            "prov_public_messages_mid",
            "prov_public_messages_text",
            "prov_public_messages_uid"
        ]
    );
}

#[test]
fn projection_keeps_provenance_of_all_attributes() {
    // Even though only `text` is projected, the provenance covers the whole
    // contributing tuple (paper Figure 2's schema behaviour).
    let p = rewrite_sql("SELECT PROVENANCE text FROM messages");
    assert_eq!(
        p.schema().names(),
        vec![
            "text",
            "prov_public_messages_mid",
            "prov_public_messages_text",
            "prov_public_messages_uid"
        ]
    );
}

#[test]
fn provenance_attribute_types_follow_sources() {
    let p = rewrite_sql("SELECT PROVENANCE text FROM messages");
    let s = p.schema();
    assert_eq!(s.column(1).ty, DataType::Int);
    assert_eq!(s.column(2).ty, DataType::Text);
    assert!(s.column(1).nullable, "prov attrs are nullable");
}

#[test]
fn filter_passes_through() {
    let p = rewrite_sql("SELECT PROVENANCE mid FROM messages WHERE mid > 2");
    let tree = plan_tree(&p);
    assert!(tree.contains("Filter"), "{tree}");
    assert_eq!(p.arity(), 4);
}

// ----------------------------------------------------------------------
// Join rule
// ----------------------------------------------------------------------

#[test]
fn join_concatenates_provenance_lists() {
    let p =
        rewrite_sql("SELECT PROVENANCE m.text FROM messages m JOIN approved a ON m.mid = a.mid");
    let names = p.schema().names();
    assert_eq!(
        names,
        vec![
            "text",
            "prov_public_messages_mid",
            "prov_public_messages_text",
            "prov_public_messages_uid",
            "prov_public_approved_uid",
            "prov_public_approved_mid",
        ]
    );
}

#[test]
fn self_join_repeats_relation_names() {
    let p = rewrite_sql("SELECT PROVENANCE a.mid FROM messages a JOIN messages b ON a.mid = b.mid");
    let names = p.schema().names();
    let count = names
        .iter()
        .filter(|n| **n == "prov_public_messages_mid")
        .count();
    assert_eq!(count, 2, "{names:?}");
}

#[test]
fn left_join_keeps_provenance_attrs_nullable() {
    let p = rewrite_sql(
        "SELECT PROVENANCE m.mid FROM messages m LEFT JOIN approved a ON m.mid = a.mid",
    );
    let s = p.schema();
    // approved's provenance attrs are on the padded side.
    assert!(s.column(s.len() - 1).nullable);
}

// ----------------------------------------------------------------------
// Set operations (the q1 shape of Figure 2)
// ----------------------------------------------------------------------

#[test]
fn union_schema_matches_figure_2() {
    let p = rewrite_sql(
        "SELECT PROVENANCE * FROM (SELECT mid, text FROM messages \
         UNION SELECT mid, text FROM imports) q1",
    );
    assert_eq!(
        p.schema().names(),
        vec![
            "mid",
            "text",
            "prov_public_messages_mid",
            "prov_public_messages_text",
            "prov_public_messages_uid",
            "prov_public_imports_mid",
            "prov_public_imports_text",
            "prov_public_imports_origin",
        ],
        "Figure 2: original attributes, then messages' provenance, then imports'"
    );
}

#[test]
fn union_all_uses_padded_union_without_distinct() {
    let p = rewrite_sql(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages \
         UNION ALL SELECT mid FROM imports) u",
    );
    let tree = plan_tree(&p);
    assert!(tree.contains("UnionAll"), "{tree}");
}

#[test]
fn set_union_dedups_witness_pairs() {
    let p = rewrite_sql(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages \
         UNION SELECT mid FROM imports) u",
    );
    let tree = plan_tree(&p);
    assert!(tree.contains("Distinct"), "{tree}");
    assert!(tree.contains("UnionAll"), "{tree}");
}

#[test]
fn join_back_union_strategy_builds_join() {
    let opts = RewriteOptions {
        union_strategy: StrategyMode::Fixed(UnionStrategy::JoinBack),
        ..RewriteOptions::default()
    };
    let p = rewrite_with(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages \
         UNION SELECT mid FROM imports) u",
        opts,
    )
    .unwrap();
    let tree = plan_tree(&p);
    assert!(tree.contains("InnerJoin"), "{tree}");
    assert!(tree.contains("Union"), "{tree}");
}

#[test]
fn join_back_rejects_union_all() {
    let opts = RewriteOptions {
        union_strategy: StrategyMode::Fixed(UnionStrategy::JoinBack),
        ..RewriteOptions::default()
    };
    let err = rewrite_with(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages \
         UNION ALL SELECT mid FROM imports) u",
        opts,
    )
    .unwrap_err();
    assert_eq!(err.kind(), "rewrite");
}

#[test]
fn cost_based_union_picks_a_strategy() {
    let opts = RewriteOptions {
        union_strategy: StrategyMode::CostBased,
        ..RewriteOptions::default()
    };
    // Must simply succeed and produce the Figure 2 schema width.
    let p = rewrite_with(
        "SELECT PROVENANCE * FROM (SELECT mid, text FROM messages \
         UNION SELECT mid, text FROM imports) u",
        opts,
    )
    .unwrap();
    assert_eq!(p.arity(), 8);
}

#[test]
fn intersect_joins_both_sides_back() {
    let p = rewrite_sql(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages \
         INTERSECT SELECT mid FROM imports) i",
    );
    let names = p.schema().names();
    assert!(names.contains(&"prov_public_messages_mid"), "{names:?}");
    assert!(names.contains(&"prov_public_imports_mid"), "{names:?}");
    let tree = plan_tree(&p);
    assert!(tree.matches("InnerJoin").count() >= 2, "{tree}");
}

#[test]
fn except_pads_right_side_under_influence() {
    let p = rewrite_sql(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages \
         EXCEPT SELECT mid FROM imports) e",
    );
    let names = p.schema().names();
    // Right side attrs present in schema but produced as NULL literals.
    assert!(names.contains(&"prov_public_imports_mid"), "{names:?}");
}

#[test]
fn except_under_lineage_joins_whole_right_side() {
    let p = rewrite_sql(
        "SELECT PROVENANCE ON CONTRIBUTION (LINEAGE) * FROM \
         (SELECT mid FROM messages EXCEPT SELECT mid FROM imports) e",
    );
    let tree = plan_tree(&p);
    // Lineage attaches the right side through a LEFT JOIN ON true.
    assert!(tree.contains("LeftJoin on true"), "{tree}");
}

// ----------------------------------------------------------------------
// Aggregation rule
// ----------------------------------------------------------------------

/// The plan tree of `p` with its fused aggregation node (if any)
/// replaced by that node's definition, the join-back: the fused
/// operator must *mean* exactly the paper's rule.
fn join_back_tree(p: &LogicalPlan) -> String {
    fn find(p: &LogicalPlan) -> Option<&LogicalPlan> {
        if matches!(p, LogicalPlan::AggregateAnnotate { .. }) {
            return Some(p);
        }
        p.children().into_iter().find_map(find)
    }
    let fused = find(p).expect("an SPJ input fuses its join-back");
    plan_tree(&fused.join_back_form().expect("fused node has a definition"))
}

#[test]
fn aggregation_joins_back_on_group_attributes() {
    let p = rewrite_sql("SELECT PROVENANCE uid, count(*) FROM approved GROUP BY uid");
    assert!(
        plan_tree(&p).contains("AggregateAnnotate"),
        "{}",
        plan_tree(&p)
    );
    let tree = join_back_tree(&p);
    assert!(
        tree.contains("LeftJoin on (#0 IS NOT DISTINCT FROM"),
        "NULL-safe join-back expected:\n{tree}"
    );
    assert!(tree.contains("Aggregate"), "{tree}");
    assert_eq!(
        p.schema().names(),
        vec![
            "uid",
            "count",
            "prov_public_approved_uid",
            "prov_public_approved_mid"
        ]
    );
}

#[test]
fn global_aggregate_joins_on_true() {
    let p = rewrite_sql("SELECT PROVENANCE count(*) FROM messages");
    let tree = join_back_tree(&p);
    assert!(tree.contains("LeftJoin on true"), "{tree}");
}

#[test]
fn paper_q3_provenance_schema() {
    // The §2.4 listing: provenance of the aggregation over v1 ⋈ approved.
    let p = rewrite_sql(
        "SELECT PROVENANCE ON CONTRIBUTION (INFLUENCE) count(*), text \
         FROM v1 JOIN approved a ON v1.mId = a.mId GROUP BY v1.mId",
    );
    let names = p.schema().names();
    assert_eq!(names[0], "count");
    assert_eq!(names[1], "text");
    // v1 is a view over messages ∪ imports: provenance reaches through it.
    assert!(names.contains(&"prov_public_messages_mid"), "{names:?}");
    assert!(names.contains(&"prov_public_imports_origin"), "{names:?}");
    assert!(names.contains(&"prov_public_approved_uid"), "{names:?}");
    assert_eq!(names.len(), 2 + 3 + 3 + 2);
}

// ----------------------------------------------------------------------
// BASERELATION and external provenance (paper §2.4)
// ----------------------------------------------------------------------

#[test]
fn baserelation_stops_the_rewrite_at_the_view() {
    let p = rewrite_sql("SELECT PROVENANCE text FROM v1 BASERELATION");
    let names = p.schema().names();
    // Provenance attributes derive from v1, not messages/imports.
    assert_eq!(
        names,
        vec!["text", "prov_public_v1_mid", "prov_public_v1_text"]
    );
    // The view body is still executed (Union inside), but not rewritten:
    // no prov_public_messages_* columns anywhere.
    let tree = plan_tree(&p);
    assert!(tree.contains("Union"), "{tree}");
}

#[test]
fn external_provenance_attrs_propagate_untouched() {
    let p = rewrite_sql("SELECT PROVENANCE mid, text FROM imports PROVENANCE (origin)");
    // `origin` is the (externally produced) provenance; no duplication.
    assert_eq!(p.schema().names(), vec!["mid", "text", "origin"]);
}

#[test]
fn eager_provenance_table_reuses_recorded_columns() {
    let p = rewrite_sql("SELECT PROVENANCE mid FROM eager_p");
    assert_eq!(
        p.schema().names(),
        vec![
            "mid",
            "prov_public_messages_mid",
            "prov_public_messages_text"
        ]
    );
    // No duplication of eager_p's own columns.
    let tree = plan_tree(&p);
    assert!(!tree.contains("prov_public_eager_p"), "{tree}");
}

// ----------------------------------------------------------------------
// Sublinks (EDBT'09)
// ----------------------------------------------------------------------

#[test]
fn uncorrelated_in_sublink_unnests_to_join() {
    let p = rewrite_sql(
        "SELECT PROVENANCE text FROM messages \
         WHERE mid IN (SELECT mid FROM approved)",
    );
    let names = p.schema().names();
    assert!(names.contains(&"prov_public_approved_mid"), "{names:?}");
    let tree = plan_tree(&p);
    assert!(tree.contains("InnerJoin"), "{tree}");
}

#[test]
fn uncorrelated_exists_cross_joins_witnesses() {
    let p = rewrite_sql(
        "SELECT PROVENANCE text FROM messages \
         WHERE EXISTS (SELECT 1 FROM approved)",
    );
    let tree = plan_tree(&p);
    assert!(tree.contains("CrossJoin"), "{tree}");
    assert!(
        p.schema().names().contains(&"prov_public_approved_uid"),
        "{:?}",
        p.schema().names()
    );
}

#[test]
fn negated_sublink_pads_nulls() {
    let p = rewrite_sql(
        "SELECT PROVENANCE text FROM messages \
         WHERE mid NOT IN (SELECT mid FROM approved)",
    );
    let names = p.schema().names();
    assert!(names.contains(&"prov_public_approved_mid"), "{names:?}");
}

#[test]
fn correlated_sublink_is_rejected_in_provenance() {
    let err = rewrite_with(
        "SELECT PROVENANCE text FROM messages m \
         WHERE EXISTS (SELECT 1 FROM approved a WHERE a.mid = m.mid)",
        RewriteOptions::default(),
    )
    .unwrap_err();
    assert_eq!(err.kind(), "rewrite");
    assert!(err.message().contains("correlated"), "{err}");
}

#[test]
fn scalar_sublink_is_rejected_in_provenance() {
    // A bare scalar sublink conjunct.
    let err = rewrite_with(
        "SELECT PROVENANCE text FROM messages WHERE (SELECT true)",
        RewriteOptions::default(),
    )
    .unwrap_err();
    assert!(err.message().contains("scalar"), "{err}");
    // A sublink nested inside a comparison.
    let err = rewrite_with(
        "SELECT PROVENANCE text FROM messages \
         WHERE mid = (SELECT max(mid) FROM approved)",
        RewriteOptions::default(),
    )
    .unwrap_err();
    assert_eq!(err.kind(), "rewrite");
}

// ----------------------------------------------------------------------
// Copy-CS and limits
// ----------------------------------------------------------------------

#[test]
fn copy_partial_nulls_non_copied_attributes() {
    // Only `text` is copied to the output; mid/uid provenance must be NULL
    // literals, but text's provenance survives.
    let p = rewrite_sql("SELECT PROVENANCE ON CONTRIBUTION (COPY) text FROM messages");
    let tree = plan_tree(&p);
    // A projection with NULL literals replacing non-copied attributes.
    assert!(tree.contains("null"), "{tree}");
    assert_eq!(p.arity(), 4);
}

#[test]
fn copy_complete_nulls_whole_relation_when_partial() {
    // Not all of messages' attributes are copied -> under COMPLETE the
    // whole relation instance is NULLed.
    let p = rewrite_sql("SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) text FROM messages");
    match &p {
        LogicalPlan::Project { exprs, .. } => {
            use perm_algebra::expr::ScalarExpr;
            use perm_types::Value;
            let nulls = exprs
                .iter()
                .filter(|e| matches!(e, ScalarExpr::Literal(Value::Null)))
                .count();
            assert_eq!(nulls, 3, "all three prov attrs nulled");
        }
        other => panic!("expected top projection, got {other:?}"),
    }
}

#[test]
fn copy_complete_keeps_fully_copied_relation() {
    let p = rewrite_sql(
        "SELECT PROVENANCE ON CONTRIBUTION (COPY COMPLETE) mid, text, uid FROM messages",
    );
    match &p {
        LogicalPlan::Project { exprs, .. } => {
            use perm_algebra::expr::ScalarExpr;
            use perm_types::Value;
            let nulls = exprs
                .iter()
                .filter(|e| matches!(e, ScalarExpr::Literal(Value::Null)))
                .count();
            assert_eq!(nulls, 0, "everything copied, nothing nulled");
        }
        _ => {
            // No copy projection inserted at all is equally fine.
        }
    }
}

#[test]
fn limit_inside_provenance_is_rejected() {
    let err = rewrite_with(
        "SELECT PROVENANCE * FROM (SELECT mid FROM messages LIMIT 1) l",
        RewriteOptions::default(),
    )
    .unwrap_err();
    assert_eq!(err.kind(), "rewrite");
    assert!(err.message().contains("LIMIT"), "{err}");
}

#[test]
fn order_by_outside_provenance_select_is_fine() {
    let p = rewrite_sql("SELECT PROVENANCE mid FROM messages ORDER BY mid DESC");
    assert!(matches!(p, LogicalPlan::Sort { .. }));
}

// ----------------------------------------------------------------------
// Composability: querying provenance (paper §2.4 middle listing)
// ----------------------------------------------------------------------

#[test]
fn provenance_subquery_composes_with_normal_sql() {
    let p = rewrite_sql(
        "SELECT text, prov_public_imports_origin FROM \
         (SELECT PROVENANCE count(*), text FROM v1 JOIN approved a ON v1.mId = a.mId \
          GROUP BY v1.mId) AS prov \
         WHERE count > 5 AND prov_public_imports_origin = 'superForum'",
    );
    assert_eq!(
        p.schema().names(),
        vec!["text", "prov_public_imports_origin"]
    );
}

#[test]
fn rewriter_reports_provenance_positions() {
    let cat = Forum::new();
    let rewriter = Rewriter::basic();
    let stmt = parse_statement("SELECT PROVENANCE text FROM messages").unwrap();
    let mut binder = perm_algebra::Binder::with_provenance(&cat, &rewriter);
    let q = match stmt {
        Statement::Query(q) => q,
        _ => unreachable!(),
    };
    binder.bind_query(&q).unwrap();
    assert_eq!(binder.last_provenance_attrs(), Some(&[1, 2, 3][..]));
}
