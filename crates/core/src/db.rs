//! `PermDb`: the single-session convenience facade — one server, one
//! session, the end-to-end Perm pipeline of the paper's Figure 3
//! (parse → analyze (view unfolding) → provenance rewrite → plan →
//! execute).
//!
//! `PermDb` is now a thin shim over [`PermServer`] + one [`Session`]; it
//! keeps the original embedded-database API (including `&mut self`
//! receivers) stable for tests, examples and benches. New code that wants
//! concurrency, prepared statements or streaming results should use
//! [`PermServer`] directly — see [`crate::server`] and the README's
//! "Embedding Perm" section for a migration note.

use std::sync::Arc;

use perm_algebra::stats::CardinalityEstimator;
use perm_algebra::LogicalPlan;
use perm_storage::{Catalog, CatalogWriteGuard};
use perm_types::{Result, Schema, Tuple};

use crate::options::SessionOptions;
use crate::result::{QueryResult, RowStream, StatementResult};
use crate::server::{PermServer, Prepared, Session};

/// A single-session Perm database: an in-memory catalog plus the session
/// options controlling the provenance rewriter.
pub struct PermDb {
    session: Session,
}

/// Exposes exact table statistics to the pipeline's unified estimator —
/// the rewriter's cost-based strategy chooser and the executor's physical
/// planner both read it. Delegates to [`perm_exec::CatalogStats`].
pub struct CatalogCardinalities<'a>(pub &'a Catalog);

impl CardinalityEstimator for CatalogCardinalities<'_> {
    fn table_rows(&self, table: &str) -> Option<f64> {
        perm_exec::CatalogStats(self.0).table_rows(table)
    }

    fn column_distinct(&self, table: &str, column: usize) -> Option<f64> {
        perm_exec::CatalogStats(self.0).column_distinct(table, column)
    }

    fn has_index(&self, table: &str, column: usize) -> bool {
        perm_exec::CatalogStats(self.0).has_index(table, column)
    }
}

impl Default for PermDb {
    fn default() -> PermDb {
        PermDb::new()
    }
}

impl PermDb {
    /// An empty database with default options.
    pub fn new() -> PermDb {
        PermDb {
            session: PermServer::new().session(),
        }
    }

    /// An empty database with explicit session options.
    pub fn with_options(options: SessionOptions) -> PermDb {
        PermDb {
            session: PermServer::new().session_with_options(options),
        }
    }

    /// The underlying session (shareable with the server API).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The server this database's catalog belongs to: hand out more
    /// sessions with [`PermServer::session`] to query the same catalog
    /// concurrently.
    pub fn server(&self) -> PermServer {
        self.session.server()
    }

    pub fn options(&self) -> &SessionOptions {
        self.session.options()
    }

    /// Change the session options (the browser's strategy / semantics
    /// toggles).
    pub fn set_options(&mut self, options: SessionOptions) {
        self.session.set_options(options);
    }

    /// A consistent snapshot of the catalog (read-only access).
    ///
    /// The snapshot does not observe writes made after this call; re-call
    /// for fresh state.
    pub fn catalog(&self) -> Arc<Catalog> {
        self.session.snapshot()
    }

    /// Exclusive catalog write access (index creation, direct table
    /// loads). The guard dereferences to [`Catalog`].
    pub fn catalog_mut(&mut self) -> CatalogWriteGuard<'_> {
        self.session.catalog_write()
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Execute one SQL / SQL-PLE statement.
    pub fn execute(&mut self, sql: &str) -> Result<StatementResult> {
        self.session.execute(sql)
    }

    /// Execute a `;`-separated script, returning one result per statement.
    /// On failure the error names the 1-based statement that died.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>> {
        self.session.run_script(sql)
    }

    /// Convenience: execute a query and return its rows.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        self.session.query(sql)
    }

    /// Execute a query cursor-style (see [`Session::query_stream`]).
    pub fn query_stream(&self, sql: &str) -> Result<RowStream> {
        self.session.query_stream(sql)
    }

    /// Prepare a query for repeated execution (see [`Session::prepare`]).
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        self.session.prepare(sql)
    }

    // ------------------------------------------------------------------
    // Pipeline stages (also used by the stage trace / browser)
    // ------------------------------------------------------------------

    /// Parse + analyze (+ provenance-rewrite when requested): the bound
    /// plan, pre-optimization.
    pub fn bind_sql(&self, sql: &str) -> Result<LogicalPlan> {
        self.session.bind_sql(sql)
    }

    /// Optimize and execute a bound plan.
    pub fn run_plan(&self, plan: LogicalPlan) -> Result<(Schema, Vec<Tuple>)> {
        self.session.run_plan(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::Value;

    #[test]
    fn create_insert_select_roundtrip() {
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int NOT NULL, y text)")
            .unwrap();
        let r = db
            .execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            .unwrap();
        assert_eq!(r, StatementResult::Inserted(2));
        let rows = db.query("SELECT x, y FROM t ORDER BY x DESC").unwrap();
        assert_eq!(rows.row(0), &[Value::Int(2), Value::text("b")]);
    }

    #[test]
    fn insert_with_expression_values() {
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.execute("INSERT INTO t VALUES (1 + 2 * 3)").unwrap();
        let rows = db.query("SELECT x FROM t").unwrap();
        assert_eq!(rows.row(0), &[Value::Int(7)]);
    }

    #[test]
    fn create_table_as_materializes() {
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let r = db
            .execute("CREATE TABLE big AS SELECT x * 10 AS x10 FROM t WHERE x > 1")
            .unwrap();
        assert_eq!(
            r,
            StatementResult::TableCreated {
                name: "big".into(),
                rows: 2
            }
        );
        let rows = db.query("SELECT x10 FROM big ORDER BY x10").unwrap();
        assert_eq!(rows.row(0), &[Value::Int(20)]);
    }

    #[test]
    fn views_create_and_drop() {
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.execute("CREATE VIEW v AS SELECT x FROM t").unwrap();
        assert!(db.query("SELECT * FROM v").unwrap().is_empty());
        assert_eq!(
            db.execute("DROP VIEW v").unwrap(),
            StatementResult::Dropped(true)
        );
        assert!(db.execute("SELECT * FROM v").is_err());
        assert_eq!(
            db.execute("DROP TABLE IF EXISTS nope").unwrap(),
            StatementResult::Dropped(false)
        );
    }

    #[test]
    fn explain_returns_the_physical_plan() {
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int)").unwrap();
        let r = db.execute("EXPLAIN SELECT x FROM t WHERE x > 1").unwrap();
        match r {
            StatementResult::Explain(tree) => {
                assert!(tree.contains("FusedScan(t)"), "{tree}");
                assert!(tree.contains("filter=(#0 > 1)"), "{tree}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_verbose_shows_logical_and_physical_trees() {
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int)").unwrap();
        let r = db
            .execute("EXPLAIN VERBOSE SELECT x FROM t WHERE x > 1")
            .unwrap();
        match r {
            StatementResult::Explain(text) => {
                assert!(text.contains("== logical (optimized) =="), "{text}");
                assert!(text.contains("== physical =="), "{text}");
                assert!(text.contains("Scan(t)"), "{text}");
                assert!(text.contains("(t.x: int)"), "schema annotations: {text}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_and_update_statements_execute() {
        let mut db = PermDb::new();
        db.run_script(
            "CREATE TABLE t (x int NOT NULL, y text);
             INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd');",
        )
        .unwrap();
        assert_eq!(
            db.execute("DELETE FROM t WHERE x % 2 = 0").unwrap(),
            StatementResult::Deleted(2)
        );
        assert_eq!(
            db.execute("UPDATE t SET y = y || '!' WHERE x = 3").unwrap(),
            StatementResult::Updated(1)
        );
        let rows = db.query("SELECT x, y FROM t ORDER BY x").unwrap();
        assert_eq!(rows.rows.len(), 2);
        assert_eq!(rows.row(1), &[Value::Int(3), Value::text("c!")]);
        // Unconditional DELETE empties the table.
        assert_eq!(
            db.execute("DELETE FROM t").unwrap(),
            StatementResult::Deleted(2)
        );
        assert!(db.query("SELECT * FROM t").unwrap().is_empty());
    }

    #[test]
    fn dml_keeps_planner_statistics_fresh() {
        // The cost model reads Table::stats through the unified
        // estimator; DELETE/UPDATE must invalidate the cache so a plan
        // built after the DML sees the new row counts.
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int)").unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
        }
        let snap = db.catalog();
        assert_eq!(snap.table("t").unwrap().stats().row_count, 50);
        db.execute("DELETE FROM t WHERE x >= 10").unwrap();
        let snap = db.catalog();
        assert_eq!(snap.table("t").unwrap().stats().row_count, 10);
        db.execute("UPDATE t SET x = 0 WHERE x < 5").unwrap();
        let snap = db.catalog();
        let stats = snap.table("t").unwrap().stats();
        assert_eq!(stats.row_count, 10);
        assert_eq!(stats.columns[0].n_distinct, 6, "0 and 5..9");
    }

    #[test]
    fn query_on_ddl_is_an_error() {
        let mut db = PermDb::new();
        assert!(db.query("CREATE TABLE t (x int)").is_err());
    }

    #[test]
    fn run_script_executes_in_order() {
        let mut db = PermDb::new();
        let results = db
            .run_script("CREATE TABLE t (x int); INSERT INTO t VALUES (5); SELECT x FROM t;")
            .unwrap();
        assert_eq!(results.len(), 3);
        assert_eq!(results[2].clone().expect_rows().row(0), &[Value::Int(5)]);
    }

    #[test]
    fn run_script_errors_name_the_statement() {
        let mut db = PermDb::new();
        let err = db
            .run_script("CREATE TABLE t (x int); SELECT nope FROM t;")
            .unwrap_err();
        assert!(err.message().contains("script statement 2 of 2"), "{err}");
    }

    #[test]
    fn parse_errors_surface() {
        let mut db = PermDb::new();
        let err = db.execute("SELEC 1").unwrap_err();
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn catalog_mut_guard_allows_direct_loads() {
        let mut db = PermDb::new();
        db.execute("CREATE TABLE t (x int)").unwrap();
        db.catalog_mut()
            .table_mut("t")
            .unwrap()
            .insert(Tuple::new(vec![Value::Int(7)]))
            .unwrap();
        assert_eq!(db.query("SELECT x FROM t").unwrap().row_count(), 1);
    }
}
