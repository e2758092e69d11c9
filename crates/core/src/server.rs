//! The concurrent server API: [`PermServer`] → [`Session`] → [`Prepared`].
//!
//! The paper's Perm runs inside PostgreSQL, where one catalog serves many
//! backend sessions, plans are prepared once and executed many times, and
//! results stream to clients cursor-style. This module reproduces that
//! shape for the embedded engine:
//!
//! * [`PermServer`] owns the catalog behind a copy-on-write lock
//!   ([`perm_storage::SharedCatalog`]). DDL/DML take the write lock; any
//!   number of sessions read concurrently from immutable snapshots.
//! * [`Session`] is a cheap, cloneable, `Send + Sync` handle carrying its
//!   own [`SessionOptions`] (contribution semantics, rewrite-strategy
//!   toggles). All query methods take `&self`, so one session can be
//!   shared across threads — or cloned per thread with different options.
//! * [`Prepared`] caches the parsed, provenance-rewritten, optimized plan
//!   of one query so repeated execution skips parse + rewrite + optimize
//!   (the hot path for provenance queries asked many times).
//! * [`Session::query_stream`] returns a pull-based [`RowStream`] that
//!   yields tuples on demand instead of materializing the result.
//!
//! ```
//! use perm_core::PermServer;
//!
//! let server = PermServer::new();
//! let session = server.session();
//! session.execute("CREATE TABLE t (x int)").unwrap();
//! session.execute("INSERT INTO t VALUES (1), (2)").unwrap();
//!
//! // Prepare once, execute many times.
//! let prepared = session.prepare("SELECT PROVENANCE x FROM t").unwrap();
//! assert_eq!(prepared.execute().unwrap().row_count(), 2);
//! assert_eq!(prepared.execute().unwrap().row_count(), 2);
//!
//! // Sessions are cloneable handles onto the same catalog.
//! let other = server.session();
//! assert_eq!(other.query("SELECT x FROM t").unwrap().row_count(), 2);
//! ```

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use perm_algebra::{bind_statement, BoundStatement, LogicalPlan};
use perm_exec::{
    estimated_peak_bytes, optimize_with, physical_tree, physical_tree_verbose, CatalogAdapter,
    Executor, MemoryPool, PhysicalPlan, QueryMemory,
};
use perm_rewrite::Rewriter;
use perm_sql::{parse_statement, parse_statements, ObjectKind, Statement};
use perm_storage::{Catalog, CatalogWriteGuard, SharedCatalog, Table};
use perm_storage::{DurableStore, WalRecord, WAL_FILE};
use perm_types::{Column, PermError, QueryContext, Result, Schema, Tuple};

use crate::admission::{AdmissionPermit, ResourceGovernor};
use crate::db::CatalogCardinalities;
use crate::options::{DurabilityOptions, SessionOptions};
use crate::result::{QueryResult, RowStream, StatementResult};
use crate::sqlgen::{query_to_sql, statement_to_sql};

/// The durability side of a server opened with [`PermServer::open`]: the
/// WAL + checkpoint store behind a mutex, plus the recovery verdict.
///
/// Lock order is catalog write lock → store mutex, everywhere: the WAL
/// append of a committing statement and an explicit checkpoint both hold
/// the catalog lock first, so the log always records the same statement
/// order the catalog applied.
#[derive(Debug)]
struct Durability {
    /// `None` after unrecoverable corruption — the server is read-only.
    store: Mutex<Option<DurableStore>>,
    /// Auto-checkpoint after this many WAL records (`0` = never).
    checkpoint_every: u64,
    /// Why recovery degraded to read-only, when it did.
    recovery_error: Option<PermError>,
}

impl Durability {
    fn store(&self) -> std::sync::MutexGuard<'_, Option<DurableStore>> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fail fast before a write statement runs: read-only servers and
    /// poisoned logs refuse commits.
    fn check_writable(&self) -> Result<()> {
        match &*self.store() {
            Some(s) if s.is_poisoned() => Err(PermError::Execution(
                "write-ahead log disabled by an unrecovered append failure; \
                 reopen the server to repair the log tail"
                    .into(),
            )),
            Some(_) => Ok(()),
            None => Err(match &self.recovery_error {
                Some(e) => e
                    .clone()
                    .with_context("server is read-only after recovery failure"),
                None => PermError::Execution("server is read-only".into()),
            }),
        }
    }

    /// Make one committed statement durable.
    fn log(&self, rec: &WalRecord) -> Result<()> {
        match self.store().as_mut() {
            Some(s) => s.append(rec),
            None => Err(PermError::Execution("server is read-only".into())),
        }
    }

    /// Checkpoint if the log has grown past the configured cadence. A
    /// failure here is non-fatal to the committing statement — it is
    /// already durable in the WAL; the next commit retries.
    fn maybe_checkpoint(&self, catalog: &Catalog) {
        if self.checkpoint_every == 0 {
            return;
        }
        if let Some(s) = self.store().as_mut() {
            if s.records_since_checkpoint() >= self.checkpoint_every {
                let _ = s.checkpoint(catalog);
            }
        }
    }
}

/// The server: one shared catalog, many sessions.
///
/// Cloning a `PermServer` clones the *handle*; both clones serve the same
/// catalog. Dropping the server does not invalidate live sessions — the
/// catalog lives as long as any handle to it.
#[derive(Debug, Default, Clone)]
pub struct PermServer {
    catalog: SharedCatalog,
    governor: Arc<ResourceGovernor>,
    durability: Option<Arc<Durability>>,
    /// Set by [`PermServer::shutdown`]; every statement context carries a
    /// clone, so in-flight queries observe it at their next cooperative
    /// check and fail typed (`reason: ServerShutdown`).
    shutting_down: Arc<AtomicBool>,
    /// Server-wide statement id allocator; ids appear in cancellation
    /// errors so a client can tell *which* query was cancelled.
    next_query_id: Arc<AtomicU64>,
}

impl PermServer {
    /// A server over an empty catalog.
    pub fn new() -> PermServer {
        PermServer::default()
    }

    /// A server over an existing catalog (e.g. pre-loaded tables).
    pub fn with_catalog(catalog: Catalog) -> PermServer {
        PermServer {
            catalog: SharedCatalog::new(catalog),
            governor: Arc::default(),
            durability: None,
            shutting_down: Arc::default(),
            next_query_id: Arc::default(),
        }
    }

    /// Open (or create) a durable server over a data directory, with
    /// default durability options (fsync every commit, periodic
    /// checkpoints).
    ///
    /// Recovery loads the last checkpoint and replays the WAL tail through
    /// the full parse→plan→execute pipeline. A torn final record (a crash
    /// mid-append) is truncated silently; anything worse degrades the
    /// server to read-only over the last good prefix, with the typed
    /// [`PermError::Corruption`] available from
    /// [`PermServer::recovery_error`].
    pub fn open(dir: impl AsRef<Path>) -> Result<PermServer> {
        PermServer::open_with(dir, DurabilityOptions::default())
    }

    /// [`PermServer::open`] with explicit [`DurabilityOptions`].
    pub fn open_with(dir: impl AsRef<Path>, options: DurabilityOptions) -> Result<PermServer> {
        match &options.failpoints {
            Some(spec) => perm_fault::configure(spec)?,
            None => perm_fault::configure_from_env()?,
        }
        let dir = dir.as_ref();
        let outcome = DurableStore::open(dir, options.fsync)?;
        let mut store = outcome.store;
        let mut corruption = outcome.corruption;

        // Replay through a plain (non-durable) server: recovered
        // statements must not be re-logged, and a plain server's write
        // path is exactly the commit path minus the WAL append.
        let replay_server = PermServer::with_catalog(outcome.base);
        let session = replay_server.session();
        for (offset, record) in &outcome.replay {
            // Chaos site: an injected fault here aborts recovery with a
            // typed error (the on-disk log is intact — reopening retries),
            // exercising the bounded-termination property of replay.
            perm_fault::exec_point("exec.replay.statement", "WAL replay")?;
            let applied = match record {
                WalRecord::Statement(sql) => session.execute(sql).map(|_| ()),
                WalRecord::CreateIndex { table, column } => session.create_index(table, column),
            };
            if let Err(e) = applied {
                // A logged statement committed once and must re-apply
                // cleanly; failure means the log (or snapshot) lies.
                // Writes through execute are atomic, so the catalog holds
                // exactly the records before this one.
                corruption = Some(PermError::Corruption {
                    path: dir.join(WAL_FILE).display().to_string(),
                    offset: *offset,
                    detail: format!("logged statement failed to re-apply: {}", e.message()),
                });
                store = None;
                break;
            }
        }

        Ok(PermServer {
            catalog: replay_server.catalog,
            governor: Arc::default(),
            durability: Some(Arc::new(Durability {
                store: Mutex::new(store),
                checkpoint_every: options.checkpoint_every,
                recovery_error: corruption,
            })),
            shutting_down: Arc::default(),
            next_query_id: Arc::default(),
        })
    }

    /// True when recovery degraded this server to read-only (see
    /// [`PermServer::recovery_error`]); always false for in-memory
    /// servers.
    pub fn is_read_only(&self) -> bool {
        self.durability
            .as_ref()
            .is_some_and(|d| d.store().is_none())
    }

    /// The corruption that made recovery degrade to read-only, if any.
    pub fn recovery_error(&self) -> Option<PermError> {
        self.durability
            .as_ref()
            .and_then(|d| d.recovery_error.clone())
    }

    /// Write a durable snapshot of the current catalog and truncate the
    /// WAL. Errors if the server is in-memory or read-only; on checkpoint
    /// I/O failure the previous snapshot (and the full log) stay intact.
    pub fn checkpoint(&self) -> Result<()> {
        let d = self.durability.as_ref().ok_or_else(|| {
            PermError::Execution("checkpoint requires a durable server (PermServer::open)".into())
        })?;
        // The write lock pins the catalog ↔ WAL correspondence.
        let guard = self.catalog.write();
        let snapshot = guard.snapshot();
        let mut store = d.store();
        match store.as_mut() {
            Some(s) => s.checkpoint(&snapshot),
            None => {
                // check_writable re-locks the store mutex; release ours
                // first (the scrutinee guard would otherwise deadlock).
                drop(store);
                d.check_writable()
            }
        }
    }

    /// A new session with default options.
    pub fn session(&self) -> Session {
        self.session_with_options(SessionOptions::default())
    }

    /// A new session with explicit options.
    pub fn session_with_options(&self, options: SessionOptions) -> Session {
        Session {
            catalog: self.catalog.clone(),
            governor: Arc::clone(&self.governor),
            durability: self.durability.clone(),
            shutting_down: Arc::clone(&self.shutting_down),
            next_query_id: Arc::clone(&self.next_query_id),
            options,
        }
    }

    /// A consistent snapshot of the current catalog.
    pub fn snapshot(&self) -> Arc<Catalog> {
        self.catalog.snapshot()
    }

    /// The server-wide execution memory pool every session's queries
    /// charge against. Unbounded by default; see
    /// [`PermServer::set_memory_budget`].
    pub fn memory_pool(&self) -> &MemoryPool {
        self.governor.pool()
    }

    /// Budget the server's execution memory (`None` = unbounded).
    /// Under pressure, buffering operators spill to disk and incoming
    /// queries whose estimates do not fit queue for admission — takes
    /// effect for queries admitted after the call.
    pub fn set_memory_budget(&self, bytes: Option<usize>) {
        self.governor.pool().set_budget(bytes);
    }

    /// The admission gate shared by this server's sessions.
    pub fn governor(&self) -> &Arc<ResourceGovernor> {
        &self.governor
    }

    /// Begin server shutdown: every in-flight statement observes it at
    /// its next cooperative check and fails with the typed cancellation
    /// error (`reason: ServerShutdown`); queued statements leave the
    /// admission queue. Statements started after this call fail on their
    /// first check. Idempotent; the catalog itself stays readable through
    /// existing snapshots.
    pub fn shutdown(&self) {
        self.shutting_down.store(true, Ordering::Relaxed);
    }

    /// Has [`PermServer::shutdown`] been called (on any handle)?
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Relaxed)
    }
}

/// One session against a [`PermServer`]: the unit of concurrency.
///
/// Sessions are cheap to clone and safe to share across threads (`Send +
/// Sync`); every query method takes `&self`. Reads run lock-free against
/// a catalog snapshot; [`Session::execute`] takes the catalog write lock
/// only for DDL/DML.
#[derive(Debug, Clone)]
pub struct Session {
    catalog: SharedCatalog,
    governor: Arc<ResourceGovernor>,
    durability: Option<Arc<Durability>>,
    shutting_down: Arc<AtomicBool>,
    next_query_id: Arc<AtomicU64>,
    options: SessionOptions,
}

impl Session {
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// Change this session's options (the browser's strategy / semantics
    /// toggles). Affects only this handle — clones keep their own options.
    pub fn set_options(&mut self, options: SessionOptions) {
        self.options = options;
    }

    /// Builder-style options change, for `server.session().with_options(…)`.
    pub fn with_options(mut self, options: SessionOptions) -> Session {
        self.options = options;
        self
    }

    /// The server handle this session belongs to.
    pub fn server(&self) -> PermServer {
        PermServer {
            catalog: self.catalog.clone(),
            governor: Arc::clone(&self.governor),
            durability: self.durability.clone(),
            shutting_down: Arc::clone(&self.shutting_down),
            next_query_id: Arc::clone(&self.next_query_id),
        }
    }

    /// A consistent, immutable snapshot of the catalog as of now.
    pub fn snapshot(&self) -> Arc<Catalog> {
        self.catalog.snapshot()
    }

    /// A fresh per-statement lifecycle context: unique query id, the
    /// session's statement deadline (clock starts now, admission wait
    /// included), and the server's shutdown flag.
    fn query_context(&self) -> QueryContext {
        let timeout = (self.options.statement_timeout_ms > 0)
            .then(|| Duration::from_millis(self.options.statement_timeout_ms));
        QueryContext::new(
            self.next_query_id.fetch_add(1, Ordering::Relaxed) + 1,
            timeout,
            Some(Arc::clone(&self.shutting_down)),
        )
    }

    /// An executor over `snapshot` carrying this session's parallelism
    /// and memory options plus the statement's lifecycle context (used
    /// whenever the executor lowers logical plans itself).
    fn executor_on(&self, snapshot: Arc<Catalog>, ctx: QueryContext) -> Executor {
        Executor::new(snapshot)
            .with_parallelism(
                self.options.max_parallelism,
                self.options.parallel_row_threshold,
            )
            .with_verification(self.options.verify_plans)
            .with_memory(self.query_memory())
            .with_columnar(self.options.columnar)
            .with_context(ctx)
    }

    /// A fresh per-query memory view: the server pool plus this
    /// session's per-query cap ([`SessionOptions::memory_budget`]).
    fn query_memory(&self) -> QueryMemory {
        let cap = (self.options.memory_budget > 0).then_some(self.options.memory_budget);
        QueryMemory::new(self.governor.pool().clone(), cap)
    }

    /// Admit one execution of `physical` through the server's governor,
    /// waiting (bounded) if its estimated peak memory does not currently
    /// fit. The permit must stay alive for the duration of execution.
    /// The wait is cancellable through `ctx` (deadline and shutdown
    /// included): a cancelled waiter leaves the queue immediately.
    fn admit(&self, ctx: &QueryContext, physical: &PhysicalPlan) -> Result<AdmissionPermit> {
        self.governor.admit(
            ctx,
            estimated_peak_bytes(physical),
            self.options.max_concurrent_queries,
            Duration::from_millis(self.options.admission_timeout_ms),
        )
    }

    /// Optimize under this session's options: with
    /// [`SessionOptions::verify_plans`] the static verifier re-checks the
    /// plan after every optimizer phase and a violation surfaces as an
    /// error naming the responsible pass (debug builds always verify, but
    /// panic — a violation is an engine bug, not a user error).
    fn optimize_on(&self, plan: LogicalPlan, catalog: &Catalog) -> Result<LogicalPlan> {
        let est = CatalogCardinalities(catalog);
        if self.options.verify_plans {
            perm_exec::optimize_verified(plan, &est)
        } else {
            Ok(optimize_with(plan, &est))
        }
    }

    /// Lower to a physical plan under this session's options, verifying
    /// the lowering when [`SessionOptions::verify_plans`] is set.
    fn lower_on(&self, catalog: &Catalog, optimized: &LogicalPlan) -> Result<PhysicalPlan> {
        let planner = self.planner_on(catalog);
        if self.options.verify_plans {
            planner.plan_verified(optimized)
        } else {
            Ok(planner.plan(optimized))
        }
    }

    /// A physical planner over `catalog` carrying this session's
    /// parallelism options.
    fn planner_on<'c>(&self, catalog: &'c Catalog) -> perm_exec::PhysicalPlanner<'c> {
        perm_exec::PhysicalPlanner::new(catalog)
            .max_parallelism(self.options.max_parallelism)
            .parallel_threshold(self.options.parallel_row_threshold)
            .columnar(self.options.columnar)
    }

    /// Exclusive write access to the catalog (index creation, direct
    /// table loads). Blocks other writers; readers keep their snapshots.
    ///
    /// **Drop the guard before querying from the same thread.** Query
    /// methods take the (non-reentrant) read lock to snapshot, so
    /// `session.query(..)` while this thread still holds the guard
    /// deadlocks. Take what you need from [`CatalogWriteGuard::snapshot`]
    /// instead, or end the guard's scope first.
    pub fn catalog_write(&self) -> CatalogWriteGuard<'_> {
        self.catalog.write()
    }

    // ------------------------------------------------------------------
    // Statement execution
    // ------------------------------------------------------------------

    /// Execute one SQL / SQL-PLE statement.
    pub fn execute(&self, sql: &str) -> Result<StatementResult> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(&stmt)
    }

    /// Execute a parsed statement.
    pub fn execute_statement(&self, stmt: &Statement) -> Result<StatementResult> {
        match stmt {
            // Queries never take the write lock.
            Statement::Query(_) | Statement::Explain { .. } => self.execute_read(stmt),
            _ => self.execute_write(stmt),
        }
    }

    /// Execute a `;`-separated script, returning one result per statement.
    ///
    /// Statements run in order; a failure reports the 1-based index of the
    /// statement that died and how many earlier statements had already
    /// been applied (their effects are *not* rolled back).
    pub fn run_script(&self, sql: &str) -> Result<Vec<StatementResult>> {
        let stmts = parse_statements(sql)?;
        let total = stmts.len();
        let mut results = Vec::with_capacity(total);
        for (idx, stmt) in stmts.iter().enumerate() {
            let n = idx + 1;
            results.push(self.execute_statement(stmt).map_err(|e| {
                let applied = match idx {
                    0 => "no earlier statements applied".to_string(),
                    1 => "statement 1 already applied".to_string(),
                    _ => format!("statements 1-{idx} already applied"),
                };
                e.with_context(format!("script statement {n} of {total} ({applied})"))
            })?);
        }
        Ok(results)
    }

    /// Convenience: execute a query and return its materialized rows.
    /// `EXPLAIN [VERBOSE]` works here too, PostgreSQL-style: one
    /// `QUERY PLAN` text row per plan line.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        match self.execute(sql)? {
            StatementResult::Rows(r) => Ok(r),
            StatementResult::Explain(text) => Ok(QueryResult {
                columns: vec!["QUERY PLAN".into()],
                rows: text
                    .lines()
                    .map(|l| Tuple::new(vec![perm_types::Value::text(l)]))
                    .collect(),
            }),
            other => Err(PermError::Execution(format!(
                "statement did not produce rows: {other:?}"
            ))),
        }
    }

    /// Execute a query cursor-style: a pull-based [`RowStream`] that
    /// yields one row per `next()`. With `LIMIT k` over a streamable plan
    /// the scan stops after producing `k` rows instead of materializing
    /// the whole table. The stream reads a consistent snapshot — DDL that
    /// commits after this call does not affect it.
    pub fn query_stream(&self, sql: &str) -> Result<RowStream> {
        let stmt = parse_statement(sql)?;
        let snapshot = self.snapshot();
        let plan = match self.bind_on(&snapshot, &stmt)? {
            BoundStatement::Query(plan) => plan,
            other => {
                return Err(PermError::Execution(format!(
                    "statement did not produce rows: {other:?}"
                )))
            }
        };
        let optimized = self.optimize_on(plan, &snapshot)?;
        let schema = optimized.schema().clone();
        let physical = self.lower_on(&snapshot, &optimized)?;
        // The stream holds the permit: admission lasts until the
        // consumer drops it, however few rows it pulls. The context
        // outlives execution inside the stream, which cancels it on
        // drop and hands out cancel handles.
        let ctx = self.query_context();
        let permit = self.admit(&ctx, &physical)?;
        let stream = self
            .executor_on(snapshot, ctx.clone())
            .into_stream_physical(&physical)?;
        Ok(RowStream::new(schema, stream, ctx).with_permit(permit))
    }

    /// Parse, provenance-rewrite, optimize and physically plan `sql`
    /// once, caching the result for repeated execution.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let stmt = parse_statement(sql)?;
        let snapshot = self.snapshot();
        let plan = match self.bind_on(&snapshot, &stmt)? {
            BoundStatement::Query(plan) => plan,
            other => {
                return Err(PermError::Analysis(format!(
                    "only queries can be prepared, got {other:?}"
                )))
            }
        };
        let optimized = self.optimize_on(plan, &snapshot)?;
        let physical = self.lower_on(&snapshot, &optimized)?;
        let schema = optimized.schema().clone();
        Ok(Prepared {
            session: self.clone(),
            sql: sql.to_string(),
            plan: Arc::new(optimized),
            physical: Arc::new(physical),
            schema,
        })
    }

    // ------------------------------------------------------------------
    // Pipeline stages (also used by the stage trace / browser)
    // ------------------------------------------------------------------

    /// Parse + analyze (+ provenance-rewrite when requested): the bound
    /// plan, pre-optimization. Binds against a fresh snapshot; multi-step
    /// clients that bind and execute separately should take one
    /// [`Session::snapshot`] and use [`Session::bind_sql_on`] /
    /// [`Session::run_plan_on`] so both steps see the same catalog.
    pub fn bind_sql(&self, sql: &str) -> Result<LogicalPlan> {
        self.bind_sql_on(&self.snapshot(), sql)
    }

    /// [`Session::bind_sql`] against an explicit catalog snapshot.
    pub fn bind_sql_on(&self, catalog: &Catalog, sql: &str) -> Result<LogicalPlan> {
        let stmt = parse_statement(sql)?;
        match self.bind_on(catalog, &stmt)? {
            BoundStatement::Query(p) | BoundStatement::Explain { plan: p, .. } => Ok(p),
            other => Err(PermError::Analysis(format!(
                "expected a query, got {other:?}"
            ))),
        }
    }

    /// Optimize and execute a bound plan against a fresh snapshot.
    pub fn run_plan(&self, plan: LogicalPlan) -> Result<(Schema, Vec<Tuple>)> {
        self.run_plan_on(self.snapshot(), plan)
    }

    /// [`Session::run_plan`] against an explicit catalog snapshot —
    /// normally the one the plan was bound on.
    pub fn run_plan_on(
        &self,
        catalog: Arc<Catalog>,
        plan: LogicalPlan,
    ) -> Result<(Schema, Vec<Tuple>)> {
        let optimized = self.optimize_on(plan, &catalog)?;
        let schema = optimized.schema().clone();
        let physical = self.lower_on(&catalog, &optimized)?;
        let ctx = self.query_context();
        let _permit = self.admit(&ctx, &physical)?;
        let rows = self.executor_on(catalog, ctx).run_physical(&physical)?;
        Ok((schema, rows))
    }

    fn bind_on(&self, catalog: &Catalog, stmt: &Statement) -> Result<BoundStatement> {
        let estimator = CatalogCardinalities(catalog);
        let rewriter = Rewriter::new(self.options.rewrite, &estimator);
        let adapter = CatalogAdapter(catalog);
        bind_statement(stmt, &adapter, Some(&rewriter))
    }

    // ------------------------------------------------------------------
    // Read / write paths
    // ------------------------------------------------------------------

    fn execute_read(&self, stmt: &Statement) -> Result<StatementResult> {
        let snapshot = self.snapshot();
        match self.bind_on(&snapshot, stmt)? {
            BoundStatement::Query(plan) => {
                let optimized = self.optimize_on(plan, &snapshot)?;
                let schema = optimized.schema().clone();
                let physical = self.lower_on(&snapshot, &optimized)?;
                let ctx = self.query_context();
                let _permit = self.admit(&ctx, &physical)?;
                let rows = self.executor_on(snapshot, ctx).run_physical(&physical)?;
                Ok(StatementResult::Rows(QueryResult::new(&schema, rows)))
            }
            BoundStatement::Explain {
                plan,
                verbose,
                verify,
            } => {
                if verify {
                    return self.explain_verify(&snapshot, plan, verbose);
                }
                // EXPLAIN never executes, so it skips admission.
                let optimized = self.optimize_on(plan, &snapshot)?;
                let physical = self.lower_on(&snapshot, &optimized)?;
                let text = if verbose {
                    // VERBOSE annotates each buffering operator with its
                    // estimated peak memory and spill configuration.
                    format!(
                        "== logical (optimized) ==\n{}\n== physical ==\n{}",
                        perm_algebra::plan_tree_with_schema(&optimized),
                        physical_tree_verbose(&physical)
                    )
                } else {
                    physical_tree(&physical)
                };
                Ok(StatementResult::Explain(text))
            }
            other => Err(PermError::Analysis(format!(
                "query statement bound to {other:?}"
            ))),
        }
    }

    /// `EXPLAIN VERIFY`: run the full optimizer pipeline with the static
    /// plan verifier after every phase — regardless of the session's
    /// `verify_plans` flag — and report each check before the plan. A
    /// violation aborts with an error naming the failing invariant and
    /// the responsible pass.
    fn explain_verify(
        &self,
        snapshot: &Arc<Catalog>,
        plan: LogicalPlan,
        verbose: bool,
    ) -> Result<StatementResult> {
        let mut report = String::from("== plan verification ==\n");
        perm_algebra::verify::verify_logical(&plan, "binding")?;
        report.push_str("binding: ok\n");
        // The provenance-rewrite contract (schema = original ++ provenance
        // columns, naming scheme intact) is enforced inside the binder for
        // every SELECT PROVENANCE; note it when the output carries
        // provenance columns.
        let prov = plan
            .schema()
            .iter()
            .filter(|c| c.name.starts_with("prov_"))
            .count();
        if prov > 0 {
            report.push_str(&format!(
                "provenance-rewrite: ok ({prov} provenance columns, contract checked at bind time)\n"
            ));
        }
        let (optimized, ran) = perm_exec::optimize_traced(plan, &CatalogCardinalities(snapshot))?;
        for phase in perm_exec::LOGICAL_PHASES {
            if ran.contains(phase) {
                report.push_str(&format!("{phase}: ok\n"));
            } else {
                report.push_str(&format!("{phase}: skipped (sublink plan)\n"));
            }
        }
        let physical = self.planner_on(snapshot).plan_verified(&optimized)?;
        report.push_str("physical-planning: ok\n");
        let text = if verbose {
            format!(
                "{report}\n== logical (optimized) ==\n{}\n== physical ==\n{}",
                perm_algebra::plan_tree_with_schema(&optimized),
                physical_tree(&physical)
            )
        } else {
            format!("{report}\n== physical ==\n{}", physical_tree(&physical))
        };
        Ok(StatementResult::Explain(text))
    }

    /// Create a hash index on `table(column)`.
    ///
    /// There is no SQL syntax for this (as in the demo, indexes are an
    /// executor concern); the call is logged to the WAL like any other
    /// committed write, so indexes survive restarts.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        if let Some(d) = &self.durability {
            d.check_writable()?;
        }
        let mut guard = self.catalog.write();
        let before = guard.snapshot();
        let applied = (|| {
            let t = guard.table_mut(table)?;
            let pos = t.schema().resolve(None, column)?;
            t.create_index(pos)
        })();
        if let Err(e) = applied {
            guard.restore(before);
            return Err(e);
        }
        if let Some(d) = &self.durability {
            if let Err(e) = d.log(&WalRecord::CreateIndex {
                table: table.to_string(),
                column: column.to_string(),
            }) {
                guard.restore(before);
                return Err(e);
            }
            d.maybe_checkpoint(&guard.snapshot());
        }
        Ok(())
    }

    /// DDL/DML under the catalog write lock. The read part of a compound
    /// statement (the query of `CREATE TABLE AS`, the row expressions of
    /// `INSERT`) runs against a pre-mutation snapshot taken under the same
    /// lock, then the mutation applies through copy-on-write — concurrent
    /// readers keep whatever snapshot they already hold.
    ///
    /// Statements are *atomic*: the pre-statement snapshot is restored on
    /// any failure (a multi-row `INSERT` with one bad row inserts
    /// nothing), which is also what lets WAL recovery equate "logged" with
    /// "fully applied". On a durable server the statement is appended to
    /// the log (and fsynced, per policy) after it applies in memory and
    /// before `execute` returns; if the append fails, the statement rolls
    /// back and the error surfaces to the caller — no committed statement
    /// is ever missing from the log.
    fn execute_write(&self, stmt: &Statement) -> Result<StatementResult> {
        if let Some(d) = &self.durability {
            d.check_writable()?;
        }
        let mut guard = self.catalog.write();
        let before = guard.snapshot();
        let result = match self.apply_write(&mut guard, stmt) {
            Ok(r) => r,
            Err(e) => {
                guard.restore(before);
                return Err(e);
            }
        };
        if let Some(d) = &self.durability {
            if let Err(e) = d.log(&WalRecord::Statement(statement_to_sql(stmt))) {
                guard.restore(before);
                return Err(e);
            }
            d.maybe_checkpoint(&guard.snapshot());
        }
        Ok(result)
    }

    /// The in-memory part of [`Session::execute_write`]: bind and apply
    /// one write statement through the guard. The caller owns atomicity
    /// (snapshot + restore) and durability (WAL append).
    fn apply_write(
        &self,
        guard: &mut CatalogWriteGuard<'_>,
        stmt: &Statement,
    ) -> Result<StatementResult> {
        let bound = self.bind_on(guard, stmt)?;
        match bound {
            BoundStatement::CreateTable { name, schema } => {
                guard.create_table(Table::new(name.clone(), schema))?;
                Ok(StatementResult::TableCreated { name, rows: 0 })
            }
            BoundStatement::CreateTableAs {
                name,
                plan,
                provenance_attrs,
            } => {
                let (schema, rows) = {
                    // The executor's snapshot is dropped before the
                    // mutation below, so make_mut stays in place unless
                    // other sessions hold snapshots.
                    let optimized = self.optimize_on(plan, guard)?;
                    let schema = optimized.schema().clone();
                    // CTAS runs a full query: give it a statement context
                    // so deadlines and shutdown cover the read part.
                    let rows = Executor::new(guard.snapshot())
                        .with_verification(self.options.verify_plans)
                        .with_columnar(self.options.columnar)
                        .with_context(self.query_context())
                        .run(&optimized)?;
                    (schema, rows)
                };
                // Stored column set loses the source qualifiers.
                let columns: Vec<Column> = schema
                    .iter()
                    .map(|c| {
                        let mut c = c.clone();
                        c.qualifier = None;
                        c
                    })
                    .collect();
                let mut table = Table::new(name.clone(), Schema::new(columns));
                // Eager provenance: remember which columns are provenance so
                // later provenance queries over this table propagate them
                // as external provenance (paper §1: "store the provenance
                // of a query for later reuse").
                if let Some(attrs) = provenance_attrs {
                    table.set_provenance_columns(attrs)?;
                }
                let n = rows.len();
                for r in rows {
                    table.push_raw(r);
                }
                guard.create_table(table)?;
                Ok(StatementResult::TableCreated { name, rows: n })
            }
            BoundStatement::CreateView { name, definition } => {
                // Remember the defining SQL so durable checkpoints can
                // persist the view (the AST itself is not serialized).
                let sql = query_to_sql(&definition);
                guard.create_view_with_sql(name.clone(), definition, sql)?;
                Ok(StatementResult::ViewCreated { name })
            }
            BoundStatement::Insert { table, rows } => {
                // Evaluate the bound row expressions (no input tuple).
                let tuples: Vec<Tuple> = {
                    let executor = Executor::new(guard.snapshot());
                    let empty = Tuple::empty();
                    rows.iter()
                        .map(|row| {
                            let env = perm_exec::eval::Env::new(&empty, &[]);
                            let vals = row
                                .iter()
                                .map(|e| perm_exec::eval::eval(&executor, e, &env))
                                .collect::<Result<Vec<_>>>()?;
                            Ok(Tuple::new(vals))
                        })
                        .collect::<Result<_>>()?
                };
                let n = guard.table_mut(&table)?.insert_all(tuples)?;
                Ok(StatementResult::Inserted(n))
            }
            BoundStatement::Drop {
                kind,
                name,
                if_exists,
            } => {
                let dropped = match kind {
                    ObjectKind::Table => guard.drop_table(&name, if_exists)?,
                    ObjectKind::View => guard.drop_view(&name, if_exists)?,
                };
                Ok(StatementResult::Dropped(dropped))
            }
            BoundStatement::Delete { table, predicate } => {
                // Evaluate the predicate against a pre-mutation snapshot,
                // then delete through the write guard. Storage rebuilds
                // indexes and invalidates the statistics cache.
                let doomed = {
                    let snapshot = guard.snapshot();
                    let executor = Executor::new(Arc::clone(&snapshot));
                    let t = snapshot.table(&table)?;
                    match &predicate {
                        None => (0..t.row_count()).collect::<Vec<_>>(),
                        Some(p) => {
                            let compiled = perm_exec::CompiledExpr::compile(&executor, p);
                            let mut out = Vec::new();
                            for (i, row) in t.rows().iter().enumerate() {
                                let env = perm_exec::eval::Env::new(row, &[]);
                                if compiled.eval_bool(&executor, &env)? == Some(true) {
                                    out.push(i);
                                }
                            }
                            out
                        }
                    }
                };
                let n = guard.table_mut(&table)?.delete_rows(&doomed);
                Ok(StatementResult::Deleted(n))
            }
            BoundStatement::Update {
                table,
                assignments,
                predicate,
            } => {
                let updates = {
                    let snapshot = guard.snapshot();
                    let executor = Executor::new(Arc::clone(&snapshot));
                    let t = snapshot.table(&table)?;
                    let compiled_pred = predicate
                        .as_ref()
                        .map(|p| perm_exec::CompiledExpr::compile(&executor, p));
                    let compiled_assign: Vec<(usize, perm_exec::CompiledExpr)> = assignments
                        .iter()
                        .map(|(pos, e)| (*pos, perm_exec::CompiledExpr::compile(&executor, e)))
                        .collect();
                    let mut out = Vec::new();
                    for (i, row) in t.rows().iter().enumerate() {
                        let env = perm_exec::eval::Env::new(row, &[]);
                        if let Some(p) = &compiled_pred {
                            if p.eval_bool(&executor, &env)? != Some(true) {
                                continue;
                            }
                        }
                        let mut vals = row.values().to_vec();
                        for (pos, e) in &compiled_assign {
                            vals[*pos] = e.eval(&executor, &env)?;
                        }
                        out.push((i, Tuple::new(vals)));
                    }
                    out
                };
                let n = guard.table_mut(&table)?.update_rows(updates)?;
                Ok(StatementResult::Updated(n))
            }
            BoundStatement::Query(_) | BoundStatement::Explain { .. } => {
                unreachable!("queries take the read path")
            }
        }
    }
}

/// A prepared statement: the parsed, provenance-rewritten, optimized plan
/// of one query, cached for repeated execution.
///
/// [`Prepared::execute`] skips parse, analysis, the provenance rewrite and
/// optimization entirely — each call only snapshots the catalog and runs
/// the cached plan, which is the hot path when the same provenance query
/// is asked many times (possibly from many threads; `Prepared` is `Send +
/// Sync` and cheap to clone).
///
/// Execution always reads the *current* catalog, so data changes between
/// calls are visible. Schema changes to a scanned table invalidate the
/// plan: execution compares the table's column names and types against
/// the plan's and fails with a schema-mismatch error rather than
/// returning wrong rows; re-`prepare` after DDL.
#[derive(Clone)]
pub struct Prepared {
    session: Session,
    sql: String,
    plan: Arc<LogicalPlan>,
    physical: Arc<PhysicalPlan>,
    schema: Schema,
}

impl Prepared {
    /// The SQL this statement was prepared from.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// The output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The cached optimized logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The cached physical execution plan.
    pub fn physical_plan(&self) -> &PhysicalPlan {
        &self.physical
    }

    /// Run the cached physical plan against the current catalog,
    /// materializing the result. Every execution is individually
    /// admitted through the server's governor.
    pub fn execute(&self) -> Result<QueryResult> {
        let ctx = self.session.query_context();
        let _permit = self.session.admit(&ctx, &self.physical)?;
        let rows = self
            .session
            .executor_on(self.session.snapshot(), ctx)
            .run_physical(&self.physical)?;
        Ok(QueryResult::new(&self.schema, rows))
    }

    /// Run the cached plan cursor-style (see [`Session::query_stream`]).
    pub fn execute_stream(&self) -> Result<RowStream> {
        let ctx = self.session.query_context();
        let permit = self.session.admit(&ctx, &self.physical)?;
        let stream = self
            .session
            .executor_on(self.session.snapshot(), ctx.clone())
            .into_stream_physical(&self.physical)?;
        Ok(RowStream::new(self.schema.clone(), stream, ctx).with_permit(permit))
    }
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("sql", &self.sql)
            .field("columns", &self.schema.names())
            .finish()
    }
}

// The whole point of the server API: handles and prepared plans move
// freely across threads. Enforced at compile time.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<PermServer>();
    assert_send_sync::<Session>();
    assert_send_sync::<Prepared>();
    assert_send_sync::<LogicalPlan>();
    const fn assert_send<T: Send>() {}
    assert_send::<RowStream>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use perm_types::Value;

    fn seeded() -> (PermServer, Session) {
        let server = PermServer::new();
        let session = server.session();
        session
            .run_script(
                "CREATE TABLE t (x int NOT NULL, y text);
                 INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');",
            )
            .unwrap();
        (server, session)
    }

    #[test]
    fn sessions_share_one_catalog() {
        let (server, s1) = seeded();
        let s2 = server.session();
        assert_eq!(s2.query("SELECT x FROM t").unwrap().row_count(), 3);
        s2.execute("INSERT INTO t VALUES (4, 'd')").unwrap();
        assert_eq!(s1.query("SELECT x FROM t").unwrap().row_count(), 4);
    }

    #[test]
    fn snapshots_survive_writer_activity() {
        // A reader's snapshot is taken before the writer starts and stays
        // queryable while (and after) the writer mutates.
        let (_, session) = seeded();
        let snapshot = session.snapshot();
        session.execute("DROP TABLE t").unwrap();
        assert_eq!(snapshot.table("t").unwrap().row_count(), 3);
        assert!(session.snapshot().table("t").is_err());
    }

    #[test]
    fn prepared_reuse_matches_one_shot_query() {
        let (_, session) = seeded();
        let sql = "SELECT PROVENANCE x, y FROM t WHERE x >= 2";
        let prepared = session.prepare(sql).unwrap();
        let one_shot = session.query(sql).unwrap();
        assert_eq!(prepared.execute().unwrap(), one_shot);
        assert_eq!(prepared.execute().unwrap(), one_shot, "re-execution");
        assert_eq!(
            prepared.schema().names(),
            vec!["x", "y", "prov_public_t_x", "prov_public_t_y"]
        );
    }

    #[test]
    fn prepared_sees_data_changes_but_fails_on_schema_change() {
        let (_, session) = seeded();
        let prepared = session.prepare("SELECT x FROM t").unwrap();
        assert_eq!(prepared.execute().unwrap().row_count(), 3);
        session.execute("INSERT INTO t VALUES (9, 'z')").unwrap();
        assert_eq!(prepared.execute().unwrap().row_count(), 4, "fresh data");
        session.execute("DROP TABLE t").unwrap();
        session.execute("CREATE TABLE t (x int)").unwrap();
        let err = prepared.execute().unwrap_err();
        assert!(err.message().contains("changed schema"), "{err}");
    }

    #[test]
    fn prepared_fails_on_same_arity_schema_change() {
        // A dropped-and-recreated table with the *same* column count but
        // different names/types must error, not return mislabeled rows.
        let (_, session) = seeded();
        let prepared = session.prepare("SELECT x FROM t").unwrap();
        session.execute("DROP TABLE t").unwrap();
        session.execute("CREATE TABLE t (a text, b text)").unwrap();
        session.execute("INSERT INTO t VALUES ('u', 'v')").unwrap();
        let err = prepared.execute().unwrap_err();
        assert!(err.message().contains("changed schema"), "{err}");
        let err = prepared.execute_stream().unwrap_err();
        assert!(err.message().contains("changed schema"), "{err}");
    }

    #[test]
    fn prepare_rejects_ddl() {
        let (_, session) = seeded();
        let err = session.prepare("DROP TABLE t").unwrap_err();
        assert_eq!(err.kind(), "analysis");
    }

    #[test]
    fn query_stream_yields_all_rows_in_order() {
        let (_, session) = seeded();
        let stream = session
            .query_stream("SELECT x FROM t ORDER BY x DESC")
            .unwrap();
        assert_eq!(stream.columns(), ["x"]);
        let xs: Vec<Value> = stream.map(|r| r.unwrap().get(0).clone()).collect();
        assert_eq!(xs, vec![Value::Int(3), Value::Int(2), Value::Int(1)]);
    }

    #[test]
    fn query_stream_limit_stops_scanning() {
        let server = PermServer::new();
        let session = server.session();
        session.execute("CREATE TABLE big (x int)").unwrap();
        {
            let mut w = session.catalog_write();
            let t = w.table_mut("big").unwrap();
            for i in 0..1_000 {
                t.push_raw(Tuple::new(vec![Value::Int(i)]));
            }
        }
        let mut stream = session
            .query_stream("SELECT x + 1 FROM big LIMIT 3")
            .unwrap();
        let mut got = Vec::new();
        for r in stream.by_ref() {
            got.push(r.unwrap());
        }
        assert_eq!(got.len(), 3);
        assert!(
            stream.rows_scanned() <= 3,
            "LIMIT 3 pulled {} scan rows",
            stream.rows_scanned()
        );
    }

    #[test]
    fn streams_read_a_consistent_snapshot_across_ddl() {
        let (_, session) = seeded();
        let stream = session.query_stream("SELECT x FROM t").unwrap();
        session.execute("DROP TABLE t").unwrap();
        // The stream still drains its pre-DDL snapshot.
        assert_eq!(stream.count(), 3);
        assert!(session.query("SELECT x FROM t").is_err());
    }

    #[test]
    fn run_script_reports_failing_statement_index() {
        let (_, session) = seeded();
        let err = session
            .run_script(
                "CREATE TABLE s1 (a int);
                 INSERT INTO s1 VALUES (1);
                 INSERT INTO nope VALUES (2);
                 CREATE TABLE s2 (b int);",
            )
            .unwrap_err();
        assert_eq!(err.kind(), "analysis");
        assert!(
            err.message().starts_with("script statement 3 of 4"),
            "{err}"
        );
        assert!(
            err.message().contains("statements 1-2 already applied"),
            "{err}"
        );
        // Earlier DDL really did apply.
        assert_eq!(session.query("SELECT a FROM s1").unwrap().row_count(), 1);
    }

    #[test]
    fn explain_through_query_yields_plan_rows() {
        let (_, session) = seeded();
        let r = session
            .query("EXPLAIN SELECT x FROM t WHERE x = 2")
            .unwrap();
        assert_eq!(r.columns, vec!["QUERY PLAN"]);
        assert!(r.row_count() >= 1);
        let first = r.row(0)[0].to_string();
        assert!(first.contains("Scan(t)"), "{first}");
        // VERBOSE adds the logical tree section.
        let v = session
            .query("EXPLAIN VERBOSE SELECT x FROM t WHERE x = 2")
            .unwrap();
        assert!(v.row_count() > r.row_count());
    }

    #[test]
    fn explain_verify_reports_each_phase() {
        let (_, session) = seeded();
        let r = session
            .query("EXPLAIN VERIFY SELECT x FROM t WHERE x = 2")
            .unwrap();
        let text = (0..r.row_count())
            .map(|i| r.row(i)[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("== plan verification =="), "{text}");
        assert!(text.contains("binding: ok"), "{text}");
        assert!(text.contains("column-pruning: ok"), "{text}");
        assert!(text.contains("physical-planning: ok"), "{text}");
        assert!(text.contains("Scan(t)"), "{text}");

        // Provenance queries additionally report the rewrite contract.
        let p = session
            .query("EXPLAIN VERIFY SELECT PROVENANCE x FROM t")
            .unwrap();
        let text = (0..p.row_count())
            .map(|i| p.row(i)[0].to_string())
            .collect::<Vec<_>>()
            .join("\n");
        assert!(text.contains("provenance-rewrite: ok"), "{text}");
    }

    #[test]
    fn verify_plans_session_runs_clean() {
        // With verify_plans on, every read path re-checks each optimizer
        // phase; well-formed queries must be unaffected.
        let (server, _) = seeded();
        let s = server.session_with_options(SessionOptions::default().with_verify_plans(true));
        assert!(s.options().verify_plans);
        assert_eq!(
            s.query("SELECT PROVENANCE x, y FROM t WHERE x >= 2")
                .unwrap()
                .row_count(),
            2
        );
        let prepared = s.prepare("SELECT x FROM t ORDER BY x").unwrap();
        assert_eq!(prepared.execute().unwrap().row_count(), 3);
        assert_eq!(s.query_stream("SELECT x FROM t").unwrap().count(), 3);
        // Correlated sublinks exercise the per-plan verification memo.
        assert_eq!(
            s.query("SELECT x FROM t WHERE x = (SELECT max(x) FROM t)")
                .unwrap()
                .row_count(),
            1
        );
    }

    #[test]
    fn insert_is_atomic() {
        // One bad row in a multi-row INSERT must leave no trace — the
        // property WAL recovery relies on (logged ⇔ fully applied).
        let (_, session) = seeded();
        let err = session
            .execute("INSERT INTO t VALUES (7, 'g'), ('oops', 'h')")
            .unwrap_err();
        assert_eq!(err.kind(), "catalog", "binder rejects the mistyped row");
        assert_eq!(session.query("SELECT x FROM t").unwrap().row_count(), 3);
    }

    #[test]
    fn per_session_options_are_independent() {
        use perm_rewrite::ContributionSemantics;
        let (server, s1) = seeded();
        let s2 = server.session_with_options(
            SessionOptions::default().with_default_semantics(ContributionSemantics::Lineage),
        );
        assert_eq!(
            s1.options().rewrite.default_semantics,
            ContributionSemantics::Influence
        );
        assert_eq!(
            s2.options().rewrite.default_semantics,
            ContributionSemantics::Lineage
        );
    }

    mod durability {
        use super::*;
        use crate::options::DurabilityOptions;
        use std::path::PathBuf;
        use std::sync::{Mutex, MutexGuard, PoisonError};

        /// Failpoint state is process-global; durability tests serialize
        /// on this lock and clear the registry on both ends.
        fn fp_lock() -> MutexGuard<'static, ()> {
            static LOCK: Mutex<()> = Mutex::new(());
            let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
            perm_fault::clear();
            g
        }

        struct TempDir(PathBuf);
        impl TempDir {
            fn new(name: &str) -> TempDir {
                let p = std::env::temp_dir()
                    .join(format!("perm-server-dur-{}-{name}", std::process::id()));
                let _ = std::fs::remove_dir_all(&p);
                TempDir(p)
            }
        }
        impl Drop for TempDir {
            fn drop(&mut self) {
                perm_fault::clear();
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }

        /// Fast options for tests: no fsync, no auto-checkpoint.
        fn opts() -> DurabilityOptions {
            DurabilityOptions::default()
                .with_fsync(perm_storage::FsyncPolicy::Never)
                .with_checkpoint_every(0)
        }

        #[test]
        fn reopen_recovers_ddl_dml_and_indexes() {
            let _g = fp_lock();
            let dir = TempDir::new("reopen");
            {
                let server = PermServer::open_with(&dir.0, opts()).unwrap();
                assert!(!server.is_read_only());
                let s = server.session();
                s.run_script(
                    "CREATE TABLE t (x int NOT NULL, y text);
                     INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c');
                     CREATE VIEW v AS SELECT x FROM t WHERE x > 1;
                     UPDATE t SET y = 'z' WHERE x = 2;
                     DELETE FROM t WHERE x = 3;
                     CREATE TABLE p AS SELECT PROVENANCE y FROM t;",
                )
                .unwrap();
                s.create_index("t", "x").unwrap();
            }
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            assert!(!server.is_read_only());
            let s = server.session();
            let r = s.query("SELECT x, y FROM t ORDER BY x").unwrap();
            assert_eq!(r.row_count(), 2);
            assert_eq!(r.row(1)[1], Value::text("z"));
            assert_eq!(s.query("SELECT x FROM v").unwrap().row_count(), 1);
            // The index and the eager-provenance metadata survived.
            assert_eq!(s.snapshot().table("t").unwrap().index_columns(), vec![0]);
            // `SELECT PROVENANCE y FROM t` emits y plus one provenance
            // attribute per column of t, so columns 1 and 2 of p are
            // provenance.
            assert_eq!(
                s.snapshot().table("p").unwrap().provenance_columns(),
                &[1, 2],
                "CREATE TABLE AS provenance columns recovered"
            );
        }

        #[test]
        fn checkpoint_truncates_wal_and_recovery_uses_snapshot() {
            let _g = fp_lock();
            let dir = TempDir::new("ckpt");
            {
                let server = PermServer::open_with(&dir.0, opts()).unwrap();
                let s = server.session();
                s.execute("CREATE TABLE t (x int)").unwrap();
                for i in 0..10 {
                    s.execute(&format!("INSERT INTO t VALUES ({i})")).unwrap();
                }
                let before = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
                server.checkpoint().unwrap();
                let after = std::fs::metadata(dir.0.join(WAL_FILE)).unwrap().len();
                assert!(
                    after < before,
                    "checkpoint truncates the log ({before} -> {after})"
                );
                // Post-checkpoint commits land in the fresh log.
                s.execute("INSERT INTO t VALUES (99)").unwrap();
            }
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            let s = server.session();
            assert_eq!(s.query("SELECT x FROM t").unwrap().row_count(), 11);
        }

        #[test]
        fn auto_checkpoint_fires_at_cadence() {
            let _g = fp_lock();
            let dir = TempDir::new("autockpt");
            let server = PermServer::open_with(&dir.0, opts().with_checkpoint_every(3)).unwrap();
            let s = server.session();
            s.execute("CREATE TABLE t (x int)").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();
            assert!(
                !dir.0.join(perm_storage::CHECKPOINT_FILE).exists(),
                "2 records: below cadence"
            );
            s.execute("INSERT INTO t VALUES (2)").unwrap();
            assert!(
                dir.0.join(perm_storage::CHECKPOINT_FILE).exists(),
                "3rd record triggers the checkpoint"
            );
        }

        #[test]
        fn wal_append_failure_rolls_back_the_statement() {
            let _g = fp_lock();
            let dir = TempDir::new("appendfail");
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            let s = server.session();
            s.execute("CREATE TABLE t (x int)").unwrap();
            s.execute("INSERT INTO t VALUES (1)").unwrap();

            perm_fault::configure("wal.append.write=io_err").unwrap();
            let err = s.execute("INSERT INTO t VALUES (2)").unwrap_err();
            assert_eq!(err.kind(), "io");
            // Not applied in memory (no phantom row a crash would lose) …
            assert_eq!(s.query("SELECT x FROM t").unwrap().row_count(), 1);
            perm_fault::clear();

            // … and the log tail is intact: later commits and recovery work.
            s.execute("INSERT INTO t VALUES (3)").unwrap();
            drop(server);
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            let r = server
                .session()
                .query("SELECT x FROM t ORDER BY x")
                .unwrap();
            assert_eq!(r.row_count(), 2);
            assert_eq!(r.row(1)[0], Value::Int(3));
        }

        #[test]
        fn mid_log_corruption_degrades_to_read_only() {
            let _g = fp_lock();
            let dir = TempDir::new("corrupt");
            {
                let server = PermServer::open_with(&dir.0, opts()).unwrap();
                let s = server.session();
                s.execute("CREATE TABLE t (x int)").unwrap();
                s.execute("INSERT INTO t VALUES (1)").unwrap();
            }
            // Flip a payload byte of the *first* record: a mid-log checksum
            // mismatch, which recovery must not truncate away.
            let wal_path = dir.0.join(WAL_FILE);
            let mut bytes = std::fs::read(&wal_path).unwrap();
            bytes[16 + 8 + 1] ^= 0x40;
            std::fs::write(&wal_path, &bytes).unwrap();

            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            assert!(server.is_read_only());
            let err = server.recovery_error().expect("typed corruption");
            assert_eq!(err.kind(), "corruption");
            assert!(err.message().contains("offset 16"), "{err}");

            // Reads serve the last good prefix (nothing, here); writes fail
            // with the recovery error, not a panic.
            let s = server.session();
            assert!(s.query("SELECT x FROM t").is_err(), "t was never recovered");
            let err = s.execute("CREATE TABLE u (a int)").unwrap_err();
            assert_eq!(err.kind(), "corruption");
            assert!(err.message().contains("read-only"), "{err}");
            assert!(server.checkpoint().is_err(), "no checkpoint while degraded");
        }

        #[test]
        fn torn_final_record_is_truncated_not_fatal() {
            let _g = fp_lock();
            let dir = TempDir::new("torn");
            {
                let server = PermServer::open_with(&dir.0, opts()).unwrap();
                let s = server.session();
                s.execute("CREATE TABLE t (x int)").unwrap();
                s.execute("INSERT INTO t VALUES (1)").unwrap();
            }
            // Chop the last record mid-payload: a crash during append.
            let wal_path = dir.0.join(WAL_FILE);
            let bytes = std::fs::read(&wal_path).unwrap();
            std::fs::write(&wal_path, &bytes[..bytes.len() - 5]).unwrap();

            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            assert!(!server.is_read_only(), "a torn tail is expected, not fatal");
            let s = server.session();
            assert_eq!(
                s.query("SELECT x FROM t").unwrap().row_count(),
                0,
                "the torn INSERT never committed"
            );
            // The repaired log accepts new commits at the truncated tail.
            s.execute("INSERT INTO t VALUES (7)").unwrap();
            drop(server);
            let server = PermServer::open_with(&dir.0, opts()).unwrap();
            assert_eq!(
                server
                    .session()
                    .query("SELECT x FROM t")
                    .unwrap()
                    .row_count(),
                1
            );
        }
    }
}
