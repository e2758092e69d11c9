//! The calls the benchmark makes into the engine, untraced and traced.
//!
//! The untraced path is what an embedder writes: `Session::query`,
//! `Prepared::execute`, `Session::query_stream`, `Session::execute`. The
//! traced path performs the same work through each layer's public entry
//! point — `perm_sql::parse_statement`, `perm_algebra::bind_statement`,
//! `perm_exec::optimize_with`, `PhysicalPlanner::plan`,
//! `ResourceGovernor::admit`, `Executor::run_physical` /
//! `into_stream_physical` — with a span around each call, configured from
//! the session's options exactly as `Session` configures them, so both
//! paths return the same rows (the workloads check this).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use perm_algebra::stats::estimate_rows;
use perm_algebra::{bind_statement, BoundStatement, LogicalPlan};
use perm_core::{
    AdmissionPermit, CatalogCardinalities, PermServer, Prepared, QueryMemory, Session,
};
use perm_exec::{
    estimated_peak_bytes, optimize_with, CatalogAdapter, CatalogStats, Executor, PhysicalPlan,
    PhysicalPlanner,
};
use perm_rewrite::Rewriter;
use perm_sql::{parse_statement, Statement};
use perm_storage::Catalog;
use perm_types::{PermError, QueryContext, Result, Tuple};

use crate::trace::Tracer;

/// Query ids for statements the traced path runs (kept apart from the
/// server's own ids, which only appear in cancellation errors).
static NEXT_QUERY_ID: AtomicU64 = AtomicU64::new(1 << 40);

fn query_context() -> QueryContext {
    QueryContext::new(NEXT_QUERY_ID.fetch_add(1, Ordering::Relaxed), None, None)
}

fn bind_with_rewriter(
    session: &Session,
    catalog: &Catalog,
    stmt: &Statement,
) -> Result<LogicalPlan> {
    let est = CatalogCardinalities(catalog);
    let rewriter = Rewriter::new(session.options().rewrite, &est);
    match bind_statement(stmt, &CatalogAdapter(catalog), Some(&rewriter))? {
        BoundStatement::Query(plan) => Ok(plan),
        other => Err(PermError::Execution(format!(
            "statement did not produce rows: {other:?}"
        ))),
    }
}

fn optimize(session: &Session, catalog: &Catalog, plan: LogicalPlan) -> Result<LogicalPlan> {
    let est = CatalogCardinalities(catalog);
    if session.options().verify_plans {
        perm_exec::optimize_verified(plan, &est)
    } else {
        Ok(optimize_with(plan, &est))
    }
}

fn planner<'c>(session: &Session, catalog: &'c Catalog) -> PhysicalPlanner<'c> {
    let o = session.options();
    PhysicalPlanner::new(catalog)
        .max_parallelism(o.max_parallelism)
        .parallel_threshold(o.parallel_row_threshold)
        .columnar(o.columnar)
}

fn lower(session: &Session, catalog: &Catalog, optimized: &LogicalPlan) -> Result<PhysicalPlan> {
    let p = planner(session, catalog);
    if session.options().verify_plans {
        p.plan_verified(optimized)
    } else {
        Ok(p.plan(optimized))
    }
}

fn executor(
    session: &Session,
    server: &PermServer,
    catalog: Arc<Catalog>,
    ctx: QueryContext,
) -> Executor {
    let o = session.options();
    let cap = (o.memory_budget > 0).then_some(o.memory_budget);
    Executor::new(catalog)
        .with_parallelism(o.max_parallelism, o.parallel_row_threshold)
        .with_verification(o.verify_plans)
        .with_memory(QueryMemory::new(server.memory_pool().clone(), cap))
        .with_columnar(o.columnar)
        .with_context(ctx)
}

fn admit(
    session: &Session,
    server: &PermServer,
    ctx: &QueryContext,
    physical: &PhysicalPlan,
) -> Result<AdmissionPermit> {
    let o = session.options();
    server.governor().admit(
        ctx,
        estimated_peak_bytes(physical),
        o.max_concurrent_queries,
        Duration::from_millis(o.admission_timeout_ms),
    )
}

fn traced_admit(
    t: &mut Tracer,
    session: &Session,
    server: &PermServer,
    ctx: &QueryContext,
    physical: &PhysicalPlan,
) -> Result<AdmissionPermit> {
    t.span("core.admission", |_| admit(session, server, ctx, physical))
}

/// Parse → snapshot → bind (with the rewriter) → optimize → plan, each in
/// its span.
fn traced_front_end(
    t: &mut Tracer,
    session: &Session,
    sql: &str,
) -> Result<(Arc<Catalog>, PhysicalPlan)> {
    let stmt = t.span("sql.parse", |_| parse_statement(sql))?;
    let snapshot = t.timed("storage.snapshot", |_| session.snapshot());
    let plan = t.span("algebra.bind", |_| {
        bind_with_rewriter(session, &snapshot, &stmt)
    })?;
    let optimized = t.span("exec.optimize", |_| optimize(session, &snapshot, plan))?;
    let physical = t.span("exec.physical", |_| lower(session, &snapshot, &optimized))?;
    Ok((snapshot, physical))
}

/// A one-shot query (what `Session::query` does), traced per layer.
pub fn traced_query(
    t: &mut Tracer,
    server: &PermServer,
    session: &Session,
    sql: &str,
) -> Result<Vec<Tuple>> {
    let (snapshot, physical) = traced_front_end(t, session, sql)?;
    let ctx = query_context();
    let _permit = traced_admit(t, session, server, &ctx, &physical)?;
    t.span("exec.execute", |_| {
        executor(session, server, snapshot, ctx).run_physical(&physical)
    })
}

/// `Prepared::execute`, traced per layer.
pub fn traced_prepared(
    t: &mut Tracer,
    server: &PermServer,
    session: &Session,
    prepared: &Prepared,
) -> Result<Vec<Tuple>> {
    let snapshot = t.timed("storage.snapshot", |_| session.snapshot());
    let ctx = query_context();
    let _permit = traced_admit(t, session, server, &ctx, prepared.physical_plan())?;
    t.span("exec.execute", |_| {
        executor(session, server, snapshot, ctx).run_physical(prepared.physical_plan())
    })
}

/// The first `page` rows of a streamed query and the base rows its scans
/// pulled, through `Session::query_stream`.
pub fn stream_page(session: &Session, sql: &str, page: usize) -> Result<(Vec<Tuple>, usize)> {
    let mut stream = session.query_stream(sql)?;
    let rows = stream.by_ref().take(page).collect::<Result<Vec<_>>>()?;
    Ok((rows, stream.rows_scanned()))
}

/// [`stream_page`], traced per layer. Like `RowStream`'s drop, the query
/// is cancelled before the cursor is dropped.
pub fn traced_stream_page(
    t: &mut Tracer,
    server: &PermServer,
    session: &Session,
    sql: &str,
    page: usize,
) -> Result<(Vec<Tuple>, usize)> {
    let (snapshot, physical) = traced_front_end(t, session, sql)?;
    let ctx = query_context();
    let _permit = traced_admit(t, session, server, &ctx, &physical)?;
    t.span("exec.execute", |_| {
        let cancel = ctx.handle();
        let mut stream =
            executor(session, server, snapshot, ctx).into_stream_physical(&physical)?;
        let rows = stream.by_ref().take(page).collect::<Result<Vec<_>>>();
        let scanned = stream.rows_scanned();
        cancel.cancel();
        drop(stream);
        Ok((rows?, scanned))
    })
}

/// Bind the provenance-free counterpart of a statement without the
/// rewriter (the binder's share of binding the statement).
pub fn bind_plain(catalog: &Catalog, plain: &Statement) -> Result<LogicalPlan> {
    match bind_statement(plain, &CatalogAdapter(catalog), None)? {
        BoundStatement::Query(plan) => Ok(plan),
        other => Err(PermError::Execution(format!(
            "statement did not produce rows: {other:?}"
        ))),
    }
}

/// The reference answer: the row interpreter at DOP 1 with columnar
/// execution off, and with every join a nested loop when `nested_loops`.
pub fn reference_rows(session: &Session, sql: &str, nested_loops: bool) -> Result<Vec<Tuple>> {
    let snapshot = session.snapshot();
    let stmt = parse_statement(sql)?;
    let plan = bind_with_rewriter(session, &snapshot, &stmt)?;
    let optimized = optimize_with(plan, &CatalogCardinalities(&snapshot));
    let physical = PhysicalPlanner::new(&snapshot)
        .nested_loop_only(nested_loops)
        .max_parallelism(1)
        .columnar(false)
        .plan(&optimized);
    let exec = if nested_loops {
        Executor::new_nested_loop_only(snapshot)
    } else {
        Executor::new(snapshot)
    };
    exec.with_parallelism(1, perm_exec::DEFAULT_PARALLEL_THRESHOLD)
        .with_columnar(false)
        .run_physical(&physical)
}

/// Static facts about one statement's plans, for the per-layer metrics.
#[derive(Debug, Clone)]
pub struct PlanFacts {
    /// Logical nodes of the bound q+ plan and of the bound q plan.
    pub nodes: usize,
    pub plain_nodes: usize,
    /// Output columns named `prov_*`.
    pub prov_columns: usize,
    /// `estimate_rows` of the optimized plan.
    pub est_rows: f64,
    /// Physical nodes with DOP > 1, and nodes running over batches.
    pub parallel_nodes: usize,
    pub batch_nodes: usize,
    /// The default physical plan and the same statement planned at DOP 1.
    pub physical: PhysicalPlan,
    pub serial: PhysicalPlan,
}

fn walk(p: &PhysicalPlan, parallel: &mut usize, batch: &mut usize) {
    if p.dop() > 1 {
        *parallel += 1;
    }
    if p.batch().is_batch() {
        *batch += 1;
    }
    for c in p.children() {
        walk(c, parallel, batch);
    }
}

pub fn plan_facts(session: &Session, sql: &str, plain: &str) -> Result<PlanFacts> {
    let snapshot = session.snapshot();
    let plan = bind_with_rewriter(session, &snapshot, &parse_statement(sql)?)?;
    let plain_plan = bind_plain(&snapshot, &parse_statement(plain)?)?;
    let prov_columns = plan
        .schema()
        .iter()
        .filter(|c| c.name.starts_with("prov_"))
        .count();
    let (nodes, plain_nodes) = (plan.node_count(), plain_plan.node_count());
    let optimized = optimize(session, &snapshot, plan)?;
    let est_rows = estimate_rows(&optimized, &CatalogStats(&snapshot));
    let physical = lower(session, &snapshot, &optimized)?;
    let serial = planner(session, &snapshot)
        .max_parallelism(1)
        .plan(&optimized);
    let (mut parallel_nodes, mut batch_nodes) = (0, 0);
    walk(&physical, &mut parallel_nodes, &mut batch_nodes);
    Ok(PlanFacts {
        nodes,
        plain_nodes,
        prov_columns,
        est_rows,
        parallel_nodes,
        batch_nodes,
        physical,
        serial,
    })
}

/// Execute a physical plan as `Prepared::execute` would (admitted,
/// under the session's options), untraced.
pub fn execute_plan(
    server: &PermServer,
    session: &Session,
    physical: &PhysicalPlan,
) -> Result<Vec<Tuple>> {
    let ctx = query_context();
    let _permit = admit(session, server, &ctx, physical)?;
    executor(session, server, session.snapshot(), ctx).run_physical(physical)
}
