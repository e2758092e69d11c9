//! The execution driver: one pull-based pipeline per physical plan.
//!
//! [`Node::build`] turns a [`PhysicalPlan`] into a tree of nodes once,
//! and every node answers [`Node::fill`]: append at most `goal` rows to
//! `out`, and fewer only when exhausted. The goal always comes from the
//! consumer, never from a setting: [`Executor::run_physical`] asks for
//! everything, [`crate::TupleStream`] for one row per `next()`, and a
//! `LIMIT` asks its input for its offset plus the rows its own goal
//! still needs (`LIMIT 0` asks for nothing, so nothing below it runs).
//!
//! Sequential scans with their fused filter and projection, standalone
//! filters and standalone projections are one node, [`Pipe`], which reads
//! only as many input rows as its goal needs. A parallel scan is an
//! [`Exchange`] over a [`MorselExchange`]: pool workers when
//! `run_physical` drains the pipeline, dedicated producers under a
//! stream, which may stay open between pulls. Every other operator
//! (joins, aggregation, sorts, set operations, DISTINCT, index scans,
//! VALUES) runs its kernel ([`Executor::run_kernel`]) on first pull and
//! hands out the buffered result.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use perm_algebra::expr::ScalarExpr;
use perm_storage::Catalog;
use perm_types::{PermError, Result, Tuple};

use crate::compile::{CompiledExpr, CompiledProjection};
use crate::eval::Env;
use crate::executor::{check_scan_schema, Executor};
use crate::kernels::{BatchScan, BATCH_ROWS};
use crate::parallel::{MorselExchange, MorselQueue};
use crate::physical::PhysicalPlan;

/// One node of a pipeline. `'p` is the lifetime of the physical plan
/// the kernel nodes borrow ([`Node::into_owned`] detaches a pipeline
/// from it, for streams that outlive the plan).
pub(crate) enum Node<'p> {
    Pipe(Source<'p>, Box<Pipe>),
    Exchange(Box<Exchange>),
    /// OFFSET/LIMIT: `skip` input rows still to drop, at most `take`
    /// rows still to hand out (`usize::MAX` without a limit).
    Limit {
        input: Box<Node<'p>>,
        skip: usize,
        take: usize,
    },
    /// A blocking operator whose kernel has not run yet.
    Kernel(Box<Cow<'p, PhysicalPlan>>),
    /// A buffered result being handed out.
    Rows(std::vec::IntoIter<Tuple>),
}

impl<'p> Node<'p> {
    /// Build the pipeline of `plan`, validating its sequential scans
    /// against the executor's catalog snapshot. `pool`: the consumer
    /// drains the pipeline without pausing (a [`crate::TupleStream`] may
    /// pause), so parallel scans may run on the worker pool.
    pub(crate) fn build(exec: &Executor, plan: &'p PhysicalPlan, pool: bool) -> Result<Node<'p>> {
        let (source, filter, project, batch) = match plan {
            PhysicalPlan::FusedScanProjectFilter {
                table,
                schema,
                filter,
                project,
                dop,
                batch,
                ..
            } => {
                let t = exec.catalog().table(table)?;
                check_scan_schema(t, table, schema)?;
                // A bare scan clones `Arc`-shared rows: morsels would only
                // contend on the refcounts.
                if *dop > 1 && (filter.is_some() || project.is_some()) {
                    let (f, p, b) = (filter.as_ref(), project.as_deref(), batch.is_batch());
                    let pipe = Arc::new(Pipe::new(exec, f, p, b, exec.outer_stack()));
                    let (catalog, ctx, table) =
                        (exec.catalog_arc(), exec.context().clone(), table.clone());
                    // Each morsel runs on its own executor over the shared
                    // snapshot (sublink pipelines stay serial), keeps the rows
                    // ahead of a failing row and stops further claims.
                    let morsel = move |range: Range<usize>, queue: &MorselQueue| {
                        let sub = Executor::new(Arc::clone(&catalog)).with_context(ctx.clone());
                        let mut out = Vec::new();
                        let rows = sub.catalog().table(&table)?.rows()[range].iter();
                        let failed = pipe.run(&sub, rows, &mut out).err();
                        if failed.is_some() {
                            queue.abort();
                        }
                        Ok((out, failed))
                    };
                    let (ctx, dop, total) = (exec.context().clone(), *dop, t.rows().len());
                    let start = move || MorselExchange::start(&ctx, dop, total, pool, morsel);
                    return Ok(Node::Exchange(Box::new(Exchange {
                        start: Some(Box::new(start)),
                        morsels: None,
                        current: Vec::new().into_iter(),
                        failed: None,
                    })));
                }
                let key = Catalog::key_of(table);
                let source = Source::Table { key, next: 0 };
                (source, filter.as_ref(), project.as_deref(), batch)
            }
            PhysicalPlan::Filter {
                input,
                predicate,
                batch,
            } => {
                let source = Source::Input(Box::new(Node::build(exec, input, pool)?), Vec::new());
                (source, Some(predicate), None, batch)
            }
            PhysicalPlan::Project {
                input,
                exprs,
                batch,
            } => {
                let source = Source::Input(Box::new(Node::build(exec, input, pool)?), Vec::new());
                (source, None, Some(&exprs[..]), batch)
            }
            PhysicalPlan::Limit {
                input,
                limit,
                offset,
            } => {
                let count = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
                return Ok(Node::Limit {
                    input: Box::new(Node::build(exec, input, pool)?),
                    skip: count(*offset),
                    take: limit.map_or(usize::MAX, count),
                });
            }
            other => return Ok(Node::Kernel(Box::new(Cow::Borrowed(other)))),
        };
        let pipe = Pipe::new(exec, filter, project, batch.is_batch(), exec.outer_stack());
        Ok(Node::Pipe(source, Box::new(pipe)))
    }

    /// Append at most `goal` rows to `out` (fewer only once exhausted),
    /// counting the base rows sequential scans read in `scanned`.
    pub(crate) fn fill(
        &mut self,
        exec: &Executor,
        goal: usize,
        out: &mut Vec<Tuple>,
        scanned: &mut usize,
    ) -> Result<()> {
        if goal == 0 {
            return Ok(());
        }
        match self {
            Node::Pipe(source, pipe) => pipe.fill(exec, source, goal, out, scanned),
            Node::Exchange(ex) => ex.fill(exec, goal, out, scanned),
            Node::Limit { input, skip, take } if *take > 0 => {
                let start = out.len();
                input.fill(exec, skip.saturating_add(goal.min(*take)), out, scanned)?;
                let skipped = (*skip).min(out.len() - start);
                out.drain(start..start + skipped);
                *skip -= skipped;
                *take -= out.len() - start;
                Ok(())
            }
            Node::Limit { .. } => Ok(()),
            Node::Kernel(plan) => {
                let rows = exec.run_kernel(plan)?;
                *self = Node::Rows(rows.into_iter());
                self.fill(exec, goal, out, scanned)
            }
            Node::Rows(rows) => {
                drain(rows, goal, out);
                Ok(())
            }
        }
    }

    /// Detach the pipeline from the plan it was built from: the kernel
    /// nodes clone their (blocking) subtrees.
    pub(crate) fn into_owned(self) -> Node<'static> {
        match self {
            Node::Pipe(Source::Input(input, rows), pipe) => {
                Node::Pipe(Source::Input(Box::new(input.into_owned()), rows), pipe)
            }
            Node::Pipe(Source::Table { key, next }, pipe) => {
                Node::Pipe(Source::Table { key, next }, pipe)
            }
            Node::Exchange(ex) => Node::Exchange(ex),
            Node::Limit { input, skip, take } => Node::Limit {
                input: Box::new(input.into_owned()),
                skip,
                take,
            },
            Node::Kernel(plan) => Node::Kernel(Box::new(Cow::Owned(plan.into_owned()))),
            Node::Rows(rows) => Node::Rows(rows),
        }
    }
}

/// Hand up to `goal` buffered rows to `out`; the whole buffer moves
/// without copying when `out` is empty and wants all of it.
fn drain(rows: &mut std::vec::IntoIter<Tuple>, goal: usize, out: &mut Vec<Tuple>) {
    if out.is_empty() && goal >= rows.len() {
        *out = std::mem::take(rows).collect();
    } else {
        out.extend(rows.by_ref().take(goal));
    }
}

/// Where a [`Node::Pipe`] reads its rows: a base table (a sequential scan) or
/// another node.
pub(crate) enum Source<'p> {
    /// The pre-folded catalog key: re-resolving the table on each pull
    /// (the executor owns the snapshot) is an allocation-free lookup.
    Table { key: String, next: usize },
    /// The input node, and the buffer each round reads it into (kept
    /// across rounds and pulls).
    Input(Box<Node<'p>>, Vec<Tuple>),
}

/// The streaming scan, filter and projection: compiled, plus their
/// columnar lowering when the executor is columnar and the plan stamped
/// the node batchable. As a [`Node::Pipe`] it reads its [`Source`] in
/// rounds of the rows still missing until the goal is met. Index scans
/// and the morsels of parallel scans run it over their rows too.
pub(crate) struct Pipe {
    filter: Option<CompiledExpr>,
    project: Option<CompiledProjection>,
    batch: Option<BatchScan>,
    outer: Arc<Vec<Tuple>>,
}

impl Pipe {
    pub(crate) fn new(
        exec: &Executor,
        filter: Option<&ScalarExpr>,
        project: Option<&[ScalarExpr]>,
        allow_batch: bool,
        outer: Arc<Vec<Tuple>>,
    ) -> Pipe {
        let filter = filter.map(|f| CompiledExpr::compile(exec, f));
        let project = project.map(|p| CompiledProjection::compile(exec, p));
        let batch = if exec.columnar() && allow_batch {
            BatchScan::lower(filter.as_ref(), project.as_ref())
        } else {
            None
        };
        Pipe {
            filter,
            project,
            batch,
            outer,
        }
    }

    fn fill(
        &self,
        exec: &Executor,
        source: &mut Source<'_>,
        goal: usize,
        out: &mut Vec<Tuple>,
        scanned: &mut usize,
    ) -> Result<()> {
        let target = out.len().saturating_add(goal);
        while out.len() < target {
            // A selective filter can read for a long time without
            // emitting: check cancellation every round.
            exec.check_cancelled()?;
            let need = target - out.len();
            let exhausted = match source {
                Source::Table { key, next } => {
                    let rows = exec.catalog().table_by_key(key)?.rows();
                    let end = rows.len().min(next.saturating_add(need));
                    *scanned += end - *next;
                    let range = std::mem::replace(next, end)..end;
                    self.run(exec, rows[range].iter(), out)?;
                    end == rows.len()
                }
                Source::Input(input, rows) => {
                    input.fill(exec, need, rows, scanned)?;
                    self.run(exec, rows.iter(), out)?;
                    let exhausted = rows.len() < need;
                    rows.clear();
                    exhausted
                }
            };
            if exhausted {
                break;
            }
        }
        Ok(())
    }

    /// Append the rows that pass the filter, projected, to `out`, a
    /// batch of [`BATCH_ROWS`] at a time. Rows are only cloned (or
    /// projected) when they pass. With a columnar lowering a batch runs
    /// through [`BatchScan`], and a batch whose kernels error is re-run
    /// through the row path, which reproduces the interpreter's first
    /// error in row order (or succeeds, if narrowing had already masked
    /// the lane).
    pub(crate) fn run<'t>(
        &self,
        exec: &Executor,
        mut rows: impl Iterator<Item = &'t Tuple>,
        out: &mut Vec<Tuple>,
    ) -> Result<()> {
        if self.filter.is_none() {
            out.reserve(rows.size_hint().0);
        }
        let Some(scan) = &self.batch else {
            // A cancellation point every BATCH_ROWS rows.
            return rows.enumerate().try_for_each(|(i, row)| {
                if i % BATCH_ROWS == 0 {
                    exec.check_cancelled()?;
                }
                self.row(exec, row, out)
            });
        };
        let mut buf: Vec<&Tuple> = Vec::with_capacity(rows.size_hint().0.min(BATCH_ROWS));
        loop {
            buf.clear();
            buf.extend(rows.by_ref().take(BATCH_ROWS));
            if buf.is_empty() {
                return Ok(());
            }
            // Batch boundary: cancellation point (+ chaos site for the
            // kernels).
            exec.check_cancelled()?;
            perm_fault::exec_point("exec.kernel.batch", "batch scan")?;
            let before = out.len();
            if scan.run_batch(&buf, &self.outer, out).is_ok() {
                continue;
            }
            // Discard the batch's partial output and replay it row by
            // row: same rows in, same rows (or same error) out.
            out.truncate(before);
            // no-cancel: one batch (≤ BATCH_ROWS rows), checked above.
            for row in &buf {
                self.row(exec, row, out)?;
            }
        }
    }

    /// The row path: filter, then project, one row.
    fn row(&self, exec: &Executor, row: &Tuple, out: &mut Vec<Tuple>) -> Result<()> {
        let env = Env::new(row, &self.outer);
        if let Some(f) = &self.filter {
            if f.eval_bool(exec, &env)? != Some(true) {
                return Ok(());
            }
        }
        out.push(match &self.project {
            Some(p) => p.apply(exec, &env)?,
            None => row.clone(),
        });
        Ok(())
    }
}

/// One morsel of a parallel scan: the rows it emitted, and the error of
/// the row it stopped at, if one failed.
type ScanMorsel = (Vec<Tuple>, Option<PermError>);

/// Starts a parallel scan's producers.
type StartMorsels = Box<dyn FnOnce() -> Result<MorselExchange<ScanMorsel>> + Send>;

/// A morsel-parallel sequential scan. Its first pull starts the
/// [`MorselExchange`] (so `LIMIT 0` starts nothing): pool workers when
/// `run_physical` drains the pipeline, dedicated producers under a
/// stream. Morsels arrive in serial scan order; `scanned` counts the
/// rows of those handed out. A row error surfaces only once the goal
/// needs a row past it, as in a serial scan, and stops the producers'
/// claims at once.
pub(crate) struct Exchange {
    start: Option<StartMorsels>,
    morsels: Option<MorselExchange<ScanMorsel>>,
    current: std::vec::IntoIter<Tuple>,
    failed: Option<PermError>,
}

impl Exchange {
    fn fill(
        &mut self,
        exec: &Executor,
        goal: usize,
        out: &mut Vec<Tuple>,
        scanned: &mut usize,
    ) -> Result<()> {
        if let Some(start) = self.start.take() {
            self.morsels = Some(start()?);
        }
        let target = out.len().saturating_add(goal);
        loop {
            drain(&mut self.current, target - out.len(), out);
            if out.len() >= target {
                return Ok(());
            }
            if let Some(e) = self.failed.take() {
                return Err(e);
            }
            exec.check_cancelled()?;
            match self.morsels.as_mut().and_then(MorselExchange::next) {
                Some((claimed, morsel)) => {
                    *scanned += claimed;
                    let (rows, failed) = morsel?;
                    self.current = rows.into_iter();
                    self.failed = failed;
                }
                None => return Ok(()),
            }
        }
    }
}
