//! Pull-based results: a row cursor over the execution pipeline.
//!
//! [`TupleStream`] drives a top-level plan cursor-style, the way a
//! PostgreSQL client consumes a portal: each `next()` asks the plan's
//! pipeline (`pipeline` module) for one row. It is the same pipeline
//! [`Executor::run_physical`] drains, only with a row goal of one
//! instead of "everything": scans, filters, projections and limits read
//! only the rows that goal needs (a `LIMIT` asks its input for its offset
//! plus one row), a parallel scan's exchange runs on dedicated
//! producers behind a bounded channel, and blocking operators run their
//! kernel on first pull.
//!
//! The stream owns its [`Executor`] — and through it an immutable catalog
//! snapshot — so it keeps yielding a consistent result however long the
//! consumer takes, even while concurrent sessions run DDL against the
//! shared catalog.

use perm_algebra::plan::LogicalPlan;
use perm_types::{Result, Tuple};

use crate::executor::Executor;
use crate::physical::PhysicalPlan;
use crate::pipeline::Node;

/// A pull-based result: `Iterator<Item = Result<Tuple>>` over a plan.
///
/// Created by [`Executor::into_stream`]. The stream is fused: after the
/// first error (or the natural end) it yields `None` forever.
pub struct TupleStream {
    exec: Executor,
    root: Node<'static>,
    row: Vec<Tuple>,
    rows_scanned: usize,
    pulls: usize,
    done: bool,
}

impl TupleStream {
    /// Build a stream over a physical plan, validating its base-table
    /// scans against the executor's catalog snapshot up front.
    pub fn new(exec: Executor, plan: &PhysicalPlan) -> Result<TupleStream> {
        let root = Node::build(&exec, plan, false)?.into_owned();
        Ok(TupleStream {
            exec,
            root,
            row: Vec::with_capacity(1),
            rows_scanned: 0,
            pulls: 0,
            done: false,
        })
    }

    /// How many base-table rows the streaming scans have pulled so far.
    ///
    /// Rows read inside blocking subtrees are not counted — the counter
    /// measures exactly the early-termination benefit: a `LIMIT k` over a
    /// streamable chain stops after pulling the few scan rows it needed.
    pub fn rows_scanned(&self) -> usize {
        self.rows_scanned
    }
}

impl Iterator for TupleStream {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Result<Tuple>> {
        if self.done {
            return None;
        }
        // Masked cancellation check per 1024 pulls: covers pulls that
        // reach no check of their own (buffered rows).
        self.pulls += 1;
        if self.pulls.is_multiple_of(1024) {
            if let Err(e) = self.exec.check_cancelled() {
                self.done = true;
                return Some(Err(e));
            }
        }
        self.row.clear();
        let pulled = self
            .root
            .fill(&self.exec, 1, &mut self.row, &mut self.rows_scanned);
        let item = match pulled {
            Ok(()) => self.row.pop().map(Ok),
            Err(e) => Some(Err(e)),
        };
        if !matches!(item, Some(Ok(_))) {
            self.done = true;
        }
        item
    }
}

impl Executor {
    /// Consume this executor into a pull-based stream over `plan` (the
    /// logical plan is lowered through the physical planner first).
    ///
    /// The plan must be a *top-level* plan (no outer scopes in flight);
    /// streams are built per statement, exactly like [`Executor::run`]
    /// calls at the top level.
    pub fn into_stream(self, plan: &LogicalPlan) -> Result<TupleStream> {
        let physical = self.physical(plan);
        self.check_lowering(plan, &physical)?;
        TupleStream::new(self, &physical)
    }

    /// [`Executor::into_stream`] over an already-lowered physical plan
    /// (prepared statements cache the lowering).
    pub fn into_stream_physical(self, plan: &PhysicalPlan) -> Result<TupleStream> {
        TupleStream::new(self, plan)
    }
}
