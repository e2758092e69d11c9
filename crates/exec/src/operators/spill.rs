//! Blocking operators: one kernel, three ways to drive it.
//!
//! Every blocking operator's per-row logic is written exactly once, as a
//! *kernel*. Serial, parallel and spilling execution differ only in how
//! rows reach that kernel:
//!
//! * **Serial** calls the kernel directly on the whole input: no tags, no
//!   partitions, rows moved rather than cloned.
//! * **Parallel** (DOP > 1) runs it on pool workers: over hash
//!   partitions of the input (set operations, DISTINCT), over morsels of
//!   the probe side (joins), or over contiguous chunks whose results merge
//!   in chunk order (aggregation, sort).
//! * **Spill** — the operator's memory reservation was denied
//!   ([`crate::memory`]) — runs it over partitions written to disk
//!   through [`perm_storage::spill`] (hash partitions; contiguous runs for
//!   the sort) and streamed back one at a time. The kernel charges only
//!   what it retains (hash-set entries, group states, a partition's join
//!   build rows, a run's keys) to the per-query cap.
//!
//! The partitioner (`partition.rs`) owns the scatter, the
//! per-partition runs and the merge; hash joins and aggregates use it
//! only when they spill (their parallel strategies, a shared build and
//! chunk partials, are not partitioned). Partitioned runs tag every row
//! with its serial position and merge the partition outputs by tag, so
//! each path produces the same rows, in the same order, raising the
//! same errors as the serial kernel. The kernels:
//!
//! | operator | kernel | parallel | spill |
//! |---|---|---|---|
//! | set operations ([`super::setop`]) | `set_kernel` | row-hash partitions | row-hash partitions |
//! | DISTINCT ([`super::setop`]) | `dedup` | row-hash partitions | row-hash partitions |
//! | hash join ([`super::join`]) | `Prober::probe_row` | morsels over a shared build | Grace: key-hash partitions |
//! | index nested-loop join ([`super::join`]) | `index_probe` | morsels | never spills |
//! | nested-loop join ([`super::join`]) | `nested_loop` | serial only | never spills |
//! | aggregation ([`super::aggregate`]) | `accumulate` | chunk partials | group-key partitions |
//! | sort (here) | `sorted_run` + `merge_runs` | chunk runs | runs on disk |
//!
//! The three join kernels share one per-row core, `RowJoiner::join_row`
//! (residual, SEMI/ANTI/LEFT/FULL emission), and differ only in how they
//! find a row's candidate partners. FULL joins track build-side matches
//! across the whole probe side, so they stay serial and never spill.

use std::cmp::Ordering;
use std::sync::Arc;

use perm_algebra::plan::SortKey;
use perm_types::{Result, Tuple, Value};

use super::partition::{merge_runs, place, Parts, Placement, Retained, SpillFiles};
use crate::compile::CompiledExpr;
use crate::executor::Executor;
use crate::kernels::BATCH_ROWS;
use crate::memory::MemoryReservation;
use crate::parallel::{chunk_ranges, map_chunks};
use crate::physical::PhysicalPlan;

/// The sort comparator over precomputed key rows — the single
/// definition of sort order, shared by every sort path.
pub(crate) fn cmp_keys(a: &[Value], b: &[Value], keys: &[SortKey]) -> Ordering {
    // no-cancel: bounded by the (tiny) sort-key count.
    for (i, k) in keys.iter().enumerate() {
        let ord = a[i].sort_cmp(&b[i]);
        let ord = if k.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

pub(crate) fn run_sort(
    exec: &Executor,
    input: &PhysicalPlan,
    keys: &[SortKey],
    dop: usize,
    spill: Option<usize>,
    allow_batch: bool,
) -> Result<Vec<Tuple>> {
    let rows = exec.run_physical(input)?;
    // The sort buffer holds every input row plus its computed keys:
    // charge input bytes; a denial switches to the external sort.
    let res = exec.memory().register("Sort");
    let outer = exec.outer_stack();
    match place(&res, rows.iter().map(Tuple::size_bytes), dop, spill)? {
        Placement::Serial => {
            let run = sorted_run(
                exec,
                rows,
                keys,
                &outer,
                allow_batch,
                &mut Retained::default(),
            )?;
            Ok(run.into_iter().map(|(_, t)| t).collect())
        }
        Placement::Parts(Parts::Workers(n)) => sort_parallel(exec, rows, keys, n, allow_batch),
        Placement::Parts(Parts::Spill(n, res)) => sort_spill(exec, rows, keys, n, res, allow_batch),
    }
}

/// The sort kernel: key every row (batched when columnar) and sort
/// stably by key. Rows are keyed a batch at a time, and `mem` is charged
/// each batch's rows before it is keyed and its keys once they are made,
/// so a spilled run stops at the query cap within one batch.
fn sorted_run(
    exec: &Executor,
    rows: Vec<Tuple>,
    keys: &[SortKey],
    outer: &[Tuple],
    allow_batch: bool,
    mem: &mut Retained<'_>,
) -> Result<Vec<(Vec<Value>, Tuple)>> {
    let compiled: Vec<CompiledExpr> = keys
        .iter()
        .map(|k| CompiledExpr::compile(exec, &k.expr))
        .collect();
    let mut key_rows = Vec::with_capacity(rows.len());
    // no-cancel: compute_keys checks per batch.
    for batch in rows.chunks(BATCH_ROWS) {
        mem.keep(|| batch.iter().map(Tuple::size_bytes).sum())?;
        let batch_keys = exec.compute_keys(batch, &compiled, outer, allow_batch)?;
        mem.keep(|| batch_keys.iter().flatten().map(Value::size_bytes).sum())?;
        key_rows.extend(batch_keys);
    }
    let mut keyed: Vec<(Vec<Value>, Tuple)> = key_rows.into_iter().zip(rows).collect();
    keyed.sort_by(|(a, _), (b, _)| cmp_keys(a, b, keys));
    Ok(keyed)
}

fn less(keys: &[SortKey]) -> impl Fn(&Vec<Value>, &Vec<Value>) -> bool + '_ {
    move |a, b| cmp_keys(a, b, keys) == Ordering::Less
}

/// Parallel sort: workers sort contiguous chunks, then the stable k-way
/// merge (ties toward the earlier chunk) rebuilds exactly the serial
/// stable order.
fn sort_parallel(
    exec: &Executor,
    rows: Vec<Tuple>,
    keys: &[SortKey],
    dop: usize,
    allow_batch: bool,
) -> Result<Vec<Tuple>> {
    let total = rows.len();
    let rows = Arc::new(rows);
    let catalog = exec.catalog_arc();
    let outer = exec.outer_stack();
    let owned_keys: Arc<Vec<SortKey>> = Arc::new(keys.to_vec());
    let columnar = exec.columnar();
    let ctx = exec.context().clone();
    let runs = map_chunks(exec.context(), dop, total, move |range| {
        let sub = Executor::new(Arc::clone(&catalog))
            .with_columnar(columnar)
            .with_context(ctx.clone());
        let run = rows[range].to_vec();
        sorted_run(
            &sub,
            run,
            &owned_keys,
            &outer,
            allow_batch,
            &mut Retained::default(),
        )
    })?;
    let runs = runs.into_iter().map(|r| r.into_iter().map(Ok)).collect();
    merge_runs(exec.context(), runs, less(keys))
}

/// External sort: sort contiguous runs and write them to disk, then
/// merge them k-way. Runs cover the input in order, so key errors surface
/// in input-row order exactly as the serial path raises them, and merge
/// ties resolve toward the earlier run, matching the serial stable sort.
fn sort_spill(
    exec: &Executor,
    rows: Vec<Tuple>,
    keys: &[SortKey],
    parts: usize,
    res: &MemoryReservation,
    allow_batch: bool,
) -> Result<Vec<Tuple>> {
    let outer = exec.outer_stack();
    let ranges = chunk_ranges(rows.len(), parts);
    let mut files = SpillFiles::create(ranges.len(), res)?;
    let mut rows = rows.into_iter();
    // no-cancel: bounded by the run count; each run starts with a check.
    for (run, range) in ranges.into_iter().enumerate() {
        // Run boundary: cancellation point (written runs are temp files
        // cleaned by Drop even on the early-return path).
        exec.check_cancelled()?;
        // The run being sorted is this path's working memory, one run at
        // a time.
        let mut mem = Retained::charged(res);
        let input = rows.by_ref().take(range.len()).collect();
        let keyed = sorted_run(exec, input, keys, &outer, allow_batch, &mut mem)?;
        for (wi, (ks, t)) in keyed.into_iter().enumerate() {
            // Masked cancellation check per 4096 written rows.
            if wi % 4096 == 0 {
                exec.check_cancelled()?;
            }
            // Composite record: the computed keys, then the row — split
            // back apart at read time.
            let composite: Tuple = ks.into_iter().chain(t.iter().cloned()).collect();
            files.push(run, 0, &composite)?;
        }
    }
    let kn = keys.len();
    let runs = files
        .into_readers()?
        .into_iter()
        .map(|reader| {
            reader.map(move |rec| {
                let mut vals = rec?.1.into_values();
                let row = Tuple::new(vals.split_off(kn));
                Ok((vals, row))
            })
        })
        .collect();
    merge_runs(exec.context(), runs, less(keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{MemoryPool, QueryMemory};
    use perm_storage::Catalog;
    use perm_types::QueryContext;
    use std::sync::Arc;

    fn res() -> (QueryMemory, MemoryReservation) {
        let q = QueryMemory::new(MemoryPool::with_budget(1), None);
        let r = q.register("test");
        (q, r)
    }

    fn rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v), Value::Int(v % 3)]))
            .collect()
    }

    #[test]
    fn external_sort_matches_in_memory_stable_sort() {
        let exec = Executor::new(Arc::new(Catalog::new()));
        let (_q, r) = res();
        let input = rows(&[5, 3, 8, 3, 1, 9, 3, 7, 2, 5, 0, 6]);
        let keys = vec![SortKey {
            expr: perm_algebra::expr::ScalarExpr::Column(1),
            desc: false,
        }];
        let mut expected = input.clone();
        expected.sort_by_key(|t| match t.get(1) {
            Value::Int(i) => *i,
            _ => unreachable!(),
        });
        let got = sort_spill(&exec, input, &keys, 4, &r, false).unwrap();
        assert_eq!(got, expected, "stable order must survive the spill");
        assert_eq!(r.size(), 0, "working memory fully released");
    }

    #[test]
    fn empty_input_spills_to_empty_output() {
        let exec = Executor::new(Arc::new(Catalog::new()));
        let (_q, r) = res();
        assert!(sort_spill(&exec, Vec::new(), &[], 4, &r, false)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn cancelled_spill_sort_cleans_its_temp_files() {
        let ctx = QueryContext::new(11, None, None);
        ctx.handle().cancel();
        let catalog = Arc::new(Catalog::new());
        let exec = Executor::new(catalog).with_context(ctx);
        let (q, r) = res();
        let input = rows(&[5, 3, 8, 3, 1, 9, 3, 7, 2, 5, 0, 6]);
        let keys = vec![SortKey {
            expr: perm_algebra::expr::ScalarExpr::Column(1),
            desc: false,
        }];
        let err = sort_spill(&exec, input, &keys, 4, &r, false).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
        assert_eq!(r.size(), 0, "working memory released on cancellation");
        // This query's own spill files, not the process's: sibling tests
        // spilling at the same time cannot make this check flaky.
        assert_eq!(q.spill_files(), 0, "cancelled sort left spill temp files");
    }
}
