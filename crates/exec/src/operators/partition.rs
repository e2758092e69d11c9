//! The partitioner: how a blocking operator's kernel runs when its
//! state is split by hash, across pool workers or across spill files.
//!
//! A partitioned run has three steps:
//!
//! 1. **Scatter.** Input rows are tagged with their position in the
//!    serial input order and routed to one of N partitions by hash
//!    (equal rows, or equal keys, always meet in one partition): into
//!    in-memory buckets by chunk workers, or into spill files.
//! 2. **Run.** One closure runs per partition over that partition's rows,
//!    every side in tag order. In memory each pool worker owns one
//!    partition ([`run_workers`]); on disk the partitions stream back one
//!    at a time on the calling thread, and the kernel charges only what it
//!    retains (hash-set entries, group states, build rows) to the
//!    per-query cap ([`MemoryReservation::grow_unpooled`]): pool pressure
//!    makes queries spill, never fail, and a skewed partition costs its
//!    kernel state, not its rows.
//! 3. **Merge.** Every partition emits its rows in tag order, so a k-way
//!    merge by tag ([`merge_runs`]) restores the serial output order.
//!    When several partitions fail, the error with the smallest tag —
//!    the one serial execution meets first — wins.
//!
//! The same k-way merge also merges the sorted runs of the parallel and
//! the external sort.

use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, PoisonError};

use perm_storage::{SpillPartitions, SpillReader};
use perm_types::hash::FxHasher;
use perm_types::{PermError, QueryContext, Result, Tuple};

use crate::memory::{grow_batched, MemoryReservation, SpillFileGuard};
use crate::parallel::{map_chunks, run_workers};

/// A row tagged with its position in the operator's serial order.
pub(crate) type Tagged = (u64, Tuple);

/// An error tagged with the row that raised it.
pub(crate) type TaggedError = (u64, PermError);

/// A row as the kernels see it: bare on the serial path, tagged on the
/// partitioned paths. Kernels are generic over it, so each path runs its
/// own monomorphic copy of one source.
pub(crate) trait KernelRow {
    fn row(&self) -> &Tuple;
    fn into_row(self) -> Tuple;
}

impl KernelRow for Tuple {
    #[inline]
    fn row(&self) -> &Tuple {
        self
    }

    #[inline]
    fn into_row(self) -> Tuple {
        self
    }
}

impl KernelRow for Tagged {
    #[inline]
    fn row(&self) -> &Tuple {
        &self.1
    }

    #[inline]
    fn into_row(self) -> Tuple {
        self.1
    }
}

/// Where a blocking operator keeps its state.
#[derive(Clone, Copy)]
pub(crate) enum Placement<'r> {
    /// One in-memory hash table on the calling thread: the kernel runs
    /// directly, without tags.
    Serial,
    /// Hash partitions, each run by the kernel over tagged rows.
    Parts(Parts<'r>),
}

/// Where the partitions of a partitioned run live.
#[derive(Clone, Copy)]
pub(crate) enum Parts<'r> {
    /// `n` in-memory partitions, one per pool worker.
    Workers(usize),
    /// `n` spill partitions, run one at a time; what a kernel retains is
    /// charged to the reservation's query cap only.
    Spill(usize, &'r MemoryReservation),
}

/// Charge an operator's input bytes (`sizes`) to `res` and choose where
/// its state lives. A denied charge frees the reservation and switches to
/// `spill` partitions, or fails with the typed resource error when the
/// planner marked the node non-spillable (`spill: None`).
pub(crate) fn place(
    res: &MemoryReservation,
    sizes: impl Iterator<Item = usize>,
    dop: usize,
    spill: Option<usize>,
) -> Result<Placement<'_>> {
    if let Err(denied) = grow_batched(res, sizes) {
        res.free();
        return match spill {
            Some(parts) => Ok(Placement::Parts(Parts::Spill(parts, res))),
            None => Err(denied.into_error()),
        };
    }
    Ok(if dop > 1 {
        Placement::Parts(Parts::Workers(dop))
    } else {
        Placement::Serial
    })
}

/// The memory a kernel retains while it runs over spilled rows (hash-set
/// entries, group states, loaded build rows, sort keys), charged to the
/// per-query cap as the kernel keeps it and released when the run ends.
/// In memory the operator's whole input was charged up front, so those
/// paths pass `Retained::default()`, which charges nothing and never
/// sizes a row.
#[derive(Default)]
pub(crate) struct Retained<'r> {
    res: Option<&'r MemoryReservation>,
    bytes: usize,
}

impl<'r> Retained<'r> {
    pub(crate) fn charged(res: &'r MemoryReservation) -> Retained<'r> {
        Retained {
            res: Some(res),
            bytes: 0,
        }
    }

    /// Charge `bytes()` more, failing with the typed resource error once
    /// the query cap is reached.
    #[inline]
    pub(crate) fn keep(&mut self, bytes: impl FnOnce() -> usize) -> Result<()> {
        if let Some(res) = self.res {
            let bytes = bytes();
            res.grow_unpooled(bytes)?;
            self.bytes += bytes;
        }
        Ok(())
    }
}

impl Drop for Retained<'_> {
    fn drop(&mut self) {
        if let Some(res) = self.res {
            res.shrink(self.bytes);
        }
    }
}

/// Partition index of a hashable value: high hash bits, so the
/// per-partition hash tables built afterwards (which consume the *low*
/// bits for buckets) don't lose entropy to the partitioning.
pub(crate) fn partition_of<T: Hash + ?Sized>(x: &T, parts: usize) -> usize {
    let mut h = FxHasher::default();
    x.hash(&mut h);
    ((h.finish() >> 32) as usize) % parts
}

/// One side of one partition as a kernel reads it: tagged rows in tag
/// order, from memory or streamed from a spill file.
pub(crate) enum PartRows {
    Memory(std::vec::IntoIter<Tagged>),
    Disk(TrackedReader),
}

impl Iterator for PartRows {
    type Item = Result<Tagged>;

    #[inline]
    fn next(&mut self) -> Option<Result<Tagged>> {
        match self {
            PartRows::Memory(rows) => rows.next().map(Ok),
            PartRows::Disk(reader) => reader.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            PartRows::Memory(rows) => rows.size_hint(),
            PartRows::Disk(reader) => reader.size_hint(),
        }
    }
}

/// Run `kernel` over `sides` hash-partitioned by whole-row value (set
/// operations and DISTINCT). Rows are tagged with their position in the
/// concatenation of `sides`; the kernel gets one partition's rows of
/// every side and returns its output rows, tagged and in tag order.
pub(crate) fn by_row_hash<const N: usize, K>(
    ctx: &QueryContext,
    parts: Parts<'_>,
    sides: [Vec<Tuple>; N],
    kernel: K,
) -> Result<Vec<Tuple>>
where
    K: Fn(&QueryContext, [PartRows; N], &mut Retained<'_>) -> Result<Vec<Tagged>>
        + Copy
        + Send
        + Sync
        + 'static,
{
    let n = match parts {
        Parts::Workers(n) => n,
        Parts::Spill(n, res) => {
            let mut spilled = Spilled::new(n, res);
            let mut first_tag = 0u64;
            // no-cancel: bounded by the side count; the scatter checks
            // per row.
            for rows in sides {
                let len = rows.len() as u64;
                // Whole-row routing never fails.
                spilled.scatter(ctx, rows, first_tag, |t| Ok(Some(partition_of(t, n))))?;
                first_tag += len;
            }
            // No row raises an error in these kernels: every error they
            // return fails the query.
            return spilled.run(ctx, None, |readers, mem| {
                Ok(Ok(kernel(ctx, readers.map(PartRows::Disk), mem)?))
            });
        }
    };
    let mut parts: Vec<[Vec<Tagged>; N]> = (0..n)
        .map(|_| std::array::from_fn(|_| Vec::new()))
        .collect();
    let mut first_tag = 0u64;
    // no-cancel: bounded by the side count; the scatter checks per row.
    for (s, rows) in sides.into_iter().enumerate() {
        let len = rows.len() as u64;
        // no-cancel: bounded by the partition count.
        for (p, bucket) in scatter_in_memory(ctx, rows, first_tag, n)?
            .into_iter()
            .enumerate()
        {
            parts[p][s] = bucket;
        }
        first_tag += len;
    }
    let parts: Vec<Mutex<Option<[Vec<Tagged>; N]>>> =
        parts.into_iter().map(|p| Mutex::new(Some(p))).collect();
    let worker_ctx = ctx.clone();
    let outputs = run_workers(n, move |p| {
        // Worker `p` alone takes partition `p`. The `take` is the only
        // update, so even a poisoned lock holds valid data.
        let sides = parts[p]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
            .unwrap_or_else(|| std::array::from_fn(|_| Vec::new()));
        let sides = sides.map(|rows| PartRows::Memory(rows.into_iter()));
        kernel(&worker_ctx, sides, &mut Retained::default())
    })?;
    let mut runs = Vec::with_capacity(n);
    // no-cancel: reassembly of already-computed partition outputs.
    for out in outputs {
        runs.push(out?);
    }
    merge_by_tag(ctx, runs)
}

/// Hash-partition `rows` into `parts` in-memory buckets on chunk
/// workers, tagging row `i` with `first_tag + i`. Buckets come back in
/// tag order (chunks are contiguous and merge in chunk order).
fn scatter_in_memory(
    ctx: &QueryContext,
    rows: Vec<Tuple>,
    first_tag: u64,
    parts: usize,
) -> Result<Vec<Vec<Tagged>>> {
    let total = rows.len();
    let rows = Arc::new(rows);
    let worker_ctx = ctx.clone();
    let chunked = map_chunks(ctx, parts, total, move |range| {
        let mut buckets: Vec<Vec<Tagged>> = vec![Vec::new(); parts];
        for (i, t) in rows[range.clone()].iter().enumerate() {
            // Masked cancellation check per 4096 scattered rows.
            if i % 4096 == 0 {
                worker_ctx.check()?;
            }
            let tag = first_tag + (range.start + i) as u64;
            buckets[partition_of(t, parts)].push((tag, t.clone()));
        }
        Ok(buckets)
    })?;
    let mut out: Vec<Vec<Tagged>> = vec![Vec::new(); parts];
    // no-cancel: reassembly of already-computed buckets.
    for chunk in chunked {
        // no-cancel: bounded by the partition count.
        for (p, items) in chunk.into_iter().enumerate() {
            out[p].extend(items);
        }
    }
    Ok(out)
}

/// Spill files of one operator input: one file per partition, each
/// counted in its query's live spill files
/// ([`crate::QueryMemory::spill_files`]) until it is deleted.
pub(crate) struct SpillFiles {
    files: SpillPartitions,
    live: Vec<SpillFileGuard>,
}

impl SpillFiles {
    pub(crate) fn create(parts: usize, res: &MemoryReservation) -> Result<SpillFiles> {
        let files = SpillPartitions::create(parts)?;
        let live = (0..files.parts()).map(|_| res.track_spill_file()).collect();
        Ok(SpillFiles { files, live })
    }

    pub(crate) fn push(&mut self, part: usize, tag: u64, row: &Tuple) -> Result<()> {
        self.files.push(part, tag, row)
    }

    /// Reopen every partition for reading, in partition order.
    pub(crate) fn into_readers(self) -> Result<Vec<TrackedReader>> {
        Ok(self
            .files
            .into_readers()?
            .into_iter()
            .zip(self.live)
            .map(|(reader, live)| TrackedReader {
                reader,
                _live: live,
            })
            .collect())
    }
}

/// A spill partition's reader, still counted as a live spill file.
pub(crate) struct TrackedReader {
    reader: SpillReader,
    _live: SpillFileGuard,
}

impl Iterator for TrackedReader {
    type Item = Result<Tagged>;

    fn next(&mut self) -> Option<Result<Tagged>> {
        self.reader.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.reader.size_hint()
    }
}

/// A spilled partition's output: its rows, tagged and in tag order, or
/// the first row error it met, tagged with that row.
pub(crate) type PartOutput = std::result::Result<Vec<Tagged>, TaggedError>;

/// The on-disk half of the partitioner: inputs scattered to spill files
/// by an operator-chosen route, then run partition by partition.
pub(crate) struct Spilled<'r> {
    parts: usize,
    res: &'r MemoryReservation,
    sides: Vec<SpillFiles>,
}

impl<'r> Spilled<'r> {
    pub(crate) fn new(parts: usize, res: &'r MemoryReservation) -> Spilled<'r> {
        Spilled {
            parts,
            res,
            sides: Vec::new(),
        }
    }

    /// Scatter `rows` to disk as the next side, tagging row `i` with
    /// `first_tag + i`. `route` picks each row's partition (`None` drops
    /// the row). A route error stops the scatter — later rows cannot
    /// matter — and comes back tagged with its row.
    pub(crate) fn scatter(
        &mut self,
        ctx: &QueryContext,
        rows: Vec<Tuple>,
        first_tag: u64,
        mut route: impl FnMut(&Tuple) -> Result<Option<usize>>,
    ) -> Result<Option<TaggedError>> {
        let mut files = SpillFiles::create(self.parts, self.res)?;
        let mut failed = None;
        for (i, t) in rows.iter().enumerate() {
            // Masked cancellation check per 4096 scattered rows.
            if i % 4096 == 0 {
                ctx.check()?;
            }
            let tag = first_tag + i as u64;
            match route(t) {
                Ok(Some(p)) => files.push(p, tag, t)?,
                Ok(None) => {}
                Err(e) => {
                    failed = Some((tag, e));
                    break;
                }
            }
        }
        self.sides.push(files);
        Ok(failed)
    }

    /// Run `f` on each partition in turn — one streamed reader per side
    /// (the `N` sides scattered so far), rows in tag order — and merge
    /// the outputs by tag. `f` charges what it keeps to the [`Retained`]
    /// it is handed, which releases it when the partition is done. An
    /// `Err` from `f` fails the query at once; a row error competes by
    /// tag: the smallest-tagged one of all partitions (and of
    /// `first_err`, a scatter's) is the operator's error.
    pub(crate) fn run<const N: usize>(
        self,
        ctx: &QueryContext,
        first_err: Option<TaggedError>,
        mut f: impl FnMut([TrackedReader; N], &mut Retained<'r>) -> Result<PartOutput>,
    ) -> Result<Vec<Tuple>> {
        assert_eq!(self.sides.len(), N, "one reader per scattered side");
        let mut readers = Vec::with_capacity(N);
        // no-cancel: bounded by the side count.
        for side in self.sides {
            readers.push(side.into_readers()?.into_iter());
        }
        let mut best = first_err;
        let mut runs = Vec::with_capacity(self.parts);
        // no-cancel: bounded by the partition count; each partition
        // starts with a check.
        for _ in 0..self.parts {
            // Partition boundary: cancellation point (temp files are
            // cleaned by the readers' Drop even on the early-return path).
            ctx.check()?;
            // INVARIANT: every side was scattered to `self.parts` files.
            let part = std::array::from_fn(|s| readers[s].next().expect("one file per partition"));
            match f(part, &mut Retained::charged(self.res))? {
                Ok(rows) => runs.push(rows),
                Err(e) => {
                    if best.as_ref().is_none_or(|(tag, _)| e.0 < *tag) {
                        best = Some(e);
                    }
                }
            }
        }
        if let Some((_, e)) = best {
            return Err(e);
        }
        merge_by_tag(ctx, runs)
    }
}

/// Merge partition outputs, each in tag order, into serial order.
fn merge_by_tag(ctx: &QueryContext, runs: Vec<Vec<Tagged>>) -> Result<Vec<Tuple>> {
    let runs = runs.into_iter().map(|r| r.into_iter().map(Ok)).collect();
    merge_runs(ctx, runs, |a: &u64, b: &u64| a < b)
}

/// Stable k-way merge of runs that are each sorted by key: emit the
/// smallest head, ties going to the earlier run. Over runs cut from one
/// sequence in order this reproduces a stable sort of that sequence; over
/// tag-sorted partition outputs it restores serial order. The run count
/// is small (DOP or spill fanout), so a linear scan of the heads beats
/// heap bookkeeping.
pub(crate) fn merge_runs<K, I>(
    ctx: &QueryContext,
    mut runs: Vec<I>,
    less: impl Fn(&K, &K) -> bool,
) -> Result<Vec<Tuple>>
where
    I: Iterator<Item = Result<(K, Tuple)>>,
{
    let mut heads: Vec<Option<(K, Tuple)>> = Vec::with_capacity(runs.len());
    let mut total = 0usize;
    // no-cancel: head priming, bounded by the run count.
    for run in &mut runs {
        heads.push(run.next().transpose()?);
        total += run.size_hint().0 + 1;
    }
    let mut out = Vec::with_capacity(total);
    loop {
        // Masked cancellation check per 4096 merged rows.
        if out.len() % 4096 == 0 {
            ctx.check()?;
        }
        let mut best: Option<(usize, &K)> = None;
        // no-cancel: head scan, bounded by the run count.
        for (i, head) in heads.iter().enumerate() {
            if let Some((k, _)) = head {
                if best.is_none_or(|(_, bk)| less(k, bk)) {
                    best = Some((i, k));
                }
            }
        }
        let Some((b, _)) = best else { break };
        // INVARIANT: `best` only ever indexes a head that is Some.
        let (_, row) = heads[b].take().expect("best head present");
        out.push(row);
        heads[b] = runs[b].next().transpose()?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{MemoryPool, QueryMemory};
    use perm_types::Value;

    fn row(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)])
    }

    fn int(t: &Tuple) -> i64 {
        match t.get(0) {
            Value::Int(i) => *i,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn merge_runs_breaks_ties_toward_the_earlier_run() {
        let runs: Vec<Vec<(i64, Tuple)>> = vec![
            vec![(1, row(10)), (2, row(11))],
            vec![(1, row(20)), (3, row(21))],
        ];
        let runs = runs.into_iter().map(|r| r.into_iter().map(Ok)).collect();
        let got = merge_runs(&QueryContext::detached(), runs, |a: &i64, b: &i64| a < b).unwrap();
        assert_eq!(got, vec![row(10), row(20), row(11), row(21)]);
    }

    #[test]
    fn spilled_run_reports_the_smallest_tagged_error() {
        let q = QueryMemory::new(MemoryPool::with_budget(1), None);
        let res = q.register("test");
        let ctx = QueryContext::detached();
        // Each partition fails at its last row: the error of the row serial
        // execution meets first wins, whichever partition raised it.
        let fail_at_last =
            |[rows]: [TrackedReader; 1], _: &mut Retained<'_>| -> Result<PartOutput> {
                let rows: Vec<Tagged> = rows.collect::<Result<_>>()?;
                let tag = rows.last().map_or(0, |(t, _)| *t);
                Ok(Err((tag, PermError::Execution(format!("row {tag}")))))
            };
        let by_parity = |t: &Tuple| Ok(Some((int(t) % 2) as usize));

        let mut spilled = Spilled::new(2, &res);
        let none = spilled
            .scatter(&ctx, (0..6).map(row).collect(), 0, by_parity)
            .unwrap();
        assert!(none.is_none());
        let err = spilled.run(&ctx, None, fail_at_last).unwrap_err();
        assert_eq!(err, PermError::Execution("row 4".into()));

        // A route error at row 5 stops the scatter; the partitions still
        // run over rows 0..5, and partition 1's error at row 3 beats it.
        let mut spilled = Spilled::new(2, &res);
        let route = |t: &Tuple| match int(t) {
            5 => Err(PermError::Execution("route 5".into())),
            _ => by_parity(t),
        };
        let key_err = spilled
            .scatter(&ctx, (0..6).map(row).collect(), 0, route)
            .unwrap();
        assert_eq!(key_err.as_ref().map(|(tag, _)| *tag), Some(5));
        let err = spilled.run(&ctx, key_err, fail_at_last).unwrap_err();
        assert_eq!(err, PermError::Execution("row 3".into()));
        assert_eq!(res.size(), 0, "working memory released");
        assert_eq!(q.spill_files(), 0, "every spill file deleted");
    }
}
