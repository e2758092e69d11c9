//! Join execution: hash join (with a planner-chosen build side), index
//! nested-loop join, and nested-loop join.
//!
//! The strategy, the extracted equi-keys (including the NULL-safe
//! `IS NOT DISTINCT FROM` keys Perm's aggregation join-back emits), the
//! build side and any fused output projection are all decided by the
//! physical planner ([`crate::physical`]); this module only runs the
//! operator it is handed. Each join has one per-row kernel — the hash
//! probe `Prober::probe_row` and the index probe `index_probe` — which
//! the serial, parallel and spill paths all run; all three join kernels
//! share the per-row core `RowJoiner::join_row`.

use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use perm_types::hash::{map_with_capacity, FxHashMap};
use perm_types::{Result, Tuple, Value};

use perm_algebra::expr::ScalarExpr;
use perm_algebra::plan::JoinType;

use super::partition::{partition_of, place, Parts, Placement, Spilled};
use crate::compile::CompiledExpr;
use crate::eval::Env;
use crate::executor::{check_scan_schema, Executor};
use crate::memory::MemoryReservation;
use crate::parallel::{concat, map_morsels};
use crate::physical::{BuildSide, PhysicalPlan};

/// Execute a physical join node ([`PhysicalPlan::HashJoin`],
/// [`PhysicalPlan::NLJoin`] or [`PhysicalPlan::IndexNLJoin`]).
pub fn run_join(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    match plan {
        PhysicalPlan::HashJoin {
            left,
            right,
            dop,
            spill,
            ..
        } => {
            let lrows = exec.run_physical(left)?;
            let rrows = exec.run_physical(right)?;
            let spec = JoinSpec::compile(exec, plan);
            // Charge the build side before building: the hash table
            // retains every build row (plus key copies). A denial turns
            // the join into a Grace join over spill partitions.
            let res = exec.memory().register("HashJoin build");
            let (build, _) = spec.orient(&lrows, &rrows);
            match place(&res, build.iter().map(Tuple::size_bytes), *dop, *spill)? {
                Placement::Serial => hash_join(exec, &spec, lrows, rrows),
                Placement::Parts(Parts::Workers(n)) => {
                    hash_join_parallel(exec, spec, lrows, rrows, n)
                }
                Placement::Parts(Parts::Spill(n, res)) => {
                    hash_join_spill(exec, &spec, lrows, rrows, n, res)
                }
            }
        }
        PhysicalPlan::NLJoin {
            left,
            right,
            kind,
            condition,
            nl,
            nr,
            out_slots,
            ..
        } => {
            let lrows = exec.run_physical(left)?;
            let rrows = exec.run_physical(right)?;
            nested_loop(
                exec,
                lrows,
                rrows,
                *nl,
                *nr,
                *kind,
                condition.as_ref(),
                out_slots.as_deref(),
            )
        }
        PhysicalPlan::IndexNLJoin { .. } => index_nl_join(exec, plan),
        other => unreachable!("run_join on non-join node {other:?}"),
    }
}

/// Build an output row of a (possibly projected) join.
///
/// `combined` is the already-materialized `left ++ right` row when the
/// residual predicate forced its construction; otherwise the row is built
/// directly from the sides — with a fused projection this picks exactly
/// the projected values and allocates nothing else.
fn emit_row(
    l: &Tuple,
    r: &Tuple,
    nl: usize,
    combined: Option<Tuple>,
    out_slots: Option<&[usize]>,
) -> Tuple {
    match (out_slots, combined) {
        (Some(slots), Some(c)) => c.project(slots),
        (Some(slots), None) => slots
            .iter()
            .map(|&i| {
                if i < nl {
                    l.get(i).clone()
                } else {
                    r.get(i - nl).clone()
                }
            })
            .collect(),
        (None, Some(c)) => c,
        (None, None) => l.concat(r),
    }
}

/// Left-side-only output (semi/anti joins).
fn emit_left(l: &Tuple, out_slots: Option<&[usize]>) -> Tuple {
    match out_slots {
        Some(slots) => l.project(slots),
        None => l.clone(),
    }
}

/// Sentinel wrapper distinguishing "key contains NULL under SQL equality"
/// (never matches) from a NULL-safe key (NULL matches NULL). Single-column
/// keys — the overwhelmingly common case — carry the value inline instead
/// of allocating a vector per row.
#[derive(PartialEq, Eq, Hash)]
enum Key {
    One(Value),
    Many(Vec<Value>),
}

fn build_key(
    exec: &Executor,
    exprs: &[CompiledExpr],
    null_safe: &[bool],
    env: &Env<'_>,
) -> Result<Option<Key>> {
    if let [e] = exprs {
        let v = e.eval(exec, env)?;
        if v.is_null() && !null_safe[0] {
            // SQL equality with NULL never matches: this row joins nothing.
            return Ok(None);
        }
        return Ok(Some(Key::One(v)));
    }
    let mut vals = Vec::with_capacity(exprs.len());
    // no-cancel: bounded by the key arity (a handful of columns per row).
    for (e, &ns) in exprs.iter().zip(null_safe) {
        let v = e.eval(exec, env)?;
        if v.is_null() && !ns {
            return Ok(None);
        }
        vals.push(v);
    }
    Ok(Some(Key::Many(vals)))
}

/// Precomputed key-evaluation plan. The single-`Slot` key — the
/// overwhelmingly common shape after equi-key extraction — reads the
/// value straight out of the row, skipping the per-row `Env` and the
/// compiled-expression dispatch; every other shape falls back to
/// [`build_key`]. A row narrower than the slot also falls back, so the
/// out-of-range error comes from the reference path.
struct KeyBuilder<'e> {
    exprs: &'e [CompiledExpr],
    null_safe: &'e [bool],
    slot: Option<usize>,
}

impl<'e> KeyBuilder<'e> {
    fn new(exprs: &'e [CompiledExpr], null_safe: &'e [bool]) -> KeyBuilder<'e> {
        let slot = match exprs {
            [CompiledExpr::Slot(i)] => Some(*i),
            _ => None,
        };
        KeyBuilder {
            exprs,
            null_safe,
            slot,
        }
    }

    #[inline]
    fn key(&self, exec: &Executor, row: &Tuple, outer: &[Tuple]) -> Result<Option<Key>> {
        if let Some(s) = self.slot {
            if let Some(v) = row.values().get(s) {
                if v.is_null() && !self.null_safe[0] {
                    return Ok(None);
                }
                return Ok(Some(Key::One(v.clone())));
            }
        }
        let env = Env::new(row, outer);
        build_key(exec, self.exprs, self.null_safe, &env)
    }
}

/// Chained hash table over `rows`: one flat `next` array instead of a
/// per-key vector — exactly one hash-map entry per distinct key and no
/// per-row allocation. The map holds each key's `(head, tail)`; new rows
/// append at the tail, so probing walks `next` in input order directly,
/// with no scratch chain vector.
const NIL: usize = usize::MAX;

/// Build-side index: each key's `(head, tail)` chain anchors plus the
/// flat `next` links (see [`build_table`]).
type JoinTable = (FxHashMap<Key, (usize, usize)>, Vec<usize>);

fn build_table(
    exec: &Executor,
    rows: &[Tuple],
    exprs: &[CompiledExpr],
    null_safe: &[bool],
    outer: &[Tuple],
) -> Result<JoinTable> {
    let kb = KeyBuilder::new(exprs, null_safe);
    let mut table: FxHashMap<Key, (usize, usize)> = map_with_capacity(rows.len());
    let mut next: Vec<usize> = vec![NIL; rows.len()];
    for (i, r) in rows.iter().enumerate() {
        // Masked cancellation check per 4096 build rows.
        if i % 4096 == 0 {
            exec.check_cancelled()?;
        }
        if let Some(k) = kb.key(exec, r, outer)? {
            match table.entry(k) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert((i, i));
                }
                std::collections::hash_map::Entry::Occupied(mut o) => {
                    let (_, tail) = *o.get();
                    next[tail] = i;
                    o.get_mut().1 = i;
                }
            }
        }
    }
    Ok((table, next))
}

/// A hash join's plan node, compiled once per execution: key
/// expressions (build side and probe side), residual and output shape.
/// Parallel probe workers share it (parallel joins are sublink-free).
struct JoinSpec {
    kind: JoinType,
    /// Build on the left input. The planner picks this only for inner
    /// joins: the other kinds emit per probe row, which needs the left
    /// side on the probe end.
    build_left: bool,
    nl: usize,
    nr: usize,
    out_slots: Option<Vec<usize>>,
    build: Vec<CompiledExpr>,
    probe: Vec<CompiledExpr>,
    null_safe: Vec<bool>,
    residual: Option<CompiledExpr>,
}

impl JoinSpec {
    fn compile(exec: &Executor, plan: &PhysicalPlan) -> JoinSpec {
        let PhysicalPlan::HashJoin {
            kind,
            keys,
            residual,
            build_side,
            nl,
            nr,
            out_slots,
            ..
        } = plan
        else {
            unreachable!("JoinSpec of non-hash-join node {plan:?}");
        };
        let build_left = matches!(build_side, BuildSide::Left);
        let side = |left: bool| -> Vec<CompiledExpr> {
            keys.iter()
                .map(|k| CompiledExpr::compile(exec, if left { &k.left } else { &k.right }))
                .collect()
        };
        JoinSpec {
            kind: *kind,
            build_left,
            nl: *nl,
            nr: *nr,
            out_slots: out_slots.clone(),
            build: side(build_left),
            probe: side(!build_left),
            null_safe: keys.iter().map(|k| k.null_safe).collect(),
            residual: residual.as_ref().map(|r| CompiledExpr::compile(exec, r)),
        }
    }

    /// `(build, probe)` out of the join's `(left, right)` inputs.
    fn orient<T>(&self, left: T, right: T) -> (T, T) {
        if self.build_left {
            (left, right)
        } else {
            (right, left)
        }
    }

    fn table(&self, exec: &Executor, build: &[Tuple], outer: &[Tuple]) -> Result<JoinTable> {
        build_table(exec, build, &self.build, &self.null_safe, outer)
    }
}

/// The per-row core of every join kernel (hash probe, index probe,
/// nested loop): one input row against its candidate partners.
struct RowJoiner<'a> {
    exec: &'a Executor,
    outer: &'a [Tuple],
    kind: JoinType,
    nl: usize,
    residual: Option<&'a CompiledExpr>,
    out_slots: Option<&'a [usize]>,
    /// NULL padding for an unmatched LEFT/FULL row's right side.
    right_nulls: Tuple,
}

impl RowJoiner<'_> {
    /// Join `row` with each candidate partner the residual accepts: emit
    /// the joined rows (none for SEMI/ANTI; SEMI stops at the first
    /// match) and report each match's partner index to `on_match`; then
    /// emit `row`'s SEMI/ANTI/LEFT/FULL epilogue. With `row_is_left`
    /// false the partners are the left side (a hash join building on the
    /// left, which is inner-only): pairs flip and there is no epilogue.
    fn join_row<R: Borrow<Tuple>>(
        &self,
        row: &Tuple,
        row_is_left: bool,
        partners: impl Iterator<Item = Result<(usize, R)>>,
        mut on_match: impl FnMut(usize),
        mut emit: impl FnMut(Tuple) -> Result<()>,
    ) -> Result<()> {
        let mut matched = false;
        // no-cancel: candidate walk; emission checks the row budget and
        // every caller checks per input-row batch (the nested loop per
        // 4096 pairs, inside `partners`).
        for partner in partners {
            let (i, partner) = partner?;
            let partner = partner.borrow();
            let (l, r) = if row_is_left {
                (row, partner)
            } else {
                (partner, row)
            };
            // The combined row is only materialized when the residual
            // predicate needs an environment to run in.
            let mut combined = None;
            if let Some(pred) = self.residual {
                let c = l.concat(r);
                if pred.eval_bool(self.exec, &Env::new(&c, self.outer))? != Some(true) {
                    continue;
                }
                combined = Some(c);
            }
            matched = true;
            on_match(i);
            match self.kind {
                JoinType::Semi => break,
                JoinType::Anti => {}
                _ => emit(emit_row(l, r, self.nl, combined, self.out_slots))?,
            }
        }
        if row_is_left {
            match self.kind {
                JoinType::Semi if matched => emit(emit_left(row, self.out_slots))?,
                JoinType::Anti if !matched => emit(emit_left(row, self.out_slots))?,
                JoinType::Left | JoinType::Full if !matched => {
                    emit(emit_row(
                        row,
                        &self.right_nulls,
                        self.nl,
                        None,
                        self.out_slots,
                    ))?;
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// The hash-join kernel: one probe row against a build table. Every hash
/// join path runs it — serial with either build side, each morsel of the
/// parallel probe, each Grace partition of the spilled join.
struct Prober<'a> {
    joiner: RowJoiner<'a>,
    build_left: bool,
    keys: KeyBuilder<'a>,
    table: &'a JoinTable,
    build: &'a [Tuple],
}

impl<'a> Prober<'a> {
    fn new(
        exec: &'a Executor,
        outer: &'a [Tuple],
        spec: &'a JoinSpec,
        table: &'a JoinTable,
        build: &'a [Tuple],
    ) -> Prober<'a> {
        Prober {
            joiner: RowJoiner {
                exec,
                outer,
                kind: spec.kind,
                nl: spec.nl,
                residual: spec.residual.as_ref(),
                out_slots: spec.out_slots.as_deref(),
                right_nulls: Tuple::nulls(spec.nr),
            },
            build_left: spec.build_left,
            keys: KeyBuilder::new(&spec.probe, &spec.null_safe),
            table,
            build,
        }
    }

    /// Probe with `p`: emit its output rows, oriented `left ++ right`;
    /// mark the build rows it matched in `build_matched` (FULL joins;
    /// empty otherwise).
    fn probe_row(
        &self,
        p: &Tuple,
        build_matched: &mut [bool],
        emit: impl FnMut(Tuple) -> Result<()>,
    ) -> Result<()> {
        let (exec, outer) = (self.joiner.exec, self.joiner.outer);
        let head = match self.keys.key(exec, p, outer)? {
            Some(key) => self.table.0.get(&key).map(|&(head, _)| head),
            None => None,
        };
        // The key's chain, in build order.
        let next = |&b: &usize| Some(self.table.1[b]).filter(|&n| n != NIL);
        let partners = std::iter::successors(head, next).map(|b| Ok((b, &self.build[b])));
        let mark = |b: usize| {
            if let Some(m) = build_matched.get_mut(b) {
                *m = true;
            }
        };
        self.joiner
            .join_row(p, !self.build_left, partners, mark, emit)
    }
}

fn hash_join(
    exec: &Executor,
    spec: &JoinSpec,
    lrows: Vec<Tuple>,
    rrows: Vec<Tuple>,
) -> Result<Vec<Tuple>> {
    let outer = exec.outer_stack();
    let (build, probe) = spec.orient(&lrows, &rrows);
    let table = spec.table(exec, build, &outer)?;
    let prober = Prober::new(exec, &outer, spec, &table, build);
    let is_full = matches!(spec.kind, JoinType::Full);
    let mut build_matched = vec![false; if is_full { build.len() } else { 0 }];
    let mut out = Vec::with_capacity(probe.len());
    for (pi, p) in probe.iter().enumerate() {
        // Masked cancellation check per 4096 probe rows.
        if pi % 4096 == 0 {
            exec.check_cancelled()?;
        }
        prober.probe_row(p, &mut build_matched, |t| {
            out.push(t);
            exec.check_row_budget(out.len())
        })?;
    }
    if is_full {
        pad_unmatched_right(
            exec,
            build,
            &build_matched,
            spec.nl,
            spec.out_slots.as_deref(),
            &mut out,
        )?;
    }
    Ok(out)
}

/// Parallel hash join: the build phase runs on the calling thread (the
/// planner put the smaller input there), then probe rows are claimed in
/// morsels by worker threads against the shared read-only table. Morsel
/// outputs concatenate in morsel order, so the result — including LEFT
/// null padding and SEMI/ANTI row selection — is exactly the serial one.
///
/// FULL joins track build-side matches *across* probe rows and are never
/// handed a `dop > 1` by the planner.
fn hash_join_parallel(
    exec: &Executor,
    spec: JoinSpec,
    lrows: Vec<Tuple>,
    rrows: Vec<Tuple>,
    dop: usize,
) -> Result<Vec<Tuple>> {
    debug_assert!(
        !matches!(spec.kind, JoinType::Full),
        "FULL joins stay serial"
    );
    let outer = exec.outer_stack();
    let (build, probe) = spec.orient(lrows, rrows);
    let table = spec.table(exec, &build, &outer)?;
    probe_in_morsels(exec, dop, probe.len(), move |sub, range, done_elsewhere| {
        let prober = Prober::new(sub, &outer, &spec, &table, &build);
        let mut out = Vec::new();
        // no-cancel: morsel body (≤ MORSEL_ROWS rows); map_morsels checks
        // per claim.
        for p in &probe[range] {
            prober.probe_row(p, &mut [], |t| {
                out.push(t);
                sub.check_row_budget(done_elsewhere + out.len())
            })?;
        }
        Ok(out)
    })
}

/// The morsel loop of both parallel joins: probe rows `0..total` in
/// morsels on `dop` workers, each with its own executor over the catalog
/// snapshot, and concatenate the outputs in morsel order — the serial
/// order. `probe(sub, morsel, done_elsewhere)` also gets the rows emitted
/// by completed morsels: each worker checks its local output against the
/// budget minus everyone else's, so a runaway join aborts incrementally
/// like the serial loop does instead of after the full result
/// materialized.
fn probe_in_morsels<F>(exec: &Executor, dop: usize, total: usize, probe: F) -> Result<Vec<Tuple>>
where
    F: Fn(&Executor, Range<usize>, usize) -> Result<Vec<Tuple>> + Send + Sync + 'static,
{
    let catalog = exec.catalog_arc();
    let ctx = exec.context().clone();
    let emitted = AtomicUsize::new(0);
    let parts = map_morsels(exec.context(), dop, total, move |range| {
        let sub = Executor::new(Arc::clone(&catalog)).with_context(ctx.clone());
        let out = probe(&sub, range, emitted.load(Ordering::Relaxed))?;
        emitted.fetch_add(out.len(), Ordering::Relaxed);
        Ok(out)
    })?;
    let out = concat(parts);
    exec.check_row_budget(out.len())?;
    Ok(out)
}

/// Grace hash join over spill partitions — the fallback when the build
/// side's reservation is denied. Both sides scatter to disk by key hash
/// (equal keys colocate) tagged with their input position; each
/// partition builds its table and runs the probe kernel, and the
/// partitioner merges the output by probe position (within one probe
/// row, emissions already occur in serial candidate order). Only a
/// partition's build rows are held, charged to the query cap; its probe
/// rows stream from disk.
///
/// Error ordering also matches the serial path. Build-key errors surface
/// during the build scatter, in build-row order, before any probe work —
/// exactly when the in-memory build loop raises them. A probe-side
/// key error at row `j` stops the probe scatter but lets the partitions
/// (holding only rows before `j`) run: a residual error at an earlier
/// probe row beats it, and across partitions the smallest probe position
/// wins.
///
/// FULL joins track unmatched build rows across the whole build side and
/// are planned with `spill: None`; they never reach this path.
fn hash_join_spill(
    exec: &Executor,
    spec: &JoinSpec,
    lrows: Vec<Tuple>,
    rrows: Vec<Tuple>,
    parts: usize,
    res: &MemoryReservation,
) -> Result<Vec<Tuple>> {
    debug_assert!(
        !matches!(spec.kind, JoinType::Full),
        "FULL joins never spill"
    );
    let ctx = exec.context();
    let outer = exec.outer_stack();
    let (build, probe) = spec.orient(lrows, rrows);
    let route = |keys: &KeyBuilder<'_>, t: &Tuple| -> Result<Option<usize>> {
        Ok(keys.key(exec, t, &outer)?.map(|k| partition_of(&k, parts)))
    };
    let mut spilled = Spilled::new(parts, res);
    // Build rows whose key is NULL under plain equality match nothing,
    // and for non-FULL joins an unmatched build row is never emitted:
    // the route drops them.
    let build_keys = KeyBuilder::new(&spec.build, &spec.null_safe);
    if let Some((_, e)) = spilled.scatter(ctx, build, 0, |t| route(&build_keys, t))? {
        return Err(e);
    }
    // NULL-key probe rows match nothing but still drive the LEFT/ANTI
    // epilogue, so they land in partition 0 (any partition works) —
    // except when the build side is the left one: that is
    // inner-join-only, no epilogue.
    let probe_keys = KeyBuilder::new(&spec.probe, &spec.null_safe);
    let null_key_part = (!spec.build_left).then_some(0);
    let key_err = spilled.scatter(ctx, probe, 0, |t| {
        Ok(route(&probe_keys, t)?.or(null_key_part))
    })?;
    let mut emitted = 0usize;
    spilled.run(ctx, key_err, |[build_rows, probe], mem| {
        // Build rows read back in build order, so per-key chains match the
        // in-memory table's.
        let mut build = Vec::with_capacity(build_rows.size_hint().0);
        for (i, rec) in build_rows.enumerate() {
            // Masked cancellation check per 4096 reloaded rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let (_, t) = rec?;
            mem.keep(|| t.size_bytes())?;
            build.push(t);
        }
        // Re-evaluates (deterministic) keys that already succeeded during
        // the scatter.
        let table = spec.table(exec, &build, &outer)?;
        let prober = Prober::new(exec, &outer, spec, &table, &build);
        let mut out = Vec::new();
        for (i, rec) in probe.enumerate() {
            // Masked cancellation check per 4096 probe rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let (j, p) = rec?;
            let probed = prober.probe_row(&p, &mut [], |t| {
                out.push((j, t));
                exec.check_row_budget(emitted + out.len())
            });
            if let Err(e) = probed {
                return Ok(Err((j, e)));
            }
        }
        emitted += out.len();
        Ok(Ok(out))
    })
}

/// Index nested-loop join. Serial execution runs [`index_probe`] over
/// every outer row; parallel execution runs it over morsels of the outer
/// rows, sharing the compiled probe and the index, and concatenates in
/// morsel order — the serial output.
fn index_nl_join(exec: &Executor, plan: &PhysicalPlan) -> Result<Vec<Tuple>> {
    let PhysicalPlan::IndexNLJoin {
        outer: outer_plan,
        kind,
        table,
        schema,
        column,
        key,
        inner_filter,
        inner_project,
        residual,
        nl,
        out_slots,
        dop,
        ..
    } = plan
    else {
        unreachable!("index_nl_join on non-INLJ node");
    };
    let lrows = exec.run_physical(outer_plan)?;
    check_scan_schema(exec.catalog().table(table)?, table, schema)?;
    let outer = exec.outer_stack();
    let compile = |e| CompiledExpr::compile(exec, e);
    let probe = IndexProbe {
        kind: *kind,
        table: table.clone(),
        column: *column,
        key: compile(key),
        inner_filter: inner_filter.as_ref().map(compile),
        inner_project: inner_project.clone(),
        residual: residual.as_ref().map(compile),
        nl: *nl,
        inner_width: inner_project.as_ref().map_or(schema.len(), Vec::len),
        out_slots: out_slots.clone(),
    };
    if *dop <= 1 {
        return index_probe(exec, &probe, &outer, &lrows, 0);
    }
    probe_in_morsels(
        exec,
        *dop,
        lrows.len(),
        move |sub, range, done_elsewhere| {
            index_probe(sub, &probe, &outer, &lrows[range], done_elsewhere)
        },
    )
}

/// An index nested-loop join's plan node without its outer input,
/// compiled once per execution (parallel joins are sublink-free, so
/// parallel probe workers share it).
struct IndexProbe {
    kind: JoinType,
    table: String,
    /// Indexed base-table column probed per outer row.
    column: usize,
    key: CompiledExpr,
    inner_filter: Option<CompiledExpr>,
    inner_project: Option<Vec<usize>>,
    residual: Option<CompiledExpr>,
    nl: usize,
    /// Width of the inner *output* row (after the fused projection).
    inner_width: usize,
    out_slots: Option<Vec<usize>>,
}

/// The index-probe kernel: for each outer row, evaluate the key
/// expression and probe the inner table's hash index; apply the fused
/// inner filter/projection and the residual condition to each candidate.
/// `budget_base` counts rows already emitted elsewhere.
fn index_probe(
    exec: &Executor,
    probe: &IndexProbe,
    outer: &[Tuple],
    rows: &[Tuple],
    budget_base: usize,
) -> Result<Vec<Tuple>> {
    let t = exec.catalog().table(&probe.table)?;
    let index = t.index_on(probe.column);
    let joiner = RowJoiner {
        exec,
        outer,
        kind: probe.kind,
        nl: probe.nl,
        residual: probe.residual.as_ref(),
        out_slots: probe.out_slots.as_deref(),
        right_nulls: Tuple::nulls(probe.inner_width),
    };
    // Fallback candidates when the index vanished since planning: a
    // linear scan comparing the probe key (same semantics, slower).
    let mut linear: Vec<usize> = Vec::new();

    let mut out = Vec::new();
    for (pi, l) in rows.iter().enumerate() {
        // Masked cancellation check per 4096 outer rows.
        if pi % 4096 == 0 {
            exec.check_cancelled()?;
        }
        let key_val = probe.key.eval(exec, &Env::new(l, outer))?;
        let candidates: &[usize] = match index {
            _ if key_val.is_null() => &[],
            Some(idx) => idx.lookup(&key_val),
            None => {
                linear.clear();
                // no-cancel: index-vanished fallback scan; the outer
                // loop checks per row batch.
                for (i, row) in t.rows().iter().enumerate() {
                    let v = row.get(probe.column);
                    if !v.is_null() && v == &key_val {
                        linear.push(i);
                    }
                }
                &linear
            }
        };
        // The fused inner filter and projection turn candidates into
        // partners, lazily: a SEMI match stops the walk.
        let partners = candidates.iter().filter_map(|&ri| {
            let base = &t.rows()[ri];
            if let Some(f) = &probe.inner_filter {
                match f.eval_bool(exec, &Env::new(base, outer)) {
                    Ok(Some(true)) => {}
                    Ok(_) => return None,
                    Err(e) => return Some(Err(e)),
                }
            }
            let inner = match &probe.inner_project {
                Some(slots) => base.project(slots),
                None => base.clone(),
            };
            Some(Ok((ri, inner)))
        });
        let emit = |row| {
            out.push(row);
            exec.check_row_budget(budget_base + out.len())
        };
        joiner.join_row(l, true, partners, |_| {}, emit)?;
    }
    Ok(out)
}

/// FULL join epilogue: the right rows no left row matched, padded with
/// NULLs on the left.
fn pad_unmatched_right(
    exec: &Executor,
    rrows: &[Tuple],
    matched: &[bool],
    nl: usize,
    out_slots: Option<&[usize]>,
    out: &mut Vec<Tuple>,
) -> Result<()> {
    let left_nulls = Tuple::nulls(nl);
    for (i, r) in rrows.iter().enumerate() {
        // Masked cancellation check per 4096 epilogue rows.
        if i % 4096 == 0 {
            exec.check_cancelled()?;
        }
        if !matched[i] {
            out.push(emit_row(&left_nulls, r, nl, None, out_slots));
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn nested_loop(
    exec: &Executor,
    lrows: Vec<Tuple>,
    rrows: Vec<Tuple>,
    nl: usize,
    nr: usize,
    kind: JoinType,
    condition: Option<&ScalarExpr>,
    out_slots: Option<&[usize]>,
) -> Result<Vec<Tuple>> {
    let outer = exec.outer_stack();
    let condition = condition.map(|c| CompiledExpr::compile(exec, c));
    let joiner = RowJoiner {
        exec,
        outer: &outer,
        kind,
        nl,
        residual: condition.as_ref(),
        out_slots,
        right_nulls: Tuple::nulls(nr),
    };
    let mut right_matched = vec![false; rrows.len()];
    let mut out = Vec::new();
    let mut pairs = 0usize;
    for l in &lrows {
        // Masked cancellation check per 4096 evaluated pairs (the
        // partner walk advances the same counter, so the quadratic worst
        // case still observes cancellation promptly).
        if pairs.is_multiple_of(4096) {
            exec.check_cancelled()?;
        }
        let partners = rrows.iter().enumerate().map(|(ri, r)| {
            if pairs.is_multiple_of(4096) {
                exec.check_cancelled()?;
            }
            pairs += 1;
            Ok((ri, r))
        });
        let emit = |row| {
            out.push(row);
            exec.check_row_budget(out.len())
        };
        joiner.join_row(l, true, partners, |ri| right_matched[ri] = true, emit)?;
    }
    if matches!(kind, JoinType::Full) {
        pad_unmatched_right(exec, &rrows, &right_matched, nl, out_slots, &mut out)?;
    }
    Ok(out)
}
