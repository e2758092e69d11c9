//! Hash aggregation with SQL NULL semantics, `DISTINCT` aggregates and the
//! `any_value` leniency aggregate.
//!
//! In **annotate mode** (`annotate: Some(columns)`, the lowering of
//! [`perm_algebra::plan::LogicalPlan::AggregateAnnotate`]) the operator
//! emits one row per input row instead of one per group: the row's group
//! key and aggregate values, then its `columns`. The same kernel runs
//! once over the input and records each row's group id; the rows are
//! emitted after the groups are finished. Serial, parallel and spilled
//! runs all emit in input order.

use std::borrow::Borrow;
use std::sync::Arc;

use perm_types::hash::{FxHashMap, FxHashSet};
use perm_types::ops;
use perm_types::{PermError, QueryContext, Result, Tuple, Value};

use perm_algebra::expr::{AggCall, AggFunc, ScalarExpr};

use super::partition::{partition_of, place, Parts, Placement, Retained, Spilled, TaggedError};
use crate::compile::{CompiledExpr, CompiledProjection};
use crate::eval::Env;
use crate::executor::Executor;
use crate::memory::MemoryReservation;
use crate::parallel::map_chunks;
use crate::physical::PhysicalPlan;

/// Running state of one aggregate within one group.
enum AggState {
    Count(i64),
    /// sum and avg share the accumulator. Integer inputs accumulate
    /// exactly in `int_total` (an `i128`, so any realistic number of
    /// `i64`s sums without precision loss); float inputs go to
    /// `float_total`. Only a genuine overflow — or a float input —
    /// promotes the result to `Float`.
    Sum {
        int_total: i128,
        float_total: f64,
        /// A float input was seen: the result is typed `Float`.
        float_seen: bool,
        /// `int_total` overflowed i128 and was folded into `float_total`.
        int_overflow: bool,
        seen: i64,
        avg: bool,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
    AnyValue(Option<Value>),
}

impl AggState {
    fn new(call: &AggCall) -> AggState {
        match call.func {
            AggFunc::Count => AggState::Count(0),
            AggFunc::Sum => AggState::Sum {
                int_total: 0,
                float_total: 0.0,
                float_seen: false,
                int_overflow: false,
                seen: 0,
                avg: false,
            },
            AggFunc::Avg => AggState::Sum {
                int_total: 0,
                float_total: 0.0,
                float_seen: true,
                int_overflow: false,
                seen: 0,
                avg: true,
            },
            AggFunc::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggFunc::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
            AggFunc::AnyValue => AggState::AnyValue(None),
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<()> {
        match self {
            AggState::Count(c) => {
                // count(*) gets v = None (counts rows); count(x) skips NULL.
                match v {
                    None => *c += 1,
                    Some(x) if !x.is_null() => *c += 1,
                    Some(_) => {}
                }
            }
            AggState::Sum {
                int_total,
                float_total,
                float_seen,
                int_overflow,
                seen,
                ..
            } => {
                // INVARIANT: the binder rejects argument-less SUM/AVG.
                let x = v.expect("sum/avg have an argument");
                if x.is_null() {
                    return Ok(());
                }
                match x {
                    Value::Int(i) => {
                        if *int_overflow {
                            *float_total += *i as f64;
                        } else {
                            match int_total.checked_add(i128::from(*i)) {
                                Some(t) => *int_total = t,
                                None => {
                                    // ~2^64 max-magnitude inputs needed;
                                    // degrade to float rather than error.
                                    *int_overflow = true;
                                    *float_total += *int_total as f64 + *i as f64;
                                    *int_total = 0;
                                }
                            }
                        }
                    }
                    Value::Float(f) => {
                        *float_total += f;
                        *float_seen = true;
                    }
                    other => {
                        return Err(PermError::Value(format!(
                            "sum/avg over non-numeric value {other}"
                        )))
                    }
                }
                *seen += 1;
            }
            AggState::MinMax { best, is_min } => {
                // INVARIANT: the binder rejects argument-less MIN/MAX.
                let x = v.expect("min/max have an argument");
                if x.is_null() {
                    return Ok(());
                }
                match best {
                    None => *best = Some(x.clone()),
                    Some(b) => {
                        if let Some(ord) = ops::sql_compare(x, b)? {
                            let better = if *is_min {
                                ord == std::cmp::Ordering::Less
                            } else {
                                ord == std::cmp::Ordering::Greater
                            };
                            if better {
                                *best = Some(x.clone());
                            }
                        }
                    }
                }
            }
            AggState::AnyValue(slot) => {
                // INVARIANT: the binder rejects argument-less ANY_VALUE.
                let x = v.expect("any_value has an argument");
                if slot.is_none() && !x.is_null() {
                    *slot = Some(x.clone());
                }
            }
        }
        Ok(())
    }

    /// Fold `other` — the partial state of a *later* contiguous input
    /// chunk — into `self`. Comparisons keep the (new value, running
    /// best) argument order of [`AggState::update`], so a type-mismatch
    /// error surfaces the same way serial execution raises it. Float
    /// sums re-associate (partial sums add once per chunk instead of
    /// once per row), the standard parallel-aggregation trade.
    fn merge(&mut self, other: AggState) -> Result<()> {
        match other {
            // A later chunk's running best (or first value) is one more
            // input to this state.
            AggState::MinMax { best: Some(x), .. } | AggState::AnyValue(Some(x)) => {
                return self.update(Some(&x))
            }
            AggState::MinMax { best: None, .. } | AggState::AnyValue(None) => return Ok(()),
            _ => {}
        }
        match (self, other) {
            (AggState::Count(a), AggState::Count(b)) => *a += b,
            (
                AggState::Sum {
                    int_total,
                    float_total,
                    float_seen,
                    int_overflow,
                    seen,
                    ..
                },
                AggState::Sum {
                    int_total: bt,
                    float_total: bft,
                    float_seen: bfs,
                    int_overflow: bio,
                    seen: bsn,
                    ..
                },
            ) => {
                *float_total += bft;
                *float_seen |= bfs;
                *seen += bsn;
                if *int_overflow || bio {
                    // Either side already degraded to float: fold both
                    // integer remainders in and stay degraded.
                    *float_total += *int_total as f64 + bt as f64;
                    *int_total = 0;
                    *int_overflow = true;
                } else {
                    match int_total.checked_add(bt) {
                        Some(t) => *int_total = t,
                        None => {
                            *int_overflow = true;
                            *float_total += *int_total as f64 + bt as f64;
                            *int_total = 0;
                        }
                    }
                }
            }
            _ => unreachable!("merging mismatched aggregate states"),
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(c) => Value::Int(c),
            AggState::Sum {
                int_total,
                float_total,
                float_seen,
                int_overflow,
                seen,
                avg,
            } => {
                if seen == 0 {
                    return Value::Null;
                }
                let total = int_total as f64 + float_total;
                if avg {
                    Value::Float(total / seen as f64)
                } else if float_seen || int_overflow {
                    Value::Float(total)
                } else if let Ok(exact) = i64::try_from(int_total) {
                    // Pure integer sum: exact, no f64 round-trip.
                    Value::Int(exact)
                } else {
                    // Genuine i64 overflow: promote to Float.
                    Value::Float(int_total as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
            AggState::AnyValue(slot) => slot.unwrap_or(Value::Null),
        }
    }
}

/// One group's accumulators plus per-aggregate DISTINCT filters (empty
/// when no aggregate is DISTINCT).
struct GroupState {
    states: Vec<AggState>,
    distinct_seen: Vec<Option<FxHashSet<Value>>>,
}

impl GroupState {
    fn new(calls: &[AggCall]) -> GroupState {
        // Without DISTINCT aggregates the filter list stays empty (no
        // allocation per group).
        let distinct_seen = if calls.iter().any(|c| c.distinct) {
            calls
                .iter()
                .map(|c| c.distinct.then(FxHashSet::default))
                .collect()
        } else {
            Vec::new()
        };
        GroupState {
            states: calls.iter().map(AggState::new).collect(),
            distinct_seen,
        }
    }
}

/// A group's hash key. Single-expression `GROUP BY` — the common case —
/// keys on the bare [`Value`], skipping the per-row `Tuple` allocation
/// the general shape pays.
#[derive(PartialEq, Eq, Hash, Clone)]
enum GroupKey {
    One(Value),
    Many(Tuple),
}

/// Compiled group-key plan matching [`GroupKey`]'s two shapes.
enum KeyPlan {
    One(CompiledExpr),
    Many(CompiledProjection),
}

impl KeyPlan {
    fn compile(exec: &Executor, group_by: &[ScalarExpr]) -> KeyPlan {
        if let [e] = group_by {
            KeyPlan::One(CompiledExpr::compile(exec, e))
        } else {
            KeyPlan::Many(CompiledProjection::compile(exec, group_by))
        }
    }

    #[inline]
    fn apply(&self, exec: &Executor, env: &Env<'_>) -> Result<GroupKey> {
        match self {
            KeyPlan::One(e) => Ok(GroupKey::One(e.eval(exec, env)?)),
            KeyPlan::Many(p) => Ok(GroupKey::Many(p.apply(exec, env)?)),
        }
    }
}

/// Partial aggregation state over part of the input: each group's id —
/// its position in first-appearance order — and accumulators, plus each
/// group's first tag, indexed by id.
#[derive(Default)]
struct AggPartial {
    groups: FxHashMap<GroupKey, (usize, GroupState)>,
    first_tags: Vec<u64>,
}

impl AggPartial {
    /// The groups in first-appearance order, each with its first tag. The
    /// hash table drains straight into id order: no key is hashed again.
    fn into_ordered(self) -> impl Iterator<Item = (u64, GroupKey, GroupState)> {
        let mut slots: Vec<Option<(GroupKey, GroupState)>> = std::iter::repeat_with(|| None)
            .take(self.first_tags.len())
            .collect();
        // no-cancel: reordering of already-computed group states.
        for (key, (id, state)) in self.groups {
            slots[id] = Some((key, state));
        }
        self.first_tags.into_iter().zip(slots).map(|(tag, slot)| {
            // INVARIANT: ids are exactly 0..first_tags.len(), one per group.
            let (key, state) = slot.expect("every id has a group");
            (tag, key, state)
        })
    }
}

impl GroupKey {
    /// The bytes a group holds: its key plus its accumulators.
    fn state_bytes(&self, aggs: &[AggCall]) -> usize {
        let key = match self {
            GroupKey::One(v) => v.size_bytes(),
            GroupKey::Many(t) => t.size_bytes(),
        };
        key + 32 * aggs.len().max(1)
    }
}

/// The aggregation kernel: accumulate `(tag, row)` pairs, in tag order,
/// into a fresh partial, charging each new group's state to `mem`, and
/// push each row's group id to `ids` when given (annotate mode).
/// Shared by the serial path, every parallel chunk worker and every
/// spilled partition. A row's evaluation error comes back tagged with its
/// row (rows after it are not accumulated); an `Err` is a read,
/// cancellation or memory-cap failure.
fn accumulate<T: Borrow<Tuple>>(
    exec: &Executor,
    rows: impl Iterator<Item = Result<(u64, T)>>,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    outer: &[Tuple],
    mem: &mut Retained<'_>,
    mut ids: Option<&mut Vec<usize>>,
) -> Result<std::result::Result<AggPartial, TaggedError>> {
    // Group-by keys and aggregate arguments are compiled once, evaluated
    // per row (plain-column group keys build by direct slot copy).
    let group_c = KeyPlan::compile(exec, group_by);
    let arg_c: Vec<Option<CompiledExpr>> = aggs
        .iter()
        .map(|call| call.arg.as_ref().map(|e| CompiledExpr::compile(exec, e)))
        .collect();

    // Group order: first appearance (deterministic output for tests; final
    // ordering comes from ORDER BY anyway).
    let mut partial = AggPartial::default();
    for (ri, rec) in rows.enumerate() {
        // Masked cancellation check per 4096 accumulated rows.
        if ri % 4096 == 0 {
            exec.check_cancelled()?;
        }
        let (tag, t) = rec?;
        let env = Env::new(t.borrow(), outer);
        let key = match group_c.apply(exec, &env) {
            Ok(key) => key,
            Err(e) => return Ok(Err((tag, e))),
        };
        // One hash per row: the entry API probes once.
        let (id, state) = match partial.groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                mem.keep(|| v.key().state_bytes(aggs))?;
                let id = partial.first_tags.len();
                partial.first_tags.push(tag);
                v.insert((id, GroupState::new(aggs)))
            }
        };
        if let Some(ids) = ids.as_deref_mut() {
            ids.push(*id);
        }
        if let Err(e) = update(exec, state, &arg_c, &env) {
            return Ok(Err((tag, e)));
        }
    }
    Ok(Ok(partial))
}

/// Feed one row's aggregate arguments to its group's accumulators.
#[inline]
fn update(
    exec: &Executor,
    state: &mut GroupState,
    arg_c: &[Option<CompiledExpr>],
    env: &Env<'_>,
) -> Result<()> {
    // no-cancel: bounded by the aggregate-call count.
    for (i, arg_expr) in arg_c.iter().enumerate() {
        let arg = match arg_expr {
            Some(e) => Some(e.eval(exec, env)?),
            None => None,
        };
        if let (Some(Some(seen)), Some(v)) = (state.distinct_seen.get_mut(i), &arg) {
            if v.is_null() || !seen.insert(v.clone()) {
                continue; // duplicate (or NULL) under DISTINCT
            }
        }
        state.states[i].update(arg.as_ref())?;
    }
    Ok(())
}

/// Fold `later` (a strictly later contiguous chunk) into `into`. New
/// groups append in `later`'s first-appearance order, so the merged
/// order is global first-appearance order — exactly the serial order.
/// Returns each of `later`'s group ids translated to its id in `into`.
fn merge_partials(into: &mut AggPartial, later: AggPartial) -> Result<Vec<usize>> {
    let mut remap = Vec::with_capacity(later.first_tags.len());
    // no-cancel: merge of already-computed partial states.
    for (tag, key, state) in later.into_ordered() {
        match into.groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let (id, target) = e.into_mut();
                debug_assert!(
                    state.distinct_seen.iter().all(Option::is_none),
                    "DISTINCT aggregates are planned serial"
                );
                // no-cancel: bounded by the aggregate-call count.
                for (t, s) in target.states.iter_mut().zip(state.states) {
                    t.merge(s)?;
                }
                remap.push(*id);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                let id = into.first_tags.len();
                into.first_tags.push(tag);
                v.insert((id, state));
                remap.push(id);
            }
        }
    }
    Ok(remap)
}

/// Turn a partial into output rows, emitted in group order with each
/// group's first tag.
fn finish(
    mut partial: AggPartial,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    mut emit: impl FnMut(u64, Tuple),
) {
    // A global aggregate over an empty input still yields one row.
    if group_by.is_empty() && partial.first_tags.is_empty() {
        partial.first_tags.push(0);
        let empty_key = GroupKey::Many(Tuple::empty());
        partial.groups.insert(empty_key, (0, GroupState::new(aggs)));
    }
    // no-cancel: output assembly from already-computed group states.
    for (tag, key, state) in partial.into_ordered() {
        let finished = state.states.into_iter().map(AggState::finish);
        let row = match key {
            GroupKey::One(v) => std::iter::once(v).chain(finished).collect(),
            GroupKey::Many(t) => t.iter().cloned().chain(finished).collect(),
        };
        emit(tag, row);
    }
}

/// Annotate mode's output: each input row's group values (`groups`,
/// indexed by group id) followed by its `annotate` columns. A global
/// aggregate over an empty input emits its one group with NULL annotate
/// columns, as the join-back's outer join does.
fn annotate_rows<'t>(
    ctx: &QueryContext,
    groups: &[Tuple],
    rows: impl Iterator<Item = &'t Tuple>,
    ids: &[usize],
    annotate: &[usize],
) -> Result<Vec<Tuple>> {
    let mut out = Vec::with_capacity(ids.len().max(1));
    for (i, (row, &id)) in rows.zip(ids).enumerate() {
        // Masked cancellation check per 4096 emitted rows.
        if i % 4096 == 0 {
            ctx.check()?;
        }
        out.push(annotate_row(&groups[id], row, annotate));
    }
    if ids.is_empty() && groups.len() == 1 {
        let nulls = std::iter::repeat_n(Value::Null, annotate.len());
        out.push(groups[0].iter().cloned().chain(nulls).collect());
    }
    Ok(out)
}

/// [`annotate_rows`] over `dop` contiguous chunks of a non-empty input,
/// each built on a pool worker; chunks concatenate in input order.
fn annotate_parallel(
    ctx: &QueryContext,
    dop: usize,
    groups: Vec<Tuple>,
    rows: Arc<Vec<Tuple>>,
    ids: Vec<usize>,
    annotate: &[usize],
) -> Result<Vec<Tuple>> {
    let total = rows.len();
    let shared = Arc::new((groups, ids, annotate.to_vec()));
    let worker_ctx = ctx.clone();
    let parts = map_chunks(ctx, dop, total, move |range| {
        let (groups, ids, annotate) = &*shared;
        let rows = rows[range.clone()].iter();
        annotate_rows(&worker_ctx, groups, rows, &ids[range], annotate)
    })?;
    let mut out = Vec::with_capacity(total);
    // no-cancel: concatenation of already-built chunks, bounded by dop.
    for part in parts {
        out.extend(part);
    }
    Ok(out)
}

/// One annotated row: `group` (key and aggregate values), then `row`'s
/// `annotate` columns, built in a single allocation.
#[inline]
fn annotate_row(group: &Tuple, row: &Tuple, annotate: &[usize]) -> Tuple {
    group
        .iter()
        .cloned()
        .chain(annotate.iter().map(|&a| row.get(a).clone()))
        .collect()
}

/// The finished groups of `partial`, indexed by group id.
fn finish_groups(partial: AggPartial, group_by: &[ScalarExpr], aggs: &[AggCall]) -> Vec<Tuple> {
    let mut groups = Vec::with_capacity(partial.first_tags.len().max(1));
    finish(partial, group_by, aggs, |_, t| groups.push(t));
    groups
}

/// Run a hash aggregation: one row per group, or — in annotate mode —
/// one row per input row carrying its `annotate` columns.
pub fn run_aggregate(
    exec: &Executor,
    input: &PhysicalPlan,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    annotate: Option<&[usize]>,
    dop: usize,
    spill: Option<usize>,
) -> Result<Vec<Tuple>> {
    let rows = exec.run_physical(input)?;
    let outer = exec.outer_stack();

    // Global aggregates keep O(1) state regardless of input size:
    // nothing to charge, nothing to spill. Grouped aggregation charges
    // the input bytes — the hash table's keys and states are bounded by
    // them — and a denial switches to the partitioned on-disk path.
    let charged = if group_by.is_empty() {
        &[][..]
    } else {
        &rows[..]
    };
    let res = exec.memory().register("HashAggregate");
    // The operator's output from the merged partial and, in annotate
    // mode, each input row's group id.
    let emit = |partial: AggPartial, ids: &[usize], rows: &[Tuple]| {
        let groups = finish_groups(partial, group_by, aggs);
        match annotate {
            Some(cols) => annotate_rows(exec.context(), &groups, rows.iter(), ids, cols),
            None => Ok(groups),
        }
    };
    match place(&res, charged.iter().map(Tuple::size_bytes), dop, spill)? {
        Placement::Serial => {
            let tagged = (0..).zip(&rows).map(Ok);
            let mut ids = Vec::new();
            let partial = accumulate(
                exec,
                tagged,
                group_by,
                aggs,
                &outer,
                &mut Retained::default(),
                annotate.is_some().then_some(&mut ids),
            )?
            .map_err(|(_, e)| e)?;
            emit(partial, &ids, &rows)
        }
        Placement::Parts(Parts::Workers(n)) => {
            // Chunk-parallel: each worker accumulates one contiguous
            // chunk into a private hash table; partials merge in chunk
            // order, and each chunk's group ids are translated to the
            // merged numbering.
            let catalog = exec.catalog_arc();
            let total = rows.len();
            let shared = Arc::new(rows);
            let chunk_rows = Arc::clone(&shared);
            let owned: Arc<(Vec<ScalarExpr>, Vec<AggCall>)> =
                Arc::new((group_by.to_vec(), aggs.to_vec()));
            let ctx = exec.context().clone();
            let with_ids = annotate.is_some();
            let chunks = map_chunks(exec.context(), n, total, move |range| {
                let sub = Executor::new(Arc::clone(&catalog)).with_context(ctx.clone());
                let tagged = (range.start as u64..).zip(&chunk_rows[range]).map(Ok);
                let (group_by, aggs) = (&owned.0, &owned.1);
                let mut ids = Vec::new();
                let partial = accumulate(
                    &sub,
                    tagged,
                    group_by,
                    aggs,
                    &outer,
                    &mut Retained::default(),
                    with_ids.then_some(&mut ids),
                )?
                .map_err(|(_, e)| e)?;
                Ok((partial, ids))
            })?;
            let mut chunks = chunks.into_iter();
            let (mut acc, mut ids) = chunks.next().unwrap_or_default();
            // no-cancel: merge of already-computed partials, bounded by
            // dop.
            for (p, chunk_ids) in chunks {
                let remap = merge_partials(&mut acc, p)?;
                ids.extend(chunk_ids.into_iter().map(|id| remap[id]));
            }
            match annotate {
                // Annotated rows are built on the chunk workers again.
                Some(cols) if total > 0 => {
                    let groups = finish_groups(acc, group_by, aggs);
                    annotate_parallel(exec.context(), n, groups, shared, ids, cols)
                }
                _ => emit(acc, &ids, &shared),
            }
        }
        Placement::Parts(Parts::Spill(parts, res)) => {
            aggregate_spill(exec, rows, group_by, aggs, annotate, &outer, parts, res)
        }
    }
}

/// Spilled grouped aggregation: input rows scatter to partition files by
/// group-key hash, tagged with their input position; each partition
/// streams through the aggregation kernel in tag order (only its group
/// states are held and charged) and emits its groups with their first
/// tags, which the partitioner merges back into global first-appearance
/// order — exactly the serial output. In annotate mode a partition keeps
/// its rows (charged, like a join's build partition) and emits them
/// annotated, tagged with their own input positions, so the merge
/// restores input order.
///
/// Error ordering matches serial execution: the serial loop evaluates a
/// row's group key, then its aggregate arguments, before looking at the
/// next row. A key error at input position `i` therefore stops the
/// scatter (later rows can't matter), but the partitions still run over
/// the rows before `i` — an argument error among them wins. Across
/// partitions the error with the smallest input position wins.
#[allow(clippy::too_many_arguments)]
fn aggregate_spill(
    exec: &Executor,
    rows: Vec<Tuple>,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    annotate: Option<&[usize]>,
    outer: &[Tuple],
    parts: usize,
    res: &MemoryReservation,
) -> Result<Vec<Tuple>> {
    debug_assert!(!group_by.is_empty(), "global aggregates never spill");
    let key = KeyPlan::compile(exec, group_by);
    let mut spilled = Spilled::new(parts, res);
    let key_err = spilled.scatter(exec.context(), rows, 0, |t| {
        let k = key.apply(exec, &Env::new(t, outer))?;
        Ok(Some(partition_of(&k, parts)))
    })?;
    spilled.run(exec.context(), key_err, |[rows], mem| {
        let Some(cols) = annotate else {
            let partial = match accumulate(exec, rows, group_by, aggs, outer, mem, None)? {
                Ok(partial) => partial,
                Err(e) => return Ok(Err(e)),
            };
            let mut out = Vec::with_capacity(partial.first_tags.len());
            finish(partial, group_by, aggs, |tag, t| out.push((tag, t)));
            return Ok(Ok(out));
        };
        let mut kept: Vec<(u64, Tuple)> = Vec::with_capacity(rows.size_hint().0);
        for (i, rec) in rows.enumerate() {
            // Masked cancellation check per 4096 read rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            let (tag, t) = rec?;
            mem.keep(|| t.size_bytes())?;
            kept.push((tag, t));
        }
        let mut ids = Vec::with_capacity(kept.len());
        let tagged = kept.iter().map(|(tag, t)| Ok((*tag, t)));
        let partial = match accumulate(exec, tagged, group_by, aggs, outer, mem, Some(&mut ids))? {
            Ok(partial) => partial,
            Err(e) => return Ok(Err(e)),
        };
        let groups = finish_groups(partial, group_by, aggs);
        let mut out = Vec::with_capacity(kept.len());
        for (i, ((tag, t), id)) in kept.iter().zip(ids).enumerate() {
            // Masked cancellation check per 4096 emitted rows.
            if i % 4096 == 0 {
                exec.check_cancelled()?;
            }
            out.push((*tag, annotate_row(&groups[id], t, cols)));
        }
        Ok(Ok(out))
    })
}
