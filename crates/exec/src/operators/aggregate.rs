//! Hash aggregation with SQL NULL semantics, `DISTINCT` aggregates and the
//! `any_value` leniency aggregate.

use std::borrow::Borrow;
use std::sync::Arc;

use perm_types::hash::{FxHashMap, FxHashSet};
use perm_types::ops;
use perm_types::{PermError, Result, Tuple, Value};

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

/// One group's accumulators plus per-aggregate DISTINCT filters.
struct GroupState {
    states: Vec<AggState>,
    distinct_seen: Vec<Option<FxHashSet<Value>>>,
}

impl GroupState {
    fn new(calls: &[AggCall]) -> GroupState {
        GroupState {
            states: calls.iter().map(AggState::new).collect(),
            distinct_seen: calls
                .iter()
                .map(|c| {
                    if c.distinct {
                        Some(FxHashSet::default())
                    } else {
                        None
                    }
                })
                .collect(),
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

/// Partial aggregation state over part of the input: group keys in
/// first-appearance order, each with the tag of its first row, plus
/// their accumulators.
#[derive(Default)]
struct AggPartial {
    order: Vec<(u64, GroupKey)>,
    groups: FxHashMap<GroupKey, GroupState>,
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
/// into a fresh partial, charging each new group's state to `mem`.
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
        // One hash per row: the entry API probes once, and only a *new*
        // group clones its key (a refcount bump) into the order list.
        let state = match partial.groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(v) => {
                mem.keep(|| v.key().state_bytes(aggs))?;
                partial.order.push((tag, v.key().clone()));
                v.insert(GroupState::new(aggs))
            }
        };
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
        if let (Some(seen), Some(v)) = (&mut state.distinct_seen[i], &arg) {
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
fn merge_partials(into: &mut AggPartial, later: AggPartial) -> Result<()> {
    let AggPartial { order, mut groups } = later;
    // no-cancel: merge of already-computed partial states.
    for (tag, key) in order {
        // INVARIANT: `order` holds exactly the keys of `groups`.
        let state = groups.remove(&key).expect("group registered");
        match into.groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => {
                let target = e.into_mut();
                debug_assert!(
                    state.distinct_seen.iter().all(Option::is_none),
                    "DISTINCT aggregates are planned serial"
                );
                // no-cancel: bounded by the aggregate-call count.
                for (t, s) in target.states.iter_mut().zip(state.states) {
                    t.merge(s)?;
                }
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                into.order.push((tag, v.key().clone()));
                v.insert(state);
            }
        }
    }
    Ok(())
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
    if group_by.is_empty() && partial.order.is_empty() {
        let empty_key = GroupKey::Many(Tuple::empty());
        partial.order.push((0, empty_key.clone()));
        partial.groups.insert(empty_key, GroupState::new(aggs));
    }
    // no-cancel: output assembly from already-computed group states.
    for (tag, key) in partial.order {
        // INVARIANT: `order` holds exactly the keys of `groups`.
        let state = partial.groups.remove(&key).expect("group registered");
        let mut vals = match key {
            GroupKey::One(v) => {
                let mut vs = Vec::with_capacity(1 + aggs.len());
                vs.push(v);
                vs
            }
            GroupKey::Many(t) => t.into_values(),
        };
        // no-cancel: bounded by the aggregate-call count.
        for s in state.states {
            vals.push(s.finish());
        }
        emit(tag, Tuple::new(vals));
    }
}

pub fn run_aggregate(
    exec: &Executor,
    input: &PhysicalPlan,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
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
    let partial = match place(&res, charged.iter().map(Tuple::size_bytes), dop, spill)? {
        Placement::Serial => {
            let rows = (0..).zip(&rows).map(Ok);
            accumulate(exec, rows, group_by, aggs, &outer, &mut Retained::default())?
                .map_err(|(_, e)| e)?
        }
        Placement::Parts(Parts::Workers(n)) => {
            // Chunk-parallel: each worker accumulates one contiguous
            // chunk into a private hash table; partials merge in chunk
            // order.
            let catalog = exec.catalog_arc();
            let total = rows.len();
            let rows = Arc::new(rows);
            let owned: Arc<(Vec<ScalarExpr>, Vec<AggCall>)> =
                Arc::new((group_by.to_vec(), aggs.to_vec()));
            let ctx = exec.context().clone();
            let partials = map_chunks(exec.context(), n, total, move |range| {
                let sub = Executor::new(Arc::clone(&catalog)).with_context(ctx.clone());
                let tagged = (range.start as u64..).zip(&rows[range]).map(Ok);
                let (group_by, aggs) = (&owned.0, &owned.1);
                accumulate(
                    &sub,
                    tagged,
                    group_by,
                    aggs,
                    &outer,
                    &mut Retained::default(),
                )?
                .map_err(|(_, e)| e)
            })?;
            let mut partials = partials.into_iter();
            let mut acc = partials.next().unwrap_or_default();
            // no-cancel: merge of already-computed partials, bounded by
            // dop.
            for p in partials {
                merge_partials(&mut acc, p)?;
            }
            acc
        }
        Placement::Parts(Parts::Spill(parts, res)) => {
            return aggregate_spill(exec, rows, group_by, aggs, &outer, parts, res)
        }
    };
    let mut out = Vec::with_capacity(partial.order.len().max(1));
    finish(partial, group_by, aggs, |_, t| out.push(t));
    Ok(out)
}

/// Spilled grouped aggregation: input rows scatter to partition files by
/// group-key hash, tagged with their input position; each partition
/// streams through the aggregation kernel in tag order (only its group
/// states are held and charged) and emits its groups with their first
/// tags, which the partitioner merges back into global first-appearance
/// order — exactly the serial output.
///
/// Error ordering matches serial execution: the serial loop evaluates a
/// row's group key, then its aggregate arguments, before looking at the
/// next row. A key error at input position `i` therefore stops the
/// scatter (later rows can't matter), but the partitions still run over
/// the rows before `i` — an argument error among them wins. Across
/// partitions the error with the smallest input position wins.
fn aggregate_spill(
    exec: &Executor,
    rows: Vec<Tuple>,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
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
        let partial = match accumulate(exec, rows, group_by, aggs, outer, mem)? {
            Ok(partial) => partial,
            Err(e) => return Ok(Err(e)),
        };
        let mut out = Vec::with_capacity(partial.order.len());
        finish(partial, group_by, aggs, |tag, t| out.push((tag, t)));
        Ok(Ok(out))
    })
}
