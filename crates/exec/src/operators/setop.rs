//! Set operations with both set (`DISTINCT`) and bag (`ALL`) semantics,
//! and duplicate elimination (`DISTINCT`).
//!
//! Tuple equality here is grouping equality (NULL == NULL), matching SQL's
//! treatment of NULLs in set operations.

use perm_types::hash::{set_with_capacity, FxHashMap, FxHashSet};
use perm_types::{QueryContext, Result, Tuple};

use perm_algebra::plan::SetOpType;

use super::partition::{by_row_hash, place, KernelRow, Placement, Retained};
use crate::executor::Executor;
use crate::physical::PhysicalPlan;

pub fn run_setop(
    exec: &Executor,
    op: SetOpType,
    all: bool,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    dop: usize,
    spill: Option<usize>,
) -> Result<Vec<Tuple>> {
    let l = exec.run_physical(left)?;
    let r = exec.run_physical(right)?;
    if matches!(op, SetOpType::Union) && all {
        // Plain append holds no operator state: nothing to charge or
        // spill.
        let mut out = l;
        out.extend(r);
        return Ok(out);
    }
    // Every other variant hashes both sides, so the whole input is
    // charged up front; a denial switches to spill partitions instead of
    // failing.
    let res = exec.memory().register("HashSetOp");
    match place(&res, l.iter().chain(&r).map(Tuple::size_bytes), dop, spill)? {
        Placement::Serial => set_kernel(
            exec.context(),
            op,
            all,
            l.into_iter().map(Ok),
            r.into_iter().map(Ok),
            &mut Retained::default(),
        ),
        // Equal tuples land in the same partition, so each partition runs
        // the kernel independently over rows tagged with their position
        // (`l` before `r`).
        Placement::Parts(parts) => {
            by_row_hash(exec.context(), parts, [l, r], move |ctx, [l, r], mem| {
                set_kernel(ctx, op, all, l, r, mem)
            })
        }
    }
}

pub fn run_distinct(
    exec: &Executor,
    input: &PhysicalPlan,
    dop: usize,
    spill: Option<usize>,
) -> Result<Vec<Tuple>> {
    let rows = exec.run_physical(input)?;
    // The dedup set holds (at worst) every input row: charge input bytes.
    let res = exec.memory().register("HashDistinct");
    match place(&res, rows.iter().map(Tuple::size_bytes), dop, spill)? {
        Placement::Serial => dedup(
            exec.context(),
            rows.into_iter().map(Ok),
            &mut Retained::default(),
        ),
        Placement::Parts(parts) => {
            by_row_hash(exec.context(), parts, [rows], |ctx, [rows], mem| {
                dedup(ctx, rows, mem)
            })
        }
    }
}

/// The set/bag kernel of every hashed set operation (UNION ALL is a
/// plain append and never gets here): `l op r`, emitting surviving rows
/// in input order, `l` before `r`. The hashed rows are charged to `mem`;
/// `l` streams through otherwise.
fn set_kernel<R: KernelRow>(
    ctx: &QueryContext,
    op: SetOpType,
    all: bool,
    l: impl Iterator<Item = Result<R>>,
    r: impl Iterator<Item = Result<R>>,
    mem: &mut Retained<'_>,
) -> Result<Vec<R>> {
    debug_assert!(
        !(matches!(op, SetOpType::Union) && all),
        "append has no kernel"
    );
    let keep_matches = matches!(op, SetOpType::Intersect);
    let mut out = Vec::new();
    match (op, all) {
        (SetOpType::Union, _) => {
            // Single-probe insert: UNION inputs are mostly distinct, so
            // one hash plus a refcount-bump clone beats a double probe.
            let mut seen = set_with_capacity(l.size_hint().0 + r.size_hint().0);
            for (i, t) in l.chain(r).enumerate() {
                // Masked cancellation check per 4096 rows.
                if i % 4096 == 0 {
                    ctx.check()?;
                }
                let t = t?;
                if seen.insert(t.row().clone()) {
                    mem.keep(|| t.row().size_bytes())?;
                    out.push(t);
                }
            }
        }
        (_, false) => {
            // INTERSECT keeps the first occurrence of every `l` row found
            // in `r`, EXCEPT of every row not found.
            let mut rset = set_with_capacity(r.size_hint().0);
            for (i, t) in r.enumerate() {
                // Masked cancellation check per 4096 rows.
                if i % 4096 == 0 {
                    ctx.check()?;
                }
                let t = t?.into_row();
                mem.keep(|| t.size_bytes())?;
                rset.insert(t);
            }
            let mut seen = FxHashSet::default();
            for (i, t) in l.enumerate() {
                // Masked cancellation check per 4096 rows.
                if i % 4096 == 0 {
                    ctx.check()?;
                }
                let t = t?;
                if rset.contains(t.row()) == keep_matches && seen.insert(t.row().clone()) {
                    mem.keep(|| t.row().size_bytes())?;
                    out.push(t);
                }
            }
        }
        (_, true) => {
            // Bag semantics: each `l` row consumes one matching `r` row.
            // INTERSECT ALL keeps the consuming rows (min(countL, countR)
            // copies), EXCEPT ALL the rest (countL - countR copies).
            let mut rcount: FxHashMap<Tuple, usize> = FxHashMap::default();
            for (i, t) in r.enumerate() {
                // Masked cancellation check per 4096 rows.
                if i % 4096 == 0 {
                    ctx.check()?;
                }
                let t = t?.into_row();
                mem.keep(|| t.size_bytes())?;
                *rcount.entry(t).or_insert(0) += 1;
            }
            for (i, t) in l.enumerate() {
                // Masked cancellation check per 4096 rows.
                if i % 4096 == 0 {
                    ctx.check()?;
                }
                let t = t?;
                let consumed = match rcount.get_mut(t.row()) {
                    Some(c) if *c > 0 => {
                        *c -= 1;
                        true
                    }
                    _ => false,
                };
                if consumed == keep_matches {
                    out.push(t);
                }
            }
        }
    }
    Ok(out)
}

/// The dedup kernel of DISTINCT: the first occurrence of every row, in
/// input order. Only the kept rows are charged to `mem`.
fn dedup<R: KernelRow>(
    ctx: &QueryContext,
    rows: impl Iterator<Item = Result<R>>,
    mem: &mut Retained<'_>,
) -> Result<Vec<R>> {
    let mut seen = set_with_capacity(rows.size_hint().0);
    let mut out = Vec::new();
    for (i, t) in rows.enumerate() {
        // Masked cancellation check per 4096 rows.
        if i % 4096 == 0 {
            ctx.check()?;
        }
        let t = t?;
        // Membership first: DISTINCT inputs are duplicate-heavy (that is
        // what the operator is for), and a duplicate then costs one probe
        // and no clone. Contrast with UNION above, whose mostly-distinct
        // inputs make the single-probe insert the better trade.
        if !seen.contains(t.row()) {
            mem.keep(|| t.row().size_bytes())?;
            seen.insert(t.row().clone());
            out.push(t);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::partition::Parts;
    use super::*;
    use crate::memory::{MemoryPool, QueryMemory};
    use perm_types::Value;

    fn rows(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v), Value::Int(v % 3)]))
            .collect()
    }

    fn spilled_distinct(input: Vec<Tuple>) -> Vec<Tuple> {
        let q = QueryMemory::new(MemoryPool::with_budget(1), None);
        let r = q.register("test");
        let got = by_row_hash(
            &QueryContext::detached(),
            Parts::Spill(3, &r),
            [input],
            |ctx, [rows], mem| dedup(ctx, rows, mem),
        )
        .unwrap();
        assert_eq!(r.size(), 0, "working memory fully released");
        assert_eq!(q.spill_files(), 0, "every spill file deleted");
        got
    }

    #[test]
    fn spilled_distinct_keeps_first_occurrence_order() {
        let got = spilled_distinct(rows(&[4, 1, 4, 2, 1, 3, 2, 4]));
        assert_eq!(got, rows(&[4, 1, 2, 3]));
        assert!(spilled_distinct(Vec::new()).is_empty());
    }
}
