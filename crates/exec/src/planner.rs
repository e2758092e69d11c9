//! The logical optimizer ("Planner" stage of the paper's Figure 3),
//! phase 1 of the two-phase optimizer (phase 2, operator selection, is
//! [`crate::physical`]).
//!
//! Perm deliberately leaves optimization to the host DBMS: the rewritten
//! provenance query is an ordinary query, so ordinary rewrites apply. This
//! module implements the rewrites that matter most for the plans the
//! provenance rewriter produces, in this order:
//!
//! 1. **boundary elimination** — SQL-PLE markers are meaningless after the
//!    rewrite;
//! 2. bottom-up rule passes (`PASSES` rounds to fixpoint):
//!    * **filter merging** — adjacent filters combine into one conjunction;
//!    * **filter pushdown** — through projections, past sorts, into
//!      inner/cross join sides and union branches; predicates on the
//!      preserved side push below LEFT joins, and null-rejecting
//!      predicates on the nullable side demote LEFT joins to INNER first;
//!    * **projection merging** — the rewrite rules stack projections
//!      (duplicate-as-provenance, normalization, padding), which fold into
//!      one;
//! 3. **column pruning** — provenance rewrites duplicate whole
//!    base-relation schemas; a top-down pass drops every slot no ancestor
//!    references (through Project/Join/Aggregate/UnionAll);
//! 4. **cost-based join reordering** — commutable inner/cross-join regions
//!    are flattened and rebuilt greedily smallest-intermediate-first,
//!    using the unified [`CardinalityEstimator`] (row counts and distinct
//!    counts from table statistics, the same numbers the rewrite-strategy
//!    chooser reads);
//! 5. a final cleanup round of the bottom-up rules (reordering introduces
//!    compensating projections that usually merge away).
//!
//! Passes 3 and 4 renumber columns; because positional `OuterColumn`
//! references inside sublink subplans cannot be renumbered from the
//! outside, both passes are skipped entirely for plans containing
//! sublinks (filter pushdown already refuses to move sublink predicates
//! for the same reason).

use perm_algebra::expr::{AggCall, BinOp, ScalarExpr, UnOp};
use perm_algebra::plan::{JoinType, LogicalPlan, SetOpType};
use perm_algebra::stats::{estimate_rows, CardinalityEstimator, UnknownCardinality};
use perm_types::{Result, Schema};

/// Number of optimization passes. The rules are applied bottom-up; two
/// passes reach a fixpoint for everything the rewriter emits.
const PASSES: usize = 3;

/// Regions with more relations than this keep their original join order
/// (greedy reordering is quadratic; this is far beyond any plan the
/// rewriter emits).
const MAX_REORDER_RELATIONS: usize = 16;

/// Optimize a bound plan without table statistics (join reordering then
/// falls back to connectivity-only heuristics).
pub fn optimize(plan: LogicalPlan) -> LogicalPlan {
    optimize_with(plan, &UnknownCardinality)
}

/// Optimize a bound plan, feeding cost-based decisions from `est`.
///
/// In debug and test builds every optimizer phase is re-checked by the
/// static plan verifier ([`perm_algebra::verify`]) and a violation
/// panics, naming the responsible phase; release builds skip the checks
/// unless they opt in through [`optimize_verified`].
pub fn optimize_with(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> LogicalPlan {
    if cfg!(debug_assertions) {
        let mut verifier = verifying_observer(plan.schema().clone());
        match optimize_observed(plan, est, &mut verifier) {
            Ok(p) => p,
            Err(e) => panic!("{e}"),
        }
    } else {
        let mut noop = |_: &'static str, _: &LogicalPlan| Ok(());
        match optimize_observed(plan, est, &mut noop) {
            Ok(p) => p,
            // The no-op observer never fails.
            Err(e) => panic!("{e}"),
        }
    }
}

/// Optimize a bound plan and run the static plan verifier after every
/// phase regardless of build profile, returning (instead of panicking on)
/// the first violation. This is the entry point behind
/// `SessionOptions::verify_plans` and `EXPLAIN VERIFY`.
pub fn optimize_verified(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> Result<LogicalPlan> {
    let mut verifier = verifying_observer(plan.schema().clone());
    optimize_observed(plan, est, &mut verifier)
}

/// [`optimize_verified`] that additionally records which phases actually
/// ran (sublink-bearing plans skip the pruning/reordering phases) — the
/// basis of the `EXPLAIN VERIFY` report.
pub fn optimize_traced(
    plan: LogicalPlan,
    est: &dyn CardinalityEstimator,
) -> Result<(LogicalPlan, Vec<&'static str>)> {
    let mut verifier = verifying_observer(plan.schema().clone());
    let mut phases = Vec::new();
    let mut observe = |phase: &'static str, p: &LogicalPlan| {
        verifier(phase, p)?;
        phases.push(phase);
        Ok(())
    };
    let optimized = optimize_observed(plan, est, &mut observe)?;
    Ok((optimized, phases))
}

/// The names of the logical optimizer's phases, in execution order. Used
/// by the verifying observer and the `EXPLAIN VERIFY` report.
pub const LOGICAL_PHASES: &[&str] = &[
    "boundary-elimination",
    "rule-rewrites",
    "column-pruning",
    "join-reordering",
    "cleanup-rewrites",
];

/// An observer that re-verifies the plan after each phase: internal
/// consistency plus preservation of the original output schema.
fn verifying_observer(original: Schema) -> impl FnMut(&'static str, &LogicalPlan) -> Result<()> {
    move |phase, plan| {
        perm_algebra::verify::verify_logical(plan, phase)?;
        perm_algebra::verify::verify_schema_preserved(&original, plan, phase)
    }
}

/// The optimizer pipeline with a phase observer: `observe(phase, plan)`
/// runs after each named phase and aborts optimization by returning an
/// error (the verifying observer does; the no-op observer never does).
fn optimize_observed(
    plan: LogicalPlan,
    est: &dyn CardinalityEstimator,
    observe: &mut dyn FnMut(&'static str, &LogicalPlan) -> Result<()>,
) -> Result<LogicalPlan> {
    let mut p = strip_boundaries(plan);
    observe("boundary-elimination", &p)?;
    for _ in 0..PASSES {
        p = rewrite_bottom_up(p);
    }
    observe("rule-rewrites", &p)?;
    if !plan_has_sublinks(&p) {
        let arity = p.arity();
        p = prune_columns(p);
        debug_assert_eq!(p.arity(), arity, "pruning must not change the root schema");
        observe("column-pruning", &p)?;
        p = reorder_joins(p, est);
        observe("join-reordering", &p)?;
        for _ in 0..2 {
            p = rewrite_bottom_up(p);
        }
        observe("cleanup-rewrites", &p)?;
    }
    Ok(p)
}

/// True if any expression anywhere in the plan contains a sublink.
fn plan_has_sublinks(plan: &LogicalPlan) -> bool {
    let mut found = false;
    plan.visit_all_exprs(&mut |e| {
        if e.contains_subquery() {
            found = true;
        }
    });
    found
}

/// Remove SQL-PLE boundary markers (no-ops for execution).
fn strip_boundaries(plan: LogicalPlan) -> LogicalPlan {
    map_children(plan, &|p| match p {
        LogicalPlan::Boundary { input, .. } => *input,
        other => other,
    })
}

fn rewrite_bottom_up(plan: LogicalPlan) -> LogicalPlan {
    map_children(plan, &|p| {
        let p = merge_filters(p);
        let p = push_filter(p);
        merge_projects(p)
    })
}

/// Rebuild the plan bottom-up, applying `f` at every node after its
/// children were processed.
fn map_children(plan: LogicalPlan, f: &impl Fn(LogicalPlan) -> LogicalPlan) -> LogicalPlan {
    f(map_children_once(plan, &mut |child| map_children(child, f)))
}

/// `Filter(Filter(T, a), b)` → `Filter(T, b AND a)`.
fn merge_filters(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => match *input {
            LogicalPlan::Filter {
                input: inner,
                predicate: inner_pred,
            } => LogicalPlan::Filter {
                input: inner,
                predicate: ScalarExpr::conjunction(vec![predicate, inner_pred]),
            },
            other => LogicalPlan::Filter {
                input: Box::new(other),
                predicate,
            },
        },
        other => other,
    }
}

/// Push a filter's conjuncts as close to the scans as safely possible.
fn push_filter(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Filter { input, predicate } = plan else {
        return plan;
    };
    // Subquery predicates are never pushed (their evaluation cost profile
    // is unclear and pushing past joins changes how often they run).
    if predicate.contains_subquery() {
        return LogicalPlan::Filter { input, predicate };
    }
    match *input {
        // Filter over Project: substitute and push when every output column
        // referenced is a plain column or literal.
        LogicalPlan::Project {
            input: pin,
            exprs,
            schema,
        } => {
            let substitutable = predicate
                .referenced_columns()
                .iter()
                .all(|&i| matches!(exprs[i], ScalarExpr::Column(_) | ScalarExpr::Literal(_)));
            if substitutable {
                let pushed = predicate.transform(&|e| match e {
                    ScalarExpr::Column(i) => exprs[i].clone(),
                    other => other,
                });
                LogicalPlan::Project {
                    input: Box::new(push_filter(LogicalPlan::Filter {
                        input: pin,
                        predicate: pushed,
                    })),
                    exprs,
                    schema,
                }
            } else {
                LogicalPlan::Filter {
                    input: Box::new(LogicalPlan::Project {
                        input: pin,
                        exprs,
                        schema,
                    }),
                    predicate,
                }
            }
        }
        // Filter over inner/cross join: route side-local conjuncts.
        LogicalPlan::Join {
            left,
            right,
            kind: kind @ (JoinType::Inner | JoinType::Cross),
            condition,
            schema,
        } => {
            let nl = left.arity();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut keep = Vec::new();
            for c in predicate.split_conjunction() {
                let cols = c.referenced_columns();
                if cols.iter().all(|&i| i < nl) {
                    to_left.push(c.clone());
                } else if cols.iter().all(|&i| i >= nl) {
                    to_right.push(c.map_columns(&|i| i - nl));
                } else {
                    keep.push(c.clone());
                }
            }
            let left = if to_left.is_empty() {
                left
            } else {
                Box::new(push_filter(LogicalPlan::Filter {
                    input: left,
                    predicate: ScalarExpr::conjunction(to_left),
                }))
            };
            let right = if to_right.is_empty() {
                right
            } else {
                Box::new(push_filter(LogicalPlan::Filter {
                    input: right,
                    predicate: ScalarExpr::conjunction(to_right),
                }))
            };
            let join = LogicalPlan::Join {
                left,
                right,
                kind,
                condition,
                schema,
            };
            if keep.is_empty() {
                join
            } else {
                LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: ScalarExpr::conjunction(keep),
                }
            }
        }
        // Filter over LEFT join. A null-rejecting conjunct on the nullable
        // (right) side can never accept a null-extended row, so the outer
        // join degenerates to an inner join — demote and re-push, which
        // unlocks pushdown into both sides. Otherwise conjuncts touching
        // only the preserved (left) side commute with the join and push
        // below it.
        LogicalPlan::Join {
            left,
            right,
            kind: JoinType::Left,
            condition,
            schema,
        } => {
            let nl = left.arity();
            let demote = predicate
                .split_conjunction()
                .iter()
                .any(|c| rejects_all_null(c, &|i| i >= nl));
            if demote {
                // Cross-check the demotion certificate with the verifier's
                // independent three-valued analysis: the whole predicate
                // must be unable to hold on a null-extended row.
                debug_assert!(
                    perm_algebra::verify::cannot_hold_on_null(&predicate, &|i| i >= nl),
                    "plan verifier [rule-rewrites]: LEFT→INNER demotion without a \
                     null-rejecting predicate: {predicate}"
                );
                let join = LogicalPlan::join(*left, *right, JoinType::Inner, condition)
                    .expect("LEFT join carries a condition");
                return push_filter(LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate,
                });
            }
            let mut to_left = Vec::new();
            let mut keep = Vec::new();
            for c in predicate.split_conjunction() {
                if c.referenced_columns().iter().all(|&i| i < nl) {
                    to_left.push(c.clone());
                } else {
                    keep.push(c.clone());
                }
            }
            let left = if to_left.is_empty() {
                left
            } else {
                Box::new(push_filter(LogicalPlan::Filter {
                    input: left,
                    predicate: ScalarExpr::conjunction(to_left),
                }))
            };
            let join = LogicalPlan::Join {
                left,
                right,
                kind: JoinType::Left,
                condition,
                schema,
            };
            if keep.is_empty() {
                join
            } else {
                LogicalPlan::Filter {
                    input: Box::new(join),
                    predicate: ScalarExpr::conjunction(keep),
                }
            }
        }
        // Filter over union: apply to both branches (positions agree).
        LogicalPlan::SetOp {
            op: SetOpType::Union,
            all,
            left,
            right,
            schema,
        } => LogicalPlan::SetOp {
            op: SetOpType::Union,
            all,
            left: Box::new(push_filter(LogicalPlan::Filter {
                input: left,
                predicate: predicate.clone(),
            })),
            right: Box::new(push_filter(LogicalPlan::Filter {
                input: right,
                predicate,
            })),
            schema,
        },
        // Filter through DISTINCT: a deterministic per-row predicate
        // commutes with duplicate elimination, and filtering first
        // shrinks the dedup hash table (the provenance rewrite of a
        // filtered UNION view is exactly this shape).
        LogicalPlan::Distinct { input: din } => LogicalPlan::Distinct {
            input: Box::new(push_filter(LogicalPlan::Filter {
                input: din,
                predicate,
            })),
        },
        // Filter past sort (sort doesn't change values).
        LogicalPlan::Sort { input: sin, keys } => LogicalPlan::Sort {
            input: Box::new(push_filter(LogicalPlan::Filter {
                input: sin,
                predicate,
            })),
            keys,
        },
        other => LogicalPlan::Filter {
            input: Box::new(other),
            predicate,
        },
    }
}

/// True if `expr` is guaranteed to evaluate to NULL whenever every column
/// selected by `target` is NULL, *and* references at least one such
/// column ("NULL-strict in the target columns"). Conservative: only forms
/// with guaranteed strictness qualify.
fn strict_in(expr: &ScalarExpr, target: &impl Fn(usize) -> bool) -> bool {
    match expr {
        ScalarExpr::Column(i) => target(*i),
        // Arithmetic, concatenation and comparisons propagate NULL.
        ScalarExpr::Binary { op, left, right } => {
            !matches!(op, BinOp::And | BinOp::Or)
                && !matches!(op, BinOp::NotDistinctFrom | BinOp::DistinctFrom)
                && (strict_in(left, target) || strict_in(right, target))
        }
        ScalarExpr::Unary {
            op: UnOp::Neg | UnOp::Not,
            expr,
        } => strict_in(expr, target),
        ScalarExpr::Cast { expr, .. } => strict_in(expr, target),
        _ => false,
    }
}

/// True if `pred` can never evaluate to TRUE when every column selected by
/// `target` is NULL — i.e. it rejects the null-extended rows an outer join
/// fabricates. Used to demote LEFT joins to INNER.
fn rejects_all_null(pred: &ScalarExpr, target: &impl Fn(usize) -> bool) -> bool {
    match pred {
        // A comparison with a NULL-strict operand evaluates to NULL.
        ScalarExpr::Binary { op, left, right } if op.is_comparison() => {
            !matches!(op, BinOp::NotDistinctFrom | BinOp::DistinctFrom)
                && (strict_in(left, target) || strict_in(right, target))
        }
        // `x IS NOT NULL` on a strict expression is FALSE on the null row.
        ScalarExpr::IsNull {
            expr,
            negated: true,
        } => strict_in(expr, target),
        // `x [NOT] LIKE p` with strict x (or strict pattern) is NULL.
        ScalarExpr::Like { expr, pattern, .. } => {
            strict_in(expr, target) || strict_in(pattern, target)
        }
        // `x [NOT] IN (…)` with strict x is NULL (no list element matches
        // NULL under SQL equality, and NOT of NULL stays NULL).
        ScalarExpr::InList { expr, .. } => strict_in(expr, target),
        _ => false,
    }
}

/// `Project(Project(T, inner), outer)` → one Project, when safe.
fn merge_projects(plan: LogicalPlan) -> LogicalPlan {
    let LogicalPlan::Project {
        input,
        exprs,
        schema,
    } = plan
    else {
        return plan;
    };
    let LogicalPlan::Project {
        input: inner_input,
        exprs: inner_exprs,
        schema: inner_schema,
    } = *input
    else {
        return LogicalPlan::Project {
            input,
            exprs,
            schema,
        };
    };
    // Safe when inner expressions are cheap (columns/literals), or each
    // inner column is referenced at most once and contains no subquery.
    let cheap = inner_exprs
        .iter()
        .all(|e| matches!(e, ScalarExpr::Column(_) | ScalarExpr::Literal(_)));
    let mergeable = cheap || {
        let mut counts = vec![0usize; inner_exprs.len()];
        for e in &exprs {
            e.for_each_column(&mut |i| counts[i] += 1);
        }
        counts
            .iter()
            .zip(&inner_exprs)
            .all(|(&c, e)| c <= 1 && !e.contains_subquery())
    };
    if !mergeable {
        return LogicalPlan::Project {
            input: Box::new(LogicalPlan::Project {
                input: inner_input,
                exprs: inner_exprs,
                schema: inner_schema,
            }),
            exprs,
            schema,
        };
    }
    let merged: Vec<ScalarExpr> = exprs
        .iter()
        .map(|e| {
            e.transform(&|x| match x {
                ScalarExpr::Column(i) => inner_exprs[i].clone(),
                other => other,
            })
        })
        .collect();
    LogicalPlan::Project {
        input: inner_input,
        exprs: merged,
        schema,
    }
}

// ----------------------------------------------------------------------
// Column pruning
// ----------------------------------------------------------------------

/// Drop every column no ancestor references. The provenance rewrites
/// duplicate whole base-relation schemas into provenance attributes; a
/// query that selects a handful of them drags every other column through
/// every join. This pass pushes the set of *required* output positions
/// top-down and rebuilds each operator over only the columns it must
/// produce.
///
/// The root keeps its full schema (`required` = all positions), so the
/// plan's output is unchanged; pruning bites below projections and
/// aggregates, which are exactly the operators the rewrite rules stack.
///
/// Must not be called on plans containing sublinks (positional
/// `OuterColumn` references inside sublink plans cannot be renumbered
/// from out here); [`optimize_with`] guards this.
fn prune_columns(plan: LogicalPlan) -> LogicalPlan {
    let all: Vec<usize> = (0..plan.arity()).collect();
    prune(plan, &all).0
}

/// Position of `i` in the sorted list `kept` (which must contain it).
fn remap_pos(kept: &[usize], i: usize) -> usize {
    kept.binary_search(&i)
        .expect("pruned plan kept a referenced column")
}

/// Sorted union of `a` and the columns referenced by `exprs`.
fn union_refs<'a>(a: &[usize], exprs: impl IntoIterator<Item = &'a ScalarExpr>) -> Vec<usize> {
    let mut out: Vec<usize> = a.to_vec();
    for e in exprs {
        out.extend(e.referenced_columns());
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Rebuild `plan` so it outputs (a superset of) the original positions in
/// `required`, preserving their relative order. Returns the new plan and
/// the sorted original positions it actually outputs.
fn prune(plan: LogicalPlan, required: &[usize]) -> (LogicalPlan, Vec<usize>) {
    let arity = plan.arity();
    match plan {
        LogicalPlan::Scan { .. } => {
            if required.len() == arity {
                (plan, required.to_vec())
            } else {
                (
                    LogicalPlan::project_positions(plan, required),
                    required.to_vec(),
                )
            }
        }
        LogicalPlan::Values { rows, schema } => {
            let rows = rows
                .into_iter()
                .map(|r| {
                    required
                        .iter()
                        .map(|&i| r[i].clone())
                        .collect::<Vec<ScalarExpr>>()
                })
                .collect();
            let schema = schema.project(required);
            (LogicalPlan::Values { rows, schema }, required.to_vec())
        }
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let kept_exprs: Vec<ScalarExpr> = required.iter().map(|&i| exprs[i].clone()).collect();
            let child_req = union_refs(&[], kept_exprs.iter());
            let (child, child_kept) = prune(*input, &child_req);
            let exprs = kept_exprs
                .iter()
                .map(|e| e.map_columns(&|i| remap_pos(&child_kept, i)))
                .collect();
            (
                LogicalPlan::Project {
                    input: Box::new(child),
                    exprs,
                    schema: schema.project(required),
                },
                required.to_vec(),
            )
        }
        LogicalPlan::Filter { input, predicate } => {
            let needed = union_refs(required, [&predicate]);
            let (child, kept) = prune(*input, &needed);
            let predicate = predicate.map_columns(&|i| remap_pos(&kept, i));
            (
                LogicalPlan::Filter {
                    input: Box::new(child),
                    predicate,
                },
                kept,
            )
        }
        LogicalPlan::Sort { input, keys } => {
            let needed = union_refs(required, keys.iter().map(|k| &k.expr));
            let (child, kept) = prune(*input, &needed);
            let keys = keys
                .into_iter()
                .map(|k| perm_algebra::plan::SortKey {
                    expr: k.expr.map_columns(&|i| remap_pos(&kept, i)),
                    desc: k.desc,
                })
                .collect();
            (
                LogicalPlan::Sort {
                    input: Box::new(child),
                    keys,
                },
                kept,
            )
        }
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => {
            let (child, kept) = prune(*input, required);
            (
                LogicalPlan::Limit {
                    input: Box::new(child),
                    limit,
                    offset,
                },
                kept,
            )
        }
        // DISTINCT deduplicates over *all* columns: dropping one changes
        // the result. Keep the full width (children may still prune
        // internally below their own projections).
        LogicalPlan::Distinct { input } => {
            let all: Vec<usize> = (0..arity).collect();
            let (child, kept) = prune(*input, &all);
            debug_assert_eq!(kept, all);
            (
                LogicalPlan::Distinct {
                    input: Box::new(child),
                },
                kept,
            )
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            schema: _,
        } => {
            let nl = left.arity();
            let needed = union_refs(required, condition.iter());
            let left_req: Vec<usize> = needed.iter().copied().filter(|&i| i < nl).collect();
            let right_req: Vec<usize> = needed
                .iter()
                .copied()
                .filter(|&i| i >= nl)
                .map(|i| i - nl)
                .collect();
            let (l, lk) = prune(*left, &left_req);
            let (r, rk) = prune(*right, &right_req);
            let nl_new = lk.len();
            let condition = condition.map(|c| {
                c.map_columns(&|i| {
                    if i < nl {
                        remap_pos(&lk, i)
                    } else {
                        nl_new + remap_pos(&rk, i - nl)
                    }
                })
            });
            let join = LogicalPlan::join(l, r, kind, condition).expect("pruned join stays valid");
            if kind.produces_both_sides() {
                let kept = lk.iter().copied().chain(rk.iter().map(|&i| i + nl));
                (join, kept.collect())
            } else {
                // Semi/Anti: output is the left side only; the right side
                // exists for the condition alone.
                (join, lk)
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => {
            let p = prune_aggregate(*input, &group_by, &aggs, &[], required);
            (
                LogicalPlan::Aggregate {
                    input: Box::new(p.input),
                    group_by: p.group_by,
                    aggs: p.aggs,
                    schema: schema.project(&p.kept),
                },
                p.kept,
            )
        }
        LogicalPlan::AggregateAnnotate {
            input,
            group_by,
            aggs,
            annotate,
            schema,
        } => {
            let p = prune_aggregate(*input, &group_by, &aggs, &annotate, required);
            (
                LogicalPlan::AggregateAnnotate {
                    input: Box::new(p.input),
                    group_by: p.group_by,
                    aggs: p.aggs,
                    annotate: p.annotate,
                    schema: schema.project(&p.kept),
                },
                p.kept,
            )
        }
        // Only UNION ALL is column-wise prunable: every set-semantics
        // operation (and INTERSECT/EXCEPT ALL) matches whole rows, so
        // dropping a column changes the result.
        LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: true,
            left,
            right,
            schema,
        } => {
            let narrow = |side: LogicalPlan| {
                let (p, kept) = prune(side, required);
                if kept == required {
                    p
                } else {
                    // The side kept extra columns (e.g. filter-only ones);
                    // force the positional layout both branches must share.
                    let positions: Vec<usize> =
                        required.iter().map(|&i| remap_pos(&kept, i)).collect();
                    LogicalPlan::project_positions(p, &positions)
                }
            };
            let left = narrow(*left);
            let right = narrow(*right);
            (
                LogicalPlan::SetOp {
                    op: SetOpType::Union,
                    all: true,
                    left: Box::new(left),
                    right: Box::new(right),
                    schema: schema.project(required),
                },
                required.to_vec(),
            )
        }
        // Width-rigid operators (set-semantics set ops, boundaries) keep
        // their own width but still prune inside their children.
        other @ (LogicalPlan::SetOp { .. } | LogicalPlan::Boundary { .. }) => {
            let other = map_children_once(other, &mut |child| {
                let every: Vec<usize> = (0..child.arity()).collect();
                let (pruned, kept) = prune(child, &every);
                debug_assert_eq!(kept, every);
                pruned
            });
            (other, (0..arity).collect())
        }
    }
}

/// An aggregation rebuilt over a pruned input.
struct PrunedAggregate {
    input: LogicalPlan,
    group_by: Vec<ScalarExpr>,
    aggs: Vec<AggCall>,
    annotate: Vec<usize>,
    /// The node's original output positions it still produces.
    kept: Vec<usize>,
}

/// Prune an aggregation (with `annotate` columns after its group and
/// aggregate columns, for `AggregateAnnotate`) to the `required` output
/// positions. Group columns define the groups, so all stay; aggregates
/// and annotate columns stay only if required.
fn prune_aggregate(
    input: LogicalPlan,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    annotate: &[usize],
    required: &[usize],
) -> PrunedAggregate {
    let g = group_by.len();
    let n_agg = g + aggs.len();
    let kept_aggs: Vec<usize> = (0..aggs.len())
        .filter(|&j| required.contains(&(g + j)))
        .collect();
    let kept_annotate: Vec<usize> = (0..annotate.len())
        .filter(|&k| required.contains(&(n_agg + k)))
        .collect();
    let kept: Vec<usize> = (0..g)
        .chain(kept_aggs.iter().map(|&j| g + j))
        .chain(kept_annotate.iter().map(|&k| n_agg + k))
        .collect();
    let mut child_req = union_refs(
        &[],
        group_by
            .iter()
            .chain(kept_aggs.iter().filter_map(|&j| aggs[j].arg.as_ref())),
    );
    child_req.extend(kept_annotate.iter().map(|&k| annotate[k]));
    child_req.sort_unstable();
    child_req.dedup();
    let (input, child_kept) = prune(input, &child_req);
    let remap = |e: &ScalarExpr| e.map_columns(&|i| remap_pos(&child_kept, i));
    PrunedAggregate {
        group_by: group_by.iter().map(remap).collect(),
        aggs: kept_aggs
            .iter()
            .map(|&j| AggCall {
                func: aggs[j].func,
                arg: aggs[j].arg.as_ref().map(remap),
                distinct: aggs[j].distinct,
            })
            .collect(),
        annotate: kept_annotate
            .iter()
            .map(|&k| remap_pos(&child_kept, annotate[k]))
            .collect(),
        input,
        kept,
    }
}

// ----------------------------------------------------------------------
// Cost-based join reordering
// ----------------------------------------------------------------------

/// One flattened join region: the leaf relations of a maximal
/// inner/cross-join subtree plus every join conjunct, in coordinates over
/// the concatenation of the leaves in original order.
struct JoinRegion {
    leaves: Vec<LogicalPlan>,
    /// Start offset of each leaf in the original concatenation.
    offsets: Vec<usize>,
    conjuncts: Vec<ScalarExpr>,
}

/// Reorder commutable join regions bottom-up through the plan.
fn reorder_joins(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            kind: JoinType::Inner | JoinType::Cross,
            ..
        } => reorder_region(plan, est),
        other => map_children_once(other, &mut |p| reorder_joins(p, est)),
    }
}

/// Rebuild a node with each direct child mapped through `f` (no recursion
/// beyond one level — `f` recurses itself).
fn map_children_once(
    plan: LogicalPlan,
    f: &mut impl FnMut(LogicalPlan) -> LogicalPlan,
) -> LogicalPlan {
    match plan {
        LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => plan,
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => LogicalPlan::Project {
            input: Box::new(f(*input)),
            exprs,
            schema,
        },
        LogicalPlan::Filter { input, predicate } => LogicalPlan::Filter {
            input: Box::new(f(*input)),
            predicate,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            condition,
            schema,
        } => LogicalPlan::Join {
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            kind,
            condition,
            schema,
        },
        LogicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            schema,
        } => LogicalPlan::Aggregate {
            input: Box::new(f(*input)),
            group_by,
            aggs,
            schema,
        },
        LogicalPlan::AggregateAnnotate {
            input,
            group_by,
            aggs,
            annotate,
            schema,
        } => LogicalPlan::AggregateAnnotate {
            input: Box::new(f(*input)),
            group_by,
            aggs,
            annotate,
            schema,
        },
        LogicalPlan::Distinct { input } => LogicalPlan::Distinct {
            input: Box::new(f(*input)),
        },
        LogicalPlan::SetOp {
            op,
            all,
            left,
            right,
            schema,
        } => LogicalPlan::SetOp {
            op,
            all,
            left: Box::new(f(*left)),
            right: Box::new(f(*right)),
            schema,
        },
        LogicalPlan::Sort { input, keys } => LogicalPlan::Sort {
            input: Box::new(f(*input)),
            keys,
        },
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(f(*input)),
            limit,
            offset,
        },
        LogicalPlan::Boundary { input, name, kind } => LogicalPlan::Boundary {
            input: Box::new(f(*input)),
            name,
            kind,
        },
    }
}

/// Flatten a maximal inner/cross region rooted at `plan`.
fn flatten_region(plan: LogicalPlan, offset: usize, region: &mut JoinRegion) {
    match plan {
        LogicalPlan::Join {
            left,
            right,
            kind: JoinType::Inner | JoinType::Cross,
            condition,
            ..
        } => {
            let nl = left.arity();
            flatten_region(*left, offset, region);
            flatten_region(*right, offset + nl, region);
            if let Some(c) = condition {
                for conj in c.split_conjunction() {
                    region.conjuncts.push(conj.map_columns(&|i| i + offset));
                }
            }
        }
        leaf => {
            region.offsets.push(offset);
            region.leaves.push(leaf);
        }
    }
}

/// Reorder one region: flatten, pick a greedy smallest-intermediate-first
/// order, rebuild a left-deep tree with each conjunct at the lowest join
/// that binds it, and restore the original column order with a
/// compensating projection.
fn reorder_region(plan: LogicalPlan, est: &dyn CardinalityEstimator) -> LogicalPlan {
    let out_schema = plan.schema().clone();
    let total = plan.arity();
    let mut region = JoinRegion {
        leaves: Vec::new(),
        offsets: Vec::new(),
        conjuncts: Vec::new(),
    };
    flatten_region(plan, 0, &mut region);

    // Reorder the leaves *internally* first (a leaf may contain its own
    // region below a non-commutable operator).
    let leaves: Vec<LogicalPlan> = region
        .leaves
        .into_iter()
        .map(|l| reorder_joins(l, est))
        .collect();
    let offsets = region.offsets;
    let conjuncts = region.conjuncts;
    let n = leaves.len();

    let owner = |col: usize| -> usize {
        match offsets.binary_search(&col) {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    };

    let order: Vec<usize> = if !(3..=MAX_REORDER_RELATIONS).contains(&n) {
        (0..n).collect()
    } else {
        choose_order(&leaves, &offsets, &conjuncts, &owner, est)
    };

    // Rebuild. New offsets follow the chosen order.
    let mut new_offsets = vec![0usize; n];
    {
        let mut off = 0;
        for &leaf in &order {
            new_offsets[leaf] = off;
            off += leaves[leaf].arity();
        }
    }
    // old global position -> new global position.
    let remap = |old: usize| -> usize {
        let leaf = owner(old);
        new_offsets[leaf] + (old - offsets[leaf])
    };

    // Assign each conjunct to the join step that first binds all its
    // leaves; conjuncts referencing no column at all (constants) go on the
    // first join.
    let mut step_conds: Vec<Vec<ScalarExpr>> = vec![Vec::new(); n];
    for c in &conjuncts {
        let step = c
            .referenced_columns()
            .iter()
            .map(|&col| order.iter().position(|&l| l == owner(col)).expect("owned"))
            .max()
            .unwrap_or(1)
            .max(1);
        step_conds[step].push(c.map_columns(&remap));
    }

    let first = order[0];
    let mut leaves_opt: Vec<Option<LogicalPlan>> = leaves.into_iter().map(Some).collect();
    let mut tree = leaves_opt[first].take().expect("first leaf present");
    for (step, &leaf) in order.iter().enumerate().skip(1) {
        let right = leaves_opt[leaf].take().expect("each leaf joined once");
        let conds = std::mem::take(&mut step_conds[step]);
        let (kind, condition) = if conds.is_empty() {
            (JoinType::Cross, None)
        } else {
            (JoinType::Inner, Some(ScalarExpr::conjunction(conds)))
        };
        tree = LogicalPlan::join(tree, right, kind, condition).expect("rebuilt join is valid");
    }

    // Compensating projection: restore the original column order (a
    // no-op project when the order is unchanged; the cleanup passes merge
    // it into whatever sits above).
    if order.iter().copied().eq(0..n) {
        return tree;
    }
    let exprs: Vec<ScalarExpr> = (0..total).map(|i| ScalarExpr::Column(remap(i))).collect();
    LogicalPlan::Project {
        input: Box::new(tree),
        exprs,
        schema: out_schema,
    }
}

/// Greedy join order: start from the smallest-cardinality leaf, then
/// repeatedly add the connected leaf whose join yields the smallest
/// estimated intermediate (falling back to the smallest unconnected leaf
/// when nothing is connected). Ties keep the original order, so the pass
/// is a no-op when statistics offer no signal.
fn choose_order(
    leaves: &[LogicalPlan],
    offsets: &[usize],
    conjuncts: &[ScalarExpr],
    owner: &impl Fn(usize) -> usize,
    est: &dyn CardinalityEstimator,
) -> Vec<usize> {
    let n = leaves.len();
    let rows: Vec<f64> = leaves.iter().map(|l| estimate_rows(l, est)).collect();

    // Which leaves each conjunct touches.
    let conj_leaves: Vec<Vec<usize>> = conjuncts
        .iter()
        .map(|c| {
            let mut ls: Vec<usize> = c.referenced_columns().iter().map(|&i| owner(i)).collect();
            ls.sort_unstable();
            ls.dedup();
            ls
        })
        .collect();

    /// Selectivity of `conjuncts[k]` once all its leaves are joined.
    fn conj_sel(
        c: &ScalarExpr,
        leaves: &[LogicalPlan],
        offsets: &[usize],
        owner: &impl Fn(usize) -> usize,
        est: &dyn CardinalityEstimator,
    ) -> f64 {
        if let ScalarExpr::Binary {
            op: BinOp::Eq | BinOp::NotDistinctFrom,
            left,
            right,
        } = c
        {
            if let (ScalarExpr::Column(a), ScalarExpr::Column(b)) = (&**left, &**right) {
                let da = perm_algebra::stats::estimate_rows(&leaves[owner(*a)], est);
                let db = perm_algebra::stats::estimate_rows(&leaves[owner(*b)], est);
                // Resolve through the `Project → Scan` chains column
                // pruning leaves behind, not just bare scans.
                let distinct = |col: usize| -> Option<f64> {
                    let leaf = owner(col);
                    perm_algebra::stats::column_distinct(&leaves[leaf], col - offsets[leaf], est)
                };
                return match (distinct(*a), distinct(*b)) {
                    (Some(x), Some(y)) => 1.0 / x.max(y).max(1.0),
                    (Some(d), None) | (None, Some(d)) => 1.0 / d.max(1.0),
                    (None, None) => 1.0 / da.max(db).clamp(10.0, 1000.0),
                };
            }
            return 0.1;
        }
        0.5
    }

    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut in_set = vec![false; n];
    let mut used_conj = vec![false; conjuncts.len()];

    // Start: the smallest leaf (ties: original order).
    let mut start = 0;
    for i in 1..n {
        if rows[i] < rows[start] {
            start = i;
        }
    }
    chosen.push(start);
    in_set[start] = true;
    let mut cur_rows = rows[start];

    while chosen.len() < n {
        let mut best: Option<(bool, f64, usize)> = None; // (connected, est rows, leaf)
        for cand in 0..n {
            if in_set[cand] {
                continue;
            }
            // Selectivity of every conjunct newly bound by adding `cand`.
            let mut sel = 1.0f64;
            let mut connected = false;
            for (k, ls) in conj_leaves.iter().enumerate() {
                if used_conj[k] || !ls.contains(&cand) {
                    continue;
                }
                if ls.iter().all(|&l| l == cand || in_set[l]) {
                    connected = connected || ls.iter().any(|&l| l != cand);
                    sel *= conj_sel(&conjuncts[k], leaves, offsets, owner, est);
                }
            }
            let est_rows = (cur_rows * rows[cand] * sel).max(1.0);
            let better = match &best {
                None => true,
                Some((bc, br, _)) => match (connected, *bc) {
                    (true, false) => true,
                    (false, true) => false,
                    _ => est_rows < *br,
                },
            };
            if better {
                best = Some((connected, est_rows, cand));
            }
        }
        let (_, est_rows, leaf) = best.expect("some leaf remains");
        for (k, ls) in conj_leaves.iter().enumerate() {
            if !used_conj[k] && ls.iter().all(|&l| l == leaf || in_set[l]) && ls.contains(&leaf) {
                used_conj[k] = true;
            }
        }
        chosen.push(leaf);
        in_set[leaf] = true;
        cur_rows = est_rows;
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use perm_algebra::expr::BinOp;
    use perm_algebra::plan_tree;
    use perm_types::{Column, DataType, Schema, Value};

    fn scan(name: &str, cols: usize) -> LogicalPlan {
        LogicalPlan::Scan {
            table: name.into(),
            schema: Schema::new(
                (0..cols)
                    .map(|i| Column::new(format!("c{i}"), DataType::Int).with_qualifier(name))
                    .collect(),
            ),
            provenance_cols: vec![],
        }
    }

    fn col_gt(i: usize, v: i64) -> ScalarExpr {
        ScalarExpr::binary(
            BinOp::Gt,
            ScalarExpr::Column(i),
            ScalarExpr::Literal(Value::Int(v)),
        )
    }

    #[test]
    fn boundaries_are_stripped() {
        let p = LogicalPlan::Boundary {
            input: Box::new(scan("t", 1)),
            name: "t".into(),
            kind: perm_algebra::plan::BoundaryKind::BaseRelation,
        };
        let o = optimize(p);
        assert!(matches!(o, LogicalPlan::Scan { .. }));
    }

    #[test]
    fn adjacent_filters_merge() {
        let p = LogicalPlan::filter(
            LogicalPlan::filter(scan("t", 2), col_gt(0, 1)),
            col_gt(1, 2),
        );
        let o = optimize(p);
        let tree = plan_tree(&o);
        assert_eq!(tree.matches("Filter").count(), 1, "{tree}");
    }

    #[test]
    fn filter_pushes_into_join_sides() {
        let join = LogicalPlan::join(scan("a", 2), scan("b", 2), JoinType::Cross, None).unwrap();
        // c0 belongs to a, c2 (position 2) belongs to b.
        let p = LogicalPlan::filter(
            join,
            ScalarExpr::conjunction(vec![col_gt(0, 1), col_gt(2, 5)]),
        );
        let o = optimize(p);
        let tree = plan_tree(&o);
        // Both filters below the join now.
        let join_pos = tree.find("CrossJoin").unwrap();
        for f in ["(#0 > 1)", "(#0 > 5)"] {
            let fp = tree
                .find(f)
                .unwrap_or_else(|| panic!("{f} missing:\n{tree}"));
            assert!(fp > join_pos, "{tree}");
        }
    }

    #[test]
    fn join_spanning_conjunct_stays_above() {
        let join = LogicalPlan::join(scan("a", 1), scan("b", 1), JoinType::Cross, None).unwrap();
        let pred = ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1));
        let o = optimize(LogicalPlan::filter(join, pred));
        let tree = plan_tree(&o);
        let filter_pos = tree.find("Filter").expect("filter kept");
        let join_pos = tree.find("CrossJoin").unwrap();
        assert!(filter_pos < join_pos, "{tree}");
    }

    #[test]
    fn null_rejecting_filter_demotes_left_join_to_inner() {
        // `#1 > 0` can never hold on a null-extended row, so the LEFT
        // join degenerates to INNER — and the filter then pushes into the
        // right side.
        let join = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Left,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let o = optimize(LogicalPlan::filter(join, col_gt(1, 0)));
        let tree = plan_tree(&o);
        assert!(!tree.contains("LeftJoin"), "demoted to inner:\n{tree}");
        let join_pos = tree.find("InnerJoin").unwrap();
        let filter_pos = tree.find("Filter").expect("filter pushed below");
        assert!(filter_pos > join_pos, "{tree}");
    }

    #[test]
    fn null_tolerant_filter_stays_above_left_join() {
        // `#1 IS NULL` accepts null-extended rows: no demotion, no move.
        let join = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Left,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let pred = ScalarExpr::IsNull {
            expr: Box::new(ScalarExpr::Column(1)),
            negated: false,
        };
        let o = optimize(LogicalPlan::filter(join, pred));
        let tree = plan_tree(&o);
        let filter_pos = tree.find("Filter").expect("filter kept");
        let join_pos = tree.find("LeftJoin").expect("join kept outer");
        assert!(filter_pos < join_pos, "{tree}");
    }

    #[test]
    fn preserved_side_filter_pushes_below_left_join() {
        // A predicate on the preserved (left) side commutes with the
        // outer join even though the join stays LEFT.
        let join = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Left,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let o = optimize(LogicalPlan::filter(join, col_gt(0, 3)));
        let tree = plan_tree(&o);
        let join_pos = tree.find("LeftJoin").expect("join stays outer");
        let filter_pos = tree.find("Filter").expect("filter pushed");
        assert!(filter_pos > join_pos, "{tree}");
    }

    #[test]
    fn stacked_projections_merge() {
        let inner = LogicalPlan::project_positions(scan("t", 3), &[2, 0]);
        let outer = LogicalPlan::project_positions(inner, &[1]);
        let o = optimize(outer);
        match &o {
            LogicalPlan::Project { input, exprs, .. } => {
                assert!(matches!(**input, LogicalPlan::Scan { .. }));
                assert_eq!(exprs, &vec![ScalarExpr::Column(0)]);
            }
            other => panic!("expected merged project, got {other:?}"),
        }
    }

    #[test]
    fn filter_pushes_through_identity_projection() {
        let proj = LogicalPlan::project_positions(scan("t", 2), &[1, 0]);
        let o = optimize(LogicalPlan::filter(proj, col_gt(0, 7)));
        let tree = plan_tree(&o);
        let proj_pos = tree.find("Project").unwrap();
        let filter_pos = tree.find("Filter").unwrap();
        assert!(filter_pos > proj_pos, "{tree}");
        // The predicate was rewritten to the underlying column (#1).
        assert!(tree.contains("(#1 > 7)"), "{tree}");
    }

    /// Estimator with per-table row counts and one distinct count for
    /// every column (enough signal for the reorderer).
    struct TestStats(std::collections::HashMap<String, (f64, f64)>);

    impl TestStats {
        fn new(tables: &[(&str, f64, f64)]) -> TestStats {
            TestStats(
                tables
                    .iter()
                    .map(|(n, r, d)| (n.to_string(), (*r, *d)))
                    .collect(),
            )
        }
    }

    impl CardinalityEstimator for TestStats {
        fn table_rows(&self, table: &str) -> Option<f64> {
            self.0.get(table).map(|(r, _)| *r)
        }
        fn column_distinct(&self, table: &str, _column: usize) -> Option<f64> {
            self.0.get(table).map(|(_, d)| *d)
        }
    }

    #[test]
    fn join_reordering_starts_from_the_smallest_relation() {
        // (a ⋈ b) ⋈ c with |a| = |b| = 10000 and |c| = 10: the greedy
        // order starts at c and follows connectivity (c–b, then b–a).
        let ab = LogicalPlan::join(
            scan("a", 2),
            scan("b", 2),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(2))),
        )
        .unwrap();
        let abc = LogicalPlan::join(
            ab,
            scan("c", 2),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(3), ScalarExpr::Column(4))),
        )
        .unwrap();
        let est = TestStats::new(&[
            ("a", 10_000.0, 5_000.0),
            ("b", 10_000.0, 5_000.0),
            ("c", 10.0, 10.0),
        ]);
        let o = optimize_with(abc, &est);
        let tree = plan_tree(&o);
        let pos = |t: &str| {
            tree.find(t)
                .unwrap_or_else(|| panic!("{t} missing:\n{tree}"))
        };
        assert!(
            pos("Scan(c)") < pos("Scan(b)") && pos("Scan(b)") < pos("Scan(a)"),
            "expected order c, b, a:\n{tree}"
        );
        // The compensating projection restores the original column order:
        // the output schema is unchanged.
        assert_eq!(o.arity(), 6, "{tree}");
        assert_eq!(o.schema().column(0).name, "c0");
        assert_eq!(o.schema().column(0).qualifier.as_deref(), Some("a"));
    }

    #[test]
    fn reordering_is_a_no_op_without_statistics() {
        let ab = LogicalPlan::join(
            scan("a", 1),
            scan("b", 1),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(0), ScalarExpr::Column(1))),
        )
        .unwrap();
        let abc = LogicalPlan::join(
            ab,
            scan("c", 1),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Column(2))),
        )
        .unwrap();
        let o = optimize(abc);
        let tree = plan_tree(&o);
        let pos = |t: &str| tree.find(t).unwrap();
        assert!(
            pos("Scan(a)") < pos("Scan(b)") && pos("Scan(b)") < pos("Scan(c)"),
            "ties keep the original order:\n{tree}"
        );
    }

    #[test]
    fn unreferenced_join_columns_are_pruned() {
        // Project(#0) over a ⋈ b: only the join keys and #0 survive below
        // the projection; b's payload columns disappear.
        let join = LogicalPlan::join(
            scan("a", 4),
            scan("b", 4),
            JoinType::Inner,
            Some(ScalarExpr::eq(ScalarExpr::Column(1), ScalarExpr::Column(5))),
        )
        .unwrap();
        let p = LogicalPlan::project_positions(join, &[0]);
        let o = optimize(p);
        // Find the join and check its width: #0, #1 from a and #1 from b.
        fn find_join(p: &LogicalPlan) -> Option<&LogicalPlan> {
            if matches!(p, LogicalPlan::Join { .. }) {
                return Some(p);
            }
            p.children().into_iter().find_map(find_join)
        }
        let join = find_join(&o).expect("join survives");
        assert_eq!(join.arity(), 3, "pruned join width:\n{}", plan_tree(&o));
        assert_eq!(o.arity(), 1, "output schema unchanged");
    }

    #[test]
    fn pruning_skips_plans_with_sublinks() {
        // An uncorrelated IN sublink: positions inside the sublink plan
        // cannot be renumbered from outside, so the pass must not touch
        // the plan (soundness over aggressiveness).
        let sub = scan("s", 1);
        let pred = ScalarExpr::Subquery(perm_algebra::expr::SubqueryExpr {
            kind: perm_algebra::expr::SubqueryKind::In,
            plan: Box::new(sub),
            negated: false,
            operand: Some(Box::new(ScalarExpr::Column(2))),
            correlated: false,
        });
        let join = LogicalPlan::join(scan("a", 2), scan("b", 2), JoinType::Cross, None).unwrap();
        let p = LogicalPlan::project_positions(LogicalPlan::filter(join, pred), &[0]);
        let before = p.arity();
        let o = optimize(p);
        assert_eq!(o.arity(), before);
        let tree = plan_tree(&o);
        // The join still carries both sides' full width (no pruning ran).
        assert!(tree.contains("IN <subquery>"), "{tree}");
    }

    #[test]
    fn union_filters_push_into_branches() {
        let u = LogicalPlan::SetOp {
            op: SetOpType::Union,
            all: true,
            left: Box::new(scan("a", 1)),
            right: Box::new(scan("b", 1)),
            schema: Schema::new(vec![Column::new("c0", DataType::Int)]),
        };
        let o = optimize(LogicalPlan::filter(u, col_gt(0, 3)));
        let tree = plan_tree(&o);
        assert_eq!(tree.matches("Filter").count(), 2, "{tree}");
        assert!(tree.starts_with("UnionAll"), "{tree}");
    }
}
