//! Provenance rewrite rule for aggregation.
//!
//! PI-CS defines every input tuple of a group as a witness of that group's
//! result tuple. The rewrite therefore **joins the original aggregate
//! output back** to the rewritten input on the group-by expressions, using
//! NULL-safe equality (`IS NOT DISTINCT FROM`) because `GROUP BY` groups
//! NULLs together:
//!
//! ```text
//! (α_{G,agg}(T))+ = Π_{A, P(T+)}( α_{G,agg}(T) ⟕_{G ≡ G(T+)} T+ )
//! ```
//!
//! A global aggregate (no GROUP BY) joins its single result row to every
//! input tuple (`ON true`); the outer join keeps the `count(*) = 0` row of
//! an empty input with NULL provenance.
//!
//! # The fused form
//!
//! Evaluated literally, the rule computes `T` twice — once under the
//! aggregate, once inside `T+` — and pays a hash join to match them up.
//! When `T+` **keeps multiplicity** (exactly one row per row of `T`, with
//! that row's values in its original columns; see
//! [`Rewritten::keeps_multiplicity`]), aggregating the original columns of
//! `T+` *is* `α(T)`, and every `T+` row matches exactly one group: its
//! own. The rule then emits one [`LogicalPlan::AggregateAnnotate`] node
//! instead, which groups `T+` once and annotates each of its rows with its
//! group's values. Its definition is the join-back above
//! ([`LogicalPlan::join_back_form`]), which is also how it deparses.
//!
//! Multiplicity matters because the join-back matches on *values*: a `T+`
//! with several rows per `T` row (a union's or a sublink's witnesses, a
//! DISTINCT's or an inner aggregate's replicated rows) would inflate every
//! `count` and `sum` if `T+` itself were aggregated, while the join-back
//! aggregates `T`. Such inputs keep the join-back.

use std::collections::BTreeSet;

use perm_types::{Result, Schema};

use perm_algebra::expr::{AggCall, ScalarExpr};
use perm_algebra::plan::{join_back, LogicalPlan};

use crate::rules::{expr_copy_set, Ctx, Rewritten};

pub fn rewrite_aggregate(
    ctx: &Ctx,
    original: &LogicalPlan,
    input: &LogicalPlan,
    group_by: &[ScalarExpr],
    aggs: &[AggCall],
    schema: &Schema,
) -> Result<Rewritten> {
    let rt = ctx.rewrite(input)?.normalized();
    let n_out = schema.len();
    let n_in = rt.n_orig();
    let p = rt.prov.len();

    // Group expressions over the rewritten input.
    let group_plus: Vec<ScalarExpr> = group_by.iter().map(|g| rt.remap(g)).collect();

    // Copy map: group columns copy whatever their group expression copied;
    // aggregate results are computed values and copy nothing. (`min`/`max`
    // do return an input value, but not one attributable to the *aligned*
    // witness row, so Copy-CS conservatively drops them.)
    let mut copy_sets: Vec<BTreeSet<usize>> = group_plus
        .iter()
        .map(|g| expr_copy_set(g, &rt.copy_sets))
        .collect();
    copy_sets.resize(n_out, BTreeSet::new());

    let provenance: Vec<usize> = (n_in..n_in + p).collect();
    let plan = if rt.keeps_multiplicity {
        let aggs_plus = aggs
            .iter()
            .map(|a| AggCall {
                func: a.func,
                arg: a.arg.as_ref().map(|e| rt.remap(e)),
                distinct: a.distinct,
            })
            .collect();
        LogicalPlan::aggregate_annotate(rt.plan, group_plus, aggs_plus, schema, provenance)
    } else {
        join_back(original.clone(), &group_plus, rt.plan, &provenance)?
    };

    Ok(Rewritten {
        plan,
        orig: (0..n_out).collect(),
        prov: (n_out..n_out + p).collect(),
        attrs: rt.attrs,
        copy_sets,
        keeps_multiplicity: false,
    })
}
