//! # perm-bench
//!
//! Workload generators and measurement helpers for the Perm reproduction's
//! evaluation harness. See `src/bin/harness.rs` for the per-figure
//! reproduction binary and `benches/` for the Criterion benchmarks.

#![forbid(unsafe_code)]

pub mod hotpath;
pub mod tpch;
pub mod workload;

use std::time::{Duration, Instant};

use perm_core::PermDb;

pub use tpch::{tpch, TpchQuery};
pub use workload::{forum, star, QueryClass, STAR_REPORT};

/// Median wall-clock time of `runs` executions of `sql` (the first run is
/// discarded as warm-up).
pub fn time_query(db: &mut PermDb, sql: &str, runs: usize) -> Duration {
    let _ = db.query(sql).expect("query is valid");
    let mut samples: Vec<Duration> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            let _ = db.query(sql).expect("query is valid");
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Overhead factor of the provenance query over the original query.
pub fn overhead_factor(
    db: &mut PermDb,
    class: QueryClass,
    runs: usize,
) -> (Duration, Duration, f64) {
    let orig = time_query(db, class.original_sql(), runs);
    let prov = time_query(db, &class.provenance_sql(), runs);
    let factor = prov.as_secs_f64() / orig.as_secs_f64().max(1e-9);
    (orig, prov, factor)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_return_positive_durations() {
        let mut db = forum(50, 5);
        let t = time_query(&mut db, "SELECT count(*) FROM messages", 3);
        assert!(t.as_nanos() > 0);
        let (orig, prov, factor) = overhead_factor(&mut db, QueryClass::Spj, 3);
        assert!(orig.as_nanos() > 0);
        assert!(prov.as_nanos() > 0);
        assert!(factor > 0.0);
    }

    /// The overhead study's aggregation plans: over an SPJ input the
    /// rewrite evaluates T+ once through the fused group-and-annotate
    /// operator; over a sublink (TPC-H Q4) or a union view (the §2.4
    /// listing) it keeps the LEFT join-back.
    #[test]
    fn aggregation_provenance_plan_shapes() {
        fn explain(db: &mut PermDb, sql: &str) -> String {
            let rows = db.query(&format!("EXPLAIN {sql}")).unwrap().rows;
            let lines: Vec<String> = rows.iter().map(|r| r.get(0).to_string()).collect();
            lines.join("\n")
        }
        let fused = |plan: &str| plan.contains("annotate=") && !plan.contains("Join(Left");
        let mut forum_db = forum(200, 3);
        let plan = explain(&mut forum_db, &QueryClass::Aggregation.provenance_sql());
        assert!(fused(&plan), "agg.q+:\n{plan}");
        // T+ (messages ⋈ approved) is evaluated once.
        assert_eq!(plan.matches("(approved)").count(), 1, "agg.q+:\n{plan}");

        let mut tpch_db = tpch(300, 13);
        for q in [TpchQuery::PricingSummary, TpchQuery::ShippingPriority] {
            let plan = explain(&mut tpch_db, &q.provenance_sql());
            assert!(fused(&plan), "{}:\n{plan}", q.name());
            assert_eq!(
                plan.matches("(lineitem)").count(),
                1,
                "{}:\n{plan}",
                q.name()
            );
        }
        let plan = explain(&mut tpch_db, &TpchQuery::OrderPriority.provenance_sql());
        assert!(
            plan.contains("Join(Left"),
            "Q4 keeps its join-back:\n{plan}"
        );

        let mut paper_db = perm_core::fixtures::forum_db();
        let plan = explain(&mut paper_db, perm_core::fixtures::SEC24_PROVENANCE_AGG);
        assert!(
            plan.contains("Join(Left"),
            "§2.4 keeps its join-back:\n{plan}"
        );
    }
}
