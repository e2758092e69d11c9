//! `browse_small` and `paper_overhead`: one client sending one-shot
//! `Session::query` calls in a closed loop.

use std::collections::{HashMap, HashSet};
use std::path::Path;

use perfbench::checksum::Checksum;
use perfbench::data::DataSpec;
use perfbench::ops;
use perfbench::stats::{geomean, median};
use perfbench::stmts::{self, Stmt};
use perfbench::trace::{write_tsv, SpanTable, Tracer};

use super::common::*;

/// One one-shot workload.
pub struct OneShot {
    pub data: DataSpec,
    pub stmts: Vec<Stmt>,
    pub order: Box<dyn Iterator<Item = usize>>,
    /// Reference answers from nested-loop joins (feasible at small
    /// scale only); otherwise from the planner's joins, still serial and
    /// row-at-a-time.
    pub nested_loop_reference: bool,
    /// Report the overhead study's q+/q factors.
    pub overhead: bool,
    /// Completions per second the client's log holds without growing.
    pub max_rate: f64,
}

pub fn browse_small(seed: u64) -> OneShot {
    let pool = stmts::browse_pool(seed);
    let len = pool.len();
    OneShot {
        data: stmts::BROWSE_DATA,
        stmts: pool,
        order: Box::new(stmts::PoolStream::new(seed, len)),
        nested_loop_reference: true,
        overhead: false,
        max_rate: 8_000.0,
    }
}

pub fn paper_overhead(seed: u64) -> OneShot {
    let all = stmts::paper_statements();
    let len = all.len();
    OneShot {
        data: stmts::PAPER_DATA,
        stmts: all,
        order: Box::new(stmts::round_robin(seed, len)),
        nested_loop_reference: false,
        overhead: true,
        max_rate: 1_000.0,
    }
}

/// Median untraced q+ latency over median untraced q latency per class,
/// plus their geometric mean.
fn overhead_factors(reads: &[Sample]) -> Vec<(&'static str, f64)> {
    let mut by_template: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in reads.iter().filter(|s| !s.traced) {
        by_template.entry(s.template).or_default().push(s.ms);
    }
    let mut out = Vec::new();
    for class in [
        "spj", "agg", "setop", "nested", "tpch_q1", "tpch_q3", "tpch_q4",
    ] {
        let q = by_template.get(format!("{class}.q").as_str());
        let qp = by_template.get(format!("{class}.q+").as_str());
        if let (Some(q), Some(qp)) = (q, qp) {
            out.push((class, median(qp) / median(q)));
        }
    }
    let g = geomean(&out.iter().map(|(_, x)| *x).collect::<Vec<_>>());
    out.push(("geomean", g));
    out
}

pub fn run(env: &Env, w: OneShot, trace_out: &Path) -> Outcome {
    let mut failures = Failures::default();
    let mut setup_tracer = Tracer::new(env.base, 100);
    let reps = env.trace.then_some(1);
    let setup = setup_repeated(
        env,
        &w.data,
        reps,
        env.trace.then_some(&mut setup_tracer),
        true,
        |_, _| Ok(()),
    );
    let (loaded, (), setup_s) = match setup {
        Ok(s) => s,
        Err(e) => {
            failures.add(e);
            return Outcome {
                attempted: 1,
                failures,
                metrics: Vec::new(),
                notes: Vec::new(),
            };
        }
    };
    let Loaded {
        server, dir, meter, ..
    } = loaded;
    let session = server.session();

    // Reference answers, before any timing.
    let refs: Vec<Checksum> = w
        .stmts
        .iter()
        .map(
            |s| match ops::reference_rows(&session, &s.sql, w.nested_loop_reference) {
                Ok(rows) => Checksum::of_rows(&rows),
                Err(e) => {
                    failures.add(format!("{}: reference: {e}", s.template));
                    Checksum::default()
                }
            },
        )
        .collect();
    let firsts = first_per_template(&w.stmts);
    for s in &firsts {
        let _ = session.query(&s.sql);
    }

    let mut client = Client::new(env, &server, 0, (w.max_rate, 0.0));
    let schedule = Schedule::new(env);
    let mut order = w.order;
    while !schedule.done() {
        client.follow(&schedule);
        let i = order.next().expect("statement streams are endless");
        let traced = schedule.traced_now();
        let stmt = &w.stmts[i];
        if let Some(rows) = client.query(stmt, traced) {
            client.verify(stmt.template, rows, &refs[i], traced);
        }
    }
    let peak_rss = peak_rss_mb();
    let pool_peak = server.memory_pool().peak() as f64;

    let mut probe = Tracer::new(env.base, 101);
    let (facts, speedup) = if env.trace {
        let mut seen = HashSet::new();
        let distinct: Vec<Stmt> = w
            .stmts
            .iter()
            .filter(|s| seen.insert(s.sql.clone()))
            .cloned()
            .collect();
        let facts = statement_facts(env, &server, &session, &distinct, &mut failures);
        prepare_probe(&mut probe, &session, &firsts, &mut failures);
        let first_sql: HashSet<&str> = firsts.iter().map(|s| s.sql.as_str()).collect();
        let first_facts: Vec<FactRow> = facts
            .iter()
            .filter(|f| first_sql.contains(f.stmt.sql.as_str()))
            .cloned()
            .collect();
        let speedup = parallel_speedup(&server, &session, &first_facts, &mut failures);
        (facts, speedup)
    } else {
        (Vec::new(), 0.0)
    };

    let Client {
        tracer, mut log, ..
    } = client;
    drop(session);
    let hyg = hygiene(server, &dir, &mut failures, env.trace.then_some(&mut probe));
    failures.merge(std::mem::take(&mut log.failures));
    let attempted = log.attempted;

    let mut notes = Vec::new();
    let metrics = if env.trace {
        let table = SpanTable::new(vec![
            setup_tracer.into_spans(),
            tracer.into_spans(),
            probe.into_spans(),
        ]);
        if let Err(e) = write_tsv(trace_out, &table) {
            eprintln!("# writing {}: {e}", trace_out.display());
        }
        per_layer(&LayerInput {
            table: &table,
            logs: vec![&log],
            schedule: &schedule,
            base: env.base,
            threads: 1,
            facts: &facts,
            overhead: if w.overhead {
                overhead_factors(&log.reads)
            } else {
                Vec::new()
            },
            speedup,
            spill_slowdown: 0.0,
            pool_peak,
            meter: &meter,
            hygiene: &hyg,
        })
    } else {
        let (metrics, slices) = end_to_end(&setup_s, &[&log], &schedule, peak_rss);
        notes = vec![slices];
        metrics
    };
    check_coverage(&metrics, &mut failures);
    Outcome {
        attempted,
        failures,
        metrics,
        notes,
    }
}
