//! `server_mixed`: a reader and a writer on one durable `PermServer`.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

use perm_core::{PermServer, Prepared};
use perm_types::{Tuple, Value};

use perfbench::checksum::Checksum;
use perfbench::ops;
use perfbench::rng::SplitMix64;
use perfbench::stats::median;
use perfbench::stmts::{self, Stmt, STREAM_PAGE, STREAM_TEMPLATE};
use perfbench::trace::{write_tsv, SpanTable, Tracer};

use super::common::*;

/// The server's execution memory budget: below `prov_agg_joinback`'s
/// unbudgeted pool peak on this data, so that query spills while the
/// other reads fit.
pub const MEMORY_BUDGET: usize = 1 << 20;

/// Completions per second the clients' logs hold without growing (the
/// writer reads back once per five commits).
const READER_MAX_RATE: f64 = 1_000.0;
const WRITER_MAX_RATE: f64 = 1_000.0;

/// Client A: the five prepared `provenance_join` reads and a streamed
/// first page, round-robin.
fn reader(
    env: &Env,
    server: &PermServer,
    prepared: &[Prepared],
    templates: &[Stmt],
    schedule: &Schedule,
) -> (Tracer, Log) {
    let mut c = Client::new(env, server, 0, (READER_MAX_RATE, 0.0));
    let mut rng = SplitMix64::new(env.seed ^ 0xA11CE);
    for k in stmts::round_robin(env.seed, prepared.len() + 1) {
        if schedule.done() {
            break;
        }
        c.follow(schedule);
        let traced = schedule.traced_now();
        c.log.attempted += 1;
        let start = Instant::now();
        if let Some(p) = prepared.get(k) {
            let result = if traced {
                c.tracer.begin_op();
                let session = &c.session;
                c.tracer.timed("op.prepared", |t| {
                    ops::traced_prepared(t, server, session, p)
                })
            } else {
                p.execute().map(|r| r.rows)
            };
            let sample = Sample::now(templates[k].template, start, traced);
            match result {
                Ok(rows) => {
                    c.log.reads.push(sample);
                    c.log.ops[traced as usize] += 1;
                    if traced {
                        c.log.traced_rows += rows.len() as u64;
                        // Releasing a large result is the client's work
                        // too; keep it inside a span so coverage holds.
                        c.tracer.timed("bench.release", |_| drop(rows));
                    }
                }
                Err(e) => c.log.error(templates[k].template, &e),
            }
        } else {
            let stmt = stmts::mixed_stream_statement(&mut rng);
            let result = if traced {
                c.tracer.begin_op();
                let session = &c.session;
                c.tracer.timed("op.stream", |t| {
                    ops::traced_stream_page(t, server, session, &stmt.sql, STREAM_PAGE)
                })
            } else {
                ops::stream_page(&c.session, &stmt.sql, STREAM_PAGE)
            };
            let sample = Sample::now(STREAM_TEMPLATE, start, traced);
            match result {
                Ok((rows, scanned)) => {
                    c.log.reads.push(sample);
                    c.log.ops[traced as usize] += 1;
                    c.log.stream_scanned += scanned as u64;
                    c.log.stream_rows += rows.len() as u64;
                    if traced {
                        c.log.traced_rows += rows.len() as u64;
                        c.split_bind(&stmt);
                    }
                    if rows.len() != STREAM_PAGE {
                        c.log.failures.add(format!(
                            "{STREAM_TEMPLATE}: first page has {} rows, expected {STREAM_PAGE}",
                            rows.len()
                        ));
                    }
                }
                Err(e) => c.log.error(STREAM_TEMPLATE, &e),
            }
        }
    }
    (c.tracer, c.log)
}

/// Commit one write; failures are logged.
fn write(c: &mut Client, sql: &str, traced: bool, meter: &mut DiskMeter) -> bool {
    c.log.attempted += 1;
    let t = if traced {
        Some((&mut c.tracer, meter))
    } else {
        None
    };
    let start = Instant::now();
    match commit(&c.session, sql, t) {
        Ok(()) => {
            c.log.writes.push(Sample::now("write", start, traced));
            c.log.ops[traced as usize] += 1;
            true
        }
        Err(e) => {
            c.log.error("write", &e);
            false
        }
    }
}

/// Does a read-your-writes result show exactly the cycle's writes?
fn ryw_ok(cycle: &stmts::WriteCycle, rows: &[Tuple], names: &HashMap<i64, String>) -> bool {
    let [row] = rows else { return false };
    let v = row.values();
    if cycle.ryw_join {
        let name = names.get(&cycle.author).map(String::as_str);
        matches!(&v[0], Value::Text(t) if **t == *cycle.text)
            && matches!(&v[1], Value::Text(n) if Some(&**n) == name)
    } else {
        v[0] == Value::Int(cycle.mid) && v[1] == Value::Int(1)
    }
}

/// Client B: insert, rename, read back with provenance, delete.
fn writer(
    env: &Env,
    server: &PermServer,
    schedule: &Schedule,
    users: usize,
    mut names: HashMap<i64, String>,
    meter: &mut DiskMeter,
) -> (Tracer, Log, HashMap<i64, String>) {
    let mut c = Client::new(env, server, 1, (WRITER_MAX_RATE / 5.0, WRITER_MAX_RATE));
    for cycle in stmts::WriteStream::new(env.seed, users) {
        if schedule.done() {
            break;
        }
        c.follow(schedule);
        let [m, a, u] = cycle.writes_before();
        write(&mut c, &m, schedule.traced_now(), meter);
        write(&mut c, &a, schedule.traced_now(), meter);
        if write(&mut c, &u, schedule.traced_now(), meter) {
            names.insert(cycle.renamed_uid, cycle.new_name.clone());
        }
        let ryw = cycle.ryw();
        let traced = schedule.traced_now();
        if let Some(rows) = c.query(&ryw, traced) {
            let ok = if traced {
                c.tracer
                    .timed("bench.verify", |_| ryw_ok(&cycle, &rows, &names))
            } else {
                ryw_ok(&cycle, &rows, &names)
            };
            if !ok {
                c.log.failures.add(format!(
                    "{}: did not read its own writes: {rows:?}",
                    ryw.template
                ));
            }
        }
        for sql in cycle.writes_after() {
            write(&mut c, &sql, schedule.traced_now(), meter);
        }
    }
    (c.tracer, c.log, names)
}

/// Execute `p` alternately with the budget and without it; the ratio of
/// median times.
fn spill_slowdown(server: &PermServer, p: &Prepared, failures: &mut Failures) -> f64 {
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..5 {
        for (slot, budget) in [Some(MEMORY_BUDGET), None].into_iter().enumerate() {
            server.set_memory_budget(budget);
            let start = Instant::now();
            if let Err(e) = p.execute() {
                failures.add(format!("spill probe: {e}"));
            }
            times[slot].push(start.elapsed().as_secs_f64());
        }
    }
    server.set_memory_budget(Some(MEMORY_BUDGET));
    median(&times[0]) / median(&times[1])
}

pub fn run(env: &Env, trace_out: &Path) -> Outcome {
    let mut failures = Failures::default();
    let reads = stmts::mixed_prepared();
    let mut setup_tracer = Tracer::new(env.base, 100);
    let reps = env.trace.then_some(1);
    let setup = setup_repeated(
        env,
        &stmts::MIXED_DATA,
        reps,
        env.trace.then_some(&mut setup_tracer),
        false,
        |loaded, mut t| {
            loaded.server.set_memory_budget(Some(MEMORY_BUDGET));
            let session = loaded.server.session();
            let mut prepared = Vec::new();
            for s in &reads {
                let p = match t.as_deref_mut() {
                    Some(t) => t.span("core.prepare", |_| session.prepare(&s.sql)),
                    None => session.prepare(&s.sql),
                };
                prepared.push(p.map_err(|e| format!("{}: prepare: {e}", s.template))?);
            }
            Ok(prepared)
        },
    );
    let (loaded, prepared, setup_s) = match setup {
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
    let Loaded { server, dir, .. } = loaded;
    let session = server.session();
    let mut meter = DiskMeter::new(&dir);

    let before = server.snapshot();
    let names: HashMap<i64, String> = before
        .table("users")
        .map(|t| {
            t.rows()
                .iter()
                .filter_map(|r| match r.values() {
                    [Value::Int(u), Value::Text(n)] => Some((*u, n.to_string())),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default();
    let sizes = |c: &perm_storage::Catalog| {
        ["messages", "approved", "users"].map(|t| c.table(t).map_or(0, |t| t.row_count()))
    };
    let initial_sizes = sizes(&before);
    drop(before);
    for p in &prepared {
        let _ = p.execute();
    }

    let schedule = Schedule::new(env);
    let users = names.len();
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| reader(env, &server, &prepared, &reads, &schedule));
        let b = s.spawn(|| writer(env, &server, &schedule, users, names, &mut meter));
        (a.join(), b.join())
    });
    let peak_rss = peak_rss_mb();
    let pool_peak = server.memory_pool().peak() as f64;
    let (Ok((a_tracer, mut a_log)), Ok((b_tracer, mut b_log, names))) = (a, b) else {
        failures.add("a client thread panicked");
        return Outcome {
            attempted: 1,
            failures,
            metrics: Vec::new(),
            notes: Vec::new(),
        };
    };

    // Quiesced: every read against the reference on the final state.
    let mut finals: Vec<Stmt> = reads.clone();
    finals.push(stmts::mixed_stream_statement(&mut SplitMix64::new(
        env.seed,
    )));
    for (i, s) in finals.iter().enumerate() {
        let got = match prepared.get(i) {
            Some(p) => p.execute().map(|r| r.rows),
            None => ops::stream_page(&session, &s.sql, STREAM_PAGE).map(|(rows, _)| rows),
        };
        match (got, ops::reference_rows(&session, &s.sql, false)) {
            (Ok(g), Ok(r)) if Checksum::of_rows(&g) == Checksum::of_rows(&r) => {}
            (Ok(_), Ok(_)) => failures.add(format!(
                "{}: final read differs from the reference",
                s.template
            )),
            (Err(e), _) | (_, Err(e)) => failures.add(format!("{}: final read: {e}", s.template)),
        }
    }
    let after = server.snapshot();
    if sizes(&after) != initial_sizes {
        failures.add(format!(
            "table sizes drifted: {:?} -> {:?}",
            initial_sizes,
            sizes(&after)
        ));
    }
    if let Ok(users) = after.table("users") {
        for r in users.rows() {
            if let [Value::Int(u), Value::Text(n)] = r.values() {
                if names.get(u).map(String::as_str) != Some(&**n) {
                    failures.add(format!("user {u}: acknowledged rename missing"));
                }
            }
        }
    }
    drop(after);

    let mut probe = Tracer::new(env.base, 101);
    let (facts, speedup, slowdown) = if env.trace {
        let facts = statement_facts(env, &server, &session, &finals, &mut failures);
        let prepared_facts: Vec<FactRow> = facts
            .iter()
            .filter(|f| f.stmt.template != STREAM_TEMPLATE)
            .cloned()
            .collect();
        let speedup = parallel_speedup(&server, &session, &prepared_facts, &mut failures);
        let slowdown = spill_slowdown(&server, &prepared[1], &mut failures);
        (facts, speedup, slowdown)
    } else {
        (Vec::new(), 0.0, 0.0)
    };

    drop(prepared);
    drop(session);
    let hyg = hygiene(server, &dir, &mut failures, env.trace.then_some(&mut probe));
    failures.merge(std::mem::take(&mut a_log.failures));
    failures.merge(std::mem::take(&mut b_log.failures));
    let attempted = a_log.attempted + b_log.attempted;

    let mut notes = Vec::new();
    let metrics = if env.trace {
        let table = SpanTable::new(vec![
            setup_tracer.into_spans(),
            a_tracer.into_spans(),
            b_tracer.into_spans(),
            probe.into_spans(),
        ]);
        if let Err(e) = write_tsv(trace_out, &table) {
            eprintln!("# writing {}: {e}", trace_out.display());
        }
        per_layer(&LayerInput {
            table: &table,
            logs: vec![&a_log, &b_log],
            schedule: &schedule,
            base: env.base,
            threads: 2,
            facts: &facts,
            overhead: Vec::new(),
            speedup,
            spill_slowdown: slowdown,
            pool_peak,
            meter: &meter,
            hygiene: &hyg,
        })
    } else {
        let logs = [&a_log, &b_log];
        let (metrics, slices) = end_to_end(&setup_s, &logs, &schedule, peak_rss);
        notes = vec![slices, write_note(&logs)];
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
