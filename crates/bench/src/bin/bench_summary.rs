//! Machine-readable benchmark summary emitter.
//!
//! Runs the hot-path workload (the same queries as the
//! `scan_project_filter` and `provenance_join` Criterion benches) in a
//! quick mode and emits results for trajectory tracking:
//!
//! ```text
//! # capture a raw baseline (run at the *old* revision)
//! cargo run --release -p perm-bench --bin bench_summary -- --raw baseline.txt
//! # after the change: merge the baseline and write the JSON summary
//! cargo run --release -p perm-bench --bin bench_summary -- \
//!     --baseline baseline.txt --out BENCH_3.json
//! ```
//!
//! The raw format is one `group/name=milliseconds` line per query; the
//! JSON summary records before/after medians and the speedup factor.
//!
//! `--memory-budget BYTES` caps the server-wide execution memory pool
//! for the run (0 = unbounded), so the spilling paths can be measured
//! under the same harness. The summary always records the budget and
//! the pool's observed peak (`memory_budget` / `peak_pool_bytes`).

use std::collections::BTreeMap;
use std::time::Instant;

use perm_bench::hotpath;
use perm_core::{DurabilityOptions, FsyncPolicy, PermServer, SessionOptions};

/// Median wall-clock milliseconds of `runs` prepared executions (two
/// warm-up runs are discarded).
fn measure(prepared: &perm_core::Prepared, runs: usize) -> f64 {
    for _ in 0..2 {
        prepared.execute().expect("warm-up run succeeds");
    }
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(prepared.execute().expect("measured run succeeds"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

/// Run the hot-path workload under `memory_budget` (0 = unbounded).
/// Returns the per-query medians plus the pool's peak usage in bytes.
fn run_workload(runs: usize, memory_budget: usize) -> (Vec<(String, f64)>, usize) {
    let db = hotpath::hotpath_db();
    let server = db.server();
    if memory_budget > 0 {
        server.set_memory_budget(Some(memory_budget));
    }
    let session = server.session();
    let results = hotpath::all_queries()
        .into_iter()
        .map(|(group, name, sql)| {
            let prepared = session
                .prepare(&sql)
                .unwrap_or_else(|e| panic!("{group}/{name} fails to prepare: {e}"));
            let ms = measure(&prepared, runs);
            eprintln!("{group}/{name}: {ms:.3} ms");
            (format!("{group}/{name}"), ms)
        })
        .collect();
    (results, server.memory_pool().peak())
}

/// The columnar A/B workload: every hot-path query once with batch
/// execution (the default) and once with the row interpreter
/// ([`SessionOptions::with_columnar`] off), on the same server. The
/// row path is the reference semantics, so this section is the
/// measured answer to "what does the batch layer buy per bench".
fn run_columnar_workload(runs: usize) -> Vec<(String, [f64; 2])> {
    let db = hotpath::hotpath_db();
    let server = db.server();
    let batch_session = server.session();
    let row_session = server.session_with_options(SessionOptions::default().with_columnar(false));
    hotpath::all_queries()
        .into_iter()
        .map(|(group, name, sql)| {
            let mut ms = [0.0f64; 2];
            for (slot, session) in [&row_session, &batch_session].into_iter().enumerate() {
                let prepared = session
                    .prepare(&sql)
                    .unwrap_or_else(|e| panic!("columnar/{group}/{name} fails to prepare: {e}"));
                ms[slot] = measure(&prepared, runs);
            }
            eprintln!(
                "columnar/{group}/{name}: row {:.3} ms, batch {:.3} ms",
                ms[0], ms[1]
            );
            (format!("{group}/{name}"), ms)
        })
        .collect()
}

/// The DOP-scaling workload: each query at DOP 1, 2 and 4 over the
/// larger [`hotpath::PARALLEL_SCALE`] forum. Returns
/// `(name, [ms at dop 1, 2, 4])` per query.
fn run_parallel_workload(runs: usize, memory_budget: usize) -> Vec<(String, [f64; 3])> {
    let db = hotpath::parallel_db();
    if memory_budget > 0 {
        db.server().set_memory_budget(Some(memory_budget));
    }
    hotpath::parallel_scaling_queries()
        .into_iter()
        .map(|(name, sql)| {
            let mut ms = [0.0f64; 3];
            for (slot, dop) in [1usize, 2, 4].into_iter().enumerate() {
                let session = hotpath::parallel_session(&db, dop);
                let prepared = session
                    .prepare(&sql)
                    .unwrap_or_else(|e| panic!("parallel_scaling/{name} fails to prepare: {e}"));
                ms[slot] = measure(&prepared, runs);
                eprintln!("parallel_scaling/{name}/dop{dop}: {:.3} ms", ms[slot]);
            }
            (name.to_string(), ms)
        })
        .collect()
}

/// How many cancellation-latency samples the lifecycle workload takes.
const CANCEL_SAMPLES: usize = 30;

/// The query-lifecycle workload (PR 10): how fast a cancel lands.
///
/// A wide streaming provenance join over the [`hotpath::PARALLEL_SCALE`]
/// forum is started as a stream at DOP 2; after the first row arrives a
/// [`perm_core::CancelHandle`] fires and the clock runs until the typed
/// `cancelled` error surfaces — the end-to-end cancellation latency
/// through the cooperative checks (morsel claims, batch boundaries, the
/// stream's pull loop). Returns `[p50_ms, p95_ms]` over
/// [`CANCEL_SAMPLES`] runs.
///
/// The *cost* side of the lifecycle machinery needs no run of its own:
/// the per-batch/per-row token checks are always on, so their overhead
/// is visible as the delta of `scan_project_filter/filter_arith` and
/// `provenance_join/prov_agg_joinback` in `benches` against the
/// previous issue's summary (`BENCH_9.json`).
fn run_lifecycle_workload() -> [f64; 2] {
    let db = hotpath::parallel_db();
    let session = hotpath::parallel_session(&db, 2);
    let sql = hotpath::parallel_scaling_queries()
        .into_iter()
        .find(|(name, _)| *name == "prov_3join_wide")
        .map(|(_, sql)| sql)
        .expect("the scaling workload includes prov_3join_wide");
    let mut lat: Vec<f64> = (0..CANCEL_SAMPLES)
        .map(|_| {
            let mut stream = session.query_stream(&sql).expect("lifecycle query streams");
            let first = stream
                .next()
                .expect("the join yields rows")
                .expect("first row is not an error");
            std::hint::black_box(first);
            let handle = stream.cancel_handle();
            let start = Instant::now();
            handle.cancel();
            loop {
                match stream.next() {
                    Some(Ok(_)) => continue,
                    Some(Err(e)) => {
                        assert_eq!(e.kind(), "cancelled", "{e}");
                        break;
                    }
                    None => panic!("stream ended without surfacing the cancellation"),
                }
            }
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    lat.sort_by(|a, b| a.total_cmp(b));
    let p50 = lat[lat.len() / 2];
    let p95 = lat[(lat.len() * 95 / 100).min(lat.len() - 1)];
    eprintln!("lifecycle/cancel_latency: p50 {p50:.3} ms, p95 {p95:.3} ms");
    [p50, p95]
}

/// How many statements each durability micro-bench covers.
const WAL_APPEND_BATCH: usize = 100;
const RECOVERY_REPLAY_STATEMENTS: usize = 200;

/// The durability micro-benches (PR 8): `wal_append` measures the
/// logical-WAL commit path (append + frame + rollback bookkeeping,
/// fsync off so the framing cost is visible, not the disk), and
/// `recovery_replay` measures a cold `PermServer::open` replaying a
/// WAL tail through the full parse → plan → execute pipeline.
fn run_durability_workload(runs: usize) -> Vec<(String, f64)> {
    let dir = std::env::temp_dir().join(format!("perm-bench-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DurabilityOptions::default()
        .with_fsync(FsyncPolicy::Never)
        .with_checkpoint_every(0);

    // wal_append: one batch of single-row INSERT commits per sample.
    let server = PermServer::open_with(&dir, opts.clone()).expect("durability bench dir opens");
    let session = server.session();
    session
        .execute("CREATE TABLE bench_wal (id int, payload text)")
        .expect("bench table creates");
    let mut append_samples: Vec<f64> = Vec::new();
    for run in 0..runs + 2 {
        let start = Instant::now();
        for i in 0..WAL_APPEND_BATCH {
            session
                .execute(&format!(
                    "INSERT INTO bench_wal VALUES ({i}, 'payload-{i}')"
                ))
                .expect("bench insert commits");
        }
        // Two warm-up batches are discarded.
        if run >= 2 {
            append_samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    append_samples.sort_by(|a, b| a.total_cmp(b));
    let wal_append_ms = append_samples[append_samples.len() / 2];
    eprintln!("durability/wal_append: {wal_append_ms:.3} ms per {WAL_APPEND_BATCH} commits");
    drop(session);
    drop(server);

    // recovery_replay: a fixed WAL tail, re-opened cold per sample.
    let _ = std::fs::remove_dir_all(&dir);
    {
        let server = PermServer::open_with(&dir, opts.clone()).expect("replay bench dir opens");
        let session = server.session();
        session
            .execute("CREATE TABLE bench_replay (id int, payload text)")
            .expect("replay table creates");
        for i in 0..RECOVERY_REPLAY_STATEMENTS - 1 {
            session
                .execute(&format!(
                    "INSERT INTO bench_replay VALUES ({i}, 'payload-{i}')"
                ))
                .expect("replay insert commits");
        }
    }
    let mut replay_samples: Vec<f64> = Vec::new();
    for run in 0..runs + 2 {
        let start = Instant::now();
        let server = PermServer::open_with(&dir, opts.clone()).expect("replay bench re-opens");
        assert!(!server.is_read_only(), "replay bench WAL must be clean");
        if run >= 2 {
            replay_samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    replay_samples.sort_by(|a, b| a.total_cmp(b));
    let replay_ms = replay_samples[replay_samples.len() / 2];
    eprintln!(
        "durability/recovery_replay: {replay_ms:.3} ms per {RECOVERY_REPLAY_STATEMENTS} statements"
    );
    let _ = std::fs::remove_dir_all(&dir);

    vec![
        (
            format!("wal_append/{WAL_APPEND_BATCH}_commits"),
            wal_append_ms,
        ),
        (
            format!("recovery_replay/{RECOVERY_REPLAY_STATEMENTS}_statements"),
            replay_ms,
        ),
    ]
}

/// Parse the raw `key=ms` baseline format written by `--raw`.
fn parse_baseline(text: &str) -> BTreeMap<String, f64> {
    text.lines()
        .filter_map(|line| {
            let (k, v) = line.trim().split_once('=')?;
            Some((k.to_string(), v.parse::<f64>().ok()?))
        })
        .collect()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Validate the summary before it is written or printed: a malformed
/// body or a non-positive measurement must fail the run (exit 1), not
/// poison the trajectory data downstream tooling ingests.
///
/// One parameter per summary section keeps the checks independent;
/// bundling them into a struct would only move the argument list.
#[allow(clippy::too_many_arguments)]
fn validate_summary(
    body: &str,
    host_parallelism: usize,
    results: &[(String, f64)],
    before: &BTreeMap<String, f64>,
    parallel: &[(String, [f64; 3])],
    durability: &[(String, f64)],
    columnar: &[(String, [f64; 2])],
    memory_budget: usize,
    peak_pool_bytes: usize,
) -> Result<(), String> {
    for key in [
        "\"issue\"",
        "\"workload\"",
        "\"unit\"",
        "\"host_parallelism\"",
        "\"memory_budget\"",
        "\"peak_pool_bytes\"",
        "\"benches\"",
        "\"parallel_scaling\"",
        "\"durability\"",
        "\"columnar\"",
        "\"lifecycle\"",
    ] {
        if !body.contains(key) {
            return Err(format!("summary is missing required key {key}"));
        }
    }
    if memory_budget > 0 && peak_pool_bytes > memory_budget {
        return Err(format!(
            "pool peak {peak_pool_bytes} exceeds the {memory_budget}-byte budget; \
             the budget is supposed to be a hard ceiling"
        ));
    }
    let opens = body.matches('{').count();
    let closes = body.matches('}').count();
    if opens != closes {
        return Err(format!(
            "unbalanced JSON braces ({opens} open, {closes} close)"
        ));
    }
    if host_parallelism < 1 {
        return Err("host_parallelism must be >= 1".into());
    }
    if results.is_empty() {
        return Err("no benchmark results emitted".into());
    }
    for (key, ms) in results {
        if !ms.is_finite() || *ms <= 0.0 {
            return Err(format!("non-positive timing for {key}: {ms}"));
        }
        if let Some(b) = before.get(key) {
            if !b.is_finite() || *b <= 0.0 {
                return Err(format!("non-positive baseline timing for {key}: {b}"));
            }
        }
    }
    for (name, ms) in parallel {
        if ms.iter().any(|m| !m.is_finite() || *m <= 0.0) {
            return Err(format!("non-positive parallel timing for {name}: {ms:?}"));
        }
    }
    for (name, ms) in durability {
        if !ms.is_finite() || *ms <= 0.0 {
            return Err(format!("non-positive durability timing for {name}: {ms}"));
        }
    }
    for (name, ms) in columnar {
        if ms.iter().any(|m| !m.is_finite() || *m <= 0.0) {
            return Err(format!("non-positive columnar timing for {name}: {ms:?}"));
        }
    }
    check_joinback_regression(results)?;
    Ok(())
}

/// Validate the lifecycle section's cancellation-latency percentiles: a
/// non-positive or non-finite latency means the measurement loop broke,
/// and p95 below p50 means the percentile math did.
fn check_cancel_latency(lat: &[f64; 2]) -> Result<(), String> {
    if lat.iter().any(|ms| !ms.is_finite() || *ms <= 0.0) {
        return Err(format!("non-positive cancellation latency: {lat:?}"));
    }
    if lat[1] < lat[0] {
        return Err(format!(
            "cancellation latency p95 {:.4} below p50 {:.4}",
            lat[1], lat[0]
        ));
    }
    Ok(())
}

/// How many times slower than its sibling provenance benches
/// `prov_agg_joinback` may run before the summary is rejected.
///
/// The joinback query (hash join → grouped aggregate → join-back, the
/// aggregation rewrite of the Perm paper's Figure 10) runs over the same
/// forum data as the other `provenance_join` benches, so the *ratio*
/// between them is host-speed-independent. Per-row overhead that creeps
/// into its longer pipeline shows up here first: the PR 7–8 regression
/// (9.8 ms → 15.9 ms) pushed the ratio to 13.2× while every absolute
/// number still looked plausible on a faster host.
///
/// Since the rewrite evaluates this query's join-back as one fused
/// group-and-annotate pass, three 5-run summaries on a 2-vCPU host
/// measured ratios of 7.8, 9.0 and 9.8 (the literal join-back measured
/// 10.2–11.3 on the same host); the limit is the worst of them plus a
/// 12% margin for runner noise.
const JOINBACK_RATIO_LIMIT: f64 = 11.0;

/// Regression guard for `provenance_join/prov_agg_joinback`: compare it
/// against the median of the other `provenance_join` benches and reject
/// the summary when the ratio exceeds [`JOINBACK_RATIO_LIMIT`]. Skipped
/// when the workload lacks the bench or has fewer than two siblings to
/// form a meaningful median.
fn check_joinback_regression(results: &[(String, f64)]) -> Result<(), String> {
    const JOINBACK: &str = "provenance_join/prov_agg_joinback";
    let Some(&(_, joinback)) = results.iter().find(|(k, _)| k == JOINBACK) else {
        return Ok(());
    };
    let mut siblings: Vec<f64> = results
        .iter()
        .filter(|(k, _)| k.starts_with("provenance_join/") && k != JOINBACK)
        .map(|&(_, ms)| ms)
        .collect();
    if siblings.len() < 2 {
        return Ok(());
    }
    siblings.sort_by(|a, b| a.total_cmp(b));
    let mid = siblings.len() / 2;
    let median = if siblings.len().is_multiple_of(2) {
        (siblings[mid - 1] + siblings[mid]) / 2.0
    } else {
        siblings[mid]
    };
    let ratio = joinback / median.max(1e-9);
    if ratio > JOINBACK_RATIO_LIMIT {
        return Err(format!(
            "{JOINBACK} at {joinback:.3} ms is {ratio:.1}x the {median:.3} ms median of its              sibling provenance benches (limit {JOINBACK_RATIO_LIMIT}x); per-row overhead has              crept into the joinback pipeline"
        ));
    }
    Ok(())
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut raw_out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut out: Option<String> = None;
    let mut runs = 11usize;
    let mut memory_budget = 0usize;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--raw" => raw_out = Some(args.next().expect("--raw takes a path")),
            "--baseline" => baseline = Some(args.next().expect("--baseline takes a path")),
            "--out" => out = Some(args.next().expect("--out takes a path")),
            "--runs" => {
                runs = args
                    .next()
                    .expect("--runs takes a count")
                    .parse()
                    .expect("--runs takes an integer")
            }
            "--memory-budget" => {
                memory_budget = args
                    .next()
                    .expect("--memory-budget takes a byte count")
                    .parse()
                    .expect("--memory-budget takes an integer (0 = unbounded)")
            }
            other => panic!("unknown argument {other:?} (see module docs)"),
        }
    }

    let (results, peak_pool_bytes) = run_workload(runs, memory_budget);

    if let Some(path) = raw_out {
        for (key, ms) in &results {
            if !ms.is_finite() || *ms <= 0.0 {
                eprintln!("bench_summary: non-positive timing for {key}: {ms}");
                std::process::exit(1);
            }
        }
        let body: String = results
            .iter()
            .map(|(k, ms)| format!("{k}={ms}\n"))
            .collect();
        std::fs::write(&path, body).expect("raw output file is writable");
        eprintln!("wrote raw numbers to {path}");
        return;
    }

    let before: BTreeMap<String, f64> = match &baseline {
        Some(path) => parse_baseline(
            &std::fs::read_to_string(path).expect("baseline file exists and is readable"),
        ),
        None => BTreeMap::new(),
    };

    // The DOP-scaling workload (not part of the raw baseline format —
    // dop1 is its own serial baseline).
    let parallel = run_parallel_workload(runs.min(7), memory_budget);

    // The durability micro-benches (not part of the raw baseline
    // format either — they measure the commit and recovery paths, not
    // query execution).
    let durability = run_durability_workload(runs.min(7));

    // The columnar A/B workload (row interpreter vs batch kernels over
    // the same prepared queries — the measured value of issue 9).
    let columnar = run_columnar_workload(runs.min(7));

    // The cancellation-latency workload (the measured value of issue
    // 10; the check *cost* shows up as the benches deltas vs BENCH_9).
    let lifecycle = run_lifecycle_workload();

    let mut body = String::from("{\n");
    body.push_str(&format!(
        "  \"issue\": 10,\n  \"workload\": \"forum scale {} seed {}\",\n  \"unit\": \"ms (median of {} prepared executions)\",\n  \"host_parallelism\": {},\n  \"memory_budget\": {},\n  \"peak_pool_bytes\": {},\n  \"benches\": {{\n",
        hotpath::HOTPATH_SCALE,
        hotpath::HOTPATH_SEED,
        runs,
        perm_exec::auto_parallelism(),
        memory_budget,
        peak_pool_bytes,
    ));
    for (i, (key, after_ms)) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        match before.get(key) {
            Some(before_ms) => body.push_str(&format!(
                "    \"{}\": {{\"before_ms\": {:.4}, \"after_ms\": {:.4}, \"speedup\": {:.2}}}{}\n",
                json_escape(key),
                before_ms,
                after_ms,
                before_ms / after_ms.max(1e-9),
                sep
            )),
            None => body.push_str(&format!(
                "    \"{}\": {{\"after_ms\": {:.4}}}{}\n",
                json_escape(key),
                after_ms,
                sep
            )),
        }
    }
    body.push_str("  },\n");
    body.push_str(&format!(
        "  \"parallel_scaling\": {{\n    \"workload\": \"forum scale {} seed {}\",\n",
        hotpath::PARALLEL_SCALE,
        hotpath::HOTPATH_SEED,
    ));
    for (i, (name, ms)) in parallel.iter().enumerate() {
        let sep = if i + 1 == parallel.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{}\": {{\"dop1_ms\": {:.4}, \"dop2_ms\": {:.4}, \"dop4_ms\": {:.4}, \"speedup_dop2\": {:.2}, \"speedup_dop4\": {:.2}}}{}\n",
            json_escape(name),
            ms[0],
            ms[1],
            ms[2],
            ms[0] / ms[1].max(1e-9),
            ms[0] / ms[2].max(1e-9),
            sep
        ));
    }
    body.push_str("  },\n");
    body.push_str("  \"durability\": {\n");
    for (i, (name, ms)) in durability.iter().enumerate() {
        let sep = if i + 1 == durability.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{}\": {{\"after_ms\": {:.4}}}{}\n",
            json_escape(name),
            ms,
            sep
        ));
    }
    body.push_str("  },\n");
    body.push_str("  \"columnar\": {\n");
    for (i, (name, ms)) in columnar.iter().enumerate() {
        let sep = if i + 1 == columnar.len() { "" } else { "," };
        body.push_str(&format!(
            "    \"{}\": {{\"row_ms\": {:.4}, \"batch_ms\": {:.4}, \"speedup\": {:.2}}}{}\n",
            json_escape(name),
            ms[0],
            ms[1],
            ms[0] / ms[1].max(1e-9),
            sep
        ));
    }
    body.push_str("  },\n");
    body.push_str(&format!(
        "  \"lifecycle\": {{\n    \"cancel_latency\": {{\"query\": \"parallel_scaling/prov_3join_wide\", \"dop\": 2, \"samples\": {CANCEL_SAMPLES}, \"p50_ms\": {:.4}, \"p95_ms\": {:.4}}}\n  }}\n}}\n",
        lifecycle[0], lifecycle[1],
    ));

    if let Err(e) = check_cancel_latency(&lifecycle) {
        eprintln!("bench_summary: invalid summary: {e}");
        std::process::exit(1);
    }
    if let Err(e) = validate_summary(
        &body,
        perm_exec::auto_parallelism(),
        &results,
        &before,
        &parallel,
        &durability,
        &columnar,
        memory_budget,
        peak_pool_bytes,
    ) {
        eprintln!("bench_summary: invalid summary: {e}");
        std::process::exit(1);
    }

    match out {
        Some(path) => {
            std::fs::write(&path, &body).expect("output file is writable");
            eprintln!("wrote summary to {path}");
        }
        None => print!("{body}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_body() -> String {
        concat!(
            "{\n  \"issue\": 5,\n  \"workload\": \"w\",\n  \"unit\": \"ms\",\n",
            "  \"host_parallelism\": 4,\n",
            "  \"memory_budget\": 0,\n  \"peak_pool_bytes\": 4096,\n",
            "  \"benches\": {\n",
            "    \"g/q\": {\"after_ms\": 1.0}\n  },\n",
            "  \"parallel_scaling\": {\n    \"workload\": \"w\"\n  },\n",
            "  \"durability\": {\n    \"wal_append/100_commits\": {\"after_ms\": 1.0}\n  },\n",
            "  \"columnar\": {\n    \"g/q\": {\"row_ms\": 2.0, \"batch_ms\": 1.0, \"speedup\": 2.00}\n  },\n",
            "  \"lifecycle\": {\n    \"cancel_latency\": {\"p50_ms\": 0.5, \"p95_ms\": 1.0}\n  }\n}\n"
        )
        .to_string()
    }

    fn good_results() -> Vec<(String, f64)> {
        vec![("g/q".to_string(), 1.0)]
    }

    #[test]
    fn well_formed_summary_validates() {
        let parallel = vec![("q".to_string(), [3.0, 2.0, 1.5])];
        validate_summary(
            &good_body(),
            4,
            &good_results(),
            &BTreeMap::new(),
            &parallel,
            &[],
            &[],
            0,
            4096,
        )
        .expect("well-formed summary passes validation");
    }

    #[test]
    fn missing_required_key_is_rejected() {
        for key in [
            "\"host_parallelism\"",
            "\"memory_budget\"",
            "\"peak_pool_bytes\"",
            "\"durability\"",
            "\"columnar\"",
            "\"lifecycle\"",
        ] {
            let body = good_body().replace(key, "\"renamed\"");
            let err = validate_summary(
                &body,
                4,
                &good_results(),
                &BTreeMap::new(),
                &[],
                &[],
                &[],
                0,
                0,
            )
            .unwrap_err();
            assert!(err.contains(key.trim_matches('"')), "got: {err}");
        }
    }

    #[test]
    fn peak_above_a_nonzero_budget_is_rejected() {
        let err = validate_summary(
            &good_body(),
            4,
            &good_results(),
            &BTreeMap::new(),
            &[],
            &[],
            &[],
            1024,
            4096,
        )
        .unwrap_err();
        assert!(err.contains("hard ceiling"), "got: {err}");
        // Unbounded (0) accepts any peak; a peak within budget passes.
        validate_summary(
            &good_body(),
            4,
            &good_results(),
            &BTreeMap::new(),
            &[],
            &[],
            &[],
            0,
            4096,
        )
        .expect("unbounded budget accepts any peak");
        validate_summary(
            &good_body(),
            4,
            &good_results(),
            &BTreeMap::new(),
            &[],
            &[],
            &[],
            8192,
            4096,
        )
        .expect("peak within budget passes");
    }

    #[test]
    fn unbalanced_braces_are_rejected() {
        let body = format!("{}}}", good_body());
        let err = validate_summary(
            &body,
            4,
            &good_results(),
            &BTreeMap::new(),
            &[],
            &[],
            &[],
            0,
            0,
        )
        .unwrap_err();
        assert!(err.contains("unbalanced"), "got: {err}");
    }

    #[test]
    fn non_positive_timings_are_rejected() {
        let zero = vec![("g/q".to_string(), 0.0)];
        let err = validate_summary(
            &good_body(),
            4,
            &zero,
            &BTreeMap::new(),
            &[],
            &[],
            &[],
            0,
            0,
        )
        .unwrap_err();
        assert!(err.contains("non-positive timing"), "got: {err}");

        let bad_base: BTreeMap<String, f64> = [("g/q".to_string(), -1.0)].into_iter().collect();
        let err = validate_summary(
            &good_body(),
            4,
            &good_results(),
            &bad_base,
            &[],
            &[],
            &[],
            0,
            0,
        )
        .unwrap_err();
        assert!(err.contains("baseline"), "got: {err}");

        let bad_parallel = vec![("q".to_string(), [3.0, f64::NAN, 1.5])];
        let err = validate_summary(
            &good_body(),
            4,
            &good_results(),
            &BTreeMap::new(),
            &bad_parallel,
            &[],
            &[],
            0,
            0,
        )
        .unwrap_err();
        assert!(err.contains("parallel timing"), "got: {err}");
    }

    #[test]
    fn non_positive_durability_timing_is_rejected() {
        let bad = vec![("wal_append/100_commits".to_string(), 0.0)];
        let err = validate_summary(
            &good_body(),
            4,
            &good_results(),
            &BTreeMap::new(),
            &[],
            &bad,
            &[],
            0,
            0,
        )
        .unwrap_err();
        assert!(err.contains("durability timing"), "got: {err}");
    }

    #[test]
    fn non_positive_columnar_timing_is_rejected() {
        let bad = vec![("g/q".to_string(), [2.0, 0.0])];
        let err = validate_summary(
            &good_body(),
            4,
            &good_results(),
            &BTreeMap::new(),
            &[],
            &[],
            &bad,
            0,
            0,
        )
        .unwrap_err();
        assert!(err.contains("columnar timing"), "got: {err}");
    }

    /// Results with the joinback bench at a controllable multiple of
    /// its three 1.0 ms provenance siblings.
    fn joinback_results(joinback_ms: f64) -> Vec<(String, f64)> {
        vec![
            ("provenance_join/prov_two_joins".to_string(), 1.0),
            ("provenance_join/prov_left_join".to_string(), 1.0),
            ("provenance_join/prov_union".to_string(), 1.0),
            ("provenance_join/prov_agg_joinback".to_string(), joinback_ms),
        ]
    }

    #[test]
    fn joinback_regression_beyond_ratio_limit_is_rejected() {
        // 13.2x the sibling median — the shape of the PR 7-8 regression.
        let err = check_joinback_regression(&joinback_results(13.2)).unwrap_err();
        assert!(err.contains("prov_agg_joinback"), "got: {err}");
        assert!(err.contains("13.2x"), "got: {err}");
    }

    #[test]
    fn joinback_within_ratio_limit_passes() {
        check_joinback_regression(&joinback_results(10.4))
            .expect("a healthy joinback ratio passes");
    }

    #[test]
    fn joinback_guard_needs_enough_siblings() {
        // With fewer than two sibling provenance benches (or without the
        // joinback bench at all) the median is meaningless: skip.
        let mut partial = joinback_results(99.0);
        partial.drain(..2);
        check_joinback_regression(&partial).expect("one sibling is not enough to judge");
        check_joinback_regression(&good_results()).expect("no joinback bench, nothing to guard");
    }

    #[test]
    fn cancel_latency_validation() {
        check_cancel_latency(&[0.5, 1.0]).expect("healthy percentiles pass");
        check_cancel_latency(&[0.5, 0.5]).expect("equal percentiles pass");
        let err = check_cancel_latency(&[0.0, 1.0]).unwrap_err();
        assert!(err.contains("non-positive"), "got: {err}");
        let err = check_cancel_latency(&[0.5, f64::NAN]).unwrap_err();
        assert!(err.contains("non-positive"), "got: {err}");
        let err = check_cancel_latency(&[2.0, 1.0]).unwrap_err();
        assert!(err.contains("below p50"), "got: {err}");
    }

    #[test]
    fn empty_results_are_rejected() {
        let err = validate_summary(&good_body(), 4, &[], &BTreeMap::new(), &[], &[], &[], 0, 0)
            .unwrap_err();
        assert!(err.contains("no benchmark results"), "got: {err}");
    }
}
