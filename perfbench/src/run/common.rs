//! What every workload shares: durable set-up, the measurement schedule,
//! the per-client log, the hygiene and durability checks, and the
//! per-layer metrics computed from spans.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime};

use perm_core::{DurabilityOptions, PermError, PermServer, Session};
use perm_sql::{parse_statement, Statement};
use perm_types::Tuple;

use perfbench::checksum::{catalog_checksum, live_bytes, ordered_hashes, Checksum};
use perfbench::data::{self, DataSpec, HOTPATH_INDEXES, VIEW_V1};
use perfbench::host::{allowed_cpus, move_current_thread};
use perfbench::ops::{self, PlanFacts};
use perfbench::stats::{geomean, median, quantile, sorted};
use perfbench::stmts::Stmt;
use perfbench::trace::{SpanTable, Tracer};

/// One run's settings.
pub struct Env {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for this run's databases (deleted at the end).
    pub work: PathBuf,
    /// Clock origin shared by every tracer of the run.
    pub base: Instant,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

pub fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Failed operations and checks, with the first few messages kept.
#[derive(Debug, Default)]
pub struct Failures {
    pub count: u64,
    pub messages: Vec<String>,
}

impl Failures {
    pub fn add(&mut self, msg: impl Into<String>) {
        self.count += 1;
        if self.messages.len() < 8 {
            self.messages.push(msg.into());
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for m in other.messages {
            if self.messages.len() < 8 {
                self.messages.push(m);
            }
        }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failures: Failures,
    pub metrics: Vec<Metric>,
    /// Extra `#` lines for the report.
    pub notes: Vec<String>,
}

/// The durability every workload runs under: the product defaults,
/// `FsyncPolicy::Always` and a checkpoint every 256 commits.
pub fn durability() -> DurabilityOptions {
    DurabilityOptions::default()
}

// --------------------------------------------------------------------
// Disk accounting
// --------------------------------------------------------------------

/// WAL frame bytes beyond the statement text: length, CRC and kind.
const WAL_FRAME_OVERHEAD: u64 = 9;

/// Bytes the durable store writes, measured from file sizes after each
/// traced commit. A commit that triggers a checkpoint truncates the WAL,
/// so its own frame is counted as statement length plus frame overhead.
#[derive(Debug, Default)]
pub struct DiskMeter {
    dir: PathBuf,
    wal_len: u64,
    checkpoint: Option<(u64, SystemTime)>,
    pub wal_bytes: u64,
    pub checkpoint_bytes: u64,
    pub text_bytes: u64,
    pub commits: u64,
}

impl DiskMeter {
    pub fn new(dir: &Path) -> DiskMeter {
        let (wal_len, checkpoint) = Self::stat(dir);
        DiskMeter {
            dir: dir.to_path_buf(),
            wal_len,
            checkpoint,
            ..DiskMeter::default()
        }
    }

    fn stat(dir: &Path) -> (u64, Option<(u64, SystemTime)>) {
        let wal = std::fs::metadata(dir.join(perm_storage::WAL_FILE)).map_or(0, |m| m.len());
        let ckpt = std::fs::metadata(dir.join(perm_storage::CHECKPOINT_FILE))
            .ok()
            .and_then(|m| Some((m.len(), m.modified().ok()?)));
        (wal, ckpt)
    }

    /// Account one committed statement of `text_len` bytes (`None` for a
    /// checkpoint without a statement).
    pub fn observe(&mut self, text_len: Option<usize>) {
        let (wal, ckpt) = Self::stat(&self.dir);
        let text = text_len.unwrap_or(0) as u64;
        if let Some(len) = text_len {
            self.commits += 1;
            self.text_bytes += len as u64;
        }
        if ckpt != self.checkpoint {
            self.checkpoint_bytes += ckpt.map_or(0, |c| c.0);
            if text_len.is_some() {
                self.wal_bytes += WAL_FRAME_OVERHEAD + text;
            }
            self.wal_bytes += wal;
        } else {
            self.wal_bytes += wal.saturating_sub(self.wal_len);
        }
        self.wal_len = wal;
        self.checkpoint = ckpt;
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

// --------------------------------------------------------------------
// Set-up
// --------------------------------------------------------------------

/// A loaded durable server.
pub struct Loaded {
    pub server: PermServer,
    pub dir: PathBuf,
    pub meter: DiskMeter,
}

/// Commit one write statement; with a tracer, inside a `storage.commit`
/// span and with the disk meter updated.
pub fn commit(
    session: &Session,
    sql: &str,
    tracer: Option<(&mut Tracer, &mut DiskMeter)>,
) -> Result<(), PermError> {
    match tracer {
        Some((t, meter)) => {
            t.begin_op();
            t.span("storage.commit", |_| session.execute(sql))?;
            t.timed("bench.disk_meter", |_| meter.observe(Some(sql.len())));
        }
        None => {
            session.execute(sql)?;
        }
    }
    Ok(())
}

/// Generate the data of `spec`, open a fresh durable server in
/// `work/<name>`, load the data through SQL commits, define `v1`, create
/// the indexes and checkpoint. With a tracer, load commits are traced.
pub fn setup(
    env: &Env,
    spec: &DataSpec,
    name: &str,
    mut tracer: Option<&mut Tracer>,
) -> Result<Loaded, String> {
    let dir = env.work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let catalog = data::generate(spec, env.seed);
    let mut script = data::load_script(&catalog, spec.rows_per_insert);
    drop(catalog);
    script.push(VIEW_V1.to_string());
    let server = PermServer::open_with(&dir, durability())
        .map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let session = server.session();
    let mut meter = DiskMeter::new(&dir);
    for sql in &script {
        let t = tracer.as_deref_mut().map(|t| (t, &mut meter));
        commit(&session, sql, t).map_err(|e| format!("load statement failed: {e}"))?;
    }
    if spec.hotpath_indexes {
        for (table, column) in HOTPATH_INDEXES {
            session
                .create_index(table, column)
                .map_err(|e| format!("index on {table}.{column}: {e}"))?;
        }
    }
    server
        .checkpoint()
        .map_err(|e| format!("checkpoint after load: {e}"))?;
    if tracer.is_some() {
        meter.observe(None);
    }
    Ok(Loaded { server, dir, meter })
}

/// Set-ups of an untraced run (`setup_s` is their median): at least
/// [`SETUP_REPS`], more while they have taken under [`SETUP_SECONDS`] in
/// all, at most [`SETUP_MAX_REPS`]. A set-up of small data takes a few
/// tens of milliseconds, much of it waiting for the fsync of each load
/// commit, so it is repeated until the median is steady.
pub const SETUP_REPS: usize = 6;
pub const SETUP_SECONDS: f64 = 1.5;
pub const SETUP_MAX_REPS: usize = 40;

/// Set up `reps` times (or, with `None`, as often as [`SETUP_REPS`] says)
/// and keep the last server; earlier ones are dropped and their
/// directories removed. Successive set-ups start on successive CPUs (see
/// [`move_current_thread`]). `after` runs inside the timed interval on
/// each loaded server (the prepare step of workloads that prepare); load
/// commits are traced only with `trace_load`.
pub fn setup_repeated<T>(
    env: &Env,
    spec: &DataSpec,
    reps: Option<usize>,
    mut tracer: Option<&mut Tracer>,
    trace_load: bool,
    mut after: impl FnMut(&Loaded, Option<&mut Tracer>) -> Result<T, String>,
) -> Result<(Loaded, T, Vec<f64>), String> {
    let mut secs: Vec<f64> = Vec::new();
    let mut kept = None;
    let more = |secs: &[f64]| match reps {
        Some(n) => secs.len() < n,
        None => {
            secs.len() < SETUP_REPS
                || (secs.iter().sum::<f64>() < SETUP_SECONDS && secs.len() < SETUP_MAX_REPS)
        }
    };
    while more(&secs) {
        let rep = secs.len();
        move_current_thread(cpu_for(rep));
        let start = Instant::now();
        let load_tracer = if trace_load {
            tracer.as_deref_mut()
        } else {
            None
        };
        let loaded = setup(env, spec, &format!("db{rep}"), load_tracer)?;
        let extra = after(&loaded, tracer.as_deref_mut())?;
        secs.push(start.elapsed().as_secs_f64());
        if let Some((Loaded { server, dir, .. }, _)) = kept.replace((loaded, extra)) {
            drop(server);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (loaded, extra) = kept.ok_or("no set-up ran")?;
    Ok((loaded, extra, secs))
}

// --------------------------------------------------------------------
// Measurement schedule
// --------------------------------------------------------------------

/// Slices of the measured interval: untraced and traced slices alternate
/// in a traced run, clients change CPU from one slice to the next, and
/// end-to-end metrics come from the fastest half.
pub const SLICES: usize = 30;

/// The `i`-th CPU, round-robin over the CPUs the process may use.
pub fn cpu_for(i: usize) -> usize {
    let cpus = allowed_cpus();
    cpus.get(i % cpus.len().max(1)).copied().unwrap_or(0)
}

/// The measured interval. In a traced run it alternates untraced and
/// traced slices (untraced first), so both modes see the same data,
/// heat and interference, and their throughputs compare.
pub struct Schedule {
    pub start: Instant,
    pub seconds: f64,
    pub trace: bool,
    /// Whether the peak resident set was started afresh with the interval.
    pub rss_reset: bool,
}

impl Schedule {
    /// Start the measured interval now, with a fresh peak resident set.
    pub fn new(env: &Env) -> Schedule {
        let rss_reset = reset_peak_rss();
        Schedule {
            start: Instant::now(),
            seconds: env.seconds,
            trace: env.trace,
            rss_reset,
        }
    }

    pub fn done(&self) -> bool {
        self.start.elapsed().as_secs_f64() >= self.seconds
    }

    pub fn slice_len(&self) -> f64 {
        self.seconds / SLICES as f64
    }

    /// The slice an instant falls in (late finishers count in the last).
    pub fn slice_of(&self, at: Instant) -> usize {
        let t = at.saturating_duration_since(self.start).as_secs_f64();
        ((t / self.slice_len()) as usize).min(SLICES - 1)
    }

    /// The CPU client `thread` starts `slice` on: successive slices (in
    /// a traced run, successive pairs, so that both modes see every CPU)
    /// on successive CPUs, and concurrent clients on different ones.
    pub fn cpu_of(&self, slice: usize, thread: usize) -> usize {
        cpu_for(slice / (1 + self.trace as usize) + thread)
    }

    /// Whether an operation starting now runs traced.
    pub fn traced_now(&self) -> bool {
        self.trace && self.slice_of(Instant::now()) % 2 == 1
    }

    /// Seconds of the run spent in each mode: `[untraced, traced]`.
    pub fn mode_seconds(&self) -> [f64; 2] {
        if self.trace {
            [self.seconds / 2.0, self.seconds / 2.0]
        } else {
            [self.seconds, 0.0]
        }
    }

    /// The traced slices as `[start, end)` nanoseconds on `base`'s clock.
    pub fn traced_windows(&self, base: Instant) -> Vec<(u64, u64)> {
        if !self.trace {
            return Vec::new();
        }
        let offset = self.start.duration_since(base).as_nanos() as f64;
        let len = self.slice_len() * 1e9;
        (0..SLICES)
            .filter(|i| i % 2 == 1)
            .map(|i| {
                let a = offset + len * i as f64;
                (a as u64, (a + len) as u64)
            })
            .collect()
    }
}

// --------------------------------------------------------------------
// Client
// --------------------------------------------------------------------

/// One completed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub template: &'static str,
    pub ms: f64,
    pub traced: bool,
    pub end: Instant,
}

impl Sample {
    fn blank() -> Sample {
        Sample {
            template: "",
            ms: 0.0,
            traced: false,
            end: Instant::now(),
        }
    }

    pub fn now(template: &'static str, start: Instant, traced: bool) -> Sample {
        let end = Instant::now();
        Sample {
            template,
            ms: end.duration_since(start).as_secs_f64() * 1e3,
            traced,
            end,
        }
    }
}

/// What one client thread observed.
#[derive(Debug, Default)]
pub struct Log {
    pub reads: Vec<Sample>,
    /// Commits of the workload's writes.
    pub writes: Vec<Sample>,
    /// Completed operations, `[untraced, traced]`.
    pub ops: [u64; 2],
    pub attempted: u64,
    pub failures: Failures,
    /// Per traced statement: the binder's and the rewrite's share (µs).
    pub algebra_us: Vec<f64>,
    pub rewrite_us: Vec<f64>,
    /// Per traced one-shot query: template and summed stage spans (µs).
    pub stages: Vec<(&'static str, f64)>,
    /// Rows returned by traced executions.
    pub traced_rows: u64,
    pub stream_scanned: u64,
    pub stream_rows: u64,
    /// Statements refused by admission control.
    pub refused: u64,
    /// Bytes of the sample buffers made resident up front.
    pub reserved_bytes: usize,
    /// Whether every move between CPUs succeeded.
    pub moved: bool,
}

impl Log {
    /// A log whose sample buffers hold `reads` and `writes` samples
    /// without growing, written once so they are resident from the
    /// start: the process's peak RSS then does not depend on how many
    /// operations a run completes, and [`end_to_end`] takes the buffers
    /// out of `peak_rss_mb`.
    pub fn with_capacity(reads: usize, writes: usize) -> Log {
        let mut log = Log {
            moved: true,
            ..Log::default()
        };
        for (v, n) in [(&mut log.reads, reads), (&mut log.writes, writes)] {
            v.resize(n, Sample::blank());
            v.clear();
        }
        log.reserved_bytes = (reads + writes) * std::mem::size_of::<Sample>();
        log
    }

    pub fn error(&mut self, what: &str, e: &PermError) {
        if let PermError::ResourceExhausted { operator, .. } = e {
            if operator.starts_with("admission") {
                self.refused += 1;
            }
        }
        self.failures.add(format!("{what}: {e}"));
    }
}

/// One client: a session, its tracer and its log.
pub struct Client<'a> {
    pub server: &'a PermServer,
    pub session: Session,
    pub tracer: Tracer,
    pub log: Log,
    plain: HashMap<String, Statement>,
    thread: u32,
    slice: Option<usize>,
}

impl<'a> Client<'a> {
    /// A client whose log holds `rates.0` reads and `rates.1` writes per
    /// second of the run without growing.
    pub fn new(env: &Env, server: &'a PermServer, thread: u32, rates: (f64, f64)) -> Client<'a> {
        let cap = |rate: f64| (rate * env.seconds).ceil() as usize;
        Client {
            server,
            session: server.session(),
            tracer: Tracer::new(env.base, thread),
            log: Log::with_capacity(cap(rates.0), cap(rates.1)),
            plain: HashMap::new(),
            thread,
            slice: None,
        }
    }

    /// Between operations: on entering a new slice of `schedule`, move to
    /// that slice's CPU ([`Schedule::cpu_of`], [`move_current_thread`]).
    /// Must run on the client's own thread.
    pub fn follow(&mut self, schedule: &Schedule) {
        let slice = schedule.slice_of(Instant::now());
        if self.slice != Some(slice) {
            self.slice = Some(slice);
            let cpu = schedule.cpu_of(slice, self.thread as usize);
            self.log.moved &= move_current_thread(cpu);
        }
    }

    /// Send one one-shot query (`Session::query`, or its traced
    /// equivalent) and record its latency.
    pub fn query(&mut self, stmt: &Stmt, traced: bool) -> Option<Vec<Tuple>> {
        self.log.attempted += 1;
        let start = Instant::now();
        let result = if traced {
            self.tracer.begin_op();
            let (server, session) = (self.server, &self.session);
            self.tracer.timed("op.query", |t| {
                ops::traced_query(t, server, session, &stmt.sql)
            })
        } else {
            self.session.query(&stmt.sql).map(|r| r.rows)
        };
        let sample = Sample::now(stmt.template, start, traced);
        match result {
            Ok(rows) => {
                self.log.reads.push(sample);
                self.log.ops[traced as usize] += 1;
                if traced {
                    self.log.traced_rows += rows.len() as u64;
                    let stages = self.tracer.children_us_of_last("op.query");
                    self.log.stages.push((stmt.template, stages));
                    self.split_bind(stmt);
                }
                Some(rows)
            }
            Err(e) => {
                self.log.error(stmt.template, &e);
                None
            }
        }
    }

    /// Split the last traced bind into the binder's share (binding the
    /// provenance-free statement without the rewriter, timed right after
    /// the operation) and the rewrite's share (the rest).
    pub fn split_bind(&mut self, stmt: &Stmt) {
        let bind = self.tracer.last_us("algebra.bind").unwrap_or(0.0);
        if !stmt.is_provenance() {
            self.log.algebra_us.push(bind);
            return;
        }
        if !self.plain.contains_key(&stmt.plain) {
            let parsed = self
                .tracer
                .span("bench.parse_plain", |_| parse_statement(&stmt.plain));
            match parsed {
                Ok(p) => {
                    self.plain.insert(stmt.plain.clone(), p);
                }
                Err(e) => return self.log.error(stmt.template, &e),
            }
        }
        let plain = &self.plain[&stmt.plain];
        let snapshot = self.session.snapshot();
        match self
            .tracer
            .span("algebra.bind_q", |_| ops::bind_plain(&snapshot, plain))
        {
            Ok(_) => {
                let q = self.tracer.last_us("algebra.bind_q").unwrap_or(0.0);
                let algebra = q.min(bind);
                self.log.algebra_us.push(algebra);
                self.log.rewrite_us.push(bind - algebra);
            }
            Err(e) => self.log.error(stmt.template, &e),
        }
    }

    /// Compare a result with its reference checksum and release it,
    /// outside the timed interval (inside a `bench.verify` span when
    /// traced).
    pub fn verify(&mut self, template: &str, rows: Vec<Tuple>, expected: &Checksum, traced: bool) {
        let check = move |_: &mut Tracer| Checksum::of_rows(&rows) == *expected;
        let ok = if traced {
            self.tracer.timed("bench.verify", check)
        } else {
            check(&mut self.tracer)
        };
        if !ok {
            self.log
                .failures
                .add(format!("{template}: result differs from the reference"));
        }
    }
}

// --------------------------------------------------------------------
// After the measured interval
// --------------------------------------------------------------------

/// Per distinct statement: its plan facts and actual row count.
#[derive(Clone)]
pub struct FactRow {
    pub stmt: Stmt,
    pub facts: PlanFacts,
    pub rows: usize,
}

/// Plan facts for every statement, and the check that the traced path
/// returns exactly the rows (same values, same order) `Session::query`
/// returns.
pub fn statement_facts(
    env: &Env,
    server: &PermServer,
    session: &Session,
    stmts: &[Stmt],
    failures: &mut Failures,
) -> Vec<FactRow> {
    let mut scratch = Tracer::new(env.base, u32::MAX);
    let mut out = Vec::new();
    for stmt in stmts {
        let facts = match ops::plan_facts(session, &stmt.sql, &stmt.plain) {
            Ok(f) => f,
            Err(e) => {
                failures.add(format!("{}: planning facts: {e}", stmt.template));
                continue;
            }
        };
        let untraced = session.query(&stmt.sql).map(|r| r.rows);
        let traced = ops::traced_query(&mut scratch, server, session, &stmt.sql);
        match (untraced, traced) {
            (Ok(u), Ok(t)) => {
                if ordered_hashes(&u) != ordered_hashes(&t) {
                    failures.add(format!(
                        "{}: traced path returned other rows than Session::query",
                        stmt.template
                    ));
                }
                out.push(FactRow {
                    stmt: stmt.clone(),
                    facts,
                    rows: u.len(),
                });
            }
            (Err(e), _) | (_, Err(e)) => failures.add(format!("{}: {e}", stmt.template)),
        }
    }
    out
}

/// Execute time at DOP 1 over execute time with the default plan, summed
/// over the statements (three alternating executions each, medians).
pub fn parallel_speedup(
    server: &PermServer,
    session: &Session,
    facts: &[FactRow],
    failures: &mut Failures,
) -> f64 {
    let (mut serial, mut parallel) = (0.0, 0.0);
    for f in facts {
        let mut times = [Vec::new(), Vec::new()];
        for _ in 0..3 {
            for (slot, plan) in [&f.facts.serial, &f.facts.physical].into_iter().enumerate() {
                let start = Instant::now();
                if let Err(e) = ops::execute_plan(server, session, plan) {
                    failures.add(format!("{}: speed-up probe: {e}", f.stmt.template));
                }
                times[slot].push(start.elapsed().as_secs_f64());
            }
        }
        serial += median(&times[0]);
        parallel += median(&times[1]);
    }
    serial / parallel
}

/// `Session::prepare` of each statement, three times, in `core.prepare`
/// spans.
pub fn prepare_probe(
    probe: &mut Tracer,
    session: &Session,
    stmts: &[Stmt],
    failures: &mut Failures,
) {
    for _ in 0..3 {
        for s in stmts {
            if let Err(e) = probe.span("core.prepare", |_| session.prepare(&s.sql)) {
                failures.add(format!("{}: prepare: {e}", s.template));
            }
        }
    }
}

/// One statement per template (the first of each), in pool order.
pub fn first_per_template(stmts: &[Stmt]) -> Vec<Stmt> {
    let mut seen = std::collections::HashSet::new();
    stmts
        .iter()
        .filter(|s| seen.insert(s.template))
        .cloned()
        .collect()
}

pub struct Hygiene {
    pub recovery_ms: f64,
    pub disk_bytes: u64,
    pub live_bytes: u64,
}

/// The checks after every workload: nothing leaked (pool empty, governor
/// idle, spill directory clean), then shut the server down, reopen its
/// directory and require the same catalog checksum — every acknowledged
/// write present. Every handle on the server must be dropped first.
pub fn hygiene(
    server: PermServer,
    dir: &Path,
    failures: &mut Failures,
    probe: Option<&mut Tracer>,
) -> Hygiene {
    let snapshot = server.snapshot();
    let before = catalog_checksum(&snapshot);
    let live = live_bytes(&snapshot);
    drop(snapshot);
    let disk = dir_bytes(dir);
    let used = server.memory_pool().used();
    if used != 0 {
        failures.add(format!(
            "memory pool still holds {used} bytes after the run"
        ));
    }
    let gov = server.governor();
    if gov.running() != 0 || gov.waiting() != 0 {
        failures.add(format!(
            "governor not idle after the run: {} running, {} waiting",
            gov.running(),
            gov.waiting()
        ));
    }
    if !perm_storage::spill_dir_is_clean() {
        failures.add("spill files left behind after the run");
    }
    server.shutdown();
    drop(server);
    let start = Instant::now();
    let reopened = match probe {
        Some(t) => t.span("storage.recovery", |_| {
            PermServer::open_with(dir, durability())
        }),
        None => PermServer::open_with(dir, durability()),
    };
    let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
    match reopened {
        Ok(s) => {
            if s.is_read_only() {
                failures.add(format!(
                    "reopened server is read-only: {:?}",
                    s.recovery_error()
                ));
            }
            if catalog_checksum(&s.snapshot()) != before {
                failures.add("reopened catalog differs: acknowledged writes are missing");
            }
        }
        Err(e) => failures.add(format!("reopening the data directory failed: {e}")),
    }
    let _ = std::fs::remove_dir_all(dir);
    Hygiene {
        recovery_ms,
        disk_bytes: disk,
        live_bytes: live,
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Start the process's peak resident set (`VmHWM`) afresh from its
/// current resident set, so that `peak_rss_mb` covers the measured
/// interval and not the set-ups and reference answers before it; `false`
/// when the kernel does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// --------------------------------------------------------------------
// Metrics
// --------------------------------------------------------------------

/// The slices the end-to-end metrics come from: the fastest half, by
/// completions per second. Clients change CPU every slice and the CPUs
/// of a shared host run at different and changing speeds; the fastest
/// half of a run holds the slices on whichever CPU was fast at the
/// time, so runs agree where the median over all slices would sit on
/// the boundary between a fast and a slow CPU.
pub fn fastest_slices(rates: &[Option<f64>]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..rates.len()).filter(|i| rates[*i].is_some()).collect();
    idx.sort_by(|a, b| {
        rates[*b]
            .unwrap_or(0.0)
            .total_cmp(&rates[*a].unwrap_or(0.0))
    });
    idx.truncate(rates.len() / 2);
    idx.sort_unstable();
    idx
}

/// The end-to-end metrics every workload reports, from the samples of
/// the [`fastest_slices`]: throughput is the median over those slices,
/// percentiles are over their pooled samples. `peak_rss` is
/// [`peak_rss_mb`] read when the interval ended. The second value is a
/// `#` line describing the slices.
pub fn end_to_end(
    setup_s: &[f64],
    logs: &[&Log],
    schedule: &Schedule,
    peak_rss: f64,
) -> (Vec<Metric>, String) {
    // A slice's rate is completions per second between its first and
    // last completion (not a count over a fixed length, which would
    // quantize the value).
    let mut ends: Vec<Vec<Instant>> = vec![Vec::new(); SLICES];
    for s in logs.iter().flat_map(|l| l.reads.iter().chain(&l.writes)) {
        ends[schedule.slice_of(s.end)].push(s.end);
    }
    let rates: Vec<Option<f64>> = ends
        .iter()
        .map(|e| {
            let (first, last) = (e.iter().min()?, e.iter().max()?);
            let span = last.duration_since(*first).as_secs_f64();
            (span > 0.0).then(|| (e.len() - 1) as f64 / span)
        })
        .collect();
    let fast = fastest_slices(&rates);
    let keep = |s: &&Sample| fast.contains(&schedule.slice_of(s.end));
    let fast_rates: Vec<f64> = fast.iter().filter_map(|i| rates[*i]).collect();
    let n_ops: usize = fast.iter().map(|i| ends[*i].len()).sum();
    let reads: Vec<&Sample> = logs.iter().flat_map(|l| &l.reads).filter(keep).collect();
    let read_ms = sorted(reads.iter().map(|s| s.ms).collect());
    let mut per_template: HashMap<&str, Vec<f64>> = HashMap::new();
    for s in &reads {
        per_template.entry(s.template).or_default().push(s.ms);
    }
    // Per-template means, not medians: a `server_mixed` read-back either
    // waits for admission behind the spilling aggregation or not, and the
    // median of such a two-mode latency jumps between the modes from run
    // to run while the mean follows the mix.
    let means: Vec<f64> = per_template
        .values()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    let reserved: usize = logs.iter().map(|l| l.reserved_bytes).sum();
    let per: Vec<String> = rates
        .iter()
        .map(|r| r.map_or("-".to_string(), |r| format!("{r:.0}")))
        .collect();
    let note = format!(
        "ops/s per slice: [{}]; end-to-end metrics from slices {fast:?}; clients {} between {} CPUs; \
         peak_rss_mb {}, less the sample buffers ({:.3} MiB)",
        per.join(", "),
        if logs.iter().all(|l| l.moved) {
            "moved every slice"
        } else {
            "not moved (taskset failed)"
        },
        allowed_cpus().len(),
        if schedule.rss_reset {
            "over the measured interval"
        } else {
            "since the process started (no reset possible)"
        },
        reserved as f64 / MIB,
    );
    let metrics = vec![
        metric("setup_s", median(setup_s), "s", setup_s.len()),
        metric("throughput_ops_s", median(&fast_rates), "ops/s", n_ops),
        metric("read_p50_ms", quantile(&read_ms, 0.5), "ms", read_ms.len()),
        metric("read_p99_ms", quantile(&read_ms, 0.99), "ms", read_ms.len()),
        metric("geomean_read_ms", geomean(&means), "ms", means.len()),
        metric("peak_rss_mb", peak_rss - reserved as f64 / MIB, "MiB", 1),
    ];
    (metrics, note)
}

/// A `#` line with the commit latency of the workload's writes (median,
/// p90, p99). Not an end-to-end metric: only `server_mixed` writes while
/// it is measured, and with fsync on every commit the tail is set by
/// stalls of the shared disk (two- to five-fold between identical runs on
/// the development host).
pub fn write_note(logs: &[&Log]) -> String {
    let w = sorted(
        logs.iter()
            .flat_map(|l| l.writes.iter().map(|s| s.ms))
            .collect(),
    );
    format!(
        "commit latency (ms): p50 {:.4}, p90 {:.4}, p99 {:.4} over {} commits",
        quantile(&w, 0.5),
        quantile(&w, 0.9),
        quantile(&w, 0.99),
        w.len()
    )
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInput<'a> {
    pub table: &'a SpanTable,
    pub logs: Vec<&'a Log>,
    pub schedule: &'a Schedule,
    pub base: Instant,
    pub threads: usize,
    pub facts: &'a [FactRow],
    /// `(name, q+/q factor)` for the overhead study, empty elsewhere.
    pub overhead: Vec<(&'static str, f64)>,
    pub speedup: f64,
    pub spill_slowdown: f64,
    pub pool_peak: f64,
    pub meter: &'a DiskMeter,
    pub hygiene: &'a Hygiene,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn or_zero(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = v.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(s, n as f64)
}

/// One-shot latency minus the summed stage spans, per template (median
/// untraced latency minus median traced stage sum), averaged over the
/// traced operations.
fn session_glue_us(logs: &[&Log]) -> f64 {
    let mut untraced: HashMap<&str, Vec<f64>> = HashMap::new();
    let mut stages: HashMap<&str, Vec<f64>> = HashMap::new();
    for l in logs {
        for s in l.reads.iter().filter(|s| !s.traced) {
            untraced.entry(s.template).or_default().push(s.ms * 1e3);
        }
        for (t, us) in &l.stages {
            stages.entry(t).or_default().push(*us);
        }
    }
    let (mut sum, mut n) = (0.0, 0usize);
    for (t, s) in &stages {
        if let Some(u) = untraced.get(t) {
            sum += (median(u) - median(s)) * s.len() as f64;
            n += s.len();
        }
    }
    ratio(sum, n as f64)
}

pub fn per_layer(input: &LayerInput) -> Vec<Metric> {
    let t = input.table;
    let windows = input.schedule.traced_windows(input.base);
    let [untraced_s, traced_s] = input.schedule.mode_seconds();
    let thread_us = traced_s * 1e6 * input.threads as f64;
    let mut m = Vec::new();
    let med = |name: &str| {
        let v = t.self_us(name);
        (or_zero(median(&v)), v.len())
    };
    let busy = |name: &str| ratio(t.self_us(name).iter().sum(), thread_us);
    let counts = |m: &mut Vec<Metric>, layer: &str, span: &str| {
        m.push(metric(
            &format!("{layer}.calls"),
            t.calls(span) as f64,
            "count",
            1,
        ));
        m.push(metric(
            &format!("{layer}.errors"),
            t.errors(span) as f64,
            "count",
            1,
        ));
    };

    // sql
    let (v, n) = med("sql.parse");
    m.push(metric("sql.parse_us", v, "us", n));
    m.push(metric("sql.busy_frac", busy("sql.parse"), "frac", n));
    counts(&mut m, "sql", "sql.parse");

    // algebra and rewrite: the bind span split by the plain-bind probe
    let algebra: Vec<f64> = input
        .logs
        .iter()
        .flat_map(|l| l.algebra_us.iter().copied())
        .collect();
    let rewrite: Vec<f64> = input
        .logs
        .iter()
        .flat_map(|l| l.rewrite_us.iter().copied())
        .collect();
    m.push(metric(
        "algebra.bind_us",
        or_zero(median(&algebra)),
        "us",
        algebra.len(),
    ));
    m.push(metric(
        "algebra.busy_frac",
        ratio(algebra.iter().sum(), thread_us),
        "frac",
        algebra.len(),
    ));
    counts(&mut m, "algebra", "algebra.bind");
    m.push(metric(
        "rewrite.rewrite_us",
        or_zero(median(&rewrite)),
        "us",
        rewrite.len(),
    ));
    m.push(metric(
        "rewrite.busy_frac",
        ratio(rewrite.iter().sum(), thread_us),
        "frac",
        rewrite.len(),
    ));
    m.push(metric("rewrite.calls", rewrite.len() as f64, "count", 1));
    m.push(metric(
        "rewrite.errors",
        t.errors("algebra.bind_q") as f64,
        "count",
        1,
    ));
    let prov: Vec<&FactRow> = input
        .facts
        .iter()
        .filter(|f| f.stmt.is_provenance())
        .collect();
    m.push(metric(
        "rewrite.plan_growth_x",
        mean(
            prov.iter()
                .map(|f| ratio(f.facts.nodes as f64, f.facts.plain_nodes as f64)),
        ),
        "x",
        prov.len(),
    ));
    m.push(metric(
        "rewrite.prov_columns",
        mean(prov.iter().map(|f| f.facts.prov_columns as f64)),
        "count",
        prov.len(),
    ));
    for name in [
        "spj", "agg", "setop", "nested", "tpch_q1", "tpch_q3", "tpch_q4", "geomean",
    ] {
        let v = input
            .overhead
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, x)| *x);
        m.push(metric(
            &format!("rewrite.overhead_x.{name}"),
            v,
            "x",
            input.overhead.len(),
        ));
    }

    // exec.optimize
    let (v, n) = med("exec.optimize");
    m.push(metric("exec.optimize_us", v, "us", n));
    m.push(metric(
        "exec.optimize.busy_frac",
        busy("exec.optimize"),
        "frac",
        n,
    ));
    counts(&mut m, "exec.optimize", "exec.optimize");
    let qerror = input
        .facts
        .iter()
        .map(|f| {
            let (est, act) = (f.facts.est_rows.max(1.0), (f.rows as f64).max(1.0));
            (est / act).max(act / est)
        })
        .fold(0.0, f64::max);
    m.push(metric(
        "exec.optimize.qerror_max",
        qerror,
        "x",
        input.facts.len(),
    ));

    // exec.physical
    let (v, n) = med("exec.physical");
    m.push(metric("exec.physical_us", v, "us", n));
    m.push(metric(
        "exec.physical.busy_frac",
        busy("exec.physical"),
        "frac",
        n,
    ));
    counts(&mut m, "exec.physical", "exec.physical");
    let facts = input.facts;
    m.push(metric(
        "exec.physical.parallel_nodes",
        mean(facts.iter().map(|f| f.facts.parallel_nodes as f64)),
        "count",
        facts.len(),
    ));
    m.push(metric(
        "exec.physical.batch_nodes",
        mean(facts.iter().map(|f| f.facts.batch_nodes as f64)),
        "count",
        facts.len(),
    ));

    // exec.execute, stream, memory
    let (v, n) = med("exec.execute");
    m.push(metric("exec.execute_us", v, "us", n));
    m.push(metric(
        "exec.execute.busy_frac",
        busy("exec.execute"),
        "frac",
        n,
    ));
    counts(&mut m, "exec.execute", "exec.execute");
    let exec_s: f64 = t.self_us("exec.execute").iter().sum::<f64>() / 1e6;
    let rows: u64 = input.logs.iter().map(|l| l.traced_rows).sum();
    m.push(metric(
        "exec.execute.rows_per_s",
        ratio(rows as f64, exec_s),
        "rows/s",
        n,
    ));
    m.push(metric(
        "exec.parallel_speedup_x",
        or_zero(input.speedup),
        "x",
        facts.len(),
    ));
    let (scanned, returned) = input.logs.iter().fold((0, 0), |(s, r), l| {
        (s + l.stream_scanned, r + l.stream_rows)
    });
    m.push(metric(
        "exec.stream.rows_scanned_per_row",
        ratio(scanned as f64, returned as f64),
        "rows/row",
        returned as usize,
    ));
    m.push(metric(
        "exec.memory.pool_peak_bytes",
        input.pool_peak,
        "bytes",
        1,
    ));
    m.push(metric(
        "exec.memory.spill_slowdown_x",
        or_zero(input.spill_slowdown),
        "x",
        1,
    ));

    // core
    let prep = t.dur_us("core.prepare");
    m.push(metric(
        "core.prepare_us",
        or_zero(median(&prep)),
        "us",
        prep.len(),
    ));
    counts(&mut m, "core.prepare", "core.prepare");
    let adm = sorted(t.dur_us("core.admission"));
    m.push(metric(
        "core.admission.wait_us_p99",
        or_zero(quantile(&adm, 0.99)),
        "us",
        adm.len(),
    ));
    counts(&mut m, "core.admission", "core.admission");
    let refused: u64 = input.logs.iter().map(|l| l.refused).sum();
    m.push(metric("core.admission.refused", refused as f64, "count", 1));
    m.push(metric(
        "core.session.glue_us",
        session_glue_us(&input.logs),
        "us",
        1,
    ));

    // storage
    let (v, n) = med("storage.snapshot");
    m.push(metric("storage.snapshot_us", v, "us", n));
    counts(&mut m, "storage.snapshot", "storage.snapshot");
    let (v, n) = med("storage.commit");
    m.push(metric("storage.commit_us", v, "us", n));
    counts(&mut m, "storage.commit", "storage.commit");
    let meter = input.meter;
    m.push(metric(
        "storage.wal.bytes_per_commit",
        ratio(meter.wal_bytes as f64, meter.commits as f64),
        "bytes",
        meter.commits as usize,
    ));
    m.push(metric(
        "storage.write_amp",
        ratio(
            (meter.wal_bytes + meter.checkpoint_bytes) as f64,
            meter.text_bytes as f64,
        ),
        "x",
        meter.commits as usize,
    ));
    let h = input.hygiene;
    m.push(metric(
        "storage.space_amp",
        ratio(h.disk_bytes as f64, h.live_bytes as f64),
        "x",
        1,
    ));
    m.push(metric("storage.recovery_ms", h.recovery_ms, "ms", 1));
    counts(&mut m, "storage.recovery", "storage.recovery");

    // the trace itself
    let ops = |mode: usize| input.logs.iter().map(|l| l.ops[mode]).sum::<u64>() as f64;
    let untraced_rate = ratio(ops(0), untraced_s);
    let traced_rate = ratio(ops(1), traced_s);
    m.push(metric(
        "trace.overhead_frac",
        or_zero(1.0 - ratio(traced_rate, untraced_rate)),
        "frac",
        ops(1) as usize,
    ));
    m.push(metric(
        "trace.coverage",
        ratio(t.self_sum_in(&windows), thread_us),
        "frac",
        t.len(),
    ));
    m.push(metric("trace.spans", t.len() as f64, "count", 1));
    m
}

/// How far the summed span self times of the traced slices may fall
/// short of (or exceed) the client threads' traced wall time: the
/// benchmark loop's own bookkeeping between spans must stay small.
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// Fail the run when `trace.coverage` is outside the tolerance.
pub fn check_coverage(metrics: &[Metric], failures: &mut Failures) {
    if let Some(c) = metrics.iter().find(|m| m.name == "trace.coverage") {
        if (c.value - 1.0).abs() > COVERAGE_TOLERANCE {
            failures.add(format!(
                "span self times cover {:.3} of the traced wall time (tolerance {COVERAGE_TOLERANCE})",
                c.value
            ));
        }
    }
}
