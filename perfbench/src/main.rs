//! Statement-level SQL benchmark of the sgb engine.
//!
//! One closed-loop client drives a `sgb_relation::Database` session with
//! a seeded SQL stream (`adhoc`, `dashboard` or `streaming`) for a fixed
//! time, checks sampled outputs against a fresh reference session and
//! brute-force oracles, and prints its metrics as one JSON line. With
//! `--trace 1` a second pass over the same stream records spans around
//! each layer call and reports per-layer metrics instead. See README.md.

mod oracle;
mod rng;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sgb_relation::planner::plan_select;
use sgb_relation::sql::{parse_statement, Statement};
use sgb_relation::{
    CacheStats, Database, Schema, SessionOptions, SubscriptionHandle, Table, Value,
};

use stats::{beyond, mean, median, percentile};
use trace::{parse_explain_analyze, self_times, SelectCost, Tracer};
use workload::{Grouping, Kind, Rec, Setup, Stmt, Stream, Workload, ROWS};

/// Set-up samples per run; `setup_s` is their median. The first sets up
/// the measured session. The others run in child processes at evenly
/// spaced points of the timed pass, so the samples see the host over the
/// whole run, as the statements do, rather than over the half second
/// before it. A set-up of the gated workloads takes ~0.1 s, so nine
/// cost about a second per run.
const SETUPS: usize = 9;

const USAGE: &str = "usage: sgb-perfbench --workload adhoc|dashboard|streaming \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: set up once, print the seconds it took and exit. The
    /// parent runs itself this way for its spread-out set-up samples.
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" | "--setup-only" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                };
                if flag == "--trace" {
                    trace = Some(on);
                } else {
                    setup_only = on;
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        setup_only,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("correctness check FAILED");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// A benchmark session: the database and its subscription handles.
struct Session {
    db: Database,
    subs: Vec<SubscriptionHandle>,
}

fn sql_err(sql: &str, e: impl std::fmt::Display) -> String {
    let head: String = sql.chars().take(120).collect();
    format!("{e} in `{head}`")
}

fn set_up(setup: &Setup, subscribe: bool) -> Result<Session, String> {
    let mut db = Database::new();
    for sql in setup.ddl.iter().chain(&setup.load) {
        db.execute(sql).map_err(|e| sql_err(sql, e))?;
    }
    let mut subs = Vec::new();
    if subscribe {
        for sql in &setup.subscriptions {
            subs.push(db.subscribe(sql).map_err(|e| sql_err(sql, e))?);
        }
    }
    for sql in &setup.warmup {
        db.execute(sql).map_err(|e| sql_err(sql, e))?;
    }
    Ok(Session { db, subs })
}

/// The rows of `pts`, in table order.
fn snapshot(db: &Database) -> Result<Vec<Rec>, String> {
    let t = db.table("pts").map_err(|e| e.to_string())?;
    t.rows
        .iter()
        .map(|r| {
            let int = |i: usize| r[i].as_i64().ok_or_else(|| format!("non-int {:?}", r[i]));
            let float = |i: usize| r[i].as_f64().ok_or_else(|| format!("non-float {:?}", r[i]));
            Ok(Rec {
                id: int(0)?,
                cell: int(1)?,
                x: float(2)?,
                y: float(3)?,
                w: float(4)?,
            })
        })
        .collect()
}

/// A fresh single-thread session without caches over `rows`.
fn reference_db(rows: &[Rec]) -> Result<Database, String> {
    let mut db = Database::with_options(
        SessionOptions::new()
            .with_cache(false)
            .with_threads(1)
            .with_subscriptions(false),
    );
    let rows = rows
        .iter()
        .map(|r| {
            vec![
                Value::Int(r.id),
                Value::Int(r.cell),
                Value::Float(r.x),
                Value::Float(r.y),
                Value::Float(r.w),
            ]
        })
        .collect();
    let table =
        Table::new(Schema::new(["id", "cell", "x", "y", "w"]), rows).map_err(|e| e.to_string())?;
    db.register("pts", table);
    Ok(db)
}

/// A sampled statement, its output and the rows it ran over.
struct Sample {
    stmt: Stmt,
    output: Table,
    /// For a similarity statement, the session's answer to its
    /// [`Grouping::members_sql`]: every group's member ids.
    members: Option<Table>,
    rows: Arc<Vec<Rec>>,
}

/// The untraced, timed pass.
#[derive(Default)]
struct Pass {
    /// Latency in milliseconds of each completed statement, by kind.
    latencies: BTreeMap<Kind, Vec<f64>>,
    busy_s: f64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    samples: Vec<Sample>,
    peak_rss_mb: f64,
}

impl Pass {
    fn completed(&self) -> usize {
        self.latencies.values().map(Vec::len).sum()
    }

    fn stmt_per_s(&self) -> f64 {
        self.completed() as f64 / self.busy_s
    }

    fn of(&self, pred: impl Fn(Kind) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .latencies
            .iter()
            .filter(|(k, _)| pred(**k))
            .flat_map(|(_, l)| l.iter().copied())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// Times one set-up in a child process of this program, which it waits
/// for.
fn child_setup(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args(["--workload", args.workload.name(), "--seed", &seed])
        .args(["--seconds", "1", "--trace", "0", "--setup-only", "1"])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up child failed: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|e| format!("set-up child printed {text:?}: {e}"))
}

/// Closed loop, one statement in flight, for `args.seconds` of measured
/// time. Statement generation, output captures for the checks and the
/// set-up samples taken along the way are excluded.
fn timed_pass(
    args: &Args,
    sess: &mut Session,
    stream: &mut Stream,
    setups: &mut Vec<f64>,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut captured: Option<(u64, Arc<Vec<Rec>>)> = None;
    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    while started.elapsed() - paused < budget {
        if setups.len() < SETUPS
            && (started.elapsed() - paused) * SETUPS as u32 >= budget * setups.len() as u32
        {
            let p0 = Instant::now();
            setups.push(child_setup(args)?);
            paused += p0.elapsed();
        }
        let stmt = stream.next_stmt();
        let t0 = Instant::now();
        let result = sess.db.execute(&stmt.sql);
        if !stmt.kind.is_read() {
            // A subscriber picks up the refreshed groupings.
            for h in &sess.subs {
                std::hint::black_box(h.snapshot());
            }
        }
        let elapsed = t0.elapsed();
        pass.attempted += 1;
        pass.busy_s += elapsed.as_secs_f64();
        match result {
            Ok(output) => {
                pass.latencies
                    .entry(stmt.kind)
                    .or_default()
                    .push(elapsed.as_secs_f64() * 1e3);
                if stmt.sample {
                    let p0 = Instant::now();
                    let version = sess.db.table("pts").map_err(|e| e.to_string())?.version();
                    let rows = match &captured {
                        Some((v, rows)) if *v == version => Arc::clone(rows),
                        _ => {
                            let rows = Arc::new(snapshot(&sess.db)?);
                            captured = Some((version, Arc::clone(&rows)));
                            rows
                        }
                    };
                    let members = match &stmt.grouping {
                        Some(g) => {
                            let sql = g.members_sql();
                            Some(sess.db.execute(&sql).map_err(|e| sql_err(&sql, e))?)
                        }
                        None => None,
                    };
                    pass.samples.push(Sample {
                        stmt,
                        output,
                        members,
                        rows,
                    });
                    paused += p0.elapsed();
                }
            }
            Err(e) => {
                pass.failed += 1;
                if pass.errors.len() < 5 {
                    pass.errors.push(sql_err(&stmt.sql, e));
                }
            }
        }
    }
    pass.peak_rss_mb = peak_rss_mb()?;
    Ok(pass)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("malformed VmHWM")?;
    Ok(kb / 1024.0)
}

/// Checks sampled outputs, and the session's full partition of each
/// sampled similarity statement, against a fresh reference session over
/// the same rows, and those partitions against the oracles. Returns the
/// mismatches found and the number of checks.
fn check_samples(samples: &[Sample]) -> Result<(Vec<String>, usize), String> {
    let mut mismatches = Vec::new();
    let mut checks = 0;
    // The O(n²) oracle runs once, on the sampled SGB-Any with the smallest
    // ε: there a missed pair most likely splits a group.
    let any_oracle = samples
        .iter()
        .enumerate()
        .filter_map(|(i, s)| match s.stmt.grouping {
            Some(Grouping::Any { eps, .. }) => Some((i, eps)),
            _ => None,
        })
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i);
    for (i, s) in samples.iter().enumerate() {
        let mut reference = reference_db(&s.rows)?;
        let sql = &s.stmt.sql;
        let want = reference.execute(sql).map_err(|e| sql_err(sql, e))?;
        checks += 1;
        if let Err(e) = oracle::compare_tables(&s.output, &want) {
            mismatches.push(format!("{}: {e}", sql_err(sql, "reference")));
        }
        let (Some(g), Some(members)) = (&s.stmt.grouping, &s.members) else {
            continue;
        };
        let got = oracle::partition_of(members)?;
        let members_sql = g.members_sql();
        let want = reference
            .execute(&members_sql)
            .map_err(|e| sql_err(&members_sql, e))
            .and_then(|t| oracle::partition_of(&t))?;
        checks += 1;
        if got != want {
            mismatches.push(format!(
                "{:?} partition: session has {} groups, reference {}",
                g.kind(),
                got.len(),
                want.len()
            ));
        }
        let expected = match g {
            Grouping::Any { metric, eps } if any_oracle == Some(i) => {
                oracle::any_groups(&s.rows, *metric, *eps)
            }
            Grouping::Around {
                centers,
                metric,
                radius,
            } => oracle::around_groups(&s.rows, centers, *metric, *radius),
            _ => continue,
        };
        checks += 1;
        if got != expected {
            mismatches.push(format!(
                "{:?} oracle: session has {} groups, oracle {}",
                g.kind(),
                got.len(),
                expected.len()
            ));
        }
    }
    Ok((mismatches, checks))
}

/// Every subscription's snapshot equals a cold recompute over the final
/// table.
fn check_subscriptions(sess: &Session, subs: &[Grouping]) -> Result<Vec<String>, String> {
    let mut mismatches = Vec::new();
    if sess.subs.is_empty() {
        return Ok(mismatches);
    }
    let rows = snapshot(&sess.db)?;
    let version = sess.db.table("pts").map_err(|e| e.to_string())?.version();
    let mut reference = reference_db(&rows)?;
    for (h, g) in sess.subs.iter().zip(subs) {
        let snap = h.snapshot();
        if !h.is_active() || snap.table_version() != version {
            mismatches.push(format!("{:?} subscription is stale or inactive", g.kind()));
            continue;
        }
        let got = oracle::canonical(
            snap.grouping()
                .output_groups()
                .map(|members| members.iter().map(|&r| rows[r].id).collect())
                .collect(),
        );
        let want = reference
            .execute(&g.members_sql())
            .map_err(|e| sql_err(&g.members_sql(), e))
            .and_then(|t| oracle::partition_of(&t))?;
        if got != want {
            mismatches.push(format!(
                "{:?} subscription snapshot has {} groups, recompute {}",
                g.kind(),
                got.len(),
                want.len()
            ));
        }
    }
    Ok(mismatches)
}

/// The traced pass: per-layer spans and the `EXPLAIN ANALYZE` actuals.
struct Traced {
    tracer: Tracer,
    selects: Vec<SelectCost>,
    statements: usize,
    busy_s: f64,
    failed: u64,
    /// Summed wall time of the SELECT statements' root spans.
    select_stmt_ms: f64,
    /// Per write: DML time minus the same write on a session without
    /// subscriptions, in milliseconds.
    subscription_write_ms: Vec<f64>,
    cache: CacheStats,
    runs: BTreeMap<String, u64>,
    deltas_applied: u64,
    deltas_rejected: u64,
}

const OPERATOR_PATHS: [(&str, &str, &[&str]); 3] = [
    ("any", "sgb_any", &["AllPairs", "Indexed", "Grid"]),
    (
        "all",
        "sgb_all",
        &["AllPairs", "BoundsChecking", "Indexed", "Grid"],
    ),
    ("around", "around", &["AllPairs", "Indexed", "Grid"]),
];

fn registry_counts(db: &Database) -> (BTreeMap<String, u64>, u64, u64) {
    let m = db.metrics();
    let mut runs = BTreeMap::new();
    for (op, label, paths) in OPERATOR_PATHS {
        for path in paths {
            let n = m.counter_value(
                "sgb_operator_runs_total",
                &[("operator", label), ("algorithm", path)],
            );
            runs.insert(format!("planner.runs.{op}.{}", path.to_lowercase()), n);
        }
    }
    let delta = |outcome| m.counter_value("sgb_subscription_deltas_total", &[("outcome", outcome)]);
    (runs, delta("applied"), delta("rejected"))
}

fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        index_hits: after.index_hits - before.index_hits,
        index_misses: after.index_misses - before.index_misses,
        result_hits: after.result_hits - before.result_hits,
        result_misses: after.result_misses - before.result_misses,
        evictions: after.evictions - before.evictions,
        validations_skipped: after.validations_skipped - before.validations_skipped,
    }
}

fn traced_pass(
    sess: &mut Session,
    mut shadow: Option<&mut Session>,
    stream: &mut Stream,
    seconds: f64,
) -> Result<Traced, String> {
    let mut tr = Tracer::new();
    let mut selects = Vec::new();
    let mut subscription_write_ms = Vec::new();
    let (mut statements, mut failed, mut busy_s) = (0usize, 0u64, 0.0f64);
    let mut select_stmt_ms = 0.0;
    let cache0 = sess.db.cache_stats();
    let (runs0, applied0, rejected0) = registry_counts(&sess.db);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut paused = Duration::ZERO;
    while started.elapsed() - paused < budget {
        let stmt = stream.next_stmt();
        let id = statements as u64;
        statements += 1;
        let root = tr.start("stmt", id, None);
        let mut dml_span = None;
        let (result, exec_span) = if stmt.kind.is_read() {
            let s = tr.start("sql.parse", id, Some(root));
            let parsed = parse_statement(&stmt.sql);
            tr.end(s);
            match parsed {
                Ok(Statement::Select(select)) => {
                    let p = tr.start("planner.plan", id, Some(root));
                    let plan = plan_select(&sess.db, &select);
                    tr.end(p);
                    let e = tr.start("exec.analyze", id, Some(root));
                    let text = plan.and_then(|_| sess.db.explain_analyze(&stmt.sql));
                    tr.end(e);
                    (text.map(Some).map_err(|e| e.to_string()), Some(e))
                }
                Ok(_) => (Err("not a SELECT".to_owned()), None),
                Err(e) => (Err(e.to_string()), None),
            }
        } else {
            let d = tr.start("engine.dml", id, Some(root));
            let r = sess.db.execute(&stmt.sql);
            tr.end(d);
            dml_span = Some(d);
            for h in &sess.subs {
                let s = tr.start("subscription.read", id, Some(root));
                std::hint::black_box(h.snapshot());
                tr.end(s);
            }
            (r.map(|_| None).map_err(|e| e.to_string()), None)
        };
        tr.end(root);
        let stmt_ns = tr.spans[root].duration_ns() as f64;
        busy_s += stmt_ns / 1e9;
        if stmt.kind.is_read() {
            select_stmt_ms += stmt_ns / 1e6;
        }
        let p0 = Instant::now();
        tr.attr(root, format!("kind.{}", stmt.kind.name()), 1.0);
        match result {
            Ok(Some(text)) => {
                let nodes = parse_explain_analyze(&text)?;
                let cost = SelectCost::of(&nodes);
                let e = exec_span.expect("SELECTs run under exec.analyze");
                for (k, n) in nodes.iter().enumerate() {
                    tr.attr(e, format!("node{k}.{}.actual_ms", n.op()), n.actual_ms);
                    for (phase, ms) in &n.phases {
                        tr.attr(e, format!("node{k}.phase.{phase}_ms"), *ms);
                    }
                    if n.candidates > 0 {
                        tr.attr(e, format!("node{k}.candidates"), n.candidates as f64);
                    }
                }
                selects.push(cost);
            }
            Ok(None) => {
                if let (Some(shadow), Some(d)) = (shadow.as_deref_mut(), dml_span) {
                    let t = Instant::now();
                    shadow
                        .db
                        .execute(&stmt.sql)
                        .map_err(|e| sql_err(&stmt.sql, e))?;
                    let bare_ms = t.elapsed().as_secs_f64() * 1e3;
                    let dml_ms = tr.spans[d].duration_ns() as f64 / 1e6;
                    subscription_write_ms.push(dml_ms - bare_ms);
                }
            }
            Err(e) => {
                failed += 1;
                eprintln!("traced statement failed: {}", sql_err(&stmt.sql, e));
            }
        }
        paused += p0.elapsed();
    }
    let (runs1, applied1, rejected1) = registry_counts(&sess.db);
    let runs = runs1
        .into_iter()
        .map(|(k, v)| {
            let before = runs0.get(&k).copied().unwrap_or(0);
            (k, v - before)
        })
        .collect();
    Ok(Traced {
        tracer: tr,
        selects,
        statements,
        busy_s,
        failed,
        select_stmt_ms,
        subscription_write_ms,
        cache: cache_delta(sess.db.cache_stats(), cache0),
        runs,
        deltas_applied: applied1 - applied0,
        deltas_rejected: rejected1 - rejected0,
    })
}

/// A metric as printed: name, value, unit.
type Metric = (String, f64, &'static str);

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn per_layer(t: &Traced, untraced_stmt_per_s: f64) -> Vec<Metric> {
    let spans = &t.tracer.spans;
    let selfs = self_times(spans);
    // Mean duration of the spans named `name`, and their summed self time
    // per statement.
    let span_us = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        mean(&v)
    };
    let total_ms = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .sum()
    };
    let self_ms = |name: &str| -> f64 {
        let total: u64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, st)| *st)
            .sum();
        total as f64 / 1e6 / t.statements.max(1) as f64
    };
    let sel = &t.selects;
    let sim: Vec<&SelectCost> = sel.iter().filter(|c| c.similarity_nodes > 0).collect();
    let sum = |f: fn(&SelectCost) -> f64| sel.iter().map(f).sum::<f64>();
    let sel_mean = |f: fn(&SelectCost) -> f64| ratio(sum(f), sel.len() as f64);
    let sim_mean =
        |f: fn(&SelectCost) -> f64| ratio(sim.iter().map(|c| f(c)).sum::<f64>(), sim.len() as f64);
    let c = &t.cache;
    let traced_stmt_per_s = t.statements as f64 / t.busy_s;

    let mut m: Vec<Metric> = vec![
        ("sql.parse_us".into(), span_us("sql.parse"), "us"),
        ("planner.plan_us".into(), span_us("planner.plan"), "us"),
    ];
    for (name, n) in &t.runs {
        m.push((name.clone(), *n as f64, "count"));
    }
    let rest: [(&str, f64, &'static str); 30] = [
        ("exec.select_ms", sel_mean(|c| c.select_ms), "ms"),
        ("exec.scan_ms", sel_mean(|c| c.scan_ms), "ms"),
        ("exec.aggregate_ms", sel_mean(|c| c.aggregate_ms), "ms"),
        ("exec.overhead_ms", sim_mean(|c| c.overhead_ms), "ms"),
        (
            "exec.rows_examined_per_row_out",
            ratio(sum(|c| c.rows_examined as f64), sum(|c| c.rows_out as f64)),
            "ratio",
        ),
        (
            "cache.result_hit_ratio",
            ratio(
                c.result_hits as f64,
                (c.result_hits + c.result_misses) as f64,
            ),
            "ratio",
        ),
        (
            "cache.index_hit_ratio",
            ratio(c.index_hits as f64, (c.index_hits + c.index_misses) as f64),
            "ratio",
        ),
        ("cache.evictions", c.evictions as f64, "count"),
        ("cache.probe_ms", sim_mean(|c| c.probe_ms), "ms"),
        ("core.validate_ms", sim_mean(|c| c.validate_ms), "ms"),
        ("core.index_build_ms", sim_mean(|c| c.index_build_ms), "ms"),
        ("core.join_ms", sim_mean(|c| c.join_ms), "ms"),
        ("core.merge_ms", sim_mean(|c| c.merge_ms), "ms"),
        (
            "spatial.candidate_pairs",
            sim_mean(|c| c.candidates as f64),
            "count",
        ),
        (
            "subscription.write_ms",
            mean(&t.subscription_write_ms),
            "ms",
        ),
        (
            "subscription.read_ns",
            span_us("subscription.read") * 1e3,
            "ns",
        ),
        (
            "subscription.deltas_applied",
            t.deltas_applied as f64,
            "count",
        ),
        (
            "subscription.deltas_rejected",
            t.deltas_rejected as f64,
            "count",
        ),
        (
            "subscription.served_ratio",
            ratio(
                sum(|c| c.served_nodes as f64),
                sum(|c| c.similarity_nodes as f64),
            ),
            "ratio",
        ),
        ("self.stmt_ms", self_ms("stmt"), "ms"),
        ("self.sql.parse_ms", self_ms("sql.parse"), "ms"),
        ("self.planner.plan_ms", self_ms("planner.plan"), "ms"),
        ("self.exec.analyze_ms", self_ms("exec.analyze"), "ms"),
        ("self.engine.dml_ms", self_ms("engine.dml"), "ms"),
        (
            "self.subscription.read_ms",
            self_ms("subscription.read"),
            "ms",
        ),
        (
            "select.core_share",
            ratio(sum(SelectCost::core_ms), t.select_stmt_ms),
            "ratio",
        ),
        (
            "select.join_build_share",
            ratio(sum(|c| c.join_ms + c.index_build_ms), t.select_stmt_ms),
            "ratio",
        ),
        (
            "stmt.dml_share",
            ratio(total_ms("engine.dml"), total_ms("stmt")),
            "ratio",
        ),
        ("trace.stmt_per_s", traced_stmt_per_s, "1/s"),
        (
            "trace.overhead_pct",
            (untraced_stmt_per_s / traced_stmt_per_s - 1.0) * 100.0,
            "%",
        ),
    ];
    m.extend(rest.into_iter().map(|(n, v, u)| (n.to_owned(), v, u)));
    m
}

fn end_to_end(
    workload: Workload,
    pass: &Pass,
    setup_s: f64,
) -> Result<(Vec<Metric>, BTreeMap<String, String>), String> {
    let mut tails = BTreeMap::new();
    let p50 = |name: &str, v: &[f64]| -> Result<Metric, String> {
        if v.is_empty() {
            return Err(format!("no samples for {name}"));
        }
        Ok((name.to_owned(), percentile(v, 50.0), "ms"))
    };
    let mut tail_of = |name: &str, v: &[f64], p: f64| -> Result<Metric, String> {
        if v.is_empty() {
            return Err(format!("no samples for {name}"));
        }
        let n = beyond(v.len(), p);
        let short = if n < 10 {
            eprintln!("warning: {name} is p{p} with only {n} samples beyond it");
            ", fewer than ten beyond"
        } else {
            ""
        };
        tails.insert(
            name.to_owned(),
            format!("p{p} of {} ({n} beyond{short})", v.len()),
        );
        Ok((name.to_owned(), percentile(v, p), "ms"))
    };
    let (select_p, write_p) = workload.tail_percentiles();
    let selects = pass.of(Kind::is_read);
    let writes = pass.of(|k| !k.is_read());
    let metrics = vec![
        ("setup_s".to_owned(), setup_s, "s"),
        ("stmt_per_s".to_owned(), pass.stmt_per_s(), "1/s"),
        p50("select_p50_ms", &selects)?,
        tail_of("select_tail_ms", &selects, select_p)?,
        p50("any_p50_ms", &pass.of(|k| k == Kind::Any))?,
        p50("all_p50_ms", &pass.of(|k| k == Kind::All))?,
        p50("around_p50_ms", &pass.of(|k| k == Kind::Around))?,
        p50("groupby_p50_ms", &pass.of(|k| k == Kind::GroupBy))?,
        p50("write_p50_ms", &writes)?,
        tail_of("write_tail_ms", &writes, write_p)?,
        ("peak_rss_mb".to_owned(), pass.peak_rss_mb, "MiB"),
    ];
    Ok((metrics, tails))
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, when it is a git work tree.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown (not a git checkout)".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_owned();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn fingerprint(
    args: &Args,
    pass: &Pass,
    tails: &BTreeMap<String, String>,
    setups: &[f64],
) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut counts = String::new();
    for (i, kind) in Kind::ALL.iter().enumerate() {
        let n = pass.latencies.get(kind).map_or(0, Vec::len);
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(counts, "{sep}\"{}\":{n}", kind.name());
    }
    let tails: Vec<String> = tails
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let setups: Vec<String> = setups.iter().map(|s| json_number(*s)).collect();
    format!(
        "{{\"fingerprint\":{{\"workload\":{},\"seed\":{},\"rows\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{nproc},\"rustc\":{},\"profile\":{},\"commit\":{},\
         \"clients\":1,\"loop\":\"closed\",\"statements\":{{{counts}}},\"attempted\":{},\
         \"failed\":{},\"fail_ratio\":{},\"tails\":{{{}}},\"setup_s_samples\":[{}],\
         \"checked_samples\":{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        ROWS,
        json_number(args.seconds),
        args.trace as u8,
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        json_str(&git_commit()),
        pass.attempted,
        pass.failed,
        json_number(ratio(pass.failed as f64, pass.attempted as f64)),
        tails.join(","),
        setups.join(","),
        pass.samples.len(),
    )
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_number(*value),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

fn run(args: &Args) -> Result<bool, String> {
    let data = workload::dataset(ROWS);
    let setup = Stream::new(args.workload, args.seed, &data).setup(args.seed, &data);
    let subscribe = !setup.subscriptions.is_empty();

    let t = Instant::now();
    let mut sess = set_up(&setup, subscribe)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    if args.setup_only {
        println!("{}", setups[0]);
        return Ok(true);
    }

    let mut stream = Stream::new(args.workload, args.seed, &data);
    let pass = timed_pass(args, &mut sess, &mut stream, &mut setups)?;
    let setup_s = median(&setups);
    for e in &pass.errors {
        eprintln!("statement failed: {e}");
    }

    let (mut mismatches, checks) = check_samples(&pass.samples)?;
    mismatches.extend(check_subscriptions(&sess, stream.subscriptions())?);
    drop(sess);

    let (e2e, tails) = end_to_end(args.workload, &pass, setup_s)?;
    let mut failed = pass.failed;
    let mut attempted = pass.attempted;
    let metrics = if args.trace {
        // A separate pass over the same stream from a fresh session.
        let mut sess = set_up(&setup, subscribe)?;
        let mut shadow = if subscribe {
            Some(set_up(&setup, false)?)
        } else {
            None
        };
        let mut stream = Stream::new(args.workload, args.seed, &data);
        let traced = traced_pass(&mut sess, shadow.as_mut(), &mut stream, args.seconds)?;
        mismatches.extend(check_subscriptions(&sess, stream.subscriptions())?);
        failed += traced.failed;
        attempted += traced.statements as u64;
        write_trace(args, &traced.tracer)?;
        per_layer(&traced, pass.stmt_per_s())
    } else {
        e2e.clone()
    };

    println!("{}", fingerprint(args, &pass, &tails, &setups));
    for (name, value, unit) in e2e
        .iter()
        .chain(if args.trace { &metrics[..] } else { &[] })
    {
        println!("# {name} = {value:.4} {unit}");
    }
    println!(
        "# correctness: {checks} sampled checks, {} mismatches",
        mismatches.len()
    );
    for m in &mismatches {
        eprintln!("MISMATCH: {m}");
    }
    let correct = mismatches.is_empty();
    println!("{}", result_line(correct, attempted, failed, &metrics));
    Ok(correct)
}

/// Writes the traced pass's spans as JSON lines under `results/`.
fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tracer.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))
}
