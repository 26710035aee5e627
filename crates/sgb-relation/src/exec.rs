//! Plan executor: materialises a [`Plan`] tree bottom-up.
//!
//! Every statement executes under a [`QueryGovernor`] built from the
//! session options (`Database::statement_governor`): the
//! similarity operators run through the core's governed `try_run` /
//! `try_run_cached` entry points, so a statement that overruns its
//! deadline, gets cancelled, or exceeds the memory budget fails with
//! [`Error::Aborted`] — and fails *cleanly*: no partial grouping enters
//! the session caches, and the database stays fully usable.
#![deny(clippy::unwrap_used)]

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sgb_core::query::Grouping;
use sgb_core::{Algorithm, QueryGovernor, SgbQuery};
use sgb_geom::{Metric, Point};
use sgb_telemetry::{Counter, Phase, Telemetry};

use crate::cache::{slot_key, Slot};
use crate::engine::Database;
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::{AggCall, AggKind, NodeStat, Plan, SgbMode};
use crate::subscription::{GroupingSnapshot, QueryKey};
use crate::table::{Row, Table};
use crate::value::Value;

/// Executes `plan` against the database catalog, under a statement
/// governor drawn from the session options (deadline, memory budget,
/// session cancel token).
pub fn execute(plan: &Plan, db: &Database) -> Result<Table> {
    let governor = db.statement_governor();
    execute_governed(plan, db, &governor)
}

/// [`execute`] under an explicit governor; one governor (and thus one
/// deadline) spans the whole plan tree.
pub(crate) fn execute_governed(
    plan: &Plan,
    db: &Database,
    governor: &QueryGovernor,
) -> Result<Table> {
    let rows = execute_node(plan, db, governor, 0, None)?;
    Ok(Table::from_parts(plan.schema().clone(), rows.into_rows()))
}

/// `EXPLAIN ANALYZE` entry point: executes `plan` with per-node actuals
/// collection. The returned stats are indexed in pre-order (node 0 is the
/// root; a join's left subtree precedes its right), matching
/// [`Plan::explain_analyze`]'s walk. Only this instrumented path pays for
/// clock reads and per-query telemetry; plain [`execute`] passes `None`
/// sinks throughout and stays on the zero-cost path.
pub(crate) fn execute_with_stats(
    plan: &Plan,
    db: &Database,
    governor: &QueryGovernor,
) -> Result<(Table, Vec<NodeStat>)> {
    let stats = RefCell::new(vec![NodeStat::default(); plan.node_count()]);
    let rows = execute_node(plan, db, governor, 0, Some(&stats))?;
    let table = Table::from_parts(plan.schema().clone(), rows.into_rows());
    Ok((table, stats.into_inner()))
}

/// An intermediate result: a row sequence that either borrows a catalog
/// table's rows (a scan, and the filters, sorts and limits above it) or
/// owns rows a node built (projections, joins, aggregate outputs), read
/// through an optional selection of row positions. Filter, Sort and Limit
/// only rewrite the selection, so base rows are never copied on the way
/// up; the statement root materialises once ([`RowSet::into_rows`]).
struct RowSet<'a> {
    rows: Cow<'a, [Row]>,
    /// Positions into `rows`, in output order and each at most once;
    /// `None` reads every row in storage order.
    sel: Option<Vec<usize>>,
}

impl<'a> RowSet<'a> {
    fn borrowed(rows: &'a [Row]) -> Self {
        Self {
            rows: Cow::Borrowed(rows),
            sel: None,
        }
    }

    fn owned(rows: Vec<Row>) -> Self {
        Self {
            rows: Cow::Owned(rows),
            sel: None,
        }
    }

    fn len(&self) -> usize {
        self.sel.as_ref().map_or(self.rows.len(), Vec::len)
    }

    /// Reads the row at an output position. The base slice and the
    /// selection are resolved once, here, not on every read: this is the
    /// hot loop of every aggregate.
    fn reader<'s>(&'s self) -> impl Fn(usize) -> &'s Row + Copy + 's {
        let (rows, sel) = (&*self.rows, self.sel.as_deref());
        move |i| &rows[sel.map_or(i, |sel| sel[i])]
    }

    fn iter(&self) -> impl ExactSizeIterator<Item = &Row> + '_ {
        (0..self.len()).map(self.reader())
    }

    /// Keeps the rows at output positions `keep`, in that order (each
    /// position at most once).
    fn select(self, keep: Vec<usize>) -> Self {
        let sel = match self.sel {
            Some(sel) => keep.into_iter().map(|p| sel[p]).collect(),
            None => keep,
        };
        Self {
            rows: self.rows,
            sel: Some(sel),
        }
    }

    /// Materialises the output rows: borrowed rows are cloned, owned rows
    /// are moved out.
    fn into_rows(self) -> Vec<Row> {
        match (self.rows, self.sel) {
            (rows, None) => rows.into_owned(),
            (Cow::Borrowed(rows), Some(sel)) => sel.iter().map(|&i| rows[i].clone()).collect(),
            // Selections never repeat a position, so each row moves once.
            (Cow::Owned(mut rows), Some(sel)) => {
                sel.iter().map(|&i| std::mem::take(&mut rows[i])).collect()
            }
        }
    }
}

/// The recursive worker: executes one node (and its inputs), recording
/// inclusive elapsed time and output cardinality into `stats[id]` when a
/// sink is present. `id` is the node's pre-order index within the root
/// plan.
fn execute_node<'a>(
    plan: &Plan,
    db: &'a Database,
    governor: &QueryGovernor,
    id: usize,
    stats: Option<&RefCell<Vec<NodeStat>>>,
) -> Result<RowSet<'a>> {
    let started = stats.map(|_| Instant::now());
    let out = execute_inner(plan, db, governor, id, stats)?;
    if let (Some(stats), Some(started)) = (stats, started) {
        let stat = &mut stats.borrow_mut()[id];
        stat.elapsed_nanos = started.elapsed().as_nanos() as u64;
        stat.rows = out.len();
    }
    Ok(out)
}

fn execute_inner<'a>(
    plan: &Plan,
    db: &'a Database,
    governor: &QueryGovernor,
    id: usize,
    stats: Option<&RefCell<Vec<NodeStat>>>,
) -> Result<RowSet<'a>> {
    let execute = |plan: &Plan, child_id: usize| execute_node(plan, db, governor, child_id, stats);
    match plan {
        Plan::Scan { table, .. } => Ok(RowSet::borrowed(&db.table(table)?.rows)),
        Plan::Filter { input, predicate } => {
            let t = execute(input, id + 1)?;
            let mut kept = Vec::with_capacity(t.len());
            for (i, row) in t.iter().enumerate() {
                if predicate.eval_predicate(row)? {
                    kept.push(i);
                }
            }
            Ok(t.select(kept))
        }
        Plan::Project { input, exprs, .. } => {
            let t = execute(input, id + 1)?;
            let mut rows = Vec::with_capacity(t.len());
            for row in t.iter() {
                let mut out = Vec::with_capacity(exprs.len());
                for e in exprs {
                    out.push(e.eval(row)?);
                }
                rows.push(out);
            }
            Ok(RowSet::owned(rows))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } => {
            let l = execute(left, id + 1)?;
            let r = execute(right, id + 1 + left.node_count())?;
            // Build on the right input.
            let mut build: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
            'rows: for (i, row) in r.iter().enumerate() {
                let mut key = Vec::with_capacity(right_keys.len());
                for k in right_keys {
                    let v = k.eval(row)?;
                    if v.is_null() {
                        continue 'rows; // NULL keys never join
                    }
                    key.push(v);
                }
                build.entry(key).or_default().push(i);
            }
            let right_row = r.reader();
            let mut rows = Vec::new();
            let mut key = Vec::with_capacity(left_keys.len());
            'probe: for lrow in l.iter() {
                key.clear();
                for k in left_keys {
                    let v = k.eval(lrow)?;
                    if v.is_null() {
                        continue 'probe;
                    }
                    key.push(v);
                }
                if let Some(matches) = build.get(key.as_slice()) {
                    for &ri in matches {
                        let mut out = lrow.clone();
                        out.extend(right_row(ri).iter().cloned());
                        rows.push(out);
                    }
                }
            }
            Ok(RowSet::owned(rows))
        }
        Plan::CrossJoin { left, right, .. } => {
            let l = execute(left, id + 1)?;
            let r = execute(right, id + 1 + left.node_count())?;
            let mut rows = Vec::with_capacity(l.len() * r.len());
            for lrow in l.iter() {
                for rrow in r.iter() {
                    let mut out = lrow.clone();
                    out.extend(rrow.iter().cloned());
                    rows.push(out);
                }
            }
            Ok(RowSet::owned(rows))
        }
        Plan::HashAggregate {
            input,
            group_exprs,
            aggs,
            having,
            outputs,
            ..
        } => {
            let t = execute(input, id + 1)?;
            // Groups are numbered in first-seen order (like PostgreSQL's
            // hash agg output is unordered, but determinism helps tests).
            // One key buffer serves every probe; a key is allocated and
            // stored only when its group first appears.
            let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut members: Vec<Vec<usize>> = Vec::new();
            let mut key = Vec::with_capacity(group_exprs.len());
            for (i, row) in t.iter().enumerate() {
                key.clear();
                for g in group_exprs {
                    key.push(g.eval(row)?);
                }
                let slot = match index.get(key.as_slice()) {
                    Some(&s) => s,
                    None => {
                        index.insert(key.clone(), members.len());
                        members.push(Vec::new());
                        members.len() - 1
                    }
                };
                members[slot].push(i);
            }
            // Global aggregation over empty input still yields one row.
            if group_exprs.is_empty() && members.is_empty() {
                index.insert(Vec::new(), 0);
                members.push(Vec::new());
            }
            let mut keys = vec![Vec::new(); members.len()];
            for (k, slot) in index {
                keys[slot] = k;
            }
            let groups = keys.into_iter().zip(members.iter().map(Vec::as_slice));
            aggregate_groups(&t, groups, aggs, having, outputs)
        }
        Plan::SimilarityGroupBy {
            input,
            coords,
            mode,
            aggs,
            having,
            outputs,
            ..
        } => {
            let t = execute(input, id + 1)?;
            // Per-query profile only when an EXPLAIN ANALYZE sink exists:
            // plain execution keeps the inert handle (zero clock reads).
            let tel = if stats.is_some() {
                Telemetry::new()
            } else {
                Telemetry::off()
            };
            let (op, algorithm) = match mode {
                SgbMode::All { algorithm, .. } => ("sgb_all", *algorithm),
                SgbMode::Any { algorithm, .. } => ("sgb_any", *algorithm),
            };
            db.registry().inc(
                "sgb_operator_runs_total",
                &[("operator", op), ("algorithm", &algorithm.to_string())],
                1,
            );
            // Serve from a fresh subscription snapshot when one matches;
            // otherwise route through the session's shared-work cache when
            // the node reads a base table directly — only then does the
            // table's version counter describe the operator's actual input.
            let snapshot = subscription_grouping(db, input, coords, &QueryKey::from_sgb_mode(mode));
            let computed;
            let grouping = match &snapshot {
                Some(snap) => snap.grouping(),
                None => {
                    computed = match cached_scan_table(db, input) {
                        Some(table) => {
                            run_sgb_cached(db, &table, &t, coords, mode, governor, &tel)?
                        }
                        None => run_sgb(&t, coords, mode, governor, &tel)?,
                    };
                    &computed
                }
            };
            let out = aggregate_grouping(&t, grouping, aggs, having, outputs, &tel);
            if let Some(stats) = stats {
                stats.borrow_mut()[id].detail = similarity_detail(grouping, &tel);
            }
            out
        }
        Plan::SimilarityAround {
            input,
            coords,
            centers,
            metric,
            radius,
            algorithm,
            threads,
            aggs,
            having,
            outputs,
            ..
        } => {
            let t = execute(input, id + 1)?;
            let tel = if stats.is_some() {
                Telemetry::new()
            } else {
                Telemetry::off()
            };
            db.registry().inc(
                "sgb_operator_runs_total",
                &[
                    ("operator", "around"),
                    ("algorithm", &algorithm.to_string()),
                ],
                1,
            );
            let snapshot = subscription_grouping(
                db,
                input,
                coords,
                &QueryKey::around(centers, *metric, *radius),
            );
            let computed;
            let grouping = match &snapshot {
                Some(snap) => snap.grouping(),
                None => {
                    computed = match cached_scan_table(db, input) {
                        Some(table) => run_around_cached(
                            db, &table, &t, coords, centers, *metric, *radius, *algorithm,
                            *threads, governor, &tel,
                        )?,
                        None => run_around(
                            &t, coords, centers, *metric, *radius, *algorithm, *threads, governor,
                            &tel,
                        )?,
                    };
                    &computed
                }
            };
            let out = aggregate_grouping(&t, grouping, aggs, having, outputs, &tel);
            if let Some(stats) = stats {
                stats.borrow_mut()[id].detail = similarity_detail(grouping, &tel);
            }
            out
        }
        Plan::Sort { input, keys } => {
            let t = execute(input, id + 1)?;
            // Pre-compute sort keys into one flat buffer (row-major, one
            // stride per row), then sort output positions — stably, like
            // the row sort it stands for.
            let width = keys.len();
            let mut decorated: Vec<Value> = Vec::with_capacity(t.len() * width);
            for row in t.iter() {
                for (e, _) in keys {
                    decorated.push(e.eval(row)?);
                }
            }
            let mut order: Vec<usize> = (0..t.len()).collect();
            order.sort_by(|&a, &b| {
                let (ka, kb) = (
                    &decorated[a * width..][..width],
                    &decorated[b * width..][..width],
                );
                for ((x, y), (_, desc)) in ka.iter().zip(kb).zip(keys) {
                    let ord = match (x.is_null(), y.is_null()) {
                        (true, true) => std::cmp::Ordering::Equal,
                        (true, false) => std::cmp::Ordering::Less,
                        (false, true) => std::cmp::Ordering::Greater,
                        (false, false) => x.cmp_non_null(y),
                    };
                    let ord = if *desc { ord.reverse() } else { ord };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            Ok(t.select(order))
        }
        Plan::Limit { input, n } => {
            let t = execute(input, id + 1)?;
            let kept = (0..t.len().min(*n)).collect();
            Ok(t.select(kept))
        }
    }
}

/// Aggregates the member rows of each group into one output row, applying
/// HAVING and the output expressions over the internal `[key…,
/// aggregates…]` layout — shared by every aggregating plan node. A group
/// is its key values (empty for similarity groups) and the output
/// positions of its members in `t`; each aggregate folds a whole group
/// in one [`AggState::update`] call.
fn aggregate_groups<'a, 'g>(
    t: &RowSet<'_>,
    groups: impl Iterator<Item = (Row, &'g [usize])>,
    aggs: &[AggCall],
    having: &Option<BoundExpr>,
    outputs: &[BoundExpr],
) -> Result<RowSet<'a>> {
    let row = t.reader();
    let mut rows = Vec::with_capacity(groups.size_hint().0);
    for (key, members) in groups {
        let mut internal = key;
        for call in aggs {
            let mut st = AggState::new(call);
            st.update(call, members.iter().map(|&r| row(r)))?;
            internal.push(st.finish());
        }
        if let Some(h) = having {
            if !h.eval_predicate(&internal)? {
                continue;
            }
        }
        let mut out = Vec::with_capacity(outputs.len());
        for e in outputs {
            out.push(e.eval(&internal)?);
        }
        rows.push(out);
    }
    Ok(RowSet::owned(rows))
}

/// Aggregates a similarity node's groups in the relational output shape
/// ([`Grouping::output_groups`]): answer groups first, then — for
/// radius-bounded AROUND — the outlier group.
fn aggregate_grouping<'a>(
    t: &RowSet<'_>,
    grouping: &Grouping,
    aggs: &[AggCall],
    having: &Option<BoundExpr>,
    outputs: &[BoundExpr],
    tel: &Telemetry,
) -> Result<RowSet<'a>> {
    let _agg = tel.phase(Phase::Aggregate);
    let groups = grouping
        .output_groups()
        .map(|members| (Vec::new(), members));
    aggregate_groups(t, groups, aggs, having, outputs)
}

/// The `EXPLAIN ANALYZE` detail line of a similarity node: answer-group
/// and outlier cardinality, the candidate-pair count the filter phase
/// visited, and the phase breakdown of the query profile. Snapshot-served
/// groupings carry no live profile — the detail then reports cardinality
/// only, which is exactly what was (not) computed.
fn similarity_detail(grouping: &Grouping, tel: &Telemetry) -> String {
    let mut d = format!("groups: {}", grouping.num_groups());
    let outliers = grouping.outliers().len();
    if outliers > 0 {
        d.push_str(&format!(", outliers: {outliers}"));
    }
    if let Some(profile) = tel.profile() {
        let candidates = profile.counter(Counter::CandidatePairs);
        if candidates > 0 {
            d.push_str(&format!(", candidates: {candidates}"));
        }
        let phases = profile.phase_summary();
        if !phases.is_empty() {
            d.push_str(&format!("; phases: {phases}"));
        }
    }
    d
}

/// The fresh subscription snapshot to serve the grouping from, when one
/// matches the node: the node reads a base table directly, an active
/// subscription over it has the same grouping attributes and
/// result-relevant operator parameters, and its published snapshot
/// reflects the table's current version. Freshness is re-checked here at
/// execution time, so serving is always consistent with what a recompute
/// would produce.
fn subscription_grouping(
    db: &Database,
    input: &Plan,
    coords: &[BoundExpr],
    key: &QueryKey,
) -> Option<Arc<GroupingSnapshot>> {
    let table = match input {
        Plan::Scan { table, .. } if !table.is_empty() => table.to_ascii_lowercase(),
        _ => return None,
    };
    let version = db.table(&table).ok()?.version();
    db.subscriptions()
        .serve(&table, &slot_key(coords), key, version)
}

/// The table a similarity node's cache slot is scoped to, when caching
/// applies: the session cache is on and the node's input is a bare
/// catalog scan (the planner's pushdown briefly uses empty-named `Scan`
/// placeholders; those never qualify). Lower-cased, matching the catalog.
fn cached_scan_table(db: &Database, input: &Plan) -> Option<String> {
    if !db.session().cache {
        return None;
    }
    match input {
        Plan::Scan { table, .. } if !table.is_empty() => Some(table.to_ascii_lowercase()),
        _ => None,
    }
}

/// Extracts the 2-D or 3-D grouping points of every row (the paper's "two
/// and three dimensional data space").
pub(crate) fn extract_points<'r, const D: usize>(
    rows: impl IntoIterator<Item = &'r Row>,
    coords: &[BoundExpr],
) -> Result<Vec<Point<D>>> {
    debug_assert_eq!(coords.len(), D);
    let rows = rows.into_iter();
    let mut points: Vec<Point<D>> = Vec::with_capacity(rows.size_hint().0);
    for row in rows {
        let mut c = [0.0f64; D];
        for (d, expr) in coords.iter().enumerate() {
            let v = expr.eval_ref(row)?;
            let Some(f) = v.as_f64() else {
                return Err(Error::Eval(format!(
                    "similarity grouping attributes must be numeric and non-null, got {v}"
                )));
            };
            if !f.is_finite() {
                return Err(Error::Eval(
                    "similarity grouping attributes must be finite".into(),
                ));
            }
            c[d] = f;
        }
        points.push(Point::new(c));
    }
    Ok(points)
}

/// Runs the configured SGB-All / SGB-Any operator over the grouping points.
fn run_sgb(
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    mode: &SgbMode,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    match coords.len() {
        2 => run_sgb_d::<2>(rows, coords, mode, governor, telemetry),
        3 => run_sgb_d::<3>(rows, coords, mode, governor, telemetry),
        n => Err(Error::Unsupported(format!(
            "similarity grouping over {n} attributes (2 or 3 supported)"
        ))),
    }
}

fn run_sgb_d<const D: usize>(
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    mode: &SgbMode,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let points = extract_points::<D>(rows.iter(), coords)?;
    Ok(sgb_query::<D>(mode)?
        .telemetry(telemetry.clone())
        .try_run(&points, governor)?)
}

/// Lowers a plan's SGB-All / SGB-Any mode into the core query. The plan's
/// algorithm is already resolved (never `Auto`), so the query's own cost
/// model passes it through unchanged.
pub(crate) fn sgb_query<const D: usize>(mode: &SgbMode) -> Result<SgbQuery<D>> {
    Ok(match mode {
        SgbMode::All {
            eps,
            metric,
            overlap,
            algorithm,
            seed,
            ..
        } => SgbQuery::all(*eps)
            .metric(*metric)
            .overlap(*overlap)
            .algorithm(*algorithm)
            .seed(*seed),
        SgbMode::Any {
            eps,
            metric,
            algorithm,
            threads,
            ..
        } => {
            // The planner only emits algorithms the operator implements;
            // a hand-built plan must get an Err, not the builder's panic.
            if algorithm.for_any().is_none() {
                return Err(Error::Eval(format!(
                    "{algorithm} is not an execution path of DISTANCE-TO-ANY"
                )));
            }
            SgbQuery::any(*eps)
                .metric(*metric)
                .algorithm(*algorithm)
                .threads(*threads)
        }
    })
}

/// [`run_sgb`] through the session's shared-work cache: the slot supplies
/// the extracted points of the current table version (skipping the
/// O(n·d) conversion-and-validation pass on repeats), the cached spatial
/// indexes, and whole results of exact repeat queries. Bit-identical to
/// the cold path.
#[allow(clippy::too_many_arguments)]
fn run_sgb_cached(
    db: &Database,
    table: &str,
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    mode: &SgbMode,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let key = slot_key(coords);
    match coords.len() {
        2 => {
            let slot = db.caches().slot2(table, &key);
            run_sgb_cached_d::<2>(db, table, rows, coords, mode, &slot, governor, telemetry)
        }
        3 => {
            let slot = db.caches().slot3(table, &key);
            run_sgb_cached_d::<3>(db, table, rows, coords, mode, &slot, governor, telemetry)
        }
        n => Err(Error::Unsupported(format!(
            "similarity grouping over {n} attributes (2 or 3 supported)"
        ))),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_sgb_cached_d<const D: usize>(
    db: &Database,
    table: &str,
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    mode: &SgbMode,
    slot: &Slot<D>,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let version = db.table(table)?.version();
    let points = slot.points_for(version, || extract_points::<D>(rows.iter(), coords))?;
    Ok(sgb_query::<D>(mode)?
        .telemetry(telemetry.clone())
        .try_run_cached(&points, slot.core(), version, governor)?)
}

/// Runs SGB-Around over the grouping points: every row joins the group of
/// its nearest center; rows beyond `radius` (when set) form the trailing
/// outlier group.
#[allow(clippy::too_many_arguments)]
fn run_around(
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    centers: &[Vec<f64>],
    metric: Metric,
    radius: Option<f64>,
    algorithm: Algorithm,
    threads: usize,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    match coords.len() {
        2 => run_around_d::<2>(
            rows, coords, centers, metric, radius, algorithm, threads, governor, telemetry,
        ),
        3 => run_around_d::<3>(
            rows, coords, centers, metric, radius, algorithm, threads, governor, telemetry,
        ),
        n => Err(Error::Unsupported(format!(
            "similarity grouping over {n} attributes (2 or 3 supported)"
        ))),
    }
}

#[allow(clippy::too_many_arguments)]
fn run_around_d<const D: usize>(
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    centers: &[Vec<f64>],
    metric: Metric,
    radius: Option<f64>,
    algorithm: Algorithm,
    threads: usize,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let points = extract_points::<D>(rows.iter(), coords)?;
    Ok(
        around_query::<D>(centers, metric, radius, algorithm, threads)?
            .telemetry(telemetry.clone())
            .try_run(&points, governor)?,
    )
}

/// Lowers a plan's AROUND parameters into the core query.
pub(crate) fn around_query<const D: usize>(
    centers: &[Vec<f64>],
    metric: Metric,
    radius: Option<f64>,
    algorithm: Algorithm,
    threads: usize,
) -> Result<SgbQuery<D>> {
    // The parser guarantees a non-empty list of finite, correctly-sized
    // centers and a valid radius; keep defensive errors for plans built
    // programmatically (the core config asserts on these and would abort).
    if centers.is_empty() {
        return Err(Error::Eval("AROUND requires at least one center".into()));
    }
    let mut center_points: Vec<Point<D>> = Vec::with_capacity(centers.len());
    for c in centers {
        let arr: [f64; D] = c.as_slice().try_into().map_err(|_| {
            Error::Eval(format!(
                "AROUND center has {} coordinate(s), expected {D}",
                c.len()
            ))
        })?;
        if !arr.iter().all(|v| v.is_finite()) {
            return Err(Error::Eval(
                "AROUND center coordinates must be finite".into(),
            ));
        }
        center_points.push(Point::new(arr));
    }
    if algorithm.for_around().is_none() {
        return Err(Error::Eval(format!(
            "{algorithm} is not an execution path of AROUND"
        )));
    }
    let mut query = SgbQuery::around(center_points)
        .metric(metric)
        .algorithm(algorithm)
        .threads(threads);
    if let Some(r) = radius {
        if !r.is_finite() || r < 0.0 {
            return Err(Error::Eval(format!(
                "AROUND radius must be finite and >= 0, got {r}"
            )));
        }
        query = query.max_radius(r);
    }
    Ok(query)
}

/// [`run_around`] through the session's shared-work cache; see
/// [`run_sgb_cached`]. The center index additionally survives table
/// mutations — it is built from the query's centers, never the table.
#[allow(clippy::too_many_arguments)]
fn run_around_cached(
    db: &Database,
    table: &str,
    rows: &RowSet<'_>,
    coords: &[BoundExpr],
    centers: &[Vec<f64>],
    metric: Metric,
    radius: Option<f64>,
    algorithm: Algorithm,
    threads: usize,
    governor: &QueryGovernor,
    telemetry: &Telemetry,
) -> Result<Grouping> {
    let key = slot_key(coords);
    match coords.len() {
        2 => {
            let slot = db.caches().slot2(table, &key);
            let version = db.table(table)?.version();
            let points = slot.points_for(version, || extract_points::<2>(rows.iter(), coords))?;
            Ok(
                around_query::<2>(centers, metric, radius, algorithm, threads)?
                    .telemetry(telemetry.clone())
                    .try_run_cached(&points, slot.core(), version, governor)?,
            )
        }
        3 => {
            let slot = db.caches().slot3(table, &key);
            let version = db.table(table)?.version();
            let points = slot.points_for(version, || extract_points::<3>(rows.iter(), coords))?;
            Ok(
                around_query::<3>(centers, metric, radius, algorithm, threads)?
                    .telemetry(telemetry.clone())
                    .try_run_cached(&points, slot.core(), version, governor)?,
            )
        }
        n => Err(Error::Unsupported(format!(
            "similarity grouping over {n} attributes (2 or 3 supported)"
        ))),
    }
}

/// Running accumulator for one aggregate call.
enum AggState {
    CountStar(i64),
    Count(i64),
    Sum { sum: f64, all_int: bool, seen: bool },
    Avg { sum: f64, n: i64 },
    Min(Option<Value>),
    Max(Option<Value>),
    ArrayAgg(Vec<String>),
}

impl AggState {
    fn new(call: &AggCall) -> Self {
        match call.kind {
            AggKind::CountStar => AggState::CountStar(0),
            AggKind::Count => AggState::Count(0),
            AggKind::Sum => AggState::Sum {
                sum: 0.0,
                all_int: true,
                seen: false,
            },
            AggKind::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggKind::Min => AggState::Min(None),
            AggKind::Max => AggState::Max(None),
            AggKind::ArrayAgg => AggState::ArrayAgg(Vec::new()),
        }
    }

    /// Folds `rows` into the accumulator: one dispatch on the aggregate
    /// kind per batch, then a loop that reads the argument by reference
    /// ([`BoundExpr::eval_ref`]) and skips NULLs, as SQL aggregates do.
    /// Min/Max clone a value only when it becomes the new best.
    fn update<'r>(
        &mut self,
        call: &AggCall,
        rows: impl IntoIterator<Item = &'r Row>,
    ) -> Result<()> {
        let rows = rows.into_iter();
        if let AggState::CountStar(n) = self {
            *n += rows.count() as i64;
            return Ok(());
        }
        // The planner always attaches an argument to non-count(*)
        // aggregates; a hand-built plan without one gets an Err, not a
        // panic.
        let Some(arg_expr) = call.arg.as_ref() else {
            return Err(Error::Eval("aggregate call is missing its argument".into()));
        };
        let args = rows.filter_map(|row| match arg_expr.eval_ref(row) {
            Ok(v) if v.is_null() => None,
            arg => Some(arg),
        });
        match self {
            AggState::CountStar(_) => {} // handled by the early return above
            AggState::Count(n) => {
                for arg in args {
                    arg?;
                    *n += 1;
                }
            }
            AggState::Sum { sum, all_int, seen } => {
                for arg in args {
                    let arg = arg?;
                    let v = arg
                        .as_f64()
                        .ok_or_else(|| Error::Eval(format!("sum over non-numeric value {arg}")))?;
                    *sum += v;
                    *all_int &= matches!(*arg, Value::Int(_));
                    *seen = true;
                }
            }
            AggState::Avg { sum, n } => {
                for arg in args {
                    let arg = arg?;
                    let v = arg
                        .as_f64()
                        .ok_or_else(|| Error::Eval(format!("avg over non-numeric value {arg}")))?;
                    *sum += v;
                    *n += 1;
                }
            }
            AggState::Min(best) => {
                for arg in args {
                    let arg = arg?;
                    if best
                        .as_ref()
                        .map_or(true, |b| arg.cmp_non_null(b) == std::cmp::Ordering::Less)
                    {
                        *best = Some(arg.into_owned());
                    }
                }
            }
            AggState::Max(best) => {
                for arg in args {
                    let arg = arg?;
                    if best
                        .as_ref()
                        .map_or(true, |b| arg.cmp_non_null(b) == std::cmp::Ordering::Greater)
                    {
                        *best = Some(arg.into_owned());
                    }
                }
            }
            AggState::ArrayAgg(items) => {
                for arg in args {
                    items.push(arg?.to_string());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::CountStar(n) | AggState::Count(n) => Value::Int(n),
            AggState::Sum { sum, all_int, seen } => {
                if !seen {
                    Value::Null
                } else if all_int && sum.fract() == 0.0 && sum.abs() < 9e15 {
                    Value::Int(sum as i64)
                } else {
                    Value::Float(sum)
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::Min(v) | AggState::Max(v) => v.unwrap_or(Value::Null),
            AggState::ArrayAgg(items) => Value::Str(format!("{{{}}}", items.join(","))),
        }
    }
}
