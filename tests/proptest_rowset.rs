//! Property tests for the executor's row-set composition: a scan borrows
//! the catalog table's rows, and filters, sorts and limits above it only
//! rewrite a selection of row positions. Random small tables and random
//! WHERE / ORDER BY / LIMIT / GROUP BY statements (including a self-join
//! and an `IN (SELECT …)`, where two scans borrow one table) are checked
//! against brute-force oracles computed straight from the catalog rows,
//! and every statement's `EXPLAIN ANALYZE` root row count is checked
//! against its `SELECT` row count. The planner always projects above a
//! filter, so hand-built plans cover the shapes SQL does not reach: sorts,
//! limits and filters stacked directly on a borrowed scan, with an
//! aggregate reading through the composed selection.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use proptest::collection::vec;
use proptest::prelude::*;

use sgb::relation::exec::execute;
use sgb::relation::{
    AggCall, AggKind, BinOp, BoundExpr, Database, IndexCacheStatus, Plan, Row, Schema, SgbMode,
    Table, Value,
};
use sgb::{Algorithm, Metric};

/// Column positions of `t (id, g, v, x, y)`.
const ID: usize = 0;
const G: usize = 1;
const V: usize = 2;
const X: usize = 3;
const Y: usize = 4;

/// `v` is NULL for about a third of the rows.
fn arb_v() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        (-10.0f64..10.0).prop_map(Some),
        (-10.0f64..10.0).prop_map(Some),
    ]
}

fn db_with(recs: &[(i64, Option<f64>, f64, f64)]) -> Database {
    let mut table = Table::empty(Schema::new(["id", "g", "v", "x", "y"]));
    for (i, (g, v, x, y)) in recs.iter().enumerate() {
        let v = v.map_or(Value::Null, Value::Float);
        table
            .push(vec![
                Value::Int(i as i64),
                Value::Int(*g),
                v,
                Value::Float(*x),
                Value::Float(*y),
            ])
            .unwrap();
    }
    let mut db = Database::new();
    db.register("t", table);
    db
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("expected an integer cell, got {other:?}"),
    }
}

fn float(v: &Value) -> Option<f64> {
    match v {
        Value::Null => None,
        Value::Float(f) => Some(*f),
        other => panic!("expected a float cell, got {other:?}"),
    }
}

fn opt(v: Option<f64>) -> Value {
    v.map_or(Value::Null, Value::Float)
}

/// SQL ordering of a nullable float: NULL sorts first ascending.
fn cmp_nullable(a: Option<f64>, b: Option<f64>) -> Ordering {
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(a), Some(b)) => a.partial_cmp(&b).unwrap(),
    }
}

/// Connected components of the rows under `dist_L2 <= eps`, as
/// `(count, min id)` per group, ordered by the min id.
fn any_groups(rows: &[&Row], eps: f64) -> Vec<Row> {
    let n = rows.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for i in 0..n {
        for j in i + 1..n {
            let dx = float(&rows[i][X]).unwrap() - float(&rows[j][X]).unwrap();
            let dy = float(&rows[i][Y]).unwrap() - float(&rows[j][Y]).unwrap();
            if (dx * dx + dy * dy).sqrt() <= eps {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                parent[a] = b;
            }
        }
    }
    let mut groups: BTreeMap<usize, (i64, i64)> = BTreeMap::new();
    for (i, row) in rows.iter().enumerate() {
        let root = find(&mut parent, i);
        let e = groups.entry(root).or_insert((0, i64::MAX));
        e.0 += 1;
        e.1 = e.1.min(int(&row[ID]));
    }
    let mut out: Vec<Row> = groups
        .into_values()
        .map(|(n, first)| vec![Value::Int(n), Value::Int(first)])
        .collect();
    out.sort_by_key(|r| int(&r[1]));
    out
}

fn scan() -> Plan {
    Plan::Scan {
        table: "t".into(),
        schema: Schema::new(["id", "g", "v", "x", "y"]),
    }
}

fn cmp(op: BinOp, col: usize, lit: Value) -> BoundExpr {
    BoundExpr::Binary {
        op,
        left: Box::new(BoundExpr::Column(col)),
        right: Box::new(BoundExpr::Literal(lit)),
    }
}

fn filter(input: Plan, predicate: BoundExpr) -> Plan {
    Plan::Filter {
        input: Box::new(input),
        predicate,
    }
}

/// Sorts on `(column, descending)` keys.
fn sort(input: Plan, keys: &[(usize, bool)]) -> Plan {
    Plan::Sort {
        input: Box::new(input),
        keys: keys
            .iter()
            .map(|&(col, desc)| (BoundExpr::Column(col), desc))
            .collect(),
    }
}

fn limit(input: Plan, n: usize) -> Plan {
    Plan::Limit {
        input: Box::new(input),
        n,
    }
}

/// `count(*)` and `min(id)` per group.
fn count_and_first() -> Vec<AggCall> {
    vec![
        AggCall {
            kind: AggKind::CountStar,
            arg: None,
        },
        AggCall {
            kind: AggKind::Min,
            arg: Some(BoundExpr::Column(ID)),
        },
    ]
}

/// Oracle state of one `GROUP BY g` group: `count(*)`, `count(v)`,
/// `min(v)`, `max(v)` and `sum(id)`.
#[derive(Default)]
struct GroupAcc {
    n: i64,
    non_null: i64,
    min: Option<f64>,
    max: Option<f64>,
    id_sum: i64,
}

/// Runs `sql`, checks the result against `expected`, and checks the
/// `EXPLAIN ANALYZE` root row count against the result's.
fn check(db: &Database, sql: &str, expected: &[Row]) -> Result<(), String> {
    let out = db.query(sql).map_err(|e| format!("{sql}: {e}"))?;
    prop_assert_eq!(&out.rows, &expected.to_vec(), "{}", sql);
    let analyzed = db.explain_analyze(sql).map_err(|e| format!("{sql}: {e}"))?;
    let root = analyzed.lines().next().unwrap_or_default();
    let reported = root
        .find("rows: ")
        .map(|at| {
            root[at + 6..]
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse::<usize>().ok());
    prop_assert_eq!(reported, Some(out.rows.len()), "{}\n{}", sql, analyzed);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Filter, sort and limit over a borrowed scan, alone and composed.
    #[test]
    fn selections_over_a_scan_match_the_oracle(
        recs in vec((0i64..4, arb_v(), 0.0f64..6.0, 0.0f64..6.0), 0..40),
        th in -10.0f64..10.0,
        g0 in 0i64..4,
        k in 0usize..12,
    ) {
        let db = db_with(&recs);
        let rows = &db.table("t").unwrap().rows;

        // WHERE + ORDER BY (two keys) + LIMIT.
        let mut hits: Vec<&Row> = rows
            .iter()
            .filter(|r| float(&r[V]).is_some_and(|v| v > th))
            .collect();
        hits.sort_by(|a, b| {
            cmp_nullable(float(&b[V]), float(&a[V])).then(int(&a[ID]).cmp(&int(&b[ID])))
        });
        let expected: Vec<Row> = hits
            .iter()
            .take(k)
            .map(|r| vec![r[ID].clone(), r[V].clone()])
            .collect();
        check(&db, &format!("SELECT id, v FROM t WHERE v > {th} ORDER BY v DESC, id LIMIT {k}"), &expected)?;

        // ORDER BY a nullable column (NULLs first) + LIMIT, no WHERE.
        let mut all: Vec<&Row> = rows.iter().collect();
        all.sort_by(|a, b| {
            cmp_nullable(float(&a[V]), float(&b[V])).then(int(&b[ID]).cmp(&int(&a[ID])))
        });
        let expected: Vec<Row> = all
            .iter()
            .take(k)
            .map(|r| vec![r[ID].clone(), r[V].clone()])
            .collect();
        check(&db, &format!("SELECT id, v FROM t ORDER BY v, id DESC LIMIT {k}"), &expected)?;

        // WHERE + LIMIT keeps storage order.
        let expected: Vec<Row> = rows
            .iter()
            .filter(|r| int(&r[G]) != g0)
            .take(k)
            .map(|r| vec![r[ID].clone(), r[G].clone()])
            .collect();
        check(&db, &format!("SELECT id, g FROM t WHERE g <> {g0} LIMIT {k}"), &expected)?;

        // A bare scan at the root materialises every catalog row.
        check(&db, "SELECT * FROM t", rows)?;
    }

    /// GROUP BY and global aggregates read the rows of a filtered view.
    #[test]
    fn aggregates_over_a_view_match_the_oracle(
        recs in vec((0i64..4, arb_v(), 0.0f64..6.0, 0.0f64..6.0), 0..40),
        lo in 0i64..40,
        th in -10.0f64..10.0,
    ) {
        let db = db_with(&recs);
        let rows = &db.table("t").unwrap().rows;

        let mut groups: BTreeMap<i64, GroupAcc> = BTreeMap::new();
        for r in rows.iter().filter(|r| int(&r[ID]) >= lo) {
            let e = groups.entry(int(&r[G])).or_default();
            e.n += 1;
            if let Some(v) = float(&r[V]) {
                e.non_null += 1;
                e.min = Some(e.min.map_or(v, |m| m.min(v)));
                e.max = Some(e.max.map_or(v, |m| m.max(v)));
            }
            e.id_sum += int(&r[ID]);
        }
        let expected: Vec<Row> = groups
            .into_iter()
            .map(|(g, e)| {
                vec![
                    Value::Int(g),
                    Value::Int(e.n),
                    Value::Int(e.non_null),
                    opt(e.min),
                    opt(e.max),
                    Value::Int(e.id_sum),
                ]
            })
            .collect();
        check(
            &db,
            &format!(
                "SELECT g, count(*), count(v), min(v), max(v), sum(id) FROM t \
                 WHERE id >= {lo} GROUP BY g ORDER BY g"
            ),
            &expected,
        )?;

        // A global aggregate yields one row, even over an empty selection.
        let picked: Vec<f64> = rows.iter().filter_map(|r| float(&r[V])).filter(|&v| v > th).collect();
        let min = picked.iter().copied().reduce(f64::min);
        let avg = (!picked.is_empty()).then(|| picked.iter().sum::<f64>() / picked.len() as f64);
        let expected = vec![vec![Value::Int(picked.len() as i64), opt(min), opt(avg)]];
        check(&db, &format!("SELECT count(*), min(v), avg(v) FROM t WHERE v > {th}"), &expected)?;
    }

    /// Two scans borrow one catalog table: a self-join and an
    /// `IN (SELECT …)` over the same table.
    #[test]
    fn two_views_of_one_table_match_the_oracle(
        recs in vec((0i64..4, arb_v(), 0.0f64..6.0, 0.0f64..6.0), 0..30),
        th in -10.0f64..10.0,
        k in 0usize..12,
    ) {
        let db = db_with(&recs);
        let rows = &db.table("t").unwrap().rows;

        let mut pairs: Vec<Row> = Vec::new();
        for a in rows.iter() {
            for b in rows.iter() {
                if int(&a[G]) == int(&b[G]) && int(&a[ID]) < int(&b[ID]) {
                    pairs.push(vec![a[ID].clone(), b[ID].clone()]);
                }
            }
        }
        pairs.sort_by_key(|p| (int(&p[0]), int(&p[1])));
        check(
            &db,
            "SELECT a.id, b.id FROM t a, t b WHERE a.g = b.g AND a.id < b.id ORDER BY a.id, b.id",
            &pairs,
        )?;

        let wanted: Vec<i64> = rows
            .iter()
            .filter(|r| float(&r[V]).is_some_and(|v| v > th))
            .map(|r| int(&r[G]))
            .collect();
        let mut ids: Vec<i64> = rows
            .iter()
            .filter(|r| wanted.contains(&int(&r[G])))
            .map(|r| int(&r[ID]))
            .collect();
        ids.sort_unstable_by(|a, b| b.cmp(a));
        let expected: Vec<Row> = ids.into_iter().take(k).map(|id| vec![Value::Int(id)]).collect();
        check(
            &db,
            &format!(
                "SELECT id FROM t WHERE g IN (SELECT g FROM t WHERE v > {th}) \
                 ORDER BY id DESC LIMIT {k}"
            ),
            &expected,
        )?;
    }

    /// SGB-Any reads its input through the view: a bare scan, and a
    /// filtered selection whose output positions differ from the table's.
    #[test]
    fn similarity_groups_over_a_view_match_the_oracle(
        recs in vec((0i64..4, arb_v(), 0.0f64..6.0, 0.0f64..6.0), 0..40),
        lo in 0i64..40,
        eps in 0.2f64..1.5,
        k in 1usize..12,
    ) {
        let db = db_with(&recs);
        let rows = &db.table("t").unwrap().rows;

        let all: Vec<&Row> = rows.iter().collect();
        let mut expected = any_groups(&all, eps);
        expected.sort_by(|a, b| int(&b[0]).cmp(&int(&a[0])).then(int(&a[1]).cmp(&int(&b[1]))));
        expected.truncate(k);
        check(
            &db,
            &format!(
                "SELECT count(*) AS n, min(id) AS first FROM t \
                 GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN {eps} ORDER BY n DESC, first LIMIT {k}"
            ),
            &expected,
        )?;

        let kept: Vec<&Row> = rows.iter().filter(|r| int(&r[ID]) >= lo).collect();
        check(
            &db,
            &format!(
                "SELECT count(*) AS n, min(id) AS first FROM t WHERE id >= {lo} \
                 GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN {eps} ORDER BY first"
            ),
            &any_groups(&kept, eps),
        )?;
    }

    /// Hand-built plans stack filters, sorts and limits directly on the
    /// borrowed scan, so each node composes the selection below it; the
    /// aggregates on top read rows through the composed selection.
    #[test]
    fn hand_built_selections_compose_over_a_scan(
        recs in vec((0i64..4, arb_v(), 0.0f64..6.0, 0.0f64..6.0), 0..40),
        th in -10.0f64..10.0,
        lo in 0i64..40,
        g0 in 0i64..4,
        k in 0usize..30,
        eps in 0.2f64..1.5,
    ) {
        let db = db_with(&recs);
        let rows = &db.table("t").unwrap().rows;
        let run = |plan: &Plan| execute(plan, &db).map(|t| t.rows).map_err(|e| e.to_string());

        // LIMIT directly on the scan.
        let expected: Vec<Row> = rows.iter().take(k).cloned().collect();
        prop_assert_eq!(run(&limit(scan(), k))?, expected);

        // LIMIT over SORT over FILTER over the scan.
        let mut hits: Vec<&Row> = rows
            .iter()
            .filter(|r| float(&r[V]).is_some_and(|v| v > th))
            .collect();
        hits.sort_by(|a, b| {
            cmp_nullable(float(&b[V]), float(&a[V])).then(int(&a[ID]).cmp(&int(&b[ID])))
        });
        let top: Vec<&Row> = hits.iter().take(k).copied().collect();
        let plan = limit(
            sort(filter(scan(), cmp(BinOp::Gt, V, Value::Float(th))), &[(V, true), (ID, false)]),
            k,
        );
        let expected: Vec<Row> = top.iter().map(|r| r.to_vec()).collect();
        prop_assert_eq!(run(&plan)?, expected);

        // FILTER over LIMIT over SORT (nullable key) over FILTER.
        let mut kept: Vec<&Row> = rows.iter().filter(|r| int(&r[ID]) >= lo).collect();
        kept.sort_by(|a, b| {
            cmp_nullable(float(&a[V]), float(&b[V])).then(int(&b[ID]).cmp(&int(&a[ID])))
        });
        let expected: Vec<Row> = kept
            .iter()
            .take(k)
            .filter(|r| int(&r[G]) != g0)
            .map(|r| r.to_vec())
            .collect();
        let plan = filter(
            limit(
                sort(filter(scan(), cmp(BinOp::Ge, ID, Value::Int(lo))), &[(V, false), (ID, true)]),
                k,
            ),
            cmp(BinOp::Ne, G, Value::Int(g0)),
        );
        prop_assert_eq!(run(&plan)?, expected);

        // GROUP BY over the sorted, limited selection: groups appear in
        // first-seen order of that selection.
        let mut groups: Vec<(i64, i64, i64)> = Vec::new();
        for r in &top {
            let (g, id) = (int(&r[G]), int(&r[ID]));
            match groups.iter_mut().find(|e| e.0 == g) {
                Some(e) => {
                    e.1 += 1;
                    e.2 = e.2.min(id);
                }
                None => groups.push((g, 1, id)),
            }
        }
        let expected: Vec<Row> = groups
            .into_iter()
            .map(|(g, n, first)| vec![Value::Int(g), Value::Int(n), Value::Int(first)])
            .collect();
        let plan = Plan::HashAggregate {
            input: Box::new(limit(
                sort(filter(scan(), cmp(BinOp::Gt, V, Value::Float(th))), &[(V, true), (ID, false)]),
                k,
            )),
            group_exprs: vec![BoundExpr::Column(G)],
            aggs: count_and_first(),
            having: None,
            outputs: (0..3).map(BoundExpr::Column).collect(),
            schema: Schema::new(["g", "n", "first"]),
        };
        prop_assert_eq!(run(&plan)?, expected);

        // SGB-Any over a sorted selection: group members are output
        // positions of the selection, not of the table.
        let kept: Vec<&Row> = rows.iter().filter(|r| int(&r[ID]) >= lo).collect();
        let plan = Plan::SimilarityGroupBy {
            input: Box::new(sort(filter(scan(), cmp(BinOp::Ge, ID, Value::Int(lo))), &[(ID, true)])),
            coords: vec![BoundExpr::Column(X), BoundExpr::Column(Y)],
            mode: SgbMode::Any {
                eps,
                metric: Metric::L2,
                algorithm: Algorithm::Grid,
                threads: 1,
                selection: "hand-built".into(),
                index: IndexCacheStatus::Built,
            },
            snapshot: None,
            aggs: count_and_first(),
            having: None,
            outputs: (0..2).map(BoundExpr::Column).collect(),
            schema: Schema::new(["n", "first"]),
        };
        let mut got = run(&plan)?;
        got.sort_by_key(|r| int(&r[1]));
        prop_assert_eq!(got, any_groups(&kept, eps));
    }
}
