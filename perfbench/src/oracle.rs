//! Independent reference answers: brute-force groupings written here,
//! and the comparison of result tables.

use sgb_relation::{Table, Value};

use crate::workload::{Metric, Rec};

/// A partition of row ids: each group sorted, groups sorted.
pub type Partition = Vec<Vec<i64>>;

pub fn canonical(mut groups: Partition) -> Partition {
    for g in &mut groups {
        g.sort_unstable();
    }
    groups.sort();
    groups
}

/// `δ(a, b) ≤ ε` (L2 compared squared, as the paper's predicate allows).
fn within(metric: Metric, a: &Rec, b: (f64, f64), eps: f64) -> bool {
    let (dx, dy) = ((a.x - b.0).abs(), (a.y - b.1).abs());
    match metric {
        Metric::L1 => dx + dy <= eps,
        Metric::L2 => dx * dx + dy * dy <= eps * eps,
        Metric::LInf => dx.max(dy) <= eps,
    }
}

/// A monotone stand-in for the distance, for nearest-center ranking.
fn rank_distance(metric: Metric, a: &Rec, c: (f64, f64)) -> f64 {
    let (dx, dy) = ((a.x - c.0).abs(), (a.y - c.1).abs());
    match metric {
        Metric::L1 => dx + dy,
        Metric::L2 => dx * dx + dy * dy,
        Metric::LInf => dx.max(dy),
    }
}

fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

/// SGB-Any by definition: the connected components of the ε-similarity
/// graph, from all pairs and a union-find.
pub fn any_groups(recs: &[Rec], metric: Metric, eps: f64) -> Partition {
    let n = recs.len();
    let mut parent: Vec<usize> = (0..n).collect();
    for i in 0..n {
        for j in i + 1..n {
            if within(metric, &recs[i], (recs[j].x, recs[j].y), eps) {
                let (a, b) = (find(&mut parent, i), find(&mut parent, j));
                if a != b {
                    parent[a.max(b)] = a.min(b);
                }
            }
        }
    }
    let mut groups: std::collections::BTreeMap<usize, Vec<i64>> = Default::default();
    for (i, r) in recs.iter().enumerate() {
        let root = find(&mut parent, i);
        groups.entry(root).or_default().push(r.id);
    }
    canonical(groups.into_values().collect())
}

/// SGB-Around by definition: each row joins its nearest center (ties to
/// the lower center index); rows farther than `radius` form one outlier
/// group.
pub fn around_groups(
    recs: &[Rec],
    centers: &[(f64, f64)],
    metric: Metric,
    radius: Option<f64>,
) -> Partition {
    let mut groups: Vec<Vec<i64>> = vec![Vec::new(); centers.len()];
    let mut outliers = Vec::new();
    for r in recs {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in centers.iter().enumerate() {
            let d = rank_distance(metric, r, *c);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        match radius {
            Some(rad) if !within(metric, r, centers[best], rad) => outliers.push(r.id),
            _ => groups[best].push(r.id),
        }
    }
    groups.push(outliers);
    canonical(groups.into_iter().filter(|g| !g.is_empty()).collect())
}

/// The partition listed by a one-column `array_agg(id)` result.
pub fn partition_of(t: &Table) -> Result<Partition, String> {
    let mut groups = Vec::with_capacity(t.rows.len());
    for row in &t.rows {
        let Some(Value::Str(list)) = row.first() else {
            return Err(format!("expected an array_agg string, got {row:?}"));
        };
        let inner = list
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("malformed array_agg {list:?}"))?;
        let ids = inner
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<i64>().map_err(|e| format!("bad id {s:?}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        groups.push(ids);
    }
    Ok(canonical(groups))
}

fn values_match(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => x == y || (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => a.to_string() == b.to_string(),
    }
}

/// Compares two result tables as multisets of rows; floats may differ in
/// the last bits, since aggregation order follows the execution path.
pub fn compare_tables(got: &Table, want: &Table) -> Result<(), String> {
    if got.rows.len() != want.rows.len() {
        return Err(format!(
            "{} rows, reference has {}",
            got.rows.len(),
            want.rows.len()
        ));
    }
    let key = |row: &Vec<Value>| -> Vec<String> {
        row.iter()
            .map(|v| match v.as_f64() {
                Some(f) => format!("{f:.6}"),
                None => v.to_string(),
            })
            .collect()
    };
    let mut g: Vec<&Vec<Value>> = got.rows.iter().collect();
    let mut w: Vec<&Vec<Value>> = want.rows.iter().collect();
    g.sort_by_key(|r| key(r));
    w.sort_by_key(|r| key(r));
    for (a, b) in g.iter().zip(&w) {
        if a.len() != b.len() || !a.iter().zip(b.iter()).all(|(x, y)| values_match(x, y)) {
            return Err(format!("row {a:?} differs from reference {b:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: i64, x: f64, y: f64) -> Rec {
        Rec {
            id,
            cell: 0,
            x,
            y,
            w: 0.0,
        }
    }

    #[test]
    fn any_groups_are_transitive_components() {
        // 0–1 and 1–2 are within 1.0, 0–2 is not; 3 is isolated.
        let recs = [
            rec(10, 0.0, 0.0),
            rec(11, 0.9, 0.0),
            rec(12, 1.8, 0.0),
            rec(13, 5.0, 5.0),
        ];
        assert_eq!(
            any_groups(&recs, Metric::L2, 1.0),
            vec![vec![10, 11, 12], vec![13]]
        );
        // Under L1, 0.6 + 0.6 > 1.0 keeps the diagonal neighbour apart.
        let diag = [rec(1, 0.0, 0.0), rec(2, 0.6, 0.6)];
        assert_eq!(any_groups(&diag, Metric::L1, 1.0), vec![vec![1], vec![2]]);
        assert_eq!(any_groups(&diag, Metric::LInf, 1.0), vec![vec![1, 2]]);
    }

    #[test]
    fn around_assigns_nearest_center_and_collects_outliers() {
        let recs = [
            rec(1, 0.0, 0.0),
            rec(2, 1.0, 0.0), // equidistant: the lower center index wins
            rec(3, 2.0, 0.0),
            rec(4, 9.0, 9.0),
        ];
        let centers = [(0.5, 0.0), (1.5, 0.0)];
        assert_eq!(
            around_groups(&recs, &centers, Metric::L2, Some(1.0)),
            vec![vec![1, 2], vec![3], vec![4]]
        );
        assert_eq!(
            around_groups(&recs, &centers, Metric::L2, None),
            vec![vec![1, 2], vec![3, 4]]
        );
    }
}
