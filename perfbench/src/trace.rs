//! In-memory spans recorded around the benchmark's calls into each layer,
//! their self-time arithmetic, and the parser of `EXPLAIN ANALYZE` text
//! whose per-node actuals become span attributes.

use std::fmt::Write as _;
use std::time::Instant;

/// One span: a named interval of one statement (`trace`), caused by
/// `parent` (an index into the same recorder).
#[derive(Clone, Debug)]
pub struct Span {
    pub trace: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; they are written out once, after the run.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            trace,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            attrs: Vec::new(),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_ns = self.now_ns();
    }

    pub fn attr(&mut self, span: usize, key: impl Into<String>, value: f64) {
        self.spans[span].attrs.push((key.into(), value));
    }

    /// JSON lines, one span each.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"attrs\":{{",
                s.trace, s.name, s.start_ns, s.end_ns
            );
            for (j, (k, v)) in s.attrs.iter().enumerate() {
                let sep = if j > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{k}\":{}", crate::json_number(*v));
            }
            out.push_str("}}\n");
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// One node of an `EXPLAIN ANALYZE` tree.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Node {
    pub depth: usize,
    pub label: String,
    pub actual_ms: f64,
    pub rows: u64,
    pub groups: u64,
    pub outliers: u64,
    pub candidates: u64,
    /// Core phases in milliseconds, in printed order.
    pub phases: Vec<(String, f64)>,
    /// Indices of the direct children.
    pub children: Vec<usize>,
}

impl Node {
    pub fn op(&self) -> &str {
        self.label.split([' ', '[']).next().unwrap_or("")
    }

    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v)
            .sum()
    }

    pub fn is_similarity(&self) -> bool {
        matches!(self.op(), "SimilarityGroupBy" | "SimilarityAround")
    }

    /// Served from a subscription snapshot rather than computed.
    pub fn served(&self) -> bool {
        self.label.contains("snapshot: subscription #")
    }
}

/// Parses `EXPLAIN ANALYZE` output: two spaces of indent per level, each
/// line ending in `(actual time: T ms, rows: R[, groups: G][, outliers:
/// O][, candidates: C][; phases: name Tms, …])`.
pub fn parse_explain_analyze(text: &str) -> Result<Vec<Node>, String> {
    let mut nodes: Vec<Node> = Vec::new();
    let mut stack: Vec<usize> = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let body = line.trim_start_matches(' ');
        let indent = line.len() - body.len();
        if indent % 2 != 0 {
            return Err(format!("odd indent: {line:?}"));
        }
        let at = body
            .rfind(" (actual time: ")
            .ok_or_else(|| format!("no actuals: {line:?}"))?;
        let inner = body[at + " (actual time: ".len()..]
            .strip_suffix(')')
            .ok_or_else(|| format!("unterminated actuals: {line:?}"))?;
        let mut node = Node {
            depth: indent / 2,
            label: body[..at].to_owned(),
            ..Node::default()
        };
        let (counts, phases) = match inner.split_once("; phases: ") {
            Some((c, p)) => (c, Some(p)),
            None => (inner, None),
        };
        let mut fields = counts.split(", ");
        let time = fields.next().unwrap_or("");
        node.actual_ms = time
            .strip_suffix(" ms")
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("bad actual time {time:?}"))?;
        for field in fields {
            let (key, value) = field
                .split_once(": ")
                .ok_or_else(|| format!("bad field {field:?}"))?;
            let value: u64 = value.parse().map_err(|_| format!("bad count {field:?}"))?;
            match key {
                "rows" => node.rows = value,
                "groups" => node.groups = value,
                "outliers" => node.outliers = value,
                "candidates" => node.candidates = value,
                _ => return Err(format!("unknown field {field:?}")),
            }
        }
        for phase in phases.into_iter().flat_map(|p| p.split(", ")) {
            let (name, ms) = phase
                .split_once(' ')
                .and_then(|(n, t)| Some((n, t.strip_suffix("ms")?.parse::<f64>().ok()?)))
                .ok_or_else(|| format!("bad phase {phase:?}"))?;
            node.phases.push((name.to_owned(), ms));
        }
        stack.truncate(node.depth);
        if stack.len() != node.depth {
            return Err(format!("indent jumps a level: {line:?}"));
        }
        let idx = nodes.len();
        if let Some(&parent) = stack.last() {
            nodes[parent].children.push(idx);
        }
        stack.push(idx);
        nodes.push(node);
    }
    if nodes.is_empty() {
        return Err("empty EXPLAIN ANALYZE output".into());
    }
    Ok(nodes)
}

/// What one analyzed SELECT spent, by layer (milliseconds unless noted).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SelectCost {
    pub select_ms: f64,
    pub scan_ms: f64,
    pub aggregate_ms: f64,
    /// Similarity-node time covered by neither its Scan child nor its
    /// phases (coordinate extraction, subscription probe, bookkeeping).
    pub overhead_ms: f64,
    pub rows_examined: u64,
    pub rows_out: u64,
    pub similarity_nodes: u64,
    pub served_nodes: u64,
    pub candidates: u64,
    /// Core phases summed over similarity nodes:
    /// validate, cache_probe, index_build, join, merge.
    pub validate_ms: f64,
    pub probe_ms: f64,
    pub index_build_ms: f64,
    pub join_ms: f64,
    pub merge_ms: f64,
}

impl SelectCost {
    pub fn of(nodes: &[Node]) -> Self {
        let mut c = SelectCost {
            select_ms: nodes[0].actual_ms,
            rows_out: nodes[0].rows,
            ..Self::default()
        };
        for n in nodes {
            let children_ms: f64 = n.children.iter().map(|&i| nodes[i].actual_ms).sum();
            match n.op() {
                "Scan" => {
                    c.scan_ms += n.actual_ms;
                    c.rows_examined += n.rows;
                }
                "HashAggregate" => c.aggregate_ms += n.actual_ms - children_ms,
                _ if n.is_similarity() => {
                    let phases: f64 = n.phases.iter().map(|(_, v)| v).sum();
                    c.similarity_nodes += 1;
                    c.served_nodes += n.served() as u64;
                    c.candidates += n.candidates;
                    c.aggregate_ms += n.phase("aggregate");
                    c.overhead_ms += n.actual_ms - children_ms - phases;
                    c.validate_ms += n.phase("validate");
                    c.probe_ms += n.phase("cache_probe");
                    c.index_build_ms += n.phase("index_build");
                    c.join_ms += n.phase("join");
                    c.merge_ms += n.phase("merge");
                }
                _ => {}
            }
        }
        c
    }

    /// Core operator time: the phases that compute a grouping.
    pub fn core_ms(&self) -> f64 {
        self.validate_ms + self.index_build_ms + self.join_ms + self.merge_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            trace: 0,
            parent,
            name: "t",
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 20, 40),
            // Sticks out past the parent: only 90..100 counts.
            span(Some(0), 90, 120),
            span(Some(1), 12, 18),
        ];
        assert_eq!(self_times(&spans), vec![60, 14, 20, 30, 6]);
    }

    #[test]
    fn self_time_of_sequential_children_sums_to_parent() {
        let spans = vec![
            span(None, 0, 1000),
            span(Some(0), 0, 200),
            span(Some(0), 200, 650),
            span(Some(0), 650, 990),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10);
        assert_eq!(st.iter().sum::<u64>(), 1000);
    }

    // Captured from `Database::explain_analyze` at n = 20k.
    const COLD_ANY: &str = "\
SimilarityGroupBy [SGB-Any L1 WITHIN 0.733122] [path: Grid, threads: 2; auto: n = 20000 > 512, eps-grid neighbor scan wins (BENCH_grid.json); index: built] (aggs: 3) (actual time: 24.643 ms, rows: 63, groups: 63, candidates: 3260460; phases: validate 0.065ms, cache_probe 0.001ms, index_build 0.903ms, join 16.553ms, merge 0.846ms, aggregate 4.060ms)
  Scan pts (actual time: 1.248 ms, rows: 20000)
";
    const SERVED_AROUND: &str = "\
Limit 9 (actual time: 2.668 ms, rows: 9)
  Sort (2 keys) (actual time: 2.667 ms, rows: 13)
    SimilarityAround [64 centers, L2 WITHIN 3, path: AllPairs, threads: 2] [auto: 64 centers <= 128, center scan beats index construction (BENCH_around.json crossover ~1k); index: none; snapshot: subscription #2 (epoch 6)] (aggs: 3) (actual time: 2.654 ms, rows: 13, groups: 12, outliers: 16881; phases: aggregate 1.036ms)
      Scan pts (actual time: 1.042 ms, rows: 19998)
";
    const GROUP_BY: &str = "\
Limit 10 (actual time: 4.091 ms, rows: 10)
  Sort (2 keys) (actual time: 4.090 ms, rows: 52)
    HashAggregate (groups: 1, aggs: 3) (actual time: 4.053 ms, rows: 52)
      Filter (actual time: 2.122 ms, rows: 13425)
        Scan pts (actual time: 0.864 ms, rows: 20000)
";

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn parses_a_cold_similarity_node() {
        let nodes = parse_explain_analyze(COLD_ANY).unwrap();
        assert_eq!(nodes.len(), 2);
        let sim = &nodes[0];
        assert_eq!(sim.op(), "SimilarityGroupBy");
        assert_eq!(
            (sim.actual_ms, sim.rows, sim.groups, sim.candidates),
            (24.643, 63, 63, 3_260_460)
        );
        assert_eq!(sim.phases.len(), 6);
        assert_eq!(sim.phase("join"), 16.553);
        assert!(!sim.served());
        assert_eq!(sim.children, vec![1]);
        assert_eq!(
            (nodes[1].op(), nodes[1].depth, nodes[1].rows),
            ("Scan", 1, 20_000)
        );

        let c = SelectCost::of(&nodes);
        assert!(close(c.select_ms, 24.643));
        assert!(close(c.scan_ms, 1.248));
        assert!(close(c.aggregate_ms, 4.060));
        // 24.643 − 1.248 (Scan) − 22.428 (phases)
        assert!(close(c.overhead_ms, 0.967));
        assert!(close(c.core_ms(), 0.065 + 0.903 + 16.553 + 0.846));
        assert_eq!(
            (c.rows_examined, c.rows_out, c.candidates),
            (20_000, 63, 3_260_460)
        );
        assert_eq!((c.similarity_nodes, c.served_nodes), (1, 0));
    }

    #[test]
    fn parses_a_snapshot_served_node_under_sort_and_limit() {
        let nodes = parse_explain_analyze(SERVED_AROUND).unwrap();
        let depths: Vec<usize> = nodes.iter().map(|n| n.depth).collect();
        assert_eq!(depths, vec![0, 1, 2, 3]);
        let sim = &nodes[2];
        assert_eq!(sim.op(), "SimilarityAround");
        assert!(sim.served());
        assert_eq!((sim.groups, sim.outliers, sim.candidates), (12, 16_881, 0));
        let c = SelectCost::of(&nodes);
        assert_eq!((c.similarity_nodes, c.served_nodes, c.rows_out), (1, 1, 9));
        assert!(close(c.core_ms(), 0.0));
        assert!(close(c.overhead_ms, 2.654 - 1.042 - 1.036));
    }

    #[test]
    fn hash_aggregate_self_time_counts_as_aggregation() {
        let nodes = parse_explain_analyze(GROUP_BY).unwrap();
        assert_eq!(nodes.len(), 5);
        assert_eq!(nodes[2].label, "HashAggregate (groups: 1, aggs: 3)");
        let c = SelectCost::of(&nodes);
        assert!(close(c.aggregate_ms, 4.053 - 2.122));
        assert_eq!(
            (c.similarity_nodes, c.rows_examined, c.rows_out),
            (0, 20_000, 10)
        );
    }

    #[test]
    fn rejects_malformed_text() {
        assert!(parse_explain_analyze("").is_err());
        assert!(parse_explain_analyze("Scan pts").is_err());
        assert!(parse_explain_analyze("Scan pts (actual time: x ms, rows: 1)").is_err());
        assert!(parse_explain_analyze(
            "Limit 1 (actual time: 1.0 ms, rows: 1)\n    Scan t (actual time: 1.0 ms, rows: 1)"
        )
        .is_err());
    }

    /// The parser keeps up with the engine's current format.
    #[test]
    fn parses_live_engine_output() {
        let mut db = sgb_relation::Database::new();
        db.execute("CREATE TABLE pts (id INT, x DOUBLE, y DOUBLE, w DOUBLE)")
            .unwrap();
        let rows: Vec<String> = (0..300)
            .map(|i| format!("({i}, {}.5, {}.25, {i}.0)", i % 17, i % 13))
            .collect();
        db.execute(&format!("INSERT INTO pts VALUES {}", rows.join(", ")))
            .unwrap();
        for sql in [
            "SELECT count(*) AS n, min(id) AS first_id FROM pts GROUP BY x, y \
             DISTANCE-TO-ANY L2 WITHIN 1.5 ORDER BY n DESC, first_id LIMIT 5",
            "SELECT count(*), max(w) FROM pts GROUP BY x, y DISTANCE-TO-ALL LINF WITHIN 1 \
             ON-OVERLAP ELIMINATE",
            "SELECT count(*) FROM pts GROUP BY x, y AROUND ((1, 1), (9, 9)) L1 WITHIN 4",
            "SELECT x, count(*) FROM pts WHERE w > 10.0 GROUP BY x",
        ] {
            let want = db.execute(sql).unwrap().rows.len() as u64;
            let nodes = parse_explain_analyze(&db.explain_analyze(sql).unwrap()).unwrap();
            assert_eq!(nodes[0].rows, want, "{sql}");
            assert!(nodes.iter().any(|n| n.op() == "Scan"), "{sql}");
        }
    }
}
