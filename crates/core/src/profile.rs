//! `PROFILE` — per-operator execution profiling.
//!
//! A profiled run ([`crate::Engine::run_profiled`]) executes the query
//! *unchanged* — same pipeline, same results, byte-identical output at
//! any parallelism — while building a [`Profile`]: a tree of
//! [`ProfileNode`]s mirroring the `EXPLAIN` operator vocabulary, each
//! annotated with measured counters (wall time, rows produced, vertices
//! touched, edges scanned, kernel invocations, reach-cache hits/misses,
//! accumulator bytes, parallel-worker distribution).
//!
//! The counters are *deltas of the engine's one instrumentation path* —
//! [`crate::MatchStats`] snapshots taken at operator entry/exit — not a
//! second bookkeeping layer, so the profile's root totals reconcile
//! exactly with the query's [`crate::ResourceReport`] vertex/edge
//! accounting. Wall time and the stats-derived counters are
//! **inclusive** of children (subtract child values for self-only
//! numbers — the server's `/metrics` folding does exactly that via
//! [`ProfileNode::self_wall`]); the executor-reported extras (rows,
//! cache hits/misses, accumulator bytes, worker distribution) attach
//! to the operator that performs the work and are not rolled up.
//!
//! An operator that executes repeatedly (a SELECT block inside a WHILE
//! loop) accumulates into a single node keyed by its AST identity:
//! `calls` counts executions, every other counter sums (or maxes, for
//! `accum_bytes`) across them.
//!
//! Formats (text and JSON) are documented in `docs/PLAN_FORMAT.md`.

use crate::explain::json_string;
use crate::semantics::{MatchStats, PathSemantics};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One profiled operator: an `EXPLAIN`-vocabulary node annotated with
/// measured, child-inclusive counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// Stable operator tag, same vocabulary as
    /// [`crate::PlanNode::op`] (see `docs/PLAN_FORMAT.md`).
    pub op: &'static str,
    /// Human-readable operator description.
    pub detail: String,
    /// Times this operator executed (a block in a WHILE loop runs many
    /// times but is reported once, with counters accumulated).
    pub calls: u64,
    /// Wall-clock time spent inside this operator, children included.
    pub wall: Duration,
    /// Binding rows this operator produced (scan/hop/filter/block output
    /// cardinality), summed over calls.
    pub rows: u64,
    /// Vertex visits within this operator's span (see
    /// [`MatchStats::vertices_touched`]).
    pub vertices_touched: u64,
    /// Adjacency entries examined within this operator's span.
    pub edges_scanned: u64,
    /// Reachability-kernel invocations within this operator's span.
    pub kernel_calls: u64,
    /// Paths materialized by enumerative kernels within this span.
    pub paths_enumerated: u64,
    /// ACCUM-clause executions within this span.
    pub acc_executions: u64,
    /// Morsels dispatched by vectorized operators within this span (a
    /// pure function of table sizes and the configured morsel size —
    /// identical at any parallelism; see `docs/EXECUTION.md`).
    pub morsels: u64,
    /// Kleene-hop reach-cache lookups that found a precomputed entry
    /// (including entries warmed by the parallel kernel fan-out).
    pub cache_hits: u64,
    /// Reach-cache lookups that had to run the kernel sequentially.
    pub cache_misses: u64,
    /// Peak estimated accumulator footprint observed at this operator,
    /// in bytes (max over calls, not a sum).
    pub accum_bytes: u64,
    /// Per-worker kernel-invocation distribution for parallel fan-outs
    /// (empty when the operator never fanned out; summed slot-wise over
    /// calls).
    pub workers: Vec<u64>,
    /// Child operators, in first-execution order.
    pub children: Vec<ProfileNode>,
}

impl ProfileNode {
    /// Wall-clock time spent in this operator *excluding* children
    /// (saturating: clock skew between nested measurements never
    /// produces an underflow).
    pub fn self_wall(&self) -> Duration {
        let child: Duration = self.children.iter().map(|c| c.wall).sum();
        self.wall.saturating_sub(child)
    }

    /// Number of nodes in this subtree, including `self`.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(ProfileNode::size).sum::<usize>()
    }

    /// Depth-first visit of this subtree (self first, then children).
    pub fn visit(&self, f: &mut impl FnMut(&ProfileNode)) {
        f(self);
        for c in &self.children {
            c.visit(f);
        }
    }
}

/// The measured execution profile of one query run.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// The query's declared name.
    pub query: String,
    /// The semantics the run started under.
    pub semantics: PathSemantics,
    /// The engine parallelism the run used.
    pub parallelism: usize,
    /// The profiled operator tree; the root is always `op == "query"`
    /// and its counters are the whole-query totals (they reconcile with
    /// the run's [`crate::ResourceReport`]).
    pub root: ProfileNode,
}

fn fmt_wall(d: Duration) -> String {
    let us = d.as_micros();
    if us >= 1_000_000 {
        format!("{:.2}s", d.as_secs_f64())
    } else if us >= 1000 {
        format!("{:.2}ms", d.as_secs_f64() * 1e3)
    } else {
        format!("{us}us")
    }
}

impl Profile {
    /// Renders the profile as an indented text tree, one operator per
    /// line with its non-zero counters in brackets.
    pub fn render(&self) -> String {
        let mut out = String::new();
        writeln!(
            out,
            "PROFILE {} [{:?} semantics, parallelism {}] total {}",
            self.query,
            self.semantics,
            self.parallelism,
            fmt_wall(self.root.wall),
        )
        .unwrap();
        for c in &self.root.children {
            render_into(c, 1, &mut out);
        }
        out
    }

    /// Renders the profile as a single-line JSON document (schema in
    /// `docs/PLAN_FORMAT.md`; `wall_us` fields are integer microseconds).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"query\":");
        json_string(&mut out, &self.query);
        write!(
            out,
            ",\"semantics\":\"{:?}\",\"parallelism\":{},\"total_wall_us\":{},\"root\":",
            self.semantics,
            self.parallelism,
            self.root.wall.as_micros(),
        )
        .unwrap();
        node_json(&mut out, &self.root);
        out.push('}');
        out
    }
}

fn render_into(node: &ProfileNode, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(node.detail.trim_end_matches(':'));
    let mut parts = vec![format!("calls {}", node.calls), format!("wall {}", fmt_wall(node.wall))];
    if node.rows > 0 {
        parts.push(format!("rows {}", node.rows));
    }
    if node.vertices_touched > 0 {
        parts.push(format!("vertices {}", node.vertices_touched));
    }
    if node.edges_scanned > 0 {
        parts.push(format!("edges {}", node.edges_scanned));
    }
    if node.kernel_calls > 0 {
        parts.push(format!("kernels {}", node.kernel_calls));
    }
    if node.paths_enumerated > 0 {
        parts.push(format!("paths {}", node.paths_enumerated));
    }
    if node.acc_executions > 0 {
        parts.push(format!("acc {}", node.acc_executions));
    }
    if node.morsels > 0 {
        parts.push(format!("morsels {}", node.morsels));
    }
    if node.cache_hits + node.cache_misses > 0 {
        parts.push(format!("cache {}/{}", node.cache_hits, node.cache_misses));
    }
    if node.accum_bytes > 0 {
        parts.push(format!("accum-bytes {}", node.accum_bytes));
    }
    if !node.workers.is_empty() {
        let w: Vec<String> = node.workers.iter().map(u64::to_string).collect();
        parts.push(format!("workers [{}]", w.join(" ")));
    }
    writeln!(out, "  [{}]", parts.join(", ")).unwrap();
    for c in &node.children {
        render_into(c, depth + 1, out);
    }
}

fn node_json(out: &mut String, node: &ProfileNode) {
    out.push_str("{\"op\":");
    json_string(out, node.op);
    out.push_str(",\"detail\":");
    json_string(out, node.detail.trim_end_matches(':'));
    write!(
        out,
        ",\"calls\":{},\"wall_us\":{},\"rows\":{},\"vertices_touched\":{},\
         \"edges_scanned\":{},\"kernel_calls\":{},\"paths_enumerated\":{},\
         \"acc_executions\":{},\"morsels\":{},\"cache_hits\":{},\"cache_misses\":{},\
         \"accum_bytes\":{}",
        node.calls,
        node.wall.as_micros(),
        node.rows,
        node.vertices_touched,
        node.edges_scanned,
        node.kernel_calls,
        node.paths_enumerated,
        node.acc_executions,
        node.morsels,
        node.cache_hits,
        node.cache_misses,
        node.accum_bytes,
    )
    .unwrap();
    out.push_str(",\"workers\":[");
    for (i, w) in node.workers.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(out, "{w}").unwrap();
    }
    out.push_str("],\"children\":[");
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        node_json(out, c);
    }
    out.push_str("]}");
}

// ---- collection (crate-internal) ---------------------------------------

/// Extra per-span measurements the executor hands over at span exit —
/// things a [`MatchStats`] delta cannot see.
#[derive(Default)]
pub(crate) struct SpanExtra {
    pub rows: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Peak accumulator footprint observed at this operator.
    pub accum_bytes: u64,
    /// Per-worker kernel counts from a parallel fan-out.
    pub workers: Vec<u64>,
}

/// An open span returned by [`Profiler::enter`]; hand it back to
/// [`Profiler::exit`] at the operator boundary. If an error unwinds the
/// operator the token is simply dropped (the partial profile is
/// discarded with the run).
pub(crate) struct Span {
    node: usize,
    start: Instant,
    stats_at: MatchStats,
}

struct Collected {
    op: &'static str,
    detail: String,
    /// AST identity: the address of the AST node this operator executes,
    /// so repeated executions accumulate into one profile node.
    key: usize,
    calls: u64,
    wall: Duration,
    stats: MatchStats,
    extra: SpanExtra,
    children: Vec<usize>,
}

/// Arena-based profile collector owned by the runtime of a profiled run.
/// One `enter`/`exit` pair per operator execution — operator-boundary
/// granularity only, never per-row.
pub(crate) struct Profiler {
    nodes: Vec<Collected>,
    stack: Vec<usize>,
    started: Instant,
}

impl Profiler {
    pub(crate) fn new() -> Self {
        let root = Collected {
            op: "query",
            detail: String::new(),
            key: 0,
            calls: 1,
            wall: Duration::ZERO,
            stats: MatchStats::default(),
            extra: SpanExtra::default(),
            children: Vec::new(),
        };
        Profiler { nodes: vec![root], stack: vec![0], started: Instant::now() }
    }

    /// Opens a span for operator `(op, key)` under the current stack
    /// top, creating the node on first execution and reusing it on
    /// repeats. `detail` is only rendered on first execution.
    pub(crate) fn enter(
        &mut self,
        op: &'static str,
        key: usize,
        detail: impl FnOnce() -> String,
        stats: &MatchStats,
    ) -> Span {
        let parent = *self.stack.last().expect("profiler stack underflow");
        let found = self.nodes[parent]
            .children
            .iter()
            .copied()
            .find(|&c| self.nodes[c].op == op && self.nodes[c].key == key);
        let node = match found {
            Some(n) => n,
            None => {
                let n = self.nodes.len();
                self.nodes.push(Collected {
                    op,
                    detail: detail(),
                    key,
                    calls: 0,
                    wall: Duration::ZERO,
                    stats: MatchStats::default(),
                    extra: SpanExtra::default(),
                    children: Vec::new(),
                });
                self.nodes[parent].children.push(n);
                n
            }
        };
        self.stack.push(node);
        Span { node, start: Instant::now(), stats_at: stats.clone() }
    }

    /// Closes `span`, accumulating wall time, the [`MatchStats`] delta
    /// since `enter`, and the executor-provided extras into its node.
    pub(crate) fn exit(&mut self, span: Span, stats: &MatchStats, extra: SpanExtra) {
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(span.node), "unbalanced profiler spans");
        let node = &mut self.nodes[span.node];
        node.calls += 1;
        node.wall += span.start.elapsed();
        accumulate(&mut node.stats, stats, &span.stats_at);
        node.extra.rows += extra.rows;
        node.extra.cache_hits += extra.cache_hits;
        node.extra.cache_misses += extra.cache_misses;
        node.extra.accum_bytes = node.extra.accum_bytes.max(extra.accum_bytes);
        if !extra.workers.is_empty() {
            if node.extra.workers.len() < extra.workers.len() {
                node.extra.workers.resize(extra.workers.len(), 0);
            }
            for (slot, w) in node.extra.workers.iter_mut().zip(&extra.workers) {
                *slot += w;
            }
        }
    }

    /// Finalizes collection into a [`Profile`]. The root absorbs the
    /// whole-run wall time and final stats totals, making its counters
    /// the query totals by construction.
    pub(crate) fn finish(
        mut self,
        query: &str,
        semantics: PathSemantics,
        parallelism: usize,
        stats: &MatchStats,
        accum_bytes: u64,
    ) -> Profile {
        {
            let root = &mut self.nodes[0];
            root.detail = format!("QUERY {query}");
            root.wall = self.started.elapsed();
            root.stats = stats.clone();
            root.extra.accum_bytes = accum_bytes;
        }
        let root = build(&self.nodes, 0);
        Profile { query: query.to_string(), semantics, parallelism, root }
    }
}

/// Adds `(now - base)` field-wise into `into` (saturating; a parallel
/// merge never runs mid-span, so deltas are exact in practice).
fn accumulate(into: &mut MatchStats, now: &MatchStats, base: &MatchStats) {
    into.kernel_calls += now.kernel_calls.saturating_sub(base.kernel_calls);
    into.product_states += now.product_states.saturating_sub(base.product_states);
    into.paths_enumerated += now.paths_enumerated.saturating_sub(base.paths_enumerated);
    into.binding_rows += now.binding_rows.saturating_sub(base.binding_rows);
    into.acc_executions += now.acc_executions.saturating_sub(base.acc_executions);
    into.vertices_touched += now.vertices_touched.saturating_sub(base.vertices_touched);
    into.edges_scanned += now.edges_scanned.saturating_sub(base.edges_scanned);
    into.morsels_dispatched += now.morsels_dispatched.saturating_sub(base.morsels_dispatched);
}

fn build(nodes: &[Collected], i: usize) -> ProfileNode {
    let n = &nodes[i];
    ProfileNode {
        op: n.op,
        detail: n.detail.clone(),
        calls: n.calls,
        wall: n.wall,
        // Binding rows appear either as an explicit executor-reported
        // cardinality (scan/hop/filter output) or as a `binding_rows`
        // stats delta (SELECT blocks, and the query total at the root) —
        // never both for the same node.
        rows: n.extra.rows + n.stats.binding_rows,
        vertices_touched: n.stats.vertices_touched,
        edges_scanned: n.stats.edges_scanned,
        kernel_calls: n.stats.kernel_calls,
        paths_enumerated: n.stats.paths_enumerated,
        acc_executions: n.stats.acc_executions,
        morsels: n.stats.morsels_dispatched,
        cache_hits: n.extra.cache_hits,
        cache_misses: n.extra.cache_misses,
        accum_bytes: n.extra.accum_bytes,
        workers: n.extra.workers.clone(),
        children: n.children.iter().map(|&c| build(nodes, c)).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_operators_accumulate_into_one_node() {
        let mut p = Profiler::new();
        let mut stats = MatchStats::default();
        for i in 0..3 {
            let span = p.enter("block", 42, || "SELECT ...".into(), &stats);
            stats.binding_rows += 10;
            stats.vertices_touched += 5;
            p.exit(span, &stats, SpanExtra::default());
            assert_eq!(p.nodes.len(), 2, "iteration {i} must reuse the node");
        }
        let prof = p.finish("q", PathSemantics::AllShortestPaths, 1, &stats, 0);
        assert_eq!(prof.root.children.len(), 1);
        let b = &prof.root.children[0];
        assert_eq!(b.calls, 3);
        assert_eq!(b.rows, 30);
        assert_eq!(b.vertices_touched, 15);
        // Root totals are the final stats, reconciling with the report.
        assert_eq!(prof.root.vertices_touched, 15);
        assert_eq!(prof.root.rows, 30);
    }

    #[test]
    fn nested_spans_build_a_tree_and_self_wall_subtracts() {
        let mut p = Profiler::new();
        let stats = MatchStats::default();
        let outer = p.enter("while", 1, || "WHILE loop".into(), &stats);
        let inner = p.enter("block", 2, || "SELECT".into(), &stats);
        std::thread::sleep(Duration::from_millis(2));
        p.exit(inner, &stats, SpanExtra::default());
        p.exit(outer, &stats, SpanExtra::default());
        let prof =
            p.finish("q", PathSemantics::AllShortestPaths, 1, &stats, 0);
        let w = &prof.root.children[0];
        assert_eq!(w.op, "while");
        assert_eq!(w.children.len(), 1);
        assert!(w.wall >= w.children[0].wall);
        assert!(w.self_wall() <= w.wall);
        assert_eq!(prof.root.size(), 3);
    }

    #[test]
    fn worker_distributions_sum_slotwise() {
        let mut p = Profiler::new();
        let stats = MatchStats::default();
        for _ in 0..2 {
            let s = p.enter("hop", 7, || "hop".into(), &stats);
            p.exit(
                s,
                &stats,
                SpanExtra { workers: vec![3, 1], ..SpanExtra::default() },
            );
        }
        let prof =
            p.finish("q", PathSemantics::AllShortestPaths, 4, &stats, 0);
        assert_eq!(prof.root.children[0].workers, vec![6, 2]);
    }

    #[test]
    fn json_and_text_are_well_formed() {
        let mut p = Profiler::new();
        let stats = MatchStats::default();
        let s = p.enter("scan", 1, || "scan V AS s".into(), &stats);
        p.exit(s, &stats, SpanExtra { rows: 4, ..SpanExtra::default() });
        let prof =
            p.finish("demo", PathSemantics::ShortestOne, 2, &stats, 0);
        let text = prof.render();
        assert!(text.starts_with("PROFILE demo [ShortestOne semantics, parallelism 2]"), "{text}");
        assert!(text.contains("scan V AS s"), "{text}");
        assert!(text.contains("rows 4"), "{text}");
        let json = prof.to_json();
        assert!(json.contains("\"op\":\"scan\""), "{json}");
        assert!(json.contains("\"rows\":4"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count(), "{json}");
    }
}
