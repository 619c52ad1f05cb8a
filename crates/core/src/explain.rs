//! `EXPLAIN` — static query plans as a structured, stable tree.
//!
//! [`explain_plan`] compiles a parsed query into a [`Plan`]: a tree of
//! [`PlanNode`]s describing, for every SELECT block, the evaluation
//! strategy the engine will use — how each FROM item is scanned, which
//! WHERE conjuncts are pushed down to which binding step, whether each
//! pattern hop runs as an adjacency scan, a polynomial SDMC **counting**
//! kernel, or an exponential **enumerative** kernel (and from which
//! endpoint), and how each accumulator absorbs binding multiplicities.
//! This makes the paper's tractability story *inspectable*: the plan
//! names the exact mechanism that keeps (or fails to keep) a query
//! polynomial.
//!
//! The tree renders two ways, both documented in `docs/PLAN_FORMAT.md`
//! and pinned by the `explain_golden` test suite:
//!
//! * [`Plan::render`] — the indented text tree (`gsql_shell --explain`,
//!   `EXPLAIN <query>`),
//! * [`Plan::to_json`] — a JSON document (`POST /explain` on
//!   `gsql-serve`, `gsql_shell --explain --json`).
//!
//! The same node vocabulary (the [`PlanNode::op`] strings) is shared by
//! `PROFILE` ([`crate::profile::Profile`]), whose execution tree
//! annotates these operators with measured counters.

use crate::ast::*;
use crate::error::Result;
use crate::semantics::PathSemantics;
use std::fmt::Write as _;

/// One operator of a static query plan.
///
/// `op` is a stable machine-readable tag drawn from the vocabulary
/// documented in `docs/PLAN_FORMAT.md` (`"query"`, `"block"`, `"scan"`,
/// `"hop"`, `"accum"`, ...); `detail` is the human-readable line the
/// text rendering prints for this node.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanNode {
    /// Stable operator tag (see `docs/PLAN_FORMAT.md` for the full list).
    pub op: &'static str,
    /// Human-readable description; the text rendering prints this line
    /// (plus the estimate suffix when estimates are present).
    pub detail: String,
    /// Child operators, in evaluation order.
    pub children: Vec<PlanNode>,
    /// Planner cardinality estimate — rows flowing out of this operator.
    /// `None` when the plan was lowered without graph statistics (the
    /// graph-less [`explain_plan`] entry point).
    pub est_rows: Option<u64>,
    /// Planner cost estimate — an order-of-magnitude work unit count
    /// (rows touched, CSR entries scanned, kernel edge traversals).
    pub est_cost: Option<u64>,
}

impl PlanNode {
    pub(crate) fn new(op: &'static str, detail: impl Into<String>) -> Self {
        PlanNode {
            op,
            detail: detail.into(),
            children: Vec::new(),
            est_rows: None,
            est_cost: None,
        }
    }

    /// Number of nodes in this subtree, including `self`.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(PlanNode::size).sum::<usize>()
    }
}

/// A complete static plan for one query under one [`PathSemantics`].
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The query's declared name.
    pub query: String,
    /// The semantics the plan was computed under (the engine default;
    /// `USE SEMANTICS` switches are reflected inside the tree).
    pub semantics: PathSemantics,
    /// The plan tree; the root is always an `op == "query"` node.
    pub root: PlanNode,
}

impl Plan {
    /// Renders the plan as an indented text tree (two spaces per level).
    pub fn render(&self) -> String {
        let mut out = String::new();
        render_into(&self.root, 0, &mut out);
        out
    }

    /// Renders the plan as a single-line JSON document:
    /// `{"query":..,"semantics":..,"plan":{"op":..,"detail":..,"children":[..]}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"query\":");
        json_string(&mut out, &self.query);
        write!(out, ",\"semantics\":\"{:?}\",\"plan\":", self.semantics).unwrap();
        node_json(&mut out, &self.root);
        out.push('}');
        out
    }
}

fn render_into(node: &PlanNode, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    out.push_str(&node.detail);
    if let (Some(r), Some(c)) = (node.est_rows, node.est_cost) {
        write!(out, " [est_rows={r} est_cost={c}]").unwrap();
    }
    out.push('\n');
    for c in &node.children {
        render_into(c, depth + 1, out);
    }
}

fn node_json(out: &mut String, node: &PlanNode) {
    out.push_str("{\"op\":");
    json_string(out, node.op);
    out.push_str(",\"detail\":");
    json_string(out, &node.detail);
    if let (Some(r), Some(c)) = (node.est_rows, node.est_cost) {
        write!(out, ",\"est_rows\":{r},\"est_cost\":{c}").unwrap();
    }
    out.push_str(",\"children\":[");
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        node_json(out, c);
    }
    out.push_str("]}");
}

/// Appends `s` as a JSON string literal (quoted, escaped).
pub(crate) fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).unwrap();
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Builds the static [`Plan`] for `query` under `semantics`.
///
/// This graph-less entry point lowers through the same planner as
/// execution (`crate::plan::lower_query`) but without graph
/// statistics, so `est_rows`/`est_cost` are absent and every cost-based
/// choice falls back to the syntax-driven default. Use
/// [`crate::Engine::explain`] to see the cost-annotated plan the engine
/// actually executes against its graph.
pub fn explain_plan(query: &Query, semantics: PathSemantics) -> Result<Plan> {
    Ok(crate::plan::lower_query(query, semantics, None).plan)
}

/// Renders a static plan for `query` under `semantics` as text — the
/// historical string-only entry point, equivalent to
/// `explain_plan(query, semantics)?.render()`.
pub fn explain(query: &Query, semantics: PathSemantics) -> Result<String> {
    Ok(explain_plan(query, semantics)?.render())
}

/// A compact one-line label for a SELECT block's FROM clause, shared
/// with the `PROFILE` tree so the two displays line up.
pub(crate) fn block_label(block: &SelectBlock) -> String {
    let mut out = String::from("SELECT FROM ");
    for (i, item) in block.from.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match item {
            FromItem::Table { name, alias } => {
                write!(out, "{name}:{alias}").unwrap();
            }
            FromItem::Pattern { start, hops, .. } => {
                out.push_str(&vspec_label(start));
                for hop in hops {
                    write!(out, " -({})- {}", hop.darpe, vspec_label(&hop.to)).unwrap();
                }
            }
        }
    }
    out
}

pub(crate) fn vspec_label(spec: &VSpec) -> String {
    match &spec.var {
        Some(v) => format!("{}:{v}", spec.name),
        None => spec.name.clone(),
    }
}





#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::stdlib;

    #[test]
    fn qn_plan_names_the_counting_kernel_and_pushdowns() {
        let q = parse_query(&stdlib::qn("V", "E")).unwrap();
        let plan = explain(&q, PathSemantics::AllShortestPaths).unwrap();
        assert!(plan.contains("SDMC counting kernel"), "{plan}");
        assert!(plan.contains("pushdown filter: s.name Eq srcName"), "{plan}");
        // t.name filter becomes a sargable anchor or pushdown.
        assert!(plan.contains("t.name"), "{plan}");
        assert!(!plan.contains("EXPONENTIAL"), "{plan}");
    }

    #[test]
    fn qn_plan_under_enumeration_warns_and_states_the_target_set_rule() {
        let q = parse_query(&stdlib::qn("V", "E")).unwrap();
        let plan = explain(&q, PathSemantics::NonRepeatedEdge).unwrap();
        assert!(plan.contains("EXPONENTIAL"), "{plan}");
        assert!(
            plan.contains(
                "backward from each target when the target set has at most 32 vertices, \
                 else forward"
            ),
            "{plan}"
        );
        assert!(plan.contains("sargable anchor: t.name Eq tgtName"), "{plan}");
    }

    #[test]
    fn pagerank_plan_shows_loop_and_adjacency_scans() {
        let q = parse_query(&stdlib::pagerank("Page", "LinkTo")).unwrap();
        let plan = explain(&q, PathSemantics::AllShortestPaths).unwrap();
        assert!(plan.contains("WHILE loop (bounded)"), "{plan}");
        assert!(plan.contains("adjacency scan"), "{plan}");
        assert!(plan.contains("POST_ACCUM: 3 statement(s)"), "{plan}");
    }

    #[test]
    fn use_semantics_is_reflected_downstream() {
        let q = parse_query(
            "CREATE QUERY x() { USE SEMANTICS 'nre'; S = SELECT t FROM V:s -(E>*)- V:t; }",
        )
        .unwrap();
        let plan = explain(&q, PathSemantics::AllShortestPaths).unwrap();
        assert!(plan.contains("USE SEMANTICS -> NonRepeatedEdge"), "{plan}");
        assert!(plan.contains("enumerative kernel, forward (EXPONENTIAL)"), "{plan}");
    }

    #[test]
    fn multi_output_fragments_are_classified() {
        let q = parse_query(stdlib::example5_multi_output()).unwrap();
        let plan = explain(&q, PathSemantics::AllShortestPaths).unwrap();
        assert!(plan.contains("output INTO PerCust: projected table"), "{plan}");
        assert!(plan.contains("output INTO Total: projected table"), "{plan}");
        assert!(plan.contains("ACCUM: 4 statement(s)"), "{plan}");
    }

    #[test]
    fn plan_tree_structure_matches_text() {
        let q = parse_query(&stdlib::qn("V", "E")).unwrap();
        let plan = explain_plan(&q, PathSemantics::AllShortestPaths).unwrap();
        assert_eq!(plan.root.op, "query");
        // One hop under the block, with the pushdown attached to the scan.
        let block = plan
            .root
            .children
            .iter()
            .find(|n| n.op == "block")
            .expect("block node");
        assert!(block.children.iter().any(|n| n.op == "scan"));
        assert!(block.children.iter().any(|n| n.op == "hop"));
        // Text rendering and tree agree on node count (one line per node).
        assert_eq!(plan.render().lines().count(), plan.root.size());
    }

    #[test]
    fn plan_json_is_well_formed_and_escaped() {
        let q = parse_query(
            "CREATE QUERY j() { S = SELECT s FROM V:s WHERE s.name == 'a\"b'; }",
        )
        .unwrap();
        let plan = explain_plan(&q, PathSemantics::AllShortestPaths).unwrap();
        let json = plan.to_json();
        assert!(json.starts_with("{\"query\":\"j\""), "{json}");
        assert!(json.contains("\\\""), "escaped quote missing: {json}");
        assert!(json.contains("\"semantics\":\"AllShortestPaths\""), "{json}");
        // Balanced braces/brackets (JSON strings contain no braces here
        // beyond the escaped quote content).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes, "{json}");
    }
}
