//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is `{name, start, end, parent, op_id}`; spans of one op share
//! an `op_id`. Spans live in memory and are written out when the traced
//! pass ends. A layer's self time is its span's duration minus the part
//! its child spans cover.
//!
//! Operator spans below an `exec.run` span are rebuilt from the
//! [`Profile`](gsql_core::Profile) tree `run_profiled` returns: the tree
//! carries inclusive wall times but no timestamps, so children are laid
//! end to end from their parent's start. Durations and nesting are
//! measured; the start offsets of operator spans are not.

use gsql_core::ProfileNode;
use gsql_serve::json::{write_json, Json};
use std::collections::BTreeMap;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op_id: u64,
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn start() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the trace began.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        op_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op_id,
        });
        self.spans.len() - 1
    }

    /// Adds the operator subtree of a profiled run below `parent`,
    /// starting at `start_ns`. Span names are `op.<tag>` in the engine's
    /// EXPLAIN vocabulary.
    pub fn push_profile(&mut self, node: &ProfileNode, start_ns: u64, parent: usize, op_id: u64) {
        let end = start_ns + node.wall.as_nanos() as u64;
        let id = self.push(
            &format!("op.{}", node.op),
            start_ns,
            end,
            Some(parent),
            op_id,
        );
        let mut at = start_ns;
        for child in &node.children {
            self.push_profile(child, at, id, op_id);
            at += child.wall.as_nanos() as u64;
        }
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns(&self) -> BTreeMap<String, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            *by_name.entry(s.name.clone()).or_default() +=
                (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        by_name
    }

    /// Total duration per span name, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The trace file: every span, then self time per name.
    pub fn to_json(&self, workload: &str) -> String {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("start_ns".into(), Json::Int(s.start_ns as i64)),
                    ("end_ns".into(), Json::Int(s.end_ns as i64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("op_id".into(), Json::Int(s.op_id as i64)),
                ])
            })
            .collect();
        let self_ns = self
            .self_ns()
            .into_iter()
            .map(|(name, ns)| (name, Json::Int(ns as i64)))
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.to_string())),
            ("self_ns".into(), Json::Obj(self_ns)),
            ("spans".into(), Json::Arr(spans)),
        ]);
        let mut out = String::new();
        write_json(&mut out, &doc);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Trace::start();
        let op = t.push("op", 0, 100, None, 1);
        let run = t.push("exec.run", 10, 90, Some(op), 1);
        t.push("op.scan", 10, 40, Some(run), 1);
        t.push("op.accum", 40, 80, Some(run), 1);
        let own = t.self_ns();
        assert_eq!(own["op"], 20);
        assert_eq!(own["exec.run"], 10);
        assert_eq!(own["op.scan"], 30);
        assert_eq!(own["op.accum"], 40);
        assert_eq!(own.values().sum::<u64>(), 100, "self times sum to the root");
    }
}
