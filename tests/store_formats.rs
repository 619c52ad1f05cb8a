//! The durable formats of the graph store, pinned.
//!
//! A checkpoint is [`save_to_string`]'s text and a WAL frame is
//! [`encode_frame`]'s bytes; both are logical (they name types, attribute
//! values and dense ids, never an in-memory layout), so a change to how
//! the graph keeps its attributes must leave them byte-identical.
//! `tests/golden/store_formats.txt` holds, for SNB sf 0.1 (seed 1) before
//! and after each of a fixed list of mutation batches — an insert with
//! strings, a string attribute write, an edge attribute write and a
//! vertex deletion that compacts ids — the crc32 and length of the whole
//! checkpoint text, the same per record type, the schema section and the
//! records the batch touched verbatim, and the crc32 and length of the
//! batch's WAL frame.
//!
//! Regenerate after an intentional format change with
//! `GSQL_BLESS=1 cargo test -p bench --test store_formats`.

use ldbc_snb::{generate_streamed, SnbParams};
use pgraph::datetime::to_epoch;
use pgraph::graph::{EdgeId, Graph, VertexId};
use pgraph::loader::{load_from_string, save_to_string};
use pgraph::mutate::{apply_batch, MutationOp};
use pgraph::value::Value;
use pgraph::wal::{crc32, decode_frames, encode_frame};
use std::collections::BTreeMap;
use std::fmt::Write;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/store_formats.txt")
}

/// The checkpoint text of `g`, summarized: schema lines verbatim, then
/// per record kind and type the line count and crc32, then the whole
/// text's length and crc32, then the `touched` vertex and edge records.
fn describe(out: &mut String, stage: &str, g: &Graph, touched: &[Record]) {
    let text = save_to_string(g).unwrap();
    writeln!(out, "== {stage}: {} bytes, crc32 {:08x}", text.len(), crc32(text.as_bytes()))
        .unwrap();
    let (schema, data) = text.split_once("#DATA\n").expect("a data section");
    if stage == "base" {
        out.push_str(schema);
    }
    let mut groups: BTreeMap<(char, &str), (usize, Vec<u8>)> = BTreeMap::new();
    let (mut vertex_lines, mut edge_lines) = (Vec::new(), Vec::new());
    for line in data.lines() {
        let mut fields = line.split('\t');
        let kind = fields.next().unwrap().chars().next().unwrap();
        let ty = fields.next().unwrap();
        let group = groups.entry((kind, ty)).or_default();
        group.0 += 1;
        group.1.extend_from_slice(line.as_bytes());
        group.1.push(b'\n');
        match kind {
            'V' => vertex_lines.push(line),
            _ => edge_lines.push(line),
        }
    }
    for ((kind, ty), (n, bytes)) in &groups {
        writeln!(out, "{kind} {ty}: {n} lines, crc32 {:08x}", crc32(bytes)).unwrap();
    }
    for record in touched {
        let (label, line) = match *record {
            Record::V(v) => (format!("V{}", v.0), vertex_lines[v.0 as usize]),
            Record::E(e) => (format!("E{}", e.0), edge_lines[e.0 as usize]),
        };
        writeln!(out, "{label}: {}", line.replace('\t', " | ")).unwrap();
    }
}

#[derive(Clone, Copy)]
enum Record {
    V(VertexId),
    E(EdgeId),
}

/// Applies `ops` as WAL frame `seq`, records the frame, checks that the
/// frame decodes to `ops` and that the checkpoint text reloads to the
/// same text, and describes the result.
fn step(
    out: &mut String,
    g: &mut Graph,
    seq: u64,
    stage: &str,
    ops: &[MutationOp],
    touched: &[Record],
) {
    let frame = encode_frame(seq, ops);
    writeln!(out, "frame {seq} ({stage}): {} bytes, crc32 {:08x}", frame.len(), crc32(&frame))
        .unwrap();
    let (batches, used, stop) = decode_frames(&frame);
    assert!(stop.is_clean() && used == frame.len());
    assert_eq!(batches[0].ops, ops, "frame {seq} does not decode to its batch");
    apply_batch(g, ops).unwrap();
    let text = save_to_string(g).unwrap();
    assert_eq!(save_to_string(&load_from_string(&text).unwrap()).unwrap(), text);
    describe(out, stage, g, touched);
}

#[test]
fn checkpoint_text_and_wal_frames_are_pinned() {
    let (mut g, _) = generate_streamed(SnbParams::new(0.1, 1));
    let s = g.schema().clone();
    let person = s.vertex_type_id("Person").unwrap();
    let message = s.vertex_type_id("Message").unwrap();
    let knows = s.edge_type_id("Knows").unwrap();
    let likes = s.edge_type_id("Likes").unwrap();
    let browser = s.vertex_attr_index(person, "browser").unwrap();
    let since = s.edge_attr_index(knows, "since").unwrap();
    let p0 = g.vertices_of_type(person)[0];
    let p3 = g.vertices_of_type(person)[3];
    let knows_edge = g.adjacency_of_type(p0, knows).first().expect("p0 knows someone").edge;

    let mut out = String::new();
    describe(&mut out, "base", &g, &[Record::V(p0), Record::V(p3), Record::E(knows_edge)]);

    let (nv, ne) = (g.vertex_count() as u32, g.edge_count() as u32);
    let insert = [
        MutationOp::AddVertex {
            vtype: person,
            attrs: vec![
                Value::Int(9_000_001),
                Value::from("Zoë\tTab"),
                Value::from("back\\slash\nline"),
                Value::from("female"),
                Value::from("Firefox"),
                Value::DateTime(to_epoch(1990, 2, 3)),
                Value::DateTime(to_epoch(2012, 4, 5)),
            ],
        },
        MutationOp::AddVertex {
            vtype: message,
            attrs: vec![
                Value::Int(9_000_002),
                Value::DateTime(to_epoch(2012, 6, 7)),
                Value::Int(140),
                Value::from(""),
                Value::Bool(true),
            ],
        },
        MutationOp::AddEdge {
            etype: knows,
            src: VertexId(nv),
            dst: p0,
            attrs: vec![Value::DateTime(to_epoch(2012, 5, 1))],
        },
        MutationOp::AddEdge {
            etype: likes,
            src: VertexId(nv),
            dst: VertexId(nv + 1),
            attrs: vec![Value::DateTime(to_epoch(2012, 6, 8))],
        },
    ];
    let inserted = [
        Record::V(VertexId(nv)),
        Record::V(VertexId(nv + 1)),
        Record::E(EdgeId(ne)),
        Record::E(EdgeId(ne + 1)),
    ];
    step(&mut out, &mut g, 1, "insert with strings", &insert, &inserted);

    let set_string = [MutationOp::SetVertexAttr { v: p3, attr: browser, value: Value::from("Opera") }];
    step(&mut out, &mut g, 2, "string attribute write", &set_string, &[Record::V(p3)]);

    let set_edge = [MutationOp::SetEdgeAttr {
        e: knows_edge,
        attr: since,
        value: Value::DateTime(to_epoch(2011, 1, 1)),
    }];
    step(&mut out, &mut g, 3, "edge attribute write", &set_edge, &[Record::E(knows_edge)]);

    // Deleting the first Person drops its edges and shifts every later id.
    let delete = [MutationOp::DeleteVertex { v: p0 }];
    step(&mut out, &mut g, 4, "vertex deletion", &delete, &[Record::V(p0), Record::V(p3)]);

    let path = golden_path();
    if std::env::var_os("GSQL_BLESS").is_some() {
        std::fs::write(&path, &out).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with GSQL_BLESS=1 to create it", path.display())
    });
    if out != expected {
        let line = out.lines().zip(expected.lines()).position(|(a, b)| a != b);
        let line = line.unwrap_or(out.lines().count().min(expected.lines().count()));
        panic!(
            "store_formats.txt differs at line {}:\n  actual: {}\n  golden: {}",
            line + 1,
            out.lines().nth(line).unwrap_or("<eof>"),
            expected.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}
