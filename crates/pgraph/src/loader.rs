//! Plain-text graph serialization.
//!
//! A simple line-oriented format so example graphs and generator outputs
//! can be persisted and reloaded without external dependencies:
//!
//! ```text
//! #SCHEMA
//! VTYPE Person name:STRING age:INT
//! ETYPE Knows UNDIRECTED since:INT
//! #DATA
//! V Person alice 31
//! V Person bob 27
//! E Knows 0 1 2016
//! ```
//!
//! Vertex ids in `E` lines are 0-based insertion indices. Fields are
//! tab-separated in the data section (the header uses spaces); strings
//! escape tab, newline and backslash.

use crate::graph::{Graph, GraphError};
use crate::schema::{AttrDef, Schema, SchemaError};
use crate::value::{Value, ValueType};

/// Errors from parsing or serializing the text format.
#[derive(Debug, Clone, PartialEq)]
pub enum LoadError {
    Syntax { line: usize, msg: String },
    Schema(SchemaError),
    Graph(String),
    /// The output sink failed while serializing.
    Write(String),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Syntax { line, msg } => write!(f, "line {line}: {msg}"),
            LoadError::Schema(e) => write!(f, "{e}"),
            LoadError::Graph(e) => write!(f, "{e}"),
            LoadError::Write(e) => write!(f, "write failed: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<SchemaError> for LoadError {
    fn from(e: SchemaError) -> Self {
        LoadError::Schema(e)
    }
}

impl From<GraphError> for LoadError {
    fn from(e: GraphError) -> Self {
        LoadError::Graph(e.to_string())
    }
}

impl From<std::fmt::Error> for LoadError {
    fn from(e: std::fmt::Error) -> Self {
        LoadError::Write(e.to_string())
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('t') => out.push('\t'),
                Some('n') => out.push('\n'),
                Some('\\') => out.push('\\'),
                Some(other) => out.push(other),
                None => {}
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn value_to_field(v: &Value) -> String {
    match v {
        Value::Str(s) => escape(s),
        other => other.to_string(),
    }
}

fn field_to_value(ty: ValueType, field: &str, line: usize) -> Result<Value, LoadError> {
    let err = |msg: String| LoadError::Syntax { line, msg };
    Ok(match ty {
        ValueType::Bool => Value::Bool(
            field
                .parse::<bool>()
                .map_err(|_| err(format!("bad bool `{field}`")))?,
        ),
        ValueType::Int => Value::Int(
            field
                .parse::<i64>()
                .map_err(|_| err(format!("bad int `{field}`")))?,
        ),
        ValueType::Double => Value::Double(
            field
                .parse::<f64>()
                .map_err(|_| err(format!("bad double `{field}`")))?,
        ),
        ValueType::Str => Value::Str(unescape(field)),
        ValueType::DateTime => Value::DateTime(
            field
                .trim_start_matches('@')
                .parse::<i64>()
                .map_err(|_| err(format!("bad datetime `{field}`")))?,
        ),
        ValueType::Vertex | ValueType::Edge => {
            return Err(err("vertex/edge attributes are not storable".into()))
        }
    })
}

/// Serializes `g` (schema + data) into any [`std::fmt::Write`] sink.
///
/// Sink failures propagate as [`LoadError::Write`] instead of panicking,
/// so a full disk or broken pipe behind the sink is a reported error.
pub fn save_to_writer<W: std::fmt::Write>(g: &Graph, out: &mut W) -> Result<(), LoadError> {
    out.write_str("#SCHEMA\n")?;
    for (_, vt) in g.schema().vertex_types() {
        write!(out, "VTYPE {}", vt.name)?;
        for a in &vt.attrs {
            write!(out, " {}:{}", a.name, a.ty)?;
        }
        out.write_char('\n')?;
    }
    for (_, et) in g.schema().edge_types() {
        write!(
            out,
            "ETYPE {} {}",
            et.name,
            if et.directed { "DIRECTED" } else { "UNDIRECTED" }
        )?;
        for a in &et.attrs {
            write!(out, " {}:{}", a.name, a.ty)?;
        }
        out.write_char('\n')?;
    }
    out.write_str("#DATA\n")?;
    for v in g.vertices() {
        let vt = g.vertex_type_of(v);
        let def = g.schema().vertex_type(vt);
        write!(out, "V\t{}", def.name)?;
        for i in 0..def.attrs.len() {
            write!(out, "\t{}", value_to_field(g.vertex_attr(v, i)))?;
        }
        out.write_char('\n')?;
    }
    for e in g.edges() {
        let et = g.edge_type_of(e);
        let def = g.schema().edge_type(et);
        let (s, t) = g.edge_endpoints(e);
        write!(out, "E\t{}\t{}\t{}", def.name, s.0, t.0)?;
        for i in 0..def.attrs.len() {
            write!(out, "\t{}", value_to_field(g.edge_attr(e, i)))?;
        }
        out.write_char('\n')?;
    }
    Ok(())
}

/// Serializes `g` (schema + data) to the text format.
pub fn save_to_string(g: &Graph) -> Result<String, LoadError> {
    let mut out = String::new();
    save_to_writer(g, &mut out)?;
    Ok(out)
}

/// The [`std::fmt::Write`] face of an [`std::io::Write`], keeping the
/// first I/O error so it can be returned as itself.
struct IoSink<'a, W> {
    out: &'a mut W,
    error: Option<std::io::Error>,
}

impl<W: std::io::Write> std::fmt::Write for IoSink<'_, W> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.out.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            std::fmt::Error
        })
    }
}

/// Serializes `g` (schema + data) into an [`std::io::Write`] sink as it
/// goes, so the text of a large graph is never held in memory at once.
pub fn save_to_io<W: std::io::Write>(g: &Graph, out: &mut W) -> std::io::Result<()> {
    let mut sink = IoSink { out, error: None };
    save_to_writer(g, &mut sink)
        .map_err(|e| sink.error.take().unwrap_or_else(|| std::io::Error::other(e.to_string())))
}

/// Writes `bytes` to `path` atomically (see [`atomic_write_with`]).
pub fn atomic_write_bytes(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    atomic_write_with(path, |f| f.write_all(bytes))
}

/// Writes `path` atomically: `write` fills a sibling temp file, which is
/// fsynced and renamed over the target, then the directory is fsynced so
/// the rename itself is durable. A crash at any point leaves either the
/// old file or the new one — never a truncated hybrid.
pub fn atomic_write_with(
    path: &std::path::Path,
    write: impl FnOnce(&mut std::io::BufWriter<std::fs::File>) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        write(&mut f)?;
        f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = dir {
        // Directory fsync makes the rename durable on POSIX filesystems;
        // best-effort elsewhere (opening a directory may not be allowed).
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Serializes `g` to `path` atomically (fsync + rename): a crash mid-save
/// cannot leave a truncated file that a later load would misparse.
pub fn save_to_file(g: &Graph, path: &std::path::Path) -> Result<(), LoadError> {
    atomic_write_with(path, |f| save_to_io(g, f))
        .map_err(|e| LoadError::Write(format!("{}: {e}", path.display())))
}

/// Parses the text format back into a [`Graph`].
pub fn load_from_string(text: &str) -> Result<Graph, LoadError> {
    let mut schema = Schema::new();
    let mut graph: Option<Graph> = None;
    let mut vertex_ids = Vec::new();

    for (lineno, raw) in text.lines().enumerate() {
        let line = lineno + 1;
        let trimmed = raw.trim_end();
        if trimmed.is_empty() || trimmed == "#SCHEMA" {
            continue;
        }
        if trimmed == "#DATA" {
            graph = Some(Graph::new(std::mem::take(&mut schema)));
            continue;
        }
        if let Some(rest) = trimmed.strip_prefix("VTYPE ") {
            let mut parts = rest.split(' ');
            let name = parts
                .next()
                .ok_or_else(|| LoadError::Syntax { line, msg: "missing vertex type name".into() })?;
            let attrs = parse_attr_defs(parts, line)?;
            schema.add_vertex_type(name, attrs)?;
        } else if let Some(rest) = trimmed.strip_prefix("ETYPE ") {
            let mut parts = rest.split(' ');
            let name = parts
                .next()
                .ok_or_else(|| LoadError::Syntax { line, msg: "missing edge type name".into() })?;
            let dir = parts
                .next()
                .ok_or_else(|| LoadError::Syntax { line, msg: "missing directedness".into() })?;
            let directed = match dir {
                "DIRECTED" => true,
                "UNDIRECTED" => false,
                other => {
                    return Err(LoadError::Syntax {
                        line,
                        msg: format!("expected DIRECTED|UNDIRECTED, got `{other}`"),
                    })
                }
            };
            let attrs = parse_attr_defs(parts, line)?;
            schema.add_edge_type(name, directed, attrs)?;
        } else if let Some(rest) = trimmed.strip_prefix("V\t") {
            let g = graph
                .as_mut()
                .ok_or_else(|| LoadError::Syntax { line, msg: "data before #DATA".into() })?;
            let mut fields = rest.split('\t');
            let tname = fields
                .next()
                .ok_or_else(|| LoadError::Syntax { line, msg: "missing vertex type".into() })?;
            let vt = g
                .schema()
                .vertex_type_id(tname)
                .ok_or_else(|| LoadError::Schema(SchemaError::UnknownVertexType(tname.into())))?;
            let tys: Vec<ValueType> =
                g.schema().vertex_type(vt).attrs.iter().map(|a| a.ty).collect();
            let mut attrs = Vec::with_capacity(tys.len());
            for ty in tys {
                let f = fields.next().ok_or_else(|| LoadError::Syntax {
                    line,
                    msg: "too few attribute fields".into(),
                })?;
                attrs.push(field_to_value(ty, f, line)?);
            }
            vertex_ids.push(g.add_vertex(vt, attrs)?);
        } else if let Some(rest) = trimmed.strip_prefix("E\t") {
            let g = graph
                .as_mut()
                .ok_or_else(|| LoadError::Syntax { line, msg: "data before #DATA".into() })?;
            let mut fields = rest.split('\t');
            let tname = fields
                .next()
                .ok_or_else(|| LoadError::Syntax { line, msg: "missing edge type".into() })?;
            let et = g
                .schema()
                .edge_type_id(tname)
                .ok_or_else(|| LoadError::Schema(SchemaError::UnknownEdgeType(tname.into())))?;
            let parse_idx = |f: Option<&str>| -> Result<usize, LoadError> {
                f.and_then(|s| s.parse::<usize>().ok())
                    .ok_or_else(|| LoadError::Syntax { line, msg: "bad endpoint index".into() })
            };
            let s = parse_idx(fields.next())?;
            let t = parse_idx(fields.next())?;
            if s >= vertex_ids.len() || t >= vertex_ids.len() {
                return Err(LoadError::Syntax { line, msg: "endpoint index out of range".into() });
            }
            let tys: Vec<ValueType> =
                g.schema().edge_type(et).attrs.iter().map(|a| a.ty).collect();
            let mut attrs = Vec::with_capacity(tys.len());
            for ty in tys {
                let f = fields.next().ok_or_else(|| LoadError::Syntax {
                    line,
                    msg: "too few attribute fields".into(),
                })?;
                attrs.push(field_to_value(ty, f, line)?);
            }
            g.add_edge(et, vertex_ids[s], vertex_ids[t], attrs)?;
        } else {
            return Err(LoadError::Syntax {
                line,
                msg: format!("unrecognized line `{trimmed}`"),
            });
        }
    }
    let mut graph =
        graph.ok_or(LoadError::Syntax { line: 0, msg: "missing #DATA section".into() })?;
    graph.finalize();
    Ok(graph)
}

fn parse_attr_defs<'a>(
    parts: impl Iterator<Item = &'a str>,
    line: usize,
) -> Result<Vec<AttrDef>, LoadError> {
    let mut attrs = Vec::new();
    for p in parts {
        if p.is_empty() {
            continue;
        }
        let (name, ty) = p.split_once(':').ok_or_else(|| LoadError::Syntax {
            line,
            msg: format!("bad attribute declaration `{p}`"),
        })?;
        let ty = ValueType::parse(ty).ok_or_else(|| LoadError::Syntax {
            line,
            msg: format!("unknown type `{ty}`"),
        })?;
        attrs.push(AttrDef::new(name, ty));
    }
    Ok(attrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{linkedin_graph, sales_graph};

    #[test]
    fn round_trip_sales_graph() {
        let g = sales_graph();
        let text = save_to_string(&g).unwrap();
        let g2 = load_from_string(&text).unwrap();
        assert_eq!(g.vertex_count(), g2.vertex_count());
        assert_eq!(g.edge_count(), g2.edge_count());
        assert_eq!(save_to_string(&g2).unwrap(), text);
    }

    #[test]
    fn round_trip_undirected() {
        let g = linkedin_graph();
        let g2 = load_from_string(&save_to_string(&g).unwrap()).unwrap();
        let et = g2.schema().edge_type_id("Connected").unwrap();
        assert!(!g2.schema().is_directed(et));
        assert_eq!(g2.edge_count(), 7);
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut s = Schema::new();
        s.add_vertex_type("T", vec![AttrDef::new("v", ValueType::Str)])
            .unwrap();
        let mut g = Graph::new(s);
        let vt = g.schema().vertex_type_id("T").unwrap();
        g.add_vertex(vt, vec![Value::Str("a\tb\\c\nd".into())]).unwrap();
        let g2 = load_from_string(&save_to_string(&g).unwrap()).unwrap();
        assert_eq!(
            g2.vertex_attr_by_name(crate::graph::VertexId(0), "v"),
            Some(&Value::Str("a\tb\\c\nd".into()))
        );
    }

    #[test]
    fn syntax_errors_report_line() {
        let bad = "#SCHEMA\nVTYPE A\n#DATA\nGARBAGE\n";
        match load_from_string(bad) {
            Err(LoadError::Syntax { line, .. }) => assert_eq!(line, 4),
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn bad_endpoint_rejected() {
        let bad = "#SCHEMA\nVTYPE A\nETYPE E DIRECTED\n#DATA\nV\tA\nE\tE\t0\t9\n";
        assert!(matches!(
            load_from_string(bad),
            Err(LoadError::Syntax { line: 6, .. })
        ));
    }

    #[test]
    fn bad_attribute_value_is_an_error_not_a_panic() {
        let bad = "#SCHEMA\nVTYPE A n:INT\n#DATA\nV\tA\tnot_a_number\n";
        match load_from_string(bad) {
            Err(LoadError::Syntax { line, msg }) => {
                assert_eq!(line, 4);
                assert!(msg.contains("bad int"), "{msg}");
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn too_few_fields_is_an_error() {
        let bad = "#SCHEMA\nVTYPE A x:INT y:INT\n#DATA\nV\tA\t1\n";
        match load_from_string(bad) {
            Err(LoadError::Syntax { line: 4, msg }) => {
                assert!(msg.contains("too few"), "{msg}")
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn missing_data_section_is_an_error() {
        assert!(matches!(
            load_from_string("#SCHEMA\nVTYPE A\n"),
            Err(LoadError::Syntax { .. })
        ));
    }

    #[test]
    fn data_before_data_marker_is_an_error() {
        let bad = "#SCHEMA\nVTYPE A\nV\tA\n";
        match load_from_string(bad) {
            Err(LoadError::Syntax { line: 3, msg }) => {
                assert!(msg.contains("before #DATA"), "{msg}")
            }
            other => panic!("expected syntax error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_vertex_type_in_data_is_a_schema_error() {
        let bad = "#SCHEMA\nVTYPE A\n#DATA\nV\tB\n";
        assert!(matches!(
            load_from_string(bad),
            Err(LoadError::Schema(SchemaError::UnknownVertexType(_)))
        ));
    }

    /// A sink that fails after a fixed number of bytes — models a full
    /// disk behind the writer.
    struct Choke {
        left: usize,
    }

    impl std::fmt::Write for Choke {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            if s.len() > self.left {
                return Err(std::fmt::Error);
            }
            self.left -= s.len();
            Ok(())
        }
    }

    #[test]
    fn failing_sink_reports_write_error() {
        let g = sales_graph();
        let mut sink = Choke { left: 16 };
        assert!(matches!(
            save_to_writer(&g, &mut sink),
            Err(LoadError::Write(_))
        ));
    }
}
