//! In-memory property graph storage.
//!
//! **Records and attribute columns.** A vertex is 8 bytes — its type and
//! its index among the vertices of that type — and an edge 16 — type,
//! endpoints, index within its type. Attributes live in one typed column
//! per (vertex or edge type, attribute), indexed by that type-local
//! index: 8 bytes a cell for INT, DOUBLE and DATETIME, 4 for VERTEX and
//! EDGE ids, one bit for BOOL, and for STRING a [`Value::Str`] holding a
//! shared `Arc<str>` — equal strings written by one build or one batch
//! share one allocation. A read lends a string from its column and builds
//! a scalar ([`Graph::vertex_attr`] returns a `Cow`). Every write passes
//! [`coerce_attr`], the store's one type rule. Adjacency is stored in
//! **compressed sparse row** (CSR) form, cut into chunks of 256
//! consecutive vertices: each chunk holds one flat `Vec<AdjEntry>` for
//! its vertices, a per-vertex offset array, and a per-`(vertex, edge
//! type)` offset array so typed traversal and degree queries are slice
//! lookups instead of filtered scans. Within a vertex's CSR range entries
//! are grouped by edge type and, inside each type group, ordered
//! `Out < Und < In` (stable on insertion order, i.e. ascending edge id),
//! which is what lets `outdegree`/`indegree` answer with a binary
//! partition point. That order is a function of the logical graph only —
//! never of how many finalizes, commits or checkpoints produced it.
//!
//! **Structural sharing.** Everything bulky sits behind an `Arc`: the
//! schema, the vertex / edge / per-type id stores and the attribute
//! columns (chunked copy-on-write vectors of 256 elements, 32 for
//! strings, whose cells cost a reference count each to copy), each
//! type's set of columns, and the CSR chunks. [`Graph::clone`] therefore
//! copies a few chunk-pointer spines and shares the rest; a write copies
//! only the chunk it lands in — an attribute update, one chunk of one
//! column, after the spines of that type's columns. This is what lets
//! [`crate::wal::LiveGraph`] publish a new snapshot per mutation batch at
//! a cost proportional to the batch.
//!
//! **One adjacency representation.** Every edge a reader can see is in
//! the CSR: `add_vertex`, `add_edge` and `finalize` are private to this
//! crate, and each way a [`Graph`] reaches a caller — [`Graph::new`]
//! (empty), [`GraphBuilder::build`], the loaders, the generators and
//! [`crate::mutate::apply_batch`] (and so [`crate::wal::LiveGraph`]) —
//! finalizes it first. [`Graph::adjacency`] and
//! [`Graph::adjacency_of_type`] are therefore plain slices, and every
//! graph a caller holds carries a process-unique finalize epoch. A
//! finalize rebuilds only the chunks that hold an endpoint of a new edge
//! or a vertex added since the last one, so a commit costs O(batch).

use crate::cow::{CowVec, CHUNK};
use crate::fxhash::FxHashSet;
use crate::schema::{AttrDef, ETypeId, Schema, SchemaError, VTypeId};
use crate::value::{Value, ValueType};
use std::borrow::Cow;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Identifier of a vertex (dense, global across vertex types).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

/// Identifier of an edge (dense, global across edge types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// The direction in which an adjacency entry crosses its edge, viewed from
/// the owning vertex:
///
/// * `Out` — a directed edge leaving the vertex (matches `E>`),
/// * `In`  — a directed edge entering the vertex (matches `<E`),
/// * `Und` — an undirected edge incident to the vertex (matches `E`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dir {
    Out,
    In,
    Und,
}

/// CSR intra-group ordering rank: `Out < Und < In`, so the out-going
/// prefix (`dir != In`) and in-coming suffix (`dir != Out`) of a type
/// group are both contiguous.
#[inline]
fn dir_rank(d: Dir) -> u8 {
    match d {
        Dir::Out => 0,
        Dir::Und => 1,
        Dir::In => 2,
    }
}

/// One adjacency record: crossing `edge` from the owning vertex reaches
/// `other`, traversing in direction `dir`, and the edge has type `etype`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdjEntry {
    pub etype: ETypeId,
    pub dir: Dir,
    pub edge: EdgeId,
    pub other: VertexId,
}

/// One attribute of one vertex or edge type: the value of every element
/// of that type, by type-local index, in copy-on-write chunks. Scalars
/// are stored unboxed in [`CHUNK`]-element chunks — 8 bytes an INT,
/// DOUBLE or DATETIME, 4 a VERTEX or EDGE id, a bit a BOOL — and a
/// STRING cell is a [`Value::Str`], so a read lends the stored string
/// instead of copying it. A write copies the one chunk it lands in if a
/// snapshot still shares it.
#[derive(Debug, Clone)]
enum Column {
    /// Bit `i % 64` of word `i / 64` is element `i`.
    Bool(CowVec<u64>),
    Int(CowVec<i64>),
    Double(CowVec<f64>),
    Str(CowVec<StrCell, STR_CHUNK>),
    DateTime(CowVec<i64>),
    Vertex(CowVec<u32>),
    Edge(CowVec<u32>),
}

/// Cells per STRING column chunk. Copying a string cell bumps a reference
/// count (and dropping the copy drops it again), so a write to a shared
/// chunk of strings copies 32 cells, where a scalar chunk copies 256
/// plain words.
const STR_CHUNK: usize = 32;

/// A STRING column's cell: a [`Value::Str`] (the `Null` default only
/// fills the unused slots of a column's last chunk).
#[derive(Debug, Clone)]
struct StrCell(Value);

impl Default for StrCell {
    fn default() -> Self {
        StrCell(Value::Null)
    }
}

impl Column {
    fn new(ty: ValueType) -> Column {
        match ty {
            ValueType::Bool => Column::Bool(CowVec::default()),
            ValueType::Int => Column::Int(CowVec::default()),
            ValueType::Double => Column::Double(CowVec::default()),
            ValueType::Str => Column::Str(CowVec::default()),
            ValueType::DateTime => Column::DateTime(CowVec::default()),
            ValueType::Vertex => Column::Vertex(CowVec::default()),
            ValueType::Edge => Column::Edge(CowVec::default()),
        }
    }

    /// Element `i`: lent for a string, built for a scalar.
    #[inline]
    fn get(&self, i: usize) -> Cow<'_, Value> {
        Cow::Owned(match self {
            Column::Str(c) => return Cow::Borrowed(&c[i].0),
            Column::Bool(c) => Value::Bool((c[i / 64] >> (i % 64)) & 1 == 1),
            Column::Int(c) => Value::Int(c[i]),
            Column::Double(c) => Value::Double(c[i]),
            Column::DateTime(c) => Value::DateTime(c[i]),
            Column::Vertex(c) => Value::Vertex(VertexId(c[i])),
            Column::Edge(c) => Value::Edge(EdgeId(c[i])),
        })
    }

    /// Appends `v` as element `i` (the column's length). `v` has passed
    /// [`coerce_attr`] for this column's type.
    fn push(&mut self, i: usize, v: Value) {
        match (self, v) {
            (Column::Bool(c), Value::Bool(b)) if i.is_multiple_of(64) => c.push(b as u64),
            (Column::Bool(c), Value::Bool(b)) => *c.get_mut(i / 64) |= (b as u64) << (i % 64),
            (Column::Int(c), Value::Int(x)) | (Column::DateTime(c), Value::DateTime(x)) => {
                c.push(x)
            }
            (Column::Double(c), Value::Double(x)) => c.push(x),
            (Column::Str(c), v @ Value::Str(_)) => c.push(StrCell(v)),
            (Column::Vertex(c), Value::Vertex(x)) => c.push(x.0),
            (Column::Edge(c), Value::Edge(x)) => c.push(x.0),
            (_, v) => unreachable!("`{v}` was not coerced to its column's type"),
        }
    }

    /// Overwrites element `i` with `v`, which has passed [`coerce_attr`]
    /// for this column's type.
    fn set(&mut self, i: usize, v: Value) {
        match (self, v) {
            (Column::Bool(c), Value::Bool(b)) => {
                let word = c.get_mut(i / 64);
                *word = (*word & !(1 << (i % 64))) | ((b as u64) << (i % 64));
            }
            (Column::Int(c), Value::Int(x)) | (Column::DateTime(c), Value::DateTime(x)) => {
                *c.get_mut(i) = x
            }
            (Column::Double(c), Value::Double(x)) => *c.get_mut(i) = x,
            (Column::Str(c), v @ Value::Str(_)) => c.get_mut(i).0 = v,
            (Column::Vertex(c), Value::Vertex(x)) => *c.get_mut(i) = x.0,
            (Column::Edge(c), Value::Edge(x)) => *c.get_mut(i) = x.0,
            (_, v) => unreachable!("`{v}` was not coerced to its column's type"),
        }
    }

    /// How many of this column's chunks are the very same allocation as
    /// `other`'s chunk at that position, and how many it has.
    fn chunks_shared_with(&self, other: &Column) -> (usize, usize) {
        match (self, other) {
            (Column::Bool(a), Column::Bool(b)) => (a.shared_chunks(b), a.chunk_count()),
            (Column::Int(a), Column::Int(b)) | (Column::DateTime(a), Column::DateTime(b)) => {
                (a.shared_chunks(b), a.chunk_count())
            }
            (Column::Double(a), Column::Double(b)) => (a.shared_chunks(b), a.chunk_count()),
            (Column::Str(a), Column::Str(b)) => (a.shared_chunks(b), a.chunk_count()),
            (Column::Vertex(a), Column::Vertex(b)) | (Column::Edge(a), Column::Edge(b)) => {
                (a.shared_chunks(b), a.chunk_count())
            }
            _ => unreachable!("columns of different types"),
        }
    }
}

/// The attribute columns of one vertex or edge type, one per declared
/// attribute, and how many elements of the type they hold. A graph holds
/// them behind an `Arc`, so a clone shares them whole and only a type
/// that is written copies its column spines.
#[derive(Debug, Clone, Default)]
struct Columns {
    len: u32,
    cols: Vec<Column>,
}

impl Columns {
    fn new(attrs: &[AttrDef]) -> Columns {
        Columns { len: 0, cols: attrs.iter().map(|a| Column::new(a.ty)).collect() }
    }

    /// Appends one element's values, coerced and in declaration order;
    /// returns its type-local index.
    fn push(&mut self, values: Vec<Value>) -> u32 {
        let local = self.len;
        for (col, v) in self.cols.iter_mut().zip(values) {
            col.push(local as usize, v);
        }
        self.len += 1;
        local
    }
}

/// The strings written since the last [`Graph::finalize`], so that equal
/// values written by one build or one batch share one allocation. Not
/// part of the graph's contents: a clone starts empty and a finalize
/// drops it.
#[derive(Debug, Default)]
struct Interner(FxHashSet<Arc<str>>);

impl Clone for Interner {
    fn clone(&self) -> Self {
        Interner::default()
    }
}

impl Interner {
    /// `attrs` checked against `defs`: the declared arity, then each
    /// value as [`Interner::admit`] checks it.
    fn admit_row(
        &mut self,
        defs: &[AttrDef],
        mut attrs: Vec<Value>,
    ) -> Result<Vec<Value>, GraphError> {
        if attrs.len() != defs.len() {
            return Err(GraphError::AttrArity { expected: defs.len(), got: attrs.len() });
        }
        for (v, def) in attrs.iter_mut().zip(defs) {
            *v = self.intern(coerce_attr(std::mem::replace(v, Value::Null), def)?);
        }
        Ok(attrs)
    }

    /// `v` as attribute `idx` of `defs` stores it: through
    /// [`coerce_attr`], a string shared with an equal one written since
    /// the last finalize.
    fn admit(&mut self, defs: &[AttrDef], idx: usize, v: Value) -> Result<Value, GraphError> {
        let def =
            defs.get(idx).ok_or(GraphError::AttrArity { expected: defs.len(), got: idx + 1 })?;
        Ok(self.intern(coerce_attr(v, def)?))
    }

    fn intern(&mut self, v: Value) -> Value {
        match v {
            Value::Str(s) => Value::Str(match self.0.get(&*s) {
                Some(shared) => shared.clone(),
                None => {
                    self.0.insert(s.clone());
                    s
                }
            }),
            v => v,
        }
    }
}

/// Checks `v` against attribute `def`'s declared type, the one rule
/// every store write and every INSERT or UPDATE follows: a value of the
/// declared type is kept, an INT widens to DOUBLE or DATETIME and a
/// DATETIME narrows to INT, and anything else — `Null` and collections
/// included — is refused with an error naming the attribute.
pub fn coerce_attr(v: Value, def: &AttrDef) -> Result<Value, GraphError> {
    match (v, def.ty) {
        (v @ Value::Bool(_), ValueType::Bool)
        | (v @ Value::Int(_), ValueType::Int)
        | (v @ Value::Double(_), ValueType::Double)
        | (v @ Value::Str(_), ValueType::Str)
        | (v @ Value::DateTime(_), ValueType::DateTime)
        | (v @ Value::Vertex(_), ValueType::Vertex)
        | (v @ Value::Edge(_), ValueType::Edge) => Ok(v),
        (Value::Int(i), ValueType::Double) => Ok(Value::Double(i as f64)),
        (Value::Int(i), ValueType::DateTime) => Ok(Value::DateTime(i)),
        (Value::DateTime(t), ValueType::Int) => Ok(Value::Int(t)),
        (got, expected) => Err(GraphError::AttrType { attr: def.name.clone(), expected, got }),
    }
}

/// A vertex: its type and its index among the vertices of that type,
/// which is its row in the type's attribute columns.
// `Default` (all ids 0) only fills the unused slots of a store's last
// chunk; such a value is never read as a vertex or an edge.
#[derive(Debug, Clone, Copy, Default)]
struct VertexData {
    vtype: VTypeId,
    local: u32,
}

/// An edge: its type, endpoints, and its index among the edges of that
/// type.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeData {
    etype: ETypeId,
    src: VertexId,
    dst: VertexId,
    local: u32,
}

/// Errors raised by graph mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    Schema(SchemaError),
    BadVertexId(VertexId),
    BadEdgeId(EdgeId),
    AttrArity { expected: usize, got: usize },
    /// A value that [`coerce_attr`] refuses for attribute `attr`.
    AttrType { attr: String, expected: ValueType, got: Value },
    EndpointType { edge_type: String, endpoint: String },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Schema(e) => write!(f, "{e}"),
            GraphError::BadVertexId(v) => write!(f, "vertex id {} out of range", v.0),
            GraphError::BadEdgeId(e) => write!(f, "edge id {} out of range", e.0),
            GraphError::AttrArity { expected, got } => {
                write!(f, "expected {expected} attribute values, got {got}")
            }
            GraphError::AttrType { attr, expected, got } => {
                write!(f, "attribute `{attr}` expects {expected}, got `{got}`")
            }
            GraphError::EndpointType { edge_type, endpoint } => {
                write!(f, "edge type `{edge_type}` does not allow endpoint type `{endpoint}`")
            }
        }
    }
}

impl std::error::Error for GraphError {}

impl From<SchemaError> for GraphError {
    fn from(e: SchemaError) -> Self {
        GraphError::Schema(e)
    }
}

/// What a pre-sized entry buffer holds until every slot is written.
const UNSET: AdjEntry =
    AdjEntry { etype: ETypeId(0), dir: Dir::Out, edge: EdgeId(0), other: VertexId(0) };

/// The finalized adjacency of [`CHUNK`] consecutive vertices (fewer in
/// the graph's last chunk). Immutable once built: a finalize that touches
/// one of its vertices builds a replacement, so snapshots share every
/// chunk a batch left alone.
#[derive(Debug)]
struct CsrChunk {
    /// The chunk's adjacency entries, grouped by vertex, then edge type,
    /// then [`dir_rank`], stable on edge-insertion order.
    adj: Vec<AdjEntry>,
    /// `offsets[i]..offsets[i + 1]` is the chunk's `i`-th vertex's slice
    /// of `adj`. Inline, so finding a slice costs one load past the chunk
    /// pointer; slots past the chunk's last vertex hold `adj.len()`.
    offsets: [u32; CHUNK + 1],
    /// `type_offsets[i * ntypes + t]` is the start of the `i`-th vertex's
    /// type-`t` group; the group ends at the next element. Length
    /// `vertices * ntypes + 1`.
    type_offsets: Vec<u32>,
}

impl CsrChunk {
    /// The `i`-th vertex's adjacency slice (empty past the last vertex).
    #[inline]
    fn vertex_slice(&self, i: usize) -> &[AdjEntry] {
        &self.adj[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The `i`-th vertex's type-`t` group (empty past the last vertex).
    #[inline]
    fn type_slice(&self, i: usize, t: usize, ntypes: usize) -> &[AdjEntry] {
        let k = i * ntypes + t;
        if ntypes > 0 && k + 1 < self.type_offsets.len() {
            &self.adj[self.type_offsets[k] as usize..self.type_offsets[k + 1] as usize]
        } else {
            &[]
        }
    }
}

/// A [`CsrChunk`] being rebuilt by [`Graph::finalize`]: every vertex keeps
/// the entries it has in the chunk being replaced and gains the pending
/// ones, which arrive in insertion order in two passes — [`count`] each,
/// [`lay_out`] the chunk, [`place`] each — so that nothing is buffered
/// outside the chunk's own arrays.
///
/// [`count`]: ChunkBuilder::count
/// [`lay_out`]: ChunkBuilder::lay_out
/// [`place`]: ChunkBuilder::place
struct ChunkBuilder {
    /// Per vertex: first the number of pending entries counted, then
    /// (once laid out) where in `chunk.adj` its next pending entry goes.
    slots: [u32; CHUNK],
    chunk: CsrChunk,
}

impl ChunkBuilder {
    fn new() -> Box<ChunkBuilder> {
        let chunk =
            CsrChunk { adj: Vec::new(), offsets: [0; CHUNK + 1], type_offsets: Vec::new() };
        Box::new(ChunkBuilder { slots: [0; CHUNK], chunk })
    }

    fn count(&mut self, v: VertexId) {
        self.slots[v.0 as usize % CHUNK] += 1;
    }

    /// Sizes the chunk for its `vertices`: each keeps `old`'s entries, in
    /// place at the front of its slice, with room behind them for the
    /// pending entries counted so far.
    fn lay_out(&mut self, old: Option<&CsrChunk>, vertices: usize) {
        let kept = |i: usize| old.map_or(&[][..], |c| c.vertex_slice(i));
        let CsrChunk { adj, offsets, .. } = &mut self.chunk;
        let mut total = 0;
        for (i, (end, gained)) in offsets[1..].iter_mut().zip(&self.slots).enumerate() {
            if i < vertices {
                total += kept(i).len() as u32 + gained;
            }
            *end = total;
        }
        *adj = vec![UNSET; total as usize];
        for (i, (start, slot)) in offsets.iter().zip(&mut self.slots).enumerate().take(vertices) {
            let end_of_kept = *start as usize + kept(i).len();
            adj[*start as usize..end_of_kept].copy_from_slice(kept(i));
            *slot = end_of_kept as u32;
        }
    }

    fn place(&mut self, v: VertexId, entry: AdjEntry) {
        let slot = &mut self.slots[v.0 as usize % CHUNK];
        self.chunk.adj[*slot as usize] = entry;
        *slot += 1;
    }

    /// Orders every slice that gained entries and derives the type
    /// groups. Pending entries carry larger edge ids than the kept ones
    /// and were placed in insertion order, so a stable sort on
    /// `(edge type, dir rank)` lands them exactly where a from-scratch
    /// build would. `covered` of the chunk's `vertices` were there at the
    /// last finalize (in `old`); `degree_log2` is the graph's degree
    /// histogram, moved for every vertex whose degree did.
    fn finish(
        self: Box<Self>,
        old: Option<&CsrChunk>,
        covered: usize,
        vertices: usize,
        ntypes: usize,
        degree_log2: &mut [u64],
    ) -> CsrChunk {
        let CsrChunk { mut adj, offsets, .. } = self.chunk;
        let mut type_offsets = Vec::with_capacity(vertices * ntypes + 1);
        for i in 0..vertices {
            let (start, end) = (offsets[i] as usize, offsets[i + 1] as usize);
            let kept = old.map_or(0, |c| c.vertex_slice(i).len());
            if end - start > kept {
                adj[start..end].sort_by_key(|a| (a.etype.0, dir_rank(a.dir)));
            }
            if i >= covered {
                degree_log2[degree_bucket(end - start)] += 1;
            } else if end - start > kept {
                degree_log2[degree_bucket(kept)] -= 1;
                degree_log2[degree_bucket(end - start)] += 1;
            }
            // Per-(vertex, type) group boundaries.
            let mut cur = start;
            for t in 0..ntypes {
                type_offsets.push(cur as u32);
                while cur < end && adj[cur].etype.0 as usize == t {
                    cur += 1;
                }
            }
            debug_assert_eq!(cur, end, "entry with out-of-range edge type");
        }
        type_offsets.push(adj.len() as u32);
        CsrChunk { adj, offsets, type_offsets }
    }
}

/// Log₂ degree-histogram buckets: bucket `i` counts vertices whose total
/// degree has bit length `i` (bucket 0 = isolated vertices, bucket 1 =
/// degree 1, bucket 2 = degrees 2–3, ...). 33 buckets cover any `u32`
/// entry count.
pub const DEGREE_BUCKETS: usize = 33;

/// The [`DEGREE_BUCKETS`] bucket of a vertex with `degree` entries.
fn degree_bucket(degree: usize) -> usize {
    ((usize::BITS - degree.leading_zeros()) as usize).min(DEGREE_BUCKETS - 1)
}

/// Cardinality and degree statistics kept current by each finalize
/// (which adds what arrived since the previous one — the result equals a
/// recount from scratch), consumed by the query planner's cost model.
///
/// All numbers describe the finalized topology (the CSR arrays), which
/// is all of the graph a caller can hold. Everything is deterministic:
/// the same graph always
/// produces the same statistics, which is what keeps cost-based plans —
/// and therefore query results — reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Identity of the finalized topology and schema: a process-unique,
    /// monotone token stamped by each [`Graph::finalize`] call (0 only
    /// inside this crate, before a graph's first finalize). Plan caches
    /// key on this to detect snapshot changes.
    epoch: u64,
    /// Vertex count per [`VTypeId`].
    vertex_counts: Vec<u64>,
    /// Edge count per [`ETypeId`].
    edge_counts: Vec<u64>,
    /// Out-going endpoint count per `(source vertex type, edge type)`,
    /// flattened as `vtype * edge_type_count + etype`. Undirected edges
    /// count toward *both* endpoints' out and in tallies (they can be
    /// traversed either way).
    out_by_type: Vec<u64>,
    /// In-coming endpoint count per `(target vertex type, edge type)`.
    in_by_type: Vec<u64>,
    /// Number of edge types (the stride of the flattened tables).
    etype_stride: usize,
    /// Log₂ histogram of total vertex degree (see [`DEGREE_BUCKETS`]).
    degree_log2: Vec<u64>,
}

impl GraphStats {
    /// All-zero statistics for a schema with the given type counts.
    fn new(vertex_types: usize, edge_types: usize) -> GraphStats {
        GraphStats {
            epoch: 0,
            vertex_counts: vec![0; vertex_types],
            edge_counts: vec![0; edge_types],
            out_by_type: vec![0; vertex_types * edge_types],
            in_by_type: vec![0; vertex_types * edge_types],
            etype_stride: edge_types,
            degree_log2: vec![0; DEGREE_BUCKETS],
        }
    }

    /// The finalize token: never 0 on a graph a caller holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// These statistics with the epoch zeroed: what two builds of the
    /// same logical graph must agree on.
    #[cfg(test)]
    pub(crate) fn sans_epoch(&self) -> GraphStats {
        GraphStats { epoch: 0, ..self.clone() }
    }

    /// Total vertices across all types.
    pub fn total_vertices(&self) -> u64 {
        self.vertex_counts.iter().sum()
    }

    /// Total edges across all types.
    pub fn total_edges(&self) -> u64 {
        self.edge_counts.iter().sum()
    }

    /// Vertices of type `vt`.
    pub fn vertex_count(&self, vt: VTypeId) -> u64 {
        self.vertex_counts.get(vt.0 as usize).copied().unwrap_or(0)
    }

    /// Edges of type `et`.
    pub fn edge_count(&self, et: ETypeId) -> u64 {
        self.edge_counts.get(et.0 as usize).copied().unwrap_or(0)
    }

    fn by_type(&self, table: &[u64], vt: VTypeId, et: ETypeId) -> u64 {
        if self.etype_stride == 0 {
            return 0;
        }
        table
            .get(vt.0 as usize * self.etype_stride + et.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Average out-degree (directed out + undirected incident) over
    /// type-`et` edges for a vertex of type `vt`.
    pub fn avg_out_degree(&self, vt: VTypeId, et: ETypeId) -> f64 {
        let n = self.vertex_count(vt);
        if n == 0 {
            return 0.0;
        }
        self.by_type(&self.out_by_type, vt, et) as f64 / n as f64
    }

    /// Average in-degree (directed in + undirected incident) over
    /// type-`et` edges for a vertex of type `vt`.
    pub fn avg_in_degree(&self, vt: VTypeId, et: ETypeId) -> f64 {
        let n = self.vertex_count(vt);
        if n == 0 {
            return 0.0;
        }
        self.by_type(&self.in_by_type, vt, et) as f64 / n as f64
    }

    /// Log₂ histogram of total vertex degree; `hist[i]` counts vertices
    /// whose degree has bit length `i`.
    pub fn degree_histogram(&self) -> &[u64] {
        &self.degree_log2
    }
}

/// Process-global source of finalize tokens. Starts at 1 so epoch 0
/// always means "never finalized", which no graph outside this crate is.
static FINALIZE_EPOCH: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

/// The vertices of one type, ascending by id (= insertion order): a
/// borrowed view over the graph's chunked id store that reads like a
/// slice (`len`, indexing, `iter`, `last`, `to_vec`, `for &v in ..`).
#[derive(Clone, Copy)]
pub struct VertexList<'a> {
    ids: &'a CowVec<VertexId>,
}

impl<'a> VertexList<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    pub fn last(&self) -> Option<&'a VertexId> {
        self.ids.last()
    }

    pub fn iter(&self) -> impl Iterator<Item = &'a VertexId> + 'a {
        self.ids.iter()
    }

    pub fn to_vec(&self) -> Vec<VertexId> {
        let mut ids = Vec::with_capacity(self.len());
        self.ids.slices().for_each(|chunk| ids.extend_from_slice(chunk));
        ids
    }
}

impl Index<usize> for VertexList<'_> {
    type Output = VertexId;

    #[inline]
    fn index(&self, i: usize) -> &VertexId {
        &self.ids[i]
    }
}

impl<'a> IntoIterator for VertexList<'a> {
    type Item = &'a VertexId;
    type IntoIter = Box<dyn Iterator<Item = &'a VertexId> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.ids.iter())
    }
}

/// The property graph: schema + vertex/edge stores + CSR adjacency.
///
/// Cloning is cheap and shares storage with the original (see the module
/// docs); the clone and the original then diverge copy-on-write.
///
/// A graph is built through [`GraphBuilder`] (or a loader, a generator
/// or [`crate::mutate::apply_batch`]), which finalizes it:
///
/// ```
/// use pgraph::graph::GraphBuilder;
/// use pgraph::schema::Schema;
///
/// let mut s = Schema::new();
/// s.add_vertex_type("V", vec![]).unwrap();
/// s.add_edge_type("E", true, vec![]).unwrap();
/// let mut b = GraphBuilder::new(s);
/// let (x, y) = (b.vertex("V", &[]).unwrap(), b.vertex("V", &[]).unwrap());
/// b.edge("E", x, y, &[]).unwrap();
/// let g = b.build();
/// assert_eq!(g.adjacency(x).len(), 1);
/// ```
///
/// Outside this crate an edge cannot be added to a graph directly, so no
/// caller ever holds one whose adjacency lags its edges:
///
/// ```compile_fail,E0624
/// use pgraph::graph::GraphBuilder;
/// use pgraph::schema::Schema;
///
/// let mut s = Schema::new();
/// s.add_vertex_type("V", vec![]).unwrap();
/// s.add_edge_type("E", true, vec![]).unwrap();
/// let mut b = GraphBuilder::new(s);
/// let (x, y) = (b.vertex("V", &[]).unwrap(), b.vertex("V", &[]).unwrap());
/// let mut g = b.build();
/// let e = g.schema().edge_type_id("E").unwrap();
/// g.add_edge(e, x, y, vec![]).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Graph {
    schema: Arc<Schema>,
    vertices: CowVec<VertexData>,
    edges: CowVec<EdgeData>,
    by_type: Vec<CowVec<VertexId>>,
    /// Attribute columns per vertex type and per edge type.
    vertex_attrs: Vec<Arc<Columns>>,
    edge_attrs: Vec<Arc<Columns>>,
    strings: Interner,
    /// The adjacency: chunk `c` covers vertices
    /// `c * CHUNK..(c + 1) * CHUNK`, up to `finalized_vertices`.
    csr: Vec<Arc<CsrChunk>>,
    /// How many vertices and edges the CSR chunks and `stats` cover: the
    /// counts at the last [`Graph::finalize`].
    finalized_vertices: usize,
    finalized_edges: usize,
    /// Planner statistics as of the last [`Graph::finalize`].
    stats: GraphStats,
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new(Schema::default())
    }
}

impl Graph {
    /// Creates an empty, finalized graph over `schema`: it has its own
    /// epoch, and adjacency reads on it are valid.
    pub fn new(schema: Schema) -> Self {
        let mut g = Graph::with_schema(Arc::new(schema));
        g.finalize();
        g
    }

    fn with_schema(schema: Arc<Schema>) -> Self {
        let (nvt, net) = (schema.vertex_type_count(), schema.edge_type_count());
        let columns = |attrs: &[AttrDef]| Arc::new(Columns::new(attrs));
        Graph {
            vertex_attrs: schema.vertex_types().map(|(_, t)| columns(&t.attrs)).collect(),
            edge_attrs: schema.edge_types().map(|(_, t)| columns(&t.attrs)).collect(),
            schema,
            vertices: CowVec::default(),
            edges: CowVec::default(),
            by_type: vec![CowVec::default(); nvt],
            strings: Interner::default(),
            csr: Vec::new(),
            finalized_vertices: 0,
            finalized_edges: 0,
            stats: GraphStats::new(nvt, net),
        }
    }

    /// An empty graph sharing this graph's schema, not yet finalized.
    pub(crate) fn empty_like(&self) -> Graph {
        Graph::with_schema(self.schema.clone())
    }

    /// Planner statistics as of the last finalize.
    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Adds a vertex of type `vt`. `attrs` must match the declared arity
    /// and types (see [`coerce_attr`]); missing trailing values are *not*
    /// defaulted — use [`GraphBuilder`] for name-based convenience. Its
    /// adjacency is readable after the next [`Graph::finalize`].
    pub(crate) fn add_vertex(
        &mut self,
        vt: VTypeId,
        attrs: Vec<Value>,
    ) -> Result<VertexId, GraphError> {
        let attrs = self.strings.admit_row(&self.schema.vertex_type(vt).attrs, attrs)?;
        let id = VertexId(self.vertices.len() as u32);
        let local = Arc::make_mut(&mut self.vertex_attrs[vt.0 as usize]).push(attrs);
        self.vertices.push(VertexData { vtype: vt, local });
        self.by_type[vt.0 as usize].push(id);
        Ok(id)
    }

    /// Adds an edge of type `et` from `src` to `dst`. For undirected edge
    /// types the (src, dst) order is storage-only; traversal treats both
    /// endpoints symmetrically. The new adjacency entries are readable
    /// after the next [`Graph::finalize`].
    pub(crate) fn add_edge(
        &mut self,
        et: ETypeId,
        src: VertexId,
        dst: VertexId,
        attrs: Vec<Value>,
    ) -> Result<EdgeId, GraphError> {
        if src.0 as usize >= self.vertices.len() {
            return Err(GraphError::BadVertexId(src));
        }
        if dst.0 as usize >= self.vertices.len() {
            return Err(GraphError::BadVertexId(dst));
        }
        let def = self.schema.edge_type(et);
        let src_t = self.vertices[src.0 as usize].vtype;
        let dst_t = self.vertices[dst.0 as usize].vtype;
        if !def.from_types.is_empty() && !def.from_types.contains(&src_t) {
            return Err(GraphError::EndpointType {
                edge_type: def.name.to_string(),
                endpoint: self.schema.vertex_type(src_t).name.to_string(),
            });
        }
        if !def.to_types.is_empty() && !def.to_types.contains(&dst_t) {
            return Err(GraphError::EndpointType {
                edge_type: def.name.to_string(),
                endpoint: self.schema.vertex_type(dst_t).name.to_string(),
            });
        }
        let attrs = self.strings.admit_row(&def.attrs, attrs)?;
        let id = EdgeId(self.edges.len() as u32);
        let local = Arc::make_mut(&mut self.edge_attrs[et.0 as usize]).push(attrs);
        self.edges.push(EdgeData { etype: et, src, dst, local });
        Ok(id)
    }

    /// The adjacency entries edge `e` contributes, in the order they
    /// enter their vertices' adjacency: the source's, then the target's
    /// (an undirected self-loop is recorded once).
    fn endpoint_entries(&self, e: EdgeId) -> impl Iterator<Item = (VertexId, AdjEntry)> + 'static {
        let EdgeData { etype, src, dst, .. } = self.edges[e.0 as usize];
        let entry = |dir, other| AdjEntry { etype, dir, edge: e, other };
        let entries = if self.schema.edge_type(etype).directed {
            [Some((src, entry(Dir::Out, dst))), Some((dst, entry(Dir::In, src)))]
        } else {
            [Some((src, entry(Dir::Und, dst))), (src != dst).then(|| (dst, entry(Dir::Und, src)))]
        };
        entries.into_iter().flatten()
    }

    /// Edges added since the last finalize.
    fn pending_edges(&self) -> impl Iterator<Item = EdgeId> {
        (self.finalized_edges as u32..self.edges.len() as u32).map(EdgeId)
    }

    /// Folds the edges added since the last finalize into the CSR and
    /// brings the statistics up to date under a fresh epoch. Only the CSR
    /// chunks that hold an endpoint of such an edge, or a vertex added
    /// since the last finalize, are rebuilt — O(V + E) for a bulk load,
    /// O(what changed) plus one pass over the chunk spine afterwards —
    /// and the result is the same adjacency, in the same order, as
    /// finalizing a from-scratch copy of the graph once. [`Graph::new`],
    /// the loaders, the generators, [`GraphBuilder::build`] and
    /// [`crate::mutate::apply_batch`] call this before a graph leaves
    /// the crate, so every reader sees flat, type-grouped adjacency.
    pub(crate) fn finalize(&mut self) {
        let nv = self.vertices.len();
        let net = self.schema.edge_type_count();
        let chunks = nv.div_ceil(CHUNK);

        // Rebuild every chunk that gains a vertex the CSR does not cover
        // yet or holds an endpoint of a pending edge — and only those (a
        // batch that only wrote attributes rebuilds none, and allocates
        // nothing per chunk).
        let first_grown = if nv > self.finalized_vertices {
            self.finalized_vertices / CHUNK
        } else {
            chunks
        };
        let pending = first_grown < chunks || self.finalized_edges < self.edges.len();
        let mut builders: Vec<Option<Box<ChunkBuilder>>> = match pending {
            true => (0..chunks).map(|c| (c >= first_grown).then(ChunkBuilder::new)).collect(),
            false => Vec::new(),
        };
        for e in self.pending_edges() {
            for (v, _) in self.endpoint_entries(e) {
                builders[v.0 as usize / CHUNK].get_or_insert_with(ChunkBuilder::new).count(v);
            }
        }
        fn old(csr: &[Arc<CsrChunk>], c: usize) -> Option<&CsrChunk> {
            csr.get(c).map(Arc::as_ref)
        }
        let vertices_in = |c: usize| (nv - c * CHUNK).min(CHUNK);
        for (c, builder) in builders.iter_mut().enumerate() {
            if let Some(builder) = builder {
                builder.lay_out(old(&self.csr, c), vertices_in(c));
            }
        }
        for e in self.pending_edges() {
            for (v, entry) in self.endpoint_entries(e) {
                let builder = builders[v.0 as usize / CHUNK].as_mut();
                builder.expect("a builder was made when the entry was counted").place(v, entry);
            }
        }
        for (c, builder) in builders.into_iter().enumerate() {
            let Some(builder) = builder else { continue };
            let rebuilt = Arc::new(builder.finish(
                old(&self.csr, c),
                self.finalized_vertices.saturating_sub(c * CHUNK).min(CHUNK),
                vertices_in(c),
                net,
                &mut self.stats.degree_log2,
            ));
            match self.csr.get_mut(c) {
                Some(slot) => *slot = rebuilt,
                None => self.csr.push(rebuilt),
            }
        }

        let s = &mut self.stats;
        for (count, ids) in s.vertex_counts.iter_mut().zip(&self.by_type) {
            *count = ids.len() as u64;
        }
        for e in self.finalized_edges..self.edges.len() {
            let e = &self.edges[e];
            let et = e.etype.0 as usize;
            s.edge_counts[et] += 1;
            let src_t = self.vertices[e.src.0 as usize].vtype.0 as usize;
            let dst_t = self.vertices[e.dst.0 as usize].vtype.0 as usize;
            if self.schema.edge_type(e.etype).directed {
                s.out_by_type[src_t * net + et] += 1;
                s.in_by_type[dst_t * net + et] += 1;
            } else {
                // Undirected edges are traversable from both endpoints,
                // so they contribute to out *and* in on both sides —
                // matching what `outdegree`/`indegree` report.
                s.out_by_type[src_t * net + et] += 1;
                s.in_by_type[src_t * net + et] += 1;
                if e.src != e.dst {
                    s.out_by_type[dst_t * net + et] += 1;
                    s.in_by_type[dst_t * net + et] += 1;
                }
            }
        }
        s.epoch = FINALIZE_EPOCH.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.strings = Interner::default();
        self.finalized_vertices = nv;
        self.finalized_edges = self.edges.len();
    }

    /// The type of vertex `v`.
    pub fn vertex_type_of(&self, v: VertexId) -> VTypeId {
        self.vertices[v.0 as usize].vtype
    }

    /// The type of edge `e`.
    pub fn edge_type_of(&self, e: EdgeId) -> ETypeId {
        self.edges[e.0 as usize].etype
    }

    /// Source and target of edge `e` as stored.
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let d = &self.edges[e.0 as usize];
        (d.src, d.dst)
    }

    /// Vertex attribute by column index: a string is lent from its
    /// column (no bytes copied, no reference count touched), a scalar
    /// is built from its unboxed cell.
    #[inline]
    pub fn vertex_attr(&self, v: VertexId, idx: usize) -> Cow<'_, Value> {
        let d = self.vertices[v.0 as usize];
        self.vertex_attrs[d.vtype.0 as usize].cols[idx].get(d.local as usize)
    }

    /// Vertex attribute by name (schema lookup each call; the query
    /// binder resolves a per-vertex-type index once per block instead).
    pub fn vertex_attr_by_name(&self, v: VertexId, name: &str) -> Option<Cow<'_, Value>> {
        let vt = self.vertex_type_of(v);
        let idx = self.schema.vertex_attr_index(vt, name)?;
        Some(self.vertex_attr(v, idx))
    }

    /// Edge attribute by column index (see [`Graph::vertex_attr`]).
    #[inline]
    pub fn edge_attr(&self, e: EdgeId, idx: usize) -> Cow<'_, Value> {
        let d = self.edges[e.0 as usize];
        self.edge_attrs[d.etype.0 as usize].cols[idx].get(d.local as usize)
    }

    /// Edge attribute by name.
    pub fn edge_attr_by_name(&self, e: EdgeId, name: &str) -> Option<Cow<'_, Value>> {
        let et = self.edge_type_of(e);
        let idx = self.schema.edge_attr_index(et, name)?;
        Some(self.edge_attr(e, idx))
    }

    /// Overwrites a vertex attribute, after [`coerce_attr`]; copies only
    /// the column chunk the value lands in if a snapshot shares it.
    pub fn set_vertex_attr(
        &mut self,
        v: VertexId,
        idx: usize,
        value: Value,
    ) -> Result<(), GraphError> {
        let d = *self.vertices.get(v.0 as usize).ok_or(GraphError::BadVertexId(v))?;
        let value = self.strings.admit(&self.schema.vertex_type(d.vtype).attrs, idx, value)?;
        let columns = Arc::make_mut(&mut self.vertex_attrs[d.vtype.0 as usize]);
        columns.cols[idx].set(d.local as usize, value);
        Ok(())
    }

    /// Overwrites an edge attribute (the edge twin of
    /// [`Graph::set_vertex_attr`]).
    pub fn set_edge_attr(&mut self, e: EdgeId, idx: usize, value: Value) -> Result<(), GraphError> {
        let d = *self.edges.get(e.0 as usize).ok_or(GraphError::BadEdgeId(e))?;
        let value = self.strings.admit(&self.schema.edge_type(d.etype).attrs, idx, value)?;
        let columns = Arc::make_mut(&mut self.edge_attrs[d.etype.0 as usize]);
        columns.cols[idx].set(d.local as usize, value);
        Ok(())
    }

    /// The CSR chunk holding vertex `v` (`None` past the last vertex).
    /// Every adjacency read goes through here; they are valid only on a
    /// finalized graph, which every graph outside this crate is.
    #[inline]
    fn csr_chunk(&self, v: usize) -> Option<&CsrChunk> {
        debug_assert!(
            self.finalized_vertices == self.vertices.len()
                && self.finalized_edges == self.edges.len(),
            "adjacency read on a graph with unfinalized vertices or edges"
        );
        self.csr.get(v / CHUNK).map(Arc::as_ref)
    }

    /// `v`'s CSR slice: all its entries, or its `etype` group.
    #[inline]
    fn csr_slice(&self, v: usize, etype: Option<ETypeId>) -> &[AdjEntry] {
        match (self.csr_chunk(v), etype) {
            (None, _) => &[],
            (Some(chunk), None) => chunk.vertex_slice(v % CHUNK),
            (Some(chunk), Some(t)) => {
                chunk.type_slice(v % CHUNK, t.0 as usize, self.schema.edge_type_count())
            }
        }
    }

    /// All adjacency entries of `v`: one contiguous slice, grouped by
    /// edge type, then `Out < Und < In`, then edge id.
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> &[AdjEntry] {
        self.csr_slice(v.0 as usize, None)
    }

    /// Adjacency entries of `v` with edge type `etype`: `v`'s type group,
    /// a slice of [`Graph::adjacency`].
    #[inline]
    pub fn adjacency_of_type(&self, v: VertexId, etype: ETypeId) -> &[AdjEntry] {
        self.csr_slice(v.0 as usize, Some(etype))
    }

    /// All vertices of type `vt`, in insertion order.
    pub fn vertices_of_type(&self, vt: VTypeId) -> VertexList<'_> {
        VertexList { ids: &self.by_type[vt.0 as usize] }
    }

    /// Iterator over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertices.len() as u32).map(VertexId)
    }

    /// Iterator over all edge ids.
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Count of entries in a dir-ranked group slice whose rank is below
    /// `below` (the groups are sorted by [`dir_rank`], so this is a
    /// binary partition point, not a scan).
    fn rank_prefix(group: &[AdjEntry], below: u8) -> usize {
        group.partition_point(|a| dir_rank(a.dir) < below)
    }

    /// `v`'s type groups — the one for `etype`, or all of them.
    fn csr_groups(
        &self,
        v: usize,
        etype: Option<ETypeId>,
    ) -> impl Iterator<Item = &[AdjEntry]> + '_ {
        let ntypes = self.schema.edge_type_count();
        let chunk = self.csr_chunk(v);
        let types = match etype {
            Some(t) => t.0 as usize..t.0 as usize + 1,
            None => 0..ntypes,
        };
        types.map(move |t| chunk.map_or(&[][..], |c| c.type_slice(v % CHUNK, t, ntypes)))
    }

    /// GSQL's `v.outdegree()`: number of edges leaving `v` (directed out
    /// plus undirected incident). With `etype`, restricted to that type.
    pub fn outdegree(&self, v: VertexId, etype: Option<ETypeId>) -> usize {
        // Per type group, `Out` + `Und` entries form the prefix before the
        // first `In` entry.
        self.csr_groups(v.0 as usize, etype).map(|g| Self::rank_prefix(g, 2)).sum()
    }

    /// Number of edges entering `v` (directed in plus undirected incident).
    pub fn indegree(&self, v: VertexId, etype: Option<ETypeId>) -> usize {
        // `Und` + `In` entries form the suffix at and after the first
        // non-`Out` entry.
        self.csr_groups(v.0 as usize, etype).map(|g| g.len() - Self::rank_prefix(g, 1)).sum()
    }

    /// Total degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency(v).len()
    }

    /// `(shared, total)`: of this graph's store, attribute-column and CSR
    /// chunks, how many are the very same allocation as `other`'s chunk
    /// at that position — what a snapshot shares with the one it was
    /// derived from.
    pub fn chunks_shared_with(&self, other: &Graph) -> (usize, usize) {
        let mut shared = self.vertices.shared_chunks(&other.vertices)
            + self.edges.shared_chunks(&other.edges)
            + self.csr.iter().zip(&other.csr).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        let mut total = self.vertices.chunk_count() + self.edges.chunk_count() + self.csr.len();
        for (ids, theirs) in self.by_type.iter().zip(&other.by_type) {
            shared += ids.shared_chunks(theirs);
            total += ids.chunk_count();
        }
        let mine = self.vertex_attrs.iter().chain(&self.edge_attrs);
        let theirs = other.vertex_attrs.iter().chain(&other.edge_attrs);
        for (col, their) in mine.flat_map(|c| &c.cols).zip(theirs.flat_map(|c| &c.cols)) {
            let (s, t) = col.chunks_shared_with(their);
            shared += s;
            total += t;
        }
        (shared, total)
    }
}

/// A convenience layer over [`Graph`] resolving type and attribute names
/// once and defaulting unspecified attributes — the ergonomic way to build
/// example graphs.
pub struct GraphBuilder {
    graph: Graph,
}

impl GraphBuilder {
    pub fn new(schema: Schema) -> Self {
        GraphBuilder { graph: Graph::new(schema) }
    }

    /// Adds a vertex by type name with `(attr name, value)` pairs; omitted
    /// attributes take their type default.
    pub fn vertex(
        &mut self,
        type_name: &str,
        attrs: &[(&str, Value)],
    ) -> Result<VertexId, GraphError> {
        let vt = self
            .graph
            .schema
            .vertex_type_id(type_name)
            .ok_or_else(|| SchemaError::UnknownVertexType(type_name.to_string()))?;
        let def = self.graph.schema.vertex_type(vt);
        let mut row: Vec<Value> = def.attrs.iter().map(|a| a.ty.default_value()).collect();
        for (name, value) in attrs {
            let idx = self
                .graph
                .schema
                .vertex_attr_index(vt, name)
                .ok_or_else(|| SchemaError::UnknownAttribute {
                    owner: type_name.to_string(),
                    attr: name.to_string(),
                })?;
            row[idx] = value.clone();
        }
        self.graph.add_vertex(vt, row)
    }

    /// Adds an edge by type name with named attributes.
    pub fn edge(
        &mut self,
        type_name: &str,
        src: VertexId,
        dst: VertexId,
        attrs: &[(&str, Value)],
    ) -> Result<EdgeId, GraphError> {
        let et = self
            .graph
            .schema
            .edge_type_id(type_name)
            .ok_or_else(|| SchemaError::UnknownEdgeType(type_name.to_string()))?;
        let def = self.graph.schema.edge_type(et);
        let mut row: Vec<Value> = def.attrs.iter().map(|a| a.ty.default_value()).collect();
        for (name, value) in attrs {
            let idx = self
                .graph
                .schema
                .edge_attr_index(et, name)
                .ok_or_else(|| SchemaError::UnknownAttribute {
                    owner: type_name.to_string(),
                    attr: name.to_string(),
                })?;
            row[idx] = value.clone();
        }
        self.graph.add_edge(et, src, dst, row)
    }

    /// Finishes building: lays the added edges out in the CSR and
    /// returns the finalized graph.
    pub fn build(mut self) -> Graph {
        self.graph.finalize();
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mixed_schema() -> Schema {
        let mut s = Schema::new();
        s.add_vertex_type("Person", vec![AttrDef::new("name", ValueType::Str)])
            .unwrap();
        s.add_edge_type("Follows", true, vec![]).unwrap();
        s.add_edge_type(
            "Knows",
            false,
            vec![AttrDef::new("since", ValueType::Int)],
        )
        .unwrap();
        s
    }

    #[test]
    fn directed_adjacency_both_sides() {
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let et = g.schema().edge_type_id("Follows").unwrap();
        let a = g.add_vertex(vt, vec![Value::from("a")]).unwrap();
        let b = g.add_vertex(vt, vec![Value::from("b")]).unwrap();
        let e = g.add_edge(et, a, b, vec![]).unwrap();
        g.finalize();
        assert_eq!(
            g.adjacency(a).to_vec(),
            vec![AdjEntry { etype: et, dir: Dir::Out, edge: e, other: b }]
        );
        assert_eq!(
            g.adjacency(b).to_vec(),
            vec![AdjEntry { etype: et, dir: Dir::In, edge: e, other: a }]
        );
        assert_eq!(g.outdegree(a, None), 1);
        assert_eq!(g.outdegree(b, None), 0);
        assert_eq!(g.indegree(b, None), 1);
    }

    #[test]
    fn undirected_adjacency_symmetric() {
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let et = g.schema().edge_type_id("Knows").unwrap();
        let a = g.add_vertex(vt, vec![Value::from("a")]).unwrap();
        let b = g.add_vertex(vt, vec![Value::from("b")]).unwrap();
        g.add_edge(et, a, b, vec![Value::Int(2016)]).unwrap();
        g.finalize();
        assert_eq!(g.adjacency(a)[0].dir, Dir::Und);
        assert_eq!(g.adjacency(b)[0].dir, Dir::Und);
        assert_eq!(g.adjacency(a)[0].other, b);
        assert_eq!(g.adjacency(b)[0].other, a);
        // Undirected edges count toward both out- and in-degree.
        assert_eq!(g.outdegree(a, None), 1);
        assert_eq!(g.indegree(a, None), 1);
    }

    #[test]
    fn undirected_self_loop_recorded_once() {
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let et = g.schema().edge_type_id("Knows").unwrap();
        let a = g.add_vertex(vt, vec![Value::from("a")]).unwrap();
        g.add_edge(et, a, a, vec![Value::Int(0)]).unwrap();
        g.finalize();
        assert_eq!(g.adjacency(a).len(), 1);
        assert_eq!((g.outdegree(a, None), g.indegree(a, None)), (1, 1));
    }

    #[test]
    fn attribute_access() {
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let et = g.schema().edge_type_id("Knows").unwrap();
        let a = g.add_vertex(vt, vec![Value::from("alice")]).unwrap();
        let b = g.add_vertex(vt, vec![Value::from("bob")]).unwrap();
        let e = g.add_edge(et, a, b, vec![Value::Int(2016)]).unwrap();
        assert_eq!(g.vertex_attr_by_name(a, "name").as_deref(), Some(&Value::from("alice")));
        assert_eq!(g.edge_attr_by_name(e, "since").as_deref(), Some(&Value::Int(2016)));
        assert_eq!(g.vertex_attr_by_name(a, "nope"), None);
    }

    #[test]
    fn arity_and_id_errors() {
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let et = g.schema().edge_type_id("Follows").unwrap();
        assert!(matches!(
            g.add_vertex(vt, vec![]),
            Err(GraphError::AttrArity { expected: 1, got: 0 })
        ));
        let a = g.add_vertex(vt, vec![Value::from("a")]).unwrap();
        assert!(matches!(
            g.add_edge(et, a, VertexId(99), vec![]),
            Err(GraphError::BadVertexId(_))
        ));
    }

    #[test]
    fn endpoint_constraints_enforced() {
        let mut s = Schema::new();
        let p = s.add_vertex_type("P", vec![]).unwrap();
        let q = s.add_vertex_type("Q", vec![]).unwrap();
        s.add_edge_type_between("PQ", true, vec![p], vec![q], vec![])
            .unwrap();
        let mut g = Graph::new(s);
        let et = g.schema().edge_type_id("PQ").unwrap();
        let vp = g.add_vertex(p, vec![]).unwrap();
        let vq = g.add_vertex(q, vec![]).unwrap();
        assert!(g.add_edge(et, vp, vq, vec![]).is_ok());
        assert!(matches!(
            g.add_edge(et, vq, vp, vec![]),
            Err(GraphError::EndpointType { .. })
        ));
    }

    #[test]
    fn builder_defaults_and_names() {
        let mut b = GraphBuilder::new(mixed_schema());
        let a = b.vertex("Person", &[("name", Value::from("a"))]).unwrap();
        let c = b.vertex("Person", &[]).unwrap();
        b.edge("Knows", a, c, &[("since", Value::Int(2020))]).unwrap();
        let g = b.build();
        assert_eq!(g.adjacency(a).len(), 1);
        assert_eq!(g.vertex_attr_by_name(c, "name").as_deref(), Some(&Value::from("")));
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    /// Every value kind against every declared type, through every store
    /// write: a value of the declared type is kept, INT widens to DOUBLE
    /// and DATETIME, DATETIME narrows to INT, and everything else is
    /// refused with an error naming the attribute and nothing stored.
    #[test]
    fn one_type_rule_for_every_store_write() {
        const TYPES: [ValueType; 7] = [
            ValueType::Bool,
            ValueType::Int,
            ValueType::Double,
            ValueType::Str,
            ValueType::DateTime,
            ValueType::Vertex,
            ValueType::Edge,
        ];
        let mut s = Schema::new();
        s.add_vertex_type("P", vec![]).unwrap();
        for ty in TYPES {
            s.add_vertex_type(format!("V{ty}"), vec![AttrDef::new(format!("v{ty}"), ty)]).unwrap();
            s.add_edge_type(format!("E{ty}"), true, vec![AttrDef::new(format!("e{ty}"), ty)])
                .unwrap();
        }
        let values = [
            Value::Bool(true),
            Value::Int(3),
            Value::Double(2.5),
            Value::from("s"),
            Value::DateTime(5),
            Value::Vertex(VertexId(0)),
            Value::Edge(EdgeId(0)),
            Value::Null,
            Value::Tuple(vec![Value::Int(1)]),
            Value::List(vec![]),
            Value::Set(vec![]),
            Value::Map(vec![]),
        ];
        let stored = |v: &Value, ty: ValueType| -> Option<Value> {
            match (v, ty) {
                (Value::Int(i), ValueType::Double) => Some(Value::Double(*i as f64)),
                (Value::Int(i), ValueType::DateTime) => Some(Value::DateTime(*i)),
                (Value::DateTime(t), ValueType::Int) => Some(Value::Int(*t)),
                (v, ty) => (v.value_type() == Some(ty)).then(|| v.clone()),
            }
        };
        let refused = |r: Result<(), GraphError>, name: &str| match r {
            Err(GraphError::AttrType { attr, .. }) => assert_eq!(attr, name),
            other => panic!("{name}: expected a type error, got {other:?}"),
        };
        for ty in TYPES {
            let (vname, ename) = (format!("V{ty}"), format!("E{ty}"));
            let (vattr, eattr) = (format!("v{ty}"), format!("e{ty}"));
            for v in &values {
                let mut b = GraphBuilder::new(s.clone());
                let p = b.vertex("P", &[]).unwrap();
                let want = stored(v, ty);
                let (via_builder_v, via_builder_e) = (
                    b.vertex(&vname, &[(&vattr, v.clone())]).map(|_| ()),
                    b.edge(&ename, p, p, &[(&eattr, v.clone())]).map(|_| ()),
                );
                let mut g = b.build();
                let vt = g.schema().vertex_type_id(&vname).unwrap();
                let et = g.schema().edge_type_id(&ename).unwrap();
                let via_add_v = g.add_vertex(vt, vec![v.clone()]);
                let via_add_e = g.add_edge(et, p, p, vec![v.clone()]);
                match &want {
                    Some(want) => {
                        via_builder_v.unwrap();
                        via_builder_e.unwrap();
                        let (x, e) = (via_add_v.unwrap(), via_add_e.unwrap());
                        let reads = [
                            g.vertex_attr(VertexId(1), 0),
                            g.vertex_attr(x, 0),
                            g.edge_attr(EdgeId(0), 0),
                            g.edge_attr(e, 0),
                        ];
                        for got in reads {
                            let got = (&*got, got.value_type());
                            assert_eq!(got, (want, Some(ty)), "{v:?} as {ty}");
                        }
                        g.set_vertex_attr(x, 0, v.clone()).unwrap();
                        g.set_edge_attr(e, 0, v.clone()).unwrap();
                        assert_eq!(&*g.vertex_attr(x, 0), want);
                        assert_eq!(&*g.edge_attr(e, 0), want);
                    }
                    None => {
                        refused(via_builder_v, &vattr);
                        refused(via_builder_e, &eattr);
                        refused(via_add_v.map(|_| ()), &vattr);
                        refused(via_add_e.map(|_| ()), &eattr);
                        assert_eq!((g.vertex_count(), g.edge_count()), (1, 0), "{v:?} as {ty}");
                    }
                }
            }
            // Overwrites follow the same rule.
            let mut g = Graph::new(s.clone());
            let vt = g.schema().vertex_type_id(&vname).unwrap();
            let et = g.schema().edge_type_id(&ename).unwrap();
            let seed = stored(&values[TYPES.iter().position(|&t| t == ty).unwrap()], ty).unwrap();
            let x = g.add_vertex(vt, vec![seed.clone()]).unwrap();
            let e = g.add_edge(et, x, x, vec![seed.clone()]).unwrap();
            for v in &values {
                match stored(v, ty) {
                    Some(want) => {
                        g.set_vertex_attr(x, 0, v.clone()).unwrap();
                        g.set_edge_attr(e, 0, v.clone()).unwrap();
                        assert_eq!(g.vertex_attr(x, 0).value_type(), Some(ty));
                        assert_eq!(&*g.vertex_attr(x, 0), &want);
                        assert_eq!(&*g.edge_attr(e, 0), &want);
                    }
                    None => {
                        let read = |g: &Graph| {
                            (g.vertex_attr(x, 0).into_owned(), g.edge_attr(e, 0).into_owned())
                        };
                        let before = read(&g);
                        refused(g.set_vertex_attr(x, 0, v.clone()), &vattr);
                        refused(g.set_edge_attr(e, 0, v.clone()), &eattr);
                        assert_eq!(read(&g), before);
                    }
                }
            }
        }
    }

    #[test]
    fn vertices_of_type_tracks_insertion() {
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let a = g.add_vertex(vt, vec![Value::from("a")]).unwrap();
        let b = g.add_vertex(vt, vec![Value::from("b")]).unwrap();
        assert_eq!(g.vertices_of_type(vt).to_vec(), [a, b]);
    }

    /// Reference adjacency model: the exact entries `add_edge` used to
    /// keep per vertex, in insertion order.
    fn naive_adjacency(g: &Graph) -> Vec<Vec<AdjEntry>> {
        let mut adj = vec![Vec::new(); g.vertex_count()];
        for e in g.edges() {
            let et = g.edge_type_of(e);
            let (src, dst) = g.edge_endpoints(e);
            if g.schema().edge_type(et).directed {
                adj[src.0 as usize].push(AdjEntry { etype: et, dir: Dir::Out, edge: e, other: dst });
                adj[dst.0 as usize].push(AdjEntry { etype: et, dir: Dir::In, edge: e, other: src });
            } else {
                adj[src.0 as usize].push(AdjEntry { etype: et, dir: Dir::Und, edge: e, other: dst });
                if src != dst {
                    adj[dst.0 as usize]
                        .push(AdjEntry { etype: et, dir: Dir::Und, edge: e, other: src });
                }
            }
        }
        adj
    }

    fn scrambled_graph() -> Graph {
        // Interleave edge types and directions so CSR grouping actually
        // has to reorder entries.
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let knows = g.schema().edge_type_id("Knows").unwrap();
        let vs: Vec<VertexId> = (0..6)
            .map(|i| g.add_vertex(vt, vec![Value::from(format!("p{i}"))]).unwrap())
            .collect();
        for (i, j) in [(0, 1), (2, 0), (0, 3), (4, 0), (1, 2), (3, 4), (5, 0), (0, 5)] {
            g.add_edge(follows, vs[i], vs[j], vec![]).unwrap();
            g.add_edge(knows, vs[j], vs[i], vec![Value::Int(0)]).unwrap();
        }
        g
    }

    /// `g` built from scratch: its vertices and edges re-added in id
    /// order to an empty graph, then finalized once.
    fn rebuilt(g: &Graph) -> Graph {
        let mut out = g.empty_like();
        for v in g.vertices() {
            let vt = g.vertex_type_of(v);
            let n = g.schema().vertex_type(vt).attrs.len();
            out.add_vertex(vt, (0..n).map(|i| g.vertex_attr(v, i).into_owned()).collect())
                .unwrap();
        }
        for e in g.edges() {
            let et = g.edge_type_of(e);
            let n = g.schema().edge_type(et).attrs.len();
            let (s, t) = g.edge_endpoints(e);
            out.add_edge(et, s, t, (0..n).map(|i| g.edge_attr(e, i).into_owned()).collect())
                .unwrap();
        }
        out.finalize();
        out
    }

    /// Every vertex's adjacency in `g` is the one a from-scratch build
    /// gives, entry for entry, and holds the entries `naive_adjacency`
    /// derives from the edge store.
    fn assert_adjacency_matches_rebuild(g: &Graph, ctx: &str) {
        let (fresh, naive) = (rebuilt(g), naive_adjacency(g));
        for v in g.vertices() {
            assert_eq!(g.adjacency(v), fresh.adjacency(v), "{ctx}: order of {v:?}");
            let mut got = g.adjacency(v).to_vec();
            got.sort_by_key(|a| (a.edge, a.dir as u8));
            let mut want = naive[v.0 as usize].clone();
            want.sort_by_key(|a| (a.edge, a.dir as u8));
            assert_eq!(got, want, "{ctx}: entries of {v:?}");
        }
        assert_eq!(g.stats().sans_epoch(), fresh.stats().sans_epoch(), "{ctx}: stats");
    }

    #[test]
    fn finalize_preserves_entry_sets_and_degrees() {
        let mut g = scrambled_graph();
        let naive = naive_adjacency(&g);
        g.finalize();
        for v in g.vertices() {
            // Same entries (as a set) after grouping.
            let mut got = g.adjacency(v).to_vec();
            let mut want = naive[v.0 as usize].clone();
            got.sort_by_key(|a| a.edge);
            want.sort_by_key(|a| a.edge);
            assert_eq!(got, want, "entries changed for {v:?}");
            // Grouped by (etype, dir rank), stable within groups.
            let keys: Vec<(u32, u8)> = g
                .adjacency(v)
                .iter()
                .map(|a| (a.etype.0, dir_rank(a.dir)))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort();
            assert_eq!(keys, sorted, "CSR slice not grouped for {v:?}");
            // Degrees answered from the groups count the model's entries.
            let model = &naive[v.0 as usize];
            assert_eq!(g.outdegree(v, None), model.iter().filter(|a| a.dir != Dir::In).count());
            assert_eq!(g.indegree(v, None), model.iter().filter(|a| a.dir != Dir::Out).count());
            assert_eq!(g.degree(v), model.len());
        }
    }

    #[test]
    fn typed_adjacency_is_exact() {
        let mut g = scrambled_graph();
        g.finalize();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let knows = g.schema().edge_type_id("Knows").unwrap();
        for v in g.vertices() {
            for et in [follows, knows] {
                let typed = g.adjacency_of_type(v, et).to_vec();
                let filtered: Vec<AdjEntry> = g
                    .adjacency(v)
                    .iter()
                    .filter(|a| a.etype == et)
                    .copied()
                    .collect();
                assert_eq!(typed, filtered);
                assert_eq!(
                    g.outdegree(v, Some(et)),
                    filtered.iter().filter(|a| a.dir != Dir::In).count()
                );
                assert_eq!(
                    g.indegree(v, Some(et)),
                    filtered.iter().filter(|a| a.dir != Dir::Out).count()
                );
            }
        }
    }

    #[test]
    fn mutation_after_finalize_lands_on_refinalize() {
        let mut g = scrambled_graph();
        g.finalize();
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let v0 = VertexId(0);
        let before = g.adjacency(v0).len();
        let nv = g.add_vertex(vt, vec![Value::from("late")]).unwrap();
        let e = g.add_edge(follows, v0, nv, vec![]).unwrap();
        g.finalize();
        // The new entry closes v0's Follows/Out run, ahead of its In run.
        let adj = g.adjacency(v0);
        assert_eq!(adj.len(), before + 1);
        let at = adj.iter().position(|a| a.edge == e).unwrap();
        assert_eq!(adj[at], AdjEntry { etype: follows, dir: Dir::Out, edge: e, other: nv });
        assert_eq!(adj[at + 1].dir, Dir::In);
        let back = AdjEntry { etype: follows, dir: Dir::In, edge: e, other: v0 };
        assert_eq!(g.adjacency(nv), [back]);
        assert_adjacency_matches_rebuild(&g, "one late edge");
    }

    #[test]
    fn reads_between_adds_see_every_pending_edge() {
        // Old and newly added vertices alike: every finalize between adds
        // leaves the adjacency a from-scratch build gives.
        let mut g = scrambled_graph();
        g.finalize();
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let knows = g.schema().edge_type_id("Knows").unwrap();
        for i in 0..4 {
            let nv = g.add_vertex(vt, vec![Value::from(format!("late{i}"))]).unwrap();
            g.add_edge(follows, VertexId(i), nv, vec![]).unwrap();
            g.add_edge(knows, nv, nv, vec![Value::Int(1)]).unwrap();
            g.finalize();
            assert_adjacency_matches_rebuild(&g, &format!("after add {i}"));
        }
    }

    #[test]
    fn finalize_collects_planner_stats() {
        let mut g = scrambled_graph();
        let new_epoch = g.stats().epoch();
        assert!(new_epoch > 0, "a new graph has its own epoch");
        g.finalize();
        let first_epoch = g.stats().epoch();
        assert!(first_epoch > new_epoch);
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let knows = g.schema().edge_type_id("Knows").unwrap();
        assert_eq!(g.stats().vertex_count(vt), 6);
        assert_eq!(g.stats().total_vertices(), 6);
        assert_eq!(g.stats().edge_count(follows), 8);
        assert_eq!(g.stats().edge_count(knows), 8);
        assert_eq!(g.stats().total_edges(), 16);
        // Directed: 8 Follows edges over 6 Persons.
        let avg_out = g.stats().avg_out_degree(vt, follows);
        assert!((avg_out - 8.0 / 6.0).abs() < 1e-12, "avg_out {avg_out}");
        // Undirected Knows edges count from both endpoints.
        let avg_und = g.stats().avg_out_degree(vt, knows);
        assert!((avg_und - 16.0 / 6.0).abs() < 1e-12, "avg_und {avg_und}");
        assert_eq!(avg_und, g.stats().avg_in_degree(vt, knows));
        // Histogram sums to the vertex count and matches real degrees.
        assert_eq!(g.stats().degree_histogram().iter().sum::<u64>(), 6);
        let mut expect = vec![0u64; DEGREE_BUCKETS];
        for v in g.vertices() {
            let deg = g.degree(v) as u64;
            expect[(64 - deg.leading_zeros() as usize).min(DEGREE_BUCKETS - 1)] += 1;
        }
        assert_eq!(g.stats().degree_histogram(), &expect[..]);
        // Re-finalizing advances the epoch even if nothing changed.
        g.finalize();
        assert!(g.stats().epoch() > first_epoch);
        // Unknown ids degrade to zero instead of panicking.
        assert_eq!(g.stats().vertex_count(VTypeId(99)), 0);
        assert_eq!(g.stats().avg_out_degree(VTypeId(99), ETypeId(99)), 0.0);
    }

    #[test]
    fn adjview_indexing_and_iter_from() {
        // A kernel suspends at an offset into a vertex's slice and resumes
        // there: after an incremental finalize, offsets into the full and
        // the typed slices address the entries a from-scratch build has.
        let mut g = scrambled_graph();
        g.finalize();
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let nv = g.add_vertex(vt, vec![Value::from("late")]).unwrap();
        g.add_edge(follows, VertexId(0), nv, vec![]).unwrap();
        g.finalize();
        let fresh = rebuilt(&g);
        for v in g.vertices() {
            let (all, want) = (g.adjacency(v), fresh.adjacency(v));
            for i in 0..=all.len() {
                assert_eq!(all[i..], want[i..], "{v:?} from {i}");
            }
            let typed = g.adjacency_of_type(v, follows);
            let start = all.iter().position(|a| a.etype == follows).unwrap_or(0);
            assert_eq!(typed, &all[start..start + typed.len()]);
        }
    }
}
