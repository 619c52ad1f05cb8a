//! In-memory property graph storage.
//!
//! Vertices and edges carry typed attribute rows. Adjacency is stored in
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
//! schema, the vertex / edge / per-type id stores (chunked copy-on-write
//! vectors of 256 elements, attribute rows `Arc<[Value]>`), and the
//! CSR chunks. [`Graph::clone`] therefore copies a few chunk-pointer
//! spines and shares the rest; a write copies only the chunk it lands
//! in. This is what lets [`crate::wal::LiveGraph`] publish a new
//! snapshot per mutation batch at a cost proportional to the batch.
//!
//! Mutation stays cheap: `add_vertex`/`add_edge` only append to the
//! stores. The adjacency entries of edges added since the last finalize
//! form a per-vertex *overlay* that readers transparently chain after the
//! CSR range; it is derived from the edge store the first time such a
//! graph is read, so a bulk load never materializes it.
//! [`Graph::finalize`] (called by [`GraphBuilder::build`], the loaders,
//! the generators and [`crate::mutate::apply_batch`]) folds those entries
//! into the CSR — rebuilding only the chunks that hold an endpoint of a
//! new edge or a vertex added since the last finalize — so steady-state
//! traversal touches only contiguous memory.

use crate::cow::{CowVec, CHUNK};
use crate::schema::{ETypeId, Schema, SchemaError, VTypeId};
use crate::value::Value;
use std::fmt;
use std::ops::Index;
use std::sync::{Arc, OnceLock};

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

/// One vertex's or edge's attribute values. Shared between snapshots, so
/// copying a store chunk bumps reference counts instead of deep-cloning
/// values; a row without attributes (most edge types) allocates nothing.
#[derive(Debug, Clone, Default)]
struct Row(Option<Arc<[Value]>>);

impl Row {
    fn new(values: Vec<Value>) -> Row {
        Row(if values.is_empty() { None } else { Some(values.into()) })
    }

    #[inline]
    fn values(&self) -> &[Value] {
        self.0.as_deref().unwrap_or(&[])
    }

    /// Overwrites one value, copying the row first if a snapshot shares it.
    fn set(&mut self, idx: usize, value: Value) {
        let row = self.0.as_mut().expect("attribute index out of range");
        Arc::make_mut(row)[idx] = value;
    }
}

// `Default` (all ids 0, no attributes) only fills the unused slots of a
// store's last chunk; such a value is never read as a vertex or an edge.
#[derive(Debug, Clone, Default)]
struct VertexData {
    vtype: VTypeId,
    attrs: Row,
}

#[derive(Debug, Clone, Default)]
struct EdgeData {
    etype: ETypeId,
    src: VertexId,
    dst: VertexId,
    attrs: Row,
}

/// Errors raised by graph mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    Schema(SchemaError),
    BadVertexId(VertexId),
    BadEdgeId(EdgeId),
    AttrArity { expected: usize, got: usize },
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

/// A borrowed view of one vertex's adjacency: the finalized CSR slice
/// chained with the mutation overlay's tail. Cheap to copy; iterates as
/// `&AdjEntry` and supports positional indexing so enumeration kernels
/// can suspend/resume at an edge offset.
#[derive(Clone, Copy)]
pub struct AdjView<'a> {
    base: &'a [AdjEntry],
    tail: &'a [AdjEntry],
}

/// Iterator over an [`AdjView`].
pub type AdjIter<'a> =
    std::iter::Chain<std::slice::Iter<'a, AdjEntry>, std::slice::Iter<'a, AdjEntry>>;

impl<'a> AdjView<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        self.base.len() + self.tail.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.base.is_empty() && self.tail.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> Option<&'a AdjEntry> {
        if i < self.base.len() {
            self.base.get(i)
        } else {
            self.tail.get(i - self.base.len())
        }
    }

    #[inline]
    pub fn iter(&self) -> AdjIter<'a> {
        self.base.iter().chain(self.tail.iter())
    }

    /// Iterates entries starting at position `start` (O(1) setup — used
    /// by the DFS kernels to resume a partially-walked vertex).
    #[inline]
    pub fn iter_from(&self, start: usize) -> AdjIter<'a> {
        if start <= self.base.len() {
            self.base[start..].iter().chain(self.tail.iter())
        } else {
            let t = (start - self.base.len()).min(self.tail.len());
            self.base[self.base.len()..].iter().chain(self.tail[t..].iter())
        }
    }

    pub fn to_vec(&self) -> Vec<AdjEntry> {
        self.iter().copied().collect()
    }
}

impl Index<usize> for AdjView<'_> {
    type Output = AdjEntry;

    #[inline]
    fn index(&self, i: usize) -> &AdjEntry {
        self.get(i).expect("adjacency index out of range")
    }
}

impl<'a> IntoIterator for AdjView<'a> {
    type Item = &'a AdjEntry;
    type IntoIter = AdjIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<'a> IntoIterator for &AdjView<'a> {
    type Item = &'a AdjEntry;
    type IntoIter = AdjIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
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

/// Cardinality and degree statistics kept current by [`Graph::finalize`]
/// (which adds what arrived since the previous one — the result equals a
/// recount from scratch), consumed by the query planner's cost model.
///
/// All numbers describe the finalized topology (the CSR arrays); edges
/// added to the mutation overlay afterwards are not counted until the
/// next finalize. Everything is deterministic: the same graph always
/// produces the same statistics, which is what keeps cost-based plans —
/// and therefore query results — reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Identity of the finalized topology: a process-unique, monotone
    /// token stamped by each [`Graph::finalize`] call (0 = never
    /// finalized). Plan caches key on this to detect snapshot changes.
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

    /// The finalize token (0 = never finalized).
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
/// always means "never finalized".
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
#[derive(Debug, Clone)]
pub struct Graph {
    schema: Arc<Schema>,
    vertices: CowVec<VertexData>,
    edges: CowVec<EdgeData>,
    by_type: Vec<CowVec<VertexId>>,
    /// Finalized adjacency: chunk `c` covers vertices
    /// `c * CHUNK..(c + 1) * CHUNK`, up to `finalized_vertices`.
    csr: Vec<Arc<CsrChunk>>,
    /// The adjacency entries of the edges added since the last finalize,
    /// per vertex in insertion order (readers chain these after the CSR
    /// slice). Derived from `edges[finalized_edges..]` by the first read
    /// that needs it and kept current by `add_edge` from then on; never
    /// built for a graph that is finalized before it is read.
    overlay: OnceLock<Vec<Vec<AdjEntry>>>,
    /// Total entries the overlay holds once derived (0 ⇔ no pending
    /// edges).
    overlay_entries: usize,
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
    /// Creates an empty graph over `schema`.
    pub fn new(schema: Schema) -> Self {
        Graph::with_schema(Arc::new(schema))
    }

    fn with_schema(schema: Arc<Schema>) -> Self {
        let (nvt, net) = (schema.vertex_type_count(), schema.edge_type_count());
        Graph {
            schema,
            vertices: CowVec::default(),
            edges: CowVec::default(),
            by_type: vec![CowVec::default(); nvt],
            csr: Vec::new(),
            overlay: OnceLock::new(),
            overlay_entries: 0,
            finalized_vertices: 0,
            finalized_edges: 0,
            stats: GraphStats::new(nvt, net),
        }
    }

    /// An empty graph sharing this graph's schema.
    pub(crate) fn empty_like(&self) -> Graph {
        Graph::with_schema(self.schema.clone())
    }

    /// Planner statistics as of the last [`Graph::finalize`] (all zero,
    /// epoch 0, if the graph was never finalized).
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

    /// Whether every adjacency entry lives in the CSR chunks (no pending
    /// mutation overlay, no vertex added since the last finalize).
    pub fn is_finalized(&self) -> bool {
        self.overlay_entries == 0 && self.finalized_vertices == self.vertices.len()
    }

    /// Number of adjacency entries currently living in the mutation
    /// overlay (0 right after [`Graph::finalize`]). Together with the
    /// stats epoch and the vertex/edge counts this fingerprints the
    /// adjacency structure.
    pub fn overlay_entry_count(&self) -> usize {
        self.overlay_entries
    }

    /// Adds a vertex of type `vt`. `attrs` must match the declared arity;
    /// missing trailing values are *not* defaulted — use
    /// [`GraphBuilder`] for name-based convenience.
    pub fn add_vertex(&mut self, vt: VTypeId, attrs: Vec<Value>) -> Result<VertexId, GraphError> {
        let def = self.schema.vertex_type(vt);
        if attrs.len() != def.attrs.len() {
            return Err(GraphError::AttrArity {
                expected: def.attrs.len(),
                got: attrs.len(),
            });
        }
        let id = VertexId(self.vertices.len() as u32);
        self.vertices.push(VertexData { vtype: vt, attrs: Row::new(attrs) });
        self.by_type[vt.0 as usize].push(id);
        Ok(id)
    }

    /// Adds an edge of type `et` from `src` to `dst`. For undirected edge
    /// types the (src, dst) order is storage-only; traversal treats both
    /// endpoints symmetrically. The new adjacency entries land in the
    /// mutation overlay until the next [`Graph::finalize`].
    pub fn add_edge(
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
        if attrs.len() != def.attrs.len() {
            return Err(GraphError::AttrArity {
                expected: def.attrs.len(),
                got: attrs.len(),
            });
        }
        let src_t = self.vertices[src.0 as usize].vtype;
        let dst_t = self.vertices[dst.0 as usize].vtype;
        if !def.from_types.is_empty() && !def.from_types.contains(&src_t) {
            return Err(GraphError::EndpointType {
                edge_type: def.name.clone(),
                endpoint: self.schema.vertex_type(src_t).name.clone(),
            });
        }
        if !def.to_types.is_empty() && !def.to_types.contains(&dst_t) {
            return Err(GraphError::EndpointType {
                edge_type: def.name.clone(),
                endpoint: self.schema.vertex_type(dst_t).name.clone(),
            });
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { etype: et, src, dst, attrs: Row::new(attrs) });
        // An overlay a reader already derived is kept current, so a
        // build-and-probe loop pays for the derivation once.
        let entries = self.endpoint_entries(id);
        self.overlay_entries += entries.clone().count();
        if let Some(tails) = self.overlay.get_mut() {
            tails.resize(self.vertices.len(), Vec::new());
            for (v, entry) in entries {
                tails[v.0 as usize].push(entry);
            }
        }
        Ok(id)
    }

    /// The adjacency entries edge `e` contributes, in the order they
    /// enter their vertices' adjacency: the source's, then the target's
    /// (an undirected self-loop is recorded once).
    fn endpoint_entries(
        &self,
        e: EdgeId,
    ) -> impl Iterator<Item = (VertexId, AdjEntry)> + Clone + 'static {
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

    /// `v`'s overlay tail (empty on a finalized graph).
    #[inline]
    fn pending(&self, v: usize) -> &[AdjEntry] {
        if self.overlay_entries == 0 {
            return &[];
        }
        let tails = self.overlay.get_or_init(|| {
            let mut tails = vec![Vec::new(); self.vertices.len()];
            for e in self.pending_edges() {
                for (v, entry) in self.endpoint_entries(e) {
                    tails[v.0 as usize].push(entry);
                }
            }
            tails
        });
        tails.get(v).map_or(&[], Vec::as_slice)
    }

    /// Folds the edges added since the last finalize into the CSR and
    /// brings the statistics up to date under a fresh epoch. Only the CSR
    /// chunks that hold an endpoint of such an edge, or a vertex added
    /// since the last finalize, are rebuilt — O(V + E) for a bulk load,
    /// O(what changed) plus one pass over the chunk spine afterwards —
    /// and the result is the same adjacency, in the same order, as
    /// finalizing a from-scratch copy of the graph once. Loaders,
    /// generators, [`GraphBuilder::build`] and
    /// [`crate::mutate::apply_batch`] call this so query execution sees
    /// flat, type-grouped adjacency.
    pub fn finalize(&mut self) {
        let nv = self.vertices.len();
        let net = self.schema.edge_type_count();
        let chunks = nv.div_ceil(CHUNK);

        // Rebuild every chunk that gains a vertex the CSR does not cover
        // yet or holds an endpoint of a pending edge — and only those.
        let first_grown = if nv > self.finalized_vertices {
            self.finalized_vertices / CHUNK
        } else {
            chunks
        };
        let mut builders: Vec<Option<Box<ChunkBuilder>>> =
            (0..chunks).map(|c| (c >= first_grown).then(ChunkBuilder::new)).collect();
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
        self.overlay = OnceLock::new();
        self.overlay_entries = 0;
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

    /// Vertex attribute by column index.
    pub fn vertex_attr(&self, v: VertexId, idx: usize) -> &Value {
        &self.vertices[v.0 as usize].attrs.values()[idx]
    }

    /// Vertex attribute by name (schema lookup each call; the query
    /// binder resolves a per-vertex-type index once per block instead).
    pub fn vertex_attr_by_name(&self, v: VertexId, name: &str) -> Option<&Value> {
        let vt = self.vertex_type_of(v);
        let idx = self.schema.vertex_attr_index(vt, name)?;
        Some(self.vertex_attr(v, idx))
    }

    /// Edge attribute by column index.
    pub fn edge_attr(&self, e: EdgeId, idx: usize) -> &Value {
        &self.edges[e.0 as usize].attrs.values()[idx]
    }

    /// Edge attribute by name.
    pub fn edge_attr_by_name(&self, e: EdgeId, name: &str) -> Option<&Value> {
        let et = self.edge_type_of(e);
        let idx = self.schema.edge_attr_index(et, name)?;
        Some(self.edge_attr(e, idx))
    }

    /// Overwrites a vertex attribute (used by loaders and mutation tests).
    pub fn set_vertex_attr(&mut self, v: VertexId, idx: usize, value: Value) {
        self.vertices.get_mut(v.0 as usize).attrs.set(idx, value);
    }

    /// Overwrites an edge attribute (the edge twin of
    /// [`Graph::set_vertex_attr`], used by the mutation batch applier).
    pub fn set_edge_attr(&mut self, e: EdgeId, idx: usize, value: Value) {
        self.edges.get_mut(e.0 as usize).attrs.set(idx, value);
    }

    /// `v`'s finalized adjacency slice (empty if the CSR does not cover
    /// it yet).
    #[inline]
    fn csr_slice(&self, v: usize) -> &[AdjEntry] {
        match self.csr.get(v / CHUNK) {
            Some(chunk) => chunk.vertex_slice(v % CHUNK),
            None => &[],
        }
    }

    /// All adjacency entries of `v`: the finalized CSR slice chained with
    /// any overlay tail. On a finalized graph the tail is empty and
    /// iteration is a single contiguous scan.
    #[inline]
    pub fn adjacency(&self, v: VertexId) -> AdjView<'_> {
        let i = v.0 as usize;
        AdjView { base: self.csr_slice(i), tail: self.pending(i) }
    }

    /// Adjacency entries of `v` with edge type `etype` — a direct slice
    /// lookup on a finalized graph (plus a filtered overlay tail
    /// otherwise).
    pub fn adjacency_of_type(
        &self,
        v: VertexId,
        etype: ETypeId,
    ) -> impl Iterator<Item = &AdjEntry> {
        let i = v.0 as usize;
        let base = self.csr_groups(i, Some(etype)).flatten();
        base.chain(self.pending(i).iter().filter(move |a| a.etype == etype))
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

    /// `v`'s finalized type groups — the one for `etype`, or all of them
    /// (empty slices if the CSR does not cover `v` yet).
    fn csr_groups(
        &self,
        v: usize,
        etype: Option<ETypeId>,
    ) -> impl Iterator<Item = &[AdjEntry]> + '_ {
        let ntypes = self.schema.edge_type_count();
        let chunk = self.csr.get(v / CHUNK);
        let types = match etype {
            Some(t) => t.0 as usize..t.0 as usize + 1,
            None => 0..ntypes,
        };
        types.map(move |t| chunk.map_or(&[][..], |c| c.type_slice(v % CHUNK, t, ntypes)))
    }

    /// GSQL's `v.outdegree()`: number of edges leaving `v` (directed out
    /// plus undirected incident). With `etype`, restricted to that type.
    pub fn outdegree(&self, v: VertexId, etype: Option<ETypeId>) -> usize {
        let i = v.0 as usize;
        // CSR part: per type group, `Out` + `Und` entries form the prefix
        // before the first `In` entry.
        let base: usize = self.csr_groups(i, etype).map(|g| Self::rank_prefix(g, 2)).sum();
        let tail = self
            .pending(i)
            .iter()
            .filter(|a| a.dir != Dir::In && etype.is_none_or(|t| a.etype == t))
            .count();
        base + tail
    }

    /// Number of edges entering `v` (directed in plus undirected incident).
    pub fn indegree(&self, v: VertexId, etype: Option<ETypeId>) -> usize {
        let i = v.0 as usize;
        // CSR part: `Und` + `In` entries form the suffix at and after the
        // first non-`Out` entry.
        let base: usize =
            self.csr_groups(i, etype).map(|g| g.len() - Self::rank_prefix(g, 1)).sum();
        let tail = self
            .pending(i)
            .iter()
            .filter(|a| a.dir != Dir::Out && etype.is_none_or(|t| a.etype == t))
            .count();
        base + tail
    }

    /// Total degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adjacency(v).len()
    }

    /// `(shared, total)`: of this graph's store and CSR chunks, how many
    /// are the very same allocation as `other`'s chunk at that position.
    #[cfg(test)]
    pub(crate) fn chunks_shared_with(&self, other: &Graph) -> (usize, usize) {
        let mut shared = self.vertices.shared_chunks(&other.vertices)
            + self.edges.shared_chunks(&other.edges)
            + self.csr.iter().zip(&other.csr).filter(|(a, b)| Arc::ptr_eq(a, b)).count();
        let mut total = self.vertices.chunk_count() + self.edges.chunk_count() + self.csr.len();
        for (ids, theirs) in self.by_type.iter().zip(&other.by_type) {
            shared += ids.shared_chunks(theirs);
            total += ids.chunk_count();
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

    /// Finishes building: folds the mutation overlay into the flat CSR
    /// arrays and returns the finalized graph.
    pub fn build(mut self) -> Graph {
        self.graph.finalize();
        self.graph
    }

    /// Read access to the graph under construction.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttrDef;
    use crate::value::ValueType;

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
        assert_eq!(g.adjacency(a).len(), 1);
        g.finalize();
        assert_eq!(g.adjacency(a).len(), 1);
    }

    #[test]
    fn attribute_access() {
        let mut g = Graph::new(mixed_schema());
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let et = g.schema().edge_type_id("Knows").unwrap();
        let a = g.add_vertex(vt, vec![Value::from("alice")]).unwrap();
        let b = g.add_vertex(vt, vec![Value::from("bob")]).unwrap();
        let e = g.add_edge(et, a, b, vec![Value::Int(2016)]).unwrap();
        assert_eq!(g.vertex_attr_by_name(a, "name"), Some(&Value::from("alice")));
        assert_eq!(g.edge_attr_by_name(e, "since"), Some(&Value::Int(2016)));
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
        assert!(g.is_finalized());
        assert_eq!(g.vertex_attr_by_name(c, "name"), Some(&Value::Str(String::new())));
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
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

    #[test]
    fn finalize_preserves_entry_sets_and_degrees() {
        let mut g = scrambled_graph();
        let naive = naive_adjacency(&g);
        // Pre-finalize: overlay order is exactly insertion order.
        for v in g.vertices() {
            assert_eq!(g.adjacency(v).to_vec(), naive[v.0 as usize]);
        }
        let degrees: Vec<(usize, usize, usize)> = g
            .vertices()
            .map(|v| (g.outdegree(v, None), g.indegree(v, None), g.degree(v)))
            .collect();
        g.finalize();
        assert!(g.is_finalized());
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
        }
        let after: Vec<(usize, usize, usize)> = g
            .vertices()
            .map(|v| (g.outdegree(v, None), g.indegree(v, None), g.degree(v)))
            .collect();
        assert_eq!(degrees, after);
    }

    #[test]
    fn typed_adjacency_is_exact() {
        let mut g = scrambled_graph();
        g.finalize();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let knows = g.schema().edge_type_id("Knows").unwrap();
        for v in g.vertices() {
            for et in [follows, knows] {
                let typed: Vec<AdjEntry> = g.adjacency_of_type(v, et).copied().collect();
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
    fn mutation_after_finalize_lands_in_overlay() {
        let mut g = scrambled_graph();
        g.finalize();
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let nv = g.add_vertex(vt, vec![Value::from("late")]).unwrap();
        let v0 = VertexId(0);
        let before = g.adjacency(v0).len();
        let e = g.add_edge(follows, v0, nv, vec![]).unwrap();
        assert!(!g.is_finalized());
        // Readers see the new entry chained after the CSR slice.
        assert_eq!(g.adjacency(v0).len(), before + 1);
        assert_eq!(g.adjacency(v0)[before], AdjEntry {
            etype: follows,
            dir: Dir::Out,
            edge: e,
            other: nv
        });
        assert_eq!(g.adjacency(nv).to_vec(), vec![AdjEntry {
            etype: follows,
            dir: Dir::In,
            edge: e,
            other: v0
        }]);
        assert_eq!(g.outdegree(v0, Some(follows)), {
            let naive = naive_adjacency(&g);
            naive[0].iter().filter(|a| a.dir != Dir::In && a.etype == follows).count()
        });
        // Re-finalize folds it in.
        g.finalize();
        assert!(g.is_finalized());
        assert_eq!(g.adjacency(v0).len(), before + 1);
        assert_eq!(g.adjacency(nv).len(), 1);
    }

    #[test]
    fn reads_between_adds_see_every_pending_edge() {
        // A reader derives the overlay; later adds must keep it current,
        // for old and for newly added vertices alike.
        let mut g = scrambled_graph();
        g.finalize();
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let knows = g.schema().edge_type_id("Knows").unwrap();
        for i in 0..4 {
            let nv = g.add_vertex(vt, vec![Value::from(format!("late{i}"))]).unwrap();
            g.add_edge(follows, VertexId(i), nv, vec![]).unwrap();
            g.add_edge(knows, nv, nv, vec![Value::Int(1)]).unwrap();
            let naive = naive_adjacency(&g);
            for v in g.vertices() {
                let mut got = g.adjacency(v).to_vec();
                got.sort_by_key(|a| (a.edge, a.dir as u8));
                let mut want = naive[v.0 as usize].clone();
                want.sort_by_key(|a| (a.edge, a.dir as u8));
                assert_eq!(got, want, "after add {i}, {v:?}");
            }
            assert_eq!(g.overlay_entry_count(), 3 * (i as usize + 1));
        }
    }

    #[test]
    fn finalize_collects_planner_stats() {
        let mut g = scrambled_graph();
        assert_eq!(g.stats().epoch(), 0, "unfinalized graph has no stats epoch");
        g.finalize();
        let first_epoch = g.stats().epoch();
        assert!(first_epoch > 0);
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
        let mut g = scrambled_graph();
        g.finalize();
        let vt = g.schema().vertex_type_id("Person").unwrap();
        let follows = g.schema().edge_type_id("Follows").unwrap();
        let nv = g.add_vertex(vt, vec![Value::from("late")]).unwrap();
        g.add_edge(follows, VertexId(0), nv, vec![]).unwrap();
        let view = g.adjacency(VertexId(0));
        let all = view.to_vec();
        assert_eq!(view.len(), all.len());
        for i in 0..all.len() {
            assert_eq!(view[i], all[i]);
            let rest: Vec<AdjEntry> = view.iter_from(i).copied().collect();
            assert_eq!(rest, all[i..].to_vec());
        }
        assert_eq!(view.iter_from(all.len()).count(), 0);
        assert_eq!(view.iter_from(all.len() + 7).count(), 0);
        assert!(view.get(all.len()).is_none());
    }
}
