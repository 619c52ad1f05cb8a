//! Write-ahead log, checkpoints, and crash recovery.
//!
//! ## On-disk layout (`--data-dir`)
//!
//! ```text
//! wal.log           length+CRC32-framed mutation batches
//! checkpoint.cur    newest checkpoint: "#WALSEQ <n>" + loader text format
//! checkpoint.prev   previous checkpoint (fallback if cur is corrupt)
//! ```
//!
//! ## Frame format
//!
//! Each committed batch is one frame:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE] [payload: len bytes]
//! payload = [seq: u64 LE] [nops: u32 LE] [op]*
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload only. `seq` increases by one
//! per committed batch and ties frames to checkpoints: a checkpoint
//! written after batch `n` records `#WALSEQ n`, and recovery replays
//! only frames with `seq > n`.
//!
//! ## Recovery invariants
//!
//! * A torn tail (crash mid-append) is **normal**, not corruption:
//!   replay truncates the file back to the last complete, CRC-valid
//!   frame and reports the dropped byte count.
//! * A CRC mismatch or undecodable payload mid-log stops replay at the
//!   last good frame — the durable prefix — and truncates the rest.
//! * `checkpoint.cur` failing to parse falls back to `checkpoint.prev`
//!   plus a longer WAL suffix; both failing is a [`RecoveryError`].
//! * Replay never panics on arbitrary bytes (fuzzed in
//!   `tests/fuzz_no_panic` via [`decode_frames`]).

use crate::graph::Graph;
use crate::loader::{self, LoadError};
use crate::mutate::{apply_batch, BatchSummary, MutationOp};
use crate::schema::{ETypeId, VTypeId};
use crate::value::Value;
use crate::graph::{EdgeId, VertexId};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

// ---- CRC-32 (IEEE 802.3), table-driven ----------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---- binary op codec -----------------------------------------------------

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over untrusted bytes; every read is bounds-checked.
struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }
    fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_le_bytes(s.try_into().unwrap()))
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
    fn i64(&mut self) -> Option<i64> {
        self.take(8).map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn encode_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Bool(b) => {
            out.push(1);
            out.push(*b as u8);
        }
        Value::Int(i) => {
            out.push(2);
            put_i64(out, *i);
        }
        Value::Double(d) => {
            out.push(3);
            put_u64(out, d.to_bits());
        }
        Value::Str(s) => {
            out.push(4);
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        Value::DateTime(t) => {
            out.push(5);
            put_i64(out, *t);
        }
        Value::Vertex(v) => {
            out.push(6);
            put_u32(out, v.0);
        }
        Value::Edge(e) => {
            out.push(7);
            put_u32(out, e.0);
        }
        // Collection values are not storable attributes; the executor
        // rejects them before a batch reaches the WAL. Encode as Null so
        // the codec is total (a replayed Null fails schema checks loudly
        // rather than corrupting the log).
        Value::Tuple(_) | Value::List(_) | Value::Set(_) | Value::Map(_) => out.push(0),
    }
}

fn decode_value(c: &mut Cur<'_>) -> Option<Value> {
    Some(match c.u8()? {
        0 => Value::Null,
        1 => Value::Bool(c.u8()? != 0),
        2 => Value::Int(c.i64()?),
        3 => Value::Double(f64::from_bits(c.u64()?)),
        4 => {
            let n = c.u32()? as usize;
            let bytes = c.take(n)?;
            Value::from(std::str::from_utf8(bytes).ok()?)
        }
        5 => Value::DateTime(c.i64()?),
        6 => Value::Vertex(VertexId(c.u32()?)),
        7 => Value::Edge(EdgeId(c.u32()?)),
        _ => return None,
    })
}

fn encode_values(out: &mut Vec<u8>, vs: &[Value]) {
    put_u16(out, vs.len() as u16);
    for v in vs {
        encode_value(out, v);
    }
}

fn decode_values(c: &mut Cur<'_>) -> Option<Vec<Value>> {
    let n = c.u16()? as usize;
    let mut vs = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        vs.push(decode_value(c)?);
    }
    Some(vs)
}

fn encode_op(out: &mut Vec<u8>, op: &MutationOp) {
    match op {
        MutationOp::AddVertex { vtype, attrs } => {
            out.push(0);
            put_u32(out, vtype.0);
            encode_values(out, attrs);
        }
        MutationOp::AddEdge { etype, src, dst, attrs } => {
            out.push(1);
            put_u32(out, etype.0);
            put_u32(out, src.0);
            put_u32(out, dst.0);
            encode_values(out, attrs);
        }
        MutationOp::SetVertexAttr { v, attr, value } => {
            out.push(2);
            put_u32(out, v.0);
            put_u32(out, *attr as u32);
            encode_value(out, value);
        }
        MutationOp::SetEdgeAttr { e, attr, value } => {
            out.push(3);
            put_u32(out, e.0);
            put_u32(out, *attr as u32);
            encode_value(out, value);
        }
        MutationOp::DeleteVertex { v } => {
            out.push(4);
            put_u32(out, v.0);
        }
        MutationOp::DeleteEdge { e } => {
            out.push(5);
            put_u32(out, e.0);
        }
    }
}

fn decode_op(c: &mut Cur<'_>) -> Option<MutationOp> {
    Some(match c.u8()? {
        0 => MutationOp::AddVertex { vtype: VTypeId(c.u32()?), attrs: decode_values(c)? },
        1 => MutationOp::AddEdge {
            etype: ETypeId(c.u32()?),
            src: VertexId(c.u32()?),
            dst: VertexId(c.u32()?),
            attrs: decode_values(c)?,
        },
        2 => MutationOp::SetVertexAttr {
            v: VertexId(c.u32()?),
            attr: c.u32()? as usize,
            value: decode_value(c)?,
        },
        3 => MutationOp::SetEdgeAttr {
            e: EdgeId(c.u32()?),
            attr: c.u32()? as usize,
            value: decode_value(c)?,
        },
        4 => MutationOp::DeleteVertex { v: VertexId(c.u32()?) },
        5 => MutationOp::DeleteEdge { e: EdgeId(c.u32()?) },
        _ => return None,
    })
}

/// Encodes one batch into a complete frame (header + payload).
pub fn encode_frame(seq: u64, ops: &[MutationOp]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(16 + ops.len() * 16);
    put_u64(&mut payload, seq);
    put_u32(&mut payload, ops.len() as u32);
    for op in ops {
        encode_op(&mut payload, op);
    }
    let mut frame = Vec::with_capacity(8 + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

/// One decoded batch.
#[derive(Debug, Clone, PartialEq)]
pub struct WalBatch {
    pub seq: u64,
    pub ops: Vec<MutationOp>,
}

/// Why frame decoding stopped before the end of the buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameStop {
    /// Clean end of log: the buffer ended exactly on a frame boundary.
    Eof,
    /// Incomplete header or payload at the tail (crash mid-append).
    TornTail,
    /// CRC mismatch: the frame was fully present but its bytes are wrong.
    BadCrc,
    /// CRC passed but the payload didn't decode (impossible-length field,
    /// unknown tag): treated as corruption.
    BadPayload,
    /// Sequence number went backwards or repeated — frames out of order.
    BadSeq { prev: u64, got: u64 },
}

impl FrameStop {
    pub fn is_clean(&self) -> bool {
        matches!(self, FrameStop::Eof)
    }
}

/// Decodes frames from `buf` until the end or the first defect. Returns
/// the good batches, the byte offset of the end of the last good frame
/// (the durable prefix), and why decoding stopped. Never panics on
/// arbitrary input.
pub fn decode_frames(buf: &[u8]) -> (Vec<WalBatch>, usize, FrameStop) {
    let mut batches = Vec::new();
    let mut off = 0usize;
    let mut last_seq: Option<u64> = None;
    loop {
        if off == buf.len() {
            return (batches, off, FrameStop::Eof);
        }
        if buf.len() - off < 8 {
            return (batches, off, FrameStop::TornTail);
        }
        let len = u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(buf[off + 4..off + 8].try_into().unwrap());
        if buf.len() - off - 8 < len {
            return (batches, off, FrameStop::TornTail);
        }
        let payload = &buf[off + 8..off + 8 + len];
        if crc32(payload) != crc {
            return (batches, off, FrameStop::BadCrc);
        }
        let mut c = Cur { buf: payload, pos: 0 };
        let decoded = (|| {
            let seq = c.u64()?;
            let nops = c.u32()? as usize;
            let mut ops = Vec::with_capacity(nops.min(4096));
            for _ in 0..nops {
                ops.push(decode_op(&mut c)?);
            }
            if !c.done() {
                return None; // trailing garbage inside a CRC-valid frame
            }
            Some(WalBatch { seq, ops })
        })();
        let Some(batch) = decoded else {
            return (batches, off, FrameStop::BadPayload);
        };
        if let Some(prev) = last_seq {
            if batch.seq <= prev {
                return (batches, off, FrameStop::BadSeq { prev, got: batch.seq });
            }
        }
        last_seq = Some(batch.seq);
        batches.push(batch);
        off += 8 + len;
    }
}

// ---- WAL writer ----------------------------------------------------------

/// When `append` calls `fsync`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// fsync after every committed batch (full durability, slowest).
    Always,
    /// Group commit: fsync once every `n` batches (and on flush/drain).
    EveryN(u32),
    /// Only fsync on explicit flush/checkpoint/drain (fastest; a crash
    /// may lose the OS-buffered suffix, never corrupt it).
    OnFlushOnly,
}

impl FlushPolicy {
    /// Parses `always`, `never`/`onflush`, or `every=N` / a bare integer.
    pub fn parse(s: &str) -> Option<FlushPolicy> {
        match s.to_ascii_lowercase().as_str() {
            "always" => Some(FlushPolicy::Always),
            "never" | "onflush" | "on-flush" => Some(FlushPolicy::OnFlushOnly),
            other => {
                let n = other.strip_prefix("every=").unwrap_or(other);
                n.parse::<u32>().ok().filter(|&n| n > 0).map(FlushPolicy::EveryN)
            }
        }
    }
}

/// Lock-free counters exported as `wal.*` server metrics.
#[derive(Default)]
pub struct WalStats {
    /// Frames appended since open.
    pub appends: AtomicU64,
    /// fsync calls issued.
    pub fsyncs: AtomicU64,
    /// Frames replayed during the last recovery.
    pub replayed: AtomicU64,
    /// Bytes appended since open.
    pub bytes: AtomicU64,
    /// Nanoseconds commits spent producing the next snapshot in memory
    /// (clone the published graph, apply the batch), in total.
    pub apply_ns: AtomicU64,
    /// Nanoseconds spent inside the fsync calls counted by `fsyncs`.
    pub fsync_ns: AtomicU64,
    /// Checkpoints written since open (periodic, forced and at drain).
    pub checkpoints: AtomicU64,
    /// Nanoseconds those checkpoints took, WAL trim included.
    pub checkpoint_ns: AtomicU64,
}

/// Adds the time since `started` to a nanosecond total.
fn add_elapsed(total: &AtomicU64, started: Instant) {
    total.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
}

/// Appends frames to `wal.log`, fsyncing per [`FlushPolicy`].
pub struct WalWriter {
    file: File,
    policy: FlushPolicy,
    unsynced: u32,
    stats: Arc<WalStats>,
    /// Set by the first append/fsync failure. A failed `write_all` may
    /// leave a partial frame on disk; a later successful append would
    /// land after that garbage and be silently dropped by recovery's
    /// truncate-at-first-defect rule. So one failure poisons the writer:
    /// every subsequent append refuses until the file is reopened.
    failed: bool,
}

impl WalWriter {
    fn open(path: &Path, policy: FlushPolicy, stats: Arc<WalStats>) -> std::io::Result<WalWriter> {
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.seek(SeekFrom::End(0))?;
        Ok(WalWriter { file, policy, unsynced: 0, stats, failed: false })
    }

    fn poisoned_err() -> std::io::Error {
        std::io::Error::other(
            "WAL writer poisoned by an earlier write failure; reopen the data dir to resume",
        )
    }

    /// Appends one batch frame; write-ahead means this must succeed (and
    /// per policy, be fsynced) before the in-memory graph is published.
    pub fn append(&mut self, seq: u64, ops: &[MutationOp]) -> std::io::Result<()> {
        if self.failed {
            return Err(Self::poisoned_err());
        }
        let frame = encode_frame(seq, ops);
        if let Err(e) = self.file.write_all(&frame) {
            self.failed = true;
            return Err(e);
        }
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.unsynced += 1;
        let due = match self.policy {
            FlushPolicy::Always => true,
            FlushPolicy::EveryN(n) => self.unsynced >= n,
            FlushPolicy::OnFlushOnly => false,
        };
        if due {
            self.sync()?;
        }
        Ok(())
    }

    /// fsyncs any unsynced appends (drain / checkpoint barrier).
    pub fn sync(&mut self) -> std::io::Result<()> {
        if self.failed {
            return Err(Self::poisoned_err());
        }
        if self.unsynced > 0 {
            let started = Instant::now();
            if let Err(e) = self.file.sync_all() {
                // Post-fsync-failure page-cache state is undefined
                // (kernel may drop the dirty pages): poison.
                self.failed = true;
                return Err(e);
            }
            self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
            add_elapsed(&self.stats.fsync_ns, started);
            self.unsynced = 0;
        }
        Ok(())
    }
}

// ---- checkpoints ---------------------------------------------------------

const WAL_FILE: &str = "wal.log";
const CKPT_CUR: &str = "checkpoint.cur";
const CKPT_PREV: &str = "checkpoint.prev";
const WALSEQ_PREFIX: &str = "#WALSEQ ";

/// Writes `g` with a `#WALSEQ <seq>` header (the checkpoint format) to
/// `path` atomically, streaming it: a checkpoint never holds the graph's
/// text in memory.
fn write_checkpoint_file(path: &Path, g: &Graph, seq: u64) -> std::io::Result<()> {
    loader::atomic_write_with(path, |f| {
        writeln!(f, "{WALSEQ_PREFIX}{seq}")?;
        loader::save_to_io(g, f)
    })
}

/// Parses a checkpoint: the `#WALSEQ` header plus the loader text format.
pub fn checkpoint_from_str(text: &str) -> Result<(Graph, u64), LoadError> {
    let (header, rest) = text.split_once('\n').ok_or(LoadError::Syntax {
        line: 1,
        msg: "empty checkpoint".into(),
    })?;
    let seq = header
        .strip_prefix(WALSEQ_PREFIX)
        .and_then(|s| s.trim().parse::<u64>().ok())
        .ok_or(LoadError::Syntax { line: 1, msg: "missing #WALSEQ header".into() })?;
    Ok((loader::load_from_string(rest)?, seq))
}

// ---- recovery ------------------------------------------------------------

/// Structured failure from [`LiveGraph::open`]: the data directory could
/// not be recovered into a usable graph.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// Filesystem error touching the data dir.
    Io(String),
    /// Neither `checkpoint.cur` nor `checkpoint.prev` was usable.
    Checkpoint(String),
    /// A replayed batch failed to apply (the log contradicts the
    /// checkpoint — e.g. mismatched files from different stores).
    Apply { seq: u64, msg: String },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "data dir I/O error: {e}"),
            RecoveryError::Checkpoint(e) => write!(f, "no usable checkpoint: {e}"),
            RecoveryError::Apply { seq, msg } => {
                write!(f, "WAL batch seq {seq} failed to apply: {msg}")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

/// What recovery did, for logs and `/metrics`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Which checkpoint seeded the graph: "cur", "prev", or "fresh".
    pub checkpoint: String,
    /// The seeding checkpoint's sequence number.
    pub checkpoint_seq: u64,
    /// Frames replayed on top of the checkpoint.
    pub frames_replayed: u64,
    /// Ops inside those frames.
    pub ops_replayed: u64,
    /// Frames skipped because the checkpoint already contained them.
    pub frames_skipped: u64,
    /// Bytes cut from the WAL tail (torn tail or trailing corruption).
    pub truncated_bytes: u64,
    /// Human-readable anomalies (corruption found and repaired around).
    pub warnings: Vec<String>,
}

// ---- LiveGraph -----------------------------------------------------------

/// Commit failure: the published snapshot is unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum CommitError {
    /// The batch itself was invalid (bad id, arity, endpoint type).
    Graph(String),
    /// Optimistic-concurrency check failed: the batch was built against
    /// the snapshot at `pinned` but another writer has since published
    /// `committed`. The batch's vertex/edge ids may no longer name the
    /// entities the query matched (compaction re-densifies ids), so it
    /// must be rebuilt against a fresh snapshot, never applied.
    Conflict {
        /// The sequence number the batch was pinned at.
        pinned: u64,
        /// The sequence number actually published at commit time.
        committed: u64,
    },
    /// The WAL append/fsync failed — durability can no longer be
    /// guaranteed, so the writer should degrade to read-only.
    Wal(String),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Graph(e) => write!(f, "{e}"),
            CommitError::Conflict { pinned, committed } => write!(
                f,
                "snapshot conflict: batch pinned at seq {pinned} but seq {committed} is \
                 published; re-run the query against a fresh snapshot"
            ),
            CommitError::Wal(e) => write!(f, "WAL write failed: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

struct WriterState {
    seq: u64,
    wal: Option<WalWriter>,
    dir: Option<PathBuf>,
    batches_since_ckpt: u64,
    checkpoint_every: u64,
    /// The seq of `checkpoint.cur`, if this process loaded or wrote that
    /// file; `None` when recovery found it missing or unusable.
    cur_ckpt_seq: Option<u64>,
}

/// A mutable graph behind epoch-pinned snapshots, optionally durable.
///
/// Readers call [`LiveGraph::snapshot`] and get an `Arc<Graph>` frozen at
/// that instant — a pinned epoch that no later commit mutates. The writer
/// path is serialized by a mutex: clone the current snapshot (cheap — the
/// clone shares every store and CSR chunk with it), apply the batch
/// (copying only the chunks it touches), append it to the WAL
/// (write-**ahead**: durable before visible), then publish the new
/// snapshot atomically. Successive snapshots thus share everything the
/// batches between them left alone.
pub struct LiveGraph {
    /// The current snapshot and the seq of the last batch folded into
    /// it, published together so readers can pin both atomically.
    published: RwLock<(Arc<Graph>, u64)>,
    writer: Mutex<WriterState>,
    stats: Arc<WalStats>,
}

impl LiveGraph {
    /// In-memory only: mutations work, nothing is durable.
    pub fn in_memory(graph: Graph) -> LiveGraph {
        LiveGraph {
            published: RwLock::new((Arc::new(graph), 0)),
            writer: Mutex::new(WriterState {
                seq: 0,
                wal: None,
                dir: None,
                batches_since_ckpt: 0,
                checkpoint_every: 0,
                cur_ckpt_seq: None,
            }),
            stats: Arc::new(WalStats::default()),
        }
    }

    /// Opens (or initializes) a durable graph in `dir`.
    ///
    /// * Empty dir: writes an initial checkpoint of `seed` at seq 0.
    /// * Existing dir: recovers — load `checkpoint.cur` (falling back to
    ///   `checkpoint.prev`), replay the WAL suffix, truncate any torn or
    ///   corrupt tail. `seed` is ignored in this case: the durable state
    ///   wins.
    ///
    /// `checkpoint_every` = batches between checkpoints (0 = only at
    /// clean shutdown via [`LiveGraph::checkpoint_now`]).
    pub fn open(
        dir: &Path,
        seed: Graph,
        policy: FlushPolicy,
        checkpoint_every: u64,
    ) -> Result<(LiveGraph, RecoveryReport), RecoveryError> {
        std::fs::create_dir_all(dir).map_err(|e| RecoveryError::Io(e.to_string()))?;
        let stats = Arc::new(WalStats::default());
        let cur = dir.join(CKPT_CUR);
        let prev = dir.join(CKPT_PREV);
        let wal_path = dir.join(WAL_FILE);

        let mut report = RecoveryReport::default();
        let (graph, ckpt_seq) = if !cur.exists() && !prev.exists() {
            // No checkpoint at all. A non-empty WAL here is an orphan —
            // its ops were recorded against a base graph we no longer
            // have, so replaying them onto `seed` would produce either a
            // confusing Apply error or a silently wrong state. Refuse.
            if let Ok(m) = std::fs::metadata(&wal_path) {
                if m.len() > 0 {
                    return Err(RecoveryError::Checkpoint(format!(
                        "no checkpoint found but a non-empty wal.log ({} bytes) exists; \
                         refusing to replay an orphan WAL onto the seed graph — move or \
                         delete {} to reinitialize",
                        m.len(),
                        wal_path.display()
                    )));
                }
            }
            // Fresh directory: seed it so the state is self-contained.
            write_checkpoint_file(&cur, &seed, 0).map_err(|e| RecoveryError::Io(e.to_string()))?;
            report.checkpoint = "fresh".into();
            (seed, 0)
        } else {
            let mut tried = Vec::new();
            let mut loaded = None;
            for (name, path) in [("cur", &cur), ("prev", &prev)] {
                if !path.exists() {
                    continue;
                }
                match std::fs::read_to_string(path) {
                    Ok(text) => match checkpoint_from_str(&text) {
                        Ok((g, seq)) => {
                            if name != "cur" {
                                report.warnings.push(format!(
                                    "checkpoint.cur unusable; recovered from checkpoint.prev (seq {seq})"
                                ));
                            }
                            report.checkpoint = name.into();
                            loaded = Some((g, seq));
                            break;
                        }
                        Err(e) => tried.push(format!("{name}: {e}")),
                    },
                    Err(e) => tried.push(format!("{name}: {e}")),
                }
            }
            loaded.ok_or_else(|| RecoveryError::Checkpoint(tried.join("; ")))?
        };
        report.checkpoint_seq = ckpt_seq;

        // Replay the WAL suffix.
        let mut graph = graph;
        let mut seq = ckpt_seq;
        if wal_path.exists() {
            let buf = std::fs::read(&wal_path).map_err(|e| RecoveryError::Io(e.to_string()))?;
            let (batches, good_end, stop) = decode_frames(&buf);
            for b in batches {
                if b.seq <= ckpt_seq {
                    report.frames_skipped += 1;
                    continue;
                }
                apply_batch(&mut graph, &b.ops).map_err(|e| RecoveryError::Apply {
                    seq: b.seq,
                    msg: e.to_string(),
                })?;
                report.frames_replayed += 1;
                report.ops_replayed += b.ops.len() as u64;
                seq = b.seq;
            }
            if !stop.is_clean() {
                let dropped = (buf.len() - good_end) as u64;
                report.truncated_bytes = dropped;
                report.warnings.push(match &stop {
                    FrameStop::TornTail => {
                        format!("torn WAL tail: truncated {dropped} bytes")
                    }
                    FrameStop::BadCrc => {
                        format!("WAL CRC mismatch at offset {good_end}: truncated {dropped} bytes")
                    }
                    FrameStop::BadPayload => format!(
                        "undecodable WAL payload at offset {good_end}: truncated {dropped} bytes"
                    ),
                    FrameStop::BadSeq { prev, got } => format!(
                        "WAL sequence regression ({prev} -> {got}) at offset {good_end}: truncated {dropped} bytes"
                    ),
                    FrameStop::Eof => unreachable!(),
                });
                let f = OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .map_err(|e| RecoveryError::Io(e.to_string()))?;
                f.set_len(good_end as u64).map_err(|e| RecoveryError::Io(e.to_string()))?;
                f.sync_all().map_err(|e| RecoveryError::Io(e.to_string()))?;
            }
        }
        stats.replayed.store(report.frames_replayed, Ordering::Relaxed);

        let wal = WalWriter::open(&wal_path, policy, stats.clone())
            .map_err(|e| RecoveryError::Io(e.to_string()))?;
        Ok((
            LiveGraph {
                published: RwLock::new((Arc::new(graph), seq)),
                writer: Mutex::new(WriterState {
                    seq,
                    wal: Some(wal),
                    dir: Some(dir.to_path_buf()),
                    batches_since_ckpt: 0,
                    checkpoint_every,
                    cur_ckpt_seq: (report.checkpoint != "prev").then_some(ckpt_seq),
                }),
                stats,
            },
            report,
        ))
    }

    /// Pins the current snapshot. Cheap (one Arc clone); the returned
    /// graph never changes.
    pub fn snapshot(&self) -> Arc<Graph> {
        self.published.read().unwrap().0.clone()
    }

    /// Pins the current snapshot together with the seq of the last batch
    /// folded into it. Pass that seq to [`LiveGraph::commit_checked`] to
    /// reject a batch whose ids were resolved against a snapshot a
    /// concurrent writer has since superseded.
    pub fn snapshot_pinned(&self) -> (Arc<Graph>, u64) {
        let p = self.published.read().unwrap();
        (p.0.clone(), p.1)
    }

    /// WAL counters for `/metrics`.
    pub fn stats(&self) -> &Arc<WalStats> {
        &self.stats
    }

    /// Whether commits are durable (opened with a data dir).
    pub fn is_durable(&self) -> bool {
        self.writer.lock().unwrap().dir.is_some()
    }

    /// Applies `ops` as one atomic, durable batch and publishes the new
    /// snapshot. Readers holding older snapshots are unaffected.
    ///
    /// No concurrency check: the batch's ids are trusted to be current.
    /// Use [`LiveGraph::commit_checked`] when the batch was built by
    /// resolving ids against a pinned snapshot that concurrent writers
    /// may have superseded.
    pub fn commit(&self, ops: &[MutationOp]) -> Result<(BatchSummary, u64), CommitError> {
        self.commit_checked(ops, None)
    }

    /// Like [`LiveGraph::commit`], but first verifies (inside the writer
    /// lock) that the published seq still equals `expected_seq` from
    /// [`LiveGraph::snapshot_pinned`]. A mismatch means another commit
    /// landed after the batch's ids were resolved — deletions re-densify
    /// ids and insertions shift the provisional-id base, so stale ids
    /// can silently name the wrong entities even when still in range —
    /// and the batch is rejected with [`CommitError::Conflict`].
    pub fn commit_checked(
        &self,
        ops: &[MutationOp],
        expected_seq: Option<u64>,
    ) -> Result<(BatchSummary, u64), CommitError> {
        let mut w = self.writer.lock().unwrap();
        if let Some(pinned) = expected_seq {
            if w.seq != pinned {
                return Err(CommitError::Conflict { pinned, committed: w.seq });
            }
        }
        if ops.is_empty() {
            return Ok((BatchSummary::default(), w.seq));
        }
        // Apply to a private clone; the published snapshot stays intact
        // until the batch is durable. The clone shares its storage with
        // the snapshot and the batch copies only the chunks it writes to
        // (see `crate::graph`), so this costs O(batch) — except for a
        // batch that deletes, which compacts in O(graph).
        let started = Instant::now();
        let mut next = Graph::clone(&self.snapshot());
        let summary =
            apply_batch(&mut next, ops).map_err(|e| CommitError::Graph(e.to_string()))?;
        add_elapsed(&self.stats.apply_ns, started);
        let seq = w.seq + 1;
        if let Some(wal) = w.wal.as_mut() {
            wal.append(seq, ops).map_err(|e| CommitError::Wal(e.to_string()))?;
        } else if w.dir.is_some() {
            // Durable store whose writer was lost (failed trim reopen):
            // refuse rather than silently committing without durability.
            return Err(CommitError::Wal(
                "WAL writer unavailable after an earlier failure; reopen the data dir".into(),
            ));
        }
        w.seq = seq;
        *self.published.write().unwrap() = (Arc::new(next), seq);
        w.batches_since_ckpt += 1;
        if w.checkpoint_every > 0 && w.batches_since_ckpt >= w.checkpoint_every {
            // A failed periodic checkpoint leaves a longer WAL, not an
            // inconsistent store — but say so instead of hiding it. (A
            // trim/reopen failure also drops the writer, so the next
            // commit fails loudly and the server degrades to read-only.)
            if let Err(e) = self.checkpoint_locked(&mut w) {
                eprintln!("gsql: warning: periodic checkpoint failed (WAL retained): {e}");
            }
        }
        Ok((summary, seq))
    }

    /// fsyncs pending WAL appends (drain barrier).
    pub fn flush(&self) -> Result<(), CommitError> {
        let mut w = self.writer.lock().unwrap();
        if let Some(wal) = w.wal.as_mut() {
            wal.sync().map_err(|e| CommitError::Wal(e.to_string()))?;
        }
        Ok(())
    }

    /// Forces a checkpoint now (clean shutdown, tests).
    pub fn checkpoint_now(&self) -> Result<(), CommitError> {
        let mut w = self.writer.lock().unwrap();
        self.checkpoint_locked(&mut w)
    }

    /// Checkpoints the published snapshot (a no-op in memory), counting
    /// it and its duration in [`WalStats`] when it succeeds.
    fn checkpoint_locked(&self, w: &mut WriterState) -> Result<(), CommitError> {
        let Some(dir) = w.dir.clone() else {
            return Ok(());
        };
        let started = Instant::now();
        Self::write_checkpoint(w, &dir, &self.snapshot())?;
        self.stats.checkpoints.fetch_add(1, Ordering::Relaxed);
        add_elapsed(&self.stats.checkpoint_ns, started);
        Ok(())
    }

    /// Checkpoint protocol (under the writer lock):
    /// 1. fsync the WAL — everything up to `seq` is durable first.
    /// 2. Atomically write the checkpoint to a temp name.
    /// 3. Rotate cur → prev, temp → cur, fsync the directory.
    /// 4. Trim WAL frames already covered by **prev** (so prev + the
    ///    remaining log can still fully recover if cur is lost).
    fn write_checkpoint(w: &mut WriterState, dir: &Path, snap: &Graph) -> Result<(), CommitError> {
        let io = |e: std::io::Error| CommitError::Wal(e.to_string());
        if let Some(wal) = w.wal.as_mut() {
            wal.sync().map_err(|e| CommitError::Wal(e.to_string()))?;
        }
        let cur = dir.join(CKPT_CUR);
        let prev = dir.join(CKPT_PREV);
        // Write the new checkpoint under a temp name first, then rotate:
        // cur -> prev must happen before tmp -> cur so a crash between
        // the renames still leaves one complete checkpoint behind.
        let tmp = dir.join("checkpoint.new");
        write_checkpoint_file(&tmp, snap, w.seq).map_err(io)?;
        // A `cur` this process neither loaded nor wrote (recovery fell
        // back to `prev`) counts as seq 0: it is rotated, nothing is
        // trimmed on its account.
        let prev_seq = if cur.exists() {
            std::fs::rename(&cur, &prev).map_err(io)?;
            w.cur_ckpt_seq.unwrap_or(0)
        } else {
            0
        };
        std::fs::rename(&tmp, &cur).map_err(io)?;
        w.cur_ckpt_seq = Some(w.seq);
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        w.batches_since_ckpt = 0;

        // Trim: drop frames prev already covers. Rewrite-and-rename so a
        // crash mid-trim leaves either the old or the new log.
        let wal_path = dir.join(WAL_FILE);
        if let Ok(buf) = std::fs::read(&wal_path) {
            let (batches, _, _) = decode_frames(&buf);
            let mut kept = Vec::new();
            for b in &batches {
                if b.seq > prev_seq {
                    kept.extend_from_slice(&encode_frame(b.seq, &b.ops));
                }
            }
            if kept.len() < buf.len() {
                let Some(old) = w.wal.take() else { return Ok(()) };
                let policy = old.policy;
                let stats = old.stats.clone();
                // Close the old fd BEFORE the rename lands: once the new
                // wal.log is in place, the old fd names an unlinked inode
                // and any append through it would be acknowledged yet
                // unrecoverable. Everything is already fsynced (step 1)
                // and we hold the writer lock, so no append can slip in.
                drop(old);
                let trim = loader::atomic_write_bytes(&wal_path, &kept);
                // Always reopen from the path — whether or not the trim
                // rename happened, the path names the authoritative log.
                // On reopen failure leave `w.wal` empty: commit() then
                // refuses durable writes instead of silently appending
                // nowhere or dropping durability.
                w.wal = Some(WalWriter::open(&wal_path, policy, stats).map_err(io)?);
                trim.map_err(io)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::sales_graph;
    use crate::loader::save_to_string;

    fn mk_ops(g: &Graph, n: usize) -> Vec<MutationOp> {
        let vt = g.schema().vertex_type_id("Customer").unwrap();
        let nattrs = g.schema().vertex_type(vt).attrs.len();
        (0..n)
            .map(|i| MutationOp::AddVertex {
                vtype: vt,
                attrs: (0..nattrs)
                    .map(|k| if k == 0 { Value::from(format!("p{i}")) } else { Value::Int(i as i64) })
                    .collect(),
            })
            .collect()
    }

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_round_trip() {
        let g = sales_graph();
        let ops = mk_ops(&g, 3);
        let mut buf = encode_frame(7, &ops);
        buf.extend_from_slice(&encode_frame(8, &ops[..1]));
        let (batches, end, stop) = decode_frames(&buf);
        assert_eq!(stop, FrameStop::Eof);
        assert_eq!(end, buf.len());
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].seq, 7);
        assert_eq!(batches[0].ops, ops);
        assert_eq!(batches[1].ops, ops[..1]);
    }

    #[test]
    fn value_codec_round_trips_every_storable_type() {
        let vals = vec![
            Value::Null,
            Value::Bool(true),
            Value::Int(-42),
            Value::Double(3.25),
            Value::Double(f64::NAN),
            Value::Str("héllo\tworld".into()),
            Value::DateTime(1_700_000_000),
            Value::Vertex(VertexId(9)),
            Value::Edge(EdgeId(3)),
        ];
        let mut buf = Vec::new();
        encode_values(&mut buf, &vals);
        let mut c = Cur { buf: &buf, pos: 0 };
        let back = decode_values(&mut c).unwrap();
        assert!(c.done());
        // NaN round-trips bit-exactly; Value's total equality handles it.
        assert_eq!(back, vals);
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let g = sales_graph();
        let ops = mk_ops(&g, 2);
        let mut buf = encode_frame(1, &ops);
        let whole = buf.len();
        buf.extend_from_slice(&encode_frame(2, &ops));
        buf.truncate(whole + 5); // mid-header of frame 2
        let (batches, end, stop) = decode_frames(&buf);
        assert_eq!(stop, FrameStop::TornTail);
        assert_eq!(end, whole);
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn bit_flip_stops_at_last_good_frame() {
        let g = sales_graph();
        let ops = mk_ops(&g, 2);
        let mut buf = encode_frame(1, &ops);
        let first = buf.len();
        buf.extend_from_slice(&encode_frame(2, &ops));
        buf[first + 12] ^= 0x40; // flip a payload bit in frame 2
        let (batches, end, stop) = decode_frames(&buf);
        assert_eq!(stop, FrameStop::BadCrc);
        assert_eq!(end, first);
        assert_eq!(batches.len(), 1);
    }

    #[test]
    fn seq_regression_is_detected() {
        let g = sales_graph();
        let ops = mk_ops(&g, 1);
        let mut buf = encode_frame(5, &ops);
        buf.extend_from_slice(&encode_frame(5, &ops));
        let (batches, _, stop) = decode_frames(&buf);
        assert_eq!(batches.len(), 1);
        assert_eq!(stop, FrameStop::BadSeq { prev: 5, got: 5 });
    }

    #[test]
    fn byte_soup_never_panics() {
        // A deterministic xorshift so the test needs no RNG dependency.
        let mut s = 0x9E37_79B9u32;
        let mut soup = Vec::with_capacity(4096);
        for _ in 0..4096 {
            s ^= s << 13;
            s ^= s >> 17;
            s ^= s << 5;
            soup.push(s as u8);
        }
        for start in 0..64 {
            let _ = decode_frames(&soup[start..]);
        }
        let _ = decode_frames(&[]);
        let _ = decode_frames(&[0xFF; 7]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem
    fn live_graph_durability_round_trip() {
        let dir = std::env::temp_dir().join(format!("gsql-wal-rt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = sales_graph();
        let (live, rep) =
            LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        assert_eq!(rep.checkpoint, "fresh");
        let ops = mk_ops(&live.snapshot(), 4);
        live.commit(&ops).unwrap();
        live.commit(&[MutationOp::DeleteVertex { v: VertexId(0) }]).unwrap();
        let expect = save_to_string(&live.snapshot()).unwrap();
        drop(live);

        // Reopen: checkpoint(seq 0) + 2 replayed frames == same bytes.
        let (live2, rep2) = LiveGraph::open(&dir, seed, FlushPolicy::Always, 0).unwrap();
        assert_eq!(rep2.frames_replayed, 2);
        assert_eq!(save_to_string(&live2.snapshot()).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// One new customer who buys and likes existing products: edges of
    /// both types at vertices that already have some, so where the new
    /// adjacency entries land depends on the (type, direction, edge id)
    /// order being restored, not on arrival order.
    fn attach_ops(g: &Graph, tag: i64) -> Vec<MutationOp> {
        let s = g.schema();
        let bought = s.edge_type_id("Bought").unwrap();
        let likes = s.edge_type_id("Likes").unwrap();
        let new = VertexId(g.vertex_count() as u32);
        let product = g.vertices_of_type(s.vertex_type_id("Product").unwrap())[0];
        let mut ops = mk_ops(g, 1);
        ops.push(MutationOp::AddEdge { etype: likes, src: new, dst: product, attrs: vec![] });
        ops.push(MutationOp::AddEdge {
            etype: bought,
            src: new,
            dst: product,
            attrs: vec![Value::Int(tag), Value::Double(0.5)],
        });
        ops.push(MutationOp::AddEdge { etype: likes, src: VertexId(0), dst: product, attrs: vec![] });
        ops
    }

    fn adjacency_lists(g: &Graph) -> Vec<Vec<crate::graph::AdjEntry>> {
        g.vertices().map(|v| g.adjacency(v).to_vec()).collect()
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem
    fn checkpoint_trims_wal_and_prev_still_recovers() {
        let dir = std::env::temp_dir().join(format!("gsql-wal-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = sales_graph();
        let (live, _) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        live.commit(&attach_ops(&live.snapshot(), 1)).unwrap();
        live.checkpoint_now().unwrap();
        live.commit(&attach_ops(&live.snapshot(), 2)).unwrap();
        let expect = save_to_string(&live.snapshot()).unwrap();
        let expect_adjacency = adjacency_lists(&live.snapshot());
        assert_eq!(live.stats().checkpoints.load(Ordering::Relaxed), 1);
        assert!(live.stats().checkpoint_ns.load(Ordering::Relaxed) > 0);
        drop(live);

        // Recovery is history-independent: the live graph took two
        // incremental commits; `cur` (seq 1) + one replayed frame and
        // `prev` (seq 0) + two replayed frames must both give its bytes
        // and its adjacency order, entry for entry.
        let (live1, rep) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        assert_eq!((rep.checkpoint.as_str(), rep.frames_replayed), ("cur", 1));
        assert_eq!(save_to_string(&live1.snapshot()).unwrap(), expect);
        assert_eq!(adjacency_lists(&live1.snapshot()), expect_adjacency);
        drop(live1);

        // cur checkpoint (seq 1) exists; delete it to force the prev path.
        assert!(dir.join(CKPT_PREV).exists());
        std::fs::remove_file(dir.join(CKPT_CUR)).unwrap();
        let (live2, rep) = LiveGraph::open(&dir, seed, FlushPolicy::Always, 0).unwrap();
        assert_eq!((rep.checkpoint.as_str(), rep.frames_replayed), ("prev", 2));
        assert_eq!(save_to_string(&live2.snapshot()).unwrap(), expect);
        assert_eq!(adjacency_lists(&live2.snapshot()), expect_adjacency);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem
    fn truncated_checkpoint_falls_back_to_prev() {
        let dir = std::env::temp_dir().join(format!("gsql-wal-tc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = sales_graph();
        let (live, _) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        live.commit(&mk_ops(&live.snapshot(), 2)).unwrap();
        live.checkpoint_now().unwrap();
        let expect = save_to_string(&live.snapshot()).unwrap();
        drop(live);

        // Truncate cur mid-file — simulates a crash during a non-atomic
        // save. Recovery must fall back to prev + WAL replay.
        let cur = dir.join(CKPT_CUR);
        let text = std::fs::read(&cur).unwrap();
        std::fs::write(&cur, &text[..text.len() / 2]).unwrap();
        let (live2, rep) = LiveGraph::open(&dir, seed, FlushPolicy::Always, 0).unwrap();
        assert_eq!(rep.checkpoint, "prev");
        assert!(!rep.warnings.is_empty());
        assert_eq!(save_to_string(&live2.snapshot()).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem
    fn checkpoint_after_prev_fallback_trims_nothing() {
        let dir = std::env::temp_dir().join(format!("gsql-wal-pf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = sales_graph();
        let (live, _) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        live.commit(&mk_ops(&live.snapshot(), 1)).unwrap();
        live.checkpoint_now().unwrap();
        live.commit(&mk_ops(&live.snapshot(), 1)).unwrap();
        let expect = save_to_string(&live.snapshot()).unwrap();
        drop(live);

        // cur (seq 1) keeps its header and loses half its body.
        let cur = dir.join(CKPT_CUR);
        let text = std::fs::read(&cur).unwrap();
        std::fs::write(&cur, &text[..text.len() / 2]).unwrap();
        let (live2, rep) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        assert_eq!((rep.checkpoint.as_str(), rep.frames_replayed), ("prev", 2));
        // The damaged file's header does not decide what the trim drops.
        live2.checkpoint_now().unwrap();
        let (frames, _, _) = decode_frames(&std::fs::read(dir.join(WAL_FILE)).unwrap());
        assert_eq!(frames.len(), 2);
        drop(live2);
        let (live3, rep) = LiveGraph::open(&dir, seed, FlushPolicy::Always, 0).unwrap();
        assert_eq!((rep.checkpoint.as_str(), rep.frames_replayed), ("cur", 0));
        assert_eq!(save_to_string(&live3.snapshot()).unwrap(), expect);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem
    fn torn_wal_tail_truncates_to_durable_prefix() {
        let dir = std::env::temp_dir().join(format!("gsql-wal-tt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = sales_graph();
        let (live, _) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        live.commit(&mk_ops(&live.snapshot(), 1)).unwrap();
        let durable = save_to_string(&live.snapshot()).unwrap();
        live.commit(&mk_ops(&live.snapshot(), 1)).unwrap();
        drop(live);

        // Chop 3 bytes off the log tail: the second frame is torn.
        let wal = dir.join(WAL_FILE);
        let buf = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &buf[..buf.len() - 3]).unwrap();
        let (live2, rep) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        assert_eq!(rep.frames_replayed, 1);
        assert!(rep.truncated_bytes > 0);
        assert_eq!(save_to_string(&live2.snapshot()).unwrap(), durable);
        drop(live2);
        // The truncated tail is gone from disk too: a third open replays
        // the same single frame with no further warnings.
        let (_, rep3) = LiveGraph::open(&dir, seed, FlushPolicy::Always, 0).unwrap();
        assert_eq!(rep3.frames_replayed, 1);
        assert!(rep3.warnings.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_commit_publishes_snapshots() {
        let live = LiveGraph::in_memory(sales_graph());
        let before = live.snapshot();
        let ops = mk_ops(&before, 2);
        let (summary, seq) = live.commit(&ops).unwrap();
        assert_eq!(summary.inserted_vertices, 2);
        assert_eq!(seq, 1);
        let after = live.snapshot();
        assert_eq!(after.vertex_count(), before.vertex_count() + 2);
        // The pinned pre-commit snapshot is untouched.
        assert_eq!(before.vertex_count() + 2, after.vertex_count());
    }

    #[test]
    fn commit_checked_rejects_stale_pins() {
        let live = LiveGraph::in_memory(sales_graph());
        let (snap, pinned) = live.snapshot_pinned();
        assert_eq!(pinned, 0);
        let ops = mk_ops(&snap, 1);
        // A racing writer lands first.
        live.commit(&ops).unwrap();
        // The batch built against the pinned snapshot must be rejected —
        // its ids were resolved against seq 0, not seq 1.
        match live.commit_checked(&ops, Some(pinned)) {
            Err(CommitError::Conflict { pinned: 0, committed: 1 }) => {}
            other => panic!("expected Conflict, got {other:?}"),
        }
        // The rejection published nothing.
        let (_, seq) = live.snapshot_pinned();
        assert_eq!(seq, 1);
        // A fresh pin commits fine.
        let (snap2, pinned2) = live.snapshot_pinned();
        live.commit_checked(&mk_ops(&snap2, 1), Some(pinned2)).unwrap();
        assert_eq!(live.snapshot_pinned().1, 2);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem
    fn orphan_wal_without_checkpoint_is_a_recovery_error() {
        let dir = std::env::temp_dir().join(format!("gsql-wal-orphan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let seed = sales_graph();
        let (live, _) = LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0).unwrap();
        live.commit(&mk_ops(&live.snapshot(), 1)).unwrap();
        drop(live);

        // Lose both checkpoints but keep the WAL: its frames were
        // recorded against a base we no longer have.
        std::fs::remove_file(dir.join(CKPT_CUR)).unwrap();
        assert!(!dir.join(CKPT_PREV).exists());
        match LiveGraph::open(&dir, seed.clone(), FlushPolicy::Always, 0) {
            Err(RecoveryError::Checkpoint(msg)) => assert!(msg.contains("orphan")),
            other => panic!("expected Checkpoint error, got {:?}", other.map(|(_, r)| r)),
        }

        // An empty wal.log is fine: that's a genuinely fresh store.
        std::fs::write(dir.join(WAL_FILE), b"").unwrap();
        let (_, rep) = LiveGraph::open(&dir, seed, FlushPolicy::Always, 0).unwrap();
        assert_eq!(rep.checkpoint, "fresh");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem + /dev/full
    fn failed_append_poisons_the_writer() {
        // /dev/full accepts the open but fails every write with ENOSPC.
        let dev_full = Path::new("/dev/full");
        if !dev_full.exists() {
            return; // non-Linux host: nothing to exercise
        }
        let g = sales_graph();
        let ops = mk_ops(&g, 1);
        let stats = Arc::new(WalStats::default());
        let mut w = WalWriter::open(dev_full, FlushPolicy::Always, stats).unwrap();
        let first = w.append(1, &ops).unwrap_err();
        assert!(!first.to_string().contains("poisoned"));
        // A partial frame may be on disk: the writer must refuse further
        // appends (a later success would land after the garbage and be
        // silently dropped by recovery) until reopened.
        let second = w.append(2, &ops).unwrap_err();
        assert!(second.to_string().contains("poisoned"), "{second}");
        assert!(w.sync().unwrap_err().to_string().contains("poisoned"));
    }

    /// Group commit, counted: `n` commits fsync `n` times under `always`,
    /// ⌊n/64⌋ under `every=64`, none under `never`; the drain barrier
    /// (`flush`) adds one when appends are left unsynced. Same bytes.
    #[test]
    #[cfg_attr(miri, ignore)] // real filesystem
    fn fsyncs_per_policy_are_exact_and_bytes_identical() {
        const N: u64 = 130;
        let seed = sales_graph();
        let mut bytes = Vec::new();
        for (name, policy, commit_fsyncs, barrier) in [
            ("always", FlushPolicy::Always, N, 0),
            ("every64", FlushPolicy::EveryN(64), N / 64, 1),
            ("never", FlushPolicy::OnFlushOnly, 0, 1),
        ] {
            let dir = std::env::temp_dir().join(format!("gsql-wal-{name}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let (live, _) = LiveGraph::open(&dir, seed.clone(), policy, 0).unwrap();
            for _ in 0..N {
                live.commit(&mk_ops(&live.snapshot(), 1)).unwrap();
            }
            let fsyncs = || live.stats().fsyncs.load(Ordering::Relaxed);
            assert_eq!(fsyncs(), commit_fsyncs, "{name}");
            live.flush().unwrap();
            assert_eq!(fsyncs(), commit_fsyncs + barrier, "{name} after the drain barrier");
            bytes.push(live.stats().bytes.load(Ordering::Relaxed));
            let _ = std::fs::remove_dir_all(&dir);
        }
        assert!(bytes[0] > 0);
        assert_eq!(bytes, [bytes[0]; 3]);
    }

    #[test]
    fn flush_policy_parsing() {
        assert_eq!(FlushPolicy::parse("always"), Some(FlushPolicy::Always));
        assert_eq!(FlushPolicy::parse("never"), Some(FlushPolicy::OnFlushOnly));
        assert_eq!(FlushPolicy::parse("every=8"), Some(FlushPolicy::EveryN(8)));
        assert_eq!(FlushPolicy::parse("4"), Some(FlushPolicy::EveryN(4)));
        assert_eq!(FlushPolicy::parse("every=0"), None);
        assert_eq!(FlushPolicy::parse("sometimes"), None);
    }
}
