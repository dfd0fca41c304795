//! Streaming ingestion of externally recorded memory-access traces.
//!
//! The `ECDPXTRC` container carries the same information as a resident
//! [`Trace`], but framed so the op stream can be replayed *without ever
//! being fully resident*: a header (magic, version, instruction count),
//! the sparse non-zero 4 KB pages of the initial memory image, and then a
//! flat run of fixed-width op records. [`ExternalTrace::open`] validates
//! the complete framing in one bounded-memory pass (computing the
//! provenance content hash as a side effect), and replay pulls records
//! through [`StreamedOps`] — an [`OpSource`] holding only the bounded
//! span of ops the engine's instruction window can still reference.
//!
//! Wire layout (all integers little-endian), behind the
//! [`crate::frame`] header [`XTRACE_HEADER`]:
//!
//! ```text
//! header       12 bytes b"ECDPXTRC", version u32 (currently 1), no schema
//! instructions u64      sum of per-op instruction counts
//! page_count   u32
//! pages        page_count × (index u32, 4096 raw bytes)
//! op_count     u64
//! records      op_count × 18 bytes:
//!              kind u8 (0 load, 1 store, 2 compute), lds u8 (0/1),
//!              pc u32, addr u32, value u32, dep u32
//! ```
//!
//! A text form of the same op stream exists for hand-written tests; it
//! lives in the `workloads` loader (which owns line/column diagnostics)
//! and converts to this binary framing via [`XtraceWriter`].

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use sim_mem::SimMemory;

use crate::frame::{fnv1a_update, FrameError, FrameReader, Header, FNV1A_BASIS};
use crate::trace::{OpKind, OpSource, Trace, TraceOp, NO_DEP};

/// The `ECDPXTRC` file header: magic and wire version, no schema field.
pub const XTRACE_HEADER: Header = Header {
    magic: *b"ECDPXTRC",
    version: 1,
    schema: None,
};

const PAGE_BYTES: usize = 4096;
const RECORD_BYTES: usize = 18;
/// Records fetched per refill of the streaming buffer.
pub const STREAM_CHUNK_OPS: usize = 1024;
/// Ops kept buffered *behind* the read frontier. The engine never
/// revisits an index more than one instruction window behind its
/// dispatch cursor, so this bounds the resident span for any
/// configuration with `window_size <= STREAM_LOOKBACK_OPS`.
pub const STREAM_LOOKBACK_OPS: usize = 4096;

/// Failure opening or validating an external trace file.
#[derive(Debug)]
pub enum XtraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Structurally invalid file; the message names the offending record
    /// and field.
    Malformed(String),
}

impl std::fmt::Display for XtraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XtraceError::Io(e) => write!(f, "i/o error: {e}"),
            XtraceError::Malformed(m) => write!(f, "malformed external trace: {m}"),
        }
    }
}

impl std::error::Error for XtraceError {}

impl From<io::Error> for XtraceError {
    fn from(e: io::Error) -> Self {
        // A short read while parsing a sized structure is a framing error,
        // not an environment failure.
        if e.kind() == io::ErrorKind::UnexpectedEof {
            XtraceError::Malformed("file truncated mid-structure".to_string())
        } else {
            XtraceError::Io(e)
        }
    }
}

/// Reader that folds every consumed byte into the FNV-1a content hash —
/// the provenance hash recorded in run manifests so a result-store hit
/// can prove it matched the same trace.
struct HashingReader<R> {
    inner: R,
    fnv: u64,
    /// Bytes consumed so far (for error offsets).
    offset: u64,
}

impl<R: Read> HashingReader<R> {
    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact(buf)?;
        self.fnv = fnv1a_update(self.fnv, buf);
        self.offset += buf.len() as u64;
        Ok(())
    }

    fn u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

fn decode_record(bytes: &[u8]) -> Result<TraceOp, FrameError> {
    let mut r = FrameReader::new(bytes);
    let kind = match r.u8()? {
        0 => OpKind::Load,
        1 => OpKind::Store,
        _ => OpKind::Compute,
    };
    let lds = r.u8()? != 0;
    Ok(TraceOp {
        pc: r.u32()?,
        addr: r.u32()?,
        value: r.u32()?,
        dep: r.u32()?,
        kind,
        lds,
    })
}

fn encode_record(op: &TraceOp, out: &mut [u8; RECORD_BYTES]) {
    out[0] = match op.kind {
        OpKind::Load => 0,
        OpKind::Store => 1,
        OpKind::Compute => 2,
    };
    out[1] = u8::from(op.lds);
    out[2..6].copy_from_slice(&op.pc.to_le_bytes());
    out[6..10].copy_from_slice(&op.addr.to_le_bytes());
    out[10..14].copy_from_slice(&op.value.to_le_bytes());
    out[14..18].copy_from_slice(&op.dep.to_le_bytes());
}

/// Instruction count an op contributes (compute records carry theirs in
/// `value`; memory ops are one instruction).
fn instrs_of(op: &TraceOp) -> u64 {
    match op.kind {
        OpKind::Compute => u64::from(op.value),
        _ => 1,
    }
}

/// Validates one record and returns its instruction contribution.
fn check_record(bytes: &[u8], idx: u64) -> Result<u64, XtraceError> {
    let bad = |what: String| Err(XtraceError::Malformed(format!("record {idx}: {what}")));
    if bytes[0] > 2 {
        return bad(format!(
            "field `kind` is {}, expected 0 (load), 1 (store) or 2 (compute)",
            bytes[0]
        ));
    }
    if bytes[1] > 1 {
        return bad(format!("field `lds` is {}, expected 0 or 1", bytes[1]));
    }
    let op =
        decode_record(bytes).map_err(|e| XtraceError::Malformed(format!("record {idx}: {e}")))?;
    match op.kind {
        OpKind::Compute => {
            if op.value == 0 {
                // A zero-instruction compute op would stall the dispatch
                // budget loop without making progress.
                return bad("field `value` of a compute record must be >= 1".to_string());
            }
            if op.lds {
                return bad("field `lds` must be 0 on a compute record".to_string());
            }
            if op.dep != NO_DEP {
                return bad(format!(
                    "field `dep` must be 0xffffffff on a compute record, got {}",
                    op.dep
                ));
            }
        }
        OpKind::Load | OpKind::Store => {
            if op.dep != NO_DEP && u64::from(op.dep) >= idx {
                return bad(format!("field `dep` ({}) must name an earlier op", op.dep));
            }
        }
    }
    Ok(instrs_of(&op))
}

/// Bounded-window [`OpSource`] over the record section of an open
/// `ECDPXTRC` file.
///
/// Keeps at most [`STREAM_LOOKBACK_OPS`] + [`STREAM_CHUNK_OPS`] decoded
/// ops resident regardless of trace length. The file was fully validated
/// at [`ExternalTrace::open`] time, so mid-replay read failures (the file
/// changed or vanished underneath the run) panic with the path rather
/// than returning an error through the hot path.
pub struct StreamedOps {
    file: BufReader<File>,
    path: PathBuf,
    data_start: u64,
    total: usize,
    /// Absolute index of `buf[0]`.
    base: usize,
    buf: Vec<TraceOp>,
    high_water: usize,
}

impl StreamedOps {
    fn refill(&mut self) {
        // Drop ops the engine can no longer reference before buffering
        // more, keeping the resident span bounded.
        if self.buf.len() >= STREAM_LOOKBACK_OPS + STREAM_CHUNK_OPS {
            let drop = self.buf.len() - STREAM_LOOKBACK_OPS;
            self.buf.drain(..drop);
            self.base += drop;
        }
        let next = self.base + self.buf.len();
        let want = STREAM_CHUNK_OPS.min(self.total - next);
        debug_assert!(want > 0, "refill past the end of the trace");
        let mut bytes = vec![0u8; want * RECORD_BYTES];
        self.file.read_exact(&mut bytes).unwrap_or_else(|e| {
            panic!(
                "external trace {} failed mid-stream at op {next}: {e}",
                self.path.display()
            )
        });
        for rec in bytes.chunks_exact(RECORD_BYTES) {
            self.buf
                .push(decode_record(rec).expect("validated at open"));
        }
        self.high_water = self.high_water.max(self.buf.len());
    }

    fn rewind(&mut self) {
        self.file
            .seek(SeekFrom::Start(self.data_start))
            .unwrap_or_else(|e| {
                panic!("external trace {} rewind failed: {e}", self.path.display())
            });
        self.buf.clear();
        self.base = 0;
    }
}

impl OpSource for StreamedOps {
    fn total_ops(&self) -> usize {
        self.total
    }

    fn op(&mut self, idx: usize) -> TraceOp {
        assert!(idx < self.total, "op index {idx} past trace end");
        assert!(
            idx >= self.base,
            "streamed trace lookback exceeded (op {idx}, window base {}): \
             the instruction window is larger than STREAM_LOOKBACK_OPS ({})",
            self.base,
            STREAM_LOOKBACK_OPS
        );
        while idx >= self.base + self.buf.len() {
            self.refill();
        }
        self.buf[idx - self.base]
    }
}

impl std::fmt::Debug for StreamedOps {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamedOps")
            .field("path", &self.path)
            .field("total", &self.total)
            .field("base", &self.base)
            .field("buffered", &self.buf.len())
            .finish()
    }
}

/// An opened, validated external trace: the resident initial memory image
/// plus a bounded-window stream over the op records.
///
/// Replay with [`crate::Machine::run_streamed`]; results are
/// bit-identical to materializing the same ops in a resident [`Trace`].
pub struct ExternalTrace {
    initial_memory: SimMemory,
    instructions: u64,
    content_hash: u64,
    ops: StreamedOps,
}

impl ExternalTrace {
    /// Opens and validates an `ECDPXTRC` file.
    ///
    /// Validation is a single streaming pass — magic, version, page
    /// framing, every op record (field ranges, dependence ordering), the
    /// header instruction count against the records' sum, and exact
    /// end-of-file — so a malformed file is rejected up front with a
    /// record-level diagnostic and replay can treat the stream as
    /// trusted. Peak memory is bounded regardless of file size. The
    /// FNV-1a hash of the whole file is computed during the same pass.
    ///
    /// # Errors
    ///
    /// [`XtraceError::Malformed`] for framing/semantic violations,
    /// [`XtraceError::Io`] for environment failures.
    pub fn open(path: impl AsRef<Path>) -> Result<ExternalTrace, XtraceError> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let mut r = HashingReader {
            inner: BufReader::new(file),
            fnv: FNV1A_BASIS,
            offset: 0,
        };

        let mut header = [0u8; XTRACE_HEADER.encoded_len()];
        r.read_exact(&mut header)?;
        XTRACE_HEADER
            .check(&mut FrameReader::new(&header))
            .map_err(|e| XtraceError::Malformed(format!("ECDPXTRC header: {e}")))?;
        let instructions = r.u64()?;

        let mut initial_memory = SimMemory::new();
        let page_count = r.u32()?;
        let mut page = vec![0u8; PAGE_BYTES];
        for p in 0..page_count {
            let idx = r.u32()?;
            let base = idx.checked_mul(PAGE_BYTES as u32).ok_or_else(|| {
                XtraceError::Malformed(format!("page {p}: field `index` {idx} overflows"))
            })?;
            r.read_exact(&mut page)?;
            for (i, &b) in page.iter().enumerate() {
                if b != 0 {
                    initial_memory.write_u8(base + i as u32, b);
                }
            }
        }

        let op_count = r.u64()?;
        let data_start = r.offset;
        let mut summed: u64 = 0;
        let mut bytes = vec![0u8; RECORD_BYTES * STREAM_CHUNK_OPS];
        let mut done: u64 = 0;
        while done < op_count {
            let n = STREAM_CHUNK_OPS.min((op_count - done) as usize);
            let chunk = &mut bytes[..n * RECORD_BYTES];
            r.read_exact(chunk)?;
            for (k, rec) in chunk.chunks_exact(RECORD_BYTES).enumerate() {
                summed += check_record(rec, done + k as u64)?;
            }
            done += n as u64;
        }
        if summed != instructions {
            return Err(XtraceError::Malformed(format!(
                "header field `instructions` is {instructions}, records sum to {summed}"
            )));
        }
        let mut tail = [0u8; 1];
        match r.inner.read(&mut tail)? {
            0 => {}
            _ => {
                return Err(XtraceError::Malformed(format!(
                    "trailing bytes after the final record (op_count says {op_count})"
                )))
            }
        }
        let content_hash = r.fnv;

        let mut file = r.inner;
        file.seek(SeekFrom::Start(data_start))?;
        Ok(ExternalTrace {
            initial_memory,
            instructions,
            content_hash,
            ops: StreamedOps {
                file,
                path,
                data_start,
                total: op_count as usize,
                base: 0,
                buf: Vec::new(),
                high_water: 0,
            },
        })
    }

    /// The initial memory image (resident; sparse pages only).
    pub fn initial_memory(&self) -> &SimMemory {
        &self.initial_memory
    }

    /// Total instruction count, as validated against the records.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Number of op records.
    pub fn op_count(&self) -> usize {
        self.ops.total
    }

    /// FNV-1a hash of the whole file — the provenance identity recorded
    /// in manifests and the result store.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// High-water mark of decoded ops resident in the streaming buffer
    /// (bounded by [`STREAM_LOOKBACK_OPS`] + [`STREAM_CHUNK_OPS`]
    /// regardless of trace length).
    pub fn max_resident_ops(&self) -> usize {
        self.ops.high_water
    }

    /// Splits into the parts a replay needs, rewinding the op stream to
    /// the first record.
    pub(crate) fn replay_parts(&mut self) -> (&SimMemory, &mut StreamedOps) {
        self.ops.rewind();
        (&self.initial_memory, &mut self.ops)
    }
}

impl std::fmt::Debug for ExternalTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExternalTrace")
            .field("ops", &self.ops.total)
            .field("instructions", &self.instructions)
            .field("content_hash", &format_args!("{:#018x}", self.content_hash))
            .finish()
    }
}

/// Incremental `ECDPXTRC` writer.
///
/// Writes the header and memory image up front with placeholder counts,
/// appends op records one at a time, and patches the instruction and op
/// counts on [`XtraceWriter::finish`] — so arbitrarily long traces can be
/// produced without ever materializing the op stream.
pub struct XtraceWriter<W: Write + Seek> {
    w: BufWriter<W>,
    instructions: u64,
    op_count: u64,
    count_pos: u64,
}

/// Byte offset of the `instructions` field, right after the header.
const INSTRUCTIONS_POS: u64 = XTRACE_HEADER.encoded_len() as u64;

impl<W: Write + Seek> XtraceWriter<W> {
    /// Starts a trace file: header, memory image, placeholder counts.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn new(w: W, initial_memory: &SimMemory) -> io::Result<Self> {
        let mut w = BufWriter::new(w);
        w.write_all(&XTRACE_HEADER.to_bytes())?;
        w.write_all(&0u64.to_le_bytes())?; // instructions, patched in finish()
        let mut pages: Vec<(u32, [u8; PAGE_BYTES])> = Vec::new();
        for page_idx in initial_memory.resident_page_indices() {
            let base = page_idx * PAGE_BYTES as u32;
            let mut buf = [0u8; PAGE_BYTES];
            for (i, b) in buf.iter_mut().enumerate() {
                *b = initial_memory.read_u8(base + i as u32);
            }
            if buf.iter().any(|&b| b != 0) {
                pages.push((page_idx, buf));
            }
        }
        w.write_all(&(pages.len() as u32).to_le_bytes())?;
        for (idx, buf) in &pages {
            w.write_all(&idx.to_le_bytes())?;
            w.write_all(buf)?;
        }
        let count_pos = INSTRUCTIONS_POS + 8 + 4 + pages.len() as u64 * (4 + PAGE_BYTES as u64);
        w.write_all(&0u64.to_le_bytes())?; // op_count, patched in finish()
        Ok(XtraceWriter {
            w,
            instructions: 0,
            op_count: 0,
            count_pos,
        })
    }

    /// Appends one op record.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn push(&mut self, op: &TraceOp) -> io::Result<()> {
        let mut rec = [0u8; RECORD_BYTES];
        encode_record(op, &mut rec);
        self.w.write_all(&rec)?;
        self.op_count += 1;
        self.instructions += instrs_of(op);
        Ok(())
    }

    /// Patches the header counts and flushes.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn finish(self) -> io::Result<W> {
        let mut w = self
            .w
            .into_inner()
            .map_err(io::IntoInnerError::into_error)?;
        w.seek(SeekFrom::Start(INSTRUCTIONS_POS))?;
        w.write_all(&self.instructions.to_le_bytes())?;
        w.seek(SeekFrom::Start(self.count_pos))?;
        w.write_all(&self.op_count.to_le_bytes())?;
        w.flush()?;
        Ok(w)
    }
}

/// Serializes a resident [`Trace`] into the external streaming format
/// (the fixture path for tests and for exporting built-in workloads).
///
/// # Errors
///
/// Propagates writer I/O errors.
pub fn write_external(trace: &Trace, w: impl Write + Seek) -> io::Result<()> {
    let mut xw = XtraceWriter::new(w, &trace.initial_memory)?;
    for op in &trace.ops {
        xw.push(op)?;
    }
    xw.finish()?;
    Ok(())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;
    use crate::{Machine, MachineConfig};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ecdp-stream-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn chase_trace(n: u32) -> Trace {
        let mut tb = TraceBuilder::new(SimMemory::new());
        let base = sim_mem::layout::HEAP_BASE;
        let stride = 4096u32;
        tb.setup(|m| {
            for i in 0..n {
                let next = if i + 1 < n {
                    base + (i + 1) * stride
                } else {
                    0
                };
                m.write_u32(base + i * stride, next);
            }
        });
        let (mut cur, mut dep) = (base, None);
        while cur != 0 {
            let (next, id) = tb.load(0x400, cur, dep);
            tb.compute(3);
            cur = next;
            dep = Some(id);
        }
        tb.finish()
    }

    fn write_file(trace: &Trace, name: &str) -> PathBuf {
        let path = tmp(name);
        write_external(trace, File::create(&path).unwrap()).unwrap();
        path
    }

    #[test]
    fn streamed_replay_is_bit_identical_to_resident() {
        let trace = chase_trace(300);
        let path = write_file(&trace, "identical.xtrc");
        let resident = Machine::new(MachineConfig::default()).run(&trace).unwrap();
        let mut xt = ExternalTrace::open(&path).unwrap();
        assert_eq!(xt.op_count(), trace.ops.len());
        assert_eq!(xt.instructions(), trace.instructions);
        let streamed = Machine::new(MachineConfig::default())
            .run_streamed(&mut xt)
            .unwrap();
        assert_eq!(resident, streamed, "streamed replay must be bit-identical");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn reruns_of_the_same_stream_match() {
        let trace = chase_trace(150);
        let path = write_file(&trace, "rerun.xtrc");
        let mut xt = ExternalTrace::open(&path).unwrap();
        let a = Machine::new(MachineConfig::default())
            .run_streamed(&mut xt)
            .unwrap();
        let b = Machine::new(MachineConfig::default())
            .run_streamed(&mut xt)
            .unwrap();
        assert_eq!(a, b, "rewind + replay must be deterministic");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let trace = chase_trace(40);
        let path = write_file(&trace, "hash-a.xtrc");
        let h1 = ExternalTrace::open(&path).unwrap().content_hash();
        let h2 = ExternalTrace::open(&path).unwrap().content_hash();
        assert_eq!(h1, h2);
        let other = chase_trace(41);
        let path_b = write_file(&other, "hash-b.xtrc");
        assert_ne!(h1, ExternalTrace::open(&path_b).unwrap().content_hash());
        std::fs::remove_file(path).unwrap();
        std::fs::remove_file(path_b).unwrap();
    }

    #[test]
    fn resident_span_stays_bounded() {
        // Many more ops than the streaming window: the buffer high-water
        // mark must stay at the fixed bound, not scale with the trace.
        let path = tmp("bounded.xtrc");
        let mem = SimMemory::new();
        let mut xw = XtraceWriter::new(File::create(&path).unwrap(), &mem).unwrap();
        let total = 10 * (STREAM_LOOKBACK_OPS + STREAM_CHUNK_OPS);
        for i in 0..total {
            xw.push(&TraceOp {
                pc: 0x500,
                addr: sim_mem::layout::HEAP_BASE + ((i as u32) % 64) * 64,
                value: 0,
                dep: NO_DEP,
                kind: OpKind::Load,
                lds: false,
            })
            .unwrap();
        }
        xw.finish().unwrap();
        let mut xt = ExternalTrace::open(&path).unwrap();
        let stats = Machine::new(MachineConfig::default())
            .run_streamed(&mut xt)
            .unwrap();
        assert_eq!(stats.retired_instructions, total as u64);
        assert!(
            xt.max_resident_ops() <= STREAM_LOOKBACK_OPS + STREAM_CHUNK_OPS,
            "resident span {} exceeds the streaming bound",
            xt.max_resident_ops()
        );
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("badmagic.xtrc");
        std::fs::write(&path, b"NOTTRACE________________").unwrap();
        let err = ExternalTrace::open(&path).unwrap_err();
        assert!(matches!(err, XtraceError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("magic"), "{err}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn bad_records_are_rejected_with_field_names() {
        let cases: [(&str, TraceOp, &str); 3] = [
            (
                "fwd-dep",
                TraceOp {
                    pc: 1,
                    addr: 8,
                    value: 0,
                    dep: 7,
                    kind: OpKind::Load,
                    lds: true,
                },
                "`dep`",
            ),
            (
                "zero-compute",
                TraceOp {
                    pc: 0,
                    addr: 0,
                    value: 0,
                    dep: NO_DEP,
                    kind: OpKind::Compute,
                    lds: false,
                },
                "`value`",
            ),
            (
                "lds-compute",
                TraceOp {
                    pc: 0,
                    addr: 0,
                    value: 4,
                    dep: NO_DEP,
                    kind: OpKind::Compute,
                    lds: true,
                },
                "`lds`",
            ),
        ];
        for (name, op, needle) in cases {
            let path = tmp(&format!("bad-{name}.xtrc"));
            let mut xw =
                XtraceWriter::new(File::create(&path).unwrap(), &SimMemory::new()).unwrap();
            xw.push(&op).unwrap();
            xw.finish().unwrap();
            let err = ExternalTrace::open(&path).unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("record 0"), "{name}: {msg}");
            assert!(msg.contains(needle), "{name}: {msg}");
            std::fs::remove_file(path).unwrap();
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let trace = chase_trace(20);
        let path = write_file(&trace, "frame.xtrc");
        let bytes = std::fs::read(&path).unwrap();

        let trunc = tmp("frame-trunc.xtrc");
        std::fs::write(&trunc, &bytes[..bytes.len() - 5]).unwrap();
        let err = ExternalTrace::open(&trunc).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");

        let trail = tmp("frame-trail.xtrc");
        let mut extended = bytes.clone();
        extended.extend_from_slice(b"junk");
        std::fs::write(&trail, &extended).unwrap();
        let err = ExternalTrace::open(&trail).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");

        let wrong_sum = tmp("frame-sum.xtrc");
        let mut patched = bytes;
        patched[INSTRUCTIONS_POS as usize] ^= 1;
        std::fs::write(&wrong_sum, &patched).unwrap();
        let err = ExternalTrace::open(&wrong_sum).unwrap_err();
        assert!(err.to_string().contains("`instructions`"), "{err}");

        for p in [path, trunc, trail, wrong_sum] {
            std::fs::remove_file(p).unwrap();
        }
    }
}
