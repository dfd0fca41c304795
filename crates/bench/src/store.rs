//! Persistent, content-addressed result store for sweep cells.
//!
//! A [`ResultStore`] is an append-only record log holding one
//! [`RunRecord`] per committed sweep cell, keyed by (workload, input,
//! system, machine-config hash). It is the only way one process reuses
//! another's results: the log survives crashes at record granularity
//! and is shared across runs, so a sweep restarted on the same store
//! (`run_all --store`, `sweepd --store`) skips every committed cell.
//!
//! [`ResultStore::committed`] is the one reuse rule. A cell is served
//! only when a record exists under the current machine-config hash *and*
//! its `workload_hash` matches the registry's current
//! [`workload_provenance`] — a record computed from an older version of
//! a `.wl` spec or trace file is a miss, not a hit. A served record is
//! byte-identical to the committed one apart from its `store: "hit"`
//! disposition.
//!
//! # Wire format
//!
//! The file header is the `sim_core::frame` [`Header`] [`STORE_HEADER`];
//! only the record frame and its resync scan are this module's own:
//!
//! ```text
//! file   := header record*
//! header := magic "ECDPRSLT" (8B) | version u32 LE | schema u32 LE
//! record := record-magic u32 LE | payload-len u32 LE
//!           | crc32(payload) u32 LE | payload
//! ```
//!
//! The payload is the record's compact manifest JSON (see
//! [`RunRecord::to_json`]). The record magic bytes are all ≥ 0x80, so
//! they can never appear inside the ASCII JSON payload — which is what
//! makes the corruption *resync* scan below reliable.
//!
//! # Recovery
//!
//! [`ResultStore::open`] never fails and never aborts a sweep. Every
//! malformed region of the log maps to a [`RecoveryEvent`]:
//!
//! * a **torn tail** (record frame extending past end-of-file — the
//!   signature of a crash mid-append) is truncated away;
//! * a **corrupt record** (bad magic, CRC mismatch, unparseable payload)
//!   is *quarantined*: the scanner resynchronizes at the next record
//!   magic and the damaged cell simply drops out of the store, so the
//!   supervisor heals it with a cold run that re-appends the result;
//! * a **rejected header** (wrong magic or unknown version) quarantines
//!   the whole file aside as `<name>.quarantined` and starts fresh.
//!
//! Any recovery event triggers a *heal*: the surviving records are
//! rewritten through `sim_core::frame::atomic_write`, so the next open
//! sees a clean log.
//!
//! # Degradation
//!
//! An append that fails (disk full, permission error, injected
//! [`FaultAction::Enospc`]…) flips the store into **memory-only** mode:
//! results keep accumulating in memory — the sweep loses durability, not
//! progress — and every later append reports
//! [`AppendDisposition::Degraded`] so manifests record the downgrade.
//!
//! # Fault injection
//!
//! [`ResultStore::append`] takes the cell's injected store fault (the
//! `store_fault_for_attempt` lens of [`crate::FaultPlan`]) and routes it
//! through the real write path: torn writes persist half a frame and
//! error, short writes persist half a frame and *succeed* (silent
//! truncation), `enospc` errors without writing, `corrupt-record` flips
//! a committed payload byte on disk. The chaos tests drive recovery with
//! exactly the byte patterns a real crash would leave.

use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use sim_core::frame::{atomic_write, crc32, FrameReader, FrameWriter, Header};
use sim_core::Json;

use crate::fault::FaultAction;
use crate::manifest::{config_hash, workload_provenance, RunRecord};
use crate::sweep::SweepCell;

/// The ECDPRSLT file header. The version is bumped when the framing
/// itself changes, the schema when the record JSON shape changes
/// incompatibly.
pub const STORE_HEADER: Header = Header {
    magic: *b"ECDPRSLT",
    version: 1,
    schema: Some(1),
};

/// Per-record frame magic. Every byte is ≥ 0x80 so the resync scan can
/// never match inside an ASCII JSON payload.
pub const RECORD_MAGIC: u32 = u32::from_le_bytes([0xEC, 0xD9, 0xBE, 0xA7]);

/// Sanity bound on a single payload; anything larger is corruption.
const MAX_PAYLOAD: u32 = 1 << 24;

/// Bytes of record framing before the payload.
const FRAME_LEN: usize = 12;

/// Identity of one committed result. It leaves out workload provenance,
/// which [`ResultStore::committed`] checks on the stored record instead.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CellKey {
    /// Workload name.
    pub workload: String,
    /// Lower-cased input label.
    pub input: String,
    /// System label.
    pub system: String,
    /// Machine-config hash the run used.
    pub config_hash: u64,
}

impl CellKey {
    /// The key of a manifest record.
    pub fn of(r: &RunRecord) -> Self {
        CellKey {
            workload: r.workload.clone(),
            input: r.input.clone(),
            system: r.system.clone(),
            config_hash: r.config_hash,
        }
    }

    /// The key a sweep cell commits under in this build (the current
    /// machine-config hash).
    pub fn for_cell(cell: &SweepCell) -> Self {
        CellKey {
            workload: cell.workload.clone(),
            input: cell.input_label(),
            system: cell.system.label().to_string(),
            config_hash: config_hash(),
        }
    }
}

/// One thing startup recovery had to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// A trailing partial frame was cut off (crash mid-append).
    TailTruncated {
        /// File offset the log was truncated to.
        offset: u64,
        /// Bytes discarded.
        bytes: u64,
    },
    /// A mid-log record failed validation and was skipped.
    RecordQuarantined {
        /// Offset of the bad region.
        offset: u64,
        /// Bytes skipped before resynchronization.
        bytes: u64,
        /// Human-readable cause (`"crc mismatch"`, `"bad magic"`, …).
        reason: String,
    },
    /// The file header was unusable; the whole file was set aside.
    HeaderRejected {
        /// Human-readable cause.
        reason: String,
    },
}

impl RecoveryEvent {
    /// JSON form for the heal-report artifact.
    pub fn to_json(&self) -> Json {
        match self {
            RecoveryEvent::TailTruncated { offset, bytes } => Json::obj([
                ("event", Json::Str("tail-truncated".to_string())),
                ("offset", Json::Num(*offset as f64)),
                ("bytes", Json::Num(*bytes as f64)),
            ]),
            RecoveryEvent::RecordQuarantined {
                offset,
                bytes,
                reason,
            } => Json::obj([
                ("event", Json::Str("record-quarantined".to_string())),
                ("offset", Json::Num(*offset as f64)),
                ("bytes", Json::Num(*bytes as f64)),
                ("reason", Json::Str(reason.clone())),
            ]),
            RecoveryEvent::HeaderRejected { reason } => Json::obj([
                ("event", Json::Str("header-rejected".to_string())),
                ("reason", Json::Str(reason.clone())),
            ]),
        }
    }
}

/// What [`ResultStore::open`] found and fixed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid records loaded (after later-wins dedup this may exceed the
    /// store's entry count).
    pub records_loaded: usize,
    /// Everything recovery had to repair, in file order.
    pub events: Vec<RecoveryEvent>,
    /// True when the log was rewritten (temp + rename) after repairs.
    pub healed: bool,
}

impl RecoveryReport {
    /// Number of quarantined mid-log records.
    pub fn quarantined(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, RecoveryEvent::RecordQuarantined { .. }))
            .count()
    }

    /// True when the log needed no repair at all.
    pub fn is_clean(&self) -> bool {
        self.events.is_empty()
    }

    /// JSON form for the heal-report artifact.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("records_loaded", Json::Num(self.records_loaded as f64)),
            ("quarantined", Json::Num(self.quarantined() as f64)),
            ("healed", Json::Bool(self.healed)),
            (
                "events",
                Json::Arr(self.events.iter().map(RecoveryEvent::to_json).collect()),
            ),
        ])
    }
}

/// How an append landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppendDisposition {
    /// The record was framed and flushed to the log (as far as the
    /// process can tell — an injected short write also reports this).
    Appended,
    /// The store is in memory-only mode; the reason is the first write
    /// failure that degraded it.
    Degraded(String),
}

/// What [`ResultStore::compact`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Live records written to the compacted log.
    pub live_records: usize,
    /// File size before, in bytes.
    pub bytes_before: u64,
    /// File size after, in bytes.
    pub bytes_after: u64,
}

struct StoreInner {
    entries: HashMap<CellKey, RunRecord>,
    recovery: RecoveryReport,
    /// `Some(reason)` once the store has fallen back to memory-only.
    degraded: Option<String>,
}

/// A crash-safe on-disk cache of committed sweep results.
///
/// Shared by reference across sweep workers; all state sits behind one
/// mutex (appends are rare — one per simulated cell).
pub struct ResultStore {
    path: PathBuf,
    inner: Mutex<StoreInner>,
}

fn frame(record: &RunRecord) -> Vec<u8> {
    let payload = record.to_json().to_string_compact().into_bytes();
    let mut w = FrameWriter::new();
    w.u32(RECORD_MAGIC);
    w.u32(payload.len() as u32);
    w.u32(crc32(&payload));
    w.raw(&payload);
    w.into_bytes()
}

/// Scans `bytes` from `from` for the next record magic; `None` when the
/// rest of the buffer has no plausible frame start.
fn resync(bytes: &[u8], from: usize) -> Option<usize> {
    let magic = RECORD_MAGIC.to_le_bytes();
    (from..bytes.len().saturating_sub(3)).find(|&i| bytes[i..i + 4] == magic)
}

/// Parses the log body after a valid header. Returns the surviving
/// records in file order and the repair events.
fn scan_records(bytes: &[u8]) -> (Vec<RunRecord>, Vec<RecoveryEvent>) {
    let mut records = Vec::new();
    let mut events = Vec::new();
    let mut off = STORE_HEADER.encoded_len();
    while off < bytes.len() {
        let mut r = FrameReader::new(&bytes[off..]);
        let (Ok(magic), Ok(len), Ok(crc)) = (r.u32(), r.u32(), r.u32()) else {
            // A frame header that does not fit is a torn tail.
            events.push(RecoveryEvent::TailTruncated {
                offset: off as u64,
                bytes: (bytes.len() - off) as u64,
            });
            break;
        };
        // A payload running past EOF is a short write when a later frame
        // start exists (real data follows), else a genuine torn tail.
        let payload = if magic != RECORD_MAGIC {
            Err("bad record magic")
        } else if len > MAX_PAYLOAD {
            Err("implausible payload length")
        } else {
            r.take(len as usize).map_err(|_| "truncated payload")
        };
        let payload = match payload {
            Ok(payload) => payload,
            Err(reason) => match resync(bytes, off + 1) {
                Some(next) => {
                    events.push(RecoveryEvent::RecordQuarantined {
                        offset: off as u64,
                        bytes: (next - off) as u64,
                        reason: reason.to_string(),
                    });
                    off = next;
                    continue;
                }
                None => {
                    events.push(RecoveryEvent::TailTruncated {
                        offset: off as u64,
                        bytes: (bytes.len() - off) as u64,
                    });
                    break;
                }
            },
        };
        let valid = crc32(payload) == crc;
        let parsed = if valid {
            std::str::from_utf8(payload)
                .ok()
                .and_then(|t| Json::parse(t).ok())
                .as_ref()
                .and_then(RunRecord::from_json)
        } else {
            None
        };
        match parsed {
            Some(r) => {
                records.push(r);
                off += FRAME_LEN + payload.len();
            }
            None => {
                let reason = if valid {
                    "unparseable payload"
                } else {
                    "crc mismatch"
                };
                let next = resync(bytes, off + 1).unwrap_or(bytes.len());
                events.push(RecoveryEvent::RecordQuarantined {
                    offset: off as u64,
                    bytes: (next - off) as u64,
                    reason: reason.to_string(),
                });
                off = next;
            }
        }
    }
    (records, events)
}

/// Atomically replaces `path` with a fresh log of `records`.
fn rewrite(path: &Path, records: &[&RunRecord]) -> std::io::Result<u64> {
    let mut bytes = STORE_HEADER.to_bytes();
    for r in records {
        bytes.extend_from_slice(&frame(r));
    }
    atomic_write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

impl ResultStore {
    /// Opens (or prepares to create) the store at `path`, running
    /// startup recovery. Never fails: an unreadable or unusable file
    /// degrades the store instead of aborting the sweep.
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let mut recovery = RecoveryReport::default();
        let mut degraded = None;
        let mut entries = HashMap::new();

        let bytes = match std::fs::read(&path) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                degraded = Some(format!("unreadable store: {e}"));
                None
            }
        };
        if let Some(bytes) = bytes.filter(|b| !b.is_empty()) {
            // An empty file is a store that was opened but never
            // appended to; it is treated as fresh.
            if let Err(e) = STORE_HEADER.check(&mut FrameReader::new(&bytes)) {
                recovery.events.push(RecoveryEvent::HeaderRejected {
                    reason: format!("file header: {e}"),
                });
                // Preserve the evidence, then start fresh.
                let _ = std::fs::rename(&path, path.with_extension("quarantined"));
            } else {
                let (records, events) = scan_records(&bytes);
                recovery.records_loaded = records.len();
                recovery.events = events;
                for r in records {
                    // Later records supersede earlier ones (append-only
                    // log: re-appends after a heal come last).
                    entries.insert(CellKey::of(&r), r);
                }
            }
        }
        if !recovery.is_clean() {
            let live: Vec<&RunRecord> = entries.values().collect();
            match rewrite(&path, &live) {
                Ok(_) => recovery.healed = true,
                Err(e) => degraded = Some(format!("heal rewrite failed: {e}")),
            }
        }
        ResultStore {
            path,
            inner: Mutex::new(StoreInner {
                entries,
                recovery,
                degraded,
            }),
        }
    }

    /// The store path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The startup-recovery report.
    pub fn recovery(&self) -> RecoveryReport {
        self.lock().recovery.clone()
    }

    /// `Some(reason)` when the store has fallen back to memory-only.
    pub fn degraded(&self) -> Option<String> {
        self.lock().degraded.clone()
    }

    /// Number of distinct committed cells.
    pub fn len(&self) -> usize {
        self.lock().entries.len()
    }

    /// True when no cell has ever committed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The committed record for a cell, if any.
    pub fn get(
        &self,
        workload: &str,
        input: &str,
        system: &str,
        config_hash: u64,
    ) -> Option<RunRecord> {
        let key = CellKey {
            workload: workload.to_string(),
            input: input.to_string(),
            system: system.to_string(),
            config_hash,
        };
        self.lock().entries.get(&key).cloned()
    }

    /// The committed result a sweep may reuse for `cell`, marked
    /// `store: "hit"`: a record under the current machine-config hash
    /// whose workload provenance matches the registry's current one.
    /// `None` means the cell must be simulated.
    pub fn committed(&self, cell: &SweepCell) -> Option<RunRecord> {
        let mut record = self.lock().entries.get(&CellKey::for_cell(cell)).cloned()?;
        if record.workload_hash != workload_provenance(&cell.workload) {
            return None;
        }
        record.store = Some("hit".to_string());
        Some(record)
    }

    /// Commits one result: memory first (so degradation never loses the
    /// run), then a framed append to the log, with `fault` routed
    /// through the write path (see the module docs).
    pub fn append(&self, record: &RunRecord, fault: Option<FaultAction>) -> AppendDisposition {
        let mut inner = self.lock();
        inner.entries.insert(CellKey::of(record), record.clone());
        if let Some(reason) = &inner.degraded {
            return AppendDisposition::Degraded(reason.clone());
        }
        match self.append_to_log(record, fault) {
            Ok(()) => AppendDisposition::Appended,
            Err(e) => {
                let reason = e.to_string();
                eprintln!("[store] append failed ({reason}); continuing in memory-only mode");
                inner.degraded = Some(reason.clone());
                AppendDisposition::Degraded(reason)
            }
        }
    }

    /// The durable half of [`ResultStore::append`]. Called with the
    /// store mutex held, which serializes the read-modify-write of the
    /// injected `corrupt-record` fault too.
    fn append_to_log(&self, record: &RunRecord, fault: Option<FaultAction>) -> std::io::Result<()> {
        if let Some(FaultAction::Enospc) = fault {
            return Err(std::io::Error::other(
                "injected: no space left on device (ENOSPC)",
            ));
        }
        if let Some(FaultAction::Stall(ms)) = fault {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        if file.metadata()?.len() == 0 {
            file.write_all(&STORE_HEADER.to_bytes())?;
        }
        let buf = frame(record);
        match fault {
            Some(FaultAction::TornWrite) => {
                // Crash mid-write(2): half a frame lands, the append
                // errors. Startup recovery truncates the torn tail.
                file.write_all(&buf[..buf.len() / 2])?;
                file.flush()?;
                return Err(std::io::Error::other("injected: torn write"));
            }
            Some(FaultAction::ShortWrite) => {
                // Silent truncation: half a frame lands and the append
                // *succeeds*. Only the per-record CRC catches this.
                file.write_all(&buf[..buf.len() / 2])?;
                file.flush()?;
                return Ok(());
            }
            _ => {}
        }
        file.write_all(&buf)?;
        file.flush()?;
        if let Some(FaultAction::CorruptRecord) = fault {
            // Flip one committed payload byte in place; the next open's
            // CRC check quarantines the record.
            drop(file);
            let mut bytes = std::fs::read(&self.path)?;
            let mid = bytes.len() - buf.len() + FRAME_LEN + (buf.len() - FRAME_LEN) / 2;
            bytes[mid] ^= 0xFF;
            std::fs::write(&self.path, &bytes)?;
        }
        Ok(())
    }

    /// Offline compaction: rewrites the log (temp + rename) with exactly
    /// one frame per live cell, dropping superseded and healed-over
    /// regions. A no-op in memory-only mode.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; the in-memory state is unaffected.
    pub fn compact(&self) -> std::io::Result<CompactStats> {
        let inner = self.lock();
        if inner.degraded.is_some() {
            return Ok(CompactStats::default());
        }
        let bytes_before = std::fs::metadata(&self.path).map(|m| m.len()).unwrap_or(0);
        let mut live: Vec<(&CellKey, &RunRecord)> = inner.entries.iter().collect();
        live.sort_by(|(a, _), (b, _)| {
            (&a.workload, &a.input, &a.system).cmp(&(&b.workload, &b.input, &b.system))
        });
        let records: Vec<&RunRecord> = live.into_iter().map(|(_, r)| r).collect();
        let bytes_after = rewrite(&self.path, &records)?;
        Ok(CompactStats {
            live_records: records.len(),
            bytes_before,
            bytes_after,
        })
    }

    /// Status summary (recovery report, entry count, degradation) for
    /// the quarantine/heal report artifact CI uploads.
    pub fn status_json(&self) -> Json {
        let inner = self.lock();
        Json::obj([
            ("path", Json::Str(self.path.to_string_lossy().into_owned())),
            ("version", Json::Num(f64::from(STORE_HEADER.version))),
            (
                "schema",
                Json::Num(f64::from(STORE_HEADER.schema.unwrap_or(0))),
            ),
            ("entries", Json::Num(inner.entries.len() as f64)),
            (
                "degraded",
                match &inner.degraded {
                    Some(reason) => Json::Str(reason.clone()),
                    None => Json::Bool(false),
                },
            ),
            ("recovery", inner.recovery.to_json()),
        ])
    }

    /// Where [`ResultStore::write_report`] puts the status artifact:
    /// `<store path>.report.json` next to the log.
    pub fn report_path(&self) -> PathBuf {
        let mut name = self
            .path
            .file_name()
            .map_or_else(|| "store".into(), std::ffi::OsStr::to_os_string);
        name.push(".report.json");
        self.path.with_file_name(name)
    }

    /// Writes [`ResultStore::status_json`] to [`ResultStore::report_path`]
    /// and returns the path. This is the quarantine/heal artifact that
    /// `run_all`, the `sweepd` health endpoint and CI all share — callers
    /// never rebuild the report by hand.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_report(&self) -> std::io::Result<PathBuf> {
        let path = self.report_path();
        atomic_write(&path, self.status_json().to_string_pretty())?;
        Ok(path)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl std::fmt::Debug for ResultStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("ResultStore")
            .field("path", &self.path)
            .field("entries", &inner.entries.len())
            .field("degraded", &inner.degraded)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use ecdp::system::{SystemKind, SystemSpec};
    use sim_core::RunStats;
    use workloads::InputSet;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ecdp-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn record(workload: &str, wall_ms: f64) -> RunRecord {
        let stats = RunStats {
            cycles: 1000 + workload.len() as u64,
            retired_instructions: 17,
            ..RunStats::default()
        };
        RunRecord::new(
            workload,
            InputSet::Test,
            &SystemSpec::of(SystemKind::StreamOnly),
            &stats,
            wall_ms,
        )
    }

    #[test]
    fn roundtrips_across_open() {
        let dir = temp_dir("roundtrip");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        assert!(store.is_empty());
        assert_eq!(
            store.append(&record("mst", 1.0), None),
            AppendDisposition::Appended
        );
        assert_eq!(
            store.append(&record("health", 2.0), None),
            AppendDisposition::Appended
        );
        drop(store);

        let store = ResultStore::open(&path);
        assert!(store.recovery().is_clean());
        assert_eq!(store.len(), 2);
        let r = store.record_for_test("mst");
        assert_eq!(r.stats.cycles, 1003);
        let _ = std::fs::remove_dir_all(&dir);
    }

    impl ResultStore {
        fn record_for_test(&self, workload: &str) -> RunRecord {
            self.get(
                workload,
                "test",
                SystemKind::StreamOnly.label(),
                config_hash(),
            )
            .unwrap()
        }
    }

    #[test]
    fn later_records_supersede_earlier_ones() {
        let dir = temp_dir("supersede");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        store.append(&record("mst", 1.0), None);
        store.append(&record("mst", 9.0), None);
        assert_eq!(store.len(), 1);
        drop(store);
        let store = ResultStore::open(&path);
        assert_eq!(store.len(), 1);
        assert!((store.record_for_test("mst").wall_ms - 9.0).abs() < 1e-9);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_and_healed() {
        let dir = temp_dir("torn");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        store.append(&record("mst", 1.0), None);
        store.append(&record("health", 2.0), None);
        drop(store);
        // Crash mid-append: chop the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        let cut = bytes.len() - 20;
        std::fs::write(&path, &bytes[..cut]).unwrap();

        let store = ResultStore::open(&path);
        let rec = store.recovery();
        assert_eq!(rec.records_loaded, 1);
        assert!(rec.healed);
        assert!(matches!(
            rec.events[..],
            [RecoveryEvent::TailTruncated { .. }]
        ));
        assert!(store
            .get("health", "test", "stream", config_hash())
            .is_none());
        drop(store);
        // The heal rewrote a clean log.
        assert!(ResultStore::open(&path).recovery().is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_quarantines_one_record() {
        let dir = temp_dir("midlog");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        store.append(&record("mst", 1.0), None);
        let first_end = std::fs::metadata(&path).unwrap().len() as usize;
        store.append(&record("health", 2.0), None);
        drop(store);
        // Flip a payload byte of the *first* record.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[(STORE_HEADER.encoded_len() + FRAME_LEN + first_end) / 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let store = ResultStore::open(&path);
        let rec = store.recovery();
        assert_eq!(rec.records_loaded, 1, "the second record survives");
        assert_eq!(rec.quarantined(), 1);
        assert!(rec.healed);
        assert_eq!(store.record_for_test("health").wall_ms, 2.0);
        assert!(store.get("mst", "test", "stream", config_hash()).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_header_quarantines_the_whole_file() {
        let dir = temp_dir("header");
        let path = dir.join("results.store");
        std::fs::write(&path, b"not a store file at all").unwrap();
        let store = ResultStore::open(&path);
        assert!(store.is_empty());
        assert!(matches!(
            store.recovery().events[..],
            [RecoveryEvent::HeaderRejected { .. }]
        ));
        assert!(path.with_extension("quarantined").exists(), "evidence kept");
        // The store is usable (healed to a fresh log).
        assert_eq!(
            store.append(&record("mst", 1.0), None),
            AppendDisposition::Appended
        );
        drop(store);
        assert_eq!(ResultStore::open(&path).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_drive_the_real_recovery_paths() {
        let dir = temp_dir("faults");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);

        // Short write: reports success, silently truncated on disk.
        assert_eq!(
            store.append(&record("mst", 1.0), Some(FaultAction::ShortWrite)),
            AppendDisposition::Appended
        );
        // A later good append lands after the short frame.
        assert_eq!(
            store.append(&record("health", 2.0), None),
            AppendDisposition::Appended
        );
        // Corrupt record: committed then damaged in place.
        assert_eq!(
            store.append(&record("em3d", 3.0), Some(FaultAction::CorruptRecord)),
            AppendDisposition::Appended
        );
        drop(store);

        let store = ResultStore::open(&path);
        let rec = store.recovery();
        assert_eq!(rec.records_loaded, 1, "only the clean record survives");
        assert!(
            rec.quarantined() >= 2,
            "short + corrupt quarantined: {rec:?}"
        );
        assert!(rec.healed);
        assert_eq!(store.record_for_test("health").wall_ms, 2.0);

        // Torn write: persists a partial frame and errors; the store
        // degrades to memory-only but keeps serving the result.
        let d = store.append(&record("bh", 4.0), Some(FaultAction::TornWrite));
        assert!(matches!(d, AppendDisposition::Degraded(_)), "{d:?}");
        assert!(store.degraded().is_some());
        assert!(
            store.record_for_test("bh").wall_ms == 4.0,
            "memory keeps it"
        );
        // Later appends stay memory-only.
        assert!(matches!(
            store.append(&record("tsp", 5.0), None),
            AppendDisposition::Degraded(_)
        ));
        drop(store);
        // Next open truncates the torn tail; bh/tsp were never durable.
        let store = ResultStore::open(&path);
        assert!(store.recovery().healed);
        assert_eq!(store.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn enospc_degrades_without_touching_the_log() {
        let dir = temp_dir("enospc");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        store.append(&record("mst", 1.0), None);
        let len_before = std::fs::metadata(&path).unwrap().len();
        let d = store.append(&record("health", 2.0), Some(FaultAction::Enospc));
        assert!(
            matches!(d, AppendDisposition::Degraded(ref r) if r.contains("ENOSPC")),
            "{d:?}"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len_before);
        assert_eq!(store.len(), 2, "memory still has both");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_drops_superseded_frames() {
        let dir = temp_dir("compact");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        for i in 0..5 {
            store.append(&record("mst", f64::from(i)), None);
        }
        store.append(&record("health", 9.0), None);
        let stats = store.compact().unwrap();
        assert_eq!(stats.live_records, 2);
        assert!(stats.bytes_after < stats.bytes_before, "{stats:?}");
        drop(store);
        let store = ResultStore::open(&path);
        assert!(store.recovery().is_clean());
        assert_eq!(store.len(), 2);
        assert!(
            (store.record_for_test("mst").wall_ms - 4.0).abs() < 1e-9,
            "latest wins"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stall_fault_delays_but_commits() {
        let dir = temp_dir("stall");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        let t0 = std::time::Instant::now();
        assert_eq!(
            store.append(&record("mst", 1.0), Some(FaultAction::Stall(30))),
            AppendDisposition::Appended
        );
        assert!(t0.elapsed() >= std::time::Duration::from_millis(30));
        drop(store);
        assert_eq!(ResultStore::open(&path).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_json_reports_recovery_and_degradation() {
        let dir = temp_dir("status");
        let path = dir.join("results.store");
        let store = ResultStore::open(&path);
        store.append(&record("mst", 1.0), None);
        let j = store.status_json();
        assert_eq!(j.get("entries").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("degraded"), Some(&Json::Bool(false)));
        assert!(j.get("recovery").and_then(|r| r.get("healed")).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
