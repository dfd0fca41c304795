//! Seeded hostile-input campaign over the three on-disk formats that
//! share `sim_core::frame`: an ECDPSNAP warm checkpoint, an ECDPRSLT
//! result-store log and a small `.xtrc` external trace.
//!
//! Each case takes a valid image and damages it one way: truncation at a
//! random offset, a flipped byte, a length or count field set to its
//! maximum, or another format's magic swapped in. A damaged checkpoint is
//! sometimes re-sealed with a fresh CRC so the payload decoders, not just
//! the checksum, see the hostile bytes.
//!
//! Properties: nothing panics; every decode returns a typed error or a
//! value (for the store: recovery events whose surviving records are a
//! subset of the ones written); and no single allocation during a decode
//! exceeds the input length plus 64 KiB, whatever a length field claims.

#![allow(clippy::unwrap_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::OnceLock;

use bench::{ResultStore, RunRecord};
use ecdp::system::{SystemBuilder, SystemKind, SystemSpec};
use proptest::prelude::*;
use sim_core::frame::crc32;
use sim_core::{write_external, ExternalTrace, RunStats, Snapshot, Trace, TraceBuilder};
use sim_mem::{layout, SimMemory};
use workloads::InputSet;

/// Records the largest single allocation the current thread asks for.
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    LARGEST.with(|l| l.set(l.get().max(size)));
}

// SAFETY: defers every call to `System`; the bookkeeping touches only a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `decode` on `input` and checks its largest allocation.
fn bounded<T>(input: &[u8], decode: impl FnOnce() -> T) -> T {
    LARGEST.with(|l| l.set(0));
    let out = decode();
    let largest = LARGEST.with(Cell::get);
    assert!(
        largest <= input.len() + 64 * 1024,
        "decode allocated {largest} bytes for a {}-byte input",
        input.len()
    );
    out
}

const MAGICS: [&[u8; 8]; 3] = [b"ECDPSNAP", b"ECDPRSLT", b"ECDPXTRC"];

/// A valid image plus the offsets and widths of its length and count
/// fields.
struct Image {
    bytes: Vec<u8>,
    fields: Vec<(usize, usize)>,
}

/// One damage operation; `kind` picks which, the rest parameterize it.
fn damage(image: &Image, kind: u8, pos: u64, byte: u8, own_magic: usize) -> Vec<u8> {
    let mut bytes = image.bytes.clone();
    let at = (pos % bytes.len() as u64) as usize;
    match kind {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= byte | 1,
        2 => {
            let (off, width) = image.fields[at % image.fields.len()];
            bytes[off..off + width].fill(0xFF);
        }
        _ => {
            let other = (own_magic + 1 + at % 2) % MAGICS.len();
            bytes[..8].copy_from_slice(MAGICS[other]);
        }
    }
    bytes
}

fn chase_trace() -> Trace {
    let mut tb = TraceBuilder::new(SimMemory::new());
    let nodes = 400u32;
    let stride = 72u32;
    tb.setup(|m| {
        for i in 0..nodes {
            let next = if i + 1 < nodes {
                layout::HEAP_BASE + (i + 1) * stride
            } else {
                0
            };
            m.write_u32(layout::HEAP_BASE + i * stride, next);
        }
    });
    let (mut cur, mut dep) = (layout::HEAP_BASE, None);
    while cur != 0 {
        let (next, id) = tb.load(0x400, cur, dep);
        tb.compute(2);
        cur = next;
        dep = Some(id);
    }
    tb.finish()
}

fn snapshot_image() -> &'static Image {
    static IMAGE: OnceLock<Image> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let run = SystemBuilder::new(SystemKind::StreamCdp)
            .warm_checkpoint(2_000)
            .run(&chase_trace())
            .unwrap();
        let bytes = run
            .snapshot
            .expect("the chase outlives the checkpoint")
            .to_bytes();
        // Payload length (u64), core count (u32), first core's page
        // count (u32) and first page's length prefix (u64).
        let fields = vec![(16, 8), (40, 4), (44, 4), (52, 8)];
        Image { bytes, fields }
    })
}

fn written_records() -> Vec<RunRecord> {
    ["mst", "health", "em3d"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let stats = RunStats {
                cycles: 5_000 + i as u64,
                retired_instructions: 999,
                ..RunStats::default()
            };
            RunRecord::new(
                name,
                InputSet::Test,
                &SystemSpec::of(SystemKind::StreamOnly),
                &stats,
                1.5,
            )
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ecdp-frame-campaign-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_image() -> &'static Image {
    static IMAGE: OnceLock<Image> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let dir = scratch("seed");
        let path = dir.join("seed.store");
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path);
        for r in written_records() {
            store.append(&r, None);
        }
        drop(store);
        let bytes = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        // Each record frame: magic u32, payload length u32, CRC u32.
        let mut fields = Vec::new();
        let mut off = 16;
        while off < bytes.len() {
            fields.push((off + 4, 4));
            let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            off += 12 + len as usize;
        }
        Image { bytes, fields }
    })
}

fn xtrc_image() -> &'static Image {
    static IMAGE: OnceLock<Image> = OnceLock::new();
    IMAGE.get_or_init(|| {
        let trace = chase_trace();
        let mut out = std::io::Cursor::new(Vec::new());
        write_external(&trace, &mut out).unwrap();
        let bytes = out.into_inner();
        let pages = u32::from_le_bytes(bytes[20..24].try_into().unwrap()) as usize;
        // Instruction count (u64), page count (u32), first page index
        // (u32) and op count (u64).
        let fields = vec![(12, 8), (20, 4), (24, 4), (24 + pages * (4 + 4096), 8)];
        Image { bytes, fields }
    })
}

proptest! {
    #[test]
    fn damaged_snapshots_decode_to_typed_errors(
        kind in 0u8..4,
        pos in any::<u64>(),
        byte in any::<u8>(),
        reseal in any::<bool>(),
    ) {
        let image = snapshot_image();
        let mut bytes = damage(image, kind, pos, byte, 0);
        let len = bytes.len();
        let payload_len = bytes.get(16..24).map(|b| u64::from_le_bytes(b.try_into().unwrap()));
        if reseal && len >= 28 && payload_len == Some(len as u64 - 28) {
            let crc = crc32(&bytes[24..len - 4]);
            bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        }
        // Ok is allowed: a re-sealed flip inside a memory page is a valid
        // (different) checkpoint.
        let _ = bounded(&bytes, || Snapshot::from_bytes(&bytes));
    }

    #[test]
    fn damaged_store_logs_recover_a_subset(
        kind in 0u8..4,
        pos in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let bytes = damage(store_image(), kind, pos, byte, 1);
        let dir = scratch(&format!("case-{kind}-{pos}"));
        let path = dir.join("results.store");
        std::fs::write(&path, &bytes).unwrap();
        let store = bounded(&bytes, || ResultStore::open(&path));
        let written = written_records();
        let mut survivors = 0;
        for r in &written {
            if let Some(back) = store.get(&r.workload, &r.input, &r.system, r.config_hash) {
                prop_assert_eq!(&back, r);
                survivors += 1;
            }
        }
        prop_assert_eq!(store.len(), survivors, "a record nobody wrote appeared");
        if survivors < written.len() && bytes.len() > 16 && kind != 0 {
            prop_assert!(!store.recovery().is_clean(), "a record vanished silently");
        }
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_xtrc_files_are_rejected_or_replay(
        kind in 0u8..4,
        pos in any::<u64>(),
        byte in any::<u8>(),
    ) {
        let bytes = damage(xtrc_image(), kind, pos, byte, 2);
        let dir = scratch(&format!("xtrc-{kind}-{pos}"));
        let path = dir.join("damaged.xtrc");
        std::fs::write(&path, &bytes).unwrap();
        // Ok is allowed: a flipped byte inside a memory page or an
        // address field still frames a valid trace.
        let _ = bounded(&bytes, || ExternalTrace::open(&path));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
