//! The socket- and file-facing decoders are total and bounded.
//!
//! Every byte the wire decoders see comes off a socket, and the fleet
//! coordinator decodes the first frame of a connection before any
//! authentication. So a payload must never make them panic, and a count
//! field must never make them reserve more than the payload itself can
//! hold. The `.mtr` seek path (a sampled replay's second pass) reads a
//! file that may have changed since its frames were indexed; a stale
//! entry, a truncation or a flipped bit must come back as `InvalidData`
//! and poison the reader. The `.din` reader, the MHEC evaluation database
//! and the checkpoint read files the same way: any bytes give a value or
//! a structured error, within the same budget. A counting global
//! allocator measures what each decode allocates on the calling thread.

use mhe::cache::{CacheConfig, Policy};
use mhe::spacewalk::service::proto::{
    decode_coord_frame, decode_request, decode_response, decode_worker_frame, handshake, Handshake,
    FEATURE_FRONTIER, HANDSHAKE_LEN,
};
use mhe::spacewalk::{CacheDesign, Checkpointer, EvaluationCache, MetricKey};
use mhe::trace::codec::{MAGIC, MAX_FRAME_ACCESSES, MAX_FRAME_PAYLOAD, VERSION};
use mhe::trace::io::read_din_iter_named;
use mhe::trace::{Access, Crc32, FrameEntry, TraceReader, TraceWriter};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{Cursor, ErrorKind};
use std::sync::Arc;

mod common;

/// Extra allocation a hostile payload may cause.
const BUDGET: usize = 1 << 20;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting requested bytes per thread.
struct Counting;

fn count(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get().saturating_add(bytes)));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the bytes this thread allocated.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    (result, ALLOCATED.with(Cell::get) - before)
}

/// Feeds `bytes` to all four payload decoders and, when long enough, to
/// the handshake decoder. Any outcome but a panic is fine; the bytes
/// allocated along the way are returned.
fn decode_everything(bytes: &[u8]) -> usize {
    allocated_by(|| {
        let _ = decode_request(bytes);
        let _ = decode_response(bytes);
        let _ = decode_worker_frame(bytes);
        let _ = decode_coord_frame(bytes);
        if let Some(head) = bytes.first_chunk::<HANDSHAKE_LEN>() {
            let _ = Handshake::decode(head);
        }
    })
    .1
}

#[test]
fn hostile_counts_fail_without_reserving_what_they_claim() {
    let rows_2_20 = [0x00, 0x00, 0x10, 0x00];
    // Each case: what it is, the payload, and "its decoder fails on it".
    type Case = (&'static str, Vec<u8>, fn(&[u8]) -> bool);
    let cases: [Case; 5] = [
        // Response::Frontier, no sampling, 2^20 rows, then nothing.
        ("response rows", [&[0x01, 0x00][..], &rows_2_20].concat(), |p| {
            decode_response(p).is_err()
        }),
        // WorkerFrame::Points for shard 7 claiming 2^20 points.
        ("worker points", [&[0x12, 7, 0, 0, 0][..], &rows_2_20].concat(), |p| {
            decode_worker_frame(p).is_err()
        }),
        // CoordFrame::Assign for shard 7 claiming 2^20 prefill points.
        ("coord prefill", [&[0x21, 7, 0, 0, 0][..], &rows_2_20].concat(), |p| {
            decode_coord_frame(p).is_err()
        }),
        // One point whose key names an application of 2^20 bytes.
        ("point key name", vec![0x12, 7, 0, 0, 0, 1, 0, 0, 0, 3, 0x80, 0x80, 0x40], |p| {
            decode_worker_frame(p).is_err()
        }),
        // Request::Frontier, empty spec, no sampling, 64 policies.
        ("request policies", vec![0x01, 0, 0, 0, 0, 0, 0, 1, 64, 0, 0, 0], |p| {
            decode_request(p).is_err()
        }),
    ];
    for (what, payload, fails) in cases {
        let (failed, bytes) = allocated_by(|| fails(&payload));
        assert!(failed, "{what}: a {}-byte payload must not decode", payload.len());
        assert!(bytes < BUDGET, "{what}: {}-byte payload allocated {bytes} bytes", payload.len());
    }
}

#[test]
fn every_prefix_and_bit_flip_of_a_golden_payload_is_ok_or_err() {
    let mut payloads: Vec<Vec<u8>> =
        common::wire::goldens().into_iter().map(|(msg, _)| msg.encode()).collect();
    payloads.push(handshake(FEATURE_FRONTIER).to_vec());
    for payload in &payloads {
        for len in 0..=payload.len() {
            let bytes = decode_everything(&payload[..len]);
            assert!(bytes < BUDGET, "prefix {len} of {payload:02x?} allocated {bytes} bytes");
        }
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let bytes = decode_everything(&flipped);
            assert!(bytes < BUDGET, "bit {bit} of {payload:02x?} allocated {bytes} bytes");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Arbitrary payloads of 0–256 bytes; half of them start with a tag
    /// byte some golden payload starts with, so they get past the tag
    /// dispatch into a message body.
    #[test]
    fn arbitrary_payloads_are_ok_or_err_within_budget(
        tagged in 0u8..2,
        tag_pick in 0usize..1024,
        body in prop::collection::vec((0u16..256).prop_map(|b| b as u8), 0..257),
    ) {
        let mut payload = body;
        if tagged == 1 {
            let tags: Vec<u8> =
                common::wire::goldens().into_iter().map(|(msg, _)| msg.encode()[0]).collect();
            let tag = tags[tag_pick % tags.len()];
            match payload.first_mut() {
                Some(first) => *first = tag,
                None => payload.push(tag),
            }
        }
        let bytes = decode_everything(&payload);
        prop_assert!(bytes < BUDGET, "{payload:02x?} allocated {bytes} bytes");
    }
}

/// An `.mtr` file header and one frame: its header claims `count`
/// accesses in `payload_len` bytes, under a valid CRC of `payload`.
fn mtr_with_one_frame(count: u32, payload_len: u32, payload: &[u8]) -> Vec<u8> {
    let mut header = [count.to_le_bytes(), payload_len.to_le_bytes()].concat();
    let mut crc = Crc32::new();
    crc.update(&header);
    crc.update(payload);
    header.extend(crc.finish().to_le_bytes());
    [&MAGIC[..], &[VERSION], &header, payload].concat()
}

#[test]
fn mtr_frame_claims_fail_without_reserving_what_they_claim() {
    let cases = [
        // 17 bytes: a frame header claiming the largest payload, and no
        // payload at all.
        ("payload length", mtr_with_one_frame(1, MAX_FRAME_PAYLOAD, &[])),
        // Four one-byte accesses under a valid CRC, claimed as the
        // largest frame: the decode runs out of payload.
        ("access count", mtr_with_one_frame(MAX_FRAME_ACCESSES, 4, &[0; 4])),
    ];
    for (what, bytes) in cases {
        let mut r = TraceReader::new(Cursor::new(&bytes)).expect("a valid file header");
        let (result, allocated) = allocated_by(|| r.next_frame());
        let err = result.expect_err(what);
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains("truncated"), "{what}: {err}");
        assert!(
            allocated < BUDGET,
            "{what}: a {}-byte file allocated {allocated} bytes",
            bytes.len()
        );
    }
}

/// A small `.mtr` file of several frames and the index its sequential
/// pass records.
fn indexed_mtr() -> (Vec<u8>, Vec<FrameEntry>) {
    let trace: Vec<Access> = (0..200u64)
        .map(|i| if i % 3 == 0 { Access::load(0x9000 + i * 40) } else { Access::inst(0x40 + i) })
        .collect();
    let mut bytes = Vec::new();
    let mut w = TraceWriter::with_frame_accesses(&mut bytes, 37).unwrap();
    w.write_all(trace).unwrap();
    w.finish().unwrap();
    let mut r = TraceReader::new(bytes.as_slice()).unwrap().with_index();
    while r.next_frame().unwrap().is_some() {}
    let index = r.index().to_vec();
    assert!(index.len() >= 5);
    (bytes, index)
}

/// Seeks `bytes` to `entry` and expects a structured `InvalidData` that
/// poisons the reader, within the allocation budget.
fn assert_seek_rejected(bytes: &[u8], entry: &FrameEntry, good: &FrameEntry, what: &str) {
    let Ok(mut r) = TraceReader::new(Cursor::new(bytes)) else {
        return; // the file header itself is gone: rejected before any seek
    };
    let (result, allocated) = allocated_by(|| r.read_frame_at(entry));
    let err = result.expect_err(what);
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{what}: {err}");
    assert!(allocated < BUDGET, "{what}: allocated {allocated} bytes");
    let after = r.read_frame_at(good).expect_err("a poisoned reader refuses further seeks");
    assert_eq!(after.kind(), ErrorKind::InvalidData, "{what}: {after}");
    assert!(r.next_frame().unwrap().is_none(), "{what}: a poisoned reader yields nothing");
}

#[test]
fn mtr_seek_rejects_stale_index_entries() {
    let (bytes, index) = indexed_mtr();
    let target = index[2];
    let stale = [
        ("count", FrameEntry { count: target.count + 1, ..target }),
        ("crc", FrameEntry { crc: target.crc ^ 1, ..target }),
        ("payload length", FrameEntry { payload_len: target.payload_len - 1, ..target }),
        ("huge claims", FrameEntry { count: u32::MAX, payload_len: u32::MAX, ..target }),
        ("offset into a payload", FrameEntry { offset: target.offset + 5, ..target }),
        ("offset past the end", FrameEntry { offset: u64::MAX / 2, ..target }),
        ("another frame's entry", FrameEntry { offset: index[3].offset, ..target }),
    ];
    for (what, entry) in stale {
        assert_seek_rejected(&bytes, &entry, &index[0], what);
    }
    // The genuine entry still decodes, to exactly its frame.
    let mut r = TraceReader::new(Cursor::new(&bytes)).unwrap();
    assert_eq!(r.read_frame_at(&target).unwrap().len(), target.count as usize);
}

#[test]
fn mtr_seek_rejects_a_file_truncated_between_passes() {
    let (bytes, index) = indexed_mtr();
    let last = *index.last().unwrap();
    for cut in 0..bytes.len() {
        // Every frame that no longer fits whole in the cut file.
        for entry in index.iter().filter(|e| e.offset + 12 + u64::from(e.payload_len) > cut as u64)
        {
            assert_seek_rejected(&bytes[..cut], entry, &index[0], &format!("cut at {cut}"));
        }
    }
    let mut r = TraceReader::new(Cursor::new(&bytes)).unwrap();
    assert!(r.read_frame_at(&last).is_ok());
}

#[test]
fn mtr_seek_rejects_every_bit_flip_of_a_recorded_frame() {
    let (bytes, index) = indexed_mtr();
    for entry in [index[0], index[3]] {
        let start = entry.offset as usize;
        let end = start + 12 + entry.payload_len as usize;
        for bit in start * 8..end * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_seek_rejected(&flipped, &entry, &index[1], &format!("bit {bit}"));
        }
    }
}

#[test]
fn din_line_without_a_newline_fails_without_buffering_the_file() {
    let bytes = vec![b'2'; 4 << 20];
    let mut lines = read_din_iter_named(bytes.as_slice(), "capture.din");
    let (first, allocated) = allocated_by(|| lines.next());
    let err = first.expect("one item").expect_err("a 4 MiB line must not parse");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("capture.din:1"), "{err}");
    assert!(allocated < BUDGET, "a 4 MiB line allocated {allocated} bytes");
    assert!(lines.next().is_none(), "a failed reader yields nothing more");
}

/// Every prefix and every single-bit flip of a saved evaluation database
/// loads to `Ok` or to an `InvalidData`/`UnexpectedEof` error, within the
/// budget. `Checkpointer::load` reads its file through
/// `EvaluationCache::load`, so this one case covers both the MHEC
/// database and the checkpoint.
#[test]
fn every_prefix_and_bit_flip_of_a_database_loads_or_fails_within_budget() {
    let app: Arc<str> = Arc::from("unepic");
    let base = CacheConfig::new(64, 2, 8);
    let db = EvaluationCache::new();
    db.insert(MetricKey::icache(&app, CacheDesign::single_ported(base), 1.5), 1234.0);
    let fifo = CacheDesign::single_ported(base.with_policy(Policy::Fifo));
    db.insert(MetricKey::dcache(&app, fifo), 56.5);
    db.insert(MetricKey::proc_cycles(&app, "6332"), 9.0e6);
    let dir = std::env::temp_dir().join(format!("mhe_wire_db_{}", std::process::id()));
    let ckpt = Checkpointer::new(&dir).unwrap();
    ckpt.save(&db).unwrap();
    let saved = std::fs::read(ckpt.cache_path()).unwrap();
    let load = |bytes: &[u8], what: &str| {
        std::fs::write(ckpt.cache_path(), bytes).unwrap();
        let (result, allocated) = allocated_by(|| ckpt.load());
        if let Err(err) = result {
            let kind = err.kind();
            assert!(
                matches!(kind, ErrorKind::InvalidData | ErrorKind::UnexpectedEof),
                "{what}: {kind:?}: {err}"
            );
        }
        assert!(allocated < BUDGET, "{what}: allocated {allocated} bytes");
    };
    for len in 0..saved.len() {
        load(&saved[..len], &format!("prefix {len}"));
    }
    for bit in 0..saved.len() * 8 {
        let mut flipped = saved.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        load(&flipped, &format!("bit {bit}"));
    }
    load(&saved, "the saved file");
    assert_eq!(ckpt.load().unwrap().entries(), db.entries());
    std::fs::remove_dir_all(&dir).ok();
}
