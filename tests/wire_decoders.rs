//! The socket-facing decoders are total and bounded.
//!
//! Every byte these decoders see comes off a socket, and the fleet
//! coordinator decodes the first frame of a connection before any
//! authentication. So a payload must never make them panic, and a count
//! field must never make them reserve more than the payload itself can
//! hold. A counting global allocator measures what each decode allocates
//! on the calling thread.

use mhe::spacewalk::service::proto::{
    decode_coord_frame, decode_request, decode_response, decode_worker_frame, handshake, Handshake,
    FEATURE_FRONTIER, HANDSHAKE_LEN,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
