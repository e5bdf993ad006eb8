//! Proves the zero-copy decode path is actually zero-allocation.
//!
//! The event-loop server decodes every inbound frame with
//! [`decode_request_ref`], which borrows Submit/Read payloads straight
//! out of the connection's read buffer. This test installs a counting
//! global allocator and asserts that, after warmup, decoding a Submit
//! frame performs **zero** heap allocations. Materializing `Row`s for
//! ingest (`SubmitRef::decode_mods_into`) is the only allocating step
//! on the submit path, and it reuses a caller-owned `Vec`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aivm_engine::{Modification, Row, Value};
use aivm_net::{decode_request_ref, encode_request, Request, RequestFrame, RequestRef};

struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread: `cargo test` runs this file's
    /// tests on parallel threads, and one test's allocations must not
    /// count against another's zero. (A const-initialized `Cell` needs
    /// no allocation and no destructor, so the allocator may touch it.)
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_count() -> usize {
    ALLOCS.with(Cell::get)
}

fn submit_payload() -> Vec<u8> {
    let mods = vec![
        Modification::Insert(Row::new(vec![
            Value::Int(42),
            Value::Str("zero-copy".into()),
            Value::Float(2.5),
        ])),
        Modification::Delete(Row::new(vec![Value::Int(7), Value::Null])),
        Modification::Update {
            old: Row::new(vec![Value::Int(1), Value::Str("before".into())]),
            new: Row::new(vec![Value::Int(1), Value::Str("after".into())]),
        },
    ];
    encode_request(&RequestFrame {
        deadline_ms: 250,
        request: Request::Submit {
            epoch: 0,
            table: 3,
            mods,
        },
    })
}

#[test]
fn decoding_a_submit_frame_allocates_nothing() {
    let payload = submit_payload();

    // Warm up: first calls may touch lazily-initialized runtime state.
    for _ in 0..16 {
        let f = decode_request_ref(&payload).expect("valid frame");
        assert!(matches!(f.request, RequestRef::Submit(_)));
    }

    let before = alloc_count();
    for _ in 0..100 {
        let f = decode_request_ref(&payload).expect("valid frame");
        let RequestRef::Submit(s) = f.request else {
            panic!("expected submit");
        };
        assert_eq!(s.table, 3);
        assert_eq!(s.count, 3);
    }
    let after = alloc_count();
    assert_eq!(
        after - before,
        0,
        "decode_request_ref must not allocate on the steady-state path"
    );
}

#[test]
fn decoding_read_ping_metrics_flush_allocates_nothing() {
    let frames: Vec<Vec<u8>> = [
        Request::Ping,
        Request::Read {
            view: 0,
            fresh: true,
            want_rows: false,
        },
        Request::Metrics {
            per_shard: false,
            per_view: false,
        },
        Request::Flush,
    ]
    .into_iter()
    .map(|request| {
        encode_request(&RequestFrame {
            deadline_ms: 100,
            request,
        })
    })
    .collect();

    for p in &frames {
        decode_request_ref(p).expect("valid frame");
    }

    let before = alloc_count();
    for _ in 0..100 {
        for p in &frames {
            decode_request_ref(p).expect("valid frame");
        }
    }
    let after = alloc_count();
    assert_eq!(after - before, 0);
}

#[test]
fn materializing_mods_reuses_the_callers_buffer() {
    let payload = submit_payload();
    let f = decode_request_ref(&payload).expect("valid frame");
    let RequestRef::Submit(s) = f.request else {
        panic!("expected submit");
    };

    let mut out = Vec::new();
    s.decode_mods_into(&mut out).expect("valid mods");
    assert_eq!(out.len(), 3);

    // Decoding into a warm buffer allocates only the per-row payloads,
    // never the outer Vec: its capacity is retained across batches.
    out.clear();
    let cap = out.capacity();
    s.decode_mods_into(&mut out).expect("valid mods");
    assert_eq!(out.len(), 3);
    assert_eq!(out.capacity(), cap);
}
