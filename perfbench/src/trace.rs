//! In-memory span recorder and a counting global allocator.
//!
//! Spans are recorded only by the traced run, around calls the benchmark
//! itself makes into each crate. Nothing here reaches inside the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator with opt-in counters. Counting is off until
/// [`set_alloc_counting`] turns it on, so the untraced run pays one
/// relaxed load per allocation and nothing else.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are plain
// statistics that publish no other data (hence `Relaxed`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (hence from `System`) with
        // this layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switch allocation counting on or off for the whole process.
pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// One recorded span: a named interval with an optional parent. Spans of
/// one round share its `key`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// Collects spans in memory until the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, key: u64, parent: Option<Open>) -> Open {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            key,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
        });
        Open((self.spans.len() - 1) as u32)
    }

    /// Close a span and return its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        let end = self.now_ns();
        let span = &mut self.spans[open.0 as usize];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Record an already measured interval (used where one layer's calls
    /// interleave with another's inside a loop: the pieces are summed and
    /// recorded as one span ending now).
    pub fn record(&mut self, name: &'static str, key: u64, parent: Option<Open>, dur_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            key,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent: parent.map(|p| p.0),
        });
    }

    /// Total time per span name, in nanoseconds.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        totals
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Check that every span lies inside its parent and carries its
    /// parent's key, so per-round figures sum what they claim to.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent.map(|p| &self.spans[p as usize]) else {
                continue;
            };
            if s.key != p.key || s.start_ns < p.start_ns || s.end_ns > p.end_ns {
                return Err(format!(
                    "span {i} ({} key {}) is not inside its parent ({} key {})",
                    s.name, s.key, p.name, p.key
                ));
            }
        }
        Ok(())
    }
}
