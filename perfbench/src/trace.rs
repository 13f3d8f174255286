//! Host-side tracing for the traced run: a counting allocator and an
//! in-memory span recorder placed around the benchmark's own calls into
//! the program's public API. Nothing here reaches into the program.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// The system allocator plus an allocation counter that is read only
/// while [`Tracer`] spans are being recorded.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn count() {
    // Relaxed on both: the counter publishes no other data, and the
    // replay that reads it runs on one thread.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim; `ptr` came from this allocator,
        // which is `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` via this
        // allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One recorded call.
struct Span {
    /// Layer-qualified call name, e.g. `platform.run_pooled`.
    name: &'static str,
    /// The unit (device, scenario, carrier) the call worked on.
    unit: u32,
    /// Index of the enclosing span, if any.
    parent: Option<u32>,
    /// Start, nanoseconds since the tracer was created.
    start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    end_ns: u64,
    /// Allocations made inside the span, children included.
    allocs: u64,
}

impl Span {
    fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records spans in memory when on; does nothing at all when off, so the
/// same replay code measures the tracing overhead.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording does not
    /// reallocate (and count its own growth) mid-replay.
    pub fn new(on: bool, capacity: usize) -> Self {
        COUNTING.store(on, Ordering::Relaxed);
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            stack: Vec::with_capacity(8),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `unit`.
    pub fn span<T>(&mut self, name: &'static str, unit: u32, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            unit,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            allocs: 0,
        });
        self.stack.push(index);
        let allocs_before = allocs();
        let out = f();
        let allocs = allocs() - allocs_before;
        let end_ns = self.now_ns();
        let span = &mut self.spans[index as usize];
        span.end_ns = end_ns;
        span.allocs = allocs;
        self.stack.pop();
        out
    }

    /// Stops recording and hands back the spans.
    fn finish(self) -> Vec<Span> {
        COUNTING.store(false, Ordering::Relaxed);
        self.spans
    }
}

/// Per-name aggregates over a replay's spans.
#[derive(Default)]
pub struct CallStats {
    micros: Vec<f64>,
    allocs: u64,
}

impl CallStats {
    /// Calls recorded.
    pub fn count(&self) -> usize {
        self.micros.len()
    }

    /// Total time in the call, microseconds.
    pub fn total_us(&self) -> f64 {
        self.micros.iter().sum()
    }

    /// Mean time per call, microseconds.
    pub fn us_per_op(&self) -> f64 {
        self.total_us() / self.count().max(1) as f64
    }

    /// Mean allocations per call.
    pub fn allocs_per_op(&self) -> f64 {
        self.allocs as f64 / self.count().max(1) as f64
    }

    /// Nearest-rank percentile of the call time, microseconds.
    pub fn percentile_us(&self, p: f64) -> f64 {
        let mut sorted = self.micros.clone();
        sorted.sort_by(f64::total_cmp);
        if sorted.is_empty() {
            return 0.0;
        }
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }
}

/// A finished replay: its spans, its wall time and the stats per name.
pub struct Replay {
    /// Every span, in start order.
    spans: Vec<Span>,
    /// Wall time of the whole replay.
    wall: Duration,
    /// Aggregates keyed by span name.
    calls: BTreeMap<&'static str, CallStats>,
}

impl Replay {
    /// Aggregates `spans` recorded over a replay lasting `wall`.
    fn new(spans: Vec<Span>, wall: Duration) -> Self {
        let mut calls: BTreeMap<&'static str, CallStats> = BTreeMap::new();
        for span in &spans {
            let stats = calls.entry(span.name).or_default();
            stats.micros.push(span.micros());
            stats.allocs += span.allocs;
        }
        Replay { spans, wall, calls }
    }

    /// Stats for `name` (empty when the call never ran).
    pub fn call(&self, name: &str) -> &CallStats {
        static EMPTY: CallStats = CallStats {
            micros: Vec::new(),
            allocs: 0,
        };
        self.calls.get(name).unwrap_or(&EMPTY)
    }

    /// Share of the replay's wall time that no top-level span covers:
    /// the benchmark's own loop plus anything a missing span would name.
    pub fn unattributed_share(&self) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::micros)
            .sum();
        let wall = self.wall.as_secs_f64() * 1e6;
        ((wall - covered) / wall).max(0.0)
    }

    /// Appends the spans as JSON lines tagged with `workload`.
    pub fn write_jsonl(&self, workload: &str, out: &mut String) {
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"name\":\"{}\",\"unit\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                span.name, span.unit, span.start_ns, span.end_ns, span.allocs
            );
        }
    }
}

/// Runs `replay` twice with tracing off and twice with spans and
/// allocation counting on, alternating, and returns the last traced
/// replay and the overhead `fastest traced / fastest untraced − 1`. The
/// first run of a replay pays for heap growth and cold caches, which
/// alternating keeps out of the comparison.
pub fn traced_and_plain(capacity: usize, mut replay: impl FnMut(&mut Tracer)) -> (Replay, f64) {
    let mut fastest = [f64::INFINITY; 2];
    let mut traced = None;
    for on in [false, true, false, true] {
        let mut tracer = Tracer::new(on, capacity);
        let started = Instant::now();
        replay(&mut tracer);
        let wall = started.elapsed();
        let spans = tracer.finish();
        let side = &mut fastest[usize::from(on)];
        *side = side.min(wall.as_secs_f64());
        if on {
            traced = Some(Replay::new(spans, wall));
        }
    }
    let traced = traced.expect("the loop ends on a traced replay");
    (traced, fastest[1] / fastest[0] - 1.0)
}
