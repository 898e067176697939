//! Spans and allocation counts, recorded by the benchmark around each
//! call it makes into a layer.
//!
//! Spans live in memory and are written to `trace.jsonl` when the run
//! ends. Every span feeds a per-name aggregate (count, total, self time);
//! only the first [`KEEP`] are kept whole for the file, so a traced
//! closed-loop run cannot grow without bound. Self time is a span's
//! duration minus the part its child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Whole spans kept for `trace.jsonl`.
pub const KEEP: usize = 50_000;

/// A span recorded whole.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// Index of the enclosing span among the kept ones, if it was kept.
    parent: Option<u32>,
    /// Request identifier: op id, scenario seed, or subject index.
    req: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: Option<u32>,
}

/// The in-memory span recorder. Every method is a no-op while `on` is
/// false, so the untraced run pays one branch per call site.
pub struct Tracer {
    pub on: bool,
    t0: Instant,
    kept: Vec<Span>,
    open: Vec<Open>,
    aggs: Vec<(&'static str, Agg)>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            kept: Vec::with_capacity(if on { KEEP } else { 0 }),
            open: Vec::new(),
            aggs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`] (spans nest strictly).
    #[inline]
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        let kept = (self.kept.len() < KEEP).then(|| {
            self.kept.push(Span {
                name,
                parent: self.open.last().and_then(|o| o.kept),
                req,
                start_ns,
                end_ns: start_ns,
            });
            (self.kept.len() - 1) as u32
        });
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let Some(o) = self.open.pop() else { return };
        let dur = end_ns - o.start_ns;
        if let Some(i) = o.kept {
            self.kept[i as usize].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        let agg = self.agg_mut(o.name);
        agg.count += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(o.child_ns);
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, req);
        let r = f();
        self.exit();
        r
    }

    /// Records a span that overlaps others (a client operation in flight
    /// while the loop serves its siblings): no parent, no self time.
    #[inline]
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let start_ns = start.saturating_duration_since(self.t0).as_nanos() as u64;
        let end_ns = end.saturating_duration_since(self.t0).as_nanos() as u64;
        if self.kept.len() < KEEP {
            self.kept.push(Span {
                name,
                parent: None,
                req,
                start_ns,
                end_ns,
            });
        }
        let agg = self.agg_mut(name);
        agg.count += 1;
        agg.total_ns += end_ns - start_ns;
        agg.self_ns += end_ns - start_ns;
    }

    fn agg_mut(&mut self, name: &'static str) -> &mut Agg {
        // A dozen names at most: a linear scan beats hashing.
        let i = match self.aggs.iter().position(|(n, _)| *n == name) {
            Some(i) => i,
            None => {
                self.aggs.push((name, Agg::default()));
                self.aggs.len() - 1
            }
        };
        &mut self.aggs[i].1
    }

    /// Totals of the spans named `name` (zeros when none were recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.aggs
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(Agg::default, |(_, a)| *a)
    }

    /// Every aggregate, in first-seen order.
    pub fn aggs(&self) -> &[(&'static str, Agg)] {
        &self.aggs
    }

    /// The kept spans as JSONL, then one `agg` line per span name.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.kept.len() * 96);
        for (i, s) in self.kept.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"req\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.req, s.start_ns, s.end_ns
            );
        }
        for (name, a) in &self.aggs {
            let _ = writeln!(
                out,
                "{{\"agg\": \"{name}\", \"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                a.count, a.total_ns, a.self_ns
            );
        }
        out
    }
}

/// The system allocator with a call counter in front. Counting costs one
/// relaxed add per allocation, identically in traced and untraced runs.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`; the caller
        // upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (and reallocations) made by this process so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(true);
        t.enter("outer", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.span("inner", 7, || {
            std::thread::sleep(std::time::Duration::from_millis(3))
        });
        t.exit();
        let (outer, inner) = (t.agg("outer"), t.agg("inner"));
        assert_eq!((outer.count, inner.count), (1, 1));
        assert_eq!(outer.total_ns - outer.self_ns, inner.total_ns);
        assert!(inner.total_ns >= 3_000_000 && outer.self_ns >= 2_000_000);
        let jsonl = t.to_jsonl();
        assert!(jsonl.contains("\"name\": \"inner\", \"parent\": 0, \"req\": 7"));
        assert!(jsonl.contains("\"agg\": \"outer\", \"count\": 1"));
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", 1, || 5), 5);
        assert!(t.aggs().is_empty() && t.to_jsonl().is_empty());
    }

    #[test]
    fn allocation_counter_moves() {
        let before = allocs();
        let v: Vec<u64> = Vec::with_capacity(32);
        std::hint::black_box(&v);
        assert!(allocs() > before);
    }
}
