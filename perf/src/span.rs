//! In-memory spans around the calls the benchmark makes into the
//! product. Spans *inside* the product are a later change (ROADMAP
//! item 2); these sit at the public-API boundary.
//!
//! A traced run alternates tracing on and off in equal slices of its
//! own window (see [`SliceClock`]), so the same run yields both the
//! traced and the untraced rate and their difference is the tracing
//! overhead, measured under identical conditions.

use std::io::Write;
use std::time::Instant;

/// Index of a span within its [`Tracer`]; `NO_SPAN` when tracing is off
/// or the span has no parent.
pub type SpanId = u32;
pub const NO_SPAN: SpanId = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    /// Identifier shared by the spans of one operation.
    pub op: u64,
}

/// One thread's span buffer.
pub struct Tracer {
    /// Whether this run records at all (`--trace 1`).
    armed: bool,
    /// Whether the current slice records.
    on: bool,
    origin: Instant,
    thread: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// `origin` is shared by every thread of a run so their spans line
    /// up; `cap` pre-sizes the buffer outside the window.
    pub fn new(armed: bool, origin: Instant, thread: &'static str, cap: usize) -> Tracer {
        Tracer {
            armed,
            on: armed,
            origin,
            thread,
            spans: Vec::with_capacity(if armed { cap } else { 0 }),
        }
    }

    pub fn disarmed() -> Tracer {
        Tracer::new(false, Instant::now(), "", 0)
    }

    /// Switches recording for the coming slice (no effect when the run
    /// is not traced).
    #[inline]
    pub fn set_on(&mut self, on: bool) {
        self.on = self.armed && on;
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        if !self.on {
            return NO_SPAN;
        }
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            op,
        });
        id
    }

    #[inline]
    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name (duration minus the part covered by
    /// child spans), busiest first, and the share of the traced
    /// interval that root spans cover.
    pub fn summary(&self) -> TraceSummary {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_SPAN {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut by_name: Vec<(&'static str, u64, u64)> = Vec::new();
        let mut root_ns = 0u64;
        for (s, covered) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            if s.parent == NO_SPAN {
                root_ns += dur;
            }
            let self_ns = dur.saturating_sub(*covered);
            match by_name.iter_mut().find(|(n, _, _)| *n == s.name) {
                Some(row) => {
                    row.1 += self_ns;
                    row.2 += 1;
                }
                None => by_name.push((s.name, self_ns, 1)),
            }
        }
        by_name.sort_by_key(|row| std::cmp::Reverse(row.1));
        TraceSummary { by_name, root_ns }
    }

    /// Appends this thread's spans to `out` as tab-separated lines
    /// `thread  id  parent  op  name  start_ns  end_ns`.
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_SPAN {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}\t{}",
                self.thread, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Aggregated view of one thread's spans.
pub struct TraceSummary {
    /// `(name, self ns, count)`, busiest first.
    pub by_name: Vec<(&'static str, u64, u64)>,
    /// Total duration of parentless spans.
    pub root_ns: u64,
}

/// Length of one on/off tracing slice of a time-bounded window.
pub const SLICE_NS: u64 = 250_000_000;

/// Maps a time offset into the window to its slice; even slices trace,
/// odd ones do not.
#[derive(Clone, Copy)]
pub struct SliceClock {
    pub start: Instant,
}

impl SliceClock {
    /// Index of the slice `now` falls in.
    #[inline]
    pub fn slice_of(&self, now: Instant) -> usize {
        (now.saturating_duration_since(self.start).as_nanos() as u64 / SLICE_NS) as usize
    }

    #[inline]
    pub fn traced_at(&self, now: Instant) -> bool {
        self.slice_of(now).is_multiple_of(2)
    }
}

/// Slices that fit a window entirely.
pub fn whole_slices(window_ns: u64) -> usize {
    (window_ns / SLICE_NS) as usize
}

/// `(events, ns)` of the traced (even) and of the untraced (odd) whole
/// slices.
pub fn traced_untraced(per_slice: &[u64], window_ns: u64) -> [(u64, u64); 2] {
    let n = whole_slices(window_ns).min(per_slice.len());
    let mut out = [(0, 0); 2];
    for (i, events) in per_slice[..n].iter().enumerate() {
        out[i % 2].0 += events;
        out[i % 2].1 += SLICE_NS;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_and_untraced_slices_ignore_the_partial_tail() {
        let window = 5 * SLICE_NS + 7;
        assert_eq!(whole_slices(window), 5);
        // The sixth entry is the partial tail.
        let per_slice = [100, 100, 3, 100, 100, 1];
        assert_eq!(
            traced_untraced(&per_slice, window),
            [(203, 3 * SLICE_NS), (200, 2 * SLICE_NS)]
        );
        assert_eq!(traced_untraced(&[], window), [(0, 0); 2]);
    }

    #[test]
    fn self_time_subtracts_children_and_off_slices_record_nothing() {
        let mut t = Tracer::new(true, Instant::now(), "t", 8);
        let op = t.begin("op", NO_SPAN, 1);
        let child = t.begin("call", op, 1);
        t.end(child);
        t.end(op);
        t.set_on(false);
        assert_eq!(t.begin("op", NO_SPAN, 2), NO_SPAN);
        t.end(NO_SPAN);
        let s = t.summary();
        assert_eq!(t.spans().len(), 2);
        let total: u64 = s.by_name.iter().map(|r| r.1).sum();
        assert_eq!(total, s.root_ns, "self times partition the root spans");
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 2);
        assert_eq!(Tracer::disarmed().begin("op", NO_SPAN, 3), NO_SPAN);
    }
}
