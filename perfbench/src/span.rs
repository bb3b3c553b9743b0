//! The traced run's span recorder. Spans are taken in the benchmark's own
//! code, around its calls into each layer: name, start, end, parent span,
//! and the request they belong to. They stay in memory and are written out
//! when the run ends.

use pit_search_core::{SearchPhase, SearchTracer};
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// No parent: a root span.
pub const ROOT: u32 = u32::MAX;

/// Spans kept per run; later spans are counted, not stored, so a long run
/// cannot grow without bound.
const CAPACITY: usize = 600_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (for children) or [`ROOT`]
    /// when the store is full.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return ROOT;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
        };
        self.spans.push(span);
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is filled in by [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&mut self, id: u32) {
        let end = self.ns(Instant::now());
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = end;
        }
    }

    /// Move another store's spans (e.g. a client thread's) into this one,
    /// keeping their clock and parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        for s in other.spans {
            let at = |ns: u64| other.epoch + std::time::Duration::from_nanos(ns);
            let parent = if s.parent == ROOT {
                ROOT
            } else {
                s.parent + base
            };
            self.record(s.name, parent, s.request, at(s.start_ns), at(s.end_ns));
        }
        self.dropped += other.dropped;
    }

    /// Self time of every span named `name`, summed: each span's duration
    /// minus the part its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(c) = child_ns.get_mut(s.parent as usize) {
                *c += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Write every kept span as tab-separated
    /// `id name start_ns end_ns parent request`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id\tname\tstart_ns\tend_ns\tparent\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        if self.dropped > 0 {
            let _ = writeln!(out, "# {} spans beyond capacity not kept", self.dropped);
        }
        std::fs::write(path, out)
    }
}

/// Span name of each search phase.
pub fn phase_name(phase: SearchPhase) -> &'static str {
    match phase {
        SearchPhase::Gather => "search.gather",
        SearchPhase::ExpandRound => "search.expand",
        SearchPhase::Rank => "search.rank",
    }
}

/// A [`SearchTracer`] that turns the searcher's phase callbacks into spans
/// under one query span.
pub struct PhaseSpans<'a> {
    pub spans: &'a mut Spans,
    pub parent: u32,
    pub request: u64,
    open: Option<Instant>,
}

impl<'a> PhaseSpans<'a> {
    pub fn new(spans: &'a mut Spans, parent: u32, request: u64) -> Self {
        PhaseSpans {
            spans,
            parent,
            request,
            open: None,
        }
    }
}

impl SearchTracer for PhaseSpans<'_> {
    fn phase_begin(&mut self, _phase: SearchPhase) {
        self.open = Some(Instant::now());
    }

    fn phase_end(&mut self, phase: SearchPhase, _detail: u64) {
        if let Some(start) = self.open.take() {
            self.spans.record(
                phase_name(phase),
                self.parent,
                self.request,
                start,
                Instant::now(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut s = Spans::new();
        let t0 = s.epoch;
        let at = |us: u64| t0 + Duration::from_micros(us);
        let q = s.record("query", ROOT, 1, at(0), at(100));
        s.record("search.gather", q, 1, at(10), at(30));
        s.record("search.rank", q, 1, at(40), at(50));
        assert_eq!(s.self_ns("query"), 70_000);
        assert_eq!(s.self_ns("search.gather"), 20_000);
        assert_eq!(s.count("search.rank"), 1);
    }
}
