//! Spans recorded from the benchmark's own files, around each call into a
//! layer's `pub` API. Kept in memory, written out when the run ends.
//!
//! A disabled tracer costs one branch per call site, so the untraced run
//! that yields the end-to-end metrics executes the same code path.

use std::time::Instant;

/// One timed call: `name` is `layer.operation`, `tag` says on what
/// (`"SPMV/lp"`, `"queue"`), `rep` ties the spans of one repetition together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.operation`.
    pub name: String,
    /// Subject of the call.
    pub tag: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Repetition the span belongs to.
    pub rep: u32,
}

impl Span {
    /// Wall time covered.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::begin`]; hand it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
#[must_use = "a span that is never ended has no duration"]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    rep: u32,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only branches.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Switches recording on or off between repetitions.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled tracing inside a span");
        self.enabled = enabled;
    }

    /// Sets the repetition id stamped on subsequent spans.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &str, tag: &str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name: name.to_string(),
            tag: tag.to_string(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        // Read the clock last so the bookkeeping above lands in the parent.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        if id.0 == DISABLED.0 {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        assert_eq!(self.open.pop(), Some(id.0), "spans closed out of order");
        self.spans[id.0 as usize].end_ns = now;
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent per repetition in spans called `name` whose tag passes
    /// `keep`, one entry per repetition that has any span at all.
    pub fn seconds_per_rep(&self, name: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        let mut reps: Vec<u32> = self.spans.iter().map(|s| s.rep).collect();
        reps.sort_unstable();
        reps.dedup();
        reps.iter()
            .map(|&rep| {
                self.spans
                    .iter()
                    .filter(|s| s.rep == rep && s.name == name && keep(&s.tag))
                    .map(|s| s.duration_ns() as f64 * 1e-9)
                    .sum()
            })
            .collect()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if lo < hi {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name: "x.y".into(),
            tag: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root 0..100 ─ child 10..40 ─ grandchild 15..20
        //             └ child 50..70
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 20, Some(1)),
            span(50, 70, Some(0)),
        ];
        // Only direct children count against the root: 100 − 30 − 20.
        assert_eq!(self_times_ns(&spans), vec![50, 25, 5, 20]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = vec![
            span(100, 200, None),
            span(110, 150, Some(0)),
            span(140, 170, Some(0)), // overlaps the previous by 10
            span(190, 260, Some(0)), // overhangs the parent by 60
            span(120, 130, Some(0)), // wholly inside the first
            span(50, 90, Some(0)),   // wholly outside: covers nothing
        ];
        // Covered: 110..170 (60) + 190..200 (10) = 70.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn tracer_records_parents_and_reps() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let outer = t.begin("rep", "");
        let inner = t.begin("simt.launch", "TMM/lp");
        t.end(inner);
        t.end(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].rep, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let own = self_times_ns(s);
        assert_eq!(own[0] + s[1].duration_ns(), s[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("rep", "");
        t.end(id);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn seconds_per_rep_filters_by_name_and_tag() {
        let mut t = Tracer::new(true);
        for rep in 0..2 {
            t.set_rep(rep);
            for tag in ["TMM/lp", "SPMV/lp"] {
                let id = t.begin("simt.launch", tag);
                t.end(id);
            }
            let id = t.begin("nvm.flush_all", "TMM/lp");
            t.end(id);
        }
        assert_eq!(t.seconds_per_rep("simt.launch", |_| true).len(), 2);
        let none = t.seconds_per_rep("simt.launch", |tag| tag.starts_with("HISTO"));
        assert_eq!(none, vec![0.0, 0.0]);
    }
}
