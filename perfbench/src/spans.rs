//! In-memory span log for traced runs.
//!
//! A traced run keeps every span (name, start, end, parent, workload,
//! epoch) in memory, derives per-layer self time from the parent links,
//! and writes the whole log at exit as Chrome trace-event JSON, which
//! Perfetto and `chrome://tracing` load directly.

use crate::measure::Outcome;
use odrl_manycore::{Stage, StageTimers};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// The stages `System::step_in_place` times, in pipeline order, with the
/// span name each is recorded under.
const SYSTEM_STAGES: [(&str, Stage); 5] = [
    ("workload", Stage::Workload),
    ("power", Stage::Power),
    ("manycore.sensor", Stage::Sensor),
    ("noc", Stage::Noc),
    ("thermal", Stage::Thermal),
];

/// Per-layer metrics read as per-epoch span totals wherever a chip is
/// stepped from outside: `(metric, span)`.
const STEP_LAYERS: [(&str, &str); 8] = [
    ("workload.us_per_epoch", "workload"),
    ("power.us_per_epoch", "power"),
    ("manycore.sensor_us_per_epoch", "manycore.sensor"),
    ("noc.us_per_epoch", "noc"),
    ("thermal.us_per_epoch", "thermal"),
    ("manycore.step_us", "manycore.step"),
    ("manycore.observe_us", "manycore.observe"),
    ("bench.traced_epoch_us", "epoch"),
];

/// Nanoseconds `stage` gained between two reads of the same timers.
pub fn stage_ns(now: &StageTimers, before: &StageTimers, stage: Stage) -> u64 {
    now.nanos(stage) - before.nanos(stage)
}

/// Span totals of a traced window, read per epoch.
#[derive(Debug)]
pub struct PerEpoch {
    totals: BTreeMap<&'static str, SpanTotals>,
    epochs: u64,
}

impl PerEpoch {
    /// Mean time per epoch in spans named `name`, µs (0 if none).
    pub fn total_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| mean_us(t.total_ns, self.epochs))
    }

    /// Mean self time per epoch in spans named `name`, µs (0 if none).
    pub fn self_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| mean_us(t.self_ns, self.epochs))
    }

    /// Mean duration of one span named `name`, µs (0 if none).
    pub fn per_span_us(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| mean_us(t.total_ns, t.count))
    }

    /// Sets the per-layer metrics of a chip stepped from outside: its
    /// system stages, the step and observe calls, the step's residual
    /// outside the stages, and the epoch's residual outside the calls.
    pub fn set_step_layers(&self, out: &mut Outcome) {
        for (metric, span) in STEP_LAYERS {
            out.set(metric, self.total_us(span));
        }
        out.set("manycore.step_other_us", self.self_us("manycore.step"));
        out.set("bench.epoch_other_us", self.self_us("epoch"));
    }
}

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One closed interval of work.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `manycore.step`.
    pub name: &'static str,
    /// Start, nanoseconds since the log's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Timeline row: 0 is the caller thread, others are workers or cells.
    pub tid: u32,
    /// The workload epoch the span belongs to.
    pub epoch: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    /// Number of spans.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed duration minus the summed durations of direct children.
    pub self_ns: u64,
}

fn mean_us(ns: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        ns as f64 / count as f64 / 1e3
    }
}

/// The span log of one traced run.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `origin`.
    pub fn new(workload: &'static str, origin: Instant) -> Self {
        Self {
            origin,
            workload,
            spans: Vec::new(),
        }
    }

    /// An empty log with room for `n` spans, so that recording inside a
    /// timed window does not allocate.
    pub fn with_capacity(workload: &'static str, origin: Instant, n: usize) -> Self {
        Self {
            origin,
            workload,
            spans: Vec::with_capacity(n),
        }
    }

    /// The log's clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Nanoseconds from the origin to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span between two instants; returns its index for use as
    /// a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        tid: u32,
        epoch: u64,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push_ns(name, start_ns, end_ns, parent, tid, epoch)
    }

    /// Records a span from origin-relative nanoseconds.
    pub fn push_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        tid: u32,
        epoch: u64,
    ) -> u32 {
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            tid,
            epoch,
        });
        index
    }

    /// Sets the end of span `index` (opened with a placeholder end).
    pub fn close(&mut self, index: u32, end: Instant) {
        let end_ns = self.ns(end);
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Lays consecutive child spans of the given durations out from
    /// `start_ns`, for stage times known only as durations (stage timers
    /// accumulate nanoseconds, not intervals). Zero durations are skipped.
    pub fn push_sequence(
        &mut self,
        stages: &[(&'static str, u64)],
        start_ns: u64,
        parent: u32,
        tid: u32,
        epoch: u64,
    ) {
        let mut at = start_ns;
        for &(name, dur) in stages {
            if dur > 0 {
                self.push_ns(name, at, at + dur, parent, tid, epoch);
                at += dur;
            }
        }
    }

    /// Lays one `step_in_place` call's system stage times (deltas of the
    /// system's stage timers) out under `parent`, from `start_ns`.
    pub fn push_system_stages(
        &mut self,
        now: &StageTimers,
        before: &StageTimers,
        start_ns: u64,
        parent: u32,
        tid: u32,
        epoch: u64,
    ) {
        let stages = SYSTEM_STAGES.map(|(name, stage)| (name, stage_ns(now, before, stage)));
        self.push_sequence(&stages, start_ns, parent, tid, epoch);
    }

    /// Appends another log's spans (e.g. one recorded on a worker thread
    /// against the same origin), re-basing its parent links.
    pub fn append(&mut self, other: &[Span]) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.iter().map(|s| Span {
            parent: if s.parent == ROOT {
                ROOT
            } else {
                s.parent + base
            },
            ..*s
        }));
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals over a window of `epochs` epochs.
    pub fn per_epoch(&self, epochs: u64) -> PerEpoch {
        PerEpoch {
            totals: self.totals(),
            epochs,
        }
    }

    /// Per-name totals, with self time computed from the parent links.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.dur_ns();
            t.self_ns += s.dur_ns().saturating_sub(*children);
        }
        out
    }

    /// Writes the first `limit` spans as Chrome trace-event JSON (complete
    /// `X` events, microsecond timestamps), so the file stays loadable
    /// however long the run was. `host` and the total span count are
    /// stored as trace metadata.
    pub fn write_chrome(&self, path: &Path, host: &str, limit: usize) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        write!(
            w,
            "{{\"displayTimeUnit\":\"ns\",\"otherData\":{{\"host\":\"{}\",\"workload\":\"{}\",\"spans_total\":{},\"spans_written\":{}}},\"traceEvents\":[",
            escape(host),
            self.workload,
            self.spans.len(),
            self.spans.len().min(limit),
        )?;
        for (i, s) in self.spans.iter().take(limit).enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"epoch\":{},\"workload\":\"{}\"}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.epoch,
                self.workload,
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new("t", Instant::now());
        let epoch = log.push_ns("epoch", 0, 100, ROOT, 0, 0);
        let step = log.push_ns("step", 10, 70, epoch, 0, 0);
        log.push_sequence(&[("a", 20), ("b", 0), ("c", 15)], 10, step, 0, 0);
        let totals = log.totals();
        assert_eq!(totals["epoch"].self_ns, 40);
        assert_eq!(totals["step"].self_ns, 25);
        assert_eq!(totals["a"].total_ns, 20);
        assert!(!totals.contains_key("b"), "zero-length stages are skipped");
        assert_eq!(totals["c"].self_ns, 15);
    }

    #[test]
    fn append_rebases_parents() {
        let mut log = SpanLog::new("t", Instant::now());
        log.push_ns("x", 0, 5, ROOT, 0, 0);
        let mut other = SpanLog::new("t", Instant::now());
        let p = other.push_ns("p", 0, 10, ROOT, 1, 0);
        other.push_ns("c", 2, 4, p, 1, 0);
        log.append(&other.spans);
        assert_eq!(log.spans[2].parent, 1);
        assert_eq!(log.totals()["p"].self_ns, 8);
    }
}
