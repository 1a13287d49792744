//! The benchmark's own in-memory span recorder, and the step clock.
//!
//! Spans are opened and closed by the benchmark around each call into a
//! layer (never inside the program), kept in memory, and written out when
//! the run ends. A disabled recorder keeps no spans, so untraced runs time
//! the program alone.
//!
//! Enabled or not, the recorder cuts every operation into steps: each
//! step ends where a top-level layer call returns, and the last one where
//! the operation ends, so the steps tile the operation. Their wall and
//! CPU times (two clock reads per layer call) let the runner take each
//! step's fastest repetition across operations.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::measure::{median, process_cpu_s};

/// One recorded layer call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `sim.profile`.
    pub name: &'static str,
    /// The operation (or set-up repetition) the call belongs to.
    pub op: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Process CPU time (all threads) spent between start and end.
    pub cpu_ns: u64,
    /// Units of work the call covered (instructions, events, ...).
    pub count: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn wall_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span (inert when the recorder is disabled).
#[must_use]
pub struct SpanId(Option<(usize, f64)>);

/// Wall and CPU seconds of one step of an operation.
pub type Step = (f64, f64);

/// Records spans when enabled, and the steps of every operation.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    op: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Spans open right now, recorded or not.
    depth: usize,
    /// The depth at which a closing span ends a step: just inside the
    /// operation's root.
    step_depth: usize,
    /// Where the current step began: wall clock and process CPU seconds.
    step_start: (Instant, f64),
    steps: Vec<Step>,
}

impl Recorder {
    /// A recorder; `enabled == false` keeps no spans.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
            depth: 0,
            step_depth: 0,
            step_start: (Instant::now(), 0.0),
            steps: Vec::new(),
        }
    }

    /// Starts operation (or set-up repetition) `op`: tags later spans with
    /// it, opens its root span `name` and starts its first step.
    pub fn begin_op(&mut self, op: u32, name: &'static str) -> SpanId {
        self.op = op;
        self.steps.clear();
        self.depth = 0;
        let root = self.open(name);
        self.step_depth = self.depth;
        self.step_start = (Instant::now(), process_cpu_s());
        root
    }

    /// Ends the operation `root` began and returns its steps. Layer calls
    /// left open (a call that failed) end with it.
    pub fn end_op(&mut self, root: SpanId) -> Vec<Step> {
        self.depth = self.step_depth;
        self.end_step();
        self.close(root, 0);
        std::mem::take(&mut self.steps)
    }

    fn end_step(&mut self) {
        let cpu = process_cpu_s();
        let (wall_start, cpu_start) =
            std::mem::replace(&mut self.step_start, (Instant::now(), cpu));
        self.steps
            .push((wall_start.elapsed().as_secs_f64(), cpu - cpu_start));
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.open.is_empty(), "span still open");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        self.depth += 1;
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            cpu_ns: 0,
            count: 0,
        });
        self.open.push(index);
        let cpu = process_cpu_s();
        self.spans[index].start_ns = self.now_ns();
        SpanId(Some((index, cpu)))
    }

    /// Closes `id`, recording `count` units of work for it; closing a
    /// top-level layer call ends a step. Spans opened inside `id` and left
    /// open (a layer call that failed) end with it.
    pub fn close(&mut self, id: SpanId, count: u64) {
        self.depth = self.depth.saturating_sub(1);
        if self.depth == self.step_depth {
            self.end_step();
        }
        let Some((index, cpu_start)) = id.0 else {
            return;
        };
        let end = self.now_ns();
        let cpu = ((process_cpu_s() - cpu_start).max(0.0) * 1e9) as u64;
        while let Some(open) = self.open.pop() {
            if open == index {
                break;
            }
            self.spans[open].end_ns = end;
        }
        let span = &mut self.spans[index];
        span.end_ns = end;
        span.cpu_ns = cpu;
        span.count = count;
    }

    /// Runs `f` inside a span named `name` that covers no counted work.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let out = f();
        self.close(id, 0);
        out
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap each other: they run on one thread).
    #[must_use]
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::wall_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.wall_ns());
            }
        }
        own
    }

    /// Median over `ops` of the per-op total self time of spans named
    /// `name`, in milliseconds (0 when no such span was recorded).
    #[must_use]
    pub fn per_op_ms(&self, name: &str, ops: &[u32]) -> f64 {
        let own = self.self_ns();
        let totals: Vec<f64> = ops
            .iter()
            .map(|&op| {
                self.spans
                    .iter()
                    .zip(&own)
                    .filter(|(s, _)| s.op == op && s.name == name)
                    .map(|(_, &ns)| ns as f64)
                    .sum::<f64>()
            })
            .collect();
        if totals.iter().all(|&t| t == 0.0) {
            0.0
        } else {
            median(&totals) / 1e6
        }
    }

    /// Total self time of spans named `name` divided by their total count,
    /// in nanoseconds per unit (0 when nothing was counted).
    #[must_use]
    pub fn ns_per_count(&self, name: &str) -> f64 {
        let own = self.self_ns();
        let (ns, count) = self
            .spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold((0u64, 0u64), |(ns, n), (s, &o)| (ns + o, n + s.count));
        if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64
        }
    }

    /// Process CPU time over wall time, summed over spans named `name`.
    #[must_use]
    pub fn cpu_per_wall(&self, name: &str) -> f64 {
        let (cpu, wall) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(c, w), s| (c + s.cpu_ns, w + s.wall_ns()));
        if wall == 0 {
            0.0
        } else {
            cpu as f64 / wall as f64
        }
    }

    /// Writes the spans as tab-separated lines (one header line).
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing `path`.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id\top\tparent\tname\tstart_ns\tend_ns\tself_ns\tcpu_ns\tcount"
        )?;
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{own}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.cpu_ns, s.count
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        let root = rec.begin_op(1, "op");
        let outer = rec.open("outer");
        let inner = rec.open("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        rec.close(inner, 7);
        rec.close(outer, 0);
        let steps = rec.end_op(root);
        let own = rec.self_ns();
        assert_eq!(rec.spans[2].parent, Some(1));
        assert!(own[1] < rec.spans[1].wall_ns());
        assert_eq!(own[2], rec.spans[2].wall_ns());
        assert!(rec.ns_per_count("inner") > 0.0);
        assert!(rec.per_op_ms("inner", &[1]) >= 2.0);
        // One step per top-level call, plus the tail of the operation.
        assert_eq!(steps.len(), 2);
        assert!(steps[0].0 >= 0.002);

        // A span left open by a failed call ends with the operation.
        let root = rec.begin_op(2, "op");
        let _abandoned = rec.open("inner");
        assert_eq!(rec.end_op(root).len(), 1);
        assert_eq!(rec.spans[4].end_ns, rec.spans[3].end_ns);
        rec.set_enabled(false);

        let mut off = Recorder::new(false);
        let root = off.begin_op(1, "op");
        let id = off.open("x");
        off.close(id, 1);
        assert_eq!(off.end_op(root).len(), 2);
        assert!(off.spans.is_empty());
    }
}
