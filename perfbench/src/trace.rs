//! In-memory span recording for the traced run.
//!
//! A span is `(id, parent, op, name, start, end)`; `name` is
//! `<layer>.<call>`, where `<layer>` is the module the timed public
//! function lives in. Spans are kept in memory and written out once, when
//! the run ends. Calls that happen *inside* another public function (the
//! solve inside `scenario::run_in`, the resolve inside `Engine::solve`)
//! cannot be timed from outside, so the benchmark times the same call again
//! right after the op ("replay") and records it as a child of the span that
//! contains the original; such spans carry `replayed = 1`. A span's self
//! time is its duration minus its children's.
//!
//! Besides spans the tracer keeps named samples (`cholesky.fill_nnz`, …):
//! counts and derived values read at the same boundaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based id; 0 is "no parent".
    pub id: u32,
    /// Parent span id (0 for a root).
    pub parent: u32,
    /// The op (request, scenario run or frame) this span belongs to.
    pub op: u32,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Timed in a replay of the call rather than around the call itself.
    pub replayed: bool,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Span and sample recorder; every method is a no-op when disabled, so the
/// untraced run executes the same code with no timing around layer calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// A recorder; `enabled = false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), spans: Vec::new(), samples: BTreeMap::new() }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (0 when disabled).
    pub fn record(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        start: u64,
        end: u64,
        replayed: bool,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span { id, parent, op, name, start, end, replayed });
        id
    }

    /// Opens a span that children can name as parent before it ends;
    /// returns its id (0 when disabled).
    pub fn begin(&mut self, parent: u32, op: u32, name: &'static str) -> u32 {
        let now = self.now();
        self.record(parent, op, name, now, now, false)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: u32) {
        if id > 0 {
            let now = self.now();
            self.spans[id as usize - 1].end = now;
        }
    }

    /// Duration of span `id`, ms (0 for id 0).
    pub fn ms(&self, id: u32) -> f64 {
        if id == 0 {
            return 0.0;
        }
        self.spans[id as usize - 1].dur() as f64 * 1e-6
    }

    /// Runs `f` inside a span (a plain call when disabled). Returns the
    /// result and the span id.
    pub fn span<R>(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        if !self.enabled {
            return (f(), 0);
        }
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(parent, op, name, start, end, false))
    }

    /// Runs `f` as a replay of a call made inside span `parent`.
    pub fn replay<R>(
        &mut self,
        parent: u32,
        op: u32,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u32) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.record(parent, op, name, start, end, true))
    }

    /// Records one named sample (counts, derived values).
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if self.enabled {
            self.samples.entry(name).or_default().push(value);
        }
    }

    /// Samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur() as f64).collect()
    }

    /// Self time (ns) of every span named `name`: duration minus children.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let child = self.child_ns();
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur() as f64 - child[s.id as usize] as f64)
            .collect()
    }

    /// Total duration of the root spans (ops and set-up), ns: the wall time
    /// the per-layer shares divide.
    pub fn root_ns(&self) -> f64 {
        self.spans.iter().filter(|s| s.parent == 0).map(|s| s.dur() as f64).sum()
    }

    /// Children's total duration per span id (index 0 unused).
    fn child_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child[s.parent as usize] += s.dur();
        }
        child
    }

    /// Per-layer `(count, self ns)`, layers keyed by the span-name prefix.
    pub fn layers(&self) -> BTreeMap<&'static str, (usize, f64)> {
        let child = self.child_ns();
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in &self.spans {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let e = out.entry(layer).or_default();
            e.0 += 1;
            // A replayed child can outlast its parent's original call by
            // timing noise; self time is clipped at zero.
            e.1 += (s.dur() as f64 - child[s.id as usize] as f64).max(0.0);
        }
        out
    }

    /// Writes every span as CSV (`id,parent,op,name,start_ns,end_ns,replayed`).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("id,parent,op,name,start_ns,end_ns,replayed\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.op,
                s.name,
                s.start,
                s.end,
                u8::from(s.replayed)
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.record(0, 1, "scenario.op", 0, 100, false);
        t.record(root, 1, "scenario.parse", 10, 30, false);
        t.record(root, 1, "solve.steady", 200, 250, true);
        assert_eq!(t.self_times("scenario.op"), vec![30.0]);
        let layers = t.layers();
        assert_eq!(layers["scenario"], (2, 50.0));
        assert_eq!(layers["solve"], (1, 50.0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let (v, id) = t.span(0, 0, "x.y", || 7);
        t.sample("x.n", 1.0);
        assert_eq!((v, id), (7, 0));
        assert!(t.layers().is_empty() && t.samples("x.n").is_empty());
    }
}
