//! In-memory span recorder for traced runs.
//!
//! A traced run wraps calls into the crates' public functions in spans
//! (name, label, start, end, parent, cell id). Spans stay in memory until
//! the run ends; then they are written out once as JSONL and each layer's
//! self time (its duration minus its children's) is derived from them.

use std::sync::Mutex;
use std::time::Instant;

use sim_core::Json;

/// One timed region.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `"engine.run"`.
    pub name: &'static str,
    /// What the span covered (a system label, a workload name, …).
    pub label: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Sweep cell the span belongs to, if any.
    pub cell: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A thread-safe span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Runs `f` inside a span and returns its result. `f` receives the
    /// span's index, to pass as the parent of nested spans.
    pub fn time<T>(
        &self,
        name: &'static str,
        label: impl Into<String>,
        parent: Option<usize>,
        cell: Option<usize>,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let id = {
            let start_ns = self.now_ns();
            let mut spans = self.lock();
            spans.push(Span {
                name,
                label: label.into(),
                start_ns,
                end_ns: start_ns,
                parent,
                cell,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = self.now_ns();
        self.lock()[id].end_ns = end;
        out
    }

    /// Records a span measured by the caller (for intervals that are not
    /// one call, like "request accepted → first progress event").
    pub fn record(
        &self,
        name: &'static str,
        label: impl Into<String>,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.lock().push(Span {
            name,
            label: label.into(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            cell: None,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Self time of every span in nanoseconds: its duration minus the
/// durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = child_ns.get_mut(p) {
                *c += s.dur_ns();
            }
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

/// Self times in milliseconds of every span named `name`, with labels.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<(String, f64)> {
    let selfs = self_times_ns(spans);
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(s, ns)| (s.label.clone(), ns as f64 / 1e6))
        .collect()
}

/// Self times in milliseconds of spans named `name` (labels dropped).
pub fn self_ms_values(spans: &[Span], name: &str) -> Vec<f64> {
    self_ms(spans, name).into_iter().map(|(_, ms)| ms).collect()
}

/// Total self time in seconds of spans named `name`.
pub fn total_self_s(spans: &[Span], name: &str) -> f64 {
    self_ms_values(spans, name).iter().sum::<f64>() / 1e3
}

/// The spans as JSONL, one object per line.
pub fn to_jsonl(spans: &[Span]) -> String {
    let opt = |v: Option<usize>| v.map_or(Json::Null, |x| Json::Num(x as f64));
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("name", Json::Str(s.name.to_string())),
            ("label", Json::Str(s.label.clone())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
            ("parent", opt(s.parent)),
            ("cell", opt(s.cell)),
        ]);
        out.push_str(&line.to_string_compact());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            label: String::new(),
            start_ns: start,
            end_ns: end,
            parent,
            cell: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // cell [0,100) > engine [10,70) > inner [20,30); cell > store [70,90)
        let spans = vec![
            span("cell", 0, 100, None),
            span("engine", 10, 70, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("store", 70, 90, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - 60 - 20, 60 - 10, 10, 20]);
        // Self times add back up to the root's duration.
        assert_eq!(selfs.iter().sum::<u64>(), 100);
        assert_eq!(self_ms_values(&spans, "engine"), vec![50.0 / 1e6]);
    }

    #[test]
    fn tracer_nests_and_times() {
        let t = Tracer::new();
        let v = t.time("outer", "a", None, Some(3), |id| {
            t.time("inner", "b", id, Some(3), |_| 7)
        });
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let lines = to_jsonl(&spans);
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"inner\""));
    }
}
