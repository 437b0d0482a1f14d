//! In-memory spans for the traced run.
//!
//! The harness wraps each public call it makes into a layer in a span
//! (`source: "harness"`); the per-step timings a `PlanReport` or a
//! daemon reply carries become child spans (`source: "program"`), laid
//! end to end from their parent's start because the program reports
//! durations, not timestamps. Spans live in a `Vec` until the run ends
//! and are then written as one JSON object per line.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed by the benchmark around a public call.
    Harness,
    /// Reported by the measured program itself.
    Program,
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Which repetition of the traced path this span belongs to.
    pub iter: usize,
    pub layer: String,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub source: Source,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Int(self.id as i64)),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
            ),
            ("iter", Json::Int(self.iter as i64)),
            ("layer", Json::str(&self.layer)),
            ("name", Json::str(&self.name)),
            ("start_ns", Json::Int(self.start_ns as i64)),
            ("end_ns", Json::Int(self.end_ns as i64)),
            (
                "source",
                Json::str(match self.source {
                    Source::Harness => "harness",
                    Source::Program => "program",
                }),
            ),
        ])
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub iter: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            iter: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a harness span; close it with [`Tracer::end`].
    pub fn begin(&mut self, parent: Option<usize>, layer: &str, name: &str) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            iter: self.iter,
            layer: layer.into(),
            name: name.into(),
            start_ns: now,
            end_ns: now,
            source: Source::Harness,
        });
        id
    }

    /// Closes a span and returns its duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].duration_s()
    }

    /// Times `f` as a harness span under `parent`.
    pub fn scope<T>(
        &mut self,
        parent: Option<usize>,
        layer: &str,
        name: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(parent, layer, name);
        let out = f();
        self.end(id);
        out
    }

    /// Adds the program's own per-step timings as children of `parent`,
    /// one after another from the parent's start.
    pub fn program_steps<'a>(
        &mut self,
        parent: usize,
        steps: impl IntoIterator<Item = (&'static str, &'a str, f64)>,
    ) {
        let mut cursor = self.spans[parent].start_ns;
        for (layer, name, seconds) in steps {
            let end = cursor + (seconds.max(0.0) * 1e9) as u64;
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: Some(parent),
                iter: self.iter,
                layer: layer.into(),
                name: name.into(),
                start_ns: cursor,
                end_ns: end,
                source: Source::Program,
            });
            cursor = end;
        }
    }

    /// One JSON object per span, one span per line.
    pub fn to_jsonl(&self) -> String {
        self.spans
            .iter()
            .map(|s| format!("{}\n", s.to_json()))
            .collect()
    }
}

/// Self time of every span in nanoseconds, indexed by span id: the span's
/// duration minus the part of it its children cover. Children may
/// overlap one another or stick out of the parent; only the union of
/// their intervals, clipped to the parent, is subtracted.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Seconds of self time per layer, summed within each iteration of the
/// spans selected by `keep`, then the median over iterations.
pub fn layer_self_seconds(spans: &[Span], keep: impl Fn(&Span) -> bool) -> BTreeMap<String, f64> {
    let self_ns = self_times_ns(spans);
    let mut per_iter: BTreeMap<String, BTreeMap<usize, f64>> = BTreeMap::new();
    for span in spans.iter().filter(|s| keep(s)) {
        *per_iter
            .entry(span.layer.clone())
            .or_default()
            .entry(span.iter)
            .or_default() += self_ns[span.id] as f64 * 1e-9;
    }
    per_iter
        .into_iter()
        .map(|(layer, iters)| {
            let values: Vec<f64> = iters.into_values().collect();
            (layer, crate::stats::median(&values))
        })
        .collect()
}

/// Median duration over iterations of the harness spans named `name`.
pub fn median_duration_s(spans: &[Span], name: &str) -> f64 {
    let values: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name && s.source == Source::Harness)
        .map(Span::duration_s)
        .collect();
    crate::stats::median(&values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            iter: 0,
            layer: layer.into(),
            name: format!("s{id}"),
            start_ns,
            end_ns,
            source: Source::Harness,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            // Two overlapping children cover 10..50 together.
            span(1, Some(0), "a", 10, 40),
            span(2, Some(0), "b", 30, 50),
            // A nested grandchild only reduces its own parent.
            span(3, Some(1), "c", 15, 25),
            // A child sticking out of the parent is clipped to 90..100.
            span(4, Some(0), "d", 90, 130),
            // A child entirely outside the parent covers nothing.
            span(5, Some(0), "e", 200, 300),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 100 - 40 - 10);
        assert_eq!(self_ns[1], 30 - 10);
        assert_eq!(self_ns[2], 20);
        assert_eq!(self_ns[3], 10);
        assert_eq!(self_ns[4], 40);
    }

    #[test]
    fn contained_child_intervals_are_not_counted_twice() {
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 80),
            span(2, Some(0), "a", 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn program_steps_are_laid_end_to_end_and_exported() {
        let mut tr = Tracer::new();
        let root = tr.begin(None, "core.executor", "execute");
        tr.spans[root].end_ns = tr.spans[root].start_ns + 1_000_000;
        tr.program_steps(
            root,
            [("fft", "qft", 4e-4), ("sim.segmented", "gates", 5e-4)],
        );
        let start = tr.spans[root].start_ns;
        assert_eq!(tr.spans[1].start_ns, start);
        assert_eq!(tr.spans[2].start_ns, start + 400_000);
        assert_eq!(tr.spans[2].end_ns, start + 900_000);
        assert_eq!(self_times_ns(&tr.spans)[root], 100_000);
        let by_layer = layer_self_seconds(&tr.spans, |s| s.source == Source::Program);
        assert!((by_layer["fft"] - 4e-4).abs() < 1e-12);
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        let row = crate::json::parse(lines[1]).unwrap();
        assert_eq!(row.get("source").and_then(Json::as_str), Some("program"));
        assert_eq!(row.get("parent"), Some(&Json::Int(0)));
    }
}
