//! Snapshots: named samples plus trace events, gathered from the
//! instrumented components' `collect_obs` methods, and rendered as
//! Prometheus-style text.
//!
//! A [`Snapshot`] is plain data — cheap to merge, serialize and render.
//! Building one is the cold path (allocates); recording happens on the
//! metric primitives themselves and never touches a snapshot.

use crate::metrics::HistogramSnapshot;
use crate::ring::TraceEvent;
use std::fmt::Write as _;

/// One named sample in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// The metric name (snake_case; sanitized at render time).
    pub name: String,
    /// The sampled value.
    pub value: Value,
}

/// A sampled metric value.
///
/// The histogram variant inlines its full 512-byte bucket array:
/// samples exist only on the cold scrape path, where one contiguous
/// `Vec<Sample>` beats a pointer chase per histogram.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time level.
    Gauge(u64),
    /// A full bucket distribution.
    Histogram(HistogramSnapshot),
}

/// A point-in-time view of what the instrumented components know:
/// named samples plus the trace ring's published events. Plain data —
/// cheap to merge, serialize and render.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Named samples, in collection order.
    pub samples: Vec<Sample>,
    /// Published trace events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events the ring abandoned under write contention.
    pub dropped_events: u64,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new() -> Self {
        Snapshot::default()
    }

    /// Appends a counter sample.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.samples.push(Sample { name: name.into(), value: Value::Counter(value) });
    }

    /// Appends a gauge sample.
    pub fn push_gauge(&mut self, name: impl Into<String>, value: u64) {
        self.samples.push(Sample { name: name.into(), value: Value::Gauge(value) });
    }

    /// Appends a histogram sample.
    pub fn push_histogram(&mut self, name: impl Into<String>, value: HistogramSnapshot) {
        self.samples.push(Sample { name: name.into(), value: Value::Histogram(value) });
    }

    /// The first sample with this name, if any.
    pub fn find(&self, name: &str) -> Option<&Value> {
        self.samples.iter().find(|s| s.name == name).map(|s| &s.value)
    }

    /// The value of the named counter, if present as one.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.find(name) {
            Some(Value::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The value of the named gauge, if present as one.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.find(name) {
            Some(Value::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// The named histogram, if present as one.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.find(name) {
            Some(Value::Histogram(h)) => Some(h),
            _ => None,
        }
    }
}

/// Sanitizes a metric name for the text exposition: anything outside
/// `[A-Za-z0-9_:]` becomes `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect()
}

/// Renders a snapshot as Prometheus-style exposition text (cold path,
/// allocation allowed): `# TYPE` headers, cumulative `_bucket{le=..}`
/// lines for non-empty histogram buckets, `{quantile=..}` estimate
/// lines (p50/p90/p99), `_count`/`_max` totals, and the trace events
/// as trailing `# trace` comment lines. Deterministic: equal snapshots
/// render byte-identical text.
pub fn render_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    for sample in &snap.samples {
        let name = sanitize(&sample.name);
        match &sample.value {
            Value::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter\n{name} {v}");
            }
            Value::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge\n{name} {v}");
            }
            Value::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                for (b, &n) in h.buckets.iter().enumerate() {
                    if n == 0 {
                        continue;
                    }
                    cumulative = cumulative.saturating_add(n);
                    let le = crate::metrics::bucket_bounds(b).1;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                    let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.quantile(q));
                }
                let _ = writeln!(out, "{name}_count {}", h.count());
                let _ = writeln!(out, "{name}_max {}", h.max_estimate());
            }
        }
    }
    if snap.dropped_events > 0 {
        let _ = writeln!(out, "# trace_dropped {}", snap.dropped_events);
    }
    for e in &snap.events {
        let _ = writeln!(out, "# trace {} a={} b={} t_ns={}", e.kind.as_str(), e.a, e.b, e.t_ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::TraceKind;

    #[test]
    fn render_text_is_deterministic_and_complete() {
        let mut snap = Snapshot::new();
        snap.push_counter("fetches", 12);
        snap.push_gauge("conns", 3);
        let h = crate::metrics::Histogram::new();
        for v in [100u64, 100, 5000] {
            h.record(v);
        }
        snap.push_histogram("lat ns", h.snapshot()); // space gets sanitized
        snap.events.push(TraceEvent { kind: TraceKind::ConnOpen, a: 1, b: 0, t_ns: 42 });

        let text = render_text(&snap);
        assert_eq!(text, render_text(&snap.clone()), "equal snapshots render identically");
        assert!(text.contains("# TYPE fetches counter\nfetches 12\n"));
        assert!(text.contains("# TYPE conns gauge\nconns 3\n"));
        assert!(text.contains("# TYPE lat_ns histogram"));
        assert!(text.contains("lat_ns_bucket{le=\"127\"} 2"));
        assert!(text.contains("lat_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_ns_count 3"));
        assert!(text.contains("{quantile=\"0.99\"}"));
        assert!(text.contains("# trace conn_open a=1 b=0 t_ns=42"));
    }
}
