use core::fmt;
use std::sync::Mutex;

use ltnc_metrics::{bucket_bound, LogHistogramSnapshot, LOG_BUCKETS};

use crate::json::{self, JsonValue};

/// How a sample's value moves, rendered as its `# TYPE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// A running total that only grows, so a scraper may take its rate.
    Counter,
    /// A current value that may fall as well as rise.
    Gauge,
}

impl SampleKind {
    fn label(self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
        }
    }
}

/// One value sampled from a live source.
///
/// `name` is the value's snake_case field name within its family;
/// `labels` carries sample-level dimensions (for example `replica="2"` or
/// `hop="3"`) on top of whatever labels the family was registered with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Name within the family (for example `bytes_sent`).
    pub name: &'static str,
    /// Extra label dimensions specific to this sample.
    pub labels: Vec<(&'static str, String)>,
    /// The current value.
    pub value: u64,
    /// Whether the value is a running total or a current value.
    pub kind: SampleKind,
}

impl Sample {
    /// A label-less counter sample.
    #[must_use]
    pub fn plain(name: &'static str, value: u64) -> Sample {
        Sample { name, labels: Vec::new(), value, kind: SampleKind::Counter }
    }

    /// A label-less gauge sample.
    #[must_use]
    pub fn gauge(name: &'static str, value: u64) -> Sample {
        Sample { kind: SampleKind::Gauge, ..Sample::plain(name, value) }
    }
}

/// Samples one family of counters from a live source.
///
/// Implemented for any `Fn() -> Vec<Sample> + Send + Sync`, so the usual
/// collector is a closure over a shared handle to live counters:
///
/// ```
/// use std::sync::Arc;
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use ltnc_telemetry::{MetricsRegistry, Sample};
///
/// let served = Arc::new(AtomicU64::new(0));
/// let registry = MetricsRegistry::new();
/// let source = served.clone();
/// registry.register("serve", &[("server", "a".to_string())], move || {
///     vec![Sample::plain("sessions", source.load(Ordering::Relaxed))]
/// });
///
/// served.store(3, Ordering::Relaxed);
/// let text = registry.snapshot().to_prometheus();
/// assert!(text.contains(r#"ltnc_serve_sessions{server="a"} 3"#));
/// ```
pub trait Collector: Send + Sync {
    /// Reads the current cumulative values.
    fn samples(&self) -> Vec<Sample>;
}

impl<F> Collector for F
where
    F: Fn() -> Vec<Sample> + Send + Sync,
{
    fn samples(&self) -> Vec<Sample> {
        self()
    }
}

/// One histogram distribution sampled from a live source, carrying a
/// full [`LogHistogramSnapshot`] instead of a single counter value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSample {
    /// Histogram name within the family (for example
    /// `delivery_latency_us`).
    pub name: &'static str,
    /// The current cumulative distribution.
    pub snapshot: LogHistogramSnapshot,
}

impl HistogramSample {
    /// The histogram `name` with its distribution.
    #[must_use]
    pub fn plain(name: &'static str, snapshot: LogHistogramSnapshot) -> HistogramSample {
        HistogramSample { name, snapshot }
    }
}

/// Samples one family of histograms from a live source; implemented for
/// any `Fn() -> Vec<HistogramSample> + Send + Sync`, mirroring
/// [`Collector`].
pub trait HistogramCollector: Send + Sync {
    /// Reads the current cumulative distributions.
    fn histograms(&self) -> Vec<HistogramSample>;
}

impl<F> HistogramCollector for F
where
    F: Fn() -> Vec<HistogramSample> + Send + Sync,
{
    fn histograms(&self) -> Vec<HistogramSample> {
        self()
    }
}

/// What a registered entry samples: plain counters or histograms.
enum Source {
    Counters(Box<dyn Collector>),
    Histograms(Box<dyn HistogramCollector>),
}

struct Entry {
    family: String,
    labels: Vec<(String, String)>,
    source: Source,
}

/// A set of labeled counter families, sampled on demand.
///
/// The registry unifies the workspace's counter structs behind one
/// scrapeable surface: each registration pairs a family name and fixed
/// labels with a [`Collector`] that reads the live values. Snapshots are
/// cumulative: a scraper takes rates over them, and an in-process
/// interval is a counter family's own `snapshot_delta`.
///
/// ```
/// use ltnc_telemetry::{samples, MetricsRegistry};
/// use ltnc_metrics::WireCounters;
/// use std::sync::{Arc, Mutex};
///
/// let live = Arc::new(Mutex::new(WireCounters::new()));
/// let registry = MetricsRegistry::new();
/// let source = live.clone();
/// registry.register("wire", &[("node", "n0".to_string())], move || {
///     samples(&*source.lock().unwrap())
/// });
///
/// live.lock().unwrap().datagrams_sent = 7;
/// assert_eq!(registry.snapshot().value("wire", "datagrams_sent"), 7);
/// live.lock().unwrap().datagrams_sent = 10;
/// assert_eq!(registry.snapshot().value("wire", "datagrams_sent"), 10);
/// ```
#[derive(Default)]
pub struct MetricsRegistry {
    entries: Mutex<Vec<Entry>>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds a counter family. `family` becomes the metric-name prefix
    /// (`ltnc_<family>_<counter>`), `labels` are attached to every sample
    /// the collector produces.
    pub fn register(
        &self,
        family: &str,
        labels: &[(&str, String)],
        collector: impl Collector + 'static,
    ) {
        self.push_entry(family, labels, Source::Counters(Box::new(collector)));
    }

    /// Adds a histogram family. Rendered in the Prometheus exposition as
    /// cumulative `ltnc_<family>_<name>_bucket{le="…"}` series plus
    /// `_sum` and `_count`, and in JSON with the percentile summary.
    pub fn register_histograms(
        &self,
        family: &str,
        labels: &[(&str, String)],
        collector: impl HistogramCollector + 'static,
    ) {
        self.push_entry(family, labels, Source::Histograms(Box::new(collector)));
    }

    fn push_entry(&self, family: &str, labels: &[(&str, String)], source: Source) {
        let entry = Entry {
            family: family.to_string(),
            labels: labels.iter().map(|(k, v)| ((*k).to_string(), v.clone())).collect(),
            source,
        };
        if let Ok(mut entries) = self.entries.lock() {
            entries.push(entry);
        }
    }

    /// Number of registered families.
    #[must_use]
    pub fn families(&self) -> usize {
        self.entries.lock().map(|entries| entries.len()).unwrap_or(0)
    }

    /// Samples every collector and returns the cumulative values.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Ok(entries) = self.entries.lock() else {
            return MetricsSnapshot { families: Vec::new() };
        };
        let families = entries
            .iter()
            .map(|entry| {
                let (samples, histograms) = match &entry.source {
                    Source::Counters(collector) => (collector.samples(), Vec::new()),
                    Source::Histograms(collector) => (Vec::new(), collector.histograms()),
                };
                FamilySnapshot {
                    family: entry.family.clone(),
                    labels: entry.labels.clone(),
                    samples,
                    histograms,
                }
            })
            .collect();
        MetricsSnapshot { families }
    }
}

impl fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MetricsRegistry").field("families", &self.families()).finish()
    }
}

/// One registered family's samples within a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilySnapshot {
    /// The family name the collector was registered under.
    pub family: String,
    /// The fixed labels of the registration.
    pub labels: Vec<(String, String)>,
    /// The sampled counters (empty for histogram families).
    pub samples: Vec<Sample>,
    /// The sampled histograms (empty for counter families).
    pub histograms: Vec<HistogramSample>,
}

/// A point-in-time sampling of every family in a registry, renderable as
/// Prometheus-style text or JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// One entry per registered family, in registration order.
    pub families: Vec<FamilySnapshot>,
}

impl MetricsSnapshot {
    /// `true` when no family produced any sample.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.families.iter().all(|f| f.samples.is_empty() && f.histograms.is_empty())
    }

    /// Sum of every sample named `name` in families named `family`
    /// (0 when absent) — a convenience for tests and report code.
    #[must_use]
    pub fn value(&self, family: &str, name: &str) -> u64 {
        self.families
            .iter()
            .filter(|f| f.family == family)
            .flat_map(|f| &f.samples)
            .filter(|s| s.name == name)
            .map(|s| s.value)
            .sum()
    }

    /// Every histogram sample named `name` in families named `family`,
    /// merged into one distribution (empty when absent).
    #[must_use]
    pub fn histogram(&self, family: &str, name: &str) -> LogHistogramSnapshot {
        let mut merged = LogHistogramSnapshot::empty();
        for sample in self
            .families
            .iter()
            .filter(|f| f.family == family)
            .flat_map(|f| &f.histograms)
            .filter(|h| h.name == name)
        {
            merged.merge(&sample.snapshot);
        }
        merged
    }

    /// Renders the snapshot in the Prometheus text exposition format:
    /// one `ltnc_<family>_<name>{labels} value` line per sample with a
    /// `# TYPE … counter` or `# TYPE … gauge` header (the sample's kind)
    /// per distinct metric name, and for each histogram sample the
    /// standard histogram series — cumulative `_bucket{…,le="bound"}`
    /// lines (power-of-two bounds up to the highest occupied bucket, then
    /// `le="+Inf"`), `_sum`, and `_count`, under a `# TYPE … histogram`
    /// header.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: Vec<String> = Vec::new();
        for family in &self.families {
            let labels = family.labels.as_slice();
            for sample in &family.samples {
                let metric = format!("ltnc_{}_{}", family.family, sample.name);
                push_type(&mut out, &mut typed, &metric, sample.kind.label());
                let line = Line { metric: &metric, labels, extra: &sample.labels };
                line.push(&mut out, "", None, sample.value);
            }
            for sample in &family.histograms {
                let metric = format!("ltnc_{}_{}", family.family, sample.name);
                push_type(&mut out, &mut typed, &metric, "histogram");
                let line = Line { metric: &metric, labels, extra: &[] };
                let snapshot = &sample.snapshot;
                // The last bucket's bound is u64::MAX; `+Inf` already
                // covers it, so finite lines stop one short.
                let finite = snapshot
                    .buckets
                    .iter()
                    .rposition(|&count| count > 0)
                    .map_or(0, |highest| highest.min(LOG_BUCKETS - 2) + 1);
                let mut cumulative = 0u64;
                for (index, &count) in snapshot.buckets[..finite].iter().enumerate() {
                    cumulative += count;
                    line.push(
                        &mut out,
                        "_bucket",
                        Some(&bucket_bound(index).to_string()),
                        cumulative,
                    );
                }
                let count = snapshot.count();
                line.push(&mut out, "_bucket", Some("+Inf"), count);
                line.push(&mut out, "_sum", None, snapshot.sum);
                line.push(&mut out, "_count", None, count);
            }
        }
        out
    }

    /// Renders the snapshot as a JSON document (families in registration
    /// order, each with its labels and samples).
    #[must_use]
    pub fn to_json(&self) -> String {
        let families = self
            .families
            .iter()
            .map(|family| {
                let samples = family
                    .samples
                    .iter()
                    .map(|sample| {
                        sample_json(sample.name, &sample.labels).field("value", sample.value)
                    })
                    .collect();
                let histograms: Vec<JsonValue> = family
                    .histograms
                    .iter()
                    .map(|sample| {
                        let snapshot = &sample.snapshot;
                        let mut cumulative = 0u64;
                        let buckets = snapshot
                            .buckets
                            .iter()
                            .enumerate()
                            .filter(|(_, &count)| count > 0)
                            .map(|(index, &count)| {
                                cumulative += count;
                                JsonValue::object()
                                    .field("le", bucket_bound(index))
                                    .field("cumulative", cumulative)
                            })
                            .collect();
                        json::histogram_summary(sample_json(sample.name, &[]), snapshot)
                            .field("sum", snapshot.sum)
                            .field("buckets", JsonValue::array(buckets))
                    })
                    .collect();
                let mut doc = JsonValue::object()
                    .field("family", family.family.as_str())
                    .field("labels", labels_json(&family.labels))
                    .field("samples", JsonValue::array(samples));
                if !histograms.is_empty() {
                    doc = doc.field("histograms", JsonValue::array(histograms));
                }
                doc
            })
            .collect();
        JsonValue::object().field("families", JsonValue::array(families)).render()
    }
}

/// A `{"k":"v",…}` object of labels.
fn labels_json<K: AsRef<str>>(labels: &[(K, String)]) -> JsonValue {
    labels.iter().fold(JsonValue::object(), |doc, (k, v)| doc.field(k.as_ref(), v.as_str()))
}

/// The head of one sample's JSON object: its name, then its own labels
/// when it has any.
fn sample_json(name: &str, labels: &[(&'static str, String)]) -> JsonValue {
    let doc = JsonValue::object().field("name", name);
    if labels.is_empty() {
        doc
    } else {
        doc.field("labels", labels_json(labels))
    }
}

/// Writes a `# TYPE <metric> <kind>` header the first time `metric`
/// appears on the page.
fn push_type(out: &mut String, typed: &mut Vec<String>, metric: &str, kind: &str) {
    if !typed.iter().any(|seen| seen == metric) {
        out.push_str(&format!("# TYPE {metric} {kind}\n"));
        typed.push(metric.to_string());
    }
}

/// One metric's exposition lines share its name and label sets.
struct Line<'a> {
    metric: &'a str,
    labels: &'a [(String, String)],
    extra: &'a [(&'static str, String)],
}

impl Line<'_> {
    /// Writes `<metric><suffix>{labels} <value>`: the family labels, the
    /// sample's own labels and (for histogram bucket lines) a trailing
    /// `le` bound, with no braces when there are none.
    fn push(&self, out: &mut String, suffix: &str, le: Option<&str>, value: u64) {
        let labels = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
        let labels: Vec<(&str, &str)> = labels
            .chain(self.extra.iter().map(|(k, v)| (*k, v.as_str())))
            .chain(le.map(|le| ("le", le)))
            .collect();
        out.push_str(self.metric);
        out.push_str(suffix);
        for (i, (k, v)) in labels.iter().enumerate() {
            out.push(if i == 0 { '{' } else { ',' });
            out.push_str(k);
            out.push_str("=\"");
            out.push_str(&escape_label(v));
            out.push('"');
        }
        if !labels.is_empty() {
            out.push('}');
        }
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
}

fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use ltnc_metrics::WireCounters;

    use super::*;
    use crate::samples;

    fn counter_registry() -> (MetricsRegistry, Arc<AtomicU64>) {
        let live = Arc::new(AtomicU64::new(0));
        let registry = MetricsRegistry::new();
        let source = live.clone();
        registry.register("wire", &[("node", "n0".to_string())], move || {
            vec![Sample::plain("datagrams_sent", source.load(Ordering::Relaxed))]
        });
        (registry, live)
    }

    #[test]
    fn snapshot_is_cumulative_delta_is_interval() {
        let (registry, live) = counter_registry();
        live.store(5, Ordering::Relaxed);
        assert_eq!(registry.snapshot().value("wire", "datagrams_sent"), 5);
        live.store(8, Ordering::Relaxed);
        assert_eq!(registry.snapshot().value("wire", "datagrams_sent"), 8);
        // An interval page samples the family's own delta.
        let earlier = WireCounters { datagrams_sent: 5, ..WireCounters::new() };
        let now = WireCounters { datagrams_sent: 8, ..WireCounters::new() };
        let interval = MetricsRegistry::new();
        interval.register("wire", &[], move || samples(&now.snapshot_delta(&earlier)));
        assert_eq!(interval.snapshot().value("wire", "datagrams_sent"), 3);
    }

    #[test]
    fn prometheus_text_has_types_labels_and_values() {
        let (registry, live) = counter_registry();
        live.store(7, Ordering::Relaxed);
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE ltnc_wire_datagrams_sent counter"));
        assert!(text.contains("ltnc_wire_datagrams_sent{node=\"n0\"} 7"));
    }

    #[test]
    fn sample_labels_merge_after_family_labels() {
        let registry = MetricsRegistry::new();
        registry.register("stripe", &[("fetch", "f1".to_string())], move || {
            vec![Sample {
                labels: vec![("replica", "2".to_string())],
                ..Sample::plain("delivered", 9)
            }]
        });
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("ltnc_stripe_delivered{fetch=\"f1\",replica=\"2\"} 9"));
    }

    #[test]
    fn gauges_are_typed_gauge() {
        let registry = MetricsRegistry::new();
        registry.register("decoder", &[], || {
            vec![Sample::gauge("nodes", 3), Sample::plain("decoded_rank", 9)]
        });
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("# TYPE ltnc_decoder_nodes gauge\nltnc_decoder_nodes 3\n"));
        assert!(text.contains("# TYPE ltnc_decoder_decoded_rank counter\n"));
    }

    #[test]
    fn json_snapshot_is_parseable_shape() {
        let (registry, live) = counter_registry();
        live.store(4, Ordering::Relaxed);
        let json = registry.snapshot().to_json();
        assert!(json.starts_with("{\"families\":["));
        assert!(json.contains("\"family\":\"wire\""));
        assert!(json.contains("\"name\":\"datagrams_sent\""));
        assert!(json.contains("\"value\":4"));
    }

    #[test]
    fn label_values_are_escaped() {
        let registry = MetricsRegistry::new();
        registry.register("serve", &[("path", "a\"b\\c".to_string())], move || {
            vec![Sample::plain("hits", 1)]
        });
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains(r#"path="a\"b\\c""#));
    }

    #[test]
    fn empty_registry_renders_empty() {
        let registry = MetricsRegistry::new();
        let snap = registry.snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.to_prometheus(), "");
        assert_eq!(snap.to_json(), "{\"families\":[]}");
    }

    fn histogram_registry() -> (MetricsRegistry, Arc<ltnc_metrics::LogHistogram>) {
        let live = Arc::new(ltnc_metrics::LogHistogram::new());
        let registry = MetricsRegistry::new();
        let source = Arc::clone(&live);
        registry.register_histograms("wire", &[("node", "n0".to_string())], move || {
            vec![HistogramSample::plain("delivery_latency_us", source.snapshot())]
        });
        (registry, live)
    }

    /// Extracts `(le, value)` pairs from the rendered `_bucket` lines of
    /// one metric, in exposition order.
    fn bucket_lines(text: &str, metric: &str) -> Vec<(String, u64)> {
        text.lines()
            .filter(|line| line.starts_with(&format!("{metric}_bucket{{")))
            .map(|line| {
                let le_start = line.find("le=\"").expect("bucket line without le") + 4;
                let le_end = line[le_start..].find('"').unwrap() + le_start;
                let value = line.rsplit(' ').next().unwrap().parse().unwrap();
                (line[le_start..le_end].to_string(), value)
            })
            .collect()
    }

    #[test]
    fn histogram_exposition_buckets_are_cumulative_and_end_at_inf() {
        let (registry, live) = histogram_registry();
        for v in [1u64, 3, 3, 90, 4_000, 4_000, 4_001] {
            live.record(v);
        }
        let text = registry.snapshot().to_prometheus();
        let metric = "ltnc_wire_delivery_latency_us";
        assert!(text.contains(&format!("# TYPE {metric} histogram")));

        let buckets = bucket_lines(&text, metric);
        assert!(buckets.len() >= 2, "expected finite buckets plus +Inf: {text}");
        // Cumulative: non-decreasing along the le sequence.
        for pair in buckets.windows(2) {
            assert!(pair[1].1 >= pair[0].1, "buckets not cumulative: {buckets:?}");
        }
        // The final bucket is +Inf and equals _count.
        let (last_le, last_value) = buckets.last().unwrap();
        assert_eq!(last_le, "+Inf");
        assert_eq!(*last_value, 7);
        assert!(text.contains(&format!("{metric}_count{{node=\"n0\"}} 7")));
        assert!(text.contains(&format!("{metric}_sum{{node=\"n0\"}} {}", 1 + 3 + 3 + 90 + 12_001)));
        // Finite bounds are powers of two minus one, strictly increasing.
        let mut prev = None;
        for (le, _) in &buckets[..buckets.len() - 1] {
            let bound: u64 = le.parse().expect("finite le bound");
            assert!((bound + 1).is_power_of_two(), "bound {bound} not 2^n - 1");
            assert!(prev.is_none_or(|p| bound > p));
            prev = Some(bound);
        }
    }

    #[test]
    fn histogram_count_equals_sum_of_bucket_increments() {
        let (registry, live) = histogram_registry();
        for v in [2u64, 5, 9, 1_000_000] {
            live.record(v);
        }
        let snap = registry.snapshot();
        let merged = snap.histogram("wire", "delivery_latency_us");
        assert_eq!(merged.count(), merged.buckets.iter().sum::<u64>());
        assert_eq!(merged.count(), 4);

        // The same invariant through the text exposition: each bucket's
        // increment over its predecessor sums to _count.
        let text = snap.to_prometheus();
        let buckets = bucket_lines(&text, "ltnc_wire_delivery_latency_us");
        let mut prev = 0;
        let mut increments = 0;
        for (_, cumulative) in &buckets[..buckets.len() - 1] {
            increments += cumulative - prev;
            prev = *cumulative;
        }
        let inf = buckets.last().unwrap().1;
        increments += inf - prev;
        assert_eq!(increments, 4);
        assert_eq!(inf, 4);
    }

    #[test]
    fn empty_histogram_still_renders_inf_sum_count() {
        let (registry, _live) = histogram_registry();
        let text = registry.snapshot().to_prometheus();
        assert!(text.contains("ltnc_wire_delivery_latency_us_bucket{node=\"n0\",le=\"+Inf\"} 0"));
        assert!(text.contains("ltnc_wire_delivery_latency_us_sum{node=\"n0\"} 0"));
        assert!(text.contains("ltnc_wire_delivery_latency_us_count{node=\"n0\"} 0"));
    }

    #[test]
    fn histogram_json_carries_percentiles() {
        let (registry, live) = histogram_registry();
        for _ in 0..100 {
            live.record(100);
        }
        let json = registry.snapshot().to_json();
        assert!(json.contains("\"histograms\":["));
        assert!(json.contains("\"name\":\"delivery_latency_us\""));
        assert!(json.contains("\"count\":100"));
        assert!(json.contains("\"p50\":100"));
        assert!(json.contains("\"p99\":100"));
        assert!(json.contains("\"buckets\":[{\"le\":127,\"cumulative\":100}]"));
    }
}
