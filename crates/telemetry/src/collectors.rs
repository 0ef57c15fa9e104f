//! Adapters from the workspace's counter families to registry samples.

use ltnc_metrics::{CounterFamily, Field};

use crate::registry::{HistogramSample, Sample, SampleKind};

/// Samples every scalar field of a counter family, in declaration order:
/// counters and flags (as 0 or 1) as counter samples, fields declared
/// `[gauge]` or `[peak]` as gauge samples. Histograms are left to
/// [`histograms`].
#[must_use]
pub fn samples(family: &impl CounterFamily) -> Vec<Sample> {
    family
        .fields()
        .filter_map(|(name, field)| {
            let kind = match field {
                Field::Gauge(_) => SampleKind::Gauge,
                _ => SampleKind::Counter,
            };
            Some(Sample { name, labels: Vec::new(), value: field.value()?, kind })
        })
        .collect()
}

/// Samples every non-empty histogram field of a counter family, in
/// declaration order (an idle shard costs no exposition lines).
#[must_use]
pub fn histograms(family: &impl CounterFamily) -> Vec<HistogramSample> {
    family
        .fields()
        .filter_map(|(name, field)| match field {
            Field::Histogram(snapshot) if !snapshot.is_empty() => {
                Some(HistogramSample::plain(name, snapshot.clone()))
            }
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use ltnc_metrics::{ReactorSnapshot, ServeCounters, WireCounters};

    use super::*;

    #[test]
    fn wire_samples_cover_every_field() {
        let c = WireCounters { datagrams_sent: 3, budget_cuts: 2, ..WireCounters::new() };
        let samples = samples(&c);
        assert_eq!(samples.len(), 21);
        assert!(samples.iter().any(|s| s.name == "datagrams_sent" && s.value == 3));
        assert!(samples.iter().any(|s| s.name == "budget_cuts" && s.value == 2));
    }

    #[test]
    fn serve_samples_cover_every_field() {
        let c = ServeCounters { cache_hits: 9, ..ServeCounters::new() };
        let samples = samples(&c);
        assert_eq!(samples.len(), 11);
        assert!(samples.iter().any(|s| s.name == "cache_hits" && s.value == 9));
    }

    #[test]
    fn reactor_samples_cover_the_scalar_fields() {
        let mut s = ReactorSnapshot::new();
        s.turns = 4;
        s.wheel_depth = 11;
        s.nodes = 250;
        let samples = samples(&s);
        assert_eq!(samples.len(), 8);
        assert!(samples.iter().any(|x| x.name == "turns" && x.value == 4));
        assert!(samples.iter().any(|x| x.name == "wheel_depth" && x.value == 11));
        assert!(samples.iter().any(|x| x.name == "nodes" && x.value == 250));
    }

    #[test]
    fn declared_gauges_sample_as_gauges() {
        let gauges: Vec<&str> = samples(&ReactorSnapshot::new())
            .iter()
            .filter(|s| s.kind == SampleKind::Gauge)
            .map(|s| s.name)
            .collect();
        assert_eq!(gauges, vec!["wheel_depth", "nodes"]);
        assert!(samples(&WireCounters::new()).iter().all(|s| s.kind == SampleKind::Counter));
    }

    #[test]
    fn reactor_histograms_omit_empty_families() {
        let counters = ltnc_metrics::ReactorCounters::new();
        assert!(histograms(&counters.snapshot()).is_empty());
        counters.record_poll(120, 1);
        counters.record_timer_lag(40);
        let samples = histograms(&counters.snapshot());
        let names: Vec<&str> = samples.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["poll_wait_us", "tick_lag_us"], "dispatch_ns stays empty");
        assert_eq!(samples[0].snapshot.count(), 1);
    }
}
