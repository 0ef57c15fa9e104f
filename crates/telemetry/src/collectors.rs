//! Adapters from the workspace's counter families to registry samples.

use ltnc_metrics::{CounterFamily, Field, HopCounters, StripeCounters};

use crate::registry::{HistogramSample, Sample, SampleKind};

/// Samples every scalar field of a counter family, in declaration order:
/// counters and flags (as 0 or 1) as counter samples, fields declared
/// `[gauge]` or `[peak]` as gauge samples. Histograms are left to
/// [`histograms`]; nested families to the adapter that labels them.
#[must_use]
pub fn samples(family: &impl CounterFamily) -> Vec<Sample> {
    labeled_samples(family, &[])
}

fn labeled_samples(family: &impl CounterFamily, labels: &[(&'static str, String)]) -> Vec<Sample> {
    family
        .fields()
        .filter_map(|(name, field)| {
            let kind = match field {
                Field::Gauge(_) => SampleKind::Gauge,
                _ => SampleKind::Counter,
            };
            Some(Sample { name, labels: labels.to_vec(), value: field.value()?, kind })
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

/// Samples a [`StripeCounters`]: the scalar counters plus every replica
/// slot's fields under a `replica="<index>"` label (family `stripe`).
#[must_use]
pub fn stripe_samples(c: &StripeCounters) -> Vec<Sample> {
    let mut out = samples(c);
    for (index, replica) in c.replicas.iter().enumerate() {
        out.extend(labeled_samples(replica, &[("replica", index.to_string())]));
    }
    out
}

/// Samples a [`HopCounters`]: every populated bucket's fields under a
/// `hop="<distance>"` label (family `hop`).
#[must_use]
pub fn hop_samples(c: &HopCounters) -> Vec<Sample> {
    c.iter()
        .flat_map(|(distance, stats)| labeled_samples(stats, &[("hop", distance.to_string())]))
        .collect()
}

#[cfg(test)]
mod tests {
    use ltnc_metrics::{HopStats, ReactorSnapshot, ReplicaCounters, ServeCounters, WireCounters};

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
    fn stripe_samples_label_replicas() {
        let mut c = StripeCounters::with_replicas(2);
        c.replicas[1] = ReplicaCounters { delivered: 4, failed: true, ..Default::default() };
        c.failovers = 1;
        let samples = stripe_samples(&c);
        assert!(samples.iter().any(|s| s.name == "failovers" && s.value == 1));
        let delivered: Vec<&Sample> = samples.iter().filter(|s| s.name == "delivered").collect();
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[1].labels, vec![("replica", "1".to_string())]);
        assert_eq!(delivered[1].value, 4);
        assert!(samples.iter().any(|s| s.name == "failed"
            && s.value == 1
            && s.labels == vec![("replica", "1".to_string())]));
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

    #[test]
    fn hop_samples_label_distances() {
        let mut c = HopCounters::new();
        c.record(2, &HopStats { nodes: 3, useful_deliveries: 8, ..HopStats::default() });
        let samples = hop_samples(&c);
        assert!(samples.iter().any(|s| s.name == "useful_deliveries"
            && s.value == 8
            && s.labels == vec![("hop", "2".to_string())]));
    }
}
