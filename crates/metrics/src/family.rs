//! One declaration per counter family: [`counter_family!`](crate::counter_family)
//! and the field visitor it implements.

use crate::loghist::LogHistogramSnapshot;

/// One field of a counter family, as [`CounterFamily::fields`] yields it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Field<'a> {
    /// A running total (`u64`).
    Counter(u64),
    /// A current value (a `u64` marked `[gauge]` or `[peak]`).
    Gauge(u64),
    /// A sticky flag (`bool`).
    Flag(bool),
    /// A distribution (`LogHistogramSnapshot`).
    Histogram(&'a LogHistogramSnapshot),
}

impl Field<'_> {
    /// The field as one sample value: the number for counters and
    /// gauges, 0 or 1 for a flag, `None` for a histogram.
    #[must_use]
    pub fn value(self) -> Option<u64> {
        match self {
            Field::Counter(value) | Field::Gauge(value) => Some(value),
            Field::Flag(set) => Some(u64::from(set)),
            Field::Histogram(_) => None,
        }
    }
}

/// A struct declared with [`counter_family!`](crate::counter_family).
pub trait CounterFamily {
    /// Every field as `(name, value)`, in declaration order. A `Vec` of
    /// nested families is skipped: its elements are families of their
    /// own, visited by whoever labels them.
    fn fields(&self) -> impl Iterator<Item = (&'static str, Field<'_>)>;
}

/// Declares a counter family once and generates what is read off its
/// field list.
///
/// The declaration is a struct with its attributes and documented
/// fields, then optionally `snapshot_delta { … }` (extra docs for that
/// method) and `atomic { struct Twin; }`. The type of a field picks its
/// rule:
///
/// | field type | `merge` | `snapshot_delta` |
/// |---|---|---|
/// | `u64`, a counter | `+=` | saturating `−` |
/// | `u64 [gauge]`, a current value | `+=` | keeps the current value |
/// | `u64 [peak]`, a current value | max | keeps the current value |
/// | `bool`, a sticky flag | `\|=` | `now && !earlier` |
/// | `LogHistogramSnapshot` | its `merge` | its `snapshot_delta` |
/// | `Vec<F>` of a family `F` | pairwise, growing to fit | pairwise; an element `earlier` lacks passes through whole |
///
/// Generated: `new()`, `merge(&other)`, `snapshot_delta(&earlier)` and
/// [`CounterFamily`]. The atomic twin holds an `AtomicU64` per `u64` and
/// a [`LogHistogram`](crate::LogHistogram) per histogram under the same
/// names, visibility and docs, so hot paths bump them directly; its
/// `new()`, `add(&plain)` (the merge rule) and `snapshot()` are `Relaxed`.
///
/// ```
/// ltnc_metrics::counter_family! {
///     #[derive(Debug, Clone, Default, PartialEq, Eq)]
///     pub struct Shard {
///         pub datagrams: u64,
///         pub nodes: u64 [gauge],
///         pub depth: u64 [peak],
///     }
///     atomic {
///         #[derive(Debug, Default)]
///         pub struct ShardCells;
///     }
/// }
///
/// let cells = ShardCells::new();
/// cells.add(&Shard { datagrams: 5, nodes: 2, depth: 9 });
/// cells.add(&Shard { datagrams: 1, nodes: 0, depth: 4 });
/// let earlier = cells.snapshot();
/// assert_eq!(earlier, Shard { datagrams: 6, nodes: 2, depth: 9 });
/// let mut rollup = earlier.clone();
/// rollup.merge(&Shard { datagrams: 4, nodes: 3, depth: 7 });
/// assert_eq!(rollup.snapshot_delta(&earlier), Shard { datagrams: 4, nodes: 5, depth: 9 });
/// ```
#[macro_export]
macro_rules! counter_family {
    (@merge $mine:expr, $theirs:expr; u64 $(gauge)?) => { $mine += $theirs };
    (@merge $mine:expr, $theirs:expr; u64 peak) => { $mine = $mine.max($theirs) };
    (@merge $mine:expr, $theirs:expr; bool) => { $mine |= $theirs };
    (@merge $mine:expr, $theirs:expr; LogHistogramSnapshot) => { $mine.merge(&$theirs) };
    (@merge $mine:expr, $theirs:expr; Vec) => {{
        if $mine.len() < $theirs.len() {
            $mine.resize($theirs.len(), ::core::default::Default::default());
        }
        $mine.iter_mut().zip(&$theirs).for_each(|(mine, theirs)| mine.merge(theirs));
    }};

    (@delta $now:expr, $earlier:expr; u64) => { $now.saturating_sub($earlier) };
    (@delta $now:expr, $earlier:expr; u64 $gauge_or_peak:ident) => { $now };
    (@delta $now:expr, $earlier:expr; bool) => { $now && !$earlier };
    (@delta $now:expr, $earlier:expr; LogHistogramSnapshot) => { $now.snapshot_delta(&$earlier) };
    (@delta $now:expr, $earlier:expr; Vec) => {
        $now.iter()
            .enumerate()
            .map(|(i, now)| $earlier.get(i).map_or_else(|| now.clone(), |e| now.snapshot_delta(e)))
            .collect()
    };

    (@field $value:expr; u64) => { Some($crate::Field::Counter($value)) };
    (@field $value:expr; u64 $gauge_or_peak:ident) => { Some($crate::Field::Gauge($value)) };
    (@field $value:expr; bool) => { Some($crate::Field::Flag($value)) };
    (@field $value:expr; LogHistogramSnapshot) => { Some($crate::Field::Histogram(&$value)) };
    (@field $value:expr; Vec) => { None };

    (@cell u64) => { ::core::sync::atomic::AtomicU64 };
    (@cell LogHistogramSnapshot) => { $crate::LogHistogram };
    (@add $cell:expr, $value:expr; u64 $(gauge)?) => { $cell.fetch_add($value, Relaxed) };
    (@add $cell:expr, $value:expr; u64 peak) => { $cell.fetch_max($value, Relaxed) };
    (@add $cell:expr, $value:expr; LogHistogramSnapshot) => { $cell.merge_snapshot(&$value) };
    (@load $cell:expr; u64) => { $cell.load(Relaxed) };
    (@load $cell:expr; LogHistogramSnapshot) => { $cell.snapshot() };

    (@twin [] $($family:tt)*) => {};
    (@twin [{
        $(#[$twin_meta:meta])*
        $twin_vis:vis struct $twin:ident;
    }] $name:ident {
        $( [$(#[$field_meta:meta])*] $field_vis:vis $field:ident : $ty:ident $([$mark:ident])? ),+
    }) => {
        $(#[$twin_meta])*
        $twin_vis struct $twin {
            $( $(#[$field_meta])* $field_vis $field: $crate::counter_family!(@cell $ty), )+
        }

        impl $twin {
            /// All-zero cells.
            #[must_use]
            pub fn new() -> Self {
                <Self as ::core::default::Default>::default()
            }

            /// Folds `delta` into the cells by the family's merge rule.
            pub fn add(&self, delta: &$name) {
                use ::core::sync::atomic::Ordering::Relaxed;
                $( $crate::counter_family!(@add self.$field, delta.$field; $ty $($mark)?); )+
            }

            /// An owned copy of the current values.
            #[must_use]
            pub fn snapshot(&self) -> $name {
                use ::core::sync::atomic::Ordering::Relaxed;
                $name { $( $field: $crate::counter_family!(@load self.$field; $ty), )+ }
            }
        }
    };

    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$field_meta:meta])*
                $field_vis:vis $field:ident : $ty:ident $(<$inner:ident>)? $([$mark:ident])?
            ),+ $(,)?
        }
        $(snapshot_delta { $(#[$delta_meta:meta])* })?
        $(atomic $twin:tt)?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$field_meta])* $field_vis $field: $ty $(<$inner>)?, )+
        }

        impl $name {
            /// All-zero counters.
            #[must_use]
            pub fn new() -> Self {
                <Self as ::core::default::Default>::default()
            }

            /// Folds `other` into `self`, field by field: counters and
            /// gauges add, peaks keep the larger, flags stay set,
            /// histograms merge and nested families merge pairwise.
            pub fn merge(&mut self, other: &Self) {
                $( $crate::counter_family!(@merge self.$field, other.$field; $ty $($mark)?); )+
            }

            /// Everything that happened since `earlier`, field by field:
            /// counters and histograms subtract, saturating at zero so a
            /// stale `earlier` never wraps; gauges and peaks keep their
            /// current value; a flag is set only if it was set within the
            /// interval; nested families diff pairwise.
            $(#[doc = ""] $(#[$delta_meta])*)?
            #[must_use]
            pub fn snapshot_delta(&self, earlier: &Self) -> Self {
                Self {
                    $( $field:
                        $crate::counter_family!(@delta self.$field, earlier.$field; $ty $($mark)?),
                    )+
                }
            }
        }

        impl $crate::CounterFamily for $name {
            fn fields(&self) -> impl Iterator<Item = (&'static str, $crate::Field<'_>)> {
                [$(
                    (stringify!($field), $crate::counter_family!(@field self.$field; $ty $($mark)?))
                ),+]
                    .into_iter()
                    .filter_map(|(name, field)| Some((name, field?)))
            }
        }

        $crate::counter_family!(@twin [$($twin)?] $name {
            $( [$(#[$field_meta])*] $field_vis $field: $ty $([$mark])? ),+
        });
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LogHistogram;

    crate::counter_family! {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Probe {
            total: u64,
            nodes: u64 [gauge],
            depth: u64 [peak],
            failed: bool,
            latency: LogHistogramSnapshot,
            children: Vec<Leaf>,
        }
    }

    crate::counter_family! {
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        struct Leaf {
            hits: u64,
        }
        atomic {
            #[derive(Debug, Default)]
            struct LeafCells;
        }
    }

    fn histogram(values: &[u64]) -> LogHistogramSnapshot {
        let histogram = LogHistogram::new();
        for &value in values {
            histogram.record(value);
        }
        histogram.snapshot()
    }

    fn probe(total: u64, nodes: u64, depth: u64, failed: bool, leaves: &[u64]) -> Probe {
        Probe {
            total,
            nodes,
            depth,
            failed,
            latency: histogram(&vec![10; total as usize]),
            children: leaves.iter().map(|&hits| Leaf { hits }).collect(),
        }
    }

    #[test]
    fn counters_add_on_merge_and_saturate_in_delta() {
        let mut a = probe(3, 0, 0, false, &[]);
        a.merge(&probe(4, 0, 0, false, &[]));
        assert_eq!(a.total, 7);
        assert_eq!(a.latency.count(), 7);
        let earlier = probe(2, 0, 0, false, &[]);
        assert_eq!(a.snapshot_delta(&earlier).total, 5);
        assert_eq!(a.snapshot_delta(&earlier).latency.count(), 5);
        assert_eq!(earlier.snapshot_delta(&a).total, 0, "a stale earlier saturates");
        assert!(earlier.snapshot_delta(&a).latency.is_empty());
    }

    #[test]
    fn gauges_sum_peaks_max_and_both_keep_their_value_in_a_delta() {
        let mut a = probe(0, 3, 5, false, &[]);
        a.merge(&probe(0, 4, 9, false, &[]));
        assert_eq!((a.nodes, a.depth), (7, 9));
        a.merge(&probe(0, 1, 2, false, &[]));
        assert_eq!((a.nodes, a.depth), (8, 9));
        let delta = a.snapshot_delta(&probe(0, 20, 30, false, &[]));
        assert_eq!((delta.nodes, delta.depth), (8, 9));
    }

    #[test]
    fn flags_stick_on_merge_and_delta_only_on_the_interval_that_set_them() {
        let mut a = probe(0, 0, 0, false, &[]);
        a.merge(&probe(0, 0, 0, true, &[]));
        a.merge(&probe(0, 0, 0, false, &[]));
        assert!(a.failed);
        assert!(a.snapshot_delta(&probe(0, 0, 0, false, &[])).failed);
        assert!(!a.snapshot_delta(&a).failed);
    }

    #[test]
    fn nested_families_grow_on_merge_and_pass_unseen_elements_through() {
        let mut a = probe(0, 0, 0, false, &[1]);
        a.merge(&probe(0, 0, 0, false, &[2, 3]));
        assert_eq!(a.children, vec![Leaf { hits: 3 }, Leaf { hits: 3 }]);
        let delta = probe(0, 0, 0, false, &[5, 6, 7]).snapshot_delta(&probe(0, 0, 0, false, &[4]));
        assert_eq!(delta.children, vec![Leaf { hits: 1 }, Leaf { hits: 6 }, Leaf { hits: 7 }]);
        let shrunk = probe(0, 0, 0, false, &[5]).snapshot_delta(&probe(0, 0, 0, false, &[1, 9]));
        assert_eq!(shrunk.children, vec![Leaf { hits: 4 }], "earlier's extra elements are ignored");
    }

    #[test]
    fn a_delta_merged_back_onto_earlier_rebuilds_the_counters() {
        let earlier = probe(4, 0, 0, false, &[1, 2]);
        let now = probe(9, 0, 0, false, &[3, 2, 8]);
        let mut rebuilt = earlier.clone();
        rebuilt.merge(&now.snapshot_delta(&earlier));
        assert_eq!(rebuilt, now);
    }

    #[test]
    fn fields_visit_in_declaration_order_and_skip_nested_families() {
        let p = probe(2, 3, 4, true, &[1]);
        let fields: Vec<(&str, Field<'_>)> = p.fields().collect();
        assert_eq!(
            fields,
            vec![
                ("total", Field::Counter(2)),
                ("nodes", Field::Gauge(3)),
                ("depth", Field::Gauge(4)),
                ("failed", Field::Flag(true)),
                ("latency", Field::Histogram(&p.latency)),
            ]
        );
        let values: Vec<Option<u64>> = fields.iter().map(|(_, field)| field.value()).collect();
        assert_eq!(values, vec![Some(2), Some(3), Some(4), Some(1), None]);
        assert!(Probe::new().children.is_empty());
    }

    #[test]
    fn the_atomic_twin_adds_by_the_merge_rule_and_snapshots() {
        let cells = LeafCells::new();
        cells.add(&Leaf { hits: 4 });
        cells.add(&Leaf { hits: 5 });
        assert_eq!(cells.snapshot(), Leaf { hits: 9 });
        assert_eq!(Leaf::new(), Leaf::default());
    }
}
