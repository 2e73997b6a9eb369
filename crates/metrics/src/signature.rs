//! Stable-state signatures (paper §3.3).
//!
//! "Whenever a stable measurement interval occurs for an application, i.e.,
//! an interval when the SLA has been continuously met, we update the last
//! stable value seen (as an average over the duration of the respective
//! interval) for each metric on each server where the application is
//! running. We maintain these average metrics in a data structure called a
//! *stable state signature*; one such signature is maintained per query
//! context. We also maintain the parameters of the MRC curves for each
//! query class in the stable state record."

use crate::ids::{ClassId, ServerId};
use crate::kinds::MetricVector;
use odlb_mrc::MrcParams;
use std::collections::BTreeMap;

/// The last-known-good record for one query context on one server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StableStateSignature {
    /// Interval-average metric values at the last stable interval.
    pub metrics: MetricVector,
    /// MRC parameters, filled in when the class's curve was (re)computed.
    /// The MRC "is determined when a query class is first scheduled on the
    /// system and is not recomputed unless an SLA violation occurs and
    /// memory related counters show outlier measurements".
    pub mrc: Option<MrcParams>,
}

/// Per-(server, class) stable-state storage.
#[derive(Clone, Debug, Default)]
pub struct StableStateStore {
    map: BTreeMap<(ServerId, ClassId), StableStateSignature>,
}

impl StableStateStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Refreshes the metric part of the signature after a stable interval,
    /// preserving any previously computed MRC parameters.
    pub fn record_stable(&mut self, server: ServerId, class: ClassId, metrics: MetricVector) {
        self.map
            .entry((server, class))
            .and_modify(|sig| sig.metrics = metrics)
            .or_insert(StableStateSignature { metrics, mrc: None });
    }

    /// Stores or replaces a class's MRC parameters on a server. No-op on
    /// the metric part; creates the signature when absent (a class whose
    /// MRC was computed at first scheduling, before any stable interval).
    pub fn record_mrc(&mut self, server: ServerId, class: ClassId, mrc: MrcParams) {
        self.map
            .entry((server, class))
            .and_modify(|sig| sig.mrc = Some(mrc))
            .or_insert(StableStateSignature {
                metrics: MetricVector::ZERO,
                mrc: Some(mrc),
            });
    }

    /// The signature for a context, if any stable interval has happened.
    pub fn get(&self, server: ServerId, class: ClassId) -> Option<&StableStateSignature> {
        self.map.get(&(server, class))
    }

    /// Number of stored signatures.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no signature is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AppId;
    use crate::kinds::MetricKind;

    fn class(t: u32) -> ClassId {
        ClassId::new(AppId(0), t)
    }

    fn metrics(latency: f64) -> MetricVector {
        let mut v = MetricVector::ZERO;
        v[MetricKind::Latency] = latency;
        v
    }

    fn params() -> MrcParams {
        MrcParams {
            total_memory_needed: 100,
            ideal_miss_ratio: 0.01,
            acceptable_memory_needed: 80,
            acceptable_miss_ratio: 0.03,
        }
    }

    #[test]
    fn stable_record_round_trips() {
        let mut store = StableStateStore::new();
        store.record_stable(ServerId(1), class(2), metrics(0.5));
        let sig = store.get(ServerId(1), class(2)).unwrap();
        assert_eq!(sig.metrics[MetricKind::Latency], 0.5);
        assert_eq!(sig.mrc, None);
    }

    #[test]
    fn refresh_preserves_mrc() {
        let mut store = StableStateStore::new();
        store.record_mrc(ServerId(1), class(2), params());
        store.record_stable(ServerId(1), class(2), metrics(0.7));
        let sig = store.get(ServerId(1), class(2)).unwrap();
        assert_eq!(sig.mrc, Some(params()), "MRC survives metric refresh");
        assert_eq!(sig.metrics[MetricKind::Latency], 0.7);
    }

    #[test]
    fn mrc_before_any_stable_interval() {
        let mut store = StableStateStore::new();
        store.record_mrc(ServerId(1), class(3), params());
        let sig = store.get(ServerId(1), class(3)).unwrap();
        assert_eq!(sig.metrics, MetricVector::ZERO);
        assert!(sig.mrc.is_some());
    }

    #[test]
    fn contexts_are_keyed_by_server_and_class() {
        let mut store = StableStateStore::new();
        store.record_stable(ServerId(1), class(1), metrics(0.1));
        store.record_stable(ServerId(2), class(1), metrics(0.2));
        assert_eq!(
            store.get(ServerId(1), class(1)).unwrap().metrics[MetricKind::Latency],
            0.1
        );
        assert_eq!(
            store.get(ServerId(2), class(1)).unwrap().metrics[MetricKind::Latency],
            0.2
        );
        assert!(store.get(ServerId(3), class(1)).is_none());
    }
}
