//! The per-application scheduler (paper §3.1–3.2).
//!
//! "Each scheduler is in charge of maintaining replica consistency between
//! different replicas of a single application and for load balancing
//! read-only queries among the set of replicas allocated for the
//! corresponding application … Each query class is placed by the
//! scheduler on a sub-set of replicas of its application and load balanced
//! across these replicas" under a read-one-write-all scheme.

use crate::topology::InstanceId;
use odlb_metrics::{AppId, ClassId};
use std::collections::BTreeMap;

/// Routing decision for one write query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteRoute {
    /// The replica executing the full query.
    pub primary: InstanceId,
    /// Replicas receiving the cheaper apply (all other replicas of the
    /// application — write-all).
    pub applies: Vec<InstanceId>,
}

/// One application's scheduler.
#[derive(Clone, Debug)]
pub struct Scheduler {
    app: AppId,
    /// The application's replica set, in allocation order.
    replicas: Vec<InstanceId>,
    /// Read placement overrides per class; classes not present are load
    /// balanced across the whole replica set.
    placement: BTreeMap<ClassId, Vec<InstanceId>>,
}

impl Scheduler {
    /// Creates a scheduler for `app` with an initial replica set.
    pub fn new(app: AppId, replicas: Vec<InstanceId>) -> Self {
        Scheduler {
            app,
            replicas,
            placement: BTreeMap::new(),
        }
    }

    /// The current replica set.
    pub fn replicas(&self) -> &[InstanceId] {
        &self.replicas
    }

    /// Adds a replica (newly provisioned and warmed).
    pub fn add_replica(&mut self, instance: InstanceId) {
        if !self.replicas.contains(&instance) {
            self.replicas.push(instance);
        }
    }

    /// Removes a replica; any class placements pointing at it are pruned,
    /// and placements that become empty fall back to the full set.
    pub fn remove_replica(&mut self, instance: InstanceId) {
        self.replicas.retain(|&i| i != instance);
        let mut emptied = Vec::new();
        for (class, set) in self.placement.iter_mut() {
            set.retain(|&i| i != instance);
            if set.is_empty() {
                emptied.push(*class);
            }
        }
        for class in emptied {
            self.placement.remove(&class);
        }
    }

    /// Pins `class` to a sub-set of replicas (§3.3.2: "schedule a suspect
    /// query class on a different replica"). Instances not in the replica
    /// set are ignored; with none left the call changes nothing. Returns
    /// whether the pin was set.
    pub fn place_class(&mut self, class: ClassId, instances: Vec<InstanceId>) -> bool {
        assert_eq!(class.app, self.app, "class belongs to another application");
        let filtered: Vec<InstanceId> = instances
            .into_iter()
            .filter(|i| self.replicas.contains(i))
            .collect();
        let placed = !filtered.is_empty();
        if placed {
            self.placement.insert(class, filtered);
        }
        placed
    }

    /// Removes a class pin, returning it to full load balancing.
    pub fn unplace_class(&mut self, class: ClassId) {
        self.placement.remove(&class);
    }

    /// The replicas `class` may currently read from.
    pub fn placement_of(&self, class: ClassId) -> &[InstanceId] {
        self.placement
            .get(&class)
            .map(|v| v.as_slice())
            .unwrap_or(&self.replicas)
    }

    /// Classes currently pinned, in ascending order (`placement` is a
    /// `BTreeMap`, so its key order is already sorted).
    pub fn pinned_classes(&self) -> Vec<ClassId> {
        self.placement.keys().copied().collect()
    }

    /// Routes a read: the least-loaded replica in the class's placement
    /// (`load` returns each instance's outstanding queries).
    pub fn route_read(
        &self,
        class: ClassId,
        load: impl Fn(InstanceId) -> usize,
    ) -> Option<InstanceId> {
        self.placement_of(class)
            .iter()
            .copied()
            .min_by_key(|&i| (load(i), i))
    }

    /// Routes a write: read-one-write-all. The primary is the least-loaded
    /// replica in the class's placement; every other replica of the
    /// application receives the apply.
    pub fn route_write(
        &self,
        class: ClassId,
        load: impl Fn(InstanceId) -> usize,
    ) -> Option<WriteRoute> {
        let primary = self.route_read(class, load)?;
        let applies = self
            .replicas
            .iter()
            .copied()
            .filter(|&i| i != primary)
            .collect();
        Some(WriteRoute { primary, applies })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(i: u32) -> InstanceId {
        InstanceId(i)
    }
    fn class(t: u32) -> ClassId {
        ClassId::new(AppId(0), t)
    }

    fn sched() -> Scheduler {
        Scheduler::new(AppId(0), vec![inst(0), inst(1), inst(2)])
    }

    #[test]
    fn reads_go_to_least_loaded() {
        let s = sched();
        let load = |i: InstanceId| match i.0 {
            0 => 5,
            1 => 2,
            _ => 9,
        };
        assert_eq!(s.route_read(class(1), load), Some(inst(1)));
    }

    #[test]
    fn ties_break_deterministically() {
        let s = sched();
        assert_eq!(s.route_read(class(1), |_| 0), Some(inst(0)));
    }

    #[test]
    fn writes_reach_all_replicas() {
        let s = sched();
        let route = s.route_write(class(1), |_| 0).unwrap();
        assert_eq!(route.primary, inst(0));
        assert_eq!(route.applies, vec![inst(1), inst(2)]);
        let mut all = route.applies.clone();
        all.push(route.primary);
        all.sort();
        assert_eq!(all, vec![inst(0), inst(1), inst(2)], "write-all invariant");
    }

    #[test]
    fn placement_restricts_reads_but_not_write_all() {
        let mut s = sched();
        s.place_class(class(3), vec![inst(2)]);
        assert_eq!(s.route_read(class(3), |_| 0), Some(inst(2)));
        // Other classes still load balance over everything.
        assert_eq!(s.placement_of(class(4)).len(), 3);
        // A pinned write still applies everywhere else.
        let route = s.route_write(class(3), |_| 0).unwrap();
        assert_eq!(route.primary, inst(2));
        assert_eq!(route.applies, vec![inst(0), inst(1)]);
    }

    #[test]
    fn placement_filters_foreign_instances() {
        let mut s = sched();
        assert!(s.place_class(class(1), vec![inst(9), inst(1)]));
        assert_eq!(s.placement_of(class(1)), &[inst(1)]);
        // An all-foreign placement changes nothing instead of blackholing.
        assert!(!s.place_class(class(1), vec![inst(9)]));
        assert_eq!(s.placement_of(class(1)), &[inst(1)]);
        assert!(!s.place_class(class(2), vec![inst(9)]));
        assert_eq!(s.placement_of(class(2)).len(), 3);
    }

    #[test]
    fn unplace_restores_full_balancing() {
        let mut s = sched();
        s.place_class(class(3), vec![inst(2)]);
        assert_eq!(s.pinned_classes(), vec![class(3)]);
        s.unplace_class(class(3));
        assert!(s.pinned_classes().is_empty());
        assert_eq!(s.placement_of(class(3)).len(), 3);
    }

    #[test]
    fn add_remove_replicas() {
        let mut s = sched();
        s.add_replica(inst(3));
        s.add_replica(inst(3)); // idempotent
        assert_eq!(s.replicas().len(), 4);
        s.place_class(class(1), vec![inst(3)]);
        s.remove_replica(inst(3));
        assert_eq!(s.replicas().len(), 3);
        // The pin pointing at the removed replica fell back to everyone.
        assert_eq!(s.placement_of(class(1)).len(), 3);
    }

    #[test]
    fn empty_replica_set_routes_nothing() {
        let s = Scheduler::new(AppId(0), vec![]);
        assert_eq!(s.route_read(class(1), |_| 0), None);
        assert!(s.route_write(class(1), |_| 0).is_none());
    }

    #[test]
    #[should_panic(expected = "another application")]
    fn foreign_class_rejected() {
        let mut s = sched();
        s.place_class(ClassId::new(AppId(9), 1), vec![inst(0)]);
    }
}
