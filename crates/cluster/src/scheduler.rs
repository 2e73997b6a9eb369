//! The per-application scheduler (paper §3.1–3.2).
//!
//! "Each scheduler is in charge of maintaining replica consistency between
//! different replicas of a single application and for load balancing
//! read-only queries among the set of replicas allocated for the
//! corresponding application … Each query class is placed by the
//! scheduler on a sub-set of replicas of its application and load balanced
//! across these replicas" under a read-one-write-all scheme. The
//! controller's sub-set is always one replica: a re-placed class is
//! pinned to the replica it moved to.

use crate::topology::InstanceId;
use odlb_metrics::{AppId, ClassId};
use std::collections::BTreeMap;

/// Routing decision for one write query: it borrows the replica set
/// rather than copying out the apply targets.
#[derive(Clone, Copy, Debug)]
pub struct WriteRoute<'a> {
    /// The replica executing the full query.
    pub primary: InstanceId,
    replicas: &'a [InstanceId],
}

impl<'a> WriteRoute<'a> {
    /// Replicas receiving the cheaper apply: every other replica of the
    /// application (write-all), in replica-set order.
    pub fn applies(&self) -> impl Iterator<Item = InstanceId> + 'a {
        let primary = self.primary;
        self.replicas.iter().copied().filter(move |&i| i != primary)
    }
}

/// One application's scheduler.
#[derive(Clone, Debug)]
pub struct Scheduler {
    app: AppId,
    /// The application's replica set, in allocation order.
    replicas: Vec<InstanceId>,
    /// The replica each pinned class reads from; classes not present are
    /// load balanced across the whole replica set.
    pins: BTreeMap<ClassId, InstanceId>,
}

impl Scheduler {
    /// Creates a scheduler for `app` with an initial replica set.
    pub fn new(app: AppId, replicas: Vec<InstanceId>) -> Self {
        Scheduler {
            app,
            replicas,
            pins: BTreeMap::new(),
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

    /// Removes a replica; classes pinned to it fall back to the full set.
    pub fn remove_replica(&mut self, instance: InstanceId) {
        self.replicas.retain(|&i| i != instance);
        self.pins.retain(|_, &mut pin| pin != instance);
    }

    /// Pins `class` to one replica (§3.3.2: "schedule a suspect query
    /// class on a different replica"). A `target` outside the replica set
    /// changes nothing. Returns whether the pin was set.
    pub fn place_class(&mut self, class: ClassId, target: InstanceId) -> bool {
        assert_eq!(class.app, self.app, "class belongs to another application");
        let placed = self.replicas.contains(&target);
        if placed {
            self.pins.insert(class, target);
        }
        placed
    }

    /// The replicas `class` may currently read from: its pin, or the whole
    /// replica set.
    pub fn placement_of(&self, class: ClassId) -> &[InstanceId] {
        self.pins
            .get(&class)
            .map_or(&self.replicas, std::slice::from_ref)
    }

    /// True when some class is pinned to `instance`.
    pub fn is_pin_target(&self, instance: InstanceId) -> bool {
        self.pins.values().any(|&pin| pin == instance)
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
    ) -> Option<WriteRoute<'_>> {
        let primary = self.route_read(class, load)?;
        Some(WriteRoute {
            primary,
            replicas: &self.replicas,
        })
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
        assert_eq!(route.applies().collect::<Vec<_>>(), vec![inst(1), inst(2)]);
        let mut all: Vec<InstanceId> = route.applies().collect();
        all.push(route.primary);
        all.sort();
        assert_eq!(all, vec![inst(0), inst(1), inst(2)], "write-all invariant");
    }

    #[test]
    fn placement_restricts_reads_but_not_write_all() {
        let mut s = sched();
        s.place_class(class(3), inst(2));
        assert_eq!(s.route_read(class(3), |_| 0), Some(inst(2)));
        // Other classes still load balance over everything.
        assert_eq!(s.placement_of(class(4)).len(), 3);
        // A pinned write still applies everywhere else.
        let route = s.route_write(class(3), |_| 0).unwrap();
        assert_eq!(route.primary, inst(2));
        assert_eq!(route.applies().collect::<Vec<_>>(), vec![inst(0), inst(1)]);
    }

    #[test]
    fn placement_filters_foreign_instances() {
        let mut s = sched();
        assert!(s.place_class(class(1), inst(1)));
        assert_eq!(s.placement_of(class(1)), &[inst(1)]);
        assert!(s.is_pin_target(inst(1)));
        // A foreign target changes nothing instead of blackholing.
        assert!(!s.place_class(class(1), inst(9)));
        assert_eq!(s.placement_of(class(1)), &[inst(1)]);
        assert!(!s.place_class(class(2), inst(9)));
        assert_eq!(s.placement_of(class(2)).len(), 3);
        assert!(!s.is_pin_target(inst(9)));
        assert!(!s.is_pin_target(inst(0)));
    }

    #[test]
    fn add_remove_replicas() {
        let mut s = sched();
        s.add_replica(inst(3));
        s.add_replica(inst(3)); // idempotent
        assert_eq!(s.replicas().len(), 4);
        assert!(s.place_class(class(1), inst(3)));
        assert_eq!(s.placement_of(class(1)), &[inst(3)]);
        s.remove_replica(inst(3));
        assert_eq!(s.replicas().len(), 3);
        // The pin pointing at the removed replica fell back to everyone.
        assert_eq!(s.placement_of(class(1)), s.replicas());
        assert!(!s.is_pin_target(inst(3)));
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
        s.place_class(ClassId::new(AppId(9), 1), inst(0));
    }
}
