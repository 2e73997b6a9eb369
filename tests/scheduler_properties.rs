//! Property tests for the scheduler tier's replication invariants.

use odlb::cluster::{InstanceId, Scheduler};
use odlb::metrics::{AppId, ClassId};
use odlb_testkit::{check, Gen};

#[derive(Clone, Debug)]
enum Op {
    Add(u32),
    Remove(u32),
    Place { class: u32, target: u32 },
}

fn ops(g: &mut Gen) -> Vec<Op> {
    g.vec_of(1, 120, |g| match g.weighted(&[2.0, 1.0, 2.0]) {
        0 => Op::Add(g.u32_in(0, 12)),
        1 => Op::Remove(g.u32_in(0, 12)),
        _ => Op::Place {
            class: g.u32_in(0, 8),
            target: g.u32_in(0, 12),
        },
    })
}

/// After any operation sequence:
/// * every class placement is a non-empty subset of the live replica
///   set (empty only when the set is);
/// * a write reaches every live replica exactly once;
/// * a read goes to a replica in the class's placement.
#[test]
fn replication_invariants() {
    check("replication_invariants", 256, |g| {
        let app = AppId(0);
        let mut sched = Scheduler::new(app, vec![InstanceId(0)]);
        for op in ops(g) {
            match op {
                Op::Add(i) => sched.add_replica(InstanceId(i)),
                Op::Remove(i) => sched.remove_replica(InstanceId(i)),
                Op::Place { class, target } => {
                    let target = InstanceId(target);
                    let live = sched.replicas().contains(&target);
                    let placed = sched.place_class(ClassId::new(app, class), target);
                    assert_eq!(placed, live, "a pin takes effect iff its target is live");
                    if placed {
                        assert!(sched.is_pin_target(target));
                    }
                }
            }

            let replicas: Vec<InstanceId> = sched.replicas().to_vec();
            for class in (0..8).map(|c| ClassId::new(app, c)) {
                for inst in sched.placement_of(class) {
                    assert!(
                        replicas.contains(inst),
                        "placement of {class} contains dead {inst}"
                    );
                }
                assert_eq!(sched.placement_of(class).is_empty(), replicas.is_empty());
            }

            let class = ClassId::new(app, 3);
            match sched.route_write(class, |i| i.0 as usize % 3) {
                Some(route) => {
                    let mut all: Vec<InstanceId> = route.applies().collect();
                    all.push(route.primary);
                    all.sort();
                    all.dedup();
                    let mut live = replicas.clone();
                    live.sort();
                    assert_eq!(all, live, "write-all must cover the replica set");
                    assert!(sched.placement_of(class).contains(&route.primary));
                }
                None => assert!(replicas.is_empty()),
            }
            if let Some(read) = sched.route_read(class, |_| 0) {
                assert!(sched.placement_of(class).contains(&read));
            }
        }
    });
}

/// The read router picks a minimum-load replica from the placement.
#[test]
fn read_routing_is_least_loaded() {
    check("read_routing_is_least_loaded", 256, |g| {
        let loads = g.vec_of(1, 10, |g| g.usize_in(0, 100));
        let app = AppId(0);
        let replicas: Vec<InstanceId> = (0..loads.len() as u32).map(InstanceId).collect();
        let sched = Scheduler::new(app, replicas);
        let class = ClassId::new(app, 0);
        let chosen = sched.route_read(class, |i| loads[i.0 as usize]).unwrap();
        let min = loads.iter().min().unwrap();
        assert_eq!(loads[chosen.0 as usize], *min);
    });
}
