//! Schedule replay: applications that dispatch a pregenerated open-loop
//! schedule instead of running closed-loop clients.

use super::{Event, ReplayState, Simulation};
use odlb_engine::QuerySpec;
use odlb_metrics::{AppId, Sla};
use odlb_sim::{SimDuration, SimTime};
use odlb_workload::{ClientConfig, GeneratedSchedule, LoadFunction, WorkloadSpec};
use std::sync::Arc;

impl Simulation {
    /// Registers an application that replays a pregenerated open-loop
    /// schedule ([`odlb_workload::generate_schedule`]) instead of running
    /// closed-loop clients. Arrival times, classes and page accesses come
    /// verbatim from the schedule; CPU demands and the write flag are
    /// resolved against the *current* class spec at dispatch, so
    /// mid-run plan changes ([`Simulation::set_class_cpu`]) still apply.
    /// The schedule is shared by `Arc`: parameter-sweep cells replay one
    /// generation without copying it per cell.
    pub fn add_replayed_app(
        &mut self,
        spec: WorkloadSpec,
        sla: Sla,
        schedule: Arc<GeneratedSchedule>,
    ) -> AppId {
        // The closed-loop pool stays allocated but idle (constant zero
        // load): LoadTick finds no clients to admit, so the replayed app
        // draws nothing from the pool's streams.
        let app_id = self.add_app(
            spec,
            sla,
            ClientConfig::default(),
            LoadFunction::Constant(0),
        );
        let idx = self.app_index(app_id);
        self.apps[idx].replay = Some(ReplayState { schedule, next: 0 });
        app_id
    }

    /// Dispatches the next query of a replayed app's schedule and chains
    /// the following one. When every replica is still provisioning the
    /// cursor does not advance; the same query retries shortly, so the
    /// schedule is delayed, never truncated.
    pub(super) fn replay_issue(&mut self, now: SimTime, app: usize) {
        let (sched, idx) = {
            let r = self.apps[app].replay.as_ref().expect("replayed app");
            (Arc::clone(&r.schedule), r.next)
        };
        let Some(q) = sched.queries.get(idx) else {
            return;
        };
        let spec = {
            let mut pages = std::mem::take(&mut self.spec_pages);
            pages.clear();
            pages.extend_from_slice(sched.pages_of(idx));
            let a = &self.apps[app];
            let class = q.class as usize;
            let c = &a.spec.classes[class];
            QuerySpec {
                class: a.spec.class_id(class),
                pages,
                cpu_base: c.cpu_base,
                cpu_per_page: c.cpu_per_page,
                is_write: c.is_write,
                lock_prefix: if c.is_write {
                    q.lock_prefix as usize
                } else {
                    0
                },
            }
        };
        let again = Event::ReplayIssue { app: app as u32 };
        if !self.dispatch_spec(now, app, None, spec) {
            self.queue
                .schedule(now + SimDuration::from_millis(100), again);
            return;
        }
        self.apps[app].replay.as_mut().expect("replayed app").next = idx + 1;
        if let Some(next) = sched.queries.get(idx + 1) {
            self.queue.schedule(next.at.max(now), again);
        }
    }
}
