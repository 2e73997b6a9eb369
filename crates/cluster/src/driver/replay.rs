//! Schedule replay: applications that dispatch a pregenerated open-loop
//! schedule instead of running closed-loop clients.

use super::{app_slot, Event, Model, Observers, ReplayState};
use odlb_metrics::{AppId, Sla};
use odlb_sim::{SimDuration, SimTime};
use odlb_workload::{ClientConfig, GeneratedSchedule, LoadFunction, WorkloadSpec};
use std::sync::Arc;

impl Model {
    /// Registers an application that replays a pregenerated open-loop
    /// schedule ([`odlb_workload::generate_schedule`]) instead of running
    /// closed-loop clients. Arrival times, classes and page accesses come
    /// verbatim from the schedule; CPU demands and the write flag are
    /// resolved against the *current* class spec at dispatch, so
    /// mid-run plan changes ([`Model::class_mut`]) still apply.
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
    pub(super) fn replay_issue(&mut self, now: SimTime, app: usize, obs: &mut Observers) {
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
            self.apps[app]
                .spec
                .query_from_pages(q.class as usize, pages, q.lock_prefix as usize)
        };
        let again = Event::ReplayIssue { app: app_slot(app) };
        if !self.dispatch_spec(now, app, None, spec, obs) {
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
