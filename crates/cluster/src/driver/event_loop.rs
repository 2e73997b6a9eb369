//! The event loop: [`Simulation::run_interval`] pops events up to the
//! interval boundary into `handle`, which issues queries through
//! `dispatch_spec` (routing) and `execute_on` (engine execution and
//! completion scheduling). The model's methods take the observers by
//! argument.

use super::{
    app_slot, Event, IntervalOutcome, Model, Observers, Parked, Simulation, MEASUREMENT_INTERVAL,
    NO_CLIENT,
};
use crate::topology::InstanceId;
use odlb_engine::{ExecutionResult, QuerySpec};
use odlb_sim::{SimDuration, SimTime};
use odlb_storage::PageId;
use odlb_telemetry::{enter_span, profile_span, span_units, SharedSpanProfiler};

/// One profiled execute in this many runs under every engine span, and
/// one other under its `engine_execute` span alone, which times an
/// execute without the engine's spans and so what those spans cost. The
/// rest are tallied. A span's two clock reads cost more than a short
/// query's engine work, and a timed sample of the executes is enough to
/// estimate their wall time.
const TIMED_EVERY: u64 = 64;

/// The engine span paths of an execute, under the `interval` span, and
/// the [`UntimedSpans::calls_units`] slot each is tallied in.
const ENGINE_PATHS: [&[&str]; 4] = [
    &["engine_execute"],
    &["engine_execute", "pages"],
    &["engine_execute", "pages", "storage_read"],
    &["engine_execute", "pages", "bufferpool_prefetch"],
];

/// Profiled executes so far, and the calls and sim units the spans of
/// the untimed ones would have recorded on each of [`ENGINE_PATHS`]
/// since the last fold.
#[derive(Debug, Default)]
pub(super) struct UntimedSpans {
    executes: u64,
    calls_units: [(u64, u64); 4],
}

impl Simulation {
    /// Runs one measurement interval and closes it.
    pub fn run_interval(&mut self) -> IntervalOutcome {
        let Simulation { model, observers } = self;
        assert!(model.started, "call start() first");
        // The driver-level span: event dispatch and interval close nest
        // under it. Its sim units are the interval's simulated length.
        let _interval = enter_span(&observers.profiler, "interval");
        span_units(&observers.profiler, MEASUREMENT_INTERVAL.as_micros());
        let tick_at = model.last_tick + MEASUREMENT_INTERVAL;
        // `pop_until` stops the queue's clock at the boundary, so what the
        // controller schedules between intervals (`ReplicaReady`, retries)
        // still lands ahead of it.
        while let Some((t, ev)) = model.queue.pop_until(tick_at) {
            model.now = t;
            model.work.events += 1;
            model.handle(t, ev, observers);
        }
        if let Some(profiler) = &observers.profiler {
            let mut profiler = profiler.borrow_mut();
            for (path, slot) in ENGINE_PATHS.iter().zip(&mut observers.untimed.calls_units) {
                let (calls, units) = std::mem::take(slot);
                profiler.tally(path, calls, units);
            }
        }
        model.now = tick_at;
        model.last_tick = tick_at;
        let profiler = observers.profiler.clone();
        profile_span(&profiler, "close_interval", || {
            model.close_interval(tick_at, observers)
        })
    }
}

impl Model {
    /// Starts client arrival processes. Must be called once before
    /// [`Simulation::run_interval`].
    pub fn start(&mut self) {
        assert!(!self.started, "simulation already started");
        self.started = true;
        self.queue.schedule(SimTime::ZERO, Event::LoadTick);
        // Prime one in-flight ReplayIssue per replayed app; each
        // dispatch chains the next.
        let firsts: Vec<(usize, SimTime)> = self
            .apps
            .iter()
            .enumerate()
            .filter_map(|(i, a)| {
                let r = a.replay.as_ref()?;
                Some((i, r.schedule.queries.first()?.at))
            })
            .collect();
        for (app, at) in firsts {
            let issue = Event::ReplayIssue { app: app_slot(app) };
            self.queue.schedule(at, issue);
        }
    }

    fn handle(&mut self, now: SimTime, event: Event, obs: &mut Observers) {
        match event {
            Event::LoadTick => {
                let tick = self.config.load_update_interval;
                for (app_idx, app) in self.apps.iter_mut().enumerate() {
                    app.target_clients = app.clients.target_clients(now);
                    while app.active_clients < app.target_clients {
                        let client = app.next_client;
                        app.next_client = client.checked_add(1).expect(
                            "an app admits at most u32::MAX sessions: that id is NO_CLIENT",
                        );
                        app.active_clients += 1;
                        // Stagger arrivals within the update interval.
                        let stagger = app.rng.below(tick.as_micros().max(1));
                        let at = now + SimDuration::from_micros(stagger);
                        let issue = Event::ClientIssue {
                            app: app_slot(app_idx),
                            client,
                        };
                        self.queue.schedule(at, issue);
                    }
                    // Shrinking happens lazily: clients retire when they
                    // next come up to issue.
                }
                self.queue.schedule(now + tick, Event::LoadTick);
            }
            Event::ClientIssue { app, client } => self.client_issue(now, app as usize, client, obs),
            Event::QueryDone { record } => {
                let Parked {
                    record,
                    client,
                    app,
                    instance,
                } = self.in_flight.take(record);
                let inst = &mut self.instances[instance as usize];
                let left = inst.outstanding.checked_sub(1);
                debug_assert!(left.is_some(), "inst{instance} completed a query twice");
                inst.outstanding = left.unwrap_or(0);
                inst.engine.commit_record(record);
                if obs.telemetry.is_active() {
                    let (t, class, latency) = (&obs.telemetry, record.class, record.latency);
                    obs.series.record_latency(t, instance, app, class, latency);
                }
                if client != NO_CLIENT {
                    let think = self.apps[app as usize].clients.next_think();
                    self.queue
                        .schedule(now + think, Event::ClientIssue { app, client });
                }
            }
            Event::ReplicaReady { app, instance } => {
                let (app, instance) = (app as usize, instance as usize);
                // Retired while provisioning (e.g. the need evaporated):
                // never resurrect it.
                if self.instances[instance].retired {
                    return;
                }
                // The provisioning delay covers data copy and buffer
                // warm-up: hand the new replica the source replica's
                // resident pages so it starts warm, as the paper's
                // provisioning procedure does.
                let source = self.apps[app]
                    .scheduler
                    .replicas()
                    .first()
                    .map(|i| i.0 as usize);
                if let Some(src) = source.filter(|&src| src != instance) {
                    let pages = self.instances[src].engine.resident_pages();
                    self.instances[instance].engine.preload(pages);
                }
                self.instances[instance].ready = true;
                self.apps[app]
                    .scheduler
                    .add_replica(InstanceId(instance as u32));
            }
            Event::ReplayIssue { app } => self.replay_issue(now, app as usize, obs),
        }
    }

    fn client_issue(&mut self, now: SimTime, app: usize, client: u32, obs: &mut Observers) {
        // Lazy retirement keeps the population at the load target.
        if self.apps[app].active_clients > self.apps[app].target_clients {
            self.apps[app].active_clients -= 1;
            return;
        }
        // Sample into the recycled page buffer — no allocation once the
        // buffer has grown to the largest page list seen.
        let spec = {
            let pages = std::mem::take(&mut self.spec_pages);
            let a = &mut self.apps[app];
            a.spec.sample_query_into(&mut a.rng, pages)
        };
        if !self.dispatch_spec(now, app, Some(client), spec, obs) {
            // No ready replica (all still provisioning): retry shortly.
            let retry = Event::ClientIssue {
                app: app_slot(app),
                client,
            };
            self.queue
                .schedule(now + SimDuration::from_millis(100), retry);
        }
    }

    /// Routes and executes one materialised query (shared by the
    /// closed-loop and replay paths). Returns `false` — after recycling
    /// the page buffer — when no ready replica exists; the caller decides
    /// how to retry.
    pub(super) fn dispatch_spec(
        &mut self,
        now: SimTime,
        app: usize,
        client: Option<u32>,
        spec: QuerySpec,
        obs: &mut Observers,
    ) -> bool {
        // Execution never reads the apps. Setting them aside lets a write's
        // applies walk the replica set in place while the engines run.
        let apps = std::mem::take(&mut self.apps);
        let scheduler = &apps[app].scheduler;
        let instances = &self.instances;
        let outstanding = |i: InstanceId| instances[i.0 as usize].outstanding;
        let route = if spec.is_write {
            let route = scheduler.route_write(spec.class, outstanding);
            route.map(|r| (r.primary, Some(r)))
        } else {
            let primary = scheduler.route_read(spec.class, outstanding);
            primary.map(|p| (p, None))
        };
        let Some((primary, write)) = route else {
            self.apps = apps;
            self.recycle_pages(spec.pages);
            return false;
        };
        self.execute_on(now, app, client, primary, &spec, obs);
        let spec = match write {
            None => spec,
            Some(route) => {
                let apply_spec = spec.into_replica_apply();
                for target in route.applies() {
                    self.execute_on(now, app, None, target, &apply_spec, obs);
                }
                apply_spec
            }
        };
        self.apps = apps;
        self.apps[app].offered_this_interval += 1;
        self.recycle_pages(spec.pages);
        true
    }

    /// Returns a finished query's page buffer to the recycle slot
    /// (engines read pages during `execute`, never after).
    fn recycle_pages(&mut self, mut pages: Vec<PageId>) {
        pages.clear();
        self.spec_pages = pages;
    }

    fn execute_on(
        &mut self,
        now: SimTime,
        app: usize,
        client: Option<u32>,
        instance: InstanceId,
        spec: &QuerySpec,
        obs: &mut Observers,
    ) {
        let idx = instance.0 as usize;
        let result = if obs.profiler.is_some() {
            self.execute_sampled(idx, now, spec, obs)
        } else {
            let inst = &mut self.instances[idx];
            let srv = &mut self.servers[inst.server];
            inst.engine
                .execute(now, spec, &mut srv.cpu, &mut srv.io, inst.domain)
        };
        self.work.page_refs += result.record.page_accesses;
        self.work.pool_misses += result.record.buffer_misses;
        self.work.prefetches += result.record.readaheads;
        self.work.prefetched_pages += result.prefetched_pages;
        self.work.pages_locked += spec.locked_pages().len() as u64;
        self.instances[idx].outstanding += 1;
        let record = self.in_flight.park(Parked {
            record: result.record,
            client: client.unwrap_or(NO_CLIENT),
            app: app_slot(app),
            instance: instance.0,
        });
        self.queue
            .schedule(result.completion, Event::QueryDone { record });
    }

    /// Executes `spec` on instance `idx` with the profiler attached: under
    /// every engine span, under `engine_execute` alone, or with no span,
    /// adding what the spans would have counted to the interval's tally.
    fn execute_sampled(
        &mut self,
        idx: usize,
        now: SimTime,
        spec: &QuerySpec,
        obs: &mut Observers,
    ) -> ExecutionResult {
        let untimed = &mut obs.untimed;
        untimed.executes += 1;
        let phase = untimed.executes % TIMED_EVERY;
        let (timed, alone) = (phase == 1, phase == TIMED_EVERY / 2 + 1);
        let none: Option<SharedSpanProfiler> = None;
        let spanned = |on: bool| if on { &obs.profiler } else { &none };
        // The `engine_execute` span's sim units are the query's simulated
        // latency, so the deterministic flamegraph shows where simulated
        // time goes (engine sub-spans attribute I/O and CPU).
        let _span = enter_span(spanned(timed || alone), "engine_execute");
        let inst = &mut self.instances[idx];
        let srv = &mut self.servers[inst.server];
        let result = inst.engine.execute_profiled(
            now,
            spec,
            &mut srv.cpu,
            &mut srv.io,
            inst.domain,
            spanned(timed),
        );
        let record = &result.record;
        span_units(spanned(timed || alone), record.latency.as_micros());
        if !timed {
            let counts = [
                (1, record.latency.as_micros()),
                (1, record.page_accesses),
                (record.io_requests, result.read_service.as_micros()),
                (record.readaheads, result.prefetched_pages),
            ];
            let slots = untimed.calls_units.iter_mut().zip(counts);
            for (slot, (calls, units)) in slots.skip(usize::from(alone)) {
                *slot = (slot.0 + calls, slot.1 + units);
            }
        }
        result
    }
}
