//! The event loop: [`Simulation::run_interval`] pops events up to the
//! interval boundary into `handle`, which issues queries through
//! `dispatch_spec` (routing) and `execute_on` (engine execution and
//! completion scheduling).

use super::{Event, IntervalOutcome, Simulation, MEASUREMENT_INTERVAL, NO_CLIENT};
use crate::topology::InstanceId;
use odlb_engine::QuerySpec;
use odlb_sim::{SimDuration, SimTime};
use odlb_storage::PageId;
use odlb_telemetry::{enter_span, profile_span, span_units};

impl Simulation {
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
            self.queue
                .schedule(at, Event::ReplayIssue { app: app as u32 });
        }
    }

    /// Runs one measurement interval and closes it.
    pub fn run_interval(&mut self) -> IntervalOutcome {
        assert!(self.started, "call start() first");
        // The driver-level span: event dispatch and interval close nest
        // under it. Its sim units are the interval's simulated length.
        let _interval = enter_span(&self.profiler, "interval");
        span_units(&self.profiler, MEASUREMENT_INTERVAL.as_micros());
        let tick_at = self.last_tick + MEASUREMENT_INTERVAL;
        // `pop_until` stops the queue's clock at the boundary, so what the
        // controller schedules between intervals (`ReplicaReady`, retries)
        // still lands ahead of it.
        while let Some((t, ev)) = self.queue.pop_until(tick_at) {
            self.now = t;
            self.events_processed += 1;
            self.handle(t, ev);
        }
        self.now = tick_at;
        self.last_tick = tick_at;
        let profiler = self.profiler.clone();
        profile_span(&profiler, "close_interval", || self.close_interval(tick_at))
    }

    fn handle(&mut self, now: SimTime, event: Event) {
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
                            app: app_idx as u32,
                            client,
                        };
                        self.queue.schedule(at, issue);
                    }
                    // Shrinking happens lazily: clients retire when they
                    // next come up to issue.
                }
                self.queue.schedule(now + tick, Event::LoadTick);
            }
            Event::ClientIssue { app, client } => self.client_issue(now, app as usize, client),
            Event::QueryDone {
                app,
                instance,
                record,
            } => {
                let inst = &mut self.instances[instance as usize];
                let left = inst.outstanding.checked_sub(1);
                debug_assert!(left.is_some(), "inst{instance} completed a query twice");
                inst.outstanding = left.unwrap_or(0);
                let (record, client) = self.in_flight.take(record);
                inst.engine.commit_record(record);
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
            Event::ReplayIssue { app } => self.replay_issue(now, app as usize),
        }
    }

    fn client_issue(&mut self, now: SimTime, app: usize, client: u32) {
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
        if !self.dispatch_spec(now, app, Some(client), spec) {
            // No ready replica (all still provisioning): retry shortly.
            let retry = Event::ClientIssue {
                app: app as u32,
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
    ) -> bool {
        let instances = &self.instances;
        let outstanding = |i: InstanceId| instances[i.0 as usize].outstanding;
        let route = if spec.is_write {
            self.apps[app]
                .scheduler
                .route_write(spec.class, outstanding)
                .map(|r| (r.primary, r.applies))
        } else {
            self.apps[app]
                .scheduler
                .route_read(spec.class, outstanding)
                .map(|p| (p, Vec::new()))
        };
        let Some((primary, applies)) = route else {
            self.recycle_pages(spec.pages);
            return false;
        };
        self.apps[app].offered_this_interval += 1;
        self.execute_on(now, app, client, primary, &spec);
        let spec = if applies.is_empty() {
            spec
        } else {
            let apply_spec = spec.into_replica_apply();
            for target in applies {
                self.execute_on(now, app, None, target, &apply_spec);
            }
            apply_spec
        };
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
    ) {
        let idx = instance.0 as usize;
        let server = self.instances[idx].server;
        let domain = self.instances[idx].domain;
        // One span per dispatched query; its sim units are the query's
        // simulated latency, so the deterministic flamegraph shows where
        // simulated time goes (engine sub-spans attribute I/O and CPU).
        let _span = enter_span(&self.profiler, "engine_execute");
        let (instances, servers) = (&mut self.instances, &mut self.servers);
        let srv = &mut servers[server];
        let result = instances[idx]
            .engine
            .execute(now, spec, &mut srv.cpu, &mut srv.io, domain);
        span_units(&self.profiler, result.record.latency.as_micros());
        instances[idx].outstanding += 1;
        self.queue.schedule(
            result.completion,
            Event::QueryDone {
                app: app as u32,
                instance: instance.0,
                record: self
                    .in_flight
                    .park(result.record, client.unwrap_or(NO_CLIENT)),
            },
        );
    }
}
