//! Topology set-up (servers, instances, applications, class-spec
//! overrides), the reads a controller makes, and [`Model::apply`]:
//! the one entry point through which a controller changes the cluster.

use super::{app_slot, AppState, Event, InstanceState, Model, ServerState};
use crate::scheduler::Scheduler;
use crate::topology::InstanceId;
use odlb_engine::{DbEngine, EngineConfig};
use odlb_metrics::{AppId, ClassId, ServerId, Sla};
use odlb_mrc::MissRatioCurve;
use odlb_sim::{SimDuration, SimRng};
use odlb_storage::{DiskModel, DomainId, SharedIoPath};
use odlb_workload::{ClientConfig, ClientPool, LoadFunction, QueryClassSpec, WorkloadSpec};

/// Data copy + warm-up delay before a provisioned replica serves: two
/// measurement intervals (§5.2 Fig. 3; the paper reports the effect, not
/// a number).
const PROVISIONING_DELAY: SimDuration = SimDuration::from_secs(20);

/// One change a controller makes to the cluster between intervals: the
/// paper's action set (§3.3) plus the live migration its baselines use.
/// Each variant says when [`Model::apply`] refuses it.
#[derive(Clone, Debug, PartialEq)]
pub enum Actuation {
    /// A buffer-pool partition of `pages` for `class` (§3.3.2); refused
    /// when it has one or the general partition cannot spare the pages.
    SetQuota {
        instance: InstanceId,
        class: ClassId,
        pages: usize,
    },
    /// Dissolve `class`'s partition; refused when there is none.
    ClearQuota {
        instance: InstanceId,
        class: ClassId,
    },
    /// Pin `class`'s reads to `to`; refused unless `to` serves its app.
    PlaceClass { class: ClassId, to: InstanceId },
    /// A replica on a server hosting none of the app's yet (empty servers
    /// first), serving after the copy/warm-up delay (§3.3.3, Fig. 3(b));
    /// refused when every server hosts one.
    Provision { app: AppId },
    /// Stop routing to `instance` (in-flight queries drain; one still
    /// provisioning never comes up) and free its server; refused when it
    /// is already retired.
    Retire { app: AppId, instance: InstanceId },
    /// Live-migrate the instance's VM (the coarse remedy, §1): the switch
    /// is immediate, the pool arrives warm (pre-copy), and both servers'
    /// disks pay one sequential burst; refused when it is already on `to`.
    Migrate { instance: InstanceId, to: ServerId },
}

/// What an accepted [`Actuation`] hands back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// A quota, placement or retirement took effect.
    Done,
    /// The new replica, serving after the provisioning delay.
    Provisioned(InstanceId),
    /// The server the migrated instance left.
    Migrated(ServerId),
}

impl Model {
    /// Adds a physical server with `cores` CPU cores and a default disk.
    pub fn add_server(&mut self, cores: usize) -> ServerId {
        self.add_server_with_disk(cores, DiskModel::default())
    }

    /// Adds a physical server with an explicit disk model (e.g. a wide
    /// RAID stripe for CPU-bound experiments).
    pub fn add_server_with_disk(&mut self, cores: usize, disk: DiskModel) -> ServerId {
        self.servers.push(ServerState {
            cpu: odlb_sim::Station::new(cores),
            io: SharedIoPath::new(disk),
        });
        ServerId((self.servers.len() - 1) as u32)
    }

    /// Number of servers in the pool.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Adds a database instance on `server`, in VM domain `domain`.
    pub fn add_instance(
        &mut self,
        server: ServerId,
        domain: DomainId,
        engine: EngineConfig,
    ) -> InstanceId {
        assert!((server.0 as usize) < self.servers.len(), "unknown server");
        self.push_instance(server.0 as usize, domain, engine, true)
    }

    /// Creates an engine and appends its instance.
    fn push_instance(
        &mut self,
        server: usize,
        domain: DomainId,
        config: EngineConfig,
        ready: bool,
    ) -> InstanceId {
        let id = InstanceId(self.instances.len() as u32);
        self.instances.push(InstanceState {
            server,
            domain,
            engine: DbEngine::new(config, self.now),
            outstanding: 0,
            ready,
            retired: false,
        });
        id
    }

    /// Registers an application with its SLA, client behaviour and load.
    /// Replicas are assigned separately with [`Model::assign_replica`].
    /// Panics on a duplicate id and on a 65,537th application.
    pub fn add_app(
        &mut self,
        spec: WorkloadSpec,
        sla: Sla,
        client_config: ClientConfig,
        load: LoadFunction,
    ) -> AppId {
        let app_id = spec.app;
        assert!(
            self.apps.iter().all(|a| a.spec.app != app_id),
            "duplicate application id"
        );
        let idx = u64::from(app_slot(self.apps.len()));
        let root = SimRng::new(self.config.seed);
        self.apps.push(AppState {
            scheduler: Scheduler::new(app_id, Vec::new()),
            sla,
            clients: ClientPool::new(client_config, load, root.split(1_000 + idx)),
            rng: root.split(2_000 + idx),
            spec,
            active_clients: 0,
            target_clients: 0,
            next_client: 0,
            offered_this_interval: 0,
            replay: None,
        });
        app_id
    }

    pub(super) fn app_index(&self, app: AppId) -> usize {
        self.apps
            .iter()
            .position(|a| a.spec.app == app)
            .expect("unknown application")
    }

    /// Makes `instance` a (ready) replica of `app`. An instance serving
    /// several applications models a shared DBMS (the paper's Table 2).
    pub fn assign_replica(&mut self, app: AppId, instance: InstanceId) {
        let idx = self.app_index(app);
        self.apps[idx].scheduler.add_replica(instance);
    }

    /// The replica set of `app`.
    pub fn replicas_of(&self, app: AppId) -> Vec<InstanceId> {
        let idx = self.app_index(app);
        self.apps[idx].scheduler.replicas().to_vec()
    }

    /// The read placement of one class.
    pub fn placement_of(&self, class: ClassId) -> Vec<InstanceId> {
        let idx = self.app_index(class.app);
        self.apps[idx].scheduler.placement_of(class).to_vec()
    }

    /// True when a class of `app` is pinned to `instance` — retiring such
    /// a replica would silently undo a fine-grained placement decision.
    pub fn is_pinned_target(&self, app: AppId, instance: InstanceId) -> bool {
        let idx = self.app_index(app);
        self.apps[idx].scheduler.is_pin_target(instance)
    }

    /// Recomputes a class's MRC from its access window on one instance,
    /// up to the instance's pool size, with the tracker mode (exact /
    /// SHARDS-sampled) configured on the controller driving this cluster.
    pub fn recompute_mrc_with(
        &self,
        instance: InstanceId,
        class: ClassId,
        mode: odlb_mrc::MrcMode,
    ) -> Option<MissRatioCurve> {
        let engine = &self.instances[instance.0 as usize].engine;
        let curve = engine.recompute_mrc_with(class, mode)?;
        self.curves_replayed.set(self.curves_replayed.get() + 1);
        let accesses = engine.window_len(class) as u64;
        self.accesses_replayed
            .set(self.accesses_replayed.get() + accesses);
        Some(curve)
    }

    /// Buffer pool size (pages) of an instance.
    pub fn pool_pages(&self, instance: InstanceId) -> usize {
        self.instances[instance.0 as usize]
            .engine
            .config()
            .pool_pages
    }

    /// The server hosting an instance.
    pub fn server_of(&self, instance: InstanceId) -> ServerId {
        ServerId(self.instances[instance.0 as usize].server as u32)
    }

    /// One class's spec, for mid-run overrides; dispatch reads it live.
    /// A zero `weight` removes the class from the mix (the paper's "remove
    /// query contexts … in decreasing order of their I/O rate" for I/O
    /// interference); a new `pattern` is a localized plan change like
    /// §5.3's `O_DATE` index drop; new CPU demands model an added trigger
    /// or a regressed plan.
    pub fn class_mut(&mut self, app: AppId, class_index: usize) -> &mut QueryClassSpec {
        let idx = self.app_index(app);
        &mut self.apps[idx].spec.classes[class_index]
    }

    /// The workload spec of an app (current weights included).
    pub fn workload(&self, app: AppId) -> &WorkloadSpec {
        &self.apps[self.app_index(app)].spec
    }

    /// Applies one controller action; `None` means refused, and then
    /// nothing changed.
    pub fn apply(&mut self, actuation: &Actuation) -> Option<Applied> {
        let accepted = match *actuation {
            Actuation::SetQuota {
                instance,
                class,
                pages,
            } => {
                let engine = &mut self.instances[instance.0 as usize].engine;
                engine.set_quota(class, pages).is_ok()
            }
            Actuation::ClearQuota { instance, class } => {
                let engine = &mut self.instances[instance.0 as usize].engine;
                engine.clear_quota(class)
            }
            Actuation::PlaceClass { class, to } => {
                let idx = self.app_index(class.app);
                self.apps[idx].scheduler.place_class(class, to)
            }
            Actuation::Provision { app } => {
                let app_idx = self.app_index(app);
                let replicas = self.apps[app_idx].scheduler.replicas();
                let used: Vec<usize> = replicas
                    .iter()
                    .map(|i| self.instances[i.0 as usize].server)
                    .collect();
                // An empty server first, then any not hosting this app.
                let candidate = (0..self.servers.len())
                    .filter(|s| !used.contains(s))
                    .min_by_key(|&s| self.instances.iter().filter(|i| i.server == s).count())?;
                // A replica's engine configuration, or the default.
                let engine_config = replicas
                    .first()
                    .map(|i| self.instances[i.0 as usize].engine.config())
                    .unwrap_or_default();
                let id = self.push_instance(candidate, DomainId(1), engine_config, false);
                self.queue.schedule(
                    self.now + PROVISIONING_DELAY,
                    Event::ReplicaReady {
                        app: app_slot(app_idx),
                        instance: id.0,
                    },
                );
                return Some(Applied::Provisioned(id));
            }
            Actuation::Retire { app, instance } => {
                let idx = self.app_index(app);
                let state = &mut self.instances[instance.0 as usize];
                if state.retired {
                    return None;
                }
                (state.ready, state.retired) = (false, true);
                self.apps[idx].scheduler.remove_replica(instance);
                true
            }
            Actuation::Migrate { instance, to } => {
                assert!((to.0 as usize) < self.servers.len(), "unknown server");
                let idx = instance.0 as usize;
                let from = self.instances[idx].server;
                if from == to.0 as usize {
                    return None;
                }
                // The analytic execution model books resource time at
                // arrival, hence the immediate switch.
                let pool_pages = self.instances[idx].engine.config().pool_pages as u64;
                let burst_pages = pool_pages.min(16_384);
                for server in [from, to.0 as usize] {
                    self.servers[server].io.read(
                        DomainId(0),
                        self.now,
                        odlb_storage::IoKind::Sequential,
                        burst_pages,
                        false,
                    );
                }
                self.instances[idx].server = to.0 as usize;
                return Some(Applied::Migrated(ServerId(from as u32)));
            }
        };
        accepted.then_some(Applied::Done)
    }
}
