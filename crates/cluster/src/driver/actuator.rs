//! Topology and the controller-facing mutation API: servers, instances,
//! applications, replica provisioning/retirement, class placement,
//! quotas, MRC recomputation, VM migration and workload-spec overrides.

use super::{AppState, Event, InstanceState, ServerState, Simulation};
use crate::scheduler::Scheduler;
use crate::topology::{InstanceId, ProvisionError};
use odlb_engine::{DbEngine, EngineConfig};
use odlb_metrics::{AppId, ClassId, ServerId, Sla};
use odlb_mrc::MissRatioCurve;
use odlb_sim::{SimDuration, SimRng};
use odlb_storage::{DiskModel, DomainId, SharedIoPath};
use odlb_workload::{ClientConfig, ClientPool, LoadFunction, WorkloadSpec};

/// Data copy + warm-up delay before a provisioned replica serves: two
/// measurement intervals (§5.2 Fig. 3; the paper reports the effect, not
/// a number).
const PROVISIONING_DELAY: SimDuration = SimDuration::from_secs(20);

impl Simulation {
    /// Adds a physical server with `cores` CPU cores and a default disk.
    pub fn add_server(&mut self, cores: usize) -> ServerId {
        self.add_server_with_disk(cores, DiskModel::default())
    }

    /// Adds a physical server with an explicit disk model (e.g. a wide
    /// RAID stripe for CPU-bound experiments).
    pub fn add_server_with_disk(&mut self, cores: usize, disk: DiskModel) -> ServerId {
        let mut io = SharedIoPath::new(disk);
        if let Some(p) = &self.profiler {
            io.set_profiler(p.clone());
        }
        self.servers.push(ServerState {
            cpu: odlb_sim::Station::new(cores),
            io,
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

    /// Creates an engine wired to the attached profiler and appends its
    /// instance.
    fn push_instance(
        &mut self,
        server: usize,
        domain: DomainId,
        config: EngineConfig,
        ready: bool,
    ) -> InstanceId {
        let id = InstanceId(self.instances.len() as u32);
        let mut engine = DbEngine::new(config, self.now);
        if let Some(p) = &self.profiler {
            engine.set_profiler(p.clone());
        }
        self.instances.push(InstanceState {
            server,
            domain,
            engine,
            outstanding: 0,
            ready,
            retired: false,
        });
        id
    }

    /// Registers an application with its SLA, client behaviour and load.
    /// Replicas are assigned separately with [`Simulation::assign_replica`].
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
        let idx = self.apps.len() as u64;
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

    /// Provisions a new replica of `app` on a server that hosts none of
    /// its replicas yet (preferring empty servers), with the configured
    /// copy/warm-up delay before it starts serving. Returns the new
    /// instance id. Mirrors the paper's reactive coarse-grained
    /// provisioning (§3.3.3, Fig. 3(b)).
    pub fn provision_replica(&mut self, app: AppId) -> Result<InstanceId, ProvisionError> {
        let app_idx = self.app_index(app);
        let used: Vec<usize> = self.apps[app_idx]
            .scheduler
            .replicas()
            .iter()
            .map(|i| self.instances[i.0 as usize].server)
            .collect();
        // Prefer a server with no instances at all, then any server not
        // already hosting this app.
        let candidate = (0..self.servers.len())
            .filter(|s| !used.contains(s))
            .min_by_key(|&s| self.instances.iter().filter(|i| i.server == s).count())
            .ok_or(ProvisionError::NoFreeServer)?;
        if used.contains(&candidate) {
            return Err(ProvisionError::NoFreeServer);
        }
        // Clone the engine configuration from an existing replica, or use
        // defaults for an app with no replicas yet.
        let engine_config = self.apps[app_idx]
            .scheduler
            .replicas()
            .first()
            .map(|i| self.instances[i.0 as usize].engine.config())
            .unwrap_or_default();
        let id = self.push_instance(candidate, DomainId(1), engine_config, false);
        self.queue.schedule(
            self.now + PROVISIONING_DELAY,
            Event::ReplicaReady {
                app: app_idx as u32,
                instance: id.0,
            },
        );
        Ok(id)
    }

    /// Retires a replica of `app`: it stops receiving traffic (in-flight
    /// queries drain naturally) and its server returns to the pool. The
    /// release half of the paper's reactive provisioning (Fig. 3(b)).
    pub fn retire_replica(&mut self, app: AppId, instance: InstanceId) {
        let idx = self.app_index(app);
        self.apps[idx].scheduler.remove_replica(instance);
        self.instances[instance.0 as usize].ready = false;
        self.instances[instance.0 as usize].retired = true;
    }

    /// Pins a query class of `app` to a sub-set of its replicas.
    pub fn place_class(&mut self, app: AppId, class: ClassId, instances: Vec<InstanceId>) {
        let idx = self.app_index(app);
        self.apps[idx].scheduler.place_class(class, instances);
    }

    /// The replica set of `app`.
    pub fn replicas_of(&self, app: AppId) -> Vec<InstanceId> {
        let idx = self.app_index(app);
        self.apps[idx].scheduler.replicas().to_vec()
    }

    /// The read placement of one class.
    pub fn placement_of(&self, app: AppId, class: ClassId) -> Vec<InstanceId> {
        let idx = self.app_index(app);
        self.apps[idx].scheduler.placement_of(class).to_vec()
    }

    /// True when any pinned class of `app` is placed on `instance` —
    /// retiring such a replica would silently undo a fine-grained
    /// placement decision.
    pub fn is_pinned_target(&self, app: AppId, instance: InstanceId) -> bool {
        let idx = self.app_index(app);
        let sched = &self.apps[idx].scheduler;
        sched
            .pinned_classes()
            .iter()
            .any(|&class| sched.placement_of(class).contains(&instance))
    }

    /// Enforces a buffer-pool quota on one instance (§3.3.2).
    pub fn set_quota(
        &mut self,
        instance: InstanceId,
        class: ClassId,
        pages: usize,
    ) -> Result<(), odlb_bufferpool::QuotaError> {
        self.instances[instance.0 as usize]
            .engine
            .set_quota(class, pages)
    }

    /// Clears a quota; returns whether one existed.
    pub fn clear_quota(&mut self, instance: InstanceId, class: ClassId) -> bool {
        self.instances[instance.0 as usize]
            .engine
            .clear_quota(class)
    }

    /// Recomputes a class's MRC from its access window on one instance,
    /// with the tracker mode (exact / SHARDS-sampled)
    /// configured on the controller driving this cluster.
    pub fn recompute_mrc_with(
        &self,
        instance: InstanceId,
        class: ClassId,
        cap_pages: usize,
        mode: odlb_mrc::MrcMode,
    ) -> Option<MissRatioCurve> {
        self.instances[instance.0 as usize]
            .engine
            .recompute_mrc_with(class, cap_pages, mode)
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

    /// Overwrites the mix weight of one class (0 removes it from the mix —
    /// the paper's "remove query contexts … in decreasing order of their
    /// I/O rate" for I/O interference).
    pub fn set_class_weight(&mut self, app: AppId, class_index: usize, weight: f64) {
        let idx = self.app_index(app);
        self.apps[idx].spec.classes[class_index].weight = weight;
    }

    /// Swaps the access pattern of one class — the mechanism behind
    /// localized plan changes like §5.3's `O_DATE` index drop, where one
    /// query's plan degenerates while everything else is untouched.
    pub fn set_class_pattern(
        &mut self,
        app: AppId,
        class_index: usize,
        pattern: odlb_workload::AccessPattern,
    ) {
        let idx = self.app_index(app);
        self.apps[idx].spec.classes[class_index].pattern = pattern;
    }

    /// Live-migrates a database instance's VM to another physical server
    /// (the coarse remedy the paper argues is usually overkill, §1).
    /// What is modelled: the switch is immediate (queries arriving after
    /// `now` run on `to`), the buffer pool arrives warm (pre-copy
    /// transfers memory pages), and the transfer costs one sequential
    /// read burst on both servers' disks. Returns false when the instance
    /// is already on `to`.
    pub fn migrate_instance(&mut self, instance: InstanceId, to: ServerId) -> bool {
        assert!((to.0 as usize) < self.servers.len(), "unknown server");
        let idx = instance.0 as usize;
        if self.instances[idx].server == to.0 as usize {
            return false;
        }
        // The analytic execution model books resource time at arrival,
        // hence the immediate switch.
        let pool_pages = self.instances[idx].engine.config().pool_pages as u64;
        let old_server = self.instances[idx].server;
        let burst_pages = pool_pages.min(16_384);
        self.servers[old_server].io.read(
            odlb_storage::DomainId(0),
            self.now,
            odlb_storage::IoKind::Sequential,
            burst_pages,
            false,
        );
        self.servers[to.0 as usize].io.read(
            odlb_storage::DomainId(0),
            self.now,
            odlb_storage::IoKind::Sequential,
            burst_pages,
            false,
        );
        self.instances[idx].server = to.0 as usize;
        true
    }

    /// Overrides one class's CPU demands — plan-cost changes (an added
    /// trigger, a regressed plan) without touching its page accesses.
    pub fn set_class_cpu(
        &mut self,
        app: AppId,
        class_index: usize,
        cpu_base: SimDuration,
        cpu_per_page: SimDuration,
    ) {
        let idx = self.app_index(app);
        let class = &mut self.apps[idx].spec.classes[class_index];
        class.cpu_base = cpu_base;
        class.cpu_per_page = cpu_per_page;
    }

    /// The workload spec of an app (current weights included).
    pub fn workload(&self, app: AppId) -> &WorkloadSpec {
        &self.apps[self.app_index(app)].spec
    }
}
