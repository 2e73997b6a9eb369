//! The engine proper: executes queries against the buffer pool, the CPU
//! station and the shared disk path, and produces instrumentation records.

use crate::locks::LockManager;
use crate::query::QuerySpec;
use odlb_bufferpool::{PartitionedPool, QuotaError};
use odlb_metrics::{
    ClassId, ClassStatsCollector, IntervalReport, PrivateLogBuffer, QueryLogRecord, WindowRegistry,
};
use odlb_mrc::MissRatioCurve;
use odlb_sim::station::Admission;
use odlb_sim::{SimDuration, SimTime, Station};
use odlb_storage::{DomainId, IoKind, ReadAheadDetector, SharedIoPath, EXTENT_PAGES};
use odlb_telemetry::{enter_span, span_units, SharedSpanProfiler};

/// Engine parameters.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Buffer pool size in 16 KiB pages (8192 = the paper's 128 MB).
    pub pool_pages: usize,
    /// Sequential accesses within an extent that trigger read-ahead.
    pub readahead_trigger: u32,
    /// Recent page accesses retained per class for MRC recomputation.
    pub window_capacity: usize,
    /// Private log buffer capacity (records) before flush.
    pub logbuf_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            pool_pages: 8192,
            readahead_trigger: 56,
            window_capacity: 100_000,
            logbuf_capacity: 64,
        }
    }
}

/// The outcome of executing one query.
#[derive(Clone, Debug)]
pub struct ExecutionResult {
    /// When the query finishes (CPU and all blocking I/O done).
    pub completion: SimTime,
    /// The instrumentation record, stamped with completion and latency.
    pub record: QueryLogRecord,
}

/// What playing a query's page sequence cost: the I/O it issued and when
/// the last read it must wait for completes.
struct PageWork {
    misses: u64,
    io_requests: u64,
    readaheads: u64,
    last_io_done: SimTime,
    io_service: SimDuration,
}

impl PageWork {
    fn starting(now: SimTime) -> Self {
        PageWork {
            misses: 0,
            io_requests: 0,
            readaheads: 0,
            last_io_done: now,
            io_service: SimDuration::ZERO,
        }
    }

    /// A buffer miss, served by the blocking random read `read`.
    fn miss(&mut self, read: Admission) {
        self.misses += 1;
        self.io_requests += 1;
        self.io_service += read.completion.since(read.start);
        self.last_io_done = self.last_io_done.max(read.completion);
    }

    /// A triggered read-ahead (its extent read does not block).
    fn readahead(&mut self) {
        self.readaheads += 1;
        self.io_requests += 1;
    }
}

/// One simulated database engine (one MySQL instance in the paper).
#[derive(Clone, Debug)]
pub struct DbEngine {
    config: EngineConfig,
    pool: PartitionedPool,
    readahead: ReadAheadDetector,
    windows: WindowRegistry,
    logbuf: PrivateLogBuffer,
    collector: ClassStatsCollector,
    locks: LockManager,
    profiler: Option<SharedSpanProfiler>,
}

impl DbEngine {
    /// Creates an engine; its measurement clock starts at `now`.
    pub fn new(config: EngineConfig, now: SimTime) -> Self {
        DbEngine {
            pool: PartitionedPool::new(config.pool_pages),
            readahead: ReadAheadDetector::new(config.readahead_trigger),
            windows: WindowRegistry::new(config.window_capacity),
            logbuf: PrivateLogBuffer::new(config.logbuf_capacity),
            collector: ClassStatsCollector::new(now),
            locks: LockManager::new(),
            config,
            profiler: None,
        }
    }

    /// Installs a span profiler on the engine and its buffer pool: query
    /// execution records a `pages` span (sim units = pages accessed) and
    /// prefetch batches a `bufferpool_prefetch` span. Observation-only —
    /// execution outcomes are unchanged.
    pub fn set_profiler(&mut self, profiler: SharedSpanProfiler) {
        self.pool.set_profiler(profiler.clone());
        self.profiler = Some(profiler);
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Executes a query arriving at `now`.
    ///
    /// The page sequence is played through the buffer pool immediately
    /// (pool state is updated at arrival — concurrent queries see the
    /// pages; an accepted simplification over page-grained interleaving).
    /// Misses are charged as random single-page reads on the server's
    /// shared I/O path; triggered read-ahead issues an asynchronous
    /// sequential extent read that occupies the disk but does not block
    /// this query. CPU demand queues at the server's CPU station. The
    /// query completes when both its CPU slice and its last blocking read
    /// are done.
    pub fn execute(
        &mut self,
        now: SimTime,
        spec: &QuerySpec,
        cpu: &mut Station,
        io: &mut SharedIoPath,
        domain: DomainId,
    ) -> ExecutionResult {
        let class = spec.class;
        let mut work = PageWork::starting(now);
        let pages_span = enter_span(&self.profiler, "pages");
        span_units(&self.profiler, spec.pages.len() as u64);
        // Everything that is constant for the query is resolved here,
        // once, not per page: the class's window, its pool partition and
        // its read-ahead runs. (A query without pages
        // leaves no trace in any of them.)
        if !spec.pages.is_empty() {
            self.windows.window_mut(class).extend(&spec.pages);
            let mut pool = self.pool.class_access(class);
            let mut runs = self.readahead.consumer(class.as_u64());
            for &page in &spec.pages {
                if pool.access(page).is_miss() {
                    work.miss(io.read(domain, now, IoKind::Random, 1, false));
                }
                if let Some(start) = runs.observe(page) {
                    work.readahead();
                    // Asynchronous prefetch: occupies the disk, does not block.
                    io.read(domain, now, IoKind::Sequential, EXTENT_PAGES, true);
                    pool.prefetch(start, EXTENT_PAGES);
                }
            }
        }
        drop(pages_span);
        self.complete(now, spec, cpu, work)
    }

    /// The part of execution after the page sequence: CPU, locks and the
    /// instrumentation record.
    fn complete(
        &mut self,
        now: SimTime,
        spec: &QuerySpec,
        cpu: &mut Station,
        work: PageWork,
    ) -> ExecutionResult {
        let cpu_adm = cpu.submit(now, spec.cpu_demand());
        let mut completion = cpu_adm.completion.max(work.last_io_done);
        // Writes acquire exclusive locks on their update target for the
        // duration of execution; conflicting writers queue FCFS, and the
        // waiting time surfaces as the per-class LockWaits metric.
        // Hold time: the write's own work (CPU and its reads' service
        // time overlap, so the max), not the queueing delays of the
        // batched-at-arrival I/O model — those would overstate hold times
        // and manufacture lock convoys whenever the disk queues.
        let locked = spec.locked_pages();
        let lock_wait = if locked.is_empty() {
            SimDuration::ZERO
        } else {
            let hold = spec.cpu_demand().max(work.io_service);
            self.locks.acquire(now, locked, hold)
        };
        completion += lock_wait;
        let record = QueryLogRecord {
            class: spec.class,
            completed_at: completion,
            latency: completion.since(now),
            page_accesses: spec.pages.len() as u64,
            buffer_misses: work.misses,
            io_requests: work.io_requests,
            readaheads: work.readaheads,
            lock_wait,
        };
        ExecutionResult { completion, record }
    }

    /// Commits a completed query's record through the private log buffer
    /// into the per-class collector (call when the completion event fires,
    /// so interval accounting matches completion times).
    pub fn commit_record(&mut self, record: QueryLogRecord) {
        if let Some(batch) = self.logbuf.log(record) {
            self.collector.record_batch(&batch);
            self.logbuf.recycle(batch);
        }
    }

    /// Closes the current measurement interval: flushes the log buffer and
    /// returns per-class interval metrics.
    pub fn close_interval(&mut self, now: SimTime) -> IntervalReport {
        let remainder = self.logbuf.flush();
        self.collector.record_batch(&remainder);
        self.logbuf.recycle(remainder);
        self.locks.gc(now);
        self.collector.close_interval(now)
    }

    /// Recomputes the MRC of `class` from its recent access window
    /// (§3.3.2's on-demand recomputation) with the tracker `mode` selects
    /// — the controller threads its configured [`odlb_mrc::MrcMode`]
    /// through here so web-scale tenancies can trade exactness for
    /// throughput. `None` when the class has no window on this engine.
    pub fn recompute_mrc_with(
        &self,
        class: ClassId,
        cap_pages: usize,
        mode: odlb_mrc::MrcMode,
    ) -> Option<MissRatioCurve> {
        self.windows
            .get(class)
            .map(|w| w.compute_mrc_with(mode, cap_pages))
    }

    /// Enforces a buffer-pool quota for a class (§3.3.2, option two).
    pub fn set_quota(&mut self, class: ClassId, pages: usize) -> Result<(), QuotaError> {
        self.pool.set_quota(class, pages)
    }

    /// Removes a class's quota, returning whether one existed.
    pub fn clear_quota(&mut self, class: ClassId) -> bool {
        self.pool.clear_quota(class)
    }

    /// Resident pages of the general pool partition (LRU→MRU), for warm
    /// hand-off to a freshly provisioned replica.
    pub fn resident_pages(&self) -> Vec<odlb_storage::PageId> {
        self.pool.general_resident_pages()
    }

    /// Warm-up: installs pages without accounting. Provisioning a replica
    /// includes copying the data and priming its caches (§3.3.2 discusses
    /// exactly this warm-up cost as part of the re-placement trade-off).
    pub fn preload(&mut self, pages: impl IntoIterator<Item = odlb_storage::PageId>) {
        self.pool.preload(pages);
    }

    /// The buffer pool (the exporter reads its partitions and evictions).
    pub fn pool(&self) -> &PartitionedPool {
        &self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odlb_metrics::{AppId, MetricKind};
    use odlb_mrc::MrcMode;
    use odlb_sim::SimDuration;
    use odlb_storage::{DiskModel, PageId, SpaceId};

    fn class(t: u32) -> ClassId {
        ClassId::new(AppId(0), t)
    }

    fn spec(template: u32, pages: Vec<u64>) -> QuerySpec {
        QuerySpec {
            class: class(template),
            pages: pages
                .into_iter()
                .map(|n| PageId::new(SpaceId(0), n))
                .collect(),
            cpu_base: SimDuration::from_micros(200),
            cpu_per_page: SimDuration::from_micros(20),
            is_write: false,
            lock_prefix: 0,
        }
    }

    fn rig() -> (DbEngine, Station, SharedIoPath) {
        (
            DbEngine::new(
                EngineConfig {
                    // Must comfortably exceed one 64-page read-ahead
                    // extent plus the tests' working sets.
                    pool_pages: 256,
                    readahead_trigger: 8,
                    window_capacity: 10_000,
                    logbuf_capacity: 4,
                },
                SimTime::ZERO,
            ),
            Station::new(4),
            SharedIoPath::new(DiskModel::default()),
        )
    }

    #[test]
    fn cold_query_pays_io_warm_query_does_not() {
        let (mut eng, mut cpu, mut io) = rig();
        let q = spec(1, (0..10).collect());
        let cold = eng.execute(SimTime::ZERO, &q, &mut cpu, &mut io, DomainId(1));
        assert_eq!(cold.record.buffer_misses, 10);
        let warm = eng.execute(cold.completion, &q, &mut cpu, &mut io, DomainId(1));
        assert_eq!(warm.record.buffer_misses, 0);
        assert!(
            warm.record.latency < cold.record.latency,
            "warm {} >= cold {}",
            warm.record.latency,
            cold.record.latency
        );
    }

    #[test]
    fn latency_covers_cpu_and_blocking_io() {
        let (mut eng, mut cpu, mut io) = rig();
        let q = spec(1, vec![5]);
        let r = eng.execute(SimTime::ZERO, &q, &mut cpu, &mut io, DomainId(1));
        // 1 random read (2.65 ms) dominates CPU (0.22 ms).
        assert_eq!(r.record.latency, SimDuration::from_micros(2_650));
    }

    #[test]
    fn sequential_scan_triggers_readahead() {
        let (mut eng, mut cpu, mut io) = rig();
        let q = spec(2, (0..32).collect());
        let r = eng.execute(SimTime::ZERO, &q, &mut cpu, &mut io, DomainId(1));
        assert!(r.record.readaheads >= 1, "scan of 32 pages with trigger 8");
        // Prefetched extent is resident: a follow-up scan into it hits.
        let q2 = spec(2, (64..80).collect());
        let r2 = eng.execute(r.completion, &q2, &mut cpu, &mut io, DomainId(1));
        assert_eq!(r2.record.buffer_misses, 0, "served by prefetch");
    }

    #[test]
    fn records_flow_into_interval_reports() {
        let (mut eng, mut cpu, mut io) = rig();
        for _ in 0..6 {
            let q = spec(1, vec![1, 2, 3]);
            let r = eng.execute(SimTime::ZERO, &q, &mut cpu, &mut io, DomainId(1));
            eng.commit_record(r.record);
        }
        let report = eng.close_interval(SimTime::from_secs(10));
        let v = report.per_class[&class(1)];
        assert_eq!(v[MetricKind::PageAccesses], 18.0);
        assert!((v[MetricKind::Throughput] - 0.6).abs() < 1e-9);
    }

    #[test]
    fn interval_close_flushes_partial_logbuf() {
        let (mut eng, mut cpu, mut io) = rig();
        let q = spec(1, vec![1]);
        let r = eng.execute(SimTime::ZERO, &q, &mut cpu, &mut io, DomainId(1));
        eng.commit_record(r.record); // 1 record < logbuf capacity 4
        let report = eng.close_interval(SimTime::from_secs(1));
        assert_eq!(report.per_class.len(), 1, "partial buffer was flushed");
    }

    #[test]
    fn mrc_recompute_reflects_access_window() {
        let (mut eng, mut cpu, mut io) = rig();
        // Loop over 16 pages repeatedly.
        for _ in 0..50 {
            let q = spec(3, (0..16).collect());
            eng.execute(SimTime::ZERO, &q, &mut cpu, &mut io, DomainId(1));
        }
        let curve = eng
            .recompute_mrc_with(class(3), 64, MrcMode::Exact)
            .expect("window exists");
        assert!(curve.miss_ratio(15) > 0.9);
        assert!(curve.miss_ratio(16) < 0.05);
        assert!(eng
            .recompute_mrc_with(class(99), 64, MrcMode::Exact)
            .is_none());
    }

    #[test]
    fn quota_round_trip() {
        let (mut eng, _, _) = rig();
        eng.set_quota(class(1), 16).unwrap();
        assert_eq!(eng.pool().quota_of(class(1)), Some(16));
        assert!(eng.clear_quota(class(1)));
        assert_eq!(eng.pool().quota_of(class(1)), None);
    }

    /// The per-page formulation `execute` replaced: every page resolves
    /// its class's window, partition and read-ahead run
    /// again, through the per-page entry points.
    fn execute_per_page(
        eng: &mut DbEngine,
        now: SimTime,
        spec: &QuerySpec,
        cpu: &mut Station,
        io: &mut SharedIoPath,
        domain: DomainId,
    ) -> ExecutionResult {
        let class = spec.class;
        let mut work = PageWork::starting(now);
        for &page in &spec.pages {
            eng.windows.push(class, page);
            if eng.pool.access(class, page).is_miss() {
                work.miss(io.read(domain, now, IoKind::Random, 1, false));
            }
            if let Some(start) = eng.readahead.observe(class.as_u64(), page) {
                work.readahead();
                io.read(domain, now, IoKind::Sequential, EXTENT_PAGES, true);
                eng.pool.prefetch(class, start, EXTENT_PAGES);
            }
        }
        eng.complete(now, spec, cpu, work)
    }

    #[test]
    fn per_query_resolution_equals_the_per_page_loop() {
        // Random multi-space page lists (sequential stretches that fire
        // read-ahead, random jumps, empty lists, writes with locks) for
        // five classes, one of them quota-partitioned part of the time,
        // against a pool and windows small enough to overflow.
        let config = EngineConfig {
            pool_pages: 300,
            readahead_trigger: 8,
            window_capacity: 400,
            logbuf_capacity: 4,
        };
        let rig = || {
            (
                DbEngine::new(config, SimTime::ZERO),
                Station::new(2),
                SharedIoPath::new(DiskModel::default()),
            )
        };
        let (mut fast, mut fast_cpu, mut fast_io) = rig();
        let (mut slow, mut slow_cpu, mut slow_io) = rig();
        let mut rng = odlb_sim::SimRng::new(0x0D1B);
        let mut cursor = [[0u64; 3]; 5];
        let mut now = SimTime::ZERO;
        let mut readaheads = 0;
        for step in 0..1500 {
            match step {
                200 => {
                    fast.set_quota(class(2), 60).unwrap();
                    slow.set_quota(class(2), 60).unwrap();
                }
                700 => {
                    assert!(fast.clear_quota(class(2)));
                    assert!(slow.clear_quota(class(2)));
                }
                _ => {}
            }
            let template = rng.below(5) as usize;
            let mut pages = Vec::new();
            for _segment in 0..rng.below(4) {
                let space = rng.below(3) as usize;
                let at = &mut cursor[template][space];
                if rng.below(3) == 0 {
                    *at = rng.below(2_000);
                }
                for _ in 0..rng.below(30) {
                    pages.push(PageId::new(SpaceId(space as u32), *at));
                    *at += 1;
                }
            }
            let is_write = rng.below(5) == 0 && !pages.is_empty();
            let q = QuerySpec {
                class: class(template as u32),
                lock_prefix: if is_write { 1 } else { 0 },
                is_write,
                pages,
                cpu_base: SimDuration::from_micros(200),
                cpu_per_page: SimDuration::from_micros(20),
            };
            now += SimDuration::from_micros(rng.below(3_000));
            let a = fast.execute(now, &q, &mut fast_cpu, &mut fast_io, DomainId(1));
            let b = execute_per_page(&mut slow, now, &q, &mut slow_cpu, &mut slow_io, DomainId(1));
            assert_eq!(a.record, b.record, "step {step}");
            readaheads += a.record.readaheads;
            assert_eq!(a.completion, b.completion, "step {step}");
        }
        assert!(readaheads > 50, "read-ahead must be exercised");
        assert!(fast.pool.evictions() > 1_000, "the pool must overflow");
        assert_eq!(fast.pool.evictions(), slow.pool.evictions());
        assert_eq!(fast.resident_pages(), slow.resident_pages());
        assert_eq!(fast.windows.classes(), slow.windows.classes());
        for t in 0..5 {
            let window = |e: &DbEngine| {
                e.windows
                    .get(class(t))
                    .map(|w| w.iter().collect::<Vec<_>>())
            };
            assert_eq!(window(&fast), window(&slow), "window of class {t}");
        }
        assert_eq!(fast_io.total_counters(), slow_io.total_counters());
    }

    #[test]
    fn io_contention_raises_latency_across_domains() {
        // Two engines (two VM domains) share one I/O path: the second
        // domain's cold query queues behind the first's.
        let mut io = SharedIoPath::new(DiskModel::default());
        let mut cpu1 = Station::new(4);
        let mut cpu2 = Station::new(4);
        let mut e1 = DbEngine::new(EngineConfig::default(), SimTime::ZERO);
        let mut e2 = DbEngine::new(EngineConfig::default(), SimTime::ZERO);
        let q = spec(1, (0..20).collect());
        let r1 = e1.execute(SimTime::ZERO, &q, &mut cpu1, &mut io, DomainId(1));
        let r2 = e2.execute(SimTime::ZERO, &q, &mut cpu2, &mut io, DomainId(2));
        assert!(
            r2.record.latency.as_micros() > r1.record.latency.as_micros() * 3 / 2,
            "domain 2 ({}) should queue behind domain 1 ({})",
            r2.record.latency,
            r1.record.latency
        );
    }
}
