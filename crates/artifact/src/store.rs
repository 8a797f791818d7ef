//! The content-addressed artifact store.
//!
//! [`ArtifactStore`] is the one resolution point the study pipeline goes
//! through for every expensive intermediate: *"give me the artifact for
//! this key — serve it shared if someone already built it, block me if
//! someone is building it right now, otherwise I'll build it once for
//! everyone."* That exactly-once discipline is what turns an
//! `O(cells × rebuild)` sweep into an `O(distinct artifacts)` one: all
//! sweep cells, seeds and views that share a scenario fingerprint share
//! one trace, one space-time graph and one history timeline across all
//! worker threads.
//!
//! The memory tier is deliberately simple: one mutex around a map. Every
//! artifact here costs milliseconds-to-minutes to build, so a microsecond
//! of lock traffic per *resolution* is noise; builds themselves run with
//! the lock released, with waiters parked on a per-key latch.
//!
//! Failure stance: resolutions return [`ArtifactError`] instead of
//! panicking, and the store mutex is **never poisoned** — lock
//! acquisitions recover from a poisoned state (the map is a cache of
//! immutable `Arc`s plus counters; every mutation sequence leaves it
//! consistent), so one failing worker cannot wedge every other thread's
//! cache access.

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use psn_forwarding::HistoryTimeline;
use psn_spacetime::SpaceTimeGraph;
use psn_trace::fingerprint::{Fingerprint, FingerprintHasher};
use psn_trace::{ContactTrace, ScenarioConfig, Seconds};

use crate::disk::DiskTier;
use crate::error::ArtifactError;

/// Default memory-tier byte budget (2 GiB) — comfortably holds the paper
/// workloads many times over while bounding multi-thousand-cell sweeps.
pub const DEFAULT_MEMORY_BUDGET: usize = 2 << 30;

/// The kinds of artifact the store distinguishes (and reports stats for).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ArtifactKind {
    /// A generated contact trace.
    Trace,
    /// A Δ-discretized space-time graph.
    Graph,
    /// A forwarding history timeline.
    Timeline,
    /// A per-cell study result (the typed sections of one run).
    Result,
}

impl ArtifactKind {
    const ALL: [ArtifactKind; 4] =
        [ArtifactKind::Trace, ArtifactKind::Graph, ArtifactKind::Timeline, ArtifactKind::Result];

    fn index(self) -> usize {
        match self {
            ArtifactKind::Trace => 0,
            ArtifactKind::Graph => 1,
            ArtifactKind::Timeline => 2,
            ArtifactKind::Result => 3,
        }
    }

    /// Human-readable kind name (stats output).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactKind::Trace => "trace",
            ArtifactKind::Graph => "graph",
            ArtifactKind::Timeline => "timeline",
            ArtifactKind::Result => "result",
        }
    }
}

/// A content address: the artifact kind plus the structural fingerprint of
/// everything that determines the artifact's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactKey {
    /// What kind of artifact this addresses.
    pub kind: ArtifactKind,
    /// The structural fingerprint.
    pub fingerprint: Fingerprint,
}

/// Where a resolved artifact came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Computed in this resolution (cache miss).
    Built,
    /// Served from the in-memory tier.
    Memory,
    /// Loaded from the on-disk tier.
    Disk,
}

impl CacheSource {
    /// True for the two cache-served variants.
    pub fn is_cached(self) -> bool {
        !matches!(self, CacheSource::Built)
    }
}

/// What a builder closure hands back to [`ArtifactStore::get_or_build`].
pub struct BuiltArtifact<T> {
    /// The artifact value.
    pub value: T,
    /// Approximate resident bytes, for budget accounting.
    pub bytes: usize,
    /// [`CacheSource::Built`] for a fresh computation or
    /// [`CacheSource::Disk`] when the builder satisfied the request from
    /// the disk tier.
    pub source: CacheSource,
}

/// A point-in-time snapshot of store activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Fresh builds per kind, indexed by [`ArtifactKind::index`]
    /// (trace, graph, timeline, result).
    pub builds: [u64; 4],
    /// Resolutions served from the memory tier.
    pub memory_hits: u64,
    /// Resolutions served from the disk tier.
    pub disk_hits: u64,
    /// Artifacts persisted to the disk tier.
    pub disk_writes: u64,
    /// Memory-tier entries evicted under the byte budget.
    pub evictions: u64,
    /// Corrupt disk artifacts quarantined into `corrupt/`.
    pub quarantines: u64,
    /// Disk IO retries after transient failures.
    pub io_retries: u64,
    /// Live memory-tier entries.
    pub entries: usize,
    /// Approximate bytes resident in the memory tier.
    pub bytes_in_memory: usize,
    /// Peak working-set bytes reported by streaming-mode runs (windowed
    /// graph hot set + incremental timeline builder), maximum across every
    /// run resolved through this store; `0` when nothing ran streaming.
    pub peak_stream_bytes: usize,
    /// Cold-slot reloads from the spill sink, summed over every
    /// streaming-mode run resolved through this store.
    pub spill_loads: u64,
}

impl StoreStats {
    /// Fresh builds of one kind.
    pub fn builds_of(&self, kind: ArtifactKind) -> u64 {
        self.builds[kind.index()]
    }

    /// Total fresh builds across kinds.
    pub fn total_builds(&self) -> u64 {
        self.builds.iter().sum()
    }

    /// One-line human-readable summary (the CLI's stderr cache report).
    pub fn summary(&self) -> String {
        let builds: Vec<String> = ArtifactKind::ALL
            .iter()
            .filter(|k| self.builds_of(**k) > 0)
            .map(|k| format!("{} {}", self.builds_of(*k), k.name()))
            .collect();
        let mut line = format!(
            "built [{}], {} memory hits, {} disk hits, {} evictions, {:.1} MiB resident",
            if builds.is_empty() { "nothing".to_string() } else { builds.join(", ") },
            self.memory_hits,
            self.disk_hits,
            self.evictions,
            self.bytes_in_memory as f64 / (1024.0 * 1024.0),
        );
        if self.quarantines > 0 {
            line.push_str(&format!(", {} quarantined", self.quarantines));
        }
        if self.io_retries > 0 {
            line.push_str(&format!(", {} io retries", self.io_retries));
        }
        if self.peak_stream_bytes > 0 {
            let mib = self.peak_stream_bytes as f64 / (1024.0 * 1024.0);
            if mib >= 1.0 {
                line.push_str(&format!(", {mib:.1} MiB streaming peak"));
            } else {
                line.push_str(&format!(
                    ", {:.1} KiB streaming peak",
                    self.peak_stream_bytes as f64 / 1024.0
                ));
            }
            line.push_str(&format!(", {} spill loads", self.spill_loads));
        }
        line
    }
}

struct Entry {
    value: Arc<dyn Any + Send + Sync>,
    identity: String,
    bytes: usize,
    last_used: u64,
}

/// Parking spot for threads that lose the build race on a key.
struct Latch {
    done: Mutex<bool>,
    cv: Condvar,
}

impl Latch {
    /// Marks the latch done and wakes every waiter. Poison-safe: a waiter
    /// that panicked while holding `done` cannot block release.
    fn release(&self) {
        *self.done.lock().unwrap_or_else(|p| p.into_inner()) = true;
        self.cv.notify_all();
    }
}

enum SlotState {
    Building(Arc<Latch>),
    Ready(Entry),
}

#[derive(Default)]
struct Inner {
    map: BTreeMap<ArtifactKey, SlotState>,
    tick: u64,
    bytes: usize,
    builds: [u64; 4],
    memory_hits: u64,
    disk_hits: u64,
    disk_writes: u64,
    evictions: u64,
    peak_stream_bytes: usize,
    spill_loads: u64,
}

/// The two-tier, collision-checked artifact store.
pub struct ArtifactStore {
    budget: usize,
    inner: Mutex<Inner>,
    disk: Option<DiskTier>,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("budget", &self.budget)
            .field("disk", &self.disk)
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::in_memory()
    }
}

impl ArtifactStore {
    /// A memory-only store with the default byte budget.
    pub fn in_memory() -> Self {
        Self { budget: DEFAULT_MEMORY_BUDGET, inner: Mutex::new(Inner::default()), disk: None }
    }

    /// A memory-only store with an explicit byte budget (tests and tools).
    pub fn with_budget(budget: usize) -> Self {
        Self { budget, ..Self::in_memory() }
    }

    /// A store backed by an on-disk cache directory (`--cache DIR`).
    pub fn with_disk(dir: impl Into<std::path::PathBuf>) -> Result<Self, ArtifactError> {
        Ok(Self { disk: Some(DiskTier::open(dir)?), ..Self::in_memory() })
    }

    /// The disk tier, if one is attached.
    pub fn disk(&self) -> Option<&DiskTier> {
        self.disk.as_ref()
    }

    /// Acquires the store lock, recovering from poison: the inner map is a
    /// cache of immutable `Arc`s plus counters, and every mutation leaves
    /// it consistent, so a thread that panicked while holding the lock
    /// cannot leave it half-updated.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.lock();
        let (quarantines, io_retries) =
            self.disk.as_ref().map_or((0, 0), |d| (d.quarantine_count(), d.retry_count()));
        StoreStats {
            builds: inner.builds,
            memory_hits: inner.memory_hits,
            disk_hits: inner.disk_hits,
            disk_writes: inner.disk_writes,
            evictions: inner.evictions,
            quarantines,
            io_retries,
            entries: inner.map.values().filter(|s| matches!(s, SlotState::Ready(_))).count(),
            bytes_in_memory: inner.bytes,
            peak_stream_bytes: inner.peak_stream_bytes,
            spill_loads: inner.spill_loads,
        }
    }

    /// Records the peak working-set bytes of one streaming-mode run (the
    /// windowed graph's hot set plus the incremental timeline builder); the
    /// stats snapshot reports the maximum across every run resolved through
    /// this store.
    pub fn record_stream_peak(&self, bytes: usize) {
        let mut inner = self.lock();
        inner.peak_stream_bytes = inner.peak_stream_bytes.max(bytes);
    }

    /// Records the cold-slot reloads one streaming-mode run's engines made
    /// (the windowed graph's `spill_loads` once they finish); the stats
    /// snapshot reports the sum across every run resolved through this
    /// store.
    pub fn record_spill_loads(&self, loads: u64) {
        self.lock().spill_loads += loads;
    }

    /// Resolves an artifact: serves the memory tier on a hit (identity
    /// collision-checked), otherwise runs `build` **exactly once** per key
    /// across all threads — racing resolvers block on a latch and then
    /// read the winner's entry. The builder reports whether it computed
    /// the value or loaded it from the disk tier, and the value's byte
    /// weight for LRU budget accounting.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::IdentityMismatch`] on a fingerprint collision
    /// (same key, different identity) — with 128-bit structural
    /// fingerprints this indicates corruption or a bug, and silently
    /// serving the wrong artifact would be far worse. The error is
    /// returned with the lock released (never poisoned), so concurrent
    /// resolutions of *other* keys are unaffected. Builder errors
    /// propagate; the key is released for a later resolver to retry.
    pub fn get_or_build<T: Send + Sync + 'static>(
        &self,
        key: ArtifactKey,
        identity: &str,
        build: impl FnOnce() -> Result<BuiltArtifact<T>, ArtifactError>,
    ) -> Result<(Arc<T>, CacheSource), ArtifactError> {
        let mut inner = self.lock();
        loop {
            match inner.map.get_mut(&key) {
                Some(SlotState::Ready(entry)) => {
                    if entry.identity != identity {
                        let stored = entry.identity.clone();
                        drop(inner);
                        return Err(ArtifactError::IdentityMismatch {
                            kind: key.kind,
                            fingerprint: key.fingerprint,
                            stored,
                            requested: identity.to_string(),
                        });
                    }
                    inner.tick += 1;
                    let tick = inner.tick;
                    let entry = match inner.map.get_mut(&key) {
                        Some(SlotState::Ready(entry)) => entry,
                        _ => unreachable!("slot checked ready above"),
                    };
                    entry.last_used = tick;
                    let Ok(value) = entry.value.clone().downcast::<T>() else {
                        drop(inner);
                        return Err(ArtifactError::TypeMismatch {
                            kind: key.kind,
                            fingerprint: key.fingerprint,
                        });
                    };
                    inner.memory_hits += 1;
                    return Ok((value, CacheSource::Memory));
                }
                Some(SlotState::Building(latch)) => {
                    let latch = Arc::clone(latch);
                    drop(inner);
                    let done = latch.done.lock().unwrap_or_else(|p| p.into_inner());
                    let _done = match latch.cv.wait_while(done, |done| !*done) {
                        Ok(guard) => guard,
                        Err(poison) => poison.into_inner(),
                    };
                    // Re-inspect: normally Ready now, but if the winner's
                    // build panicked or failed (slot removed) or the entry
                    // was already evicted, loop around and take the build
                    // ourselves.
                    inner = self.lock();
                }
                None => break,
            }
        }

        // We own the build. Park a latch so racers wait instead of
        // duplicating work, and make sure a panicking or failing builder
        // releases them (they will then rebuild).
        let latch = Arc::new(Latch { done: Mutex::new(false), cv: Condvar::new() });
        inner.map.insert(key, SlotState::Building(Arc::clone(&latch)));
        drop(inner);

        struct ReleaseOnExit<'a> {
            store: &'a ArtifactStore,
            key: ArtifactKey,
            latch: Arc<Latch>,
            armed: bool,
        }
        impl Drop for ReleaseOnExit<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut inner = self.store.lock();
                if matches!(inner.map.get(&self.key), Some(SlotState::Building(_))) {
                    inner.map.remove(&self.key);
                }
                drop(inner);
                self.latch.release();
            }
        }
        let mut guard = ReleaseOnExit { store: self, key, latch, armed: true };

        // A builder Err unwinds through the armed guard: the slot is
        // removed and waiters released, exactly like a panic.
        let built = build()?;
        let value = Arc::new(built.value);

        let mut inner = self.lock();
        Self::count_build(&mut inner, key.kind, built.source);
        inner.tick += 1;
        let tick = inner.tick;
        inner.bytes += built.bytes;
        inner.map.insert(
            key,
            SlotState::Ready(Entry {
                value: value.clone(),
                identity: identity.to_string(),
                bytes: built.bytes,
                last_used: tick,
            }),
        );
        self.evict_over_budget(&mut inner, key);
        drop(inner);

        guard.armed = false;
        guard.latch.release();
        Ok((value, built.source))
    }

    fn count_build(inner: &mut Inner, kind: ArtifactKind, source: CacheSource) {
        match source {
            CacheSource::Built => inner.builds[kind.index()] += 1,
            CacheSource::Disk => inner.disk_hits += 1,
            CacheSource::Memory => unreachable!("builders never report a memory source"),
        }
    }

    /// Evicts least-recently-used entries until the byte budget holds,
    /// never evicting `keep` (the entry just inserted or touched) and
    /// never touching in-flight builds.
    fn evict_over_budget(&self, inner: &mut Inner, keep: ArtifactKey) {
        while inner.bytes > self.budget {
            let victim = inner
                .map
                .iter()
                .filter_map(|(k, slot)| match slot {
                    SlotState::Ready(entry) if *k != keep => Some((entry.last_used, *k)),
                    _ => None,
                })
                .min_by_key(|(last_used, _)| *last_used);
            let Some((_, victim_key)) = victim else { break };
            if let Some(SlotState::Ready(entry)) = inner.map.remove(&victim_key) {
                inner.bytes -= entry.bytes;
                inner.evictions += 1;
            }
        }
    }

    // ----- typed helpers for the study pipeline ---------------------------

    /// The trace artifact of a scenario: memory tier, then
    /// `config.generate()` — generated exactly once per fingerprint no
    /// matter how many runs, views, seeds or sweep cells share it. Traces
    /// are never persisted; the disk tier holds results only.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::IdentityMismatch`] on a memory-tier fingerprint
    /// collision.
    pub fn scenario_trace(
        &self,
        config: &ScenarioConfig,
    ) -> Result<(Arc<ContactTrace>, CacheSource), ArtifactError> {
        let key = ArtifactKey { kind: ArtifactKind::Trace, fingerprint: config.fingerprint() };
        self.get_or_build(key, &config.canonical_identity(), || {
            let trace = config.generate();
            let bytes = trace.approx_bytes();
            Ok(BuiltArtifact { value: trace, bytes, source: CacheSource::Built })
        })
    }

    /// The space-time graph of a scenario's trace at discretization `delta`
    /// — keyed by (scenario fingerprint, Δ), built at most once and shared.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::IdentityMismatch`] on a memory-tier collision.
    pub fn spacetime_graph(
        &self,
        config: &ScenarioConfig,
        trace: &ContactTrace,
        delta: Seconds,
    ) -> Result<(Arc<SpaceTimeGraph>, CacheSource), ArtifactError> {
        let mut hasher = FingerprintHasher::new("psn-graph/1");
        hasher.write_fingerprint(config.fingerprint());
        hasher.write_f64(delta);
        let key = ArtifactKey { kind: ArtifactKind::Graph, fingerprint: hasher.finish() };
        let identity = format!("graph delta={delta:?} of {}", config.canonical_identity());
        self.get_or_build(key, &identity, || {
            let graph = SpaceTimeGraph::build(trace, delta);
            let bytes = graph.approx_bytes();
            Ok(BuiltArtifact { value: graph, bytes, source: CacheSource::Built })
        })
    }

    /// The history timeline of a scenario's trace at discretization
    /// `delta`, folded straight from the trace
    /// ([`HistoryTimeline::from_trace`], no space-time graph) — keyed by
    /// (scenario fingerprint, Δ) like the graph, built at most once and
    /// shared.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::IdentityMismatch`] on a memory-tier collision.
    pub fn trace_timeline(
        &self,
        config: &ScenarioConfig,
        trace: &ContactTrace,
        delta: Seconds,
    ) -> Result<(Arc<HistoryTimeline>, CacheSource), ArtifactError> {
        self.timeline_artifact(config, delta, || HistoryTimeline::from_trace(trace, delta))
    }

    /// The same artifact as [`ArtifactStore::trace_timeline`] (same key,
    /// bit-identical value), built from the scenario's graph when the store
    /// has not built it yet. Kept for the perfbench harness; the ROADMAP
    /// item 5 `[benchmark]` PR moves perfbench to `trace_timeline` and
    /// deletes this resolver.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::IdentityMismatch`] on a memory-tier collision.
    pub fn history_timeline(
        &self,
        config: &ScenarioConfig,
        graph: &SpaceTimeGraph,
        delta: Seconds,
    ) -> Result<(Arc<HistoryTimeline>, CacheSource), ArtifactError> {
        self.timeline_artifact(config, delta, || HistoryTimeline::build(graph))
    }

    fn timeline_artifact(
        &self,
        config: &ScenarioConfig,
        delta: Seconds,
        build: impl FnOnce() -> HistoryTimeline,
    ) -> Result<(Arc<HistoryTimeline>, CacheSource), ArtifactError> {
        let mut hasher = FingerprintHasher::new("psn-timeline/1");
        hasher.write_fingerprint(config.fingerprint());
        hasher.write_f64(delta);
        let key = ArtifactKey { kind: ArtifactKind::Timeline, fingerprint: hasher.finish() };
        let identity = format!("timeline delta={delta:?} of {}", config.canonical_identity());
        self.get_or_build(key, &identity, || {
            let timeline = build();
            let bytes = timeline.approx_bytes();
            Ok(BuiltArtifact { value: timeline, bytes, source: CacheSource::Built })
        })
    }

    /// Loads a persisted result payload, if the disk tier has one whose
    /// identity matches. A sidecar identity mismatch is quarantined by the
    /// disk tier and reported as a miss — never served, never fatal.
    pub fn load_result_text(&self, fp: Fingerprint, identity: &str) -> Option<String> {
        self.disk.as_ref()?.load_result(fp, identity)
    }

    /// Quarantines a persisted result whose payload failed downstream
    /// validation (no-op without a disk tier).
    pub fn quarantine_result_text(&self, fp: Fingerprint, reason: &str) {
        if let Some(disk) = &self.disk {
            disk.quarantine_result(fp, reason);
        }
    }

    /// Persists a result payload to the disk tier (no-op without one).
    pub fn store_result_text(&self, fp: Fingerprint, identity: &str, text: &str) {
        if let Some(disk) = &self.disk {
            match disk.store_result(fp, identity, text) {
                Ok(()) => self.lock().disk_writes += 1,
                Err(e) => eprintln!("warning: {e} (continuing uncached)"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use psn_trace::generator::config::CommunityConfig;

    fn key(fp: u128) -> ArtifactKey {
        ArtifactKey { kind: ArtifactKind::Result, fingerprint: Fingerprint(fp) }
    }

    fn put_blob(store: &ArtifactStore, fp: u128, bytes: usize) -> CacheSource {
        store
            .get_or_build(key(fp), &format!("blob-{fp}"), || {
                Ok(BuiltArtifact { value: vec![0u8; bytes], bytes, source: CacheSource::Built })
            })
            .unwrap()
            .1
    }

    #[test]
    fn hits_share_one_arc_and_count_stats() {
        let store = ArtifactStore::in_memory();
        let build = |n: u64| Ok(BuiltArtifact { value: n, bytes: 8, source: CacheSource::Built });
        let (a, source) = store.get_or_build(key(1), "one", || build(10)).unwrap();
        assert_eq!(source, CacheSource::Built);
        let (b, source) = store.get_or_build(key(1), "one", || panic!("must not rebuild")).unwrap();
        assert_eq!(source, CacheSource::Memory);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = store.stats();
        assert_eq!(stats.builds_of(ArtifactKind::Result), 1);
        assert_eq!(stats.memory_hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes_in_memory, 8);
        assert!(stats.summary().contains("1 result"), "{}", stats.summary());
        assert!(!stats.summary().contains("spill loads"), "{}", stats.summary());
    }

    #[test]
    fn streaming_counters_reach_the_summary() {
        let store = ArtifactStore::in_memory();
        store.record_stream_peak(3 * 1024 * 1024);
        store.record_spill_loads(40);
        store.record_stream_peak(1024);
        store.record_spill_loads(2);
        let stats = store.stats();
        assert_eq!(stats.peak_stream_bytes, 3 * 1024 * 1024);
        assert_eq!(stats.spill_loads, 42);
        assert!(
            stats.summary().ends_with("3.0 MiB streaming peak, 42 spill loads"),
            "{}",
            stats.summary()
        );
    }

    #[test]
    fn collisions_return_a_typed_error_and_do_not_poison_the_store() {
        let store = ArtifactStore::in_memory();
        put_blob(&store, 7, 10);

        // Same key, different identity: a typed error, not a panic.
        let err = store
            .get_or_build(key(7), "a different identity", || {
                Ok(BuiltArtifact { value: Vec::<u8>::new(), bytes: 0, source: CacheSource::Built })
            })
            .unwrap_err();
        match &err {
            ArtifactError::IdentityMismatch { kind, fingerprint, stored, requested } => {
                assert_eq!(*kind, ArtifactKind::Result);
                assert_eq!(*fingerprint, Fingerprint(7));
                assert_eq!(stored, "blob-7");
                assert_eq!(requested, "a different identity");
            }
            other => panic!("expected IdentityMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("fingerprint collision"), "{err}");

        // The store stays fully usable: the original identity still hits,
        // other keys still resolve, and stats() (which takes the same
        // lock) does not see a poisoned mutex.
        assert_eq!(put_blob(&store, 7, 10), CacheSource::Memory);
        assert_eq!(put_blob(&store, 8, 10), CacheSource::Built);
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn two_configs_forced_onto_one_key_collide_loudly() {
        // The regression the typed error exists for: two *scenario
        // configs* whose identities differ but which end up addressed by
        // one key must yield IdentityMismatch, not a poisoned mutex.
        let a = ScenarioConfig::Community(CommunityConfig::default());
        let b = ScenarioConfig::Community(CommunityConfig {
            communities: 3,
            ..CommunityConfig::default()
        });
        assert_ne!(a.canonical_identity(), b.canonical_identity());

        let store = ArtifactStore::in_memory();
        let forced = ArtifactKey { kind: ArtifactKind::Trace, fingerprint: Fingerprint(99) };
        let build = |config: &ScenarioConfig| {
            let trace = config.generate();
            let bytes = trace.approx_bytes();
            Ok(BuiltArtifact { value: trace, bytes, source: CacheSource::Built })
        };
        store.get_or_build(forced, &a.canonical_identity(), || build(&a)).unwrap();
        let err = store.get_or_build(forced, &b.canonical_identity(), || build(&b)).unwrap_err();
        assert!(matches!(err, ArtifactError::IdentityMismatch { .. }), "{err}");
        // Still serving the original artifact afterwards.
        let (_, source) =
            store.get_or_build(forced, &a.canonical_identity(), || build(&a)).unwrap();
        assert_eq!(source, CacheSource::Memory);
    }

    #[test]
    fn a_failing_builder_releases_the_key_for_retry() {
        let store = ArtifactStore::in_memory();
        let err = store
            .get_or_build(key(11), "eleven", || -> Result<BuiltArtifact<u64>, ArtifactError> {
                Err(ArtifactError::Io {
                    context: "building".into(),
                    source: std::io::Error::other("transient"),
                })
            })
            .unwrap_err();
        assert!(matches!(err, ArtifactError::Io { .. }));
        // The key is free again: a later resolver builds it cleanly.
        let (value, source) = store
            .get_or_build(key(11), "eleven", || {
                Ok(BuiltArtifact { value: 11u64, bytes: 8, source: CacheSource::Built })
            })
            .unwrap();
        assert_eq!(*value, 11);
        assert_eq!(source, CacheSource::Built);
    }

    #[test]
    fn eviction_is_lru_under_the_byte_budget() {
        let store = ArtifactStore::with_budget(250);
        put_blob(&store, 1, 100);
        put_blob(&store, 2, 100);
        // Touch 1 so 2 becomes the least recently used.
        assert_eq!(put_blob(&store, 1, 100), CacheSource::Memory);
        // Inserting 3 overflows the budget: 2 must go, 1 and 3 must stay.
        put_blob(&store, 3, 100);
        let stats = store.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.bytes_in_memory, 200);
        assert_eq!(put_blob(&store, 1, 100), CacheSource::Memory, "recently used survives");
        assert_eq!(put_blob(&store, 3, 100), CacheSource::Memory, "newest survives");
        assert_eq!(put_blob(&store, 2, 100), CacheSource::Built, "LRU entry was evicted");

        // An artifact larger than the whole budget is still served (the
        // caller holds the Arc; the store just cannot retain much else).
        let big = ArtifactStore::with_budget(50);
        assert_eq!(put_blob(&big, 1, 1000), CacheSource::Built);
        assert_eq!(big.stats().entries, 1, "sole entry is never self-evicted");
    }

    #[test]
    fn concurrent_resolvers_build_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let store = ArtifactStore::in_memory();
        let builds = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for round in 0..16 {
                        let (value, _) = store
                            .get_or_build(key(round), &format!("round-{round}"), || {
                                builds.fetch_add(1, Ordering::Relaxed);
                                // Widen the race window.
                                std::thread::sleep(std::time::Duration::from_millis(1));
                                Ok(BuiltArtifact {
                                    value: round,
                                    bytes: 8,
                                    source: CacheSource::Built,
                                })
                            })
                            .unwrap();
                        assert_eq!(*value, round);
                    }
                });
            }
        });
        assert_eq!(builds.load(Ordering::Relaxed), 16, "one build per key across 8 threads");
        assert_eq!(store.stats().builds_of(ArtifactKind::Result), 16);
        assert_eq!(store.stats().memory_hits, 8 * 16 - 16);
    }

    #[test]
    fn a_panicking_builder_releases_waiters() {
        let store = ArtifactStore::in_memory();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.get_or_build(key(9), "nine", || -> Result<BuiltArtifact<u64>, ArtifactError> {
                panic!("builder failure")
            })
        }));
        // The key is free again: a later resolver builds it cleanly.
        let (value, source) = store
            .get_or_build(key(9), "nine", || {
                Ok(BuiltArtifact { value: 99u64, bytes: 8, source: CacheSource::Built })
            })
            .unwrap();
        assert_eq!(*value, 99);
        assert_eq!(source, CacheSource::Built);
    }

    #[test]
    fn typed_helpers_share_trace_graph_and_timeline() {
        let config = ScenarioConfig::Community(CommunityConfig {
            communities: 2,
            nodes_per_community: 5,
            window_seconds: 400.0,
            ..CommunityConfig::default()
        });
        let store = ArtifactStore::in_memory();

        let (trace, s1) = store.scenario_trace(&config).unwrap();
        let (again, s2) = store.scenario_trace(&config).unwrap();
        assert_eq!((s1, s2), (CacheSource::Built, CacheSource::Memory));
        assert!(Arc::ptr_eq(&trace, &again));
        assert_eq!(*trace, config.generate());

        let (graph, g1) = store.spacetime_graph(&config, &trace, 10.0).unwrap();
        let (graph2, g2) = store.spacetime_graph(&config, &trace, 10.0).unwrap();
        assert_eq!((g1, g2), (CacheSource::Built, CacheSource::Memory));
        assert!(Arc::ptr_eq(&graph, &graph2));
        // A different Δ is a different artifact.
        let (_, g3) = store.spacetime_graph(&config, &trace, 20.0).unwrap();
        assert_eq!(g3, CacheSource::Built);

        let (timeline, t1) = store.trace_timeline(&config, &trace, 10.0).unwrap();
        let (again, t2) = store.history_timeline(&config, &graph, 10.0).unwrap();
        assert_eq!((t1, t2), (CacheSource::Built, CacheSource::Memory));
        assert!(Arc::ptr_eq(&timeline, &again), "both resolvers share one artifact");
        assert_eq!(timeline.node_count(), trace.node_count());
        assert_eq!(timeline.approx_bytes(), HistoryTimeline::build(&graph).approx_bytes());

        let stats = store.stats();
        assert_eq!(stats.builds_of(ArtifactKind::Trace), 1);
        assert_eq!(stats.builds_of(ArtifactKind::Graph), 2);
        assert_eq!(stats.builds_of(ArtifactKind::Timeline), 1);
    }

    #[test]
    fn disk_backed_store_survives_a_fresh_process() {
        let dir =
            std::env::temp_dir().join(format!("psn-artifact-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ScenarioConfig::Community(CommunityConfig {
            communities: 2,
            nodes_per_community: 4,
            window_seconds: 300.0,
            ..CommunityConfig::default()
        });
        // A cell result resolved the way the study pipeline resolves one:
        // memory tier, then the disk tier, then a build that persists.
        let resolve = |store: &ArtifactStore| {
            store
                .get_or_build(key(5), "cell", || {
                    if let Some(text) = store.load_result_text(Fingerprint(5), "cell") {
                        let bytes = text.len();
                        return Ok(BuiltArtifact { value: text, bytes, source: CacheSource::Disk });
                    }
                    let text = "{\"cell\": 5}".to_string();
                    store.store_result_text(Fingerprint(5), "cell", &text);
                    let bytes = text.len();
                    Ok(BuiltArtifact { value: text, bytes, source: CacheSource::Built })
                })
                .unwrap()
        };

        let store = ArtifactStore::with_disk(&dir).unwrap();
        let (trace, source) = store.scenario_trace(&config).unwrap();
        assert_eq!(source, CacheSource::Built);
        assert_eq!(store.stats().disk_writes, 0, "traces stay in memory");
        let (result, source) = resolve(&store);
        assert_eq!(source, CacheSource::Built);
        assert_eq!(store.stats().disk_writes, 1);

        // A new store over the same directory — a restarted process —
        // serves the result from disk and regenerates the same trace.
        let fresh = ArtifactStore::with_disk(&dir).unwrap();
        let (reloaded, source) = resolve(&fresh);
        assert_eq!(source, CacheSource::Disk);
        assert_eq!(*reloaded, *result);
        assert_eq!(fresh.stats().disk_hits, 1);
        assert_eq!(fresh.stats().builds_of(ArtifactKind::Result), 0);
        let (regenerated, source) = fresh.scenario_trace(&config).unwrap();
        assert_eq!(source, CacheSource::Built);
        assert_eq!(*regenerated, *trace);
        assert_eq!(fresh.stats().disk_writes, 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
