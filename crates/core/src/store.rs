//! A sharded concurrent compressed-waveform store: the serving path.
//!
//! The paper's deployment model is that compressed pulse libraries are
//! *served* at runtime: control hardware fetches **one gate's** waveform
//! and decompresses it on the fly — it never inflates the whole library
//! (Section IV-A). The batch paths in [`crate::batch`] model the
//! compile-time side (whole-library encode/decode); this module models
//! the runtime side: many concurrent readers, single-gate granularity,
//! zero steady-state allocation.
//!
//! # Architecture
//!
//! A [`Store`] maps [`GateId`] → [`CompressedWaveform`] across a fixed
//! power-of-two number of shards, each behind its own
//! `parking_lot::RwLock`. Reads on different gates proceed fully in
//! parallel; a write (calibration updating one gate) briefly excludes
//! readers of **one shard only**. Gates are routed to shards by
//! [`GateId::stable_hash`], so the layout is identical on every run.
//!
//! The shard lock is the store's one synchronization mechanism. Each
//! map entry carries everything a fetch needs:
//!
//! * **Engine** — the `&'static` [`DecompressionEngine`] for the
//!   stream's variant, resolved once at insert through
//!   [`DecompressionEngine::shared`].
//! * **Hot copy** — an optional decoded `Arc<Waveform>` plus an atomic
//!   recency stamp. The hot set is the set of entries holding one,
//!   globally budgeted by [`StoreConfig::hot_capacity`] (an honest
//!   store-wide bound: `hot_len() <= hot_capacity` always, however
//!   unevenly the gates hash). [`Store::fetch_cached`] returns an
//!   `Arc<Waveform>` clone on a hit, skipping the RLE + IDCT entirely —
//!   the win for calibration-critical gates fetched over and over.
//!   Parking a miss, eviction and invalidation mutate the entry in
//!   place under the shard's write lock; a hit only reads it under the
//!   read lock (the recency stamp and the shard's clock and counters
//!   are atomics, shard-local, so readers on different shards share no
//!   atomic cache line).
//!
//! Decoding needs a [`DecodeScratch`]; each thread keeps one in a
//! thread-local, so N reader threads decode with at most N scratches
//! ever built and **zero heap allocations** per steady-state
//! [`Store::fetch_into`] (enforced in the `alloc_regression`
//! integration test).
//!
//! # `fetch_into` vs `fetch_cached`
//!
//! [`Store::fetch_into`] always decodes, into caller-owned buffers: the
//! right call when the caller streams samples onward (DAC staging) and
//! wants deterministic latency and zero allocation. [`Store::fetch_cached`]
//! amortizes: the first fetch decodes and parks an `Arc<Waveform>` in the
//! hot set; repeats are a map lookup under the shard read lock plus a
//! refcount bump. Use it for skewed traffic (a few gates dominating
//! fetches); size [`StoreConfig::hot_capacity`] to that working set.
//!
//! # Example
//!
//! ```
//! use compaqt_core::compress::{Compressor, Variant};
//! use compaqt_core::store::Store;
//! use compaqt_pulse::device::Device;
//! use compaqt_pulse::vendor::Vendor;
//!
//! let lib = Device::synthesize(Vendor::Ibm, 2, 0x51E).pulse_library();
//! let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
//! let store = Store::from_library(&lib, &compressor)?;
//!
//! let (gate, wf) = lib.iter().next().unwrap();
//! // Zero-allocation streaming fetch into reusable buffers...
//! let (mut i, mut q) = (Vec::new(), Vec::new());
//! store.fetch_into(gate, &mut i, &mut q)?;
//! assert_eq!(i.len(), wf.len());
//! // ...or a cached fetch that skips the IDCT on repeats.
//! let first = store.fetch_cached(gate)?;
//! let again = store.fetch_cached(gate)?;
//! assert_eq!(first.i(), again.i());
//! assert_eq!(store.stats().hot_hits, 1);
//! # Ok::<(), compaqt_core::store::StoreError>(())
//! ```

use crate::compress::{CompressedWaveform, Compressor, Variant};
use crate::engine::{
    valid_variants, variant_slot, DecodeScratch, DecompressionEngine, EncodeScratch, EngineStats,
    VARIANT_SLOTS,
};
use crate::CompressError;
use compaqt_obs::{Histogram, Snapshot, TraceKind, TraceRing};
use compaqt_pulse::library::{GateId, PulseLibrary};
use compaqt_pulse::waveform::Waveform;
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Sizing knobs for a [`Store`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Number of shards. **Silently rounded up** to the next power of
    /// two, minimum 1 (so `shards: 5` builds an 8-shard store) — shard
    /// routing is a mask over [`GateId::stable_hash`], which requires a
    /// power-of-two count. The effective value is observable via
    /// [`Store::shard_count`], and the rounding is pinned by test so a
    /// refactor cannot change it (that would silently reshuffle every
    /// gate's shard). More shards = less writer/reader contention,
    /// slightly more memory.
    pub shards: usize,
    /// Total decoded waveforms kept hot across **all** shards — an
    /// honest global bound: `Store::hot_len() <= hot_capacity` holds at
    /// all times, however unevenly the gates hash (a fully skewed
    /// working set may occupy the entire budget inside one shard). `0`
    /// disables the hot set: [`Store::fetch_cached`] then decodes on
    /// every call.
    pub hot_capacity: usize,
}

impl Default for StoreConfig {
    /// 16 shards, 64 hot waveforms: comfortable for a ~100-qubit
    /// machine's calibration-critical working set.
    fn default() -> Self {
        StoreConfig { shards: 16, hot_capacity: 64 }
    }
}

/// Errors from the serving path.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The store holds no waveform for the requested gate.
    UnknownGate(GateId),
    /// The stored stream failed to decode (or an insert was rejected).
    Codec(CompressError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownGate(id) => write!(f, "store holds no waveform for gate {id}"),
            StoreError::Codec(e) => write!(f, "stored stream failed to decode: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Codec(e) => Some(e),
            StoreError::UnknownGate(_) => None,
        }
    }
}

impl From<CompressError> for StoreError {
    fn from(e: CompressError) -> Self {
        StoreError::Codec(e)
    }
}

/// A point-in-time snapshot of the store's fetch counters.
///
/// Counters are process-lifetime monotonic (never reset by fetches);
/// sample twice and subtract to rate-measure a window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful fetches, both kinds.
    pub fetches: u64,
    /// [`Store::fetch_cached`] calls served from the hot set (no IDCT).
    pub hot_hits: u64,
    /// [`Store::fetch_cached`] calls that had to decode.
    pub hot_misses: u64,
    /// Decodes performed (every `fetch_into` plus every hot miss).
    pub decodes: u64,
    /// Wall nanoseconds spent inside the decompression engine.
    pub decode_ns: u64,
    /// Hot-set entries dropped by [`Store::invalidate`] / re-inserts.
    pub invalidations: u64,
}

impl StoreStats {
    /// Hot-set hit rate over all `fetch_cached` calls so far (0 when
    /// none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hot_hits + self.hot_misses;
        if total == 0 {
            0.0
        } else {
            self.hot_hits as f64 / total as f64
        }
    }
}

/// Internal atomic counters behind [`StoreStats`] — one set per shard
/// (summed by [`Store::stats`]), so fetches on different shards never
/// contend on a shared counter cache line.
#[derive(Debug, Default)]
struct Counters {
    fetches: AtomicU64,
    hot_hits: AtomicU64,
    hot_misses: AtomicU64,
    decodes: AtomicU64,
    decode_ns: AtomicU64,
    invalidations: AtomicU64,
}

/// Telemetry sidecar of a [`Store`]: log2 latency histograms fed
/// exclusively from timings the fetch paths already take for
/// [`StoreStats::decode_ns`] — instrumentation adds **no** extra clock
/// reads to any fetch path, and nothing at all to the
/// [`Store::fetch_cached`] hit path. Recording is a single relaxed
/// atomic add; reading happens only in [`Store::collect_obs`].
#[derive(Debug, Default)]
struct StoreMetrics {
    /// Streaming-decode latency: one sample per [`Store::fetch_into`]
    /// call and one per locked shard batch of [`Store::fetch_many`]
    /// (mirroring how [`StoreStats::decode_ns`] books wall time).
    decode_ns: Histogram,
    /// [`Store::fetch_cached`] **miss** decode latency; hits record
    /// nothing by design.
    miss_decode_ns: Histogram,
    /// Library-encode latency per waveform, populated by
    /// [`Store::from_library_with`].
    encode_ns: Histogram,
    /// Per-variant decode latency (single-gate paths only — a batch
    /// sample spans variants), indexed by [`variant_slot`]: recording
    /// is one relaxed add, with no lock and no allocation.
    variant_decode_ns: [Histogram; VARIANT_SLOTS],
}

/// Metric-name suffix for a codec variant: lowercase, `[a-z0-9_]` only,
/// so exposition names need no sanitizing.
fn variant_metric_suffix(v: Variant) -> String {
    match v {
        Variant::Delta => "delta".to_string(),
        Variant::DctN => "dct_n".to_string(),
        Variant::DctW { ws } => format!("dct_w{ws}"),
        Variant::IntDctW { ws } => format!("int_dct_w{ws}"),
    }
}

thread_local! {
    /// This thread's decode working memory, shared by every store.
    static SCRATCH: RefCell<DecodeScratch> = RefCell::new(DecodeScratch::new());
}

/// Runs `f` with this thread's decode scratch. No store path calls it
/// re-entrantly.
fn with_scratch<R>(f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
    SCRATCH.with(|scratch| f(&mut scratch.borrow_mut()))
}

/// One stored stream: its engine, its generation, and its hot copy.
///
/// The generation is what makes the hot set safe against recalibration
/// races: a cached-fetch miss decodes outside the locks, and may only
/// park its result if the gate's generation is still the one it read —
/// a concurrent [`Store::insert`] replaces the entry with a new
/// generation, so a stale decode can never enter the hot set after the
/// insert returned.
#[derive(Debug)]
struct StoredEntry {
    gen: u64,
    z: CompressedWaveform,
    /// The shared engine for `z.variant`, resolved at insert.
    engine: &'static DecompressionEngine,
    /// The parked decode, if this gate is in the hot set.
    hot: Option<Arc<Waveform>>,
    /// Recency stamp from the shard clock; atomic so hits, which hold
    /// only the read lock, can bump it.
    last_used: AtomicU64,
}

/// One shard: the compressed map, its generation counter and the number
/// of entries holding a hot copy.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<GateId, StoredEntry>,
    /// Monotonic insert counter; source of [`StoredEntry::gen`].
    next_gen: u64,
    /// Entries of `map` whose `hot` is `Some`.
    parked: usize,
}

/// One shard slot: the locked shard state plus its per-shard recency
/// clock and fetch counters. Keeping those per shard means readers on
/// different shards never serialize on a store-wide atomic. (A
/// shard-local clock is exact — LRU eviction only ever compares entries
/// of the same shard.)
#[derive(Debug, Default)]
struct ShardSlot {
    state: RwLock<Shard>,
    /// This shard's recency clock.
    clock: AtomicU64,
    /// This shard's fetch counters; [`Store::stats`] sums across shards.
    counters: Counters,
}

impl ShardSlot {
    /// Next recency stamp for this shard.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }
}

/// A sharded concurrent `GateId → CompressedWaveform` store with a
/// bounded hot set of decoded waveforms.
///
/// All methods take `&self`: the store is meant to sit in an `Arc` and
/// be shared by reader and writer threads alike. See the [module
/// docs](self) for the architecture and the fetch-path guarantees.
#[derive(Debug)]
pub struct Store {
    shards: Vec<ShardSlot>,
    /// `shards.len() - 1`; shard count is a power of two.
    shard_mask: u64,
    /// Global hot-set budget (0 disables caching).
    hot_capacity: usize,
    /// Hot-budget slots in use: parked entries plus in-flight
    /// reservations. Reservation happens *before* a miss parks its
    /// decode, so parked entries can never exceed `hot_capacity`.
    hot_count: AtomicUsize,
    /// Latency histograms; see [`StoreMetrics`] for the feeding rules.
    metrics: StoreMetrics,
    /// Optional event ring ([`Store::attach_trace`]); checked with one
    /// atomic load on the cold paths that emit events (insert-replace,
    /// eviction) — never on a fetch.
    trace: OnceLock<Arc<TraceRing>>,
}

impl Default for Store {
    fn default() -> Self {
        Store::new(StoreConfig::default())
    }
}

impl Store {
    /// Creates an empty store with the given sizing.
    pub fn new(config: StoreConfig) -> Self {
        let n_shards = config.shards.max(1).next_power_of_two();
        Store {
            shards: (0..n_shards).map(|_| ShardSlot::default()).collect(),
            shard_mask: (n_shards - 1) as u64,
            hot_capacity: config.hot_capacity,
            hot_count: AtomicUsize::new(0),
            metrics: StoreMetrics::default(),
            trace: OnceLock::new(),
        }
    }

    /// Compresses every waveform of a library into a new store with the
    /// default sizing, reusing one [`EncodeScratch`] across the whole
    /// pass (the zero-allocation encode path).
    ///
    /// # Errors
    ///
    /// Propagates the first compression error (none occur for supported
    /// window sizes).
    pub fn from_library(
        library: &PulseLibrary,
        compressor: &Compressor,
    ) -> Result<Self, CompressError> {
        Store::from_library_with(library, compressor, StoreConfig::default())
    }

    /// [`Store::from_library`] with explicit sizing.
    ///
    /// # Errors
    ///
    /// Propagates the first compression error.
    pub fn from_library_with(
        library: &PulseLibrary,
        compressor: &Compressor,
        config: StoreConfig,
    ) -> Result<Self, CompressError> {
        let store = Store::new(config);
        let mut enc = EncodeScratch::new();
        for (gate, wf) in library.iter() {
            let mut z = CompressedWaveform::empty();
            let started = Instant::now();
            compressor.compress_into(wf, &mut enc, &mut z)?;
            store.metrics.encode_ns.record(started.elapsed().as_nanos() as u64);
            store.insert(gate.clone(), z)?;
        }
        Ok(store)
    }

    /// Builds a store from already-compressed `(gate, stream)` pairs,
    /// moving the streams in (no re-encode, no clone) — the bridge from
    /// a compile-side [`crate::stats::LibraryReport`] to the serving
    /// path (see [`crate::stats::LibraryReport::into_store`]).
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] if a stream carries
    /// a variant no engine can be built for.
    pub fn from_entries<I>(entries: I, config: StoreConfig) -> Result<Self, CompressError>
    where
        I: IntoIterator<Item = (GateId, CompressedWaveform)>,
    {
        let store = Store::new(config);
        for (gate, z) in entries {
            store.insert(gate, z)?;
        }
        Ok(store)
    }

    /// Inserts (or replaces) the compressed waveform for a gate. A
    /// replaced entry's hot copy goes with it, so no reader can observe
    /// the old decode after the insert returns. Concurrent readers of
    /// *other* gates in the same shard are blocked only for the map
    /// write.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::UnsupportedWindow`] if the stream's
    /// variant has no valid decompression engine; the store is
    /// unchanged in that case.
    pub fn insert(&self, id: GateId, z: CompressedWaveform) -> Result<(), CompressError> {
        let engine = DecompressionEngine::shared(z.variant)?;
        let home = self.shard_index(&id);
        let slot = &self.shards[home];
        let mut shard = slot.state.write();
        // The new generation is what keeps a concurrent cached-fetch
        // miss (decoding the *old* stream outside the locks right now)
        // from parking its stale result after we return.
        shard.next_gen += 1;
        let gen = shard.next_gen;
        let entry = StoredEntry { gen, z, engine, hot: None, last_used: AtomicU64::new(0) };
        let replaced = shard.map.insert(id, entry);
        if let Some(mut old) = replaced {
            self.drop_hot(slot, &mut shard.parked, &mut old);
            drop(shard);
            // A replacement is a recalibration publish; initial loads
            // are not traced (they would drown the ring at store build).
            self.trace_event(TraceKind::RecalibrationPublish, home as u64, gen);
        }
        Ok(())
    }

    /// Decodes one gate's waveform into caller-owned buffers (cleared
    /// and refilled), returning the engine's operation counts.
    ///
    /// This is the streaming fetch: it always runs the decoder, through
    /// the calling thread's [`DecodeScratch`] — with reused output
    /// buffers the steady-state call performs **zero heap
    /// allocations**. That guarantee is why the decode runs under the
    /// shard's *read* lock (copying the stream out first would
    /// allocate): concurrent fetches of any gate proceed, but note the
    /// stub lock is `std`-backed and writer-favoring, so a queued
    /// [`Store::insert`] on the same shard makes *new* fetches of that
    /// shard wait for the in-flight decodes to finish. Writes are rare
    /// (end of a calibration cycle), so this is the right trade for the
    /// serving loop.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownGate`] if the gate is absent;
    /// [`StoreError::Codec`] if the stored stream is malformed.
    pub fn fetch_into(
        &self,
        id: &GateId,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, StoreError> {
        let slot = &self.shards[self.shard_index(id)];
        let shard = slot.state.read();
        let entry = shard.map.get(id).ok_or_else(|| StoreError::UnknownGate(id.clone()))?;
        let started = Instant::now();
        let result =
            with_scratch(|scratch| entry.engine.decompress_into(&entry.z, scratch, i_out, q_out));
        let elapsed = started.elapsed().as_nanos() as u64;
        let stats = result?;
        slot.counters.decodes.fetch_add(1, Ordering::Relaxed);
        slot.counters.decode_ns.fetch_add(elapsed, Ordering::Relaxed);
        slot.counters.fetches.fetch_add(1, Ordering::Relaxed);
        self.metrics.decode_ns.record(elapsed);
        self.record_variant_ns(entry.z.variant, elapsed);
        Ok(stats)
    }

    /// Decodes a batch of gates into per-gate caller-owned buffer pairs
    /// (`outs[k]` receives gate `ids[k]`), returning the merged engine
    /// stats.
    ///
    /// The batch is grouped by shard: each shard's read lock is
    /// acquired **once per batch** and every batch gate living there is
    /// decoded under it, instead of one acquire/release per gate as a
    /// `fetch_into` loop pays — the right call when a schedule hands
    /// the controller a whole gate list at once. The calling thread's
    /// scratch serves the entire batch, so with reused output buffers
    /// the steady-state call performs zero heap allocations (enforced in
    /// the `alloc_regression` integration test), and the result is
    /// bit-exact with per-gate [`Store::fetch_into`] calls.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownGate`] on the first absent gate,
    /// [`StoreError::Codec`] on the first malformed stream. On error,
    /// buffers decoded before the failure keep their samples and the
    /// rest are untouched — treat `outs` as unspecified.
    ///
    /// # Panics
    ///
    /// Panics if `ids` and `outs` have different lengths.
    pub fn fetch_many(
        &self,
        ids: &[GateId],
        outs: &mut [(Vec<f64>, Vec<f64>)],
    ) -> Result<EngineStats, StoreError> {
        assert_eq!(ids.len(), outs.len(), "one output buffer pair per requested gate");
        with_scratch(|scratch| {
            let mut merged = EngineStats::default();
            for (s, slot) in self.shards.iter().enumerate() {
                // One routing hash per (shard, gate); the shard lock is
                // taken lazily on the first gate that routes here, so
                // shards the batch never touches are never locked.
                let mut shard = None;
                let mut decoded = 0u64;
                let result = ids
                    .iter()
                    .zip(outs.iter_mut())
                    .filter(|(id, _)| self.shard_index(id) == s)
                    .try_for_each(|(id, (i_out, q_out))| {
                        let (shard, _) =
                            shard.get_or_insert_with(|| (slot.state.read(), Instant::now()));
                        let entry =
                            shard.map.get(id).ok_or_else(|| StoreError::UnknownGate(id.clone()))?;
                        let stats =
                            entry.engine.decompress_into(&entry.z, scratch, i_out, q_out)?;
                        merged.merge(&stats);
                        decoded += 1;
                        Ok::<(), StoreError>(())
                    });
                // Exactly one fetches/decodes increment per gate decoded
                // in this shard — never per lock acquisition. A shard
                // whose only routed gates were unknown took the lock but
                // decoded nothing, and must not book time or counts.
                if decoded > 0 {
                    let (_guard, started) =
                        shard.as_ref().expect("decoded gates imply a locked shard");
                    let elapsed = started.elapsed().as_nanos() as u64;
                    slot.counters.decodes.fetch_add(decoded, Ordering::Relaxed);
                    slot.counters.fetches.fetch_add(decoded, Ordering::Relaxed);
                    slot.counters.decode_ns.fetch_add(elapsed, Ordering::Relaxed);
                    // One histogram sample per locked shard batch (the
                    // measured span); a batch crosses variants, so the
                    // per-variant breakdown only covers single-gate paths.
                    self.metrics.decode_ns.record(elapsed);
                }
                result?;
            }
            Ok(merged)
        })
    }

    /// Fetches one gate's decoded waveform through the hot set.
    ///
    /// A hit is a map lookup under the shard's **read** lock, a
    /// recency-stamp store and an `Arc` refcount bump: no decode and no
    /// allocation (enforced by the `alloc_regression` integration test).
    /// Hits of one shard run in parallel; a hit waits only behind a
    /// write to its own shard, one map mutation long (the lock is
    /// writer-favoring, so a queued writer first waits out that shard's
    /// in-flight [`Store::fetch_into`] decodes).
    ///
    /// A miss clones the compressed stream under the read lock, decodes
    /// it **outside every lock** and parks the result on its entry.
    /// Parking first reserves a slot of the **global**
    /// [`StoreConfig::hot_capacity`] budget, evicting the least recently
    /// used hot copy (home shard first) when the budget is exhausted —
    /// so `hot_len()` never exceeds `hot_capacity`, and a working set
    /// skewed onto one shard still gets the whole budget. The park is
    /// generation-checked: the decode of a gate recalibrated meanwhile
    /// is returned (it was the truth when the fetch started) but never
    /// cached, so a `fetch_cached` that *begins* after an
    /// [`Store::insert`] returns can only observe the new calibration.
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownGate`] if the gate is absent;
    /// [`StoreError::Codec`] if the stored stream is malformed.
    pub fn fetch_cached(&self, id: &GateId) -> Result<Arc<Waveform>, StoreError> {
        let home = self.shard_index(id);
        let slot = &self.shards[home];
        let (z, gen, engine) = {
            let shard = slot.state.read();
            let entry = shard.map.get(id).ok_or_else(|| StoreError::UnknownGate(id.clone()))?;
            if let Some(hot) = &entry.hot {
                entry.last_used.store(slot.tick(), Ordering::Relaxed);
                slot.counters.hot_hits.fetch_add(1, Ordering::Relaxed);
                slot.counters.fetches.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(hot));
            }
            // Snapshot the stream so the (long) decode holds no lock: a
            // cold miss must not stall writers — or, through the
            // writer-favoring std-backed lock, other readers — of this
            // shard. One clone per miss; misses also allocate the
            // waveform itself, so this is not on the zero-alloc path.
            (entry.z.clone(), entry.gen, entry.engine)
        };
        let (mut i, mut q) = (Vec::new(), Vec::new());
        let started = Instant::now();
        let result = with_scratch(|scratch| engine.decompress_into(&z, scratch, &mut i, &mut q));
        let elapsed = started.elapsed().as_nanos() as u64;
        result?;
        let decoded = Arc::new(crate::engine::checked_waveform(&z.name, i, q, z.sample_rate_gs)?);
        slot.counters.decodes.fetch_add(1, Ordering::Relaxed);
        slot.counters.decode_ns.fetch_add(elapsed, Ordering::Relaxed);
        slot.counters.hot_misses.fetch_add(1, Ordering::Relaxed);
        slot.counters.fetches.fetch_add(1, Ordering::Relaxed);
        self.metrics.miss_decode_ns.record(elapsed);
        self.record_variant_ns(z.variant, elapsed);
        if self.hot_capacity == 0 {
            return Ok(decoded);
        }
        // Park the decode: reserve a global hot-budget slot *before*
        // taking the home shard's write lock (eviction may lock any one
        // shard, and no two shard locks are ever held together).
        self.reserve_hot_slot(home);
        let mut shard = slot.state.write();
        let Shard { map, parked, .. } = &mut *shard;
        match map.get_mut(id) {
            // Another reader raced us here; keep the first decode so
            // every caller converges on one shared copy.
            Some(StoredEntry { hot: Some(shared), last_used, .. }) => {
                last_used.store(slot.tick(), Ordering::Relaxed);
                let shared = Arc::clone(shared);
                drop(shard);
                self.hot_count.fetch_sub(1, Ordering::Relaxed); // release unused reservation
                Ok(shared)
            }
            // The generation pins the exact stream we decoded.
            Some(entry) if entry.gen == gen => {
                entry.hot = Some(Arc::clone(&decoded));
                entry.last_used.store(slot.tick(), Ordering::Relaxed);
                *parked += 1; // consumes the reservation
                Ok(decoded)
            }
            // Recalibrated (or removed) while we were decoding: parking
            // the old decode would serve stale samples until the next
            // invalidation.
            _ => {
                drop(shard);
                self.hot_count.fetch_sub(1, Ordering::Relaxed); // release: stale decode, not parked
                Ok(decoded)
            }
        }
    }

    /// Runs `f` with a borrow of one gate's **compressed** stream,
    /// under the shard's read lock — the wire-serving fetch path: a
    /// network tier serializes the stream straight out of the shard
    /// with no clone and no decode (the *client* decompresses, which
    /// is the paper's deployment model). Nothing is decoded, so the
    /// fetch counters are untouched; concurrent readers of the shard
    /// proceed, and `f` should return quickly (it holds the lock).
    ///
    /// # Errors
    ///
    /// [`StoreError::UnknownGate`] if the gate is absent.
    pub fn with_stream<R>(
        &self,
        id: &GateId,
        f: impl FnOnce(&CompressedWaveform) -> R,
    ) -> Result<R, StoreError> {
        let slot = &self.shards[self.shard_index(id)];
        let shard = slot.state.read();
        let entry = shard.map.get(id).ok_or_else(|| StoreError::UnknownGate(id.clone()))?;
        Ok(f(&entry.z))
    }

    /// Drops the hot-set copy of one gate (the compressed stream stays).
    /// Returns `true` if a decoded copy was parked. Call after mutating
    /// anything a cached decode depends on; [`Store::insert`] does this
    /// automatically.
    pub fn invalidate(&self, id: &GateId) -> bool {
        let slot = &self.shards[self.shard_index(id)];
        let mut shard = slot.state.write();
        let Shard { map, parked, .. } = &mut *shard;
        map.get_mut(id).is_some_and(|entry| self.drop_hot(slot, parked, entry))
    }

    /// Removes a gate entirely (compressed stream and hot copy),
    /// returning the stream if it was present.
    pub fn remove(&self, id: &GateId) -> Option<CompressedWaveform> {
        let slot = &self.shards[self.shard_index(id)];
        let mut shard = slot.state.write();
        let mut old = shard.map.remove(id)?;
        self.drop_hot(slot, &mut shard.parked, &mut old);
        Some(old.z)
    }

    /// Drops `entry`'s hot copy, if any, releasing its global
    /// hot-budget slot and counting the invalidation. Called under the
    /// shard's write lock (`parked` is the shard's count); the single
    /// removal-accounting site shared by insert/invalidate/remove.
    fn drop_hot(&self, slot: &ShardSlot, parked: &mut usize, entry: &mut StoredEntry) -> bool {
        if entry.hot.take().is_none() {
            return false;
        }
        *parked -= 1;
        self.hot_count.fetch_sub(1, Ordering::Relaxed);
        slot.counters.invalidations.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Reserves one slot of the global hot budget, evicting if it is
    /// exhausted. Must be called with **no shard lock held** (eviction
    /// takes one shard write lock at a time, never two), and every
    /// reservation must later be either consumed by a park or released
    /// with a `hot_count` decrement.
    fn reserve_hot_slot(&self, home: usize) {
        loop {
            let used = self.hot_count.load(Ordering::Relaxed);
            if used < self.hot_capacity {
                if self
                    .hot_count
                    .compare_exchange(used, used + 1, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    return;
                }
                continue; // lost a reservation race; retry
            }
            // Budget exhausted: make room. Evicting from the home shard
            // first means a skewed working set behaves like one LRU over
            // the full budget instead of thrashing a per-shard slice;
            // other shards are scanned round-robin only when the home
            // shard has nothing parked. (Per-shard recency clocks are
            // not cross-comparable, so the cross-shard victim choice is
            // positional; eviction is LRU *within* the victim shard.)
            // Finding nothing is possible when every budget slot is an
            // in-flight reservation about to park — loop until one
            // parks (evictable) or is released (budget frees up).
            self.evict_one(home);
        }
    }

    /// Evicts the least recently used hot copy of the first shard,
    /// scanning from `home`, that has anything parked. Returns `false`
    /// if no shard had a hot copy.
    fn evict_one(&self, home: usize) -> bool {
        let n = self.shards.len();
        for k in 0..n {
            let s = (home + k) % n;
            let mut shard = self.shards[s].state.write();
            if shard.parked == 0 {
                continue;
            }
            let Shard { map, parked, .. } = &mut *shard;
            let coldest = map
                .values_mut()
                .filter(|e| e.hot.is_some())
                .min_by_key(|e| e.last_used.load(Ordering::Relaxed))
                .expect("parked > 0 implies a hot entry");
            coldest.hot = None;
            *parked -= 1;
            let remaining = *parked as u64;
            drop(shard);
            self.hot_count.fetch_sub(1, Ordering::Relaxed);
            self.trace_event(TraceKind::HotEviction, s as u64, remaining);
            return true;
        }
        false
    }

    /// A snapshot of the fetch counters, summed over all shards.
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::default();
        for slot in &self.shards {
            out.fetches += slot.counters.fetches.load(Ordering::Relaxed);
            out.hot_hits += slot.counters.hot_hits.load(Ordering::Relaxed);
            out.hot_misses += slot.counters.hot_misses.load(Ordering::Relaxed);
            out.decodes += slot.counters.decodes.load(Ordering::Relaxed);
            out.decode_ns += slot.counters.decode_ns.load(Ordering::Relaxed);
            out.invalidations += slot.counters.invalidations.load(Ordering::Relaxed);
        }
        out
    }

    /// Attaches a trace ring: cold store events (recalibration
    /// publishes over existing gates, hot-set evictions) are pushed to
    /// it from then on. First attach wins — returns `false` (ring
    /// dropped, existing one kept) if one is already attached. Fetches
    /// never emit events, so attaching costs the fetch paths nothing.
    pub fn attach_trace(&self, ring: Arc<TraceRing>) -> bool {
        self.trace.set(ring).is_ok()
    }

    /// The attached trace ring, if any.
    pub fn trace(&self) -> Option<&Arc<TraceRing>> {
        self.trace.get()
    }

    /// Pushes an event to the attached ring (one atomic load when none
    /// is attached).
    fn trace_event(&self, kind: TraceKind, a: u64, b: u64) {
        if let Some(ring) = self.trace.get() {
            ring.push(kind, a, b);
        }
    }

    /// Records a per-variant decode sample. Every stored variant has a
    /// slot: [`Store::insert`] admits only variants with an engine.
    fn record_variant_ns(&self, variant: Variant, ns: u64) {
        if let Ok(slot) = variant_slot(variant) {
            self.metrics.variant_decode_ns[slot].record(ns);
        }
    }

    /// Contributes this store's telemetry to an observability snapshot:
    /// the [`StoreStats`] counters, occupancy gauges, the decode latency
    /// histograms, the encode histogram once
    /// [`Store::from_library_with`] has encoded something, and one
    /// `store_decode_ns_<variant>` row per variant decoded so far. Cold
    /// path — it takes shard read locks for the gauges and allocates
    /// freely; never call it from a fetch loop.
    pub fn collect_obs(&self, out: &mut Snapshot) {
        let s = self.stats();
        out.push_counter("store_fetches", s.fetches);
        out.push_counter("store_hot_hits", s.hot_hits);
        out.push_counter("store_hot_misses", s.hot_misses);
        out.push_counter("store_decodes", s.decodes);
        out.push_counter("store_decode_ns_total", s.decode_ns);
        out.push_counter("store_invalidations", s.invalidations);
        out.push_gauge("store_gates", self.len() as u64);
        out.push_gauge("store_hot_len", self.hot_len() as u64);
        out.push_gauge("store_hot_capacity", self.hot_capacity as u64);
        out.push_gauge("store_shards", self.shards.len() as u64);
        out.push_histogram("store_decode_ns", self.metrics.decode_ns.snapshot());
        out.push_histogram("store_miss_decode_ns", self.metrics.miss_decode_ns.snapshot());
        let encode = self.metrics.encode_ns.snapshot();
        if encode.count() > 0 {
            out.push_histogram("store_encode_ns", encode);
        }
        for (variant, h) in valid_variants().zip(&self.metrics.variant_decode_ns) {
            let h = h.snapshot();
            if h.count() > 0 {
                out.push_histogram(
                    format!("store_decode_ns_{}", variant_metric_suffix(variant)),
                    h,
                );
            }
        }
    }

    /// Number of gates stored.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.state.read().map.len()).sum()
    }

    /// `true` if no gates are stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.state.read().map.is_empty())
    }

    /// `true` if the store holds a stream for the gate.
    pub fn contains(&self, id: &GateId) -> bool {
        self.shards[self.shard_index(id)].state.read().map.contains_key(id)
    }

    /// All stored gate ids, sorted (deterministic across runs — gate ids
    /// are `Ord`).
    pub fn gates(&self) -> Vec<GateId> {
        let mut out: Vec<GateId> = Vec::with_capacity(self.len());
        for slot in &self.shards {
            out.extend(slot.state.read().map.keys().cloned());
        }
        out.sort();
        out
    }

    /// Visits every stored `(gate, stream)` pair under shard read
    /// locks, without cloning a single stream — the export bridge
    /// serializers use (the `compaqt-io` container writer drains a
    /// serving store through this). Visit order is unspecified
    /// (shard-major, hash-map order within a shard); callers needing a
    /// canonical order must sort what they collect.
    ///
    /// Concurrent inserts to a shard not yet visited are observed;
    /// holding one shard's read lock never blocks writers of another.
    pub fn for_each_entry(&self, mut f: impl FnMut(&GateId, &CompressedWaveform)) {
        for slot in &self.shards {
            let shard = slot.state.read();
            for (id, entry) in shard.map.iter() {
                f(id, &entry.z);
            }
        }
    }

    /// Decoded waveforms currently parked across all shards.
    pub fn hot_len(&self) -> usize {
        self.shards.iter().map(|s| s.state.read().parked).sum()
    }

    /// The number of shards (power of two).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a gate routes to — stable across runs and machines.
    pub fn shard_index(&self, id: &GateId) -> usize {
        (id.stable_hash() & self.shard_mask) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_pulse::device::Device;
    use compaqt_pulse::library::GateKind;
    use compaqt_pulse::vendor::Vendor;

    fn library() -> Arc<PulseLibrary> {
        Device::synthesize(Vendor::Ibm, 3, 0x570FE).pulse_library()
    }

    fn store() -> Store {
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        Store::from_library(&library(), &compressor).unwrap()
    }

    #[test]
    fn fetch_into_matches_engine_decode() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store = Store::from_library(&lib, &compressor).unwrap();
        let engine = DecompressionEngine::for_variant(compressor.variant()).unwrap();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for (gate, wf) in lib.iter() {
            let z = compressor.compress(wf).unwrap();
            let (expect, expect_stats) = engine.decompress(&z).unwrap();
            let stats = store.fetch_into(gate, &mut i, &mut q).unwrap();
            assert_eq!(expect.i(), &i[..], "{gate}: I channel");
            assert_eq!(expect.q(), &q[..], "{gate}: Q channel");
            assert_eq!(expect_stats, stats, "{gate}: engine stats");
        }
    }

    #[test]
    fn fetch_cached_hits_skip_the_decoder() {
        let store = store();
        let gate = store.gates().remove(0);
        let a = store.fetch_cached(&gate).unwrap();
        let before = store.stats();
        let b = store.fetch_cached(&gate).unwrap();
        let after = store.stats();
        assert_eq!(a.i(), b.i());
        assert!(Arc::ptr_eq(&a, &b), "hit must be the same shared decode");
        assert_eq!(after.decodes, before.decodes, "hit must not decode");
        assert_eq!(after.hot_hits, before.hot_hits + 1);
    }

    #[test]
    fn unknown_gate_is_a_clean_error() {
        let store = store();
        let missing = GateId::single(GateKind::X, 99);
        assert!(matches!(
            store.fetch_into(&missing, &mut Vec::new(), &mut Vec::new()),
            Err(StoreError::UnknownGate(_))
        ));
        assert!(matches!(store.fetch_cached(&missing), Err(StoreError::UnknownGate(_))));
    }

    #[test]
    fn insert_invalidates_the_hot_copy() {
        let lib = library();
        let store = store();
        let (gate, wf) = lib.iter().next().unwrap();
        let old = store.fetch_cached(gate).unwrap();
        // Recalibrate: same gate, visibly different waveform.
        let shifted =
            Waveform::new(format!("{gate}"), vec![0.25; wf.len()], vec![0.0; wf.len()], 4.54);
        let z = Compressor::new(Variant::Delta).compress(&shifted).unwrap();
        store.insert(gate.clone(), z).unwrap();
        let new = store.fetch_cached(gate).unwrap();
        assert!(!Arc::ptr_eq(&old, &new), "stale decode must not be served");
        assert!((new.i()[0] - 0.25).abs() < 1e-3);
        assert!(store.stats().invalidations >= 1);
    }

    #[test]
    fn invalidate_and_remove() {
        let store = store();
        let gate = store.gates().remove(0);
        assert!(!store.invalidate(&gate), "nothing hot yet");
        store.fetch_cached(&gate).unwrap();
        assert!(store.invalidate(&gate));
        assert!(store.contains(&gate));
        assert!(store.remove(&gate).is_some());
        assert!(!store.contains(&gate));
        assert!(store.remove(&gate).is_none());
    }

    #[test]
    fn hot_set_is_bounded_and_evicts_lru() {
        // One shard, two hot slots: the third distinct fetch evicts the
        // least recently used.
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store =
            Store::from_library_with(&lib, &compressor, StoreConfig { shards: 1, hot_capacity: 2 })
                .unwrap();
        let gates = store.gates();
        assert!(gates.len() >= 3);
        store.fetch_cached(&gates[0]).unwrap();
        store.fetch_cached(&gates[1]).unwrap();
        store.fetch_cached(&gates[0]).unwrap(); // refresh gate 0
        store.fetch_cached(&gates[2]).unwrap(); // evicts gate 1
        assert_eq!(store.hot_len(), 2);
        let before = store.stats();
        store.fetch_cached(&gates[0]).unwrap();
        assert_eq!(store.stats().hot_hits, before.hot_hits + 1, "gate 0 stayed hot");
        let before = store.stats();
        store.fetch_cached(&gates[1]).unwrap();
        assert_eq!(store.stats().hot_misses, before.hot_misses + 1, "gate 1 was evicted");
    }

    #[test]
    fn zero_hot_capacity_disables_caching() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store =
            Store::from_library_with(&lib, &compressor, StoreConfig { shards: 4, hot_capacity: 0 })
                .unwrap();
        let gate = store.gates().remove(0);
        store.fetch_cached(&gate).unwrap();
        store.fetch_cached(&gate).unwrap();
        assert_eq!(store.hot_len(), 0);
        assert_eq!(store.stats().hot_hits, 0);
        assert_eq!(store.stats().decodes, 2);
    }

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let store = Store::new(StoreConfig { shards: 5, hot_capacity: 8 });
        assert_eq!(store.shard_count(), 8, "rounded up to a power of two");
        let id = GateId::pair(GateKind::Cx, 3, 7);
        let s = store.shard_index(&id);
        assert!(s < 8);
        assert_eq!(s, store.shard_index(&id), "routing is a pure function of the id");
    }

    #[test]
    fn shard_rounding_and_layout_are_pinned() {
        // `StoreConfig::shards` rounds up to the next power of two
        // (minimum 1). Pinned so a refactor can't change the effective
        // count — that would silently reshuffle every gate's shard.
        for (requested, effective) in
            [(0, 1), (1, 1), (2, 2), (3, 4), (5, 8), (8, 8), (9, 16), (16, 16), (17, 32)]
        {
            let store = Store::new(StoreConfig { shards: requested, hot_capacity: 0 });
            assert_eq!(store.shard_count(), effective, "shards: {requested}");
        }
        // Routing is the stable hash masked by (shards - 1); pin the
        // formula so the layout itself can't drift either.
        let store = Store::new(StoreConfig { shards: 8, hot_capacity: 0 });
        for id in [
            GateId::single(GateKind::X, 0),
            GateId::single(GateKind::Sx, 12),
            GateId::pair(GateKind::Cx, 3, 7),
            GateId::pair(GateKind::Fsim, 40, 41),
        ] {
            assert_eq!(store.shard_index(&id), (id.stable_hash() & 7) as usize, "{id}");
        }
    }

    #[test]
    fn hot_capacity_is_a_global_bound_under_skewed_hashing() {
        // Route a whole working set into ONE shard of an 8-shard store
        // whose global budget is 4. The old per-shard split
        // (div_ceil(4/8) = 1 slot per shard) both inflated the global
        // bound (8 effective slots) and thrashed skewed traffic (the
        // busy shard got one slot while seven sat empty). The honest
        // global budget must (a) never exceed 4 parked decodes and
        // (b) let the skewed 4-gate working set stay entirely hot.
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store =
            Store::from_library_with(&lib, &compressor, StoreConfig { shards: 8, hot_capacity: 4 })
                .unwrap();
        let gates = store.gates();
        // Pick the shard holding the most gates and keep 4 of its gates.
        let busiest =
            (0..8).max_by_key(|s| gates.iter().filter(|g| store.shard_index(g) == *s).count());
        let skewed: Vec<GateId> = gates
            .iter()
            .filter(|g| store.shard_index(g) == busiest.unwrap())
            .take(4)
            .cloned()
            .collect();
        assert!(skewed.len() >= 2, "need a multi-gate single-shard working set");

        for pass in 0..3 {
            for gate in &skewed {
                store.fetch_cached(gate).unwrap();
                assert!(store.hot_len() <= 4, "pass {pass}: global bound violated");
            }
        }
        let stats = store.stats();
        assert_eq!(stats.hot_misses, skewed.len() as u64, "first pass misses only");
        assert_eq!(stats.hot_hits, 2 * skewed.len() as u64, "repeat passes must not thrash");

        // Now sweep every gate: evictions happen, the bound still holds.
        for gate in &gates {
            store.fetch_cached(gate).unwrap();
            assert!(store.hot_len() <= 4, "sweep: global bound violated");
        }
    }

    #[test]
    fn counters_ledger_is_exact_across_fetch_paths() {
        // Single shard so fetch_many processes `ids` in order and the
        // partial-failure ledger below is deterministic.
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store = Store::from_library_with(
            &lib,
            &compressor,
            StoreConfig { shards: 1, hot_capacity: 64 },
        )
        .unwrap();
        let ids = store.gates();
        let k = ids.len() as u64;
        let mut outs: Vec<(Vec<f64>, Vec<f64>)> = ids.iter().map(|_| Default::default()).collect();

        // One batched call counts one fetch + one decode PER GATE.
        store.fetch_many(&ids, &mut outs).unwrap();
        let s = store.stats();
        assert_eq!((s.fetches, s.decodes, s.hot_hits, s.hot_misses), (k, k, 0, 0));

        // Duplicates in a batch each count: 2k more fetches/decodes.
        let doubled: Vec<GateId> = ids.iter().chain(ids.iter()).cloned().collect();
        let mut outs2: Vec<(Vec<f64>, Vec<f64>)> =
            doubled.iter().map(|_| Default::default()).collect();
        store.fetch_many(&doubled, &mut outs2).unwrap();
        let s = store.stats();
        assert_eq!((s.fetches, s.decodes), (3 * k, 3 * k));

        // A failing batch counts the gates decoded before the failure
        // and nothing for the unknown gate itself.
        let missing = GateId::single(GateKind::X, 99);
        let mut failing = ids.clone();
        failing.push(missing.clone());
        let mut outs3: Vec<(Vec<f64>, Vec<f64>)> =
            failing.iter().map(|_| Default::default()).collect();
        assert!(store.fetch_many(&failing, &mut outs3).is_err());
        let s = store.stats();
        assert_eq!((s.fetches, s.decodes), (4 * k, 4 * k), "prefix decoded before failure");

        // Unknown-first: the shard lock is taken, but nothing may be
        // booked — neither counts nor decode time.
        let before = store.stats();
        let mut failing_first = vec![missing];
        failing_first.extend(ids.iter().cloned());
        let mut outs4: Vec<(Vec<f64>, Vec<f64>)> =
            failing_first.iter().map(|_| Default::default()).collect();
        assert!(store.fetch_many(&failing_first, &mut outs4).is_err());
        let s = store.stats();
        assert_eq!(s, before, "failed-at-first batch books nothing, not even decode_ns");

        // The cached path keeps its own exact ledger alongside.
        for id in &ids {
            store.fetch_cached(id).unwrap();
            store.fetch_cached(id).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.fetches, 4 * k + 2 * k);
        assert_eq!(s.decodes, 4 * k + k);
        assert_eq!((s.hot_hits, s.hot_misses), (k, k));
    }

    #[test]
    fn with_stream_borrows_without_decoding() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store = Store::from_library(&lib, &compressor).unwrap();
        let gate = store.gates().remove(0);
        let expected = compressor.compress(lib.get(&gate).unwrap()).unwrap();
        let before = store.stats();
        let (variant, n) = store.with_stream(&gate, |z| (z.variant, z.n_samples)).unwrap();
        assert_eq!(variant, expected.variant);
        assert_eq!(n, expected.n_samples);
        assert_eq!(store.stats(), before, "a stream borrow is not a fetch");
        let missing = GateId::single(GateKind::X, 99);
        assert!(matches!(store.with_stream(&missing, |_| ()), Err(StoreError::UnknownGate(_))));
    }

    #[test]
    fn mixed_variants_share_one_store() {
        let lib = library();
        let store = Store::new(StoreConfig::default());
        for (k, (gate, wf)) in lib.iter().enumerate() {
            let variant = match k % 3 {
                0 => Variant::IntDctW { ws: 16 },
                1 => Variant::DctN,
                _ => Variant::Delta,
            };
            store.insert(gate.clone(), Compressor::new(variant).compress(wf).unwrap()).unwrap();
        }
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for (gate, wf) in lib.iter() {
            store.fetch_into(gate, &mut i, &mut q).unwrap();
            assert_eq!(i.len(), wf.len(), "{gate}");
        }
    }

    #[test]
    fn bad_variant_insert_is_rejected_and_store_unchanged() {
        let lib = library();
        let store = Store::new(StoreConfig::default());
        let (gate, wf) = lib.iter().next().unwrap();
        let mut z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(wf).unwrap();
        z.variant = Variant::IntDctW { ws: 10 };
        assert!(store.insert(gate.clone(), z).is_err());
        assert!(store.is_empty());
    }

    #[test]
    fn stats_account_fetches_and_time() {
        let store = store();
        let gate = store.gates().remove(0);
        let (mut i, mut q) = (Vec::new(), Vec::new());
        store.fetch_into(&gate, &mut i, &mut q).unwrap();
        store.fetch_cached(&gate).unwrap();
        store.fetch_cached(&gate).unwrap();
        let s = store.stats();
        assert_eq!(s.fetches, 3);
        assert_eq!(s.decodes, 2);
        assert_eq!(s.hot_hits, 1);
        assert_eq!(s.hot_misses, 1);
        assert!(s.hit_rate() > 0.49 && s.hit_rate() < 0.51);
    }

    #[test]
    fn fetch_many_is_bit_exact_with_repeated_fetch_into() {
        let lib = library();
        let store = Store::new(StoreConfig { shards: 4, hot_capacity: 8 });
        // Mixed variants so the batch crosses engines as well as shards.
        for (k, (gate, wf)) in lib.iter().enumerate() {
            let variant = match k % 3 {
                0 => Variant::IntDctW { ws: 16 },
                1 => Variant::DctN,
                _ => Variant::Delta,
            };
            store.insert(gate.clone(), Compressor::new(variant).compress(wf).unwrap()).unwrap();
        }
        let ids = store.gates();
        let mut outs: Vec<(Vec<f64>, Vec<f64>)> = ids.iter().map(|_| Default::default()).collect();
        let batch_stats = store.fetch_many(&ids, &mut outs).unwrap();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        let mut merged = EngineStats::default();
        for (id, (bi, bq)) in ids.iter().zip(&outs) {
            let stats = store.fetch_into(id, &mut i, &mut q).unwrap();
            merged.merge(&stats);
            assert_eq!(&i, bi, "{id}: I channel");
            assert_eq!(&q, bq, "{id}: Q channel");
        }
        assert_eq!(batch_stats, merged, "batch stats are the per-gate merge");
        assert_eq!(store.stats().fetches, 2 * ids.len() as u64);
    }

    #[test]
    fn collect_obs_mirrors_stats_and_feeds_histograms() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store = Store::from_library(&lib, &compressor).unwrap();
        let gates = store.gates();
        let (gate, dct_gate) = (&gates[0], &gates[1]);
        let dct_n = Compressor::new(Variant::DctN).compress(lib.get(dct_gate).unwrap()).unwrap();
        store.insert(dct_gate.clone(), dct_n).unwrap();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        store.fetch_into(gate, &mut i, &mut q).unwrap();
        store.fetch_into(dct_gate, &mut i, &mut q).unwrap();
        store.fetch_cached(gate).unwrap(); // miss
        store.fetch_cached(gate).unwrap(); // hit: must not record
        let mut snap = Snapshot::new();
        store.collect_obs(&mut snap);
        let s = store.stats();
        assert_eq!(snap.counter("store_fetches"), Some(s.fetches));
        assert_eq!(snap.counter("store_hot_hits"), Some(1));
        assert_eq!(snap.counter("store_decode_ns_total"), Some(s.decode_ns));
        assert_eq!(snap.gauge("store_gates"), Some(lib.len() as u64));
        assert_eq!(snap.gauge("store_hot_len"), Some(1));
        let decode = snap.histogram("store_decode_ns").expect("aggregate histogram present");
        assert_eq!(decode.count(), 2, "one sample per fetch_into");
        let miss = snap.histogram("store_miss_decode_ns").expect("miss histogram present");
        assert_eq!(miss.count(), 1, "one miss sample; the hit recorded nothing");
        // The default config records encode timing and the per-variant
        // breakdown, with a row only for variants that were decoded.
        let enc = snap.histogram("store_encode_ns").expect("encode histogram present");
        assert_eq!(enc.count(), lib.len() as u64, "one encode sample per waveform");
        let variant =
            snap.histogram("store_decode_ns_int_dct_w16").expect("per-variant histogram present");
        assert_eq!(variant.count(), 2, "fetch_into + miss; batch and hit paths excluded");
        let dct = snap.histogram("store_decode_ns_dct_n").expect("DCT-N histogram present");
        assert_eq!(dct.count(), 1, "one DCT-N fetch_into");
        assert!(snap.histogram("store_decode_ns_delta").is_none(), "no row for an idle variant");
    }

    #[test]
    fn trace_captures_recalibration_and_eviction() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store =
            Store::from_library_with(&lib, &compressor, StoreConfig { shards: 1, hot_capacity: 1 })
                .unwrap();
        let ring = Arc::new(TraceRing::new(16));
        assert!(store.attach_trace(Arc::clone(&ring)));
        assert!(!store.attach_trace(Arc::new(TraceRing::new(16))), "first attach wins");

        let gates = store.gates();
        store.fetch_cached(&gates[0]).unwrap();
        store.fetch_cached(&gates[1]).unwrap(); // budget 1: evicts gate 0
        let events = ring.snapshot();
        assert!(
            events.iter().any(|e| e.kind == TraceKind::HotEviction && e.b == 0),
            "eviction must be traced with the post-eviction occupancy: {events:?}"
        );

        // Re-inserting an existing gate is a recalibration publish;
        // the initial library load above must NOT have traced any.
        assert!(!events.iter().any(|e| e.kind == TraceKind::RecalibrationPublish));
        let wf = lib.get(&gates[0]).unwrap();
        let z = compressor.compress(wf).unwrap();
        store.insert(gates[0].clone(), z).unwrap();
        let events = ring.snapshot();
        assert!(events.iter().any(|e| e.kind == TraceKind::RecalibrationPublish && e.a == 0));
    }

    #[test]
    fn remove_and_reinsert_release_their_hot_budget_slots() {
        // A hot copy dropped together with its entry must hand its
        // budget slot back: a leaked slot would make later parks evict
        // for room that is really free (and, once every shard is empty,
        // spin in reserve_hot_slot forever).
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store =
            Store::from_library_with(&lib, &compressor, StoreConfig { shards: 1, hot_capacity: 2 })
                .unwrap();
        let ring = Arc::new(TraceRing::new(16));
        assert!(store.attach_trace(Arc::clone(&ring)));
        let gates = store.gates();
        let (a, b, c, d) = (&gates[0], &gates[1], &gates[2], &gates[3]);
        store.fetch_cached(a).unwrap();
        store.fetch_cached(b).unwrap();
        assert_eq!(store.hot_len(), 2);

        assert!(store.remove(a).is_some());
        let z = compressor.compress(lib.get(b).unwrap()).unwrap();
        store.insert(b.clone(), z).unwrap();
        assert_eq!(store.hot_len(), 0);
        assert_eq!(store.stats().invalidations, 2);

        // With both slots leaked these parks would spin with nothing to
        // evict, so they run on a thread of their own: a leak fails the
        // test instead of hanging it.
        let store = Arc::new(store);
        let (parker, (c, d)) = (Arc::clone(&store), (c.clone(), d.clone()));
        let (done, parked) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            parker.fetch_cached(&c).unwrap();
            parker.fetch_cached(&d).unwrap();
            done.send(()).unwrap();
        });
        parked
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("parks spun on leaked hot-budget slots");
        assert_eq!(store.hot_len(), 2);
        let evictions = ring.snapshot().iter().filter(|e| e.kind == TraceKind::HotEviction).count();
        assert_eq!(evictions, 0, "both released slots were free; nothing had to be evicted");
    }

    #[test]
    fn fetch_many_reports_missing_gates() {
        let store = store();
        let mut ids = store.gates();
        ids.push(GateId::single(GateKind::X, 99));
        let mut outs: Vec<(Vec<f64>, Vec<f64>)> = ids.iter().map(|_| Default::default()).collect();
        assert!(matches!(store.fetch_many(&ids, &mut outs), Err(StoreError::UnknownGate(_))));
        // Empty batches are a no-op, not an error.
        assert_eq!(store.fetch_many(&[], &mut []).unwrap(), EngineStats::default());
    }

    #[test]
    fn for_each_entry_visits_every_stream_once() {
        let lib = library();
        let store = store();
        let mut seen = Vec::new();
        store.for_each_entry(|gate, z| {
            assert!(!z.name.is_empty());
            seen.push(gate.clone());
        });
        seen.sort();
        assert_eq!(seen, store.gates());
        assert_eq!(seen.len(), lib.len());
    }

    #[test]
    fn into_store_bridge_preserves_streams() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let report = crate::stats::compress_library(&lib, &compressor).unwrap();
        let n = report.waveforms.len();
        let store = report.into_store(StoreConfig::default()).unwrap();
        assert_eq!(store.len(), n);
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for (gate, wf) in lib.iter() {
            store.fetch_into(gate, &mut i, &mut q).unwrap();
            assert_eq!(i.len(), wf.len());
        }
    }
}
