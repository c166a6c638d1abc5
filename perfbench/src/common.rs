//! Pieces every workload shares: seeded inputs, the design-point codec,
//! bit-exact references, latency samples, measurement blocks and the
//! metric record.

use std::time::{Duration, Instant};

use compaqt::core::compress::{CompressedWaveform, Compressor, Variant};
use compaqt::core::engine::{DecodeScratch, DecompressionEngine, EncodeScratch};
use compaqt::core::store::Store;
use compaqt::pulse::library::GateId;
use compaqt::pulse::registry::Registry;
use compaqt::pulse::waveform::Waveform;

/// How many times a run sets its workload up before measuring; one
/// more set-up follows each block, and `setup_s` is the median of all.
pub const SETUPS: usize = 3;

/// Length of one window. The benchmark host can be a shared VM that
/// moves between a loaded state and one about 1.45 times faster, in
/// phases from a fraction of a second to minutes, so the share of a run
/// spent in each state varies from run to run. Every end-to-end timing
/// is therefore taken per window (recalibrations and compiles: per
/// block) and reported for the fast state alone; see [`fast_windows`].
pub const WINDOW_S: f64 = 0.1;
/// Windows per block; each block also times one more set-up.
pub const WINDOWS: usize = 10;

/// Options shared by every workload run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    pub seed: u64,
    /// Measurement window in seconds.
    pub seconds: f64,
    /// Flip one bit of one bit-exactness reference, so a run must
    /// report a failure (the benchmark's self-test of its checker).
    pub corrupt_reference: bool,
}

/// SplitMix64: a tiny seeded generator, so inputs depend only on
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The paper's design point: windowed integer DCT, window size 16.
pub fn compressor() -> Compressor {
    Compressor::new(Variant::IntDctW { ws: 16 })
}

/// A builtin registry device's gate library, recalibrated with a seed
/// derived from the workload seed (same seed, same library), with a
/// bit-exact reference decode per gate.
pub struct Library {
    /// Gate ids in sorted order.
    pub gates: Vec<GateId>,
    pub waveforms: Vec<Waveform>,
    pub refs: Vec<Reference>,
    /// Waveform samples per channel over the whole library.
    pub total_samples: usize,
}

impl Library {
    pub fn build(device: &str, seed: u64) -> Library {
        let mut spec = Registry::builtin()
            .get(device)
            .unwrap_or_else(|| panic!("no builtin device {device}"))
            .clone();
        spec.seed ^= Rng::new(seed).next_u64();
        let library = spec.build_library();
        let compressor = compressor();
        let (mut gates, mut waveforms, mut refs) = (Vec::new(), Vec::new(), Vec::new());
        for (gate, wf) in library.iter_sorted() {
            // The allocating encoder, so the reference shares no scratch
            // with the `compress_into` path under test.
            let z = compressor.compress(wf).expect("library waveforms compress");
            refs.push(Reference::decode(&z));
            gates.push(gate.clone());
            waveforms.push(wf.clone());
        }
        Library { gates, waveforms, refs, total_samples: library.total_samples() }
    }

    /// Encodes every gate with `compress_into` and inserts it into
    /// `store`; returns each gate's encode + insert span.
    pub fn compile_into(&self, store: &Store) -> Samples {
        let compressor = compressor();
        let mut enc = EncodeScratch::new();
        let mut spans = Samples::with_capacity(self.gates.len());
        for (gate, wf) in self.gates.iter().zip(&self.waveforms) {
            let started = Instant::now();
            let mut z = CompressedWaveform::empty();
            compressor.compress_into(wf, &mut enc, &mut z).expect("library waveforms compress");
            store.insert(gate.clone(), z).expect("design-point streams insert");
            spans.push(started, Instant::now());
        }
        spans
    }
}

/// A decoded waveform to compare served samples against, bit for bit.
#[derive(Debug, Clone)]
pub struct Reference {
    pub i: Vec<f64>,
    pub q: Vec<f64>,
}

impl Reference {
    /// Decodes `z` directly with a fresh engine — outside every layer
    /// under test except the codec itself.
    pub fn decode(z: &CompressedWaveform) -> Reference {
        let engine = DecompressionEngine::for_variant(z.variant).expect("design-point variant");
        let (mut i, mut q) = (Vec::new(), Vec::new());
        engine
            .decompress_into(z, &mut DecodeScratch::new(), &mut i, &mut q)
            .expect("a freshly compressed stream decodes");
        Reference { i, q }
    }

    pub fn matches(&self, i: &[f64], q: &[f64]) -> bool {
        bits_equal(&self.i, i) && bits_equal(&self.q, q)
    }

    /// Flips the lowest mantissa bit of the first I sample.
    pub fn corrupt(&mut self) {
        if let Some(x) = self.i.first_mut() {
            *x = f64::from_bits(x.to_bits() ^ 1);
        }
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Nanosecond latency samples of one kind of operation.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn with_capacity(n: usize) -> Self {
        Samples { ns: Vec::with_capacity(n), sorted: true }
    }

    pub fn push(&mut self, started: Instant, ended: Instant) {
        self.ns.push(ended.duration_since(started).as_nanos() as u64);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Nearest-rank quantile in nanoseconds (`q` in (0, 1]).
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        assert!(!self.ns.is_empty(), "quantile of an empty sample set");
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64
    }

    pub fn median_ns(&mut self) -> f64 {
        self.quantile_ns(0.5)
    }
}

/// The `q` quantile of plain values, interpolating between order
/// statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// How far from a run's best windows a window may be and still count as
/// the host's fast state; the two states are about 1.45 times apart.
const FAST_STATE_TOLERANCE: f64 = 1.15;

/// The windows in the host's fast state: those whose median fetch is
/// within [`FAST_STATE_TOLERANCE`] of the best 2% of windows. Every
/// fetch and recalibration figure is taken over these windows alone, so
/// it does not depend on how much of the run the host spent in each
/// state; they are many, so it is not a best-case outlier either. A run
/// that never sees the fast state reports the loaded one.
pub fn fast_windows(fetch_p50: &[f64]) -> Vec<usize> {
    let best = quantile(fetch_p50, 0.02);
    (0..fetch_p50.len()).filter(|&k| fetch_p50[k] <= best * FAST_STATE_TOLERANCE).collect()
}

/// A run's figure in the host's fast state from per-block values, as
/// [`fast_windows`] picks windows: the median of the values within
/// [`FAST_STATE_TOLERANCE`] of the best 2% of them.
pub fn fast_state(values: &[f64], lower_is_better: bool) -> f64 {
    let kept: Vec<f64> = if lower_is_better {
        let best = quantile(values, 0.02);
        values.iter().copied().filter(|&v| v <= best * FAST_STATE_TOLERANCE).collect()
    } else {
        let best = quantile(values, 0.98);
        values.iter().copied().filter(|&v| v >= best / FAST_STATE_TOLERANCE).collect()
    };
    median(&kept)
}

/// One named, unit-carrying number in a run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: operation counts for the correctness verdict,
/// its metrics, and human-readable context lines (sample counts).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Folds another workload's traced outcome into this one.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.metrics.extend(other.metrics);
        self.notes.extend(other.notes);
    }
}

/// One window of a block. Every workload fills the same fields, so
/// every run prints the same metric names; the README says what
/// "fetch" and "recal" are on each workload.
#[derive(Debug, Default)]
pub struct Window {
    /// One gate fetched and decoded into caller memory.
    pub fetch: Samples,
    /// One gate recalibrated: encoded and published.
    pub recal: Samples,
    /// Decoded output samples (both channels), as the engine counts them.
    pub output_samples: u64,
    /// Wall time of the window's fetches.
    pub secs: f64,
}

/// What one measured block of a workload produced: its windows and the
/// time to compile its whole gate library.
#[derive(Debug, Default)]
pub struct Block {
    pub windows: Vec<Window>,
    pub compile_s: f64,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs `block` back to back for `seconds` (at least once), passing it
/// the length of each of its [`WINDOWS`] fetch windows.
pub fn blocks(seconds: f64, mut block: impl FnMut(f64) -> Block) -> Vec<Block> {
    let window_s = WINDOW_S.min(seconds / WINDOWS as f64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut out = Vec::new();
    loop {
        out.push(block(window_s));
        if Instant::now() >= deadline {
            return out;
        }
    }
}

/// Alternates untraced (`false`) and traced (`true`) windows for
/// `seconds`, at least one pair, so a burst of host contention hits
/// both kinds alike and their difference is the tracing overhead.
pub fn alternate(seconds: f64, mut window: impl FnMut(f64, bool)) {
    let window_s = WINDOW_S.min(seconds / 4.0);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    loop {
        window(window_s, false);
        window(window_s, true);
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// The end-to-end figures of an untraced run.
pub struct E2e {
    pub blocks: Vec<Block>,
    /// Serialized compressed bytes per waveform sample (per channel).
    pub bytes_per_sample: f64,
    /// Every set-up time of the run; `setup_s` is their median.
    pub setups: Vec<f64>,
}

impl E2e {
    pub fn into_outcome(self) -> Outcome {
        let blocks = self.blocks.len();
        let compile: Vec<f64> = self.blocks.iter().map(|b| b.compile_s).collect();
        let attempted = self.blocks.iter().map(|b| b.attempted).sum::<u64>();
        let failed = self.blocks.iter().map(|b| b.failed).sum::<u64>();
        let mut windows: Vec<Window> = self.blocks.into_iter().flat_map(|b| b.windows).collect();
        let fetches = windows.iter().map(|w| w.fetch.len()).sum::<usize>();
        let fetch_min = windows.iter().map(|w| w.fetch.len()).min().unwrap_or(0);

        let fetch_p50: Vec<f64> = windows.iter_mut().map(|w| w.fetch.median_ns() / 1e3).collect();
        let fast = fast_windows(&fetch_p50);
        let mut over_fast = |f: &dyn Fn(&mut Window) -> f64| {
            median(&fast.iter().map(|&k| f(&mut windows[k])).collect::<Vec<f64>>())
        };
        let fetch_p50_us = over_fast(&|w| w.fetch.median_ns() / 1e3);
        let fetch_p99_us = over_fast(&|w| w.fetch.quantile_ns(0.99) / 1e3);
        let fetch_rate = over_fast(&|w| w.fetch.len() as f64 / w.secs);
        let sample_rate = over_fast(&|w| w.output_samples as f64 / w.secs);
        // Recalibrations are pooled: a window of the open-loop writer
        // holds too few for a 99th percentile. A run whose fast windows
        // hold none pools them all.
        let mut recal = Samples::default();
        fast.iter().for_each(|&k| recal.extend(&windows[k].recal));
        if recal.len() == 0 {
            windows.iter().for_each(|w| recal.extend(&w.recal));
        }

        let mut out = Outcome { attempted, failed, ..Outcome::default() };
        out.metric("fetch_p50_us", fetch_p50_us, "us");
        out.metric("fetch_p99_us", fetch_p99_us, "us");
        out.metric("fetches_per_s", fetch_rate, "1/s");
        out.metric("samples_per_s", sample_rate, "1/s");
        out.metric("recal_p50_us", recal.median_ns() / 1e3, "us");
        out.metric("recal_p99_us", recal.quantile_ns(0.99) / 1e3, "us");
        out.metric("compile_s", fast_state(&compile, true), "s");
        out.metric("bytes_per_sample", self.bytes_per_sample, "B/sample");
        out.metric("setup_s", median(&self.setups), "s");
        out.metric("peak_rss_mb", peak_rss_mb(), "MB");
        out.note(format!(
            "{blocks} blocks, {} windows, {} of them in the host's fast state by their median \
             fetch",
            fetch_p50.len(),
            fast.len()
        ));
        out.note(format!(
            "fetch figures: medians over the fast windows of per-window values from n={fetches} \
             fetches (at least {fetch_min} per window)"
        ));
        out.note(format!(
            "recal percentiles over n={} recalibrations of the fast windows; compile_s over the \
             fast-state blocks",
            recal.len()
        ));
        out.note(format!("setup_s is the median of n={} set-ups", self.setups.len()));
        out.note(format!(
            "failed_fraction = {} ({failed} of {attempted} operations)",
            failed as f64 / attempted.max(1) as f64,
        ));
        out
    }
}

/// Runs `setup` [`SETUPS`] times, tearing each previous result down
/// before the next begins, and returns the last result with every
/// set-up time.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut kept: Option<T> = None;
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        drop(kept.take());
        let started = Instant::now();
        kept = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (kept.expect("at least one set-up"), times)
}

/// Times one more set-up, torn down outside the timed span. Workloads
/// take one after each block, so `setup_s` samples the whole window
/// rather than its first moments.
pub fn time_setup<T>(setup: impl FnOnce() -> T) -> f64 {
    let started = Instant::now();
    let built = setup();
    let secs = started.elapsed().as_secs_f64();
    drop(built);
    secs
}

#[cfg(target_os = "linux")]
#[repr(C)]
struct RUsage {
    utime: [std::ffi::c_long; 2],
    stime: [std::ffi::c_long; 2],
    maxrss: std::ffi::c_long,
    rest: [std::ffi::c_long; 13],
}

#[cfg(target_os = "linux")]
extern "C" {
    fn setpriority(
        which: std::ffi::c_int,
        who: std::ffi::c_uint,
        prio: std::ffi::c_int,
    ) -> std::ffi::c_int;
    fn getrusage(who: std::ffi::c_int, usage: *mut RUsage) -> std::ffi::c_int;
    fn sched_getaffinity(pid: std::ffi::c_int, size: usize, mask: *mut u64) -> std::ffi::c_int;
    fn sched_setaffinity(pid: std::ffi::c_int, size: usize, mask: *const u64) -> std::ffi::c_int;
}

/// Linux's `cpu_set_t`: a 1024-bit CPU mask.
#[cfg(target_os = "linux")]
type CpuSet = [u64; 16];

/// Sets the calling thread's CPU mask (pid 0 is the calling thread).
#[cfg(target_os = "linux")]
fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is a live, readable `cpu_set_t`-sized buffer and
    // the size passed is its size; the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// Pins the calling thread, and every thread it spawns while pinned, to
/// the first CPU it may run on; restores its CPU mask when dropped.
pub struct OneCpu {
    #[cfg(target_os = "linux")]
    saved: CpuSet,
}

impl OneCpu {
    #[cfg(target_os = "linux")]
    pub fn pin() -> OneCpu {
        let mut saved: CpuSet = [0; 16];
        // SAFETY: `saved` is a live, writable `cpu_set_t`-sized buffer
        // and the size passed is its size; the call writes only within
        // it.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), saved.as_mut_ptr()) };
        assert_eq!(rc, 0, "sched_getaffinity failed");
        let word = saved.iter().position(|w| *w != 0).expect("a thread may run on some CPU");
        let mut one: CpuSet = [0; 16];
        one[word] = saved[word] & saved[word].wrapping_neg();
        assert!(set_affinity(&one), "sched_setaffinity failed");
        OneCpu { saved }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin() -> OneCpu {
        OneCpu {}
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        let _ = set_affinity(&self.saved);
    }
}

/// Nice value of a thread that should yield to the run's others.
const LOW_PRIORITY_NICE: std::ffi::c_int = 5;

/// Lowers the calling thread's scheduling priority (on Linux the nice
/// value belongs to the thread, and `who = 0` names the caller). Any
/// thread may lower its own priority.
#[cfg(target_os = "linux")]
pub fn lower_priority() {
    // SAFETY: plain integer arguments; PRIO_PROCESS (0) with who = 0
    // changes only the calling thread's nice value.
    let rc = unsafe { setpriority(0, 0, LOW_PRIORITY_NICE) };
    assert_eq!(rc, 0, "setpriority failed");
}

#[cfg(not(target_os = "linux"))]
pub fn lower_priority() {}

/// Peak resident set size of this process in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss: 0, rest: [0; 13] };
    // SAFETY: `usage` is a live, writable value laid out as Linux's
    // `struct rusage` (two `struct timeval`s of two longs each, then
    // fourteen longs), and RUSAGE_SELF (0) is a valid `who`; the call
    // writes only within that struct.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    panic!("peak RSS is read with Linux getrusage; this platform is unsupported")
}
