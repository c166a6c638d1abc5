//! `recal_store`: writes beside reads on an in-process `Store` holding
//! the 433-qubit heavy-hex library, whose working set is far larger
//! than the hot set. One reader thread runs a closed loop of
//! `fetch_cached` over a seeded Zipf gate stream; one writer thread
//! recalibrates seeded gates at a fixed rate (open loop). Both run on
//! one CPU, so a lock holder is never stalled by the host pausing its
//! vCPU. Stresses the hot set's hit/miss/evict/republish path, decode
//! on misses and encode; bypasses the wire and the container.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use compaqt::core::compress::CompressedWaveform;
use compaqt::core::engine::EncodeScratch;
use compaqt::core::store::{Store, StoreConfig};
use compaqt::io::write_store;
use compaqt::obs::TraceRing;
use compaqt::pulse::library::GateKind;
use compaqt::pulse::waveform::Waveform;

use crate::common::{
    alternate, blocks, compressor, lower_priority, median, repeated_setup, time_setup, Block, E2e,
    Library, OneCpu, Opts, Outcome, Reference, Rng, Samples, Window, WINDOWS,
};

const DEVICE: &str = "hex-433";
/// Zipf exponent of the read stream's gate popularity.
const ZIPF_S: f64 = 1.0;
/// Hot-set size: puts the hit rate between 0.5 and 0.9 at `ZIPF_S`,
/// so the median fetch is a hit and the 99th percentile a miss.
const HOT_CAPACITY: usize = 384;
/// Precomputed read-stream length (the reader cycles through it).
const STREAM_LEN: usize = 1 << 20;
/// Recalibrations per second of the open-loop writer: a one-second
/// block holds 250, so its 99th percentile is the third slowest, while
/// the writer takes the reader's CPU for about one fetch in 500.
const RECAL_RATE: f64 = 250.0;

struct Setup {
    store: Arc<Store>,
    /// Lifetime count of store trace events (evictions and
    /// recalibration publishes).
    ring: Arc<TraceRing>,
    lib: Library,
    /// Read stream: indices into `lib.gates`.
    stream: Vec<u32>,
    /// Writer's sequence of gates to recalibrate.
    recal_order: Vec<u32>,
    bytes_per_sample: f64,
}

fn setup(opts: &Opts) -> Setup {
    let lib = Library::build(DEVICE, opts.seed);
    let store =
        Arc::new(Store::new(StoreConfig { hot_capacity: HOT_CAPACITY, ..StoreConfig::default() }));
    let ring = Arc::new(TraceRing::new(64));
    store.attach_trace(Arc::clone(&ring));
    lib.compile_into(&store);
    let container = write_store(&store).expect("the library serializes");
    let bytes_per_sample = container.len() as f64 / lib.total_samples as f64;

    // Zipf popularity over the gates, most popular first. The ranks
    // interleave the gate kinds in proportion to their counts, so the
    // pulse-length mix at each rank (and with it the decode cost of a
    // miss) is the same for every seed; the seed decides which gate of
    // a kind holds each rank.
    let mut rng = Rng::new(opts.seed ^ 0x2E3D_5A11);
    let n = lib.gates.len();
    let mut by_kind: BTreeMap<&GateKind, Vec<u32>> = BTreeMap::new();
    for (k, gate) in lib.gates.iter().enumerate() {
        by_kind.entry(&gate.kind).or_default().push(k as u32);
    }
    let mut ranked: Vec<(f64, u32)> = Vec::with_capacity(n);
    for members in by_kind.values_mut() {
        for k in (1..members.len()).rev() {
            members.swap(k, rng.below(k + 1));
        }
        let m = members.len() as f64;
        ranked.extend(members.iter().enumerate().map(|(j, &g)| ((j as f64 + 0.5) / m, g)));
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let perm: Vec<u32> = ranked.into_iter().map(|(_, g)| g).collect();
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for rank in 1..=n {
        acc += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(acc);
    }
    let stream = (0..STREAM_LEN)
        .map(|_| {
            let u = rng.unit() * acc;
            perm[cdf.partition_point(|&c| c < u).min(n - 1)]
        })
        .collect();
    let recal_order = (0..(RECAL_RATE * 120.0) as usize).map(|_| rng.below(n) as u32).collect();
    Setup { store, ring, lib, stream, recal_order, bytes_per_sample }
}

/// A recalibrated copy of a gate's waveform: the original scaled by a
/// version-dependent factor, so every calibration decodes differently.
fn rescaled(wf: &Waveform, version: u32) -> Waveform {
    let f = 1.0 - 0.01 * f64::from(1 + version % 16);
    let scale = |v: &[f64]| v.iter().map(|x| x * f).collect::<Vec<f64>>();
    Waveform::new(wf.name(), scale(wf.i()), scale(wf.q()), wf.sample_rate_gs())
}

/// What a window produced beyond its end-to-end block. The span sets
/// stay empty when untraced.
#[derive(Default)]
struct Layers {
    hit: Samples,
    miss: Samples,
    encode: Samples,
    insert: Samples,
    /// Writer: due time to start.
    lateness: Samples,
    hits: u64,
    misses: u64,
}

impl Layers {
    fn absorb(&mut self, other: &Layers) {
        self.hit.extend(&other.hit);
        self.miss.extend(&other.miss);
        self.encode.extend(&other.encode);
        self.insert.extend(&other.insert);
        self.lateness.extend(&other.lateness);
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Where the writer is in its schedule, carried across windows.
#[derive(Default)]
struct WriterState {
    next: usize,
    versions: HashMap<u32, u32>,
    /// Last calibration published per gate, for the never-stale check.
    last: HashMap<u32, CompressedWaveform>,
}

/// The writer's side of a block: recalibrations due every
/// `1 / RECAL_RATE` seconds for `windows` windows of `window_s` (open
/// loop), each filed under the window it was due in. Each is timed
/// from its start to published; how late it started is the generator's
/// lateness, kept apart because the store queues no writes.
fn write(
    s: &Setup,
    w: &mut WriterState,
    started: Instant,
    window_s: f64,
    windows: usize,
    traced: bool,
) -> (Block, Layers) {
    let compressor = compressor();
    let mut enc = EncodeScratch::new();
    let mut z = CompressedWaveform::empty();
    let (mut b, mut x) = (Block::default(), Layers::default());
    b.windows.resize_with(windows, Window::default);
    let deadline = started + Duration::from_secs_f64(window_s * windows as f64);
    let period = Duration::from_secs_f64(1.0 / RECAL_RATE);
    let mut due = started + period;
    while due < deadline {
        let g = s.recal_order[w.next % s.recal_order.len()];
        w.next += 1;
        let version = w.versions.entry(g).or_insert(0);
        *version += 1;
        let wf = rescaled(&s.lib.waveforms[g as usize], *version);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let t0 = Instant::now();
        let encoded = compressor.compress_into(&wf, &mut enc, &mut z);
        let t1 = Instant::now();
        let inserted =
            encoded.and_then(|_| s.store.insert(s.lib.gates[g as usize].clone(), z.clone()));
        let t2 = Instant::now();
        b.attempted += 1;
        match inserted {
            Ok(()) => {
                let k = ((due - started).as_secs_f64() / window_s) as usize;
                b.windows[k.min(windows - 1)].recal.push(t0, t2);
                x.lateness.push(due, t0);
                if traced {
                    x.encode.push(t0, t1);
                    x.insert.push(t1, t2);
                }
                w.last.insert(g, z.clone());
            }
            Err(_) => b.failed += 1,
        }
        due += period;
    }
    (b, x)
}

/// The reader's side of a block: a closed loop of `fetch_cached` over
/// the read stream for `windows` windows of `window_s`.
fn read(
    s: &Setup,
    started: Instant,
    window_s: f64,
    windows: usize,
    pos: &mut usize,
    traced: bool,
) -> (Block, Layers) {
    let mut b = Block::default();
    let mut x = Layers::default();
    let mut hits = s.store.stats().hot_hits;
    for k in 1..=windows {
        let window_started = Instant::now();
        let window_end = started + Duration::from_secs_f64(window_s * k as f64);
        let mut win = Window {
            fetch: Samples::with_capacity((window_s * 300_000.0) as usize),
            ..Window::default()
        };
        loop {
            let g = s.stream[*pos] as usize;
            *pos = (*pos + 1) % s.stream.len();
            let t0 = Instant::now();
            let result = s.store.fetch_cached(&s.lib.gates[g]);
            let t1 = Instant::now();
            b.attempted += 1;
            match result {
                Ok(wf) => {
                    win.fetch.push(t0, t1);
                    win.output_samples += 2 * wf.len() as u64;
                    if traced {
                        let now_hits = s.store.stats().hot_hits;
                        if now_hits > hits {
                            x.hit.push(t0, t1);
                        } else {
                            x.miss.push(t0, t1);
                        }
                        hits = now_hits;
                    }
                }
                Err(_) => b.failed += 1,
            }
            if t1 >= window_end {
                win.secs = (t1 - window_started).as_secs_f64();
                break;
            }
        }
        b.windows.push(win);
    }
    (b, x)
}

/// `windows` fetch windows of `window_s` each: the reader on a thread
/// of its own at a lower scheduling priority, the writer on this one
/// for the whole span. Both share one CPU (the run is pinned), so a
/// recalibration that waits on a shard lock the reader holds resumes
/// as soon as the lock is released, not when the reader's time slice
/// ends.
fn measure(
    s: &Setup,
    w: &mut WriterState,
    window_s: f64,
    windows: usize,
    pos: &mut usize,
    traced: bool,
) -> (Block, Layers) {
    let started = Instant::now();
    let before = s.store.stats();
    let ((mut b, mut x), (wrote, wrote_x)) = thread::scope(|scope| {
        let reader = scope.spawn(|| {
            lower_priority();
            read(s, started, window_s, windows, pos, traced)
        });
        let wrote = write(s, w, started, window_s, windows, traced);
        (reader.join().expect("reader thread"), wrote)
    });
    let after = s.store.stats();
    x.hits = after.hot_hits - before.hot_hits;
    x.misses = after.hot_misses - before.hot_misses;
    x.lateness = wrote_x.lateness;
    x.encode = wrote_x.encode;
    x.insert = wrote_x.insert;
    for (win, wrote) in b.windows.iter_mut().zip(wrote.windows) {
        win.recal = wrote.recal;
    }
    b.attempted += wrote.attempted;
    b.failed += wrote.failed;
    (b, x)
}

/// Never-stale check: every gate serves its last published calibration
/// through both fetch paths. Returns (checked, mismatched).
fn check_final(s: &Setup, w: &WriterState, corrupt: bool) -> (u64, u64) {
    let mut failed = 0;
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for (k, gate) in s.lib.gates.iter().enumerate() {
        let mut expected = match w.last.get(&(k as u32)) {
            Some(z) => Reference::decode(z),
            None => s.lib.refs[k].clone(),
        };
        if corrupt && k == 0 {
            expected.corrupt();
        }
        let cached_ok = s.store.fetch_cached(gate).is_ok_and(|wf| expected.matches(wf.i(), wf.q()));
        let streamed_ok =
            s.store.fetch_into(gate, &mut i, &mut q).is_ok() && expected.matches(&i, &q);
        if !(cached_ok && streamed_ok) {
            failed += 1;
        }
    }
    (s.lib.gates.len() as u64, failed)
}

fn hit_rate(x: &Layers) -> f64 {
    x.hits as f64 / (x.hits + x.misses).max(1) as f64
}

/// The untraced run: blocks of reads beside writes, each followed by a
/// compile of the library into a private store and one more timed
/// set-up; then the never-stale check.
pub fn run(opts: &Opts) -> Outcome {
    let _one_cpu = OneCpu::pin();
    let (s, mut setups) = repeated_setup(|| setup(opts));
    let mut writer = WriterState::default();
    let mut pos = 0;
    let mut layers = Layers::default();
    let blocks = blocks(opts.seconds, |window_s| {
        let (mut b, x) = measure(&s, &mut writer, window_s, WINDOWS, &mut pos, false);
        layers.absorb(&x);
        b.compile_s =
            s.lib.compile_into(&Store::new(StoreConfig::default())).total_ns() as f64 / 1e9;
        setups.push(time_setup(|| setup(opts)));
        b
    });
    let (checked, stale) = check_final(&s, &writer, opts.corrupt_reference);
    let mut out = E2e { blocks, bytes_per_sample: s.bytes_per_sample, setups }.into_outcome();
    out.attempted += checked;
    out.failed += stale;
    out.note(format!(
        "recal_store hit rate {:.4} (hot_capacity {HOT_CAPACITY}); {checked} gates checked \
         never-stale, {stale} stale",
        hit_rate(&layers)
    ));
    out
}

/// The traced run: untraced and traced windows alternate on the same
/// store, then the never-stale check.
pub fn run_traced(opts: &Opts) -> Outcome {
    let _one_cpu = OneCpu::pin();
    let s = setup(opts);
    let mut writer = WriterState::default();
    let mut pos = 0;
    let mut layers = Layers::default();
    let (mut plain_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut evictions, mut recals) = (0u64, 0u64, 0u64, 0usize);
    alternate(opts.seconds, |window_s, traced| {
        let events = s.ring.recorded();
        let (mut b, x) = measure(&s, &mut writer, window_s, 1, &mut pos, traced);
        attempted += b.attempted;
        failed += b.failed;
        if !traced {
            plain_p50.push(b.windows[0].fetch.median_ns());
            return;
        }
        // Every writer insert replaces a gate and publishes one event;
        // the rest are hot-set evictions.
        let published = b.windows[0].recal.len();
        evictions += s.ring.recorded() - events - published as u64;
        recals += published;
        traced_p50.push(b.windows[0].fetch.median_ns());
        layers.absorb(&x);
    });
    let (checked, stale) = check_final(&s, &writer, opts.corrupt_reference);
    let overhead = median(&traced_p50) / median(&plain_p50) - 1.0;
    let x = &mut layers;
    let mut out =
        Outcome { attempted: attempted + checked, failed: failed + stale, ..Outcome::default() };
    out.metric("recal_store.store.hit_ns", x.hit.median_ns(), "ns");
    out.metric("recal_store.store.miss_us", x.miss.median_ns() / 1e3, "us");
    out.metric("recal_store.store.hit_rate", hit_rate(x), "ratio");
    out.metric("recal_store.store.evictions", evictions as f64, "count");
    out.metric("recal_store.store.insert_us", x.insert.median_ns() / 1e3, "us");
    out.metric("recal_store.engine.encode_us", x.encode.median_ns() / 1e3, "us");
    out.metric("recal_store.recal.lateness_us", x.lateness.quantile_ns(0.99) / 1e3, "us");
    out.metric("recal_store.trace_overhead_pct", overhead * 100.0, "%");
    out.note(format!(
        "recal_store traced: n={} hits, n={} misses, n={recals} recalibrations in {} traced \
         windows (lateness is p99 over n={})",
        x.hit.len(),
        x.miss.len(),
        traced_p50.len(),
        x.lateness.len()
    ));
    out
}
