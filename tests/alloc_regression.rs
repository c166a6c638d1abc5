//! Allocation-count regression test for the steady-state codec loops.
//!
//! The tentpole guarantee of the plan/buffer-reuse architecture: once
//! scratches and output buffers are warm, *both* directions of the codec
//! run a whole pulse library with **zero heap allocations** — the code
//! behaves like the hardware pipeline it models (which has SRAMs, not a
//! malloc) on decode, and like a budgeted cryogenic host on encode. This
//! binary installs a counting global allocator and asserts the count is
//! exactly zero across repeated full-library decodes and repeated
//! full-library recompressions.
//!
//! (Run with `harness = false`: the libtest harness's main thread
//! lazily allocates its channel-wait context at whatever moment it
//! first blocks — on a loaded box that lands inside a measured region
//! and reads as a flaky nonzero count. A plain `main` owns the only
//! thread in the process, so the counter sees the codec and nothing
//! else.)

use compaqt::core::compress::{CompressedWaveform, Compressor, Variant};
use compaqt::core::engine::{DecodeScratch, DecompressionEngine, EncodeScratch};
use compaqt::pulse::device::Device;
use compaqt::pulse::vendor::Vendor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator, counting every alloc/realloc.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    if !selected_by_harness_args() {
        return;
    }
    steady_state_library_codec_allocates_nothing();
    println!("alloc_regression: all steady-state codec loops allocated nothing");
}

/// Minimal libtest CLI compatibility for a `harness = false` binary:
/// honors positional name filters, `--skip`, `--exact` and `--list`
/// (and ignores the other flags libtest accepts), so filtered runs like
/// `cargo test --workspace store::` and IDE `--list` discovery behave
/// as they would under the default harness instead of unconditionally
/// running the whole suite.
fn selected_by_harness_args() -> bool {
    const NAME: &str = "steady_state_library_codec_allocates_nothing";
    /// Flags whose value arrives as the next argument.
    const VALUE_FLAGS: &[&str] = &["--format", "--logfile", "--test-threads", "--color", "-Z"];
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut filters: Vec<String> = Vec::new();
    let mut skips: Vec<String> = Vec::new();
    let mut exact = false;
    let mut list = false;
    let mut k = 0;
    while k < args.len() {
        let arg = args[k].as_str();
        match arg {
            "--list" => list = true,
            "--exact" => exact = true,
            "--skip" => {
                if let Some(v) = args.get(k + 1) {
                    skips.push(v.clone());
                    k += 1;
                }
            }
            _ if VALUE_FLAGS.contains(&arg) => k += 1, // consume the value
            _ if arg.starts_with("--skip=") => skips.push(arg["--skip=".len()..].to_string()),
            _ if arg.starts_with('-') => {}
            _ => filters.push(arg.to_string()),
        }
        k += 1;
    }
    if list {
        println!("{NAME}: test");
        println!();
        println!("1 test, 0 benchmarks");
        return false;
    }
    let matches = |pat: &str| if exact { pat == NAME } else { NAME.contains(pat) };
    if skips.iter().any(|p| matches(p)) {
        return false;
    }
    filters.is_empty() || filters.iter().any(|p| matches(p))
}

fn steady_state_library_codec_allocates_nothing() {
    // A realistic library: every gate of a 5-qubit synthetic machine,
    // compressed with the paper's design point (int-DCT-W, WS=16).
    let device = Device::synthesize(Vendor::Ibm, 5, 0xA110C);
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let waveforms: Vec<_> = lib.iter().map(|(_, wf)| wf.clone()).collect();
    assert!(waveforms.len() >= 20, "library should be non-trivial");

    // ---- Encode side: recompress the library into reused output slots.
    let mut enc = EncodeScratch::new();
    let mut slots: Vec<CompressedWaveform> =
        waveforms.iter().map(|_| CompressedWaveform::empty()).collect();

    // Warm-up: two full passes size every scratch buffer, cached plan and
    // per-slot output buffer.
    for _ in 0..2 {
        for (wf, slot) in waveforms.iter().zip(&mut slots) {
            compressor.compress_into(wf, &mut enc, slot).unwrap();
        }
    }

    // Steady state: ten more full-library recompressions, zero allocations
    // (a calibration cycle re-running on fresh calibration data).
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut words = 0usize;
    for _ in 0..10 {
        for (wf, slot) in waveforms.iter().zip(&mut slots) {
            compressor.compress_into(wf, &mut enc, slot).unwrap();
            words += slot.words();
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(words > 0);
    assert_eq!(
        delta,
        0,
        "steady-state compression of {} waveforms x 10 passes must not allocate, saw {delta}",
        waveforms.len()
    );

    // ---- Encode side, shared slot: one output reused across *every*
    // waveform (mixed window counts). The scratch's spare-window pool
    // must preserve inner capacities as the slot shrinks and regrows.
    let mut shared = CompressedWaveform::empty();
    for _ in 0..2 {
        for wf in &waveforms {
            compressor.compress_into(wf, &mut enc, &mut shared).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..10 {
        for wf in &waveforms {
            compressor.compress_into(wf, &mut enc, &mut shared).unwrap();
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        delta, 0,
        "shared-slot compression across mixed-size waveforms must not allocate, saw {delta}"
    );

    // ---- Adaptive encode: flat-top waveforms re-encoded into reused
    // `AdaptiveCompressed` slots. The segment layout (head ramp /
    // plateau / tail ramp) is stable across refills, so every ramp
    // stream and the segment list itself must be reused — the adaptive
    // path inherits the same zero-allocation guarantee as the plain
    // windowed encoder it wraps.
    use compaqt::core::adaptive::{AdaptiveCompressed, AdaptiveCompressor};
    use compaqt::pulse::shapes::{GaussianSquare, PulseShape};
    let flat_tops: Vec<_> = (0..8)
        .map(|k| {
            GaussianSquare::new(454 + 16 * k, 0.3 + 0.02 * k as f64, 12.0, 300 + 8 * k)
                .to_waveform("flat", 4.54)
        })
        .collect();
    let adaptive = AdaptiveCompressor::new(Variant::IntDctW { ws: 16 });
    let mut aslots: Vec<AdaptiveCompressed> =
        flat_tops.iter().map(|_| AdaptiveCompressed::empty()).collect();
    for _ in 0..2 {
        for (wf, slot) in flat_tops.iter().zip(&mut aslots) {
            adaptive.compress_into(wf, &mut enc, slot).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut plateau_samples = 0usize;
    for _ in 0..10 {
        for (wf, slot) in flat_tops.iter().zip(&mut aslots) {
            adaptive.compress_into(wf, &mut enc, slot).unwrap();
            plateau_samples += (slot.bypass_fraction() * slot.n_samples as f64) as usize;
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(plateau_samples > 0);
    assert_eq!(
        delta,
        0,
        "steady-state adaptive compression of {} flat-tops x 10 passes must not allocate, saw {delta}",
        flat_tops.len()
    );

    // ---- Factorized forward kernel: the butterfly path that now backs
    // every integer encode must itself be allocation-free in steady
    // state — plan construction (matrix + butterfly tables) is the one
    // allowed allocation, per window size, paid exactly once. Both
    // kernels run so the matrix oracle inherits the same guarantee.
    use compaqt::dsp::fixed::Q15;
    use compaqt::dsp::intdct::IntDct;
    let int_plans: Vec<IntDct> =
        compaqt::dsp::intdct::SUPPORTED_SIZES.iter().map(|&ws| IntDct::new(ws).unwrap()).collect();
    let max_ws = *compaqt::dsp::intdct::SUPPORTED_SIZES.iter().max().unwrap();
    let window: Vec<Q15> =
        (0..max_ws).map(|i| Q15::from_f64(0.7 * ((i as f64) * 0.37).sin())).collect();
    let mut coeffs = vec![0i32; max_ws];
    let mut restored = vec![Q15::ZERO; max_ws];
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut acc = 0i64;
    for _ in 0..100 {
        for plan in &int_plans {
            let ws = plan.len();
            plan.forward_into(&window[..ws], &mut coeffs[..ws]);
            acc += i64::from(coeffs[0]);
            plan.forward_matrix_into(&window[..ws], &mut coeffs[..ws]);
            plan.inverse_into(&coeffs[..ws], &mut restored[..ws]);
            acc += i64::from(restored[ws - 1].raw());
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(acc != 0);
    assert_eq!(
        delta, 0,
        "factorized forward reuse across all window sizes must not allocate, saw {delta}"
    );

    // ---- Decode side: stream the compressed library back out.
    let engine = DecompressionEngine::for_variant(Variant::IntDctW { ws: 16 }).unwrap();
    let mut scratch = DecodeScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());

    // Warm-up: two full passes size every reusable buffer.
    let mut warm_samples = 0usize;
    for _ in 0..2 {
        for z in &slots {
            let stats = engine.decompress_into(z, &mut scratch, &mut i, &mut q).unwrap();
            warm_samples += stats.output_samples;
        }
    }
    assert!(warm_samples > 0);

    // Steady state: ten more full-library decodes, zero allocations.
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut checksum = 0.0f64;
    for _ in 0..10 {
        for z in &slots {
            engine.decompress_into(z, &mut scratch, &mut i, &mut q).unwrap();
            checksum += i[0] + q[z.n_samples - 1];
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(checksum.is_finite());
    assert_eq!(
        delta,
        0,
        "steady-state decode of {} waveforms x 10 passes must not allocate, saw {delta}",
        slots.len()
    );

    // ---- Dense decode: `sycamore-53`'s library is the fleet's densest
    // at WS=16, with about half its channels storing at least half a
    // word per sample. Those windows carry many coefficient words each,
    // and the fused decode kernel must stay off the heap for them too.
    use compaqt::core::compress::ChannelData;
    let sycamore = compaqt::pulse::registry::Registry::builtin()
        .get("sycamore-53")
        .expect("a builtin fleet device")
        .build_library();
    let dense: Vec<CompressedWaveform> =
        sycamore.iter().map(|(_, wf)| compressor.compress(wf).unwrap()).collect();
    let dense_channels = dense
        .iter()
        .flat_map(|z| [&z.i, &z.q])
        .filter(|c| match c {
            ChannelData::Windows(w) => 2 * w.iter().map(Vec::len).sum::<usize>() >= 16 * w.len(),
            _ => false,
        })
        .count();
    assert!(dense_channels > 0, "sycamore-53 must have channels at fill >= 1/2");
    for _ in 0..2 {
        for z in &dense {
            engine.decompress_into(z, &mut scratch, &mut i, &mut q).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut dense_samples = 0usize;
    for _ in 0..10 {
        for z in &dense {
            dense_samples +=
                engine.decompress_into(z, &mut scratch, &mut i, &mut q).unwrap().output_samples;
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(dense_samples > 0);
    assert_eq!(
        delta,
        0,
        "steady-state decode of sycamore-53 ({} waveforms, {dense_channels} dense channels) x 10 passes must not allocate, saw {delta}",
        dense.len()
    );

    // ---- Serving path: steady-state store fetches allocate nothing.
    // The sharded store adds lock acquisition, the map lookup, the
    // thread-local scratch and counter updates around the same decode —
    // all of which must stay off the heap. `hot_capacity` is a *global*
    // bound, so sizing it at exactly the library keeps every gate
    // cached even if all of them hash to one shard — steady-state
    // `fetch_cached` is pure hits.
    use compaqt::core::store::{Store, StoreConfig};
    let store = Store::from_library_with(
        &lib,
        &compressor,
        StoreConfig { shards: 4, hot_capacity: waveforms.len() },
    )
    .unwrap();
    let gates = store.gates();

    // Warm-up: size the output buffers, build this thread's scratch, fill
    // every hot-set slot.
    for _ in 0..2 {
        for gate in &gates {
            store.fetch_into(gate, &mut i, &mut q).unwrap();
            let cached = store.fetch_cached(gate).unwrap();
            assert!(!cached.i().is_empty());
        }
    }

    // Steady state: ten passes of streaming fetches + hot-cache fetches
    // over the whole library, zero allocations (the runtime serving
    // loop: control hardware pulling one gate at a time).
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut served = 0usize;
    for _ in 0..10 {
        for gate in &gates {
            let stats = store.fetch_into(gate, &mut i, &mut q).unwrap();
            served += stats.output_samples;
            let cached = store.fetch_cached(gate).unwrap();
            served += cached.len();
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(served > 0);
    let stats = store.stats();
    assert_eq!(stats.hot_misses as usize, gates.len(), "warmed hot set must only hit");
    assert_eq!(
        delta,
        0,
        "steady-state store fetches across {} gates x 10 passes must not allocate, saw {delta}",
        gates.len()
    );

    // ---- Hot hits in isolation: a `fetch_cached` hit is the shard read
    // lock, one map lookup, a recency stamp and an `Arc` refcount bump
    // — no decode and, pinned here, no heap. (The
    // mixed loop above interleaves `fetch_into`; this loop is *pure*
    // hit traffic, the path the contention bench scales across cores.)
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut hit_samples = 0usize;
    for _ in 0..10 {
        for gate in &gates {
            hit_samples += store.fetch_cached(gate).unwrap().len();
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(hit_samples > 0);
    assert_eq!(
        delta,
        0,
        "pure hot-hit traffic across {} gates x 10 passes must not allocate, saw {delta}",
        gates.len()
    );

    // ---- Batched serving: `fetch_many` acquires each shard lock once
    // per batch and runs the whole gate list through one scratch;
    // with reused output buffer pairs the steady-state batch allocates
    // nothing.
    let mut outs: Vec<(Vec<f64>, Vec<f64>)> = gates.iter().map(|_| Default::default()).collect();
    for _ in 0..2 {
        store.fetch_many(&gates, &mut outs).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut batch_samples = 0usize;
    for _ in 0..10 {
        let stats = store.fetch_many(&gates, &mut outs).unwrap();
        batch_samples += stats.output_samples;
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(batch_samples > 0);
    assert_eq!(
        delta,
        0,
        "steady-state fetch_many over {} gates x 10 passes must not allocate, saw {delta}",
        gates.len()
    );

    // ---- Container serving: a library persisted to CWL bytes and
    // loaded back (`Reader::into_store`) must serve `fetch_into` with
    // zero steady-state allocations, exactly like the store it was
    // drained from — and the reader's own random-access decode path
    // (payload parse into a reused slot + engine decode through the
    // scratch) must be allocation-free too once warm.
    use compaqt::io::{write_store, ContainerScratch, Reader, ReaderOptions};
    let bytes = write_store(&store).unwrap();
    let reader = Reader::open(bytes.clone(), ReaderOptions::default()).unwrap();
    let mut cscratch = ContainerScratch::new();
    for _ in 0..2 {
        for gate in &gates {
            reader.fetch_into(gate, &mut cscratch, &mut i, &mut q).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut container_samples = 0usize;
    for _ in 0..10 {
        for gate in &gates {
            let stats = reader.fetch_into(gate, &mut cscratch, &mut i, &mut q).unwrap();
            container_samples += stats.output_samples;
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(container_samples > 0);
    assert_eq!(
        delta,
        0,
        "steady-state reader fetches across {} gates x 10 passes must not allocate, saw {delta}",
        gates.len()
    );

    let loaded = reader.into_store(compaqt::core::store::StoreConfig::default()).unwrap();
    for _ in 0..2 {
        for gate in &gates {
            loaded.fetch_into(gate, &mut i, &mut q).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut loaded_samples = 0usize;
    for _ in 0..10 {
        for gate in &gates {
            let stats = loaded.fetch_into(gate, &mut i, &mut q).unwrap();
            loaded_samples += stats.output_samples;
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(loaded_samples > 0);
    assert_eq!(
        delta,
        0,
        "container-loaded store fetches across {} gates x 10 passes must not allocate, saw {delta}",
        gates.len()
    );

    // ---- Lazy-CRC serving: in `LazyCrc` mode the per-entry verdict
    // bitmaps are preallocated at open, so a *first touch* — checksum
    // computed over the borrowed payload, verdict bit set with one
    // `fetch_or` — must not allocate either, and neither may the
    // cached-verdict hits every later touch takes. Buffers are warmed
    // through one lazy reader; a second, still-unjudged reader then
    // takes its first touches entirely inside the measured region.
    let warm_lazy = Reader::open(bytes.clone(), ReaderOptions::lazy_crc()).unwrap();
    let fresh_lazy = Reader::open(bytes.clone(), ReaderOptions::lazy_crc()).unwrap();
    for _ in 0..2 {
        for gate in &gates {
            warm_lazy.fetch_into(gate, &mut cscratch, &mut i, &mut q).unwrap();
        }
    }
    assert_eq!(warm_lazy.crc_checked(), gates.len(), "warm reader fully judged");
    assert_eq!(fresh_lazy.crc_checked(), 0, "fresh reader still unjudged");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut lazy_samples = 0usize;
    for pass in 0..10 {
        for gate in &gates {
            let stats = fresh_lazy.fetch_into(gate, &mut cscratch, &mut i, &mut q).unwrap();
            lazy_samples += stats.output_samples;
        }
        if pass == 0 {
            // Every entry was just first-touched with zero allocations.
            assert_eq!(fresh_lazy.crc_checked(), gates.len());
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(lazy_samples > 0);
    assert_eq!(
        delta,
        0,
        "lazy-CRC first touches + cached-verdict fetches across {} gates must not allocate, saw {delta}",
        gates.len()
    );

    // ---- Mixed-shape container serving: alternating entry variants
    // force the reader's reusable stream slot to switch `ChannelData`
    // shapes (Windows ↔ Delta/Raw) on every other fetch. The slot's
    // spare pools must park displaced buffers instead of dropping
    // their capacity, or this loop allocates on every fetch.
    let mut writer = compaqt::io::Writer::new();
    for (k, (gate, wf)) in lib.iter().enumerate() {
        let variant = if k % 2 == 0 { Variant::IntDctW { ws: 16 } } else { Variant::Delta };
        let z = Compressor::new(variant).compress(wf).unwrap();
        writer.add(gate, &z).unwrap();
    }
    let mixed = Reader::open(writer.finish().unwrap(), ReaderOptions::default()).unwrap();
    let mixed_gates: Vec<_> = mixed.gates().cloned().collect();
    let mut mscratch = ContainerScratch::new();
    for _ in 0..2 {
        for gate in &mixed_gates {
            mixed.fetch_into(gate, &mut mscratch, &mut i, &mut q).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut mixed_samples = 0usize;
    for _ in 0..10 {
        for gate in &mixed_gates {
            let stats = mixed.fetch_into(gate, &mut mscratch, &mut i, &mut q).unwrap();
            mixed_samples += stats.output_samples;
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(mixed_samples > 0);
    assert_eq!(
        delta,
        0,
        "mixed-shape container fetches across {} gates x 10 passes must not allocate, saw {delta}",
        mixed_gates.len()
    );

    // ---- Wire serving: the server's per-connection request→response
    // machine. `Responder` owns every reusable buffer the fetch path
    // needs (response frame, gate-id parse slots), so once warm,
    // answering Ping / FetchGate / same-shape FetchMany frames — frame
    // parse, CRC check, shard read lock, stream serialization, CRC
    // append — allocates nothing. This is exactly what each
    // `compaqt-serve` connection thread runs per request; only the
    // socket I/O around it is missing here.
    use compaqt::io::serve::{Responder, ServeConfig};
    use compaqt::io::wire::{encode_fetch_gate, encode_fetch_many, encode_ping};
    let requests: Vec<Vec<u8>> = {
        let mut out = bytes::BytesMut::new();
        let mut frames = Vec::new();
        encode_ping(&mut out, 0xD1A6);
        frames.push(out.as_ref().to_vec());
        for gate in &gates {
            encode_fetch_gate(&mut out, gate).unwrap();
            frames.push(out.as_ref().to_vec());
        }
        encode_fetch_many(&mut out, &gates).unwrap();
        frames.push(out.as_ref().to_vec());
        frames
    };
    let mut responder = Responder::new(&ServeConfig::default());
    for _ in 0..2 {
        for frame in &requests {
            responder.respond(&store, frame).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut response_bytes = 0usize;
    for _ in 0..10 {
        for frame in &requests {
            response_bytes += responder.respond(&store, frame).unwrap().len();
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(response_bytes > 0);
    assert_eq!(
        delta,
        0,
        "steady-state wire responses across {} requests x 10 passes must not allocate, saw {delta}",
        requests.len()
    );

    // ---- Wire reading: `read_frame` grows its buffer in bounded steps
    // as bytes land, but a warm buffer reading the same frames again
    // (requests, and the largest response: the whole-library batch)
    // must not allocate.
    use compaqt::io::wire::{read_frame, DEFAULT_MAX_FRAME_BYTES};
    let mut stream_bytes: Vec<u8> = requests.concat();
    stream_bytes.extend_from_slice(responder.respond(&store, requests.last().unwrap()).unwrap());
    let mut read_buf = Vec::new();
    // The server's default read timeout, so the per-frame clock runs.
    let frame_timeout = ServeConfig::default().read_timeout;
    let read_all = |read_buf: &mut Vec<u8>| {
        let mut stream = &stream_bytes[..];
        let mut frames = 0usize;
        while let compaqt::io::wire::FrameRead::Frame(_) =
            read_frame(&mut stream, read_buf, DEFAULT_MAX_FRAME_BYTES, frame_timeout).unwrap()
        {
            frames += 1;
        }
        frames
    };
    read_all(&mut read_buf);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut frames_read = 0usize;
    for _ in 0..10 {
        frames_read += read_all(&mut read_buf);
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(frames_read, 10 * (requests.len() + 1));
    assert_eq!(delta, 0, "steady-state frame reads must not allocate, saw {delta}");

    // ---- Wire serving straight from a container: the same responder,
    // answering from a lazily-validated `Reader` instead of a resident
    // `Store` through the `FetchSource` bridge. Streams are served
    // zero-parse (container payload bytes *are* wire stream bytes), so
    // once the verdict bits and frame buffers are warm this must be as
    // allocation-free as the store path — the larger-than-RAM serving
    // claim in one assertion.
    for _ in 0..2 {
        for frame in &requests {
            responder.respond(&fresh_lazy, frame).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut reader_response_bytes = 0usize;
    for _ in 0..10 {
        for frame in &requests {
            reader_response_bytes += responder.respond(&fresh_lazy, frame).unwrap().len();
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(reader_response_bytes > 0);
    assert_eq!(
        delta,
        0,
        "zero-parse wire responses from a lazy reader across {} requests x 10 passes must not allocate, saw {delta}",
        requests.len()
    );

    // ---- Instrumented serving: arming every observability instrument
    // must cost the steady state nothing on the heap. A store with a
    // live trace ring records aggregate *and* per-variant latency
    // histograms on each decode (relaxed atomic adds into fixed
    // slots); the same fetch loops as above must still count zero.
    use compaqt::obs::TraceRing;
    use std::sync::Arc;
    let obs_store = Store::from_library_with(
        &lib,
        &compressor,
        StoreConfig { shards: 4, hot_capacity: waveforms.len() },
    )
    .unwrap();
    assert!(obs_store.attach_trace(Arc::new(TraceRing::new(64))));
    let obs_gates = obs_store.gates();
    let mut obs_outs: Vec<(Vec<f64>, Vec<f64>)> =
        obs_gates.iter().map(|_| Default::default()).collect();
    for _ in 0..2 {
        for gate in &obs_gates {
            obs_store.fetch_into(gate, &mut i, &mut q).unwrap();
            assert!(!obs_store.fetch_cached(gate).unwrap().i().is_empty());
        }
        obs_store.fetch_many(&obs_gates, &mut obs_outs).unwrap();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut instrumented = 0usize;
    for _ in 0..10 {
        for gate in &obs_gates {
            instrumented += obs_store.fetch_into(gate, &mut i, &mut q).unwrap().output_samples;
            instrumented += obs_store.fetch_cached(gate).unwrap().len();
        }
        instrumented += obs_store.fetch_many(&obs_gates, &mut obs_outs).unwrap().output_samples;
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(instrumented > 0);
    assert_eq!(
        delta,
        0,
        "instrumented store fetches across {} gates x 10 passes must not allocate, saw {delta}",
        obs_gates.len()
    );
    // The instruments actually recorded (scraping may allocate — it is
    // the cold path, and runs outside the measured region).
    let mut snap = compaqt::obs::Snapshot::new();
    obs_store.collect_obs(&mut snap);
    assert!(snap.histogram("store_decode_ns").unwrap().count() > 0);
    assert!(snap.histogram("store_decode_ns_int_dct_w16").unwrap().count() > 0);

    // ---- Instrumented wire serving: a responder wired to a serve-tier
    // hub, with slow-request tracing armed so every recorded request
    // also pushes a ring event. Request handling, latency recording and
    // ring stamping must all stay off the heap; only the `Metrics`
    // scrape itself (after the measured region) may allocate.
    use compaqt::io::serve::ServeObs;
    use compaqt::io::wire::{encode_metrics, parse_metrics_report, FrameKind};
    use std::time::Instant;
    let obs_config =
        ServeConfig { slow_request: std::time::Duration::from_nanos(1), ..ServeConfig::default() };
    let serve_obs = Arc::new(ServeObs::new(&obs_config));
    let mut obs_responder = Responder::new(&obs_config);
    obs_responder.attach_obs(Arc::clone(&serve_obs));
    for _ in 0..2 {
        for frame in &requests {
            obs_responder.respond(&obs_store, frame).unwrap();
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut obs_response_bytes = 0usize;
    for _ in 0..10 {
        for frame in &requests {
            let started = Instant::now();
            obs_response_bytes += obs_responder.respond(&obs_store, frame).unwrap().len();
            serve_obs.record_request(FrameKind::FetchGate, started.elapsed().as_nanos() as u64);
        }
    }
    let delta = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(obs_response_bytes > 0);
    assert_eq!(
        delta,
        0,
        "instrumented wire responses across {} requests x 10 passes must not allocate, saw {delta}",
        requests.len()
    );
    // The cold scrape sees what the hot loops recorded: per-kind
    // latency counts and the slow-request events stamped above.
    let mut scrape = bytes::BytesMut::new();
    encode_metrics(&mut scrape);
    let report = obs_responder.respond(&obs_store, &scrape).unwrap();
    use compaqt::io::wire::{FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES};
    let payload = &report[FRAME_HEADER_BYTES..report.len() - FRAME_TRAILER_BYTES];
    let snap = parse_metrics_report(payload).unwrap();
    assert_eq!(
        snap.histogram("serve_fetch_gate_ns").unwrap().count(),
        (10 * requests.len()) as u64
    );
    assert!(snap.events.iter().any(|e| e.kind == compaqt::obs::TraceKind::SlowRequest));
}
