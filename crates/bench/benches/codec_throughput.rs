//! Criterion micro-benchmarks of the codec hot paths: compression
//! throughput (Figure 20's subject) and — more importantly — the modelled
//! decompression engine, whose sample rate is the bandwidth-expansion
//! claim of Figure 2.
//!
//! Both codec directions are measured on their production paths:
//! `decompress_into/*` (caller-owned `DecodeScratch` + output buffers;
//! every integer window through the fused RLE + sparse IDCT kernel) and
//! `compress_into/*` (caller-owned `EncodeScratch` + reused output
//! stream, the batched integer forward). The ungated `compress/*` rows
//! time the allocating `Compressor::compress`, the same encode with a
//! fresh scratch and output per call.
//!
//! The `intdct_kernel` group pairs each per-window forward with its
//! `forward_batched_*` row (64 windows per call through
//! `BatchedIntDctPlan`: the AVX2 SoA butterfly on the AVX2 tier, the
//! per-window kernel on the scalar tier). Their inputs are sine windows,
//! none of them constant. The `encode_channel_library_ws16` row runs the
//! int-DCT-W channel encode over the 433-qubit fleet's real channels,
//! where most windows are constant: the encoder classifies them as it
//! stages them and writes their DC word in closed form, so only the rest
//! reach the batched forward. On the inverse side,
//! `inverse_rle_dense_ws16` times the fused decode kernel on a fully
//! dense window, its worst case; the ungated `inverse_rle_dc_ws16` row
//! times the same kernel on a DC-only window, the shape most stored
//! windows have, which it decodes in closed form. Its library twin,
//! `decompress_into_library_ws16`, decodes every hex-433 gate, I and Q,
//! through one `DecodeScratch`: the engine's one pass per channel over
//! real windows, most of them zero, DC-only or padded DC-only shapes.
//!
//! Eight rows carry absolute time budgets (the [`BUDGETS`] table):
//! `decompress_into/cr_1362_ws16` in ns per sample,
//! `inverse_rle_dense_ws16` in ns per window,
//! `compress_into/cr_1362_ws8` in ns per sample,
//! `forward_batched_ws16` and `forward_batched_ws32` in ns per window,
//! `encode_channel_library_ws16` and `decompress_into_library_ws16` in
//! ns per sample and `store_fetch/cold_fetch_into` in ns per fetch. A
//! budget is a constant in this file, recorded on a named host, so a
//! run cannot move it; it is the one gate kind on codec cost (no
//! same-run ratios).
//!
//! The serving path is measured too: `store_fetch/cold_fetch_into`
//! (sharded-store streaming fetch, decodes every call; gated) vs
//! `store_fetch/hot_fetch_cached` (decoded-LRU hit, no IDCT) — the
//! runtime single-gate workload the store exists for. The `container_io`
//! group adds informational serialize/validate/serve rows for the CWL
//! persistence layer (`compaqt-io`), and the `serve` group measures the
//! wire daemon's loopback fetch/ping round trips (surfaced as the
//! informational `serve_fetch_roundtrip_ns` / `serve_fetches_per_sec`
//! headline fields); none of them are gated.
//!
//! A run that passes every gate writes `BENCH_codec.json` at the
//! repository root with every measurement, under a `host` object naming
//! the machine it ran on (vCPUs, x86 CPU flags, kernel tier, git
//! revision — the fields of perfbench's host line). A `scenario_matrix` array
//! adds informational per-device ratio/fidelity rows from the registry
//! fleet (each row round-trip-verified bit-exact before it is emitted);
//! none of those rows are gated.

use compaqt_core::batch;
use compaqt_core::compress::{CompressedWaveform, Compressor, Variant};
use compaqt_core::engine::{DecodeScratch, DecompressionEngine, EncodeScratch};
use compaqt_core::store::Store;
use compaqt_dsp::batched::{BatchedIntDctPlan, KernelTier};
use compaqt_dsp::fixed::Q15;
use compaqt_dsp::intdct::IntDct;
use compaqt_dsp::rle::{CodedWord, RleCodeword};
use compaqt_dsp::sparse::inverse_rle_f64_into;
use compaqt_pulse::device::Device;
use compaqt_pulse::shapes::{Drag, GaussianSquare, PulseShape};
use criterion::{Criterion, Throughput};
use std::hint::black_box;

/// Absolute time budgets on the gated rows, as `(group, row, units of
/// work per iteration, unit, ns per unit)`. Host: 2 vCPUs, "Intel(R)
/// Xeon(R) Processor" with AVX2 and AVX-512 (the kernels dispatch to
/// the AVX2 tier), Linux 6.18 guest. The first three are about 1.6x the
/// slowest of five runs of the code they were set on, and each is
/// tighter than the same-run ratio gate it replaced allowed there:
///
/// | row | five runs | budget | old gate's ceiling |
/// |-----|-----------|--------|--------------------|
/// | `decompress_into/cr_1362_ws16` | 0.523–0.528 ns/sample | 0.85 | 1.41 (allocating decode ÷ 3) |
/// | `inverse_rle_dense_ws16` | 36.0–36.1 ns/window | 58 | 136.6 (`inverse_ws16`) |
/// | `compress_into/cr_1362_ws8` | 4.23–4.27 ns/sample | 6.8 | 7.38 (allocating encode ÷ 1.53) |
///
/// The two batched-forward budgets replace same-run floors (batched
/// elements/s at least the per-window row's), which failed on noise.
/// Each sits below the fastest per-window run, so passing still means
/// the batched kernel beats the per-window one, and at least 1.2x the
/// slowest batched run. The library encode budget is about 1.6x its
/// slowest run. Five runs of the code they were set on:
///
/// | row | five runs | budget | per-window row |
/// |-----|-----------|--------|----------------|
/// | `forward_batched_ws16` | 31.9–32.4 ns/window | 44 | 46.8–47.4 |
/// | `forward_batched_ws32` | 81.7–88.6 ns/window | 112 | 117.2–118.2 |
/// | `encode_channel_library_ws16` | 1.618–1.646 ns/sample | 2.6 | — |
///
/// The last two budgets are about 1.6x the slowest of five runs of the
/// one-pass decode. The same host then ran the untouched kernels about
/// 1.5x slower than in the tables above (`forward_batched_ws16` at
/// 47.6–51.2 ns/window in four runs, 84.5 in the fifth):
///
/// | row | five runs | budget |
/// |-----|-----------|--------|
/// | `decompress_into_library_ws16` | 1.011–1.724 ns/sample | 2.8 |
/// | `store_fetch/cold_fetch_into` | 1624–3265 ns/fetch | 5200 |
///
/// A slower host needs its own table, set the same way.
const BUDGETS: [(&str, &str, f64, &str, f64); 8] = [
    ("decompress_into", "cr_1362_ws16", 2.0 * 1362.0, "sample", 0.85),
    ("intdct_kernel", "inverse_rle_dense_ws16", 1.0, "window", 58.0),
    ("compress_into", "cr_1362_ws8", 1362.0, "sample", 6.8),
    ("intdct_kernel", "forward_batched_ws16", 64.0, "window", 44.0),
    ("intdct_kernel", "forward_batched_ws32", 64.0, "window", 112.0),
    ("intdct_kernel", "encode_channel_library_ws16", LIBRARY_SAMPLES, "sample", 2.6),
    ("intdct_kernel", "decompress_into_library_ws16", LIBRARY_SAMPLES, "sample", 2.8),
    ("store_fetch", "cold_fetch_into", 1.0, "fetch", 5200.0),
];

/// Samples in hex-433's I and Q channels together, the units of one
/// `encode_channel_library_ws16` or `decompress_into_library_ws16`
/// iteration (checked against the library when the rows are set up).
const LIBRARY_SAMPLES: f64 = 4_057_324.0;

fn bench_intdct_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("intdct_kernel");
    for ws in [8usize, 16, 32] {
        let t = IntDct::new(ws).unwrap();
        let x: Vec<Q15> =
            (0..ws).map(|i| Q15::from_f64(0.5 * (i as f64 / ws as f64).sin())).collect();
        let y = t.forward(&x);
        group.throughput(Throughput::Elements(ws as u64));
        // Forward kernel pair: the factorized butterfly default the
        // encode path runs vs the dense matrix oracle it replaced.
        let mut fwd = vec![0i32; ws];
        group.bench_function(format!("forward_ws{ws}"), |b| {
            b.iter(|| {
                t.forward_into(black_box(&x), black_box(&mut fwd));
                black_box(fwd[0])
            })
        });
        group.bench_function(format!("forward_matrix_ws{ws}"), |b| {
            b.iter(|| {
                t.forward_matrix_into(black_box(&x), black_box(&mut fwd));
                black_box(fwd[0])
            })
        });
        group.bench_function(format!("inverse_ws{ws}"), |b| {
            b.iter(|| black_box(t.inverse(black_box(&y))))
        });
        // The sparse in-place kernel on a realistic thresholded window
        // (2 nonzero coefficients), as the engine drives it.
        let mut sparse = vec![0i32; ws];
        sparse[0] = y[0];
        sparse[1] = y[1];
        let mut out = vec![0.0f64; ws];
        group.bench_function(format!("inverse_f64_into_sparse_ws{ws}"), |b| {
            b.iter(|| {
                t.inverse_f64_into(black_box(&sparse), 2, black_box(&mut out));
                black_box(out[0])
            })
        });
        // The batched forward: the same transform over BATCH independent
        // windows per call through the runtime-dispatched kernel.
        const BATCH: usize = 64;
        let mut plan = BatchedIntDctPlan::from_transform(t.clone());
        let xs: Vec<Q15> =
            (0..ws * BATCH).map(|i| Q15::from_f64(0.4 * (i as f64 * 0.37).sin())).collect();
        let mut fwd_b = vec![0i32; ws * BATCH];
        group.throughput(Throughput::Elements((ws * BATCH) as u64));
        group.bench_function(format!("forward_batched_ws{ws}"), |b| {
            b.iter(|| {
                plan.forward_batched_into(black_box(&xs), black_box(&mut fwd_b));
                black_box(fwd_b[0])
            })
        });
        if ws == 16 {
            // The fused RLE + sparse inverse on a fully dense window (one
            // stored nonzero coefficient word per sample, no zero run):
            // the production decode kernel at its most expensive.
            let words: Vec<CodedWord> = (0..ws as i16)
                .map(|k| CodedWord::Coeff(if k % 2 == 0 { 900 - 50 * k } else { -300 - 17 * k }))
                .collect();
            let mut coeffs = Vec::new();
            group.throughput(Throughput::Elements(ws as u64));
            group.bench_function(format!("inverse_rle_dense_ws{ws}"), |b| {
                b.iter(|| {
                    inverse_rle_f64_into(
                        &t,
                        black_box(&words),
                        2,
                        &mut coeffs,
                        black_box(&mut out),
                    )
                    .unwrap();
                    black_box(out[0])
                })
            });
            // A flat-top window as the encoder stores it: one DC word and
            // a zero run, decoded in closed form (no gate).
            let dc = [
                CodedWord::Coeff(2047),
                CodedWord::Rle(RleCodeword { run: 15, repeat_previous: false }),
            ];
            group.bench_function(format!("inverse_rle_dc_ws{ws}"), |b| {
                b.iter(|| {
                    inverse_rle_f64_into(&t, black_box(&dc), 2, &mut coeffs, black_box(&mut out))
                        .unwrap();
                    black_box(out[0])
                })
            });
        }
    }
    // The int-DCT-W channel encode over a real library: hex-433's I and
    // Q channels. Most of their windows are constant (all zero or a flat
    // top), which the sine rows above never are; this row shows what
    // classifying them at staging buys.
    let registry = compaqt_pulse::registry::Registry::builtin();
    let library = registry.get("hex-433").expect("a builtin fleet device").build_library();
    let channels: Vec<&[f64]> =
        library.iter_sorted().flat_map(|(_, wf)| [wf.i(), wf.q()]).collect();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let mut scratch = EncodeScratch::new();
    let mut coeffs = Vec::new();
    let samples: u64 = channels.iter().map(|c| c.len() as u64).sum();
    assert_eq!(samples as f64, LIBRARY_SAMPLES, "hex-433 library size changed");
    group.throughput(Throughput::Elements(samples));
    group.bench_function("encode_channel_library_ws16", |b| {
        b.iter(|| {
            for channel in &channels {
                compressor
                    .encode_channel_into(black_box(channel), &mut scratch, &mut coeffs)
                    .unwrap();
            }
            black_box(coeffs.len())
        })
    });
    // Its decode twin: every hex-433 gate, I and Q, decoded through one
    // `DecodeScratch` into reused buffers. Most stored windows are the
    // zero, DC-only and padded DC-only shapes filled in closed form.
    let streams: Vec<CompressedWaveform> =
        library.iter_sorted().map(|(_, wf)| compressor.compress(wf).unwrap()).collect();
    let engine = DecompressionEngine::shared(compressor.variant()).unwrap();
    let mut scratch = DecodeScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    group.bench_function("decompress_into_library_ws16", |b| {
        b.iter(|| {
            let mut samples = 0;
            for z in &streams {
                samples += engine
                    .decompress_into(black_box(z), &mut scratch, &mut i, &mut q)
                    .unwrap()
                    .output_samples;
            }
            black_box(samples)
        })
    });
    group.finish();
}

fn bench_compress(c: &mut Criterion) {
    let x_pulse = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X", 4.54);
    let cr_pulse = GaussianSquare::new(1362, 0.3, 40.0, 1020).to_waveform("CR", 4.54);
    // Allocating wrapper (informational): a fresh scratch and output
    // per call.
    let mut group = c.benchmark_group("compress");
    for (name, wf) in [("x_136", &x_pulse), ("cr_1362", &cr_pulse)] {
        group.throughput(Throughput::Elements(wf.len() as u64));
        for ws in [8usize, 16] {
            let comp = Compressor::new(Variant::IntDctW { ws });
            group.bench_function(format!("{name}_ws{ws}"), |b| {
                b.iter(|| black_box(comp.compress(black_box(wf)).unwrap()))
            });
        }
    }
    group.finish();
    // Reused scratch and output stream: zero steady-state allocation.
    let mut group = c.benchmark_group("compress_into");
    for (name, wf) in [("x_136", &x_pulse), ("cr_1362", &cr_pulse)] {
        group.throughput(Throughput::Elements(wf.len() as u64));
        for ws in [8usize, 16] {
            let comp = Compressor::new(Variant::IntDctW { ws });
            let mut scratch = EncodeScratch::new();
            let mut out = CompressedWaveform::empty();
            group.bench_function(format!("{name}_ws{ws}"), |b| {
                b.iter(|| {
                    comp.compress_into(black_box(wf), &mut scratch, &mut out).unwrap();
                    black_box(out.words())
                })
            });
        }
    }
    group.finish();
}

fn bench_decompress(c: &mut Criterion) {
    let cr_pulse = GaussianSquare::new(1362, 0.3, 40.0, 1020).to_waveform("CR", 4.54);
    // Reused scratch and output buffers: zero steady-state allocation.
    let mut group = c.benchmark_group("decompress_into");
    for ws in [8usize, 16] {
        let z = Compressor::new(Variant::IntDctW { ws }).compress(&cr_pulse).unwrap();
        let engine = DecompressionEngine::for_variant(z.variant).unwrap();
        let mut scratch = DecodeScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        group.throughput(Throughput::Elements(2 * cr_pulse.len() as u64));
        group.bench_function(format!("cr_1362_ws{ws}"), |b| {
            b.iter(|| {
                let stats =
                    engine.decompress_into(black_box(&z), &mut scratch, &mut i, &mut q).unwrap();
                black_box((stats.output_samples, i.last().copied(), q.last().copied()))
            })
        });
    }
    group.finish();
}

fn bench_library_compile(c: &mut Criterion) {
    // Calibration-cycle scale: a 16-qubit machine's full library.
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let samples: u64 = lib.iter().map(|(_, wf)| wf.len() as u64).sum();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let mut group = c.benchmark_group("library_compile");
    group.throughput(Throughput::Elements(samples));
    group.bench_function("guadalupe_seq", |b| {
        b.iter(|| {
            black_box(compaqt_core::stats::compress_library(black_box(&lib), &compressor).unwrap())
        })
    });
    let zs: Vec<_> = lib.iter().map(|(_, wf)| compressor.compress(wf).unwrap()).collect();
    group.bench_function("decode_library_seq", |b| {
        b.iter(|| black_box(batch::decompress_library(black_box(&zs)).unwrap().1.output_samples))
    });
    group.finish();
}

fn bench_store_fetch(c: &mut Criterion) {
    // Runtime serving path: single-gate fetches from the sharded store.
    // `cold` always decodes (streaming fetch into reused buffers, the
    // zero-allocation path); `hot` hits the decoded LRU and skips the
    // RLE + IDCT entirely. The gap between the two rows is what the
    // hot set buys calibration-critical gates.
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let store = Store::from_library(&lib, &compressor).unwrap();
    // A long two-qubit drive: the expensive, representative fetch.
    let (gate, wf) =
        lib.iter().max_by_key(|(_, wf)| wf.len()).expect("guadalupe library is non-empty");
    let mut group = c.benchmark_group("store_fetch");
    group.throughput(Throughput::Elements(2 * wf.len() as u64));
    let (mut i, mut q) = (Vec::new(), Vec::new());
    group.bench_function("cold_fetch_into", |b| {
        b.iter(|| {
            let stats = store.fetch_into(black_box(gate), &mut i, &mut q).unwrap();
            black_box(stats.output_samples)
        })
    });
    store.fetch_cached(gate).unwrap(); // park the decode
    group.bench_function("hot_fetch_cached", |b| {
        b.iter(|| {
            let cached = store.fetch_cached(black_box(gate)).unwrap();
            black_box(cached.i()[0])
        })
    });

    // The same two fetches with every observability instrument armed:
    // a live trace ring attached (the per-variant codec histograms are
    // always on).
    // The hit path carries no instrument at all, so the
    // `instrumented_hot_fetch_cached` row is self-gated in `main`
    // against this run's own `hot_fetch_cached` — zero-overhead
    // telemetry as a measured claim, not a comment.
    let obs_store = Store::from_library(&lib, &compressor).unwrap();
    obs_store.attach_trace(std::sync::Arc::new(compaqt_obs::TraceRing::new(256)));
    group.throughput(Throughput::Elements(2 * wf.len() as u64));
    group.bench_function("instrumented_cold_fetch_into", |b| {
        b.iter(|| {
            let stats = obs_store.fetch_into(black_box(gate), &mut i, &mut q).unwrap();
            black_box(stats.output_samples)
        })
    });
    obs_store.fetch_cached(gate).unwrap();
    group.bench_function("instrumented_hot_fetch_cached", |b| {
        b.iter(|| {
            let cached = obs_store.fetch_cached(black_box(gate)).unwrap();
            black_box(cached.i()[0])
        })
    });
    group.finish();
}

fn bench_container_io(c: &mut Criterion) {
    // Persistence layer (informational rows, no gate): serialize a
    // whole library store to CWL container bytes, validate + index the
    // container (header, sorted index, per-entry CRC-32), random-access
    // decode one gate straight from the backing buffer, and bulk-load a
    // serving store.
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let store = Store::from_library(&lib, &compressor).unwrap();
    let bytes = compaqt_io::write_store(&store).unwrap();
    let (gate, wf) =
        lib.iter().max_by_key(|(_, wf)| wf.len()).expect("guadalupe library is non-empty");
    let mut group = c.benchmark_group("container_io");
    group.throughput(Throughput::Elements(bytes.len() as u64));
    group.bench_function("write_store", |b| {
        b.iter(|| black_box(compaqt_io::write_store(black_box(&store)).unwrap().len()))
    });
    group.bench_function("reader_validate", |b| {
        b.iter(|| {
            black_box(
                compaqt_io::Reader::open(
                    black_box(bytes.clone()),
                    compaqt_io::ReaderOptions::default(),
                )
                .unwrap()
                .len(),
            )
        })
    });
    let reader =
        compaqt_io::Reader::open(bytes.clone(), compaqt_io::ReaderOptions::default()).unwrap();
    let mut scratch = compaqt_io::ContainerScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    group.throughput(Throughput::Elements(2 * wf.len() as u64));
    group.bench_function("reader_fetch_into", |b| {
        b.iter(|| {
            let stats = reader.fetch_into(black_box(gate), &mut scratch, &mut i, &mut q).unwrap();
            black_box(stats.output_samples)
        })
    });
    group.throughput(Throughput::Elements(lib.len() as u64));
    group.bench_function("into_store", |b| {
        b.iter(|| {
            let loaded =
                compaqt_io::Reader::open(bytes.clone(), compaqt_io::ReaderOptions::default())
                    .unwrap()
                    .into_store(Default::default())
                    .unwrap();
            black_box(loaded.len())
        })
    });
    group.finish();
}

fn bench_reader_open(c: &mut Criterion) {
    // Validation-mode pair (informational rows, no gate): eager open
    // sweeps every payload CRC-32 up front (O(payload)); lazy open
    // audits the index only and defers per-entry payload verdicts to
    // first touch (O(index)) — the knob that makes opening a
    // larger-than-RAM mapped library cheap. Same bytes, same validated
    // index, different opening cost; the `reader_open_eager_ns` /
    // `reader_open_lazy_ns` headline pair tracks the gap.
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let store = Store::from_library(&lib, &compressor).unwrap();
    let bytes = compaqt_io::write_store(&store).unwrap();
    let mut group = c.benchmark_group("reader_open");
    group.throughput(Throughput::Elements(bytes.len() as u64));
    group.bench_function("eager", |b| {
        b.iter(|| {
            let reader = compaqt_io::Reader::open(
                black_box(bytes.clone()),
                compaqt_io::ReaderOptions::new(),
            )
            .unwrap();
            black_box(reader.len())
        })
    });
    group.bench_function("lazy_crc", |b| {
        b.iter(|| {
            let reader = compaqt_io::Reader::open(
                black_box(bytes.clone()),
                compaqt_io::ReaderOptions::lazy_crc(),
            )
            .unwrap();
            black_box(reader.len())
        })
    });
    group.finish();
}

/// Hand-timed multi-core contention rows (criterion's bencher drives a
/// single thread): N reader threads hammer `fetch_cached` hits (shard
/// read lock, map lookup, `Arc` clone) on a warmed hot working set
/// while one writer continuously recalibrates *other* gates of the
/// same store — every insert takes its shard's write lock, so a hit on
/// that shard may wait behind one map write. Returns
/// `(readers, ns_per_hit, aggregate_hits_per_sec)` rows for N in
/// {1, 2, 4, 8}. On a single-vCPU runner the aggregate rate stays
/// roughly flat (threads time-share one core); on real multi-core
/// hardware it is expected to scale with N because hits exclude only
/// writers, never each other, and write no shared cache line beyond
/// the shard's read-lock word, clock, counters and recency stamps.
fn bench_store_contention() -> Vec<(usize, f64, f64)> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Instant;

    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let store = Store::from_library(&lib, &compressor).unwrap();
    let gates = store.gates();
    let (hot, cold) = gates.split_at(8.min(gates.len() / 2));
    for gate in hot {
        store.fetch_cached(gate).unwrap(); // warm: every timed fetch is a hit
    }
    // Pre-compressed recalibration streams for the writer to flip.
    let recal: Vec<_> = cold
        .iter()
        .map(|g| (g.clone(), compressor.compress(lib.get(g).unwrap()).unwrap()))
        .collect();
    assert!(!recal.is_empty(), "guadalupe library must have cold gates to recalibrate");

    const PASSES: usize = 2_000;
    let mut rows = Vec::new();
    for n in [1usize, 2, 4, 8] {
        let stop = AtomicBool::new(false);
        let elapsed = std::thread::scope(|scope| {
            let (store, stop, recal) = (&store, &stop, &recal);
            scope.spawn(move || {
                let mut k = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let (gate, z) = &recal[k % recal.len()];
                    store.insert(gate.clone(), z.clone()).unwrap();
                    k += 1;
                }
            });
            let start = Instant::now();
            let readers: Vec<_> = (0..n)
                .map(|_| {
                    scope.spawn(move || {
                        for _ in 0..PASSES {
                            for gate in hot {
                                black_box(store.fetch_cached(black_box(gate)).unwrap().len());
                            }
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().unwrap();
            }
            let elapsed = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            elapsed
        });
        let hits = (n * PASSES * hot.len()) as f64;
        let per_thread_hits = (PASSES * hot.len()) as f64;
        let ns_per_hit = elapsed.as_nanos() as f64 / per_thread_hits;
        let hits_per_sec = hits / elapsed.as_secs_f64();
        println!(
            "store_contention/readers_{n}: {ns_per_hit:.1} ns/hit, \
             {:.2} Mhits/s aggregate",
            hits_per_sec / 1e6
        );
        rows.push((n, ns_per_hit, hits_per_sec));
    }
    rows
}

fn bench_serve(c: &mut Criterion) {
    // Wire serving path (informational rows, no gate): one blocking
    // client fetching the representative long pulse over loopback TCP.
    // A round trip covers frame encode + CRC on the client, a kernel
    // round trip, the server's shard read + stream serialization, and
    // the client-side parse + decode — the paper's deployment loop with
    // a real socket in the middle.
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let store = std::sync::Arc::new(Store::from_library(&lib, &compressor).unwrap());
    let handle = compaqt_io::serve::serve(store, "127.0.0.1:0").expect("bind loopback");
    let mut client = compaqt_io::serve::Client::connect(handle.local_addr()).expect("connect");
    let (gate, wf) =
        lib.iter().max_by_key(|(_, wf)| wf.len()).expect("guadalupe library is non-empty");
    let mut group = c.benchmark_group("serve");
    group.throughput(Throughput::Elements(2 * wf.len() as u64));
    let (mut i, mut q) = (Vec::new(), Vec::new());
    group.bench_function("fetch_roundtrip", |b| {
        b.iter(|| {
            let stats = client.fetch_into(black_box(gate), &mut i, &mut q).unwrap();
            black_box(stats.output_samples)
        })
    });
    group.throughput(Throughput::Elements(1));
    group.bench_function("ping_roundtrip", |b| b.iter(|| client.ping().unwrap()));
    group.finish();
    drop(client);
    handle.shutdown();
}

/// x86 feature flags that select or bound the codec kernels.
fn cpu_flags() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let mut flags = Vec::new();
        macro_rules! probe {
            ($($f:tt),*) => {$(if std::arch::is_x86_feature_detected!($f) { flags.push($f); })*};
        }
        probe!("sse2", "sse4.2", "avx", "avx2", "fma", "bmi2", "avx512f", "pclmulqdq");
        flags
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// The commit the repository is checked out at, read from its `.git`;
/// "unknown" outside a git checkout.
fn git_revision() -> String {
    let git = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.git");
    let read = |p: &str| std::fs::read_to_string(format!("{git}/{p}")).ok();
    let Some(head) = read("HEAD").map(|s| s.trim().to_string()) else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(reference)
        .map(|s| s.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find_map(|l| l.strip_suffix(reference)?.strip_suffix(' ').map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The `host` object of `BENCH_codec.json`: the fields of perfbench's
/// host line that describe the machine and the code measured.
fn host_json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"available_parallelism\": {parallelism}, \"cpu_flags\": {:?}, \
         \"kernel_tier\": \"{:?}\", \"git_revision\": {:?}}}",
        cpu_flags().join(" "),
        KernelTier::detected(),
        git_revision(),
    )
}

fn main() {
    let mut criterion = Criterion::default();
    bench_intdct_kernel(&mut criterion);
    bench_compress(&mut criterion);
    bench_decompress(&mut criterion);
    bench_library_compile(&mut criterion);
    bench_store_fetch(&mut criterion);
    bench_container_io(&mut criterion);
    bench_serve(&mut criterion);
    bench_reader_open(&mut criterion);
    let contention = bench_store_contention();
    criterion.final_summary();

    let ns = |group: &str, name: &str| {
        criterion
            .results()
            .iter()
            .find(|r| r.group == group && r.name == name)
            .map(|r| r.ns_per_iter)
    };

    // Informational wire-serving headline (no gate): the loopback TCP
    // fetch round trip and the single-connection fetch rate it implies.
    let serve_ns = ns("serve", "fetch_roundtrip").unwrap_or(f64::NAN);
    let serve_fps = if serve_ns > 0.0 { 1e9 / serve_ns } else { f64::NAN };
    println!("serve_fetch_roundtrip_ns: {serve_ns:.0}   serve_fetches_per_sec: {serve_fps:.0}");

    // Informational validation-mode headline (no gate): what eager
    // whole-payload CRC costs at open versus the lazy index-only audit.
    let open_eager = ns("reader_open", "eager").unwrap_or(f64::NAN);
    let open_lazy = ns("reader_open", "lazy_crc").unwrap_or(f64::NAN);
    println!("reader_open_eager_ns: {open_eager:.0}   reader_open_lazy_ns: {open_lazy:.0}");

    // Zero-overhead telemetry headline: the hot hit with every
    // instrument armed, next to the uninstrumented row from this same
    // run (self-gated below).
    let hot_ns = ns("store_fetch", "hot_fetch_cached").unwrap_or(f64::NAN);
    let instrumented_hot_ns =
        ns("store_fetch", "instrumented_hot_fetch_cached").unwrap_or(f64::NAN);
    println!(
        "hot_fetch_cached_ns: {hot_ns:.1}   instrumented_hot_fetch_ns: {instrumented_hot_ns:.1}"
    );

    // Record of the run: every measurement plus the headline fields.
    let mut json = String::from("{\n");
    json.push_str(&format!("  \"host\": {},\n", host_json()));
    json.push_str(&format!("  \"serve_fetch_roundtrip_ns\": {serve_ns:.1},\n"));
    json.push_str(&format!("  \"serve_fetches_per_sec\": {serve_fps:.1},\n"));
    json.push_str(&format!("  \"reader_open_eager_ns\": {open_eager:.1},\n"));
    json.push_str(&format!("  \"reader_open_lazy_ns\": {open_lazy:.1},\n"));
    json.push_str(&format!("  \"hot_fetch_cached_ns\": {hot_ns:.1},\n"));
    json.push_str(&format!("  \"instrumented_hot_fetch_ns\": {instrumented_hot_ns:.1},\n"));
    json.push_str("  \"benchmarks\": [\n");
    let results = criterion.results();
    for r in results.iter() {
        let thrpt = match r.per_second() {
            Some(v) => format!(", \"elements_per_second\": {v:.1}"),
            None => String::new(),
        };
        // The hand-timed contention rows below always follow, so every
        // criterion row takes a trailing comma.
        json.push_str(&format!(
            "    {{\"group\": \"{}\", \"name\": \"{}\", \"ns_per_iter\": {:.1}{thrpt}}},\n",
            r.group, r.name, r.ns_per_iter,
        ));
    }
    // Multi-threaded rows measured outside criterion (informational, no
    // gate: thread scaling on the shared 1-vCPU CI runner is noise).
    // `elements_per_second` here is the aggregate hit rate across all
    // reader threads; `ns_per_iter` is the per-thread hit latency.
    for (k, (n, ns_per_hit, hps)) in contention.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"group\": \"store_contention\", \"name\": \"hot_hits_readers_{n}\", \
             \"ns_per_iter\": {ns_per_hit:.1}, \"elements_per_second\": {hps:.1}}}{}\n",
            if k + 1 == contention.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");

    // Informational per-device rows from the registry-driven scenario
    // matrix (no gate): every fleet device except the 433-qubit lattice,
    // compressed at the paper's design point and round-trip-verified
    // bit-exact before a row is emitted.
    let fleet: Vec<_> =
        compaqt_pulse::registry::fleet().into_iter().filter(|s| s.n_qubits() <= 127).collect();
    let rows = compaqt_io::run_fleet(&fleet, &compaqt_io::ScenarioVariant::smoke_matrix())
        .expect("fleet scenario matrix must round-trip bit-exactly");
    json.push_str("  \"scenario_matrix\": [\n");
    for (k, row) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"device\": \"{}\", \"qubits\": {}, \"variant\": \"{}\", \
             \"gates\": {}, \"container_bytes\": {}, \"ratio\": {:.3}, \
             \"mean_mse\": {:.3e}}}{}\n",
            row.device,
            row.qubits,
            row.variant,
            row.gates,
            row.container_bytes,
            row.ratio,
            row.mean_mse,
            if k + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_codec.json");

    // ---- CI smoke gates. ----
    let mut failures = Vec::new();
    for (group, name, units, unit, budget) in BUDGETS {
        match ns(group, name) {
            Some(t) if t / units <= budget => {}
            Some(t) => failures.push(format!(
                "{group}/{name} took {:.3} ns/{unit}, over its {budget} ns/{unit} budget",
                t / units
            )),
            None => failures.push(format!("{group}/{name} was not measured")),
        }
    }
    // Zero-overhead telemetry gate: the instrumented store's hot hit
    // must stay within this run's own jitter of the uninstrumented
    // row. Both sides come from the same run (machine drift cancels,
    // no ratchet); the hit path carries no instrument, so anything
    // past the ~30% + 10 ns small-number jitter margin of the shared
    // 1-vCPU runner is a real regression.
    if !hot_ns.is_nan() && !instrumented_hot_ns.is_nan() {
        let ceiling = hot_ns * 1.30 + 10.0;
        if instrumented_hot_ns > ceiling {
            failures.push(format!(
                "instrumented_hot_fetch_ns {instrumented_hot_ns:.1} exceeded {ceiling:.1} \
                 (hot_fetch_cached {hot_ns:.1} ns + jitter margin)"
            ));
        }
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("BENCH GATE FAILED: {f}");
        }
        eprintln!("BENCH_codec.json left untouched");
        std::process::exit(1);
    }
    println!("bench gates passed (absolute budgets, instrumented hot fetch within jitter)");
    std::fs::write(path, json).expect("write BENCH_codec.json");
    println!("results written to BENCH_codec.json");
}
