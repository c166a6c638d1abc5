//! Shared experiment runners used by the bench targets and integration
//! tests. Each function reproduces the data behind one table or figure;
//! the bench binaries only format the results.

use compaqt_core::adaptive::AdaptiveCompressor;
use compaqt_core::compress::{Compressor, Variant};
use compaqt_core::stats::{compress_library, LibraryReport};
use compaqt_hw::power::{CryoDesign, CryoPowerModel, PowerBreakdown};
use compaqt_pulse::device::Device;
use compaqt_pulse::library::GateKind;
use compaqt_quantum::errors::NoiseModel;
use compaqt_quantum::rb::{run_rb, RbConfig, RbQubits, RbResult};
use std::collections::BTreeMap;
use std::time::Instant;

/// The three compression variants compared throughout the evaluation,
/// for a given window size.
pub fn dct_variants(ws: usize) -> Vec<Variant> {
    vec![Variant::DctN, Variant::DctW { ws }, Variant::IntDctW { ws }]
}

/// Compresses one machine's library with one variant (reused by several
/// figures).
pub fn machine_report(machine: &str, variant: Variant) -> LibraryReport {
    let device = Device::named_machine(machine);
    let lib = device.pulse_library();
    compress_library(&lib, &Compressor::new(variant)).expect("supported window sizes")
}

/// Figure 7a: per-waveform compression ratios for representative
/// waveforms of the Guadalupe-class machine under all variants.
pub fn fig07a() -> Vec<(String, Vec<(String, f64)>)> {
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let picks: Vec<(&GateKind, u16)> = vec![
        (&GateKind::Sx, 2),
        (&GateKind::Sx, 3),
        (&GateKind::Sx, 5),
        (&GateKind::Sx, 8),
        (&GateKind::Measure, 0),
    ];
    let variants =
        vec![Variant::Delta, Variant::DctN, Variant::DctW { ws: 16 }, Variant::IntDctW { ws: 16 }];
    let mut out = Vec::new();
    for (kind, qubit) in picks {
        let id = compaqt_pulse::library::GateId::single(kind.clone(), qubit);
        let wf = lib.get(&id).expect("gate exists on the device");
        let mut per = Vec::new();
        for &v in &variants {
            let z = Compressor::new(v).compress(wf).expect("supported");
            per.push((v.label(), z.ratio().ratio()));
        }
        out.push((format!("{id}"), per));
    }
    out
}

/// Figure 7b/7c: overall ratio and mean MSE over a whole library for
/// every variant and window size 8/16.
pub fn fig07bc(machine: &str) -> Vec<(String, f64, f64)> {
    let device = Device::named_machine(machine);
    let lib = device.pulse_library();
    let mut out = Vec::new();
    let delta = compress_library(&lib, &Compressor::new(Variant::Delta)).expect("delta");
    out.push(("Delta".to_string(), delta.overall.ratio(), delta.mean_mse()));
    let dct_n = compress_library(&lib, &Compressor::new(Variant::DctN)).expect("dct-n");
    out.push(("DCT-N".to_string(), dct_n.overall.ratio(), dct_n.mean_mse()));
    for ws in [8, 16] {
        for v in [Variant::DctW { ws }, Variant::IntDctW { ws }] {
            let r = compress_library(&lib, &Compressor::new(v)).expect("windowed");
            out.push((v.label(), r.overall.ratio(), r.mean_mse()));
        }
    }
    out
}

/// Figure 11: histogram of stored words per window for WS=8 and WS=16.
pub fn fig11() -> Vec<(usize, BTreeMap<usize, usize>)> {
    [8, 16]
        .into_iter()
        .map(|ws| {
            let report = machine_report("guadalupe", Variant::IntDctW { ws });
            (ws, report.samples_per_window_histogram())
        })
        .collect()
}

/// Figure 14: per-qubit mean compression ratio of each basis gate on the
/// 16-qubit machine (int-DCT-W, WS=16).
pub fn fig14() -> Vec<(u16, f64, f64, f64)> {
    let report = machine_report("guadalupe", Variant::IntDctW { ws: 16 });
    (0..16u16)
        .map(|q| {
            let sx = report.mean_ratio_of_kind_on_qubit(&GateKind::Sx, q).unwrap_or(0.0);
            let x = report.mean_ratio_of_kind_on_qubit(&GateKind::X, q).unwrap_or(0.0);
            let cx = report.mean_ratio_of_kind_on_qubit(&GateKind::Cx, q).unwrap_or(0.0);
            (q, sx, x, cx)
        })
        .collect()
}

/// Table VII: min/max/avg compression ratios for the five machines.
pub fn tab07() -> Vec<(String, f64, f64, f64)> {
    ["toronto", "montreal", "mumbai", "guadalupe", "lima"]
        .iter()
        .map(|m| {
            let report = machine_report(m, Variant::IntDctW { ws: 16 });
            let s = report.ratio_summary();
            (format!("IBM {m}"), s.min, s.max, s.avg)
        })
        .collect()
}

/// The RB experiment (Figure 9 / Table III): baseline and compressed
/// noise models for one machine seed.
pub fn rb_experiment(machine: &str, variant: Variant, config: &RbConfig) -> (RbResult, RbResult) {
    let device = Device::named_machine(machine);
    let lib = device.pulse_library();
    let baseline = NoiseModel::ibm_baseline();
    let compressed =
        NoiseModel::from_compression(baseline, &lib, &Compressor::new(variant)).expect("compress");
    let base = run_rb(RbQubits::Two, &baseline, config);
    let comp = run_rb(RbQubits::Two, &compressed, config);
    (base, comp)
}

/// Figure 18: the cryo power sweep, with compression statistics taken
/// from the actual library compression (average words per window and
/// capacity ratio).
pub fn fig18() -> Vec<(String, PowerBreakdown)> {
    let model = CryoPowerModel::default();
    let mut out = vec![("Uncompressed".to_string(), model.breakdown(&CryoDesign::Uncompressed))];
    for ws in [8, 16] {
        let report = machine_report("guadalupe", Variant::IntDctW { ws });
        let (words, cap) = library_power_stats(&report, ws);
        let b = model.breakdown(&CryoDesign::Compressed {
            ws,
            avg_words_per_window: words,
            capacity_ratio: cap,
        });
        out.push((format!("WS={ws}"), b));
    }
    out
}

/// Figure 19: adaptive decompression power on a 100 ns flat-top.
pub fn fig19() -> Vec<(String, PowerBreakdown)> {
    use compaqt_pulse::shapes::{GaussianSquare, PulseShape};
    let flat = GaussianSquare::new(454, 0.35, 12.0, 360).to_waveform("flat-100ns", 4.54);
    let model = CryoPowerModel::default();
    let mut out = vec![("Uncompressed".to_string(), model.breakdown(&CryoDesign::Uncompressed))];
    for ws in [8, 16] {
        let z = AdaptiveCompressor::new(Variant::IntDctW { ws })
            .compress(&flat)
            .expect("flat-top has a plateau");
        let plain = Compressor::new(Variant::IntDctW { ws }).compress(&flat).expect("ok");
        let words = mean_words_per_window(&plain);
        let b = model.breakdown(&CryoDesign::Adaptive {
            ws,
            avg_words_per_window: words,
            capacity_ratio: z.ratio().ratio(),
            bypass_fraction: z.bypass_fraction(),
        });
        out.push((format!("WS={ws} adaptive"), b));
    }
    out
}

/// Figure 20: mean compression time per waveform for three machines.
pub fn fig20() -> Vec<(String, usize, f64, f64)> {
    ["bogota", "guadalupe", "hanoi"]
        .iter()
        .map(|m| {
            let device = Device::named_machine(m);
            let lib = device.pulse_library();
            let mut times = Vec::new();
            for ws in [8, 16] {
                let c = Compressor::new(Variant::IntDctW { ws });
                let start = Instant::now();
                for (_, wf) in lib.iter() {
                    let _ = c.compress(wf).expect("supported");
                }
                times.push(start.elapsed().as_secs_f64() / lib.len() as f64);
            }
            (format!("ibm_{m}"), lib.len(), times[0], times[1])
        })
        .collect()
}

/// Table IX: compression ratios of the complex/emerging gate pulses.
pub fn tab09() -> Vec<(String, f64)> {
    let lib = compaqt_pulse::exotic::table_ix_library(7);
    let c = Compressor::new(Variant::IntDctW { ws: 16 });
    let mut out = Vec::new();
    let mut fluxonium = Vec::new();
    for (gate, wf) in lib.iter() {
        let r = c.compress(wf).expect("supported").ratio().ratio();
        let name = format!("{}", gate.kind);
        if name.starts_with("fluxonium") {
            fluxonium.push(r);
        } else {
            out.push((name, r));
        }
    }
    if !fluxonium.is_empty() {
        let avg = fluxonium.iter().sum::<f64>() / fluxonium.len() as f64;
        out.push(("Fluxonium X/X2/Y2/Z2 (avg)".to_string(), avg));
    }
    out
}

/// Compresses a large machine's library across an explicit number of
/// scoped worker threads (the calibration-cycle recompression path for
/// 100+ qubit machines). Returns `(waveforms, seconds, overall ratio)`.
///
/// The production compile ([`compaqt_core::stats::compress_library`])
/// is sequential; this runner pins the worker count so Figure 20 can
/// report per-thread scaling.
pub fn parallel_compress_stats(machine: &str, ws: usize, threads: usize) -> (usize, f64, f64) {
    let device = Device::named_machine(machine);
    let lib = device.pulse_library();
    let waveforms: Vec<_> = lib.iter().map(|(_, wf)| wf.clone()).collect();
    let compressor = Compressor::new(Variant::IntDctW { ws });
    let start = Instant::now();
    let chunk = waveforms.len().div_ceil(threads.max(1));
    let sizes: Vec<(usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = waveforms
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut old = 0usize;
                    let mut new = 0usize;
                    for wf in slice {
                        let z = compressor.compress(wf).expect("supported");
                        let r = z.ratio();
                        old += r.old_size();
                        new += r.new_size();
                    }
                    (old, new)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker")).collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let (old, new): (usize, usize) = sizes.iter().fold((0, 0), |(a, b), &(o, n)| (a + o, b + n));
    (waveforms.len(), secs, old as f64 / new.max(1) as f64)
}

/// Average stored words per window and capacity ratio of a compressed
/// library (the power model's inputs).
pub fn library_power_stats(report: &LibraryReport, _ws: usize) -> (f64, f64) {
    let hist = report.samples_per_window_histogram();
    let total: usize = hist.values().sum();
    let weighted: usize = hist.iter().map(|(&w, &n)| w * n).sum();
    let avg_words = weighted as f64 / total.max(1) as f64;
    (avg_words, report.overall.ratio())
}

fn mean_words_per_window(z: &compaqt_core::compress::CompressedWaveform) -> f64 {
    let counts: Vec<usize> =
        z.i.window_word_counts().into_iter().chain(z.q.window_word_counts()).collect();
    counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig07a_covers_five_waveforms_and_four_variants() {
        let data = fig07a();
        assert_eq!(data.len(), 5);
        assert!(data.iter().all(|(_, per)| per.len() == 4));
    }

    #[test]
    fn tab07_averages_exceed_four() {
        for (machine, min, max, avg) in tab07() {
            assert!(avg > 4.0, "{machine}: avg {avg}");
            assert!(min <= avg && avg <= max);
        }
    }

    #[test]
    fn fig18_power_decreases_with_compression() {
        let rows = fig18();
        let base = rows[0].1.total_mw();
        for (name, b) in &rows[1..] {
            assert!(b.total_mw() < base, "{name}: {} vs {base}", b.total_mw());
        }
    }

    #[test]
    fn library_power_stats_are_sane() {
        let report = machine_report("lima", Variant::IntDctW { ws: 16 });
        let (words, cap) = library_power_stats(&report, 16);
        assert!((1.0..6.0).contains(&words), "words {words}");
        assert!(cap > 3.0, "cap {cap}");
    }
}
