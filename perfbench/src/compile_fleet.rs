//! `compile_fleet`: the calibration-cycle compile (paper Fig. 20). Each
//! pass compiles the 433-qubit heavy-hex library with `compress_into`,
//! writes a CWL container to a file, maps it back with lazy CRC
//! checking and fetches every gate once, checked bit-exact. Stresses
//! encode and the container layers; bypasses the wire and the hot set.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use compaqt::core::compress::CompressedWaveform;
use compaqt::core::engine::EncodeScratch;
use compaqt::io::{ContainerScratch, ContainerSource, Reader, ReaderOptions, Writer};

use crate::common::{
    alternate, blocks, compressor, median, repeated_setup, time_setup, Block, E2e, Library, Opts,
    Outcome, Samples, Window, WINDOWS,
};

const DEVICE: &str = "hex-433";
/// Scratch directory for the pass's container file, relative to the
/// working directory (the checkout root); `main` removes it at exit.
pub const TMP_DIR: &str = ".perfbench_tmp";

struct Setup {
    lib: Library,
    path: PathBuf,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn setup(opts: &Opts) -> Setup {
    let mut lib = Library::build(DEVICE, opts.seed);
    if opts.corrupt_reference {
        lib.refs[0].corrupt();
    }
    static SETUPS_MADE: AtomicUsize = AtomicUsize::new(0);
    let k = SETUPS_MADE.fetch_add(1, Ordering::Relaxed);
    let path = PathBuf::from(TMP_DIR).join(format!("compile_fleet-{}-{k}.cwl", std::process::id()));
    Setup { lib, path }
}

/// Spans of one pass. The `traced_*` fields stay empty when untraced.
#[derive(Default)]
struct Pass {
    /// Compile through first-touch scan, in seconds.
    pass_s: f64,
    /// Per gate: encode + add to the writer.
    recal: Samples,
    /// Per gate: first-touch `fetch_into` (payload CRC included).
    fetch: Samples,
    output_samples: u64,
    container_bytes: usize,
    attempted: u64,
    failed: u64,
    traced_encode: Samples,
    traced_add: Samples,
    traced_finish_s: f64,
    traced_open_s: f64,
    traced_warm: Samples,
    traced_crc_checked: usize,
}

struct Buffers {
    enc: EncodeScratch,
    z: CompressedWaveform,
    scratch: ContainerScratch,
    i: Vec<f64>,
    q: Vec<f64>,
}

fn buffers() -> Buffers {
    Buffers {
        enc: EncodeScratch::new(),
        z: CompressedWaveform::empty(),
        scratch: ContainerScratch::new(),
        i: Vec::new(),
        q: Vec::new(),
    }
}

fn pass(s: &Setup, b: &mut Buffers, traced: bool) -> Pass {
    let compressor = compressor();
    let n = s.lib.gates.len();
    let mut p = Pass {
        recal: Samples::with_capacity(n),
        fetch: Samples::with_capacity(n),
        ..Pass::default()
    };
    let started = Instant::now();
    let mut writer = Writer::new();
    for (gate, wf) in s.lib.gates.iter().zip(&s.lib.waveforms) {
        let t0 = Instant::now();
        compressor.compress_into(wf, &mut b.enc, &mut b.z).expect("library waveforms compress");
        let t1 = Instant::now();
        writer.add(gate, &b.z).expect("design-point streams serialize");
        let t2 = Instant::now();
        p.recal.push(t0, t2);
        if traced {
            p.traced_encode.push(t0, t1);
            p.traced_add.push(t1, t2);
        }
    }
    let t0 = Instant::now();
    let bytes = writer.finish().expect("the container finishes");
    p.traced_finish_s = t0.elapsed().as_secs_f64();
    p.container_bytes = bytes.len();
    std::fs::create_dir_all(TMP_DIR).expect("create the scratch directory");
    std::fs::write(&s.path, &bytes).expect("write the container file");
    drop(bytes);
    let t0 = Instant::now();
    let source = ContainerSource::map_path(&s.path).expect("map the container file");
    let reader = Reader::open(source, ReaderOptions::lazy_crc()).expect("the container opens");
    p.traced_open_s = t0.elapsed().as_secs_f64();
    for (gate, reference) in s.lib.gates.iter().zip(&s.lib.refs) {
        let t0 = Instant::now();
        let result = reader.fetch_into(gate, &mut b.scratch, &mut b.i, &mut b.q);
        let t1 = Instant::now();
        p.attempted += 1;
        match result {
            Ok(stats) => {
                p.fetch.push(t0, t1);
                p.output_samples += stats.output_samples as u64;
                if !reference.matches(&b.i, &b.q) {
                    p.failed += 1;
                }
            }
            Err(_) => p.failed += 1,
        }
    }
    p.pass_s = started.elapsed().as_secs_f64();
    if traced {
        p.traced_crc_checked = reader.crc_checked();
        p.traced_warm = Samples::with_capacity(n);
        for gate in &s.lib.gates {
            let t0 = Instant::now();
            let result = reader.fetch_into(gate, &mut b.scratch, &mut b.i, &mut b.q);
            p.traced_warm.push(t0, Instant::now());
            if result.is_err() {
                p.failed += 1;
            }
        }
    }
    p
}

/// One block of back-to-back untraced passes: [`WINDOWS`] windows of
/// `window_s` (at least one pass each); `compile_s` is the block's
/// median pass time.
fn pass_block(s: &Setup, b: &mut Buffers, window_s: f64) -> Block {
    let mut block = Block::default();
    let mut pass_s = Vec::new();
    for _ in 0..WINDOWS {
        let started = Instant::now();
        let deadline = started + Duration::from_secs_f64(window_s);
        let mut win = Window::default();
        loop {
            let p = pass(s, b, false);
            win.fetch.extend(&p.fetch);
            win.recal.extend(&p.recal);
            win.output_samples += p.output_samples;
            block.attempted += p.attempted;
            block.failed += p.failed;
            pass_s.push(p.pass_s);
            if Instant::now() >= deadline {
                break;
            }
        }
        win.secs = started.elapsed().as_secs_f64();
        block.windows.push(win);
    }
    block.compile_s = median(&pass_s);
    block
}

/// The untraced run: every end-to-end metric.
pub fn run(opts: &Opts) -> Outcome {
    let (s, mut setups) = repeated_setup(|| setup(opts));
    let mut b = buffers();
    // An untimed first pass warms the buffers and sizes the container.
    let warm = pass(&s, &mut b, false);
    let bytes_per_sample = warm.container_bytes as f64 / s.lib.total_samples as f64;
    let blocks = blocks(opts.seconds, |window_s| {
        let block = pass_block(&s, &mut b, window_s);
        setups.push(time_setup(|| setup(opts)));
        block
    });
    let gates = blocks.iter().flat_map(|b| &b.windows).map(|w| w.recal.len()).sum::<usize>();
    let passes = gates / s.lib.gates.len();
    let mut out = E2e { blocks, bytes_per_sample, setups }.into_outcome();
    out.attempted += warm.attempted;
    out.failed += warm.failed;
    out.note(format!("compile_s is a per-block median pass time over n={passes} passes"));
    out
}

/// The traced run: untraced and traced passes alternate; each traced
/// pass times every layer call and re-scans warm to split out the CRC
/// share.
pub fn run_traced(opts: &Opts) -> Outcome {
    let s = setup(opts);
    let mut b = buffers();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    alternate(opts.seconds, |window_s, is_traced| {
        let deadline = Instant::now() + Duration::from_secs_f64(window_s);
        loop {
            let p = pass(&s, &mut b, is_traced);
            if is_traced {
                traced.push(p)
            } else {
                plain.push(p)
            }
            if Instant::now() >= deadline {
                break;
            }
        }
    });
    let (mut encode, mut add, mut first, mut warm) =
        (Samples::default(), Samples::default(), Samples::default(), Samples::default());
    let mut out = Outcome::default();
    for p in plain.iter().chain(&traced) {
        out.attempted += p.attempted;
        out.failed += p.failed;
    }
    for p in &traced {
        encode.extend(&p.traced_encode);
        add.extend(&p.traced_add);
        first.extend(&p.fetch);
        warm.extend(&p.traced_warm);
    }
    let pass_median = |ps: &[Pass]| median(&ps.iter().map(|p| p.pass_s).collect::<Vec<_>>());
    let finish: Vec<f64> = traced.iter().map(|p| p.traced_finish_s).collect();
    let open: Vec<f64> = traced.iter().map(|p| p.traced_open_s).collect();
    out.metric("compile_fleet.engine.encode_us", encode.median_ns() / 1e3, "us");
    out.metric("compile_fleet.writer.add_us", add.median_ns() / 1e3, "us");
    out.metric("compile_fleet.writer.finish_ms", median(&finish) * 1e3, "ms");
    out.metric("compile_fleet.reader.open_ms", median(&open) * 1e3, "ms");
    out.metric("compile_fleet.reader.first_touch_us", first.median_ns() / 1e3, "us");
    out.metric("compile_fleet.reader.warm_fetch_us", warm.median_ns() / 1e3, "us");
    out.metric("compile_fleet.reader.crc_checked", traced[0].traced_crc_checked as f64, "count");
    out.metric(
        "compile_fleet.trace_overhead_pct",
        (pass_median(&traced) / pass_median(&plain) - 1.0) * 100.0,
        "%",
    );
    out.note(format!(
        "compile_fleet traced: n={} passes (untraced n={}), n={} gate encodes",
        traced.len(),
        plain.len(),
        encode.len()
    ));
    out
}

/// Exact counts of one pass for a seed, for the repeatability test:
/// (container bytes, waveform samples, entries CRC-checked by a scan).
#[cfg(test)]
pub fn pass_counts(seed: u64) -> (usize, usize, usize) {
    let s = setup(&Opts { seed, seconds: 0.0, corrupt_reference: false });
    let p = pass(&s, &mut buffers(), true);
    (p.container_bytes, s.lib.total_samples, p.traced_crc_checked)
}
