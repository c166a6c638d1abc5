//! Registry-driven scenario runner: one pipeline, a whole fleet.
//!
//! For each declarative device description
//! ([`DeviceSpec`]) this module
//! builds the pulse library, compresses it with a matrix of codec
//! variants, round-trips every stream through a CWL container (and, for
//! plain streams, through a serving [`Store`]), verifies the decoded
//! samples are **bit-identical** on every path, and reports one
//! [`ScenarioRow`] per `(device, variant)` with compression ratio,
//! fidelity and size. The `tests/scenario_matrix.rs` suite, the
//! `registry_explorer` example and the informational per-device bench
//! rows all consume this one runner — "handles many scenarios" as an
//! enumerable matrix instead of a single fixture.

use crate::{
    write_report, ContainerError, ContainerScratch, FetchError, FetchSource, Reader, ReaderOptions,
    StreamPayload, Writer,
};
use compaqt_core::adaptive::AdaptiveCompressor;
use compaqt_core::compress::{Compressor, Variant};
use compaqt_core::engine::{DecodeScratch, DecompressionEngine};
use compaqt_core::overlap::OverlapCompressor;
use compaqt_core::stats::compress_library;
use compaqt_core::store::{Store, StoreConfig, StoreError};
use compaqt_core::CompressError;
use compaqt_dsp::metrics::mse;
use compaqt_pulse::library::{GateId, PulseLibrary};
use compaqt_pulse::registry::DeviceSpec;
use compaqt_pulse::waveform::Waveform;
use std::fmt;

/// One cell of the compression matrix: which codec path a scenario run
/// exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioVariant {
    /// A plain windowed/delta stream — servable through the [`Store`].
    Plain(Variant),
    /// An overlapped-window stream (container round-trip only).
    Overlap {
        /// Lapped window size.
        ws: usize,
    },
    /// An adaptive IDCT-bypass stream (container round-trip only).
    Adaptive(Variant),
}

impl ScenarioVariant {
    /// Human-readable label for rows and logs.
    pub fn label(&self) -> String {
        match self {
            ScenarioVariant::Plain(v) => v.label(),
            ScenarioVariant::Overlap { ws } => format!("Overlap (WS={ws})"),
            ScenarioVariant::Adaptive(v) => format!("Adaptive [{}]", v.label()),
        }
    }

    /// The full matrix: every codec family the repo implements — the
    /// delta baseline, full-length DCT, float and integer windowed DCTs
    /// at several window sizes, a lapped stream and an adaptive stream.
    pub fn full_matrix() -> Vec<ScenarioVariant> {
        vec![
            ScenarioVariant::Plain(Variant::Delta),
            ScenarioVariant::Plain(Variant::DctN),
            ScenarioVariant::Plain(Variant::DctW { ws: 16 }),
            ScenarioVariant::Plain(Variant::IntDctW { ws: 8 }),
            ScenarioVariant::Plain(Variant::IntDctW { ws: 16 }),
            ScenarioVariant::Plain(Variant::IntDctW { ws: 32 }),
            ScenarioVariant::Overlap { ws: 16 },
            ScenarioVariant::Adaptive(Variant::IntDctW { ws: 16 }),
        ]
    }

    /// A one-variant smoke matrix (the paper's design point) for runs
    /// where the full matrix would be too slow — debug-profile tests on
    /// the larger fleet devices.
    pub fn smoke_matrix() -> Vec<ScenarioVariant> {
        vec![ScenarioVariant::Plain(Variant::IntDctW { ws: 16 })]
    }
}

/// The outcome of one `(device, variant)` scenario run. All verification
/// (container round-trip, store round-trip, bit-exactness) has already
/// passed when a row is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioRow {
    /// Registry device name.
    pub device: String,
    /// Device qubit count.
    pub qubits: usize,
    /// Variant label ([`ScenarioVariant::label`]).
    pub variant: String,
    /// Waveforms in the device's pulse library.
    pub gates: usize,
    /// Uncompressed library size at the vendor's packed sample width.
    pub uncompressed_bytes: usize,
    /// Finished CWL container size in bytes.
    pub container_bytes: usize,
    /// Overall compression ratio (old bits / new bits).
    pub ratio: f64,
    /// Mean per-waveform reconstruction MSE (fidelity).
    pub mean_mse: f64,
    /// Hot-set hit rate observed on the store re-fetch pass (`None` for
    /// lapped/adaptive streams, which the store cannot serve).
    pub store_hit_rate: Option<f64>,
}

/// Everything that can fail while running a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The codec layer rejected a stream.
    Codec(CompressError),
    /// The container layer rejected bytes it produced (never expected).
    Container(ContainerError),
    /// The serving store rejected a fetch.
    Store(StoreError),
    /// A source-generic fetch path rejected a fetch.
    Fetch(FetchError),
    /// A decode path disagreed with the direct decode — the invariant
    /// the whole matrix exists to enforce.
    Mismatch {
        /// Device name.
        device: String,
        /// Variant label.
        variant: String,
        /// The gate whose samples differed.
        gate: String,
        /// Which path disagreed.
        path: &'static str,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Codec(e) => write!(f, "scenario codec failure: {e}"),
            ScenarioError::Container(e) => write!(f, "scenario container failure: {e}"),
            ScenarioError::Store(e) => write!(f, "scenario store failure: {e}"),
            ScenarioError::Fetch(e) => write!(f, "scenario fetch-source failure: {e}"),
            ScenarioError::Mismatch { device, variant, gate, path } => {
                write!(f, "bit mismatch on {path} for gate {gate} ({device}, {variant})")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Codec(e) => Some(e),
            ScenarioError::Container(e) => Some(e),
            ScenarioError::Store(e) => Some(e),
            ScenarioError::Fetch(e) => Some(e),
            ScenarioError::Mismatch { .. } => None,
        }
    }
}

impl From<CompressError> for ScenarioError {
    fn from(e: CompressError) -> Self {
        ScenarioError::Codec(e)
    }
}

impl From<ContainerError> for ScenarioError {
    fn from(e: ContainerError) -> Self {
        ScenarioError::Container(e)
    }
}

impl From<StoreError> for ScenarioError {
    fn from(e: StoreError) -> Self {
        ScenarioError::Store(e)
    }
}

impl From<FetchError> for ScenarioError {
    fn from(e: FetchError) -> Self {
        ScenarioError::Fetch(e)
    }
}

fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs the scenario matrix for one device: build library, compress with
/// every listed variant, round-trip through a CWL container (plus the
/// [`Store`] for plain streams), verify bit-exactness, report rows.
///
/// # Errors
///
/// The first codec/container/store failure, or a [`ScenarioError::Mismatch`]
/// if any decode path is not bit-identical to the direct decode.
pub fn run_device(
    spec: &DeviceSpec,
    variants: &[ScenarioVariant],
) -> Result<Vec<ScenarioRow>, ScenarioError> {
    let library = spec.build_library();
    let uncompressed_bytes = library.total_storage_bytes(spec.vendor.params().sample_bits);
    let mut rows = Vec::with_capacity(variants.len());
    for variant in variants {
        let (container_bytes, ratio, mean_mse, store_hit_rate) = match variant {
            ScenarioVariant::Plain(v) => run_plain(spec, &library, *v, variant)?,
            ScenarioVariant::Overlap { ws } => run_overlap(spec, &library, *ws, variant)?,
            ScenarioVariant::Adaptive(v) => run_adaptive(spec, &library, *v, variant)?,
        };
        rows.push(ScenarioRow {
            device: spec.name.clone(),
            qubits: spec.n_qubits(),
            variant: variant.label(),
            gates: library.len(),
            uncompressed_bytes,
            container_bytes,
            ratio,
            mean_mse,
            store_hit_rate,
        });
    }
    Ok(rows)
}

/// Runs [`run_device`] over a list of descriptions, concatenating rows.
///
/// # Errors
///
/// Stops at the first device that fails (see [`run_device`]).
pub fn run_fleet<'a>(
    specs: impl IntoIterator<Item = &'a DeviceSpec>,
    variants: &[ScenarioVariant],
) -> Result<Vec<ScenarioRow>, ScenarioError> {
    let mut rows = Vec::new();
    for spec in specs {
        rows.extend(run_device(spec, variants)?);
    }
    Ok(rows)
}

fn mismatch(
    spec: &DeviceSpec,
    variant: &ScenarioVariant,
    gate: &GateId,
    path: &'static str,
) -> ScenarioError {
    ScenarioError::Mismatch {
        device: spec.name.clone(),
        variant: variant.label(),
        gate: gate.to_string(),
        path,
    }
}

/// Plain streams take the full trip: compress → container → `Reader`
/// random access → `Store` bulk load → `fetch_into` / `fetch_cached`,
/// every leg compared bit-for-bit against the engine's direct decode.
fn run_plain(
    spec: &DeviceSpec,
    library: &PulseLibrary,
    v: Variant,
    variant: &ScenarioVariant,
) -> Result<(usize, f64, f64, Option<f64>), ScenarioError> {
    let report = compress_library(library, &Compressor::new(v))?;
    let ratio = report.overall.ratio();
    let mean_mse = report.mean_mse();

    // Reference decodes, straight through the engine, before the report's
    // streams move anywhere.
    let engine = DecompressionEngine::for_variant(v)?;
    let mut scratch = DecodeScratch::new();
    let mut reference: Vec<(GateId, Vec<f64>, Vec<f64>)> =
        Vec::with_capacity(report.waveforms.len());
    for w in &report.waveforms {
        let (mut i, mut q) = (Vec::new(), Vec::new());
        engine.decompress_into(&w.compressed, &mut scratch, &mut i, &mut q)?;
        reference.push((w.gate.clone(), i, q));
    }

    let bytes = write_report(&report)?;
    let container_bytes = bytes.len();

    // Path 1: container random-access decode.
    let reader = Reader::open(bytes.clone(), ReaderOptions::default())?;
    let mut cscratch = ContainerScratch::new();
    let (mut i_buf, mut q_buf) = (Vec::new(), Vec::new());
    for (gate, ri, rq) in &reference {
        reader.fetch_into(gate, &mut cscratch, &mut i_buf, &mut q_buf)?;
        if !bits_equal(&i_buf, ri) || !bits_equal(&q_buf, rq) {
            return Err(mismatch(spec, variant, gate, "Reader::fetch_into"));
        }
    }

    // Path 1b: source-generic serving straight from a lazily-validated
    // reader — the larger-than-RAM deployment shape, no store loaded.
    // Every decode is a first touch through the deferred-CRC gate and
    // must still be bit-exact.
    let lazy = Reader::open(bytes.clone(), ReaderOptions::lazy_crc())?;
    let source: &dyn FetchSource = &lazy;
    for (gate, ri, rq) in &reference {
        source.fetch_gate(gate, &mut cscratch, &mut i_buf, &mut q_buf)?;
        if !bits_equal(&i_buf, ri) || !bits_equal(&q_buf, rq) {
            return Err(mismatch(spec, variant, gate, "FetchSource::fetch_gate (lazy reader)"));
        }
    }
    drop(lazy);

    // Path 2: container → store bulk load, then single-gate serving.
    // `hot_capacity` is a global bound, so the library's own size is
    // exactly enough: no eviction during the verification scans.
    let config = StoreConfig { shards: 4, hot_capacity: library.len() };
    let store: Store = reader.into_store(config)?;
    for (gate, ri, rq) in &reference {
        store.fetch_into(gate, &mut i_buf, &mut q_buf)?;
        if !bits_equal(&i_buf, ri) || !bits_equal(&q_buf, rq) {
            return Err(mismatch(spec, variant, gate, "Store::fetch_into"));
        }
    }
    // Cached path twice: the first pass decodes (misses), the second must
    // be served hot and still bit-exact.
    for _ in 0..2 {
        for (gate, ri, rq) in &reference {
            let wf = store.fetch_cached(gate)?;
            if !bits_equal(wf.i(), ri) || !bits_equal(wf.q(), rq) {
                return Err(mismatch(spec, variant, gate, "Store::fetch_cached"));
            }
        }
    }
    let hit_rate = store.stats().hit_rate();
    Ok((container_bytes, ratio, mean_mse, Some(hit_rate)))
}

/// Lapped streams round-trip through the container as structured
/// payloads: the parsed stream must equal the staged one exactly, and
/// its decode must be bit-identical to the direct decode.
fn run_overlap(
    spec: &DeviceSpec,
    library: &PulseLibrary,
    ws: usize,
    variant: &ScenarioVariant,
) -> Result<(usize, f64, f64, Option<f64>), ScenarioError> {
    let compressor = OverlapCompressor::new(ws)?;
    let mut writer = Writer::new();
    let mut staged = Vec::with_capacity(library.len());
    let mut overall: Option<compaqt_dsp::metrics::CompressionRatio> = None;
    let mut mse_sum = 0.0;
    for (gate, wf) in library.iter_sorted() {
        let z = compressor.compress(wf)?;
        writer.add_overlap(gate, &z)?;
        let ratio = z.ratio();
        overall = Some(match overall {
            Some(acc) => acc.combine(&ratio),
            None => ratio,
        });
        let decoded = z.decompress()?;
        mse_sum += (mse(wf.i(), decoded.i()) + mse(wf.q(), decoded.q())) / 2.0;
        staged.push((gate.clone(), z, decoded));
    }
    let bytes = writer.finish()?;
    let reader = Reader::open(bytes.clone(), ReaderOptions::default())?;
    for (gate, z, decoded) in &staged {
        let entry = reader.find(gate).ok_or_else(|| ContainerError::UnknownGate(gate.clone()))?;
        let StreamPayload::Overlap(parsed) = entry.read()? else {
            return Err(mismatch(spec, variant, gate, "Entry::read payload kind"));
        };
        if &parsed != z {
            return Err(mismatch(spec, variant, gate, "Overlap stream round-trip"));
        }
        let redecoded = parsed.decompress()?;
        if !waveforms_bit_equal(&redecoded, decoded) {
            return Err(mismatch(spec, variant, gate, "Overlap decode"));
        }
    }
    let ratio = overall.map_or(0.0, |r| r.ratio());
    let mean_mse = mse_sum / staged.len().max(1) as f64;
    Ok((bytes.len(), ratio, mean_mse, None))
}

/// A stream staged for the adaptive matrix cell: adaptive where the
/// pulse has a usable plateau, the plain windowed codec elsewhere (the
/// fallback the adaptive compressor documents for plateau-less pulses —
/// short DRAG 1Q gates have no flat top).
#[derive(Debug)]
enum StagedAdaptive {
    Plain(compaqt_core::compress::CompressedWaveform),
    Adaptive(compaqt_core::adaptive::AdaptiveCompressed),
}

/// Adaptive streams: same structured round-trip as lapped streams, with
/// the documented plain-codec fallback for plateau-less pulses — so one
/// container mixes both payload kinds, like a production library would.
fn run_adaptive(
    spec: &DeviceSpec,
    library: &PulseLibrary,
    v: Variant,
    variant: &ScenarioVariant,
) -> Result<(usize, f64, f64, Option<f64>), ScenarioError> {
    let compressor = AdaptiveCompressor::new(v);
    let fallback = Compressor::new(v);
    let mut writer = Writer::new();
    let mut staged = Vec::with_capacity(library.len());
    let mut overall: Option<compaqt_dsp::metrics::CompressionRatio> = None;
    let mut mse_sum = 0.0;
    for (gate, wf) in library.iter_sorted() {
        let (z, ratio, decoded) = match compressor.compress(wf) {
            Ok(z) => {
                writer.add_adaptive(gate, &z)?;
                let ratio = z.ratio();
                let (decoded, _) = z.decompress()?;
                (StagedAdaptive::Adaptive(z), ratio, decoded)
            }
            Err(CompressError::NoPlateau) => {
                let z = fallback.compress(wf)?;
                writer.add(gate, &z)?;
                let ratio = z.ratio();
                let decoded = z.decompress()?;
                (StagedAdaptive::Plain(z), ratio, decoded)
            }
            Err(e) => return Err(e.into()),
        };
        overall = Some(match overall {
            Some(acc) => acc.combine(&ratio),
            None => ratio,
        });
        mse_sum += (mse(wf.i(), decoded.i()) + mse(wf.q(), decoded.q())) / 2.0;
        staged.push((gate.clone(), z, decoded));
    }
    let bytes = writer.finish()?;
    let reader = Reader::open(bytes.clone(), ReaderOptions::default())?;
    let mut adaptive_entries = 0usize;
    for (gate, z, decoded) in &staged {
        let entry = reader.find(gate).ok_or_else(|| ContainerError::UnknownGate(gate.clone()))?;
        let redecoded = match (entry.read()?, z) {
            (StreamPayload::Adaptive(parsed), StagedAdaptive::Adaptive(z)) => {
                if &parsed != z {
                    return Err(mismatch(spec, variant, gate, "Adaptive stream round-trip"));
                }
                adaptive_entries += 1;
                parsed.decompress()?.0
            }
            (StreamPayload::Plain(parsed), StagedAdaptive::Plain(z)) => {
                if &parsed != z {
                    return Err(mismatch(spec, variant, gate, "Plain-fallback round-trip"));
                }
                parsed.decompress()?
            }
            _ => return Err(mismatch(spec, variant, gate, "Entry::read payload kind")),
        };
        if !waveforms_bit_equal(&redecoded, decoded) {
            return Err(mismatch(spec, variant, gate, "Adaptive decode"));
        }
    }
    // Every library in the fleet has flat-top pulses (CR / readout /
    // iToffoli), so a matrix cell that silently degraded to all-plain
    // would be a bug, not a property of the input.
    if adaptive_entries == 0 {
        if let Some((gate, _, _)) = staged.first() {
            return Err(mismatch(spec, variant, gate, "no adaptive entries staged"));
        }
    }
    let ratio = overall.map_or(0.0, |r| r.ratio());
    let mean_mse = mse_sum / staged.len().max(1) as f64;
    Ok((bytes.len(), ratio, mean_mse, None))
}

fn waveforms_bit_equal(a: &Waveform, b: &Waveform) -> bool {
    bits_equal(a.i(), b.i()) && bits_equal(a.q(), b.q())
}

#[cfg(test)]
mod tests {
    use super::*;
    use compaqt_pulse::registry::{Registry, TopologyKind};
    use compaqt_pulse::vendor::Vendor;

    fn tiny_spec() -> DeviceSpec {
        DeviceSpec::transmon("tiny", Vendor::Ibm, TopologyKind::Line, 3, 0x7E57)
    }

    #[test]
    fn tiny_device_full_matrix_round_trips() {
        let rows = run_device(&tiny_spec(), &ScenarioVariant::full_matrix()).unwrap();
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert_eq!(row.device, "tiny");
            assert_eq!(row.qubits, 3);
            assert!(row.ratio > 1.0, "{}: ratio {}", row.variant, row.ratio);
            assert!(row.container_bytes > 0);
            assert!(row.mean_mse.is_finite());
        }
        // Plain rows exercised the store; lapped/adaptive rows could not.
        let plain = rows.iter().filter(|r| r.store_hit_rate.is_some()).count();
        assert_eq!(plain, 6);
        // The second fetch_cached pass must have hit the hot set.
        for row in rows.iter().filter(|r| r.store_hit_rate.is_some()) {
            assert!(row.store_hit_rate.unwrap() >= 0.5, "{}", row.variant);
        }
    }

    #[test]
    fn exotic_device_runs_the_matrix() {
        let spec = Registry::builtin().get("exotic-tableix").cloned().unwrap();
        let rows = run_device(&spec, &ScenarioVariant::smoke_matrix()).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].gates, 7);
        assert!(rows[0].ratio > 2.0, "exotic pulses compress well: {}", rows[0].ratio);
    }

    #[test]
    fn fleet_runner_concatenates_rows() {
        let specs = [tiny_spec(), DeviceSpec::exotic("x", 1)];
        let rows = run_fleet(specs.iter(), &ScenarioVariant::smoke_matrix()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].device, "tiny");
        assert_eq!(rows[1].device, "x");
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> =
            ScenarioVariant::full_matrix().iter().map(|v| v.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }
}
