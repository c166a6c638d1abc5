//! The container writer: stage borrowed streams, emit canonical bytes.
//!
//! [`Writer::add`] serializes each stream's payload immediately (so the
//! caller's stream is only *borrowed* — nothing is cloned and nothing
//! outlives the call), and [`Writer::finish`] stitches the container:
//! entries sorted by gate id, payloads laid out contiguously in index
//! order, offsets and CRC-32s computed over the final layout. Because
//! the index order is a pure function of the gate set, **the same
//! library produces byte-identical containers regardless of the order
//! streams were added** — the determinism the round-trip suite pins.

use crate::format::{
    checked_u32, encode_variant, put_adaptive, put_gate, put_overlap, put_plain, PayloadKind,
    HEADER_BYTES,
};
use crate::{crc32::crc32, ContainerError, MAGIC, VERSION};
use bytes::{BufMut, Bytes, BytesMut};
use compaqt_core::adaptive::AdaptiveCompressed;
use compaqt_core::compress::{CompressedWaveform, Compressor, Variant};
use compaqt_core::engine::EncodeScratch;
use compaqt_core::overlap::OverlapCompressed;
use compaqt_core::stats::LibraryReport;
use compaqt_core::store::Store;
use compaqt_pulse::library::{GateId, PulseLibrary};

/// One staged entry: the payload already serialized into the staging
/// buffer, waiting for `finish` to place it in canonical order.
#[derive(Debug)]
struct Pending {
    gate: GateId,
    kind: PayloadKind,
    variant: Variant,
    /// Payload byte range in the staging buffer.
    start: usize,
    len: usize,
    /// The stream's own DAC rate (for the uniform-rate header field).
    rate_gs: f64,
}

/// A streaming container writer. See the [module docs](self) for the
/// canonical-bytes contract.
///
/// # Example
///
/// ```
/// use compaqt_core::compress::{Compressor, Variant};
/// use compaqt_io::{Reader, ReaderOptions, Writer};
/// use compaqt_pulse::shapes::{Drag, PulseShape};
/// use compaqt_pulse::library::{GateId, GateKind};
///
/// let wf = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54);
/// let z = Compressor::new(Variant::IntDctW { ws: 16 }).compress(&wf)?;
/// let mut writer = Writer::new();
/// writer.add(&GateId::single(GateKind::X, 0), &z)?;
/// let reader = Reader::open(writer.finish()?, ReaderOptions::default())?;
/// assert_eq!(reader.len(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    staging: BytesMut,
    entries: Vec<Pending>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Entries staged so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing has been staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stages a plain compressed stream for `gate` (the stream is
    /// serialized now and only borrowed for this call).
    ///
    /// # Errors
    ///
    /// [`ContainerError::Unrepresentable`] if a name or qubit list
    /// exceeds the format's field widths. Duplicate gates are reported
    /// at [`Writer::finish`].
    pub fn add(&mut self, gate: &GateId, z: &CompressedWaveform) -> Result<(), ContainerError> {
        self.stage(gate, PayloadKind::Plain, z.variant, z.sample_rate_gs, |buf| put_plain(buf, z))
    }

    /// Stages an overlapped-window stream for `gate`. The index records
    /// it as a float windowed variant at the lapped window size.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Unrepresentable`] on oversized fields.
    pub fn add_overlap(
        &mut self,
        gate: &GateId,
        z: &OverlapCompressed,
    ) -> Result<(), ContainerError> {
        let variant = Variant::DctW { ws: z.ws };
        self.stage(gate, PayloadKind::Overlap, variant, z.sample_rate_gs, |buf| put_overlap(buf, z))
    }

    /// Stages an adaptive IDCT-bypass stream for `gate`. The index
    /// records the ramp-segment variant.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Unrepresentable`] on oversized fields.
    pub fn add_adaptive(
        &mut self,
        gate: &GateId,
        z: &AdaptiveCompressed,
    ) -> Result<(), ContainerError> {
        self.stage(gate, PayloadKind::Adaptive, z.variant, z.sample_rate_gs, |buf| {
            put_adaptive(buf, z)
        })
    }

    fn stage(
        &mut self,
        gate: &GateId,
        kind: PayloadKind,
        variant: Variant,
        rate_gs: f64,
        put: impl FnOnce(&mut BytesMut) -> Result<(), ContainerError>,
    ) -> Result<(), ContainerError> {
        // The reader refuses rates outside (0, inf); refusing them here
        // keeps "written successfully" implying "readable".
        if !(rate_gs.is_finite() && rate_gs > 0.0) {
            return Err(ContainerError::Unrepresentable("sample rate is not positive finite"));
        }
        let start = self.staging.len();
        put(&mut self.staging)?;
        self.entries.push(Pending {
            gate: gate.clone(),
            kind,
            variant,
            start,
            len: self.staging.len() - start,
            rate_gs,
        });
        Ok(())
    }

    /// Emits the finished container: header, gate-sorted index,
    /// contiguous payload section.
    ///
    /// # Errors
    ///
    /// [`ContainerError::DuplicateGate`] if two entries share a gate;
    /// [`ContainerError::Unrepresentable`] if a gate id exceeds the
    /// format's field widths.
    pub fn finish(mut self) -> Result<Bytes, ContainerError> {
        self.entries.sort_by(|a, b| a.gate.cmp(&b.gate));
        if let Some(w) = self.entries.windows(2).find(|w| w[0].gate == w[1].gate) {
            return Err(ContainerError::DuplicateGate(w[0].gate.clone()));
        }
        // Header rate: the uniform stream rate, 0 bits when mixed/empty.
        let rate_bits = match self.entries.split_first() {
            Some((first, rest)) if rest.iter().all(|e| e.rate_gs == first.rate_gs) => {
                first.rate_gs.to_bits()
            }
            _ => 0,
        };
        let staged: Bytes = self.staging.freeze();

        // Index, then offsets: payloads sit contiguously in index order.
        let mut index = BytesMut::with_capacity(32 * self.entries.len());
        let mut offset = 0u64;
        for e in &self.entries {
            put_gate(&mut index, &e.gate)?;
            index.put_u8(e.kind.tag());
            let (vtag, ws) = encode_variant(e.variant)?;
            index.put_u8(vtag);
            index.put_u16_le(ws);
            index.put_u64_le(offset);
            index.put_u32_le(checked_u32(e.len, "entry payload beyond 4 GiB")?);
            index.put_u32_le(crc32(&staged[e.start..e.start + e.len]));
            offset += e.len as u64;
        }

        let index = index.freeze();
        let mut out = BytesMut::with_capacity(HEADER_BYTES + index.len() + staged.len());
        out.put_u32_le(MAGIC);
        out.put_u16_le(VERSION);
        out.put_u16_le(0); // reserved, must be zero
        out.put_u64_le(rate_bits);
        out.put_u32_le(checked_u32(self.entries.len(), "more than 2^32 entries")?);
        out.put_u64_le(index.len() as u64);
        out.put_u64_le(offset);
        // The index's own checksum: without it, a flipped bit in a gate
        // field could remap a payload to the wrong gate while every
        // payload CRC still verifies.
        out.put_u32_le(crc32(&index));
        out.put_slice(&index);
        for e in &self.entries {
            out.put_slice(&staged[e.start..e.start + e.len]);
        }
        Ok(out.freeze())
    }
}

/// Compresses a whole pulse library and serializes it in one pass,
/// reusing one [`EncodeScratch`] and one stream slot across all
/// waveforms (the zero-steady-state-allocation encode path) — peak
/// memory is one compressed waveform plus the container bytes.
///
/// Waveforms are staged through
/// [`PulseLibrary::iter_sorted`], so payloads land in the staging
/// buffer already in canonical index order and [`Writer::finish`]'s
/// sort is a no-op (the bytes are identical either way — the sort is
/// what *guarantees* canonical output for arbitrary staging orders).
///
/// # Errors
///
/// Propagates compression errors and format-width overflows.
pub fn write_library(
    library: &PulseLibrary,
    compressor: &Compressor,
) -> Result<Bytes, ContainerError> {
    let mut writer = Writer::new();
    let mut scratch = EncodeScratch::new();
    let mut slot = CompressedWaveform::empty();
    for (gate, wf) in library.iter_sorted() {
        compressor.compress_into(wf, &mut scratch, &mut slot)?;
        writer.add(gate, &slot)?;
    }
    writer.finish()
}

/// Serializes a compile-side [`LibraryReport`]'s streams (borrowed, not
/// cloned) into a container.
///
/// # Errors
///
/// Propagates format-width overflows.
pub fn write_report(report: &LibraryReport) -> Result<Bytes, ContainerError> {
    let mut writer = Writer::new();
    for w in &report.waveforms {
        writer.add(&w.gate, &w.compressed)?;
    }
    writer.finish()
}

/// Serializes a serving [`Store`]'s streams into a container, draining
/// it shard by shard under read locks
/// ([`Store::for_each_entry`]) without cloning a stream. The writer's
/// canonical sort makes the bytes identical however the store's shards
/// happened to order their maps.
///
/// # Errors
///
/// Propagates format-width overflows.
pub fn write_store(store: &Store) -> Result<Bytes, ContainerError> {
    let mut writer = Writer::new();
    let mut failed = None;
    store.for_each_entry(|gate, z| {
        if failed.is_none() {
            if let Err(e) = writer.add(gate, z) {
                failed = Some(e);
            }
        }
    });
    if let Some(e) = failed {
        return Err(e);
    }
    writer.finish()
}
