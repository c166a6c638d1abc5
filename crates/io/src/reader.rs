//! The zero-copy container reader: validate everything once, then
//! borrow forever.
//!
//! [`Reader::open`] accepts any [`ContainerSource`] — an owned
//! [`Bytes`] buffer, a caller-borrowed `&[u8]` region, or a read-only
//! memory map of a container file — and performs the structural audit
//! described in the [crate docs](crate): header, section sizes,
//! sorted/contiguous index, decodable variants, **before any payload
//! is parsed**. Payload CRC-32 verification is governed by
//! [`ReaderOptions`]: [`ValidationMode::Eager`] (the default) sweeps
//! every payload at open;
//! [`ValidationMode::LazyCrc`] defers each entry's check to first
//! touch and caches the verdict in an atomic bitmap, so opening a
//! larger-than-RAM mapped library costs O(index), not O(payload).
//!
//! Afterwards every access is served from the one backing buffer:
//! [`Entry::payload_slice`] is a borrowed view,
//! [`Reader::fetch_into`] parses a payload into a reusable stream slot
//! and decodes it through a caller-owned [`DecodeScratch`] (zero heap
//! allocations in the steady state), and [`Reader::into_store`] bulk
//! loads a serving [`Store`] by moving freshly parsed streams straight
//! in.

use crate::format::{
    decode_variant, need, take_adaptive, take_gate, take_overlap, take_plain_into, PayloadKind,
    SlotSpares, HEADER_BYTES, MIN_ENTRY_BYTES,
};
use crate::source::{ContainerSource, ReaderOptions, ValidationMode};
use crate::{crc32::crc32, ContainerError, MAGIC, VERSION};
use bytes::{Buf, Bytes};
use compaqt_core::adaptive::AdaptiveCompressed;
use compaqt_core::compress::{CompressedWaveform, Variant};
use compaqt_core::engine::{DecodeScratch, DecompressionEngine, EngineStats};
use compaqt_core::overlap::OverlapCompressed;
use compaqt_core::store::{Store, StoreConfig};
use compaqt_obs::{Snapshot, TraceKind, TraceRing};
use compaqt_pulse::library::GateId;
use compaqt_pulse::waveform::Waveform;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One validated index entry (the payload stays unparsed bytes).
#[derive(Debug)]
struct IndexEntry {
    gate: GateId,
    kind: PayloadKind,
    variant: Variant,
    offset: u64,
    len: u32,
    crc: u32,
}

/// A parsed stream payload — whichever compressed representation the
/// entry holds.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamPayload {
    /// A plain compressed stream (store-servable).
    Plain(CompressedWaveform),
    /// An overlapped-window stream.
    Overlap(OverlapCompressed),
    /// An adaptive IDCT-bypass segment list.
    Adaptive(AdaptiveCompressed),
}

impl StreamPayload {
    /// The waveform name recorded in the stream.
    pub fn name(&self) -> &str {
        match self {
            StreamPayload::Plain(z) => &z.name,
            StreamPayload::Overlap(z) => &z.name,
            StreamPayload::Adaptive(z) => &z.name,
        }
    }

    /// The original per-channel sample count the stream claims.
    pub fn n_samples(&self) -> usize {
        match self {
            StreamPayload::Plain(z) => z.n_samples,
            StreamPayload::Overlap(z) => z.n_samples,
            StreamPayload::Adaptive(z) => z.n_samples,
        }
    }

    /// Decompresses the stream through its codec's own decoder.
    ///
    /// # Errors
    ///
    /// Propagates codec errors for malformed coefficient streams.
    pub fn decompress(&self) -> Result<Waveform, ContainerError> {
        match self {
            StreamPayload::Plain(z) => z.decompress().map_err(ContainerError::Codec),
            StreamPayload::Overlap(z) => z.decompress().map_err(ContainerError::Codec),
            StreamPayload::Adaptive(z) => {
                z.decompress().map(|(wf, _)| wf).map_err(ContainerError::Codec)
            }
        }
    }
}

/// Caller-owned working memory for [`Reader::fetch_into`]: a reusable
/// stream slot (parsed payloads land in its buffers), the spare-window
/// pool that preserves inner capacities across entries of different
/// window counts, and the decode scratch the engine runs through.
/// After one warm-up pass over the entries a process serves, repeat
/// fetches perform **zero heap allocations** (enforced in the
/// `alloc_regression` integration test).
#[derive(Debug)]
pub struct ContainerScratch {
    slot: CompressedWaveform,
    spares: SlotSpares,
    decode: DecodeScratch,
}

impl Default for ContainerScratch {
    fn default() -> Self {
        ContainerScratch {
            slot: CompressedWaveform::empty(),
            spares: SlotSpares::default(),
            decode: DecodeScratch::new(),
        }
    }
}

impl ContainerScratch {
    /// Creates an empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        ContainerScratch::default()
    }
}

/// A validated CWL container over one backing source. See the [module
/// docs](self).
///
/// The lifetime `'src` is the borrow of a
/// [`ContainerSource::Borrowed`] region; owned and mapped sources
/// yield `Reader<'static>`.
pub struct Reader<'src> {
    source: ContainerSource<'src>,
    /// Byte offset of the payload section in the source.
    payload_base: usize,
    /// Library-wide DAC rate from the header (`None` when mixed).
    sample_rate_gs: Option<f64>,
    index: Vec<IndexEntry>,
    /// Payload integrity policy chosen at open.
    validation: ValidationMode,
    /// Lazy-mode verdict bitmaps, one bit per entry, one `u64` word
    /// per 64 entries, preallocated at open (so first touch allocates
    /// nothing). `crc_ok` bit set ⇒ the payload hashed clean once and
    /// the bytes are immutable; `crc_bad` bit set ⇒ it is damaged and
    /// every access fails from the cached verdict without re-hashing.
    /// Both empty in [`ValidationMode::Eager`].
    crc_ok: Vec<AtomicU64>,
    crc_bad: Vec<AtomicU64>,
    /// Wall nanoseconds [`Reader::open`] spent validating and indexing
    /// this container — the observable cost of the open-time audit
    /// (O(payload) eager, O(index) lazy).
    open_ns: u64,
    /// Optional event ring ([`Reader::attach_trace`]): lazy-mode
    /// first-touch CRC failures are pushed to it. One atomic load on
    /// the failure path only; clean reads never touch it.
    trace: OnceLock<Arc<TraceRing>>,
}

impl fmt::Debug for Reader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Reader")
            .field("entries", &self.index.len())
            .field("bytes", &self.source.len())
            .field("source", &self.source.kind_name())
            .field("validation", &self.validation)
            .field("sample_rate_gs", &self.sample_rate_gs)
            .finish_non_exhaustive()
    }
}

impl<'src> Reader<'src> {
    /// Validates a container from any [`ContainerSource`] and indexes
    /// it for zero-copy access. No payload is parsed here; every
    /// structural claim the index makes is checked first (see the
    /// crate docs for the exact audit). Whether payload CRC-32s are
    /// swept now or deferred to first touch is chosen by
    /// `options.validation`.
    ///
    /// # Errors
    ///
    /// A typed [`ContainerError`] naming the first violation — never a
    /// panic, and never an allocation sized from an unverified claim.
    pub fn open(
        source: impl Into<ContainerSource<'src>>,
        options: ReaderOptions,
    ) -> Result<Reader<'src>, ContainerError> {
        let opened = Instant::now();
        let source = source.into();
        let data: &[u8] = source.as_slice();
        let mut cur: &[u8] = data;
        need(&cur, HEADER_BYTES)?;
        if cur.get_u32_le() != MAGIC {
            return Err(ContainerError::BadMagic);
        }
        let version = cur.get_u16_le();
        if version != VERSION {
            return Err(ContainerError::VersionSkew { found: version });
        }
        if cur.get_u16_le() != 0 {
            return Err(ContainerError::IndexInvalid("reserved header field is not zero"));
        }
        let rate_bits = cur.get_u64_le();
        let sample_rate_gs = if rate_bits == 0 {
            None
        } else {
            let rate = f64::from_bits(rate_bits);
            if !(rate.is_finite() && rate > 0.0) {
                return Err(ContainerError::IndexInvalid(
                    "header sample rate is not positive finite",
                ));
            }
            Some(rate)
        };
        let count = cur.get_u32_le() as usize;
        let index_bytes = cur.get_u64_le();
        let payload_bytes = cur.get_u64_le();
        let index_crc = cur.get_u32_le();
        let body = (data.len() - HEADER_BYTES) as u64;
        match index_bytes.checked_add(payload_bytes) {
            Some(sections) if sections == body => {}
            Some(sections) if sections < body => {
                return Err(ContainerError::IndexInvalid("trailing bytes after the payload"));
            }
            _ => return Err(ContainerError::Truncated),
        }
        // The entry count is covered by index bytes before it sizes
        // anything: a lying count cannot demand more memory than the
        // attacker paid for in input.
        if (count as u64).checked_mul(MIN_ENTRY_BYTES).is_none_or(|min| min > index_bytes) {
            return Err(ContainerError::IndexInvalid("entry count exceeds the index section"));
        }

        let mut idx: &[u8] = &data[HEADER_BYTES..HEADER_BYTES + index_bytes as usize];
        // Index integrity before index *content*: payload CRCs cannot
        // catch a flipped gate field that would remap an intact payload
        // to the wrong gate, so the index carries its own checksum.
        if crc32(idx) != index_crc {
            return Err(ContainerError::IndexCrcMismatch);
        }
        let mut index: Vec<IndexEntry> = Vec::with_capacity(count);
        let mut next_offset = 0u64;
        for _ in 0..count {
            let gate = take_gate(&mut idx)?;
            need(&idx, 1 + 1 + 2 + 8 + 4 + 4)?;
            let kind = PayloadKind::from_tag(idx.get_u8())
                .ok_or(ContainerError::IndexInvalid("unknown payload kind tag"))?;
            let vtag = idx.get_u8();
            let ws = idx.get_u16_le();
            let variant = decode_variant(vtag, ws).map_err(ContainerError::IndexInvalid)?;
            let offset = idx.get_u64_le();
            let len = idx.get_u32_le();
            let crc = idx.get_u32_le();
            if let Some(prev) = index.last() {
                if prev.gate >= gate {
                    return Err(ContainerError::IndexInvalid(
                        "index is not strictly sorted by gate",
                    ));
                }
            }
            // Contiguity implies bounds and non-overlap in one check —
            // and leaves exactly one valid byte layout per gate set.
            if offset != next_offset {
                return Err(ContainerError::IndexInvalid(
                    "payload ranges are not contiguous (gap or overlap)",
                ));
            }
            next_offset = offset
                .checked_add(u64::from(len))
                .filter(|&end| end <= payload_bytes)
                .ok_or(ContainerError::IndexInvalid("payload range exceeds the payload section"))?;
            index.push(IndexEntry { gate, kind, variant, offset, len, crc });
        }
        if !idx.is_empty() {
            return Err(ContainerError::IndexInvalid("index section larger than its entries"));
        }
        if next_offset != payload_bytes {
            return Err(ContainerError::IndexInvalid("payload section larger than its entries"));
        }

        // Integrity: every payload range must match its recorded
        // CRC-32. Eager mode sweeps all of them now (O(payload), and a
        // constructed reader can never report CrcMismatch later); lazy
        // mode only preallocates the verdict bitmaps, deferring each
        // entry's hash to its first touch (`checked_payload`).
        let payload_base = HEADER_BYTES + index_bytes as usize;
        let (crc_ok, crc_bad) = match options.validation {
            ValidationMode::Eager => {
                for e in &index {
                    let start = payload_base + e.offset as usize;
                    let bytes = &data[start..start + e.len as usize];
                    if crc32(bytes) != e.crc {
                        return Err(ContainerError::CrcMismatch { gate: e.gate.clone() });
                    }
                }
                (Vec::new(), Vec::new())
            }
            ValidationMode::LazyCrc => {
                let words = count.div_ceil(64);
                let zeroed = || (0..words).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
                (zeroed(), zeroed())
            }
        };

        // Decodability: every plain/adaptive variant must have an
        // engine; check lapped window sizes.
        for e in &index {
            match e.kind {
                PayloadKind::Plain | PayloadKind::Adaptive => {
                    DecompressionEngine::shared(e.variant)?;
                }
                PayloadKind::Overlap => {
                    let ws = e.variant.window_size().unwrap_or(0);
                    if !compaqt_dsp::intdct::SUPPORTED_SIZES.contains(&ws) {
                        return Err(ContainerError::Codec(
                            compaqt_core::CompressError::UnsupportedWindow(ws),
                        ));
                    }
                }
            }
        }
        Ok(Reader {
            source,
            payload_base,
            sample_rate_gs,
            index,
            validation: options.validation,
            crc_ok,
            crc_bad,
            open_ns: opened.elapsed().as_nanos() as u64,
            trace: OnceLock::new(),
        })
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if the container holds no entries.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total container size in bytes.
    pub fn total_bytes(&self) -> usize {
        self.source.len()
    }

    /// The payload integrity policy this reader was opened with.
    pub fn validation(&self) -> ValidationMode {
        self.validation
    }

    /// The source kind serving this reader: `"owned"`, `"borrowed"` or
    /// `"mapped"`.
    pub fn source_kind(&self) -> &'static str {
        self.source.kind_name()
    }

    /// How many entries have a decided payload-CRC verdict.
    ///
    /// All of them under [`ValidationMode::Eager`]; under
    /// [`ValidationMode::LazyCrc`] this counts first-touched entries
    /// (clean or damaged), so it starts at 0 for a freshly opened
    /// reader — the observable proof that open was O(index).
    pub fn crc_checked(&self) -> usize {
        match self.validation {
            ValidationMode::Eager => self.index.len(),
            ValidationMode::LazyCrc => self
                .crc_ok
                .iter()
                .zip(&self.crc_bad)
                .map(|(ok, bad)| {
                    (ok.load(Ordering::Relaxed) | bad.load(Ordering::Relaxed)).count_ones() as usize
                })
                .sum(),
        }
    }

    /// How many entries hold a **failed** payload-CRC verdict — always
    /// 0 under [`ValidationMode::Eager`] (a damaged payload fails the
    /// open-time sweep, so no eager reader exists to report it); under
    /// [`ValidationMode::LazyCrc`] this counts first-touched entries
    /// whose bytes did not hash to the recorded CRC. Monotone: verdicts
    /// are cached, never retried.
    pub fn crc_failed(&self) -> usize {
        self.crc_bad.iter().map(|bad| bad.load(Ordering::Relaxed).count_ones() as usize).sum()
    }

    /// Wall nanoseconds [`Reader::open`] spent validating and indexing
    /// this container.
    pub fn open_ns(&self) -> u64 {
        self.open_ns
    }

    /// Attaches a trace ring: lazy-mode first-touch CRC failures are
    /// pushed to it from then on (`a` = entry index, `b` = expected
    /// CRC-32). First attach wins — returns `false` if one is already
    /// attached. Clean reads never touch the ring.
    pub fn attach_trace(&self, ring: Arc<TraceRing>) -> bool {
        self.trace.set(ring).is_ok()
    }

    /// Contributes this reader's telemetry to an observability
    /// snapshot: entry/byte gauges, lazy-CRC verdict progress
    /// (`reader_crc_checked` / `reader_crc_failed` — the former is
    /// monotone under reads, the observable proof that verdicts are
    /// cached) and the one-shot open cost. Cold path.
    pub fn collect_obs(&self, out: &mut Snapshot) {
        out.push_gauge("reader_entries", self.index.len() as u64);
        out.push_gauge("reader_total_bytes", self.source.len() as u64);
        out.push_gauge("reader_crc_checked", self.crc_checked() as u64);
        out.push_gauge("reader_crc_failed", self.crc_failed() as u64);
        out.push_gauge("reader_open_ns", self.open_ns);
    }

    /// The library-wide DAC sample rate from the header (`None` when
    /// the entries mix rates).
    pub fn sample_rate_gs(&self) -> Option<f64> {
        self.sample_rate_gs
    }

    /// The stored gate ids, in index (= sorted) order.
    pub fn gates(&self) -> impl Iterator<Item = &GateId> {
        self.index.iter().map(|e| &e.gate)
    }

    /// `true` if the container holds an entry for the gate.
    pub fn contains(&self, gate: &GateId) -> bool {
        self.find(gate).is_some()
    }

    /// Looks up a gate's entry (binary search over the sorted index).
    pub fn find(&self, gate: &GateId) -> Option<Entry<'_>> {
        self.find_index(gate).map(|k| Entry { reader: self, k })
    }

    /// Iterates the entries in index order.
    pub fn entries(&self) -> impl Iterator<Item = Entry<'_>> {
        (0..self.index.len()).map(move |k| Entry { reader: self, k })
    }

    /// Random-access decode of one gate, straight from the backing
    /// buffer: the payload is parsed into `scratch`'s reusable stream
    /// slot and decoded through its [`DecodeScratch`] into the caller's
    /// output buffers. With warm buffers the call performs zero heap
    /// allocations — this is the container's own serving path, for
    /// processes that skip the [`Store`] entirely.
    ///
    /// # Errors
    ///
    /// [`ContainerError::UnknownGate`] for an absent gate;
    /// [`ContainerError::Unservable`] for lapped/adaptive entries (use
    /// [`Entry::read`]); payload/codec errors for streams forged past
    /// the CRC.
    pub fn fetch_into(
        &self,
        gate: &GateId,
        scratch: &mut ContainerScratch,
        i_out: &mut Vec<f64>,
        q_out: &mut Vec<f64>,
    ) -> Result<EngineStats, ContainerError> {
        let k = self.find_index(gate).ok_or_else(|| ContainerError::UnknownGate(gate.clone()))?;
        let e = &self.index[k];
        if e.kind != PayloadKind::Plain {
            return Err(ContainerError::Unservable { gate: gate.clone() });
        }
        let mut cur: &[u8] = self.checked_payload(k)?;
        take_plain_into(&mut cur, &mut scratch.slot, &mut scratch.spares)?;
        check_parsed_plain(cur, scratch.slot.variant, e.variant)?;
        DecompressionEngine::shared(e.variant)?
            .decompress_into(&scratch.slot, &mut scratch.decode, i_out, q_out)
            .map_err(ContainerError::Codec)
    }

    /// Loads the whole container into a serving [`Store`], parsing each
    /// payload once and moving the stream in (no re-encode, no clone) —
    /// the `mmap → serve` bridge. The store then serves
    /// [`Store::fetch_into`] with zero steady-state allocations.
    ///
    /// # Errors
    ///
    /// [`ContainerError::Unservable`] if any entry is a lapped or
    /// adaptive stream (the store holds plain streams only); payload
    /// and codec errors for streams forged past the CRC.
    pub fn into_store(self, config: StoreConfig) -> Result<Store, ContainerError> {
        self.load_store(config)
    }

    fn load_store(&self, config: StoreConfig) -> Result<Store, ContainerError> {
        let store = Store::new(config);
        let mut spares = SlotSpares::default();
        for (k, e) in self.index.iter().enumerate() {
            if e.kind != PayloadKind::Plain {
                return Err(ContainerError::Unservable { gate: e.gate.clone() });
            }
            let mut cur: &[u8] = self.checked_payload(k)?;
            let mut z = CompressedWaveform::empty();
            take_plain_into(&mut cur, &mut z, &mut spares)?;
            check_parsed_plain(cur, z.variant, e.variant)?;
            store.insert(e.gate.clone(), z)?;
        }
        Ok(store)
    }

    /// The validated wire-encoded stream bytes for a plain entry — the
    /// exact bytes a serve-loop response frame carries, since the
    /// container payload encoding and the wire stream encoding are the
    /// same `put_plain` layout. This is the zero-parse serving path: a
    /// responder can append these bytes to a frame without ever
    /// decoding the stream.
    ///
    /// In [`ValidationMode::LazyCrc`] this is a first-touch point: the
    /// payload CRC is verified (or its cached verdict replayed) before
    /// any byte is handed out.
    ///
    /// # Errors
    ///
    /// [`ContainerError::UnknownGate`] for an absent gate,
    /// [`ContainerError::Unservable`] for lapped/adaptive entries,
    /// [`ContainerError::CrcMismatch`] for a damaged payload in lazy
    /// mode.
    pub fn stream_bytes(&self, gate: &GateId) -> Result<&[u8], ContainerError> {
        let k = self.find_index(gate).ok_or_else(|| ContainerError::UnknownGate(gate.clone()))?;
        if self.index[k].kind != PayloadKind::Plain {
            return Err(ContainerError::Unservable { gate: gate.clone() });
        }
        self.checked_payload(k)
    }

    fn find_index(&self, gate: &GateId) -> Option<usize> {
        self.index.binary_search_by(|e| e.gate.cmp(gate)).ok()
    }

    /// Borrowed view of entry `k`'s raw payload bytes (no CRC gate).
    fn payload_slice(&self, k: usize) -> &[u8] {
        let e = &self.index[k];
        let start = self.payload_base + e.offset as usize;
        &self.source.as_slice()[start..start + e.len as usize]
    }

    /// Entry `k`'s payload bytes behind the integrity gate: a
    /// pass-through in eager mode (the open-time sweep already proved
    /// them), a cached-verdict check or first-touch CRC in lazy mode.
    ///
    /// Lazy-mode memory discipline: the bitmaps are preallocated at
    /// open and the bits are monotonic — racing first touches compute
    /// the same verdict over the same immutable bytes, so `fetch_or`
    /// with relaxed ordering is enough (an `ok` bit can only ever mean
    /// "these bytes hashed clean").
    fn checked_payload(&self, k: usize) -> Result<&[u8], ContainerError> {
        let bytes = self.payload_slice(k);
        if self.validation == ValidationMode::Eager {
            return Ok(bytes);
        }
        let (word, bit) = (k / 64, 1u64 << (k % 64));
        if self.crc_ok[word].load(Ordering::Relaxed) & bit != 0 {
            return Ok(bytes);
        }
        if self.crc_bad[word].load(Ordering::Relaxed) & bit != 0 {
            return Err(ContainerError::CrcMismatch { gate: self.index[k].gate.clone() });
        }
        if crc32(bytes) == self.index[k].crc {
            self.crc_ok[word].fetch_or(bit, Ordering::Relaxed);
            Ok(bytes)
        } else {
            self.crc_bad[word].fetch_or(bit, Ordering::Relaxed);
            // First-touch failure (a racing toucher may emit a
            // duplicate — the verdict bits, not the trace, are the
            // ledger). Cached-verdict replays above do not re-emit.
            if let Some(ring) = self.trace.get() {
                ring.push(TraceKind::CrcFail, k as u64, u64::from(self.index[k].crc));
            }
            Err(ContainerError::CrcMismatch { gate: self.index[k].gate.clone() })
        }
    }
}

/// Post-parse consistency checks shared by every plain-payload
/// consumer: the payload must end exactly where its parse did, and must
/// agree with the index about its variant (a forged disagreement would
/// otherwise let an attacker route a stream to the wrong engine).
fn check_parsed_plain(
    rest: &[u8],
    parsed: Variant,
    declared: Variant,
) -> Result<(), ContainerError> {
    if !rest.is_empty() {
        return Err(ContainerError::PayloadInvalid("trailing bytes after the stream"));
    }
    if parsed != declared {
        return Err(ContainerError::PayloadInvalid("payload variant disagrees with the index"));
    }
    Ok(())
}

/// Builds a value from a validated container without consuming the
/// [`Reader`] — the inverse bridge to [`write_store`](crate::write_store).
///
/// Exists so the serving store can be constructed with
/// `Store::from_reader(&reader, config)` syntax (`compaqt-core` cannot
/// name this crate's types itself).
pub trait FromContainer: Sized {
    /// Builds `Self` from the container behind `reader`.
    ///
    /// # Errors
    ///
    /// Implementation-specific [`ContainerError`]s.
    fn from_reader(reader: &Reader<'_>, config: StoreConfig) -> Result<Self, ContainerError>;
}

impl FromContainer for Store {
    fn from_reader(reader: &Reader<'_>, config: StoreConfig) -> Result<Store, ContainerError> {
        reader.load_store(config)
    }
}

/// One container entry: index metadata plus a zero-copy payload view.
#[derive(Clone, Copy)]
pub struct Entry<'a> {
    reader: &'a Reader<'a>,
    k: usize,
}

impl fmt::Debug for Entry<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = &self.reader.index[self.k];
        f.debug_struct("Entry")
            .field("gate", &e.gate)
            .field("kind", &e.kind)
            .field("variant", &e.variant)
            .field("payload_len", &e.len)
            .finish()
    }
}

impl<'a> Entry<'a> {
    /// The gate this entry stores.
    pub fn gate(&self) -> &'a GateId {
        &self.reader.index[self.k].gate
    }

    /// What kind of stream the payload holds.
    pub fn kind(&self) -> PayloadKind {
        self.reader.index[self.k].kind
    }

    /// The compression variant the index declares.
    pub fn variant(&self) -> Variant {
        self.reader.index[self.k].variant
    }

    /// Payload size in bytes.
    pub fn payload_len(&self) -> usize {
        self.reader.index[self.k].len as usize
    }

    /// The payload's CRC-32 as recorded (and verified) in the index.
    pub fn crc32(&self) -> u32 {
        self.reader.index[self.k].crc
    }

    /// The raw payload bytes as an owned handle — zero-copy (a
    /// reference-counted slice of the backing buffer) for an owned
    /// source, a copy for borrowed and mapped sources (their bytes
    /// have no refcount to share; use [`Entry::payload_slice`] for the
    /// zero-copy view).
    ///
    /// **Integrity caveat:** this is the raw-bytes escape hatch. Under
    /// [`ValidationMode::LazyCrc`] the bytes may not have been
    /// CRC-checked yet — call [`Entry::verify`] first if you are going
    /// to trust them. Every parsing/decoding path ([`Entry::read`],
    /// [`Reader::fetch_into`], the store bridges, the serve path)
    /// checks the verdict itself.
    pub fn payload(&self) -> Bytes {
        match &self.reader.source {
            ContainerSource::Owned(data) => {
                let e = &self.reader.index[self.k];
                let start = self.reader.payload_base + e.offset as usize;
                data.slice(start..start + e.len as usize)
            }
            _ => Bytes::copy_from_slice(self.payload_slice()),
        }
    }

    /// The raw payload bytes, borrowed straight from the backing
    /// source — zero-copy for every source kind. Same integrity caveat
    /// as [`Entry::payload`].
    pub fn payload_slice(&self) -> &'a [u8] {
        self.reader.payload_slice(self.k)
    }

    /// Forces this entry's payload-CRC verdict: a no-op under
    /// [`ValidationMode::Eager`], a first-touch check (or cached
    /// verdict replay) under [`ValidationMode::LazyCrc`].
    ///
    /// # Errors
    ///
    /// [`ContainerError::CrcMismatch`] if the payload bytes are
    /// damaged.
    pub fn verify(&self) -> Result<(), ContainerError> {
        self.reader.checked_payload(self.k).map(|_| ())
    }

    /// Parses the payload into an owned stream.
    ///
    /// # Errors
    ///
    /// [`ContainerError::CrcMismatch`] for a damaged payload in lazy
    /// mode; [`ContainerError::PayloadInvalid`] for encodings forged
    /// past the CRC (a container produced by
    /// [`Writer`](crate::Writer) always parses).
    pub fn read(&self) -> Result<StreamPayload, ContainerError> {
        let e = &self.reader.index[self.k];
        let mut cur: &[u8] = self.reader.checked_payload(self.k)?;
        match e.kind {
            PayloadKind::Plain => {
                let mut z = CompressedWaveform::empty();
                take_plain_into(&mut cur, &mut z, &mut SlotSpares::default())?;
                check_parsed_plain(cur, z.variant, e.variant)?;
                Ok(StreamPayload::Plain(z))
            }
            PayloadKind::Overlap => {
                let z = take_overlap(&mut cur)?;
                if !cur.is_empty() {
                    return Err(ContainerError::PayloadInvalid("trailing bytes after the stream"));
                }
                if e.variant.window_size() != Some(z.ws) {
                    return Err(ContainerError::PayloadInvalid(
                        "payload window size disagrees with the index",
                    ));
                }
                Ok(StreamPayload::Overlap(z))
            }
            PayloadKind::Adaptive => {
                let z = take_adaptive(&mut cur)?;
                if !cur.is_empty() {
                    return Err(ContainerError::PayloadInvalid("trailing bytes after the stream"));
                }
                if z.variant != e.variant {
                    return Err(ContainerError::PayloadInvalid(
                        "payload variant disagrees with the index",
                    ));
                }
                Ok(StreamPayload::Adaptive(z))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{write_library, Writer};
    use compaqt_core::adaptive::AdaptiveCompressor;
    use compaqt_core::compress::Compressor;
    use compaqt_core::overlap::OverlapCompressor;
    use compaqt_pulse::device::Device;
    use compaqt_pulse::library::GateKind;
    use compaqt_pulse::shapes::{Drag, GaussianSquare, PulseShape};
    use compaqt_pulse::vendor::Vendor;

    fn library() -> std::sync::Arc<compaqt_pulse::library::PulseLibrary> {
        Device::synthesize(Vendor::Ibm, 3, 0xC0DE).pulse_library()
    }

    fn container() -> Bytes {
        write_library(&library(), &Compressor::new(Variant::IntDctW { ws: 16 })).unwrap()
    }

    #[test]
    fn round_trips_every_entry_bit_exactly() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let reader = Reader::open(container(), ReaderOptions::default()).unwrap();
        assert_eq!(reader.len(), lib.len());
        assert_eq!(reader.sample_rate_gs(), lib.uniform_sample_rate_gs());
        for (gate, wf) in lib.iter() {
            let entry = reader.find(gate).expect("every gate is present");
            let StreamPayload::Plain(z) = entry.read().unwrap() else {
                panic!("library containers hold plain streams");
            };
            assert_eq!(z, compressor.compress(wf).unwrap(), "{gate}: stream round-trip");
        }
    }

    #[test]
    fn bytes_are_canonical_regardless_of_add_order() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let entries: Vec<(GateId, CompressedWaveform)> =
            lib.iter().map(|(g, wf)| (g.clone(), compressor.compress(wf).unwrap())).collect();
        let mut forward = Writer::new();
        for (g, z) in &entries {
            forward.add(g, z).unwrap();
        }
        let mut backward = Writer::new();
        for (g, z) in entries.iter().rev() {
            backward.add(g, z).unwrap();
        }
        assert_eq!(
            forward.finish().unwrap().as_ref(),
            backward.finish().unwrap().as_ref(),
            "same library must produce identical container bytes"
        );
    }

    #[test]
    fn fetch_into_matches_the_engine_decode() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let reader = Reader::open(container(), ReaderOptions::default()).unwrap();
        let engine = DecompressionEngine::for_variant(compressor.variant()).unwrap();
        let mut scratch = ContainerScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for (gate, wf) in lib.iter() {
            let z = compressor.compress(wf).unwrap();
            let (expect, expect_stats) = engine.decompress(&z).unwrap();
            let stats = reader.fetch_into(gate, &mut scratch, &mut i, &mut q).unwrap();
            assert_eq!(expect.i(), &i[..], "{gate}: I channel");
            assert_eq!(expect.q(), &q[..], "{gate}: Q channel");
            assert_eq!(expect_stats, stats, "{gate}: engine stats");
        }
    }

    #[test]
    fn store_bridges_serve_the_same_samples() {
        let lib = library();
        let reader = Reader::open(container(), ReaderOptions::default()).unwrap();
        let via_trait = Store::from_reader(&reader, StoreConfig::default()).unwrap();
        let store = reader.into_store(StoreConfig::default()).unwrap();
        assert_eq!(store.len(), lib.len());
        assert_eq!(via_trait.len(), lib.len());
        let (mut i, mut q) = (Vec::new(), Vec::new());
        let (mut i2, mut q2) = (Vec::new(), Vec::new());
        for (gate, wf) in lib.iter() {
            store.fetch_into(gate, &mut i, &mut q).unwrap();
            via_trait.fetch_into(gate, &mut i2, &mut q2).unwrap();
            assert_eq!(i.len(), wf.len(), "{gate}");
            assert_eq!(i, i2, "{gate}: both bridges agree");
            assert_eq!(q, q2, "{gate}");
        }
    }

    #[test]
    fn overlap_and_adaptive_entries_round_trip() {
        let ramp = Drag::new(136, 0.5, 34.0, 0.2).to_waveform("X(q0)", 4.54);
        let flat = GaussianSquare::new(1362, 0.3, 40.0, 1000).to_waveform("CX(q0,q1)", 4.54);
        let lapped = OverlapCompressor::new(8).unwrap().compress(&ramp).unwrap();
        let adaptive =
            AdaptiveCompressor::new(Variant::IntDctW { ws: 16 }).compress(&flat).unwrap();
        let mut writer = Writer::new();
        let g_overlap = GateId::single(GateKind::X, 0);
        let g_adaptive = GateId::pair(GateKind::Cx, 0, 1);
        writer.add_overlap(&g_overlap, &lapped).unwrap();
        writer.add_adaptive(&g_adaptive, &adaptive).unwrap();
        let reader = Reader::open(writer.finish().unwrap(), ReaderOptions::default()).unwrap();

        let entry = reader.find(&g_overlap).unwrap();
        assert_eq!(entry.kind(), PayloadKind::Overlap);
        let StreamPayload::Overlap(back) = entry.read().unwrap() else { panic!("overlap kind") };
        assert_eq!(back, lapped, "lapped stream round-trip");
        assert_eq!(
            back.decompress().unwrap().i(),
            lapped.decompress().unwrap().i(),
            "decode agrees"
        );

        let entry = reader.find(&g_adaptive).unwrap();
        assert_eq!(entry.kind(), PayloadKind::Adaptive);
        let StreamPayload::Adaptive(back) = entry.read().unwrap() else { panic!("adaptive kind") };
        assert_eq!(back, adaptive, "adaptive stream round-trip");

        // Neither kind is store-servable: typed error, not a panic.
        let mut scratch = ContainerScratch::new();
        let (mut i, mut q) = (Vec::new(), Vec::new());
        assert!(matches!(
            reader.fetch_into(&g_overlap, &mut scratch, &mut i, &mut q),
            Err(ContainerError::Unservable { .. })
        ));
        assert!(matches!(
            reader.into_store(StoreConfig::default()),
            Err(ContainerError::Unservable { .. })
        ));
    }

    #[test]
    fn mixed_rates_clear_the_header_rate() {
        let a = Drag::new(64, 0.5, 16.0, 0.2).to_waveform("a", 4.54);
        let b = Drag::new(64, 0.5, 16.0, 0.2).to_waveform("b", 2.0);
        let c = Compressor::new(Variant::IntDctW { ws: 8 });
        let mut writer = Writer::new();
        writer.add(&GateId::single(GateKind::X, 0), &c.compress(&a).unwrap()).unwrap();
        writer.add(&GateId::single(GateKind::X, 1), &c.compress(&b).unwrap()).unwrap();
        let reader = Reader::open(writer.finish().unwrap(), ReaderOptions::default()).unwrap();
        assert_eq!(reader.sample_rate_gs(), None);
    }

    #[test]
    fn unknown_gates_and_empty_containers() {
        let reader = Reader::open(container(), ReaderOptions::default()).unwrap();
        let missing = GateId::single(GateKind::Measure, 99);
        assert!(reader.find(&missing).is_none());
        let mut scratch = ContainerScratch::new();
        assert!(matches!(
            reader.fetch_into(&missing, &mut scratch, &mut Vec::new(), &mut Vec::new()),
            Err(ContainerError::UnknownGate(_))
        ));
        let empty =
            Reader::open(Writer::new().finish().unwrap(), ReaderOptions::default()).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.sample_rate_gs(), None);
        assert!(empty.into_store(StoreConfig::default()).unwrap().is_empty());
    }

    #[test]
    fn duplicate_gates_are_rejected_at_finish() {
        let wf = Drag::new(64, 0.5, 16.0, 0.2).to_waveform("X(q0)", 4.54);
        let z = Compressor::new(Variant::IntDctW { ws: 8 }).compress(&wf).unwrap();
        let mut writer = Writer::new();
        let gate = GateId::single(GateKind::X, 0);
        writer.add(&gate, &z).unwrap();
        writer.add(&gate, &z).unwrap();
        assert_eq!(writer.finish().unwrap_err(), ContainerError::DuplicateGate(gate));
    }

    #[test]
    fn header_damage_is_typed() {
        let bytes = container().to_vec();
        // Magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            Reader::open(bad, ReaderOptions::default()).unwrap_err(),
            ContainerError::BadMagic
        );
        // Version skew.
        let mut bad = bytes.clone();
        bad[4] = 9;
        assert_eq!(
            Reader::open(bad, ReaderOptions::default()).unwrap_err(),
            ContainerError::VersionSkew { found: 9 }
        );
        // Reserved bits.
        let mut bad = bytes.clone();
        bad[6] = 1;
        assert!(matches!(
            Reader::open(bad, ReaderOptions::default()).unwrap_err(),
            ContainerError::IndexInvalid(_)
        ));
        // Trailing garbage.
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(matches!(
            Reader::open(bad, ReaderOptions::default()).unwrap_err(),
            ContainerError::IndexInvalid(_)
        ));
    }

    #[test]
    fn every_truncation_is_an_error_never_a_panic() {
        let bytes = container().to_vec();
        for cut in 0..bytes.len() {
            let err = Reader::open(bytes[..cut].to_vec(), ReaderOptions::default())
                .expect_err("a truncated container must not validate");
            assert!(
                matches!(
                    err,
                    ContainerError::Truncated
                        | ContainerError::IndexInvalid(_)
                        | ContainerError::CrcMismatch { .. }
                ),
                "cut at {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn payload_damage_is_a_crc_mismatch() {
        let clean = container().to_vec();
        // Flip one bit in the last byte (payload section).
        let mut bad = clean.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x10;
        assert!(matches!(
            Reader::open(bad, ReaderOptions::default()).unwrap_err(),
            ContainerError::CrcMismatch { .. }
        ));
    }
}
