//! Hostile-container robustness: a `Reader` fed attacker-controlled
//! bytes must return a typed [`ContainerError`] — never panic, never
//! overflow, and never size an allocation from an unverified claim.
//!
//! The mangler attacks every structural layer:
//!
//! 1. **arbitrary garbage** — random buffers through the full
//!    validator;
//! 2. **bit flips on a real container** — anywhere in header, index or
//!    payload; index and payload flips are caught by their CRC-32s, and
//!    the rare header flip that still validates (e.g. the rate bits)
//!    must leave a reader that *serves* without panicking;
//! 3. **truncation** — every prefix of a real container is rejected;
//! 4. **metadata lies** — length fields, offsets, counts and section
//!    sizes rewritten to claim what the bytes cannot back, including
//!    overlap and out-of-bounds layouts and absurd entry counts that
//!    would buy multi-gigabyte allocations if trusted;
//! 5. **CRC damage and version skew** — payload flips surface as
//!    [`ContainerError::CrcMismatch`], future versions as
//!    [`ContainerError::VersionSkew`].

use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::store::StoreConfig;
use compaqt::io::{write_library, ContainerError, ContainerScratch, Reader, ReaderOptions};
use compaqt::obs::{Snapshot, TraceKind, TraceRing};
use compaqt::pulse::device::Device;
use compaqt::pulse::vendor::Vendor;
use proptest::prelude::*;
use std::sync::Arc;

mod common;

/// Header layout offsets (see the `compaqt-io` crate docs).
const VERSION_AT: usize = 4;
const COUNT_AT: usize = 16;
const INDEX_BYTES_AT: usize = 20;
const PAYLOAD_BYTES_AT: usize = 28;
const INDEX_CRC_AT: usize = 36;
const HEADER_BYTES: usize = 40;

/// Rewrites the header's index CRC to match the (mangled) index bytes,
/// modelling a *consistent* forger — the structural checks underneath
/// the checksum are what's under test then.
fn fix_index_crc(bytes: &mut [u8]) {
    let index_bytes =
        u64::from_le_bytes(bytes[INDEX_BYTES_AT..INDEX_BYTES_AT + 8].try_into().unwrap()) as usize;
    let crc = compaqt::io::crc32::crc32(&bytes[HEADER_BYTES..HEADER_BYTES + index_bytes]);
    bytes[INDEX_CRC_AT..INDEX_CRC_AT + 4].copy_from_slice(&crc.to_le_bytes());
}

/// The clean container under attack, built once — at amplified case
/// counts the time goes to mangling, not to recompressing the same
/// library thousands of times.
fn container_bytes() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES
        .get_or_init(|| {
            let lib = Device::synthesize(Vendor::Ibm, 2, 0x5EED).pulse_library();
            write_library(&lib, &Compressor::new(Variant::IntDctW { ws: 16 })).unwrap().to_vec()
        })
        .clone()
}

fn patch_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn patch_u64(bytes: &mut [u8], at: usize, v: u64) {
    bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Exercises a reader that happened to validate: every entry must list,
/// read and decode (or error) without panicking, and the store bridge
/// must stay total as well.
fn drive_survivor(reader: &Reader) {
    let mut scratch = ContainerScratch::new();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for entry in reader.entries() {
        let _ = entry.payload().len();
        if let Ok(stream) = entry.read() {
            let _ = stream.decompress();
        }
        let gate = entry.gate().clone();
        assert!(reader.find(&gate).is_some(), "listed entries must be findable");
        let _ = reader.fetch_into(&gate, &mut scratch, &mut i, &mut q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bytes never panic the validator.
    #[test]
    fn arbitrary_garbage_never_panics(
        garbage in proptest::collection::vec(proptest::num::u8::ANY, 0..320),
    ) {
        // Validation is vanishingly unlikely — but a survivor must
        // still be total.
        if let Ok(reader) = Reader::open(garbage, ReaderOptions::default()) {
            drive_survivor(&reader);
        }
    }

    /// A single bit flip anywhere in a real container either fails
    /// validation with a typed error or leaves a reader that serves
    /// without panicking.
    #[test]
    fn bit_flips_never_panic(
        pos in proptest::num::usize::ANY,
        bit in 0u32..8,
    ) {
        let mut bytes = container_bytes();
        let k = pos % bytes.len();
        bytes[k] ^= 1 << bit;
        if let Ok(reader) = Reader::open(bytes, ReaderOptions::default()) {
            drive_survivor(&reader);
            let _ = reader.into_store(StoreConfig::default());
        }
    }

    /// Every truncation of a real container is rejected with a typed
    /// error (never accepted, never a panic).
    #[test]
    fn truncations_are_always_rejected(cut in proptest::num::usize::ANY) {
        let bytes = container_bytes();
        let cut = cut % bytes.len();
        let err = Reader::open(bytes[..cut].to_vec(), ReaderOptions::default())
            .expect_err("a truncated container must not validate");
        prop_assert!(matches!(
            err,
            ContainerError::Truncated
                | ContainerError::IndexInvalid(_)
                | ContainerError::CrcMismatch { .. }
        ));
    }

    /// Any rewrite of an index byte is caught by the header's index
    /// CRC-32 — a damaged index must never validate, because a flipped
    /// gate field would otherwise silently remap an intact payload to
    /// the wrong gate. A *consistent* forger who also fixes the index
    /// CRC still faces the structural checks (and must then serve
    /// totally if it survives them).
    #[test]
    fn index_rewrites_are_rejected_or_survive_totally(
        at in proptest::num::usize::ANY,
        value in proptest::num::u8::ANY,
    ) {
        let mut bytes = container_bytes();
        let index_bytes =
            u64::from_le_bytes(bytes[INDEX_BYTES_AT..INDEX_BYTES_AT + 8].try_into().unwrap());
        let at = HEADER_BYTES + at % index_bytes as usize;
        let changed = bytes[at] != value;
        bytes[at] = value;
        match Reader::open(bytes.clone(), ReaderOptions::default()) {
            Ok(reader) => {
                prop_assert!(!changed, "a changed index byte must fail the index checksum");
                drive_survivor(&reader);
            }
            Err(e) => {
                if changed {
                    prop_assert_eq!(e, ContainerError::IndexCrcMismatch);
                }
            }
        }
        // Consistent forger: fix the checksum, keep the mangled bytes.
        fix_index_crc(&mut bytes);
        if let Ok(reader) = Reader::open(bytes, ReaderOptions::default()) {
            drive_survivor(&reader);
        }
    }
}

/// Deliberate metadata lies, each pinned to a typed rejection.
#[test]
fn metadata_lies_are_rejected() {
    let clean = container_bytes();

    // Version skew.
    let mut bad = clean.clone();
    bad[VERSION_AT] = 0xFE;
    assert_eq!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::VersionSkew { found: 0xFE }
    );

    // Entry count inflated to 4 billion: must be rejected *before* any
    // index storage is sized from it (a trusting reader would try to
    // reserve ~100 GiB here).
    let mut bad = clean.clone();
    patch_u32(&mut bad, COUNT_AT, u32::MAX);
    assert!(matches!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::IndexInvalid(_)
    ));

    // Section sizes that do not add up to the file.
    let mut bad = clean.clone();
    patch_u64(&mut bad, INDEX_BYTES_AT, u64::MAX / 2);
    assert_eq!(Reader::open(bad, ReaderOptions::default()).unwrap_err(), ContainerError::Truncated);
    let mut bad = clean.clone();
    patch_u64(&mut bad, PAYLOAD_BYTES_AT, 0);
    assert!(matches!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::IndexInvalid(_)
    ));
}

/// Offset/length lies inside the index: overlap, gaps and
/// out-of-bounds ranges are all structural errors, and payload damage
/// behind an intact index is a per-gate CRC mismatch.
#[test]
fn layout_lies_and_crc_damage_are_rejected() {
    let clean = container_bytes();
    let index_bytes =
        u64::from_le_bytes(clean[INDEX_BYTES_AT..INDEX_BYTES_AT + 8].try_into().unwrap()) as usize;

    // The first index entry is a no-custom-name gate:
    //   kind:u8 nq:u8 qubit:u16 codec:u8 vtag:u8 ws:u16 → offset next.
    let nq = clean[HEADER_BYTES + 1] as usize;
    let first_offset_at = HEADER_BYTES + 2 + 2 * nq + 4;

    // Without fixing the header's index CRC, any index rewrite is a
    // checksum mismatch before structure is even looked at.
    let mut bad = clean.clone();
    patch_u64(&mut bad, first_offset_at, 2);
    assert_eq!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::IndexCrcMismatch
    );

    // Consistent forgers (index CRC recomputed) face the structural
    // checks. Offset pushed forward: the first range now overlaps the
    // second (and leaves a gap at zero) — contiguity catches both.
    let mut bad = clean.clone();
    patch_u64(&mut bad, first_offset_at, 2);
    fix_index_crc(&mut bad);
    assert!(matches!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::IndexInvalid(_)
    ));

    // Length inflated: every later range shifts out of place and the
    // section sum no longer closes.
    let mut bad = clean.clone();
    let len_at = first_offset_at + 8;
    let len = u32::from_le_bytes(clean[len_at..len_at + 4].try_into().unwrap());
    patch_u32(&mut bad, len_at, len + 2);
    fix_index_crc(&mut bad);
    assert!(matches!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::IndexInvalid(_)
    ));

    // Length inflated past the whole payload section: out of bounds.
    let mut bad = clean.clone();
    patch_u32(&mut bad, len_at, u32::MAX);
    fix_index_crc(&mut bad);
    assert!(matches!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::IndexInvalid(_)
    ));

    // The attack the index checksum exists for: rewrite the first
    // entry's qubit id so an intact, payload-CRC-valid pulse would be
    // served under the wrong gate. The index CRC refuses it.
    let mut bad = clean.clone();
    bad[HEADER_BYTES + 2] = 9; // X(q0) → X(q9), payloads untouched
    assert_eq!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::IndexCrcMismatch
    );

    // Payload flip behind an intact index: CRC catches it and names
    // the damaged gate.
    let mut bad = clean.clone();
    let payload_base = HEADER_BYTES + index_bytes;
    bad[payload_base + 3] ^= 0x40;
    assert!(matches!(
        Reader::open(bad, ReaderOptions::default()).unwrap_err(),
        ContainerError::CrcMismatch { .. }
    ));
}

/// Lazy-CRC mode defers payload verdicts to first touch, and then
/// caches them: a damaged payload behind an intact index opens fine
/// (the O(index) larger-than-RAM contract), fails **typed** the first
/// time its gate is touched, and keeps failing identically from the
/// cached verdict — it never panics and never serves rotten samples.
/// Every source kind must behave identically.
#[test]
fn lazy_crc_defers_verdicts_and_caches_failures() {
    let clean = container_bytes();
    let index_bytes =
        u64::from_le_bytes(clean[INDEX_BYTES_AT..INDEX_BYTES_AT + 8].try_into().unwrap()) as usize;
    let mut bad = clean.clone();
    // Damage the first entry's payload (offset 0 in the payload section).
    bad[HEADER_BYTES + index_bytes + 3] ^= 0x40;

    // Eager mode (the default options) refuses the container at open.
    assert!(matches!(
        Reader::open(bad.clone(), ReaderOptions::default()).unwrap_err(),
        ContainerError::CrcMismatch { .. }
    ));

    // Reference decodes from the clean container, for the undamaged
    // gates the lazy reader must still serve bit-exactly.
    let reference = Reader::open(clean.clone(), ReaderOptions::default()).unwrap();

    // The reader's validation-progress gauges, as a scrape would see
    // them: (reader_crc_checked, reader_crc_failed).
    let crc_gauges = |reader: &Reader| -> (u64, u64) {
        let mut snap = Snapshot::new();
        reader.collect_obs(&mut snap);
        (snap.gauge("reader_crc_checked").unwrap(), snap.gauge("reader_crc_failed").unwrap())
    };

    for kind in common::selected_kinds() {
        common::with_source(kind, &bad, ReaderOptions::lazy_crc(), |r| {
            let reader = r.expect("a damaged payload must not fail an O(index) lazy open");
            assert_eq!(reader.source_kind(), kind);
            assert_eq!(reader.crc_checked(), 0, "{kind}: open must not touch payload CRCs");
            assert_eq!(crc_gauges(&reader), (0, 0), "{kind}: gauges start untouched");
            let ring = Arc::new(TraceRing::new(16));
            assert!(reader.attach_trace(Arc::clone(&ring)), "{kind}: first attach wins");

            let damaged = reader.entries().next().unwrap().gate().clone();
            let mut scratch = ContainerScratch::new();
            let (mut i, mut q) = (Vec::new(), Vec::new());

            // First touch: typed failure naming the damaged gate.
            let first = reader.fetch_into(&damaged, &mut scratch, &mut i, &mut q).unwrap_err();
            assert_eq!(first, ContainerError::CrcMismatch { gate: damaged.clone() }, "{kind}");
            assert_eq!(reader.crc_checked(), 1, "{kind}: exactly one verdict recorded");
            assert_eq!(crc_gauges(&reader), (1, 1), "{kind}: one check, one failure");
            let fails = ring.snapshot();
            assert_eq!(fails.len(), 1, "{kind}: first touch emits one trace event");
            assert_eq!(fails[0].kind, TraceKind::CrcFail, "{kind}");
            assert_eq!(fails[0].a, 0, "{kind}: the damaged entry is index 0");

            // Every later touch serves the cached verdict — same typed
            // error through every read surface, no recheck, no panic.
            let again = reader.fetch_into(&damaged, &mut scratch, &mut i, &mut q).unwrap_err();
            assert_eq!(again, first, "{kind}: cached verdict must match the first touch");
            let entry = reader.find(&damaged).unwrap();
            assert_eq!(entry.verify().unwrap_err(), first, "{kind}: verify sees the verdict");
            assert_eq!(entry.read().unwrap_err(), first, "{kind}: read sees the verdict");
            assert_eq!(reader.crc_checked(), 1, "{kind}: verdict is cached, not recounted");
            assert_eq!(crc_gauges(&reader), (1, 1), "{kind}: cached replays move no gauge");
            assert_eq!(ring.snapshot().len(), 1, "{kind}: cached replays re-emit no event");

            // Undamaged gates still serve, bit-identical to the clean
            // eager reader — and validation progress is monotone, one
            // gauge step per first touch, with no further failures.
            let (mut ri, mut rq) = (Vec::new(), Vec::new());
            let mut rscratch = ContainerScratch::new();
            let mut last_checked = 1;
            for gate in reference.gates().filter(|g| **g != damaged) {
                reader.fetch_into(gate, &mut scratch, &mut i, &mut q).unwrap();
                reference.fetch_into(gate, &mut rscratch, &mut ri, &mut rq).unwrap();
                assert_eq!(i, ri, "{kind} {gate}: lazy I decode");
                assert_eq!(q, rq, "{kind} {gate}: lazy Q decode");
                let (checked, failed) = crc_gauges(&reader);
                assert_eq!(checked, last_checked + 1, "{kind}: progress is monotone");
                assert_eq!(failed, 1, "{kind}: clean gates add no failures");
                last_checked = checked;
            }
            assert_eq!(reader.crc_checked(), reader.len(), "{kind}: every entry now judged");
            assert_eq!(
                crc_gauges(&reader),
                (reader.len() as u64, 1),
                "{kind}: final gauges — all judged, one bad"
            );
        });
    }
}

/// Truncation is structural, not a payload property: even lazy mode
/// rejects a cut container at open with a typed error — deferral never
/// lets a short buffer through to be discovered (or panicked over) at
/// fetch time.
#[test]
fn lazy_crc_still_rejects_truncation_at_open() {
    let clean = container_bytes();
    let index_bytes =
        u64::from_le_bytes(clean[INDEX_BYTES_AT..INDEX_BYTES_AT + 8].try_into().unwrap()) as usize;
    for cut in [clean.len() - 1, HEADER_BYTES + index_bytes + 1, HEADER_BYTES + 1] {
        for kind in common::selected_kinds() {
            common::with_source(kind, &clean[..cut], ReaderOptions::lazy_crc(), |r| {
                let err = r.expect_err("a truncated container must not open lazily either");
                assert!(
                    matches!(err, ContainerError::Truncated | ContainerError::IndexInvalid(_)),
                    "{kind} cut at {cut}: got {err:?}"
                );
            });
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single payload bit flip under lazy validation: the open
    /// succeeds, exactly one gate fails its first touch with a CRC
    /// mismatch naming itself, repeat touches reproduce the identical
    /// error from the cached verdict, and every other gate still
    /// decodes — across every source kind.
    #[test]
    fn lazy_payload_flips_fail_typed_on_first_touch(
        pos in proptest::num::usize::ANY,
        bit in 0u32..8,
    ) {
        let mut bytes = container_bytes();
        let index_bytes =
            u64::from_le_bytes(bytes[INDEX_BYTES_AT..INDEX_BYTES_AT + 8].try_into().unwrap())
                as usize;
        let payload_base = HEADER_BYTES + index_bytes;
        let k = payload_base + pos % (bytes.len() - payload_base);
        bytes[k] ^= 1 << bit;

        for kind in common::selected_kinds() {
            common::with_source(kind, &bytes, ReaderOptions::lazy_crc(), |r| {
                let reader = r.expect("payload damage must not fail a lazy open");
                let mut scratch = ContainerScratch::new();
                let (mut i, mut q) = (Vec::new(), Vec::new());
                let mut failures = 0usize;
                let gates: Vec<_> = reader.gates().cloned().collect();
                for gate in &gates {
                    let first = reader.fetch_into(gate, &mut scratch, &mut i, &mut q);
                    let second = reader.fetch_into(gate, &mut scratch, &mut i, &mut q);
                    match (&first, &second) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} {}: stable decode", kind, gate),
                        (Err(a), Err(b)) => {
                            prop_assert_eq!(a, b, "{} {}: stable cached verdict", kind, gate);
                            prop_assert_eq!(
                                a,
                                &ContainerError::CrcMismatch { gate: gate.clone() },
                                "{} {}: flip must surface as that gate's CRC mismatch",
                                kind,
                                gate
                            );
                            failures += 1;
                        }
                        _ => prop_assert!(false, "{} {}: verdict flipped between touches", kind, gate),
                    }
                }
                prop_assert_eq!(failures, 1, "{}: exactly the damaged gate fails", kind);
                prop_assert_eq!(reader.crc_checked(), reader.len());
                Ok(())
            })?;
        }
    }
}
