//! Ledger invariants for the observability tier (`compaqt-obs`) and
//! its wire exposure:
//!
//! 1. **histogram properties** (proptest) — every recorded sample lands
//!    in exactly the bucket whose bounds contain it, quantile estimates
//!    stay inside the rank bucket's bounds and are monotone in `q`,
//!    `max_estimate` dominates every sample, and shard-local snapshots
//!    merge into the distribution one histogram would have seen;
//! 2. **trace-ring integrity** — drop-oldest retention is exact in the
//!    single-writer case, and under a multi-thread write storm every
//!    event a concurrent snapshot returns is internally consistent
//!    (never torn), with the recorded/dropped accounting intact;
//! 3. **metrics over loopback** — a live daemon answers the `Metrics`
//!    request with a snapshot whose wire encoding is *canonical*
//!    (re-encoding the parsed snapshot reproduces the payload bit for
//!    bit) and whose text exposition is byte-stable across the round
//!    trip.

use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::store::StoreConfig;
use compaqt::io::serve::{serve_source, Client, ServeConfig};
use compaqt::io::wire::{encode_metrics_report, parse_metrics_report};
use compaqt::io::{write_library, Reader, ReaderOptions};
use compaqt::obs::{
    bucket_bounds, render_text, Histogram, HistogramSnapshot, Snapshot, TraceEvent, TraceKind,
    TraceRing, BUCKETS,
};
use compaqt::pulse::device::Device;
use compaqt::pulse::vendor::Vendor;
use proptest::prelude::*;
use std::sync::Arc;

/// The bucket a value must land in, derived from the *public* bounds
/// contract rather than the implementation's bit twiddling: the unique
/// `b` with `bucket_bounds(b).0 <= v <= bucket_bounds(b).1`.
fn bucket_of(v: u64) -> usize {
    (0..BUCKETS)
        .find(|&b| {
            let (low, high) = bucket_bounds(b);
            low <= v && v <= high
        })
        .expect("bucket bounds must cover every u64")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bucket placement, quantile bounds/monotonicity, max domination
    /// and merge additivity, for arbitrary sample sets.
    #[test]
    fn histogram_buckets_and_quantiles_respect_their_bounds(
        samples in proptest::collection::vec(proptest::num::u64::ANY, 1..200),
        split in proptest::num::usize::ANY,
        q_milli in 0u64..=1000,
    ) {
        let hist = Histogram::new();
        for &s in &samples {
            hist.record(s);
        }
        let snap = hist.snapshot();
        prop_assert_eq!(snap.count(), samples.len() as u64);

        // Each bucket holds exactly the samples its bounds admit.
        for b in 0..BUCKETS {
            let (low, high) = bucket_bounds(b);
            let expected = samples.iter().filter(|&&s| low <= s && s <= high).count() as u64;
            prop_assert_eq!(snap.buckets[b], expected, "bucket {}", b);
        }

        // A quantile estimate lives inside the bounds of the bucket
        // holding the true rank-th smallest sample.
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let q = q_milli as f64 / 1000.0;
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let (low, high) = bucket_bounds(bucket_of(sorted[rank - 1]));
        let estimate = snap.quantile(q);
        prop_assert!(low <= estimate && estimate <= high,
            "q={} estimate {} outside [{}, {}]", q, estimate, low, high);

        // Monotone in q, and the max estimate dominates every sample.
        let (p50, p90, p99) = (snap.quantile(0.5), snap.quantile(0.9), snap.quantile(0.99));
        prop_assert!(p50 <= p90 && p90 <= p99 && p99 <= snap.max_estimate());
        prop_assert!(snap.max_estimate() >= *sorted.last().unwrap());

        // Shard-local recording merges into the global distribution.
        let cut = split % (samples.len() + 1);
        let (left, right) = (Histogram::new(), Histogram::new());
        for &s in &samples[..cut] {
            left.record(s);
        }
        for &s in &samples[cut..] {
            right.record(s);
        }
        let mut merged = left.snapshot();
        merged.merge(&right.snapshot());
        prop_assert_eq!(merged, snap);
    }

    /// Any snapshot survives the wire round trip unchanged, and the
    /// encoding is canonical: re-encoding the parsed snapshot is
    /// bit-identical, and so is the rendered text exposition.
    #[test]
    fn snapshot_wire_round_trip_is_canonical(
        counters in proptest::collection::vec(proptest::num::u64::ANY, 0..4),
        hist_samples in proptest::collection::vec(proptest::num::u64::ANY, 0..40),
        event_words in proptest::collection::vec(proptest::num::u64::ANY, 0..30),
        dropped in proptest::num::u64::ANY,
    ) {
        let mut snap = Snapshot::new();
        for (k, &v) in counters.iter().enumerate() {
            snap.push_counter(format!("counter_{k}"), v);
            snap.push_gauge(format!("gauge_{k}"), v / 2);
        }
        let hist = Histogram::new();
        for &s in &hist_samples {
            hist.record(s);
        }
        snap.push_histogram("latency_ns", hist.snapshot());
        // Each word triple becomes one event; the first word picks the
        // kind (every tag is valid modulo 8).
        for triple in event_words.chunks_exact(3) {
            let kind = TraceKind::from_tag((triple[0] % 8) as u8 + 1).unwrap();
            snap.events.push(TraceEvent { kind, a: triple[1], b: triple[2], t_ns: triple[0] });
        }
        snap.dropped_events = dropped;

        let mut wire = bytes::BytesMut::new();
        encode_metrics_report(&mut wire, &snap).unwrap();
        let payload = payload_of(&wire);
        let parsed = parse_metrics_report(payload).unwrap();
        prop_assert_eq!(&parsed, &snap);

        let mut rewire = bytes::BytesMut::new();
        encode_metrics_report(&mut rewire, &parsed).unwrap();
        prop_assert_eq!(payload_of(&rewire), payload, "re-encoding must be bit-identical");
        prop_assert_eq!(render_text(&parsed), render_text(&snap));
    }
}

/// Strips the frame header and CRC trailer off an encoded frame.
fn payload_of(frame: &[u8]) -> &[u8] {
    use compaqt::io::wire::{FRAME_HEADER_BYTES, FRAME_TRAILER_BYTES};
    &frame[FRAME_HEADER_BYTES..frame.len() - FRAME_TRAILER_BYTES]
}

/// Single-writer retention is exact: after `3 * capacity` pushes the
/// ring holds precisely the newest `capacity` events, in order, with
/// nothing dropped (no writer was ever raced).
#[test]
fn ring_drops_oldest_exactly_in_single_writer_order() {
    let ring = TraceRing::new(8);
    let cap = ring.capacity() as u64;
    for k in 0..3 * cap {
        ring.push(TraceKind::HotEviction, k, 3 * cap - k);
    }
    assert_eq!(ring.recorded(), 3 * cap);
    assert_eq!(ring.dropped(), 0, "an unraced writer never abandons an event");
    let events = ring.snapshot();
    assert_eq!(events.len(), ring.capacity());
    for (offset, event) in events.iter().enumerate() {
        let k = 2 * cap + offset as u64;
        assert_eq!(event.kind, TraceKind::HotEviction);
        assert_eq!(event.a, k, "retained events are the newest, oldest first");
        assert_eq!(event.b, 3 * cap - k);
    }
}

/// Concurrent-writer integrity: eight writer threads storm a small ring
/// (maximum lap pressure) while the main thread snapshots continuously.
/// Every event any snapshot returns must be internally consistent —
/// `a` and `b` carry a redundant encoding a torn read would break —
/// and the recorded/dropped ledger must account for every claim.
/// Run with `RUST_TEST_THREADS=8` in CI so the storm is real.
#[test]
fn ring_snapshots_are_never_torn_under_concurrent_writers() {
    const WRITERS: u64 = 8;
    const PUSHES: u64 = 20_000;
    let ring = Arc::new(TraceRing::new(16));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let ring = Arc::clone(&ring);
            scope.spawn(move || {
                for seq in 0..PUSHES {
                    // Redundant payload: b encodes (writer, seq) so a
                    // torn a/b pair is detectable in any snapshot.
                    ring.push(TraceKind::SlowRequest, w, w * PUSHES + seq);
                }
            });
        }
        // Snapshot throughout the storm; every observed event must be
        // whole.
        let mut scratch = Vec::new();
        for _ in 0..200 {
            scratch.clear();
            ring.snapshot_into(&mut scratch);
            assert!(scratch.len() <= ring.capacity());
            for event in &scratch {
                assert_eq!(event.kind, TraceKind::SlowRequest, "torn event kind");
                assert!(event.a < WRITERS, "torn event: writer {} out of range", event.a);
                assert_eq!(event.b / PUSHES, event.a, "torn event: a/b disagree");
                assert!(event.b % PUSHES < PUSHES);
            }
        }
    });

    // Every claim is accounted for: recorded counts all attempts,
    // dropped only the raced ones, and the final ring is full and
    // clean.
    assert_eq!(ring.recorded(), WRITERS * PUSHES);
    assert!(ring.dropped() <= ring.recorded());
    let final_events = ring.snapshot();
    assert!(!final_events.is_empty());
    for event in &final_events {
        assert_eq!(event.b / PUSHES, event.a);
    }
}

/// The live-daemon scrape: a served store (codec metrics armed, a
/// deliberately hair-trigger slow-request threshold) answers `Metrics`
/// with a snapshot carrying both tiers' telemetry, and the exposition
/// survives the wire bit-for-bit.
#[test]
fn metrics_over_loopback_round_trips_bit_identically() {
    let lib = Device::synthesize(Vendor::Ibm, 3, 0x0B5).pulse_library();
    let bytes = write_library(&lib, &Compressor::new(Variant::IntDctW { ws: 16 })).unwrap();
    let reader = Reader::open(bytes, ReaderOptions::default()).unwrap();
    let store =
        Arc::new(reader.into_store(StoreConfig { shards: 4, hot_capacity: lib.len() }).unwrap());
    let config = ServeConfig {
        slow_request: std::time::Duration::from_nanos(1),
        trace_events: 64,
        ..ServeConfig::default()
    };
    let handle = serve_source(Arc::clone(&store), "127.0.0.1:0", config).unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    client.ping().unwrap();
    let gates = client.gates().unwrap();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for gate in gates.iter().take(4) {
        client.fetch_into(gate, &mut i, &mut q).unwrap();
    }
    // Decode through the store directly so the codec histograms have
    // samples regardless of how the serve path fetches streams (wire
    // fetches are zero-parse and never decode), and warm one hot-set
    // slot so the residency gauge moves.
    store.fetch_into(&gates[0], &mut i, &mut q).unwrap();
    store.fetch_cached(&gates[0]).unwrap();

    // First scrape: both tiers are present with live values.
    let snap = client.metrics().unwrap();
    assert!(snap.counter("serve_requests").unwrap() >= 6, "ping + list + 4 fetches");
    assert_eq!(snap.counter("serve_protocol_errors"), Some(0));
    assert_eq!(snap.counter("serve_timeouts"), Some(0));
    assert_eq!(snap.gauge("serve_connections"), Some(1), "exactly this client is connected");
    assert_eq!(snap.counter("store_fetches"), Some(2), "the two direct store calls above");
    assert!(snap.histogram("store_decode_ns").unwrap().count() >= 1);
    assert!(
        snap.histogram("store_decode_ns_int_dct_w16").unwrap().count() >= 1,
        "per-variant breakdown is armed"
    );
    assert!(snap.gauge("store_hot_len").unwrap() >= 1);
    // The hair-trigger threshold made every request slow; events from
    // the serve tier's ring ride along in the same snapshot.
    assert!(snap.events.iter().any(|e| e.kind == TraceKind::ConnOpen));
    assert!(snap.events.iter().any(|e| e.kind == TraceKind::SlowRequest));

    // Second scrape: the first Metrics request itself is now ledgered
    // in its own latency histogram.
    let second = client.metrics().unwrap();
    assert!(second.histogram("serve_metrics_ns").unwrap().count() >= 1);
    assert!(second.counter("serve_requests").unwrap() > snap.counter("serve_requests").unwrap());

    // Canonical wire form: re-encoding the scraped snapshot must be
    // bit-identical to a fresh encoding of its parse, and the text
    // exposition byte-stable across the round trip.
    let mut wire = bytes::BytesMut::new();
    encode_metrics_report(&mut wire, &second).unwrap();
    let parsed = parse_metrics_report(payload_of(&wire)).unwrap();
    assert_eq!(parsed, second);
    let mut rewire = bytes::BytesMut::new();
    encode_metrics_report(&mut rewire, &parsed).unwrap();
    assert_eq!(&*rewire, &*wire, "scraped snapshots re-encode bit-identically");
    let text = render_text(&second);
    assert_eq!(render_text(&parsed), text);
    assert!(text.contains("serve_requests"), "exposition names every sample");

    // The in-process hub is the same ledger the wire reported.
    let stats = handle.stats();
    assert_eq!(stats.connections_accepted, 1);
    assert_eq!(stats.protocol_errors, 0);
    assert!(handle.obs().ring().recorded() > 0);

    drop(client);
    handle.shutdown();
}

/// An empty snapshot — no samples, no events — is also canonical on
/// the wire (the degenerate case a fresh daemon with an uninstrumented
/// source would serve).
#[test]
fn empty_snapshot_round_trips() {
    let snap = Snapshot::new();
    let mut wire = bytes::BytesMut::new();
    encode_metrics_report(&mut wire, &snap).unwrap();
    let parsed = parse_metrics_report(payload_of(&wire)).unwrap();
    assert_eq!(parsed, snap);
    assert_eq!(parsed.samples.len(), 0);
    assert_eq!(parsed.events.len(), 0);
    assert_eq!(parsed.dropped_events, 0);
    assert_eq!(HistogramSnapshot::empty().count(), 0);
}
