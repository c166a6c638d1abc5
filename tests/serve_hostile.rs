//! Hostile-wire robustness for `compaqt-serve`, mirroring
//! `container_hostile`: a server (or client-side frame parser) fed
//! attacker-controlled bytes must answer with a typed
//! [`ProtocolError`] / error frame and a clean close — never a panic,
//! never an allocation sized from a lying length field, and never a
//! dead server: after every attack the listener must still serve the
//! next well-formed client.
//!
//! The mangler attacks both layers:
//!
//! 1. **arbitrary garbage** through the pure frame validator and the
//!    full [`Responder`] (no sockets — this is the layer the
//!    `alloc_regression` suite also drives);
//! 2. **bit flips on a real request frame** over a real socket —
//!    magic, version, kind, length and CRC damage all land here;
//! 3. **truncation** — every prefix of a real frame, delivered with a
//!    write-side shutdown so the server sees EOF mid-frame;
//! 4. **length lies** — the header's `len` field rewritten to claim
//!    payloads the bytes cannot back, including multi-gigabyte claims
//!    that must be rejected *before* any buffer is sized from them;
//! 5. **payload lies** — well-framed, CRC-valid payloads whose inner
//!    structure is wrong (bad gate encodings, batch counts that lie).

use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::store::{Store, StoreConfig};
use compaqt::io::serve::{serve, serve_source, Client, Responder, ServeConfig};
use compaqt::io::wire::{
    begin_frame, encode_fetch_gate, end_frame, parse_frame, FrameKind, DEFAULT_MAX_FRAME_BYTES,
};
use compaqt::pulse::device::Device;
use compaqt::pulse::library::{GateId, GateKind};
use compaqt::pulse::vendor::Vendor;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

fn test_store() -> Arc<Store> {
    let lib = Device::synthesize(Vendor::Ibm, 2, 0x5EED).pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let config = StoreConfig { shards: 4, hot_capacity: lib.len() };
    Arc::new(Store::from_library_with(&lib, &compressor, config).unwrap())
}

/// A real, well-formed `FetchGate` request frame to mangle.
fn clean_request() -> Vec<u8> {
    let mut out = bytes::BytesMut::new();
    encode_fetch_gate(&mut out, &GateId::single(GateKind::X, 0)).unwrap();
    out.as_ref().to_vec()
}

/// Delivers raw bytes to the server, closes the write side so the
/// server never stalls waiting for more, and drains whatever the
/// server says until it closes. Returns the response bytes.
///
/// The invariant under test is liveness, not the response: the server
/// thread must survive to serve the next client.
fn deliver(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    // The server may close mid-write on garbage; broken pipes are the
    // attack working, not a test failure.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut response = Vec::new();
    let _ = stream.read_to_end(&mut response);
    response
}

/// After an attack, a well-formed client must still be served.
fn assert_still_serving(addr: SocketAddr) {
    let mut client = Client::connect(addr).unwrap();
    client.ping().unwrap();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    client.fetch_into(&GateId::single(GateKind::X, 0), &mut i, &mut q).unwrap();
    assert!(!i.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary bytes never panic the pure frame validator, and a
    /// frame that happens to validate never panics the responder.
    #[test]
    fn arbitrary_garbage_never_panics_the_responder(
        garbage in proptest::collection::vec(proptest::num::u8::ANY, 0..256),
    ) {
        let store = test_store();
        let mut responder = Responder::new(&ServeConfig::default());
        let _ = parse_frame(&garbage, DEFAULT_MAX_FRAME_BYTES);
        let _ = responder.respond(&store, &garbage);
        // A responder that survived garbage must still answer cleanly.
        let clean = clean_request();
        prop_assert!(responder.respond(&store, &clean).is_ok());
    }

    /// A single bit flip anywhere in a real request either still
    /// parses (payload-adjacent flips caught by the CRC — so parsing
    /// implies the flip landed nowhere) or is a typed error; the
    /// responder never panics either way.
    #[test]
    fn bit_flips_never_panic(pos in proptest::num::usize::ANY, bit in 0u32..8) {
        let store = test_store();
        let mut responder = Responder::new(&ServeConfig::default());
        let mut frame = clean_request();
        let k = pos % frame.len();
        frame[k] ^= 1 << bit;
        let _ = responder.respond(&store, &frame);
        let clean = clean_request();
        prop_assert!(responder.respond(&store, &clean).is_ok());
    }

    /// Every truncation of a real frame is rejected as Truncated (or
    /// whatever typed error an earlier header check hits) — never
    /// accepted, never a panic.
    #[test]
    fn truncations_are_always_rejected(cut in proptest::num::usize::ANY) {
        let store = test_store();
        let mut responder = Responder::new(&ServeConfig::default());
        let frame = clean_request();
        let cut = cut % frame.len();
        prop_assert!(responder.respond(&store, &frame[..cut]).is_err());
    }

    /// A rewritten length field can never buy a response: too-large
    /// claims die at the header check, and any other lie breaks the
    /// CRC or the payload structure.
    #[test]
    fn length_lies_are_always_rejected(len in proptest::num::u32::ANY) {
        let store = test_store();
        let mut responder = Responder::new(&ServeConfig::default());
        let mut frame = clean_request();
        let truth = (frame.len() - 16) as u32;
        prop_assume!(len != truth);
        frame[8..12].copy_from_slice(&len.to_le_bytes());
        prop_assert!(responder.respond(&store, &frame).is_err());
    }
}

/// The socket-level mangler: every attack lands on a live server, and
/// after each one the server must serve a fresh well-formed client.
#[test]
fn mangled_frames_on_the_wire_never_kill_the_server() {
    let store = test_store();
    let handle = serve(store, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();
    let clean = clean_request();

    // Bit flips across the whole frame — header, payload and CRC.
    for k in 0..clean.len() {
        let mut frame = clean.clone();
        frame[k] ^= 0x10;
        deliver(addr, &frame);
    }
    // Every truncation, including the empty send (a clean EOF).
    for cut in 0..clean.len() {
        deliver(addr, &clean[..cut]);
    }
    // Length lies, including an oversized claim a trusting server
    // would turn into a multi-gigabyte buffer.
    for lie in [0u32, 1, u32::MAX, DEFAULT_MAX_FRAME_BYTES + 1, 1 << 30] {
        let mut frame = clean.clone();
        frame[8..12].copy_from_slice(&lie.to_le_bytes());
        deliver(addr, &frame);
    }
    // CRC corruption with intact structure.
    let mut frame = clean.clone();
    let last = frame.len() - 1;
    frame[last] ^= 0xFF;
    deliver(addr, &frame);
    // A response kind sent as a request.
    let mut out = bytes::BytesMut::new();
    begin_frame(&mut out, FrameKind::Pong);
    end_frame(&mut out);
    deliver(addr, &out);
    // Well-framed, CRC-valid, structurally rotten payload: a FetchGate
    // whose gate encoding is garbage.
    let mut out = bytes::BytesMut::new();
    begin_frame(&mut out, FrameKind::FetchGate);
    bytes::BufMut::put_slice(&mut out, &[0xEE, 0xEE, 0xEE]);
    end_frame(&mut out);
    deliver(addr, &out);

    assert_still_serving(addr);
    let stats = handle.stats();
    assert!(stats.protocol_errors > 0, "the attacks above must register as protocol errors");
    // Every attack was answered (or EOF'd) immediately — nothing sat
    // on a read deadline, and no slot was ever contended.
    assert_eq!(stats.timeouts, 0, "protocol rejections must not masquerade as timeouts");
    assert_eq!(stats.connections_rejected_busy, 0);
    handle.shutdown();
}

/// The deterministic oversized-claim check: a header claiming a
/// payload over the cap is rejected *before* any payload byte is read
/// or buffered — the error frame comes back immediately, with the
/// claimed gigabytes never sent.
#[test]
fn oversized_claims_are_rejected_before_buffering() {
    let store = test_store();
    let handle = serve(store, "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    // Header only: magic, version, FetchGate, and a 1 GiB length claim.
    let mut header = Vec::new();
    header.extend_from_slice(&u32::from_le_bytes(*b"CWS\0").to_le_bytes());
    header.extend_from_slice(&1u16.to_le_bytes());
    header.extend_from_slice(&0x0002u16.to_le_bytes());
    header.extend_from_slice(&(1u32 << 30).to_le_bytes());

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(std::time::Duration::from_secs(5))).unwrap();
    stream.write_all(&header).unwrap();
    // Do NOT shut down the write side: if the server (wrongly) waited
    // for the claimed payload, the read below would time out.
    let mut response = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => response.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("expected an immediate error frame, got {e}"),
        }
    }
    let (kind, _) = parse_frame(&response, DEFAULT_MAX_FRAME_BYTES).unwrap();
    assert_eq!(kind, FrameKind::Error);

    assert_still_serving(addr);
    handle.shutdown();
}

/// A peer that trickles one byte per 100 ms never trips a 200 ms
/// per-read timeout, so only the per-frame deadline can take its slot
/// back: the frame claims a 1 KiB payload (about 100 s of trickle),
/// and the server must close well inside two read timeouts plus
/// scheduling slack, ledgering exactly one timeout.
#[test]
fn trickled_frames_lose_their_slot_to_the_frame_deadline() {
    use std::time::{Duration, Instant};

    let config = ServeConfig { read_timeout: Duration::from_millis(200), ..ServeConfig::default() };
    let handle = serve_source(test_store(), "127.0.0.1:0", config).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::from_le_bytes(*b"CWS\0").to_le_bytes());
    frame.extend_from_slice(&1u16.to_le_bytes());
    frame.extend_from_slice(&FrameKind::FetchGate.tag().to_le_bytes());
    frame.extend_from_slice(&1024u32.to_le_bytes());
    frame.resize(frame.len() + 1024 + 4, 0xA5);

    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    // The 100 ms read wait doubles as the trickle interval.
    stream.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
    let started = Instant::now();
    let mut closed = false;
    for byte in &frame {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            closed = true;
            break;
        }
        let mut sink = [0u8; 64];
        match stream.read(&mut sink) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            _ => {
                closed = true;
                break;
            }
        }
        if started.elapsed() > Duration::from_millis(1500) {
            break;
        }
    }
    let elapsed = started.elapsed();
    assert!(closed, "the server still held the trickling connection after {elapsed:?}");
    assert!(elapsed < Duration::from_millis(1500), "closed only after {elapsed:?}");
    assert_eq!(handle.stats().timeouts, 1);
    assert_still_serving(handle.local_addr());
    handle.shutdown();
}
