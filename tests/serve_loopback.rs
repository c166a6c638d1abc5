//! Loopback stress for `compaqt-serve`: a container-loaded [`Store`]
//! behind a real TCP listener, hammered by concurrent blocking
//! clients, must serve every waveform **bit-identical** to a direct
//! in-process `Store::fetch_into`, honor its connection cap with a
//! graceful Busy rejection, free stalled slots via the read timeout,
//! and treat application-level misses (unknown gate) as answers — not
//! as reasons to drop the connection.

use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::store::{Store, StoreConfig};
use compaqt::io::serve::{serve, serve_source, Client, ServeConfig, ServeError, ServeStats};
use compaqt::io::{write_library, ErrorCode, Reader, ReaderOptions};
use compaqt::pulse::device::Device;
use compaqt::pulse::library::{GateId, GateKind, PulseLibrary};
use std::sync::Arc;
use std::time::Duration;

/// The full 16-qubit guadalupe pulse library — the paper's headline
/// device, and big enough (hundreds of waveforms) that eight clients
/// sweeping it concurrently actually contend on the store's shards.
fn guadalupe() -> Arc<PulseLibrary> {
    Device::named_machine("guadalupe").pulse_library()
}

/// Loads a store the deployment way: library → CWL container bytes →
/// validated [`Reader`] → sharded [`Store`].
fn container_loaded_store(lib: &PulseLibrary) -> Arc<Store> {
    let bytes = write_library(lib, &Compressor::new(Variant::IntDctW { ws: 16 })).unwrap();
    let reader = Reader::open(bytes, ReaderOptions::default()).unwrap();
    let config = StoreConfig { shards: 8, hot_capacity: lib.len() };
    Arc::new(reader.into_store(config).unwrap())
}

/// Asserts the server's ledger settles at exactly `expected`. Counters
/// increment just after the response bytes are written, so a client can
/// observe its answer a beat before the ledger moves — spin briefly
/// before the final (exact) comparison.
fn assert_exact_ledger(handle: &compaqt::io::serve::ServerHandle, expected: ServeStats) {
    for _ in 0..200 {
        if handle.stats() == expected {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(handle.stats(), expected);
}

#[test]
fn eight_concurrent_clients_fetch_bit_identically() {
    let lib = guadalupe();
    let store = container_loaded_store(&lib);

    // Ground truth: every gate decoded directly, bits recorded.
    let gates = store.gates();
    let expected: Vec<(Vec<u64>, Vec<u64>)> = {
        let (mut i, mut q) = (Vec::new(), Vec::new());
        gates
            .iter()
            .map(|g| {
                store.fetch_into(g, &mut i, &mut q).unwrap();
                (i.iter().map(|s| s.to_bits()).collect(), q.iter().map(|s| s.to_bits()).collect())
            })
            .collect()
    };

    let handle = serve(Arc::clone(&store), "127.0.0.1:0").unwrap();
    let addr = handle.local_addr();

    const CLIENTS: usize = 8;
    std::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (gates, expected) = (&gates, &expected);
            scope.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.ping().unwrap();
                let (mut i, mut q) = (Vec::new(), Vec::new());
                // Each client sweeps the library from a different
                // starting point so the shard access pattern differs.
                for k in 0..gates.len() {
                    let n = (k + c * gates.len() / CLIENTS) % gates.len();
                    client.fetch_into(&gates[n], &mut i, &mut q).unwrap();
                    let (ei, eq) = &expected[n];
                    assert!(
                        i.iter().map(|s| s.to_bits()).eq(ei.iter().copied()),
                        "served I samples must be bit-identical to Store::fetch_into"
                    );
                    assert!(
                        q.iter().map(|s| s.to_bits()).eq(eq.iter().copied()),
                        "served Q samples must be bit-identical to Store::fetch_into"
                    );
                }
            });
        }
    });

    // The exact ledger: one ping + one fetch per gate per client, and
    // nothing else moved — no rejections, no protocol errors, no
    // timeouts.
    assert_exact_ledger(
        &handle,
        ServeStats {
            connections_accepted: CLIENTS as u64,
            connections_rejected_busy: 0,
            requests_served: (CLIENTS * (gates.len() + 1)) as u64,
            fetches_served: (CLIENTS * gates.len()) as u64,
            protocol_errors: 0,
            timeouts: 0,
        },
    );
    handle.shutdown();
}

#[test]
fn batch_list_and_digest_match_the_store() {
    let lib = guadalupe();
    let store = container_loaded_store(&lib);
    let handle = serve(Arc::clone(&store), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // The served gate list is the store's own (sorted) list.
    let gates = client.gates().unwrap();
    assert_eq!(gates, store.gates());

    // One batched round trip equals per-gate fetches, bit for bit.
    let mut batch: Vec<(Vec<f64>, Vec<f64>)> = vec![(Vec::new(), Vec::new()); gates.len()];
    client.fetch_many_into(&gates, &mut batch).unwrap();
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for (gate, (bi, bq)) in gates.iter().zip(&batch) {
        store.fetch_into(gate, &mut i, &mut q).unwrap();
        assert!(i.iter().map(|s| s.to_bits()).eq(bi.iter().map(|s| s.to_bits())));
        assert!(q.iter().map(|s| s.to_bits()).eq(bq.iter().map(|s| s.to_bits())));
    }

    // The owned-stream fetch returns exactly what the store holds.
    let owned = client.fetch(&gates[0]).unwrap();
    store.with_stream(&gates[0], |z| assert_eq!(&owned, z)).unwrap();

    // The digest counts every gate — and moves when the library does.
    let before = client.digest().unwrap();
    assert_eq!(before.gates as usize, lib.len());
    assert!(before.payload_bytes > 0);
    let extra = GateId::single(GateKind::Custom("loopback_extra".into()), 0);
    store.insert(extra, owned).unwrap();
    let after = client.digest().unwrap();
    assert_eq!(after.gates, before.gates + 1);
    assert!(after.payload_bytes > before.payload_bytes);
    assert_ne!(after.fingerprint, before.fingerprint);

    drop(client);
    handle.shutdown();
}

#[test]
fn connection_cap_rejects_with_busy_then_recovers() {
    let lib = guadalupe();
    let store = container_loaded_store(&lib);
    let config = ServeConfig { max_connections: 1, ..ServeConfig::default() };
    let handle = serve_source(store, "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    let mut first = Client::connect(addr).unwrap();
    first.ping().unwrap();

    // The second connection is turned away with a typed Busy frame —
    // not a silent reset.
    let mut second = Client::connect(addr).unwrap();
    match second.ping() {
        Err(ServeError::Remote { code: ErrorCode::Busy, .. }) => {}
        other => panic!("expected a Busy rejection, got {other:?}"),
    }

    // Once the first client leaves, its slot frees and service resumes
    // (allow a moment for the connection thread to wind down).
    drop(first);
    let recovered = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(10));
        Client::connect(addr).and_then(|mut c| c.ping()).is_ok()
    });
    assert!(recovered, "a freed slot must readmit clients");
    assert!(handle.stats().connections_rejected_busy >= 1);
    // Clients left on their own; the 30 s default deadline never fired.
    assert_eq!(handle.stats().timeouts, 0);
    handle.shutdown();
}

#[test]
fn read_timeout_frees_a_stalled_slot() {
    let lib = guadalupe();
    let store = container_loaded_store(&lib);
    let config = ServeConfig {
        max_connections: 1,
        read_timeout: Duration::from_millis(100),
        ..ServeConfig::default()
    };
    let handle = serve_source(store, "127.0.0.1:0", config).unwrap();
    let addr = handle.local_addr();

    // A client that connects and then says nothing pins the only slot…
    let stalled = Client::connect(addr).unwrap();
    // …until the read timeout disconnects it and frees the slot.
    let recovered = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        Client::connect(addr).and_then(|mut c| c.ping()).is_ok()
    });
    assert!(recovered, "the read timeout must evict a stalled connection");
    // Exactly one deadline fired: the stalled client's. The probing
    // clients above were Busy-rejected or left cleanly (EOF), and
    // neither path counts as a timeout.
    assert_eq!(handle.stats().timeouts, 1);
    drop(stalled);
    handle.shutdown();
}

#[test]
fn unknown_gate_is_an_answer_not_a_disconnect() {
    let lib = guadalupe();
    let store = container_loaded_store(&lib);
    let handle = serve(store, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    let absent = GateId::single(GateKind::Custom("no_such_gate".into()), 77);
    let (mut i, mut q) = (Vec::new(), Vec::new());
    match client.fetch_into(&absent, &mut i, &mut q) {
        Err(ServeError::Remote { code: ErrorCode::UnknownGate, .. }) => {}
        other => panic!("expected an UnknownGate response, got {other:?}"),
    }
    // A batch naming an absent gate is all-or-nothing.
    let mut outs = vec![(Vec::new(), Vec::new())];
    match client.fetch_many_into(std::slice::from_ref(&absent), &mut outs) {
        Err(ServeError::Remote { code: ErrorCode::UnknownGate, .. }) => {}
        other => panic!("expected an UnknownGate batch response, got {other:?}"),
    }

    // The connection survives application-level misses.
    client.ping().unwrap();
    let gates = client.gates().unwrap();
    client.fetch_into(&gates[0], &mut i, &mut q).unwrap();
    assert!(!i.is_empty());

    // The exact ledger: five requests (two misses, ping, list, one
    // fetch), one stream served, and no errors of any kind.
    assert_exact_ledger(
        &handle,
        ServeStats {
            connections_accepted: 1,
            connections_rejected_busy: 0,
            requests_served: 5,
            fetches_served: 1,
            protocol_errors: 0,
            timeouts: 0,
        },
    );
    handle.shutdown();
}
