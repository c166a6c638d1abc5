//! `compaqt-serve` end to end: host compresses a device library into a
//! CWL container, a daemon loads it into the sharded store and serves
//! it over the CWS wire protocol on loopback, and a fleet of
//! controller clients pulls gates concurrently — compressed on the
//! wire, decoded client-side, bit-identical to a direct store fetch.
//!
//! ```sh
//! cargo run --release --example serve
//! ```

use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::store::StoreConfig;
use compaqt::io::serve::{serve_source, Client, ServeConfig};
use compaqt::io::{write_library, Reader, ReaderOptions};
use compaqt::pulse::device::Device;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Host side: compress the 16-qubit guadalupe library into a CWL
    //    container — the artifact a deployment actually ships.
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let bytes = write_library(&lib, &compressor)?;
    println!("container: {} gates in {} bytes", lib.len(), bytes.len());

    // 2. Daemon side: validate the container, load the store, listen.
    let reader = Reader::open(bytes, ReaderOptions::default())?;
    let store = Arc::new(reader.into_store(StoreConfig { shards: 8, hot_capacity: lib.len() })?);
    let config = ServeConfig { max_connections: 16, ..ServeConfig::default() };
    let handle = serve_source(Arc::clone(&store), "127.0.0.1:0", config)?;
    println!("serving on {}", handle.local_addr());

    // 3. Controller side: eight concurrent clients sweep the library.
    let gates = store.gates();
    let addr = handle.local_addr();
    let started = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..8 {
            let gates = &gates;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.ping().expect("ping");
                let (mut i, mut q) = (Vec::new(), Vec::new());
                let mut samples = 0usize;
                for gate in gates {
                    let stats = client.fetch_into(gate, &mut i, &mut q).expect("fetch");
                    samples += stats.output_samples;
                }
                println!("client {c}: {} gates, {samples} samples", gates.len());
            });
        }
    });
    let elapsed = started.elapsed();

    // 4. One more client checks the library digest and a batched fetch.
    let mut client = Client::connect(addr)?;
    let digest = client.digest()?;
    println!(
        "digest: {} gates, {} payload bytes, fingerprint {:#018x}",
        digest.gates, digest.payload_bytes, digest.fingerprint
    );
    let batch: Vec<_> = gates.iter().take(16).cloned().collect();
    let mut outs = vec![(Vec::new(), Vec::new()); batch.len()];
    client.fetch_many_into(&batch, &mut outs)?;
    println!("batched: {} gates in one round trip", batch.len());

    let stats = handle.stats();
    println!(
        "server: {} connections, {} requests, {} fetches, {} protocol errors in {:.1} ms",
        stats.connections_accepted,
        stats.requests_served,
        stats.fetches_served,
        stats.protocol_errors,
        elapsed.as_secs_f64() * 1e3
    );
    drop(client);
    handle.shutdown();
    Ok(())
}
