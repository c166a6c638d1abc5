//! Scraping a live `compaqt-serve` daemon: a container-loaded store
//! serves a device library over loopback while clients generate
//! traffic, then one `Metrics` request pulls the whole telemetry
//! snapshot — store counters, per-variant decode histograms, serve-tier
//! request latencies, and the trace ring — and renders it as a
//! Prometheus-style text exposition.
//!
//! ```sh
//! cargo run --release --example metrics_scrape
//! ```

use compaqt::core::compress::{Compressor, Variant};
use compaqt::core::store::StoreConfig;
use compaqt::io::serve::{serve_source, Client, ServeConfig};
use compaqt::io::{write_library, Reader, ReaderOptions};
use compaqt::obs::render_text;
use compaqt::pulse::device::Device;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A container-loaded store (its latency histograms, aggregate
    //    and per-variant, are always on).
    let device = Device::named_machine("guadalupe");
    let lib = device.pulse_library();
    let bytes = write_library(&lib, &Compressor::new(Variant::IntDctW { ws: 16 }))?;
    let reader = Reader::open(bytes, ReaderOptions::default())?;
    let store = Arc::new(reader.into_store(StoreConfig { shards: 8, hot_capacity: lib.len() })?);

    // 2. Serve it, with slow-request tracing armed at 200 µs so the
    //    trace ring has something to say about loopback traffic.
    let config = ServeConfig {
        max_connections: 16,
        slow_request: Duration::from_micros(200),
        trace_events: 128,
        ..ServeConfig::default()
    };
    let handle = serve_source(Arc::clone(&store), "127.0.0.1:0", config)?;
    let addr = handle.local_addr();
    println!("serving on {addr}");

    // 3. Generate traffic: wire fetches from two clients, plus direct
    //    store decodes so the codec histograms fill.
    let gates = store.gates();
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let gates = &gates;
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let (mut i, mut q) = (Vec::new(), Vec::new());
                for gate in gates {
                    client.fetch_into(gate, &mut i, &mut q).expect("fetch");
                }
            });
        }
    });
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for gate in &gates {
        store.fetch_into(gate, &mut i, &mut q)?;
        store.fetch_cached(gate)?;
    }

    // 4. Scrape: one Metrics round trip returns the full snapshot.
    let mut client = Client::connect(addr)?;
    let snap = client.metrics()?;
    println!("\n--- text exposition ({} samples) ---", snap.samples.len());
    print!("{}", render_text(&snap));

    // 5. The same numbers, read programmatically.
    let decode = snap.histogram("store_decode_ns").expect("always present");
    println!("--- highlights ---");
    println!(
        "store decodes: {} samples, p50 ~{} ns, p99 ~{} ns, max ~{} ns",
        decode.count(),
        decode.quantile(0.5),
        decode.quantile(0.99),
        decode.max_estimate()
    );
    // The per-variant breakdown is always on: the scrape must carry the
    // row of the one variant that decoded. A container-loaded store
    // encoded nothing, so it reports no encode histogram.
    let variant = snap
        .histogram("store_decode_ns_int_dct_w16")
        .expect("scrape lacks store_decode_ns_int_dct_w16");
    assert!(variant.count() > 0, "int-DCT-W (WS=16) row recorded no decodes");
    assert!(snap.histogram("store_encode_ns").is_none(), "empty encode histogram scraped");
    println!("int-DCT-W (WS=16) decodes: {} samples", variant.count());
    let fetch = snap.histogram("serve_fetch_gate_ns").expect("always present");
    println!("wire fetches: {} requests, p90 ~{} ns", fetch.count(), fetch.quantile(0.9));
    println!(
        "trace ring: {} events in the snapshot ({} dropped under race)",
        snap.events.len(),
        snap.dropped_events
    );
    for event in snap.events.iter().rev().take(5) {
        println!("  [{:>12} ns] {:?} a={} b={}", event.t_ns, event.kind, event.a, event.b);
    }

    drop(client);
    handle.shutdown();
    Ok(())
}
