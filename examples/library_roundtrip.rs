//! Library round-trip: compress a whole device library, persist it as
//! a CWL container file, load it back as a fresh serving process would,
//! and serve every gate — then demonstrate the integrity check catching
//! a corrupted byte.
//!
//! ```sh
//! cargo run --release --example library_roundtrip
//! ```

use compaqt::core::compress::{Compressor, Variant, SAMPLE_BYTES};
use compaqt::core::store::StoreConfig;
use compaqt::io::{write_library, Reader, ReaderOptions};
use compaqt::pulse::device::Device;
use compaqt::pulse::vendor::Vendor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Calibration host: synthesize a 5-qubit machine and compress
    //    its full pulse library with the paper's design point.
    let device = Device::synthesize(Vendor::Ibm, 5, 0x10AD);
    let lib = device.pulse_library();
    let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
    let raw_bytes = lib.total_samples() * SAMPLE_BYTES;
    println!("library : {} gates, {} raw sample bytes", lib.len(), raw_bytes);

    // 2. Save: one deterministic container (same library ⇒ same bytes).
    let bytes = write_library(&lib, &compressor)?;
    println!(
        "save    : {} container bytes ({:.2}x smaller than raw samples)",
        bytes.len(),
        raw_bytes as f64 / bytes.len() as f64
    );
    let path = std::env::temp_dir().join("compaqt_library_roundtrip.cwl");
    std::fs::write(&path, &bytes)?;

    // 3. Load: a serving process validates the whole index (bounds,
    //    ordering, CRC-32 per entry) before trusting a single payload.
    let loaded = std::fs::read(&path)?;
    std::fs::remove_file(&path).ok();
    let reader = Reader::open(loaded, ReaderOptions::default())?;
    println!(
        "load    : {} entries validated, library rate {:?} GS/s",
        reader.len(),
        reader.sample_rate_gs()
    );
    for entry in reader.entries().take(3) {
        println!(
            "          {:<12} {:<18} {:>4} payload bytes  crc32 {:08x}",
            format!("{}", entry.gate()),
            entry.variant().label(),
            entry.payload_len(),
            entry.crc32()
        );
    }

    // 4. Serve: bulk-load the sharded store (streams move straight in,
    //    no re-encode) and batch-fetch the whole schedule's gate list.
    let store = reader.into_store(StoreConfig::default())?;
    let gates = store.gates();
    let mut outs: Vec<(Vec<f64>, Vec<f64>)> = gates.iter().map(|_| Default::default()).collect();
    let stats = store.fetch_many(&gates, &mut outs)?;
    let mut served = 0usize;
    for (gate, (i, _)) in gates.iter().zip(&outs) {
        assert_eq!(i.len(), lib.get(gate).expect("served gate came from the library").len());
        served += i.len();
    }
    println!(
        "serve   : {} gates, {served} samples/channel, {:.2}x bandwidth expansion",
        gates.len(),
        stats.bandwidth_expansion()
    );

    // 5. Integrity: a single flipped payload byte is caught at load
    //    time and attributed to the damaged gate.
    let mut mangled = bytes.to_vec();
    let last = mangled.len() - 1;
    mangled[last] ^= 0x04;
    match Reader::open(mangled, ReaderOptions::default()) {
        Err(e) => println!("corrupt : rejected as expected — {e}"),
        Ok(_) => unreachable!("a flipped payload byte must not validate"),
    }
    Ok(())
}
