//! `qec_wire`: the paper's deployment loop. One `Client` connection
//! over loopback replays the syndrome cycle of a distance-5 surface
//! code against a served `Store`, decoding every gate client-side.
//! Stresses wire, serve and client decode; the fetch loop never touches
//! the hot set, the encoder or the container.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use compaqt::core::engine::{DecodeScratch, DecompressionEngine};
use compaqt::core::store::{Store, StoreConfig};
use compaqt::io::crc32::crc32;
use compaqt::io::serve::{serve, Client, Responder, ServeConfig, ServerHandle};
use compaqt::io::wire::{encode_fetch_gate, FRAME_TRAILER_BYTES};
use compaqt::pulse::library::{GateId, GateKind};
use compaqt::pulse::vendor::Vendor;
use compaqt::quantum::circuits::Op;
use compaqt::quantum::schedule::asap;
use compaqt::quantum::surface::SurfacePatch;
use compaqt::quantum::transpile::transpile;

use crate::common::{
    alternate, blocks, compressor, median, repeated_setup, time_setup, Block, E2e, Library, OneCpu,
    Opts, Outcome, Rng, Samples, Window, WINDOWS,
};

const DEVICE: &str = "surface-d5";
const DISTANCE: usize = 5;
/// One ping per this many traced plays measures the transport floor.
const PING_EVERY: usize = 8;

/// A served library plus the connected client and the replay trace.
struct Setup {
    // Field order is drop order: the client disconnects before the
    // server shuts down, so no connection thread outlives the run.
    client: Client,
    _server: ServerHandle,
    store: Arc<Store>,
    lib: Library,
    /// One syndrome cycle as indices into `lib.gates`, rotated by the
    /// seed.
    plays: Vec<usize>,
    /// Response frame bytes of one syndrome cycle.
    cycle_response_bytes: u64,
    /// Waveform samples (per channel) of one syndrome cycle.
    cycle_samples: u64,
}

/// Maps a scheduled circuit op onto the gate id its waveform lives
/// under (`None` for virtual RZ). CX edges use the (low, high) order
/// the topology generators emit.
fn gate_of(op: Op) -> Option<GateId> {
    match op {
        Op::X(q) => Some(GateId::single(GateKind::X, q as u16)),
        Op::Sx(q) => Some(GateId::single(GateKind::Sx, q as u16)),
        Op::Measure(q) => Some(GateId::single(GateKind::Measure, q as u16)),
        Op::Cx(a, b) => Some(GateId::pair(GateKind::Cx, a.min(b) as u16, a.max(b) as u16)),
        Op::Rz(..) => None,
        other => panic!("op {other:?} survived transpilation"),
    }
}

/// The transpiled, ASAP-scheduled syndrome cycle as gate ids in
/// schedule order.
fn syndrome_trace() -> Vec<GateId> {
    let lowered = transpile(&SurfacePatch::unrotated(DISTANCE).syndrome_cycle());
    let sched = asap(&lowered, &Vendor::Ibm.params());
    let mut timed: Vec<(f64, usize, Op)> =
        sched.ops.iter().enumerate().map(|(k, s)| (s.start_ns, k, s.op)).collect();
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    timed.into_iter().filter_map(|(_, _, op)| gate_of(op)).collect()
}

fn request_frame(gate: &GateId) -> Vec<u8> {
    let mut out = BytesMut::new();
    encode_fetch_gate(&mut out, gate).expect("library gate ids fit the wire format");
    out.to_vec()
}

fn setup(opts: &Opts) -> Setup {
    let mut lib = Library::build(DEVICE, opts.seed);
    let store = Arc::new(Store::new(StoreConfig::default()));
    lib.compile_into(&store);

    let index: HashMap<&GateId, usize> =
        lib.gates.iter().enumerate().map(|(k, g)| (g, k)).collect();
    let cycle: Vec<usize> = syndrome_trace()
        .iter()
        .map(|g| *index.get(g).unwrap_or_else(|| panic!("trace gate {g} not in {DEVICE}")))
        .collect();
    let start = Rng::new(opts.seed).below(cycle.len());
    let plays: Vec<usize> = cycle[start..].iter().chain(&cycle[..start]).copied().collect();
    if opts.corrupt_reference {
        lib.refs[plays[0]].corrupt();
    }

    // Exact per-cycle wire volume, from the in-process responder.
    let mut responder = Responder::new(&ServeConfig::default());
    let (mut cycle_response_bytes, mut cycle_samples) = (0u64, 0u64);
    for &g in &plays {
        let frame =
            responder.respond(&*store, &request_frame(&lib.gates[g])).expect("valid request");
        cycle_response_bytes += frame.len() as u64;
        cycle_samples += lib.waveforms[g].len() as u64;
    }

    let server = serve(Arc::clone(&store), "127.0.0.1:0").expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect loopback");
    // Warm the connection and every client-side buffer.
    let (mut i, mut q) = (Vec::new(), Vec::new());
    for &g in &plays {
        client.fetch_into(&lib.gates[g], &mut i, &mut q).expect("warm-up fetch");
    }
    Setup { client, _server: server, store, lib, plays, cycle_response_bytes, cycle_samples }
}

/// Closed-loop replay for one window of `seconds`: one `fetch_into` in
/// flight at a time, each checked bit-exact outside its timed span.
fn replay(s: &mut Setup, seconds: f64, pos: &mut usize, b: &mut Block) {
    let mut w = Window {
        fetch: Samples::with_capacity((seconds * 80_000.0) as usize),
        ..Window::default()
    };
    let (mut i, mut q) = (Vec::new(), Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    loop {
        let g = s.plays[*pos];
        *pos = (*pos + 1) % s.plays.len();
        let t0 = Instant::now();
        let result = s.client.fetch_into(&s.lib.gates[g], &mut i, &mut q);
        let t1 = Instant::now();
        b.attempted += 1;
        match result {
            Ok(stats) => {
                w.fetch.push(t0, t1);
                w.output_samples += stats.output_samples as u64;
                if !s.lib.refs[g].matches(&i, &q) {
                    b.failed += 1;
                }
            }
            Err(_) => b.failed += 1,
        }
        if t1 >= deadline {
            w.secs = (t1 - started).as_secs_f64();
            b.windows.push(w);
            return;
        }
    }
}

/// The untraced run: blocks of replay windows, each window followed by
/// a compile of the library into a private store (the recalibration
/// figures), each block by one more timed set-up.
pub fn run(opts: &Opts) -> Outcome {
    let _one_cpu = OneCpu::pin();
    let (mut s, mut setups) = repeated_setup(|| setup(opts));
    let mut pos = 0;
    let blocks = blocks(opts.seconds, |window_s| {
        let mut b = Block::default();
        let mut compiles = Vec::with_capacity(WINDOWS);
        for _ in 0..WINDOWS {
            replay(&mut s, window_s, &mut pos, &mut b);
            let recal = s.lib.compile_into(&Store::new(StoreConfig::default()));
            compiles.push(recal.total_ns() as f64 / 1e9);
            b.windows.last_mut().expect("replay adds a window").recal = recal;
        }
        b.compile_s = median(&compiles);
        setups.push(time_setup(|| setup(opts)));
        b
    });
    let bytes_per_sample = s.cycle_response_bytes as f64 / s.cycle_samples as f64;
    E2e { blocks, bytes_per_sample, setups }.into_outcome()
}

/// The traced run: untraced replay windows alternate with windows that
/// time every layer call from outside, for the per-layer fetch budget.
pub fn run_traced(opts: &Opts) -> Outcome {
    let _one_cpu = OneCpu::pin();
    let mut s = setup(opts);
    let requests: Vec<Vec<u8>> = s.lib.gates.iter().map(request_frame).collect();
    let mut responder = Responder::new(&ServeConfig::default());
    let engine = DecompressionEngine::for_variant(compressor().variant()).expect("engine");
    let mut scratch = DecodeScratch::new();
    let (mut fetch, mut rtt, mut decode, mut respond, mut crc, mut with_stream, mut ping) = (
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
        Samples::default(),
    );
    let (mut plain_p50, mut traced_p50) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed, mut untraced_n) = (0u64, 0u64, 0usize);
    let (mut i, mut q, mut i2, mut q2) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut pos, mut played) = (0usize, 0usize);
    alternate(opts.seconds, |window_s, traced| {
        if !traced {
            let mut b = Block::default();
            replay(&mut s, window_s, &mut pos, &mut b);
            let w = &mut b.windows[0];
            plain_p50.push(w.fetch.median_ns());
            untraced_n += w.fetch.len();
            attempted += b.attempted;
            failed += b.failed;
            return;
        }
        let mut window_fetch = Samples::default();
        let deadline = Instant::now() + Duration::from_secs_f64(window_s);
        while Instant::now() < deadline {
            let g = s.plays[pos];
            pos = (pos + 1) % s.plays.len();
            let gate = &s.lib.gates[g];
            attempted += 1;

            let t0 = Instant::now();
            let result = s.client.fetch_into(gate, &mut i, &mut q);
            window_fetch.push(t0, Instant::now());
            if result.is_err() || !s.lib.refs[g].matches(&i, &q) {
                failed += 1;
            }

            let t0 = Instant::now();
            let stream = s.client.fetch(gate);
            rtt.push(t0, Instant::now());
            match stream {
                Ok(z) => {
                    let t0 = Instant::now();
                    let decoded = engine.decompress_into(&z, &mut scratch, &mut i2, &mut q2);
                    decode.push(t0, Instant::now());
                    if decoded.is_err() || !s.lib.refs[g].matches(&i2, &q2) {
                        failed += 1;
                    }
                }
                Err(_) => failed += 1,
            }

            let t0 = Instant::now();
            let frame = responder.respond(&*s.store, &requests[g]).expect("valid request");
            respond.push(t0, Instant::now());
            // The client's CRC check of the response frame.
            let body = &frame[..frame.len() - FRAME_TRAILER_BYTES];
            let t0 = Instant::now();
            black_box(crc32(black_box(body)));
            crc.push(t0, Instant::now());

            let t0 = Instant::now();
            let _ = black_box(s.store.with_stream(gate, |z| black_box(z.n_samples)));
            with_stream.push(t0, Instant::now());

            if played % PING_EVERY == 0 {
                let t0 = Instant::now();
                let pong = s.client.ping();
                ping.push(t0, Instant::now());
                if pong.is_err() {
                    failed += 1;
                }
            }
            played += 1;
        }
        traced_p50.push(window_fetch.median_ns());
        fetch.extend(&window_fetch);
    });

    let fetch_us = fetch.median_ns() / 1e3;
    // The server's response (lookup, encode, its CRC) plus the client's
    // CRC check and decode, over the transport floor of a ping.
    let stages_us =
        (ping.median_ns() + respond.median_ns() + crc.median_ns() + decode.median_ns()) / 1e3;
    let overhead = median(&traced_p50) / median(&plain_p50) - 1.0;
    let mut out = Outcome { attempted, failed, ..Outcome::default() };
    out.metric("qec_wire.serve.ping_us", ping.median_ns() / 1e3, "us");
    out.metric("qec_wire.serve.respond_us", respond.median_ns() / 1e3, "us");
    out.metric("qec_wire.store.with_stream_ns", with_stream.median_ns(), "ns");
    out.metric("qec_wire.wire.crc_us", crc.median_ns() / 1e3, "us");
    out.metric("qec_wire.wire.response_bytes", s.cycle_response_bytes as f64, "B/cycle");
    out.metric("qec_wire.client.stream_rtt_us", rtt.median_ns() / 1e3, "us");
    out.metric("qec_wire.engine.decode_us", decode.median_ns() / 1e3, "us");
    out.metric("qec_wire.traced_fetch_us", fetch_us, "us");
    out.metric("qec_wire.stage_coverage", stages_us / fetch_us, "ratio");
    out.metric("qec_wire.trace_overhead_pct", overhead * 100.0, "%");
    out.note(format!(
        "qec_wire traced: n={} fetches, n={} pings in {} traced windows; untraced n={} in {} \
         windows; stage sum {stages_us:.3} us = ping + respond + crc + decode medians",
        fetch.len(),
        ping.len(),
        traced_p50.len(),
        untraced_n,
        plain_p50.len()
    ));
    out
}

/// Exact per-cycle counts for a seed, for the repeatability test.
#[cfg(test)]
pub fn cycle_counts(seed: u64) -> (u64, u64) {
    let s = setup(&Opts { seed, seconds: 0.0, corrupt_reference: false });
    (s.cycle_response_bytes, s.cycle_samples)
}
