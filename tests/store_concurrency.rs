//! Concurrency and equivalence tests for the serving-path store.
//!
//! The store's contract: any number of reader threads fetching any mix
//! of gates — through the streaming path (`fetch_into`) or the hot set
//! (`fetch_cached`) — observe waveforms **bit-exact** with a
//! single-threaded engine decode, even while writer threads recalibrate
//! gates under them. Readers racing a writer must see either the old or
//! the new calibration in full, never a torn or stale-cached mix.
//!
//! Tests live in a `store` module so CI's threaded-stress step can
//! select exactly this suite plus the in-crate store unit tests with
//! one name filter (`cargo test store::`).

mod store {
    use compaqt::core::compress::{CompressedWaveform, Compressor, Variant};
    use compaqt::core::engine::{DecodeScratch, DecompressionEngine};
    use compaqt::core::store::{Store, StoreConfig, StoreError};
    use compaqt::pulse::device::Device;
    use compaqt::pulse::library::{GateId, PulseLibrary};
    use compaqt::pulse::vendor::Vendor;
    use compaqt::pulse::waveform::Waveform;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn library() -> Arc<PulseLibrary> {
        Device::synthesize(Vendor::Ibm, 4, 0x5708E).pulse_library()
    }

    /// Single-threaded reference: gate -> (I, Q) through the engine.
    fn reference_decodes(
        lib: &PulseLibrary,
        compressor: &Compressor,
    ) -> HashMap<GateId, (Vec<f64>, Vec<f64>)> {
        let engine = DecompressionEngine::for_variant(compressor.variant()).unwrap();
        let mut scratch = DecodeScratch::new();
        let mut out = HashMap::new();
        for (gate, wf) in lib.iter() {
            let z = compressor.compress(wf).unwrap();
            let (mut i, mut q) = (Vec::new(), Vec::new());
            engine.decompress_into(&z, &mut scratch, &mut i, &mut q).unwrap();
            out.insert(gate.clone(), (i, q));
        }
        out
    }

    #[test]
    fn concurrent_readers_are_bit_exact_with_sequential_decode() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store = Store::from_library(&lib, &compressor).unwrap();
        let reference = reference_decodes(&lib, &compressor);
        let gates: Vec<GateId> = store.gates();

        const READERS: usize = 8;
        const PASSES: usize = 20;
        std::thread::scope(|scope| {
            for r in 0..READERS {
                let store = &store;
                let gates = &gates;
                let reference = &reference;
                scope.spawn(move || {
                    let (mut i, mut q) = (Vec::new(), Vec::new());
                    for pass in 0..PASSES {
                        // Stagger start points so readers collide on
                        // different shards each pass.
                        for k in 0..gates.len() {
                            let gate = &gates[(k + r + pass) % gates.len()];
                            let (ri, rq) = &reference[gate];
                            store.fetch_into(gate, &mut i, &mut q).unwrap();
                            assert_eq!(ri, &i, "{gate}: fetch_into I channel");
                            assert_eq!(rq, &q, "{gate}: fetch_into Q channel");
                            let cached = store.fetch_cached(gate).unwrap();
                            assert_eq!(ri.as_slice(), cached.i(), "{gate}: cached I channel");
                            assert_eq!(rq.as_slice(), cached.q(), "{gate}: cached Q channel");
                        }
                    }
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.fetches, (READERS * PASSES * gates.len() * 2) as u64);
        assert!(stats.hot_hits > 0, "repeat cached fetches must hit");
    }

    #[test]
    fn writers_and_readers_interleave_without_torn_or_stale_reads() {
        // Two full calibrations of the same device; writers flip every
        // gate back and forth between them while readers continuously
        // fetch. Every read must match calibration A or calibration B
        // exactly — a torn waveform or a stale hot-set decode after an
        // insert would match neither.
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let recalibrated: PulseLibrary = lib
            .iter()
            .map(|(gate, wf)| {
                let bumped: Vec<f64> = wf.i().iter().map(|v| v * 0.5).collect();
                (gate.clone(), Waveform::new(format!("{gate}"), bumped, wf.q().to_vec(), 4.54))
            })
            .collect();
        let ref_a = reference_decodes(&lib, &compressor);
        let ref_b = reference_decodes(&recalibrated, &compressor);
        let streams_a: HashMap<GateId, CompressedWaveform> =
            lib.iter().map(|(gate, wf)| (gate.clone(), compressor.compress(wf).unwrap())).collect();
        let streams_b: HashMap<GateId, CompressedWaveform> = recalibrated
            .iter()
            .map(|(gate, wf)| (gate.clone(), compressor.compress(wf).unwrap()))
            .collect();

        let store = Store::from_library_with(
            &lib,
            &compressor,
            StoreConfig { shards: 4, hot_capacity: 256 },
        )
        .unwrap();
        let gates: Vec<GateId> = store.gates();
        let stop = AtomicBool::new(false);

        const WRITERS: usize = 2;
        const READERS: usize = 6;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let store = &store;
                let gates = &gates;
                let (streams_a, streams_b) = (&streams_a, &streams_b);
                let stop = &stop;
                scope.spawn(move || {
                    let mut flip = w % 2 == 0;
                    while !stop.load(Ordering::Relaxed) {
                        for gate in gates.iter().skip(w).step_by(WRITERS) {
                            let src = if flip { streams_b } else { streams_a };
                            store.insert(gate.clone(), src[gate].clone()).unwrap();
                        }
                        flip = !flip;
                    }
                });
            }
            let readers: Vec<_> = (0..READERS)
                .map(|r| {
                    let store = &store;
                    let gates = &gates;
                    let (ref_a, ref_b) = (&ref_a, &ref_b);
                    scope.spawn(move || {
                        let (mut i, mut q) = (Vec::new(), Vec::new());
                        for pass in 0..30 {
                            for k in 0..gates.len() {
                                let gate = &gates[(k + r + pass) % gates.len()];
                                let a = &ref_a[gate];
                                let b = &ref_b[gate];
                                store.fetch_into(gate, &mut i, &mut q).unwrap();
                                let streamed_ok = (a.0 == i && a.1 == q) || (b.0 == i && b.1 == q);
                                assert!(streamed_ok, "{gate}: fetch_into saw a torn calibration");
                                let cached = store.fetch_cached(gate).unwrap();
                                let ci = cached.i();
                                let cq = cached.q();
                                let cached_ok =
                                    (a.0 == ci && a.1 == cq) || (b.0 == ci && b.1 == cq);
                                assert!(
                                    cached_ok,
                                    "{gate}: fetch_cached saw a torn or stale decode"
                                );
                            }
                        }
                    })
                })
                .collect();
            for handle in readers {
                handle.join().unwrap();
            }
            stop.store(true, Ordering::Relaxed);
        });
        // Final state must be exactly one of the two calibrations.
        let (mut i, mut q) = (Vec::new(), Vec::new());
        for gate in &gates {
            store.fetch_into(gate, &mut i, &mut q).unwrap();
            let a = &ref_a[gate];
            let b = &ref_b[gate];
            assert!((a.0 == i && a.1 == q) || (b.0 == i && b.1 == q), "{gate}");
        }
    }

    /// The hot path's freshness contract, cross-thread: a
    /// `fetch_cached` that *begins* after an `insert` returned must
    /// observe that insert's calibration (or a newer one) — never an
    /// older decode left in the hot set. Each round publishes a
    /// distinct calibration, so a stale hit is distinguishable from a
    /// legitimately-newer one: the observed round may only move
    /// forward from what the reader saw published before fetching.
    #[test]
    fn cached_fetch_begun_after_insert_observes_the_new_calibration() {
        use std::sync::atomic::AtomicU64;

        const ROUNDS: u64 = 64;
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store = Store::from_library(&lib, &compressor).unwrap();
        let gate = store.gates().remove(0);
        let base = lib.get(&gate).unwrap();

        // One distinct stream (and reference decode) per round.
        let mut streams = Vec::new();
        let mut refs: Vec<Vec<f64>> = Vec::new();
        let engine = DecompressionEngine::for_variant(compressor.variant()).unwrap();
        let mut scratch = DecodeScratch::new();
        for r in 0..=ROUNDS {
            let scaled: Vec<f64> =
                base.i().iter().map(|v| v * (1.0 + r as f64 / ROUNDS as f64)).collect();
            let wf = Waveform::new(format!("{gate}"), scaled, base.q().to_vec(), 4.54);
            let z = compressor.compress(&wf).unwrap();
            let (mut i, mut q) = (Vec::new(), Vec::new());
            engine.decompress_into(&z, &mut scratch, &mut i, &mut q).unwrap();
            streams.push(z);
            refs.push(i);
        }

        // `published` only advances *after* the matching insert
        // returned, so round k visible ⇒ insert k complete.
        let published = AtomicU64::new(u64::MAX); // nothing published yet
        std::thread::scope(|scope| {
            let store = &store;
            let (streams, refs, gate) = (&streams, &refs, &gate);
            let published = &published;
            scope.spawn(move || {
                for r in 0..=ROUNDS {
                    store.insert(gate.clone(), streams[r as usize].clone()).unwrap();
                    published.store(r, Ordering::SeqCst);
                }
            });
            scope.spawn(move || {
                loop {
                    let before = published.load(Ordering::SeqCst);
                    if before == u64::MAX {
                        std::hint::spin_loop();
                        continue; // nothing published yet
                    }
                    let seen = store.fetch_cached(gate).unwrap();
                    let observed = refs
                        .iter()
                        .position(|r| r.as_slice() == seen.i())
                        .expect("cached fetch returned a waveform no calibration produced");
                    assert!(
                        observed as u64 >= before,
                        "fetch begun after round {before} returned stale round {observed}"
                    );
                    if before == ROUNDS {
                        return;
                    }
                }
            });
        });
        // The settled state is exactly the final calibration.
        assert_eq!(store.fetch_cached(&gate).unwrap().i(), refs[ROUNDS as usize].as_slice());
    }

    #[test]
    fn removed_gates_error_while_others_keep_serving() {
        let lib = library();
        let compressor = Compressor::new(Variant::IntDctW { ws: 16 });
        let store = Store::from_library(&lib, &compressor).unwrap();
        let gates = store.gates();
        let (victims, survivors) = gates.split_at(gates.len() / 2);
        std::thread::scope(|scope| {
            let store = &store;
            scope.spawn(move || {
                for gate in victims {
                    assert!(store.remove(gate).is_some());
                }
            });
            for _ in 0..4 {
                scope.spawn(move || {
                    let (mut i, mut q) = (Vec::new(), Vec::new());
                    for _ in 0..10 {
                        for gate in survivors {
                            store.fetch_into(gate, &mut i, &mut q).unwrap();
                            assert!(!i.is_empty());
                        }
                    }
                });
            }
        });
        for gate in victims {
            assert!(matches!(store.fetch_cached(gate), Err(StoreError::UnknownGate(_))));
        }
        assert_eq!(store.len(), survivors.len());
    }

    /// All variants the codec supports, across every window size.
    fn all_variants() -> Vec<Variant> {
        let mut v = vec![Variant::Delta, Variant::DctN];
        for ws in compaqt::dsp::intdct::SUPPORTED_SIZES {
            v.push(Variant::DctW { ws });
            v.push(Variant::IntDctW { ws });
        }
        v
    }

    /// Random low-harmonic mixtures: the smooth band-limited waveform
    /// class the codec is designed for.
    fn smooth_signal(len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec(-1.0f64..1.0, 6).prop_map(move |coeffs| {
            (0..len)
                .map(|t| {
                    let x = t as f64 / len as f64;
                    let mut v = 0.0;
                    for (k, c) in coeffs.iter().enumerate() {
                        v += c * (std::f64::consts::PI * (k + 1) as f64 * x).sin();
                    }
                    0.9 * v / coeffs.len() as f64
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn fetch_into_matches_decompress_into_for_every_variant(xs in smooth_signal(160)) {
            // The store's fetch path is the engine's `_into` path plus
            // sharding, the per-thread scratch and accounting — none of
            // which may perturb a single sample, for any encoding variant.
            let wf = Waveform::from_real("prop", xs, 4.54);
            let store = Store::new(StoreConfig { shards: 2, hot_capacity: 4 });
            let mut scratch = DecodeScratch::new();
            let (mut ei, mut eq) = (Vec::new(), Vec::new());
            let (mut si, mut sq) = (Vec::new(), Vec::new());
            for (k, variant) in all_variants().into_iter().enumerate() {
                let gate = GateId::single(
                    compaqt::pulse::library::GateKind::Custom(format!("v{k}")),
                    k as u16,
                );
                let z = Compressor::new(variant).compress(&wf).unwrap();
                let engine = DecompressionEngine::for_variant(variant).unwrap();
                let expect_stats =
                    engine.decompress_into(&z, &mut scratch, &mut ei, &mut eq).unwrap();
                store.insert(gate.clone(), z).unwrap();
                let stats = store.fetch_into(&gate, &mut si, &mut sq).unwrap();
                prop_assert_eq!(&ei, &si, "{:?}: I channel must be bit-exact", variant);
                prop_assert_eq!(&eq, &sq, "{:?}: Q channel must be bit-exact", variant);
                prop_assert_eq!(expect_stats, stats, "{:?}: engine stats must agree", variant);
                // The cached path decodes through the same kernels.
                let cached = store.fetch_cached(&gate).unwrap();
                prop_assert_eq!(&ei[..], cached.i(), "{:?}: cached I channel", variant);
                prop_assert_eq!(&eq[..], cached.q(), "{:?}: cached Q channel", variant);
            }
        }
    }
}
