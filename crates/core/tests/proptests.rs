//! Property-based robustness: diagnosis must never panic, whatever
//! subset of the telemetry survives and however the surviving values
//! are mangled.

use std::sync::OnceLock;

use proptest::prelude::*;

use vqd_core::dataset::{generate_corpus, to_dataset, CorpusConfig, LabeledRun};
use vqd_core::diagnoser::{Diagnoser, DiagnoserConfig, Resolution};
use vqd_core::scenario::LabelScheme;
use vqd_core::stream::{FlushCause, FlushedSession, ServeConfig, StreamServer};
use vqd_probes::degrade::{DegradeKind, DegradePlan};
use vqd_probes::event::ProbeEvent;
use vqd_video::catalog::Catalog;

/// One lab-trained model plus its corpus, shared by every property
/// (simulation and training are the expensive part).
fn fixture() -> &'static (std::sync::Arc<Diagnoser>, Vec<LabeledRun>) {
    static FIX: OnceLock<(std::sync::Arc<Diagnoser>, Vec<LabeledRun>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = CorpusConfig {
            sessions: 24,
            seed: 7701,
            ..Default::default()
        };
        let runs = generate_corpus(&cfg, &Catalog::top100(42));
        let model = Diagnoser::train(
            &to_dataset(&runs, LabelScheme::Exact),
            &DiagnoserConfig::default(),
        );
        (std::sync::Arc::new(model), runs)
    })
}

/// Check the invariants every diagnosis must satisfy.
fn check_diagnosis(model: &Diagnoser, metrics: &[(String, f64)]) -> Result<(), TestCaseError> {
    let dx = model.diagnose(metrics);
    prop_assert!(dx.class < model.classes.len());
    prop_assert_eq!(&dx.label, &model.classes[dx.class]);
    let total: f64 = dx.dist.iter().sum();
    prop_assert!(
        total.abs() < 1e-9 || (total - 1.0).abs() < 1e-6,
        "dist sums to {total}"
    );
    prop_assert!((0.0..=1.0).contains(&dx.quality.feature_coverage));
    prop_assert!((0.0..=1.0).contains(&dx.quality.missing_descent));
    prop_assert!((0.0..=1.0 + 1e-9).contains(&dx.quality.confidence));
    prop_assert_eq!(
        dx.fallback_label.is_some(),
        dx.resolution != Resolution::Exact
    );
    Ok(())
}

proptest! {
    /// Dropping any subset of the metrics (down to none at all) never
    /// panics and always yields a well-formed diagnosis.
    #[test]
    fn diagnose_survives_any_metric_subset(
        run in any::<prop::sample::Index>(),
        mask in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let base = &runs[run.index(runs.len())].metrics;
        let kept: Vec<(String, f64)> = base
            .iter()
            .enumerate()
            .filter(|(i, _)| mask[i % mask.len()])
            .map(|(_, m)| m.clone())
            .collect();
        check_diagnosis(model, &kept)?;
    }

    /// Dropping whole vantage points (any subset of them) never
    /// panics — the paper's partial-deployment scenario.
    #[test]
    fn diagnose_survives_any_vp_subset(
        run in any::<prop::sample::Index>(),
        keep_mobile in any::<bool>(),
        keep_router in any::<bool>(),
        keep_server in any::<bool>(),
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let base = &runs[run.index(runs.len())].metrics;
        let kept: Vec<(String, f64)> = base
            .iter()
            .filter(|(n, _)| {
                let vp = n.split('.').next().unwrap_or("");
                (vp == "mobile" && keep_mobile)
                    || (vp == "router" && keep_router)
                    || (vp == "server" && keep_server)
            })
            .cloned()
            .collect();
        check_diagnosis(model, &kept)?;
    }

    /// Mangling surviving values — NaN, infinities, zeros, huge
    /// magnitudes — never panics the pipeline (FC + tree descent).
    #[test]
    fn diagnose_survives_corrupt_values(
        run in any::<prop::sample::Index>(),
        hits in proptest::collection::vec((any::<prop::sample::Index>(), 0u8..5), 1..32),
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let mut metrics = runs[run.index(runs.len())].metrics.clone();
        for (pick, variant) in &hits {
            let i = pick.index(metrics.len());
            metrics[i].1 = match variant {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => 0.0,
                _ => 1e300,
            };
        }
        check_diagnosis(model, &metrics)?;
    }

    /// Any degradation plan applied to any run yields metrics the
    /// diagnoser accepts, and surviving metric names are always a
    /// subset of the input names (degradation never invents data).
    #[test]
    fn degrade_then_diagnose_never_panics(
        kind_pick in any::<prop::sample::Index>(),
        intensity in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        run in any::<prop::sample::Index>(),
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let kind = DegradeKind::ALL[kind_pick.index(DegradeKind::ALL.len())];
        let plan = DegradePlan::new(kind, intensity, seed);
        let i = run.index(runs.len());
        let degraded = plan.apply(i as u64, &runs[i].metrics);
        for (n, _) in &degraded {
            prop_assert!(runs[i].metrics.iter().any(|(m, _)| m == n));
        }
        check_diagnosis(model, &degraded)?;
    }
}

/// Bitwise equality between two diagnoses — the batch/scalar contract
/// is exact IEEE-754 bits, not approximate agreement.
fn assert_bitwise(
    a: &vqd_core::diagnoser::Diagnosis,
    b: &vqd_core::diagnoser::Diagnosis,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.label, &b.label);
    prop_assert_eq!(a.class, b.class);
    prop_assert_eq!(a.dist.len(), b.dist.len());
    for (x, y) in a.dist.iter().zip(&b.dist) {
        prop_assert_eq!(x.to_bits(), y.to_bits());
    }
    prop_assert_eq!(
        a.quality.feature_coverage.to_bits(),
        b.quality.feature_coverage.to_bits()
    );
    prop_assert_eq!(
        a.quality.missing_descent.to_bits(),
        b.quality.missing_descent.to_bits()
    );
    prop_assert_eq!(
        a.quality.confidence.to_bits(),
        b.quality.confidence.to_bits()
    );
    prop_assert_eq!(&a.quality.silent_vps, &b.quality.silent_vps);
    prop_assert_eq!(a.resolution, b.resolution);
    prop_assert_eq!(&a.fallback_label, &b.fallback_label);
    Ok(())
}

proptest! {
    /// The batched engine is bit-identical to the per-session scalar
    /// path for any mix of metric subsets, at any thread count — the
    /// serving engine's core contract, probed on adversarial shapes
    /// (shared plans, unique plans, empty sessions) rather than just
    /// the fixed corpus.
    #[test]
    fn batch_matches_scalar_bitwise_any_shape(
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..10),
        mask in proptest::collection::vec(any::<bool>(), 1..64),
        threads in 0usize..9,
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let sessions: Vec<Vec<(String, f64)>> = picks
            .iter()
            .enumerate()
            .map(|(j, p)| {
                let base = &runs[p.index(runs.len())].metrics;
                base.iter()
                    .enumerate()
                    // Rotate the mask per session so the batch mixes
                    // repeated and distinct shapes.
                    .filter(|(i, _)| mask[(i + j) % mask.len()])
                    .map(|(_, m)| m.clone())
                    .collect()
            })
            .collect();
        let batch = model.diagnose_batch(&sessions, threads);
        for (i, s) in sessions.iter().enumerate() {
            assert_bitwise(&model.diagnose(s), &batch.get(i))?;
        }
    }

    /// Same contract under telemetry degradation: any plan, any
    /// intensity, batch == scalar bit for bit and threads are
    /// invisible.
    #[test]
    fn batch_matches_scalar_bitwise_degraded(
        kind_pick in any::<prop::sample::Index>(),
        intensity in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        threads in 1usize..9,
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let kind = DegradeKind::ALL[kind_pick.index(DegradeKind::ALL.len())];
        let plan = DegradePlan::new(kind, intensity, seed);
        let sessions: Vec<Vec<(String, f64)>> = runs
            .iter()
            .take(12)
            .enumerate()
            .map(|(i, r)| plan.apply(i as u64, &r.metrics))
            .collect();
        let b1 = model.diagnose_batch(&sessions, 1);
        let bt = model.diagnose_batch(&sessions, threads);
        for (i, s) in sessions.iter().enumerate() {
            assert_bitwise(&model.diagnose(s), &b1.get(i))?;
            assert_bitwise(&b1.get(i), &bt.get(i))?;
        }
    }
}

/// Replay events through a streaming daemon and collect every flushed
/// session — the proptest twin of the helper in `tests/stream.rs`.
fn serve_all(cfg: ServeConfig, events: Vec<ProbeEvent>) -> Vec<FlushedSession> {
    use std::sync::{Arc, Mutex, PoisonError};
    let (model, _) = fixture();
    let got: Arc<Mutex<Vec<FlushedSession>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut server = StreamServer::new(Arc::clone(model), cfg, move |fs| {
        sink.lock().unwrap_or_else(PoisonError::into_inner).push(fs);
    });
    for ev in events {
        server
            .push_event(ev)
            .unwrap_or_else(|e| panic!("push without durability cannot fail: {e}"));
    }
    server
        .finish()
        .unwrap_or_else(|e| panic!("finish without durability cannot fail: {e}"));
    Arc::try_unwrap(got)
        .unwrap_or_else(|_| panic!("sink still shared after finish"))
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic xorshift64* Fisher–Yates, same scheme as `vqd events
/// --shuffle`, so any permutation is reproducible from one u64.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s.wrapping_mul(0x2545_f491_4f6c_dd1d)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

proptest! {
    /// The daemon's hard invariant, probed adversarially: a session's
    /// diagnosis is invariant under arbitrary permutation and
    /// duplication of its events, at any shard count — always bitwise
    /// identical to the scalar engine on the canonical sample set.
    #[test]
    fn stream_diagnosis_invariant_under_permutation_and_duplication(
        picks in proptest::collection::vec(any::<prop::sample::Index>(), 1..5),
        dup_mask in proptest::collection::vec(any::<bool>(), 1..32),
        order_seed in any::<u64>(),
        shards in 1usize..9,
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let mut events = Vec::new();
        for (j, p) in picks.iter().enumerate() {
            let m = &runs[p.index(runs.len())].metrics;
            for (k, (n, v)) in m.iter().enumerate() {
                events.push(ProbeEvent::sample(j.to_string(), k as u64, n.clone(), *v));
            }
            events.push(ProbeEvent::end(j.to_string(), m.len() as u64));
        }
        let dups: Vec<ProbeEvent> = events
            .iter()
            .enumerate()
            .filter(|(i, _)| dup_mask[i % dup_mask.len()])
            .map(|(_, e)| e.clone())
            .collect();
        events.extend(dups);
        shuffle(&mut events, order_seed);
        let got = serve_all(
            ServeConfig {
                shards,
                flush_batch: 3, // verdicts flush per session at any value
                ..ServeConfig::default()
            },
            events,
        );
        prop_assert_eq!(got.len(), picks.len());
        for fs in &got {
            prop_assert_eq!(fs.cause, FlushCause::Complete);
            let j: usize = fs.session.parse().unwrap_or(usize::MAX);
            prop_assert!(j < picks.len(), "unknown session {:?}", fs.session);
            let want = model.diagnose(&runs[picks[j].index(runs.len())].metrics);
            assert_bitwise(&want, &fs.diagnosis)?;
        }
    }

    /// Watermark-expired partial sessions resolve through the
    /// quality-tier fallback with no panic, for any `DegradePlan`:
    /// the expired diagnosis is well formed, bitwise equal to the
    /// scalar result on the samples that arrived, and a coarser tier
    /// always carries a fallback answer.
    #[test]
    fn watermark_expired_partials_fall_back_for_any_degrade_plan(
        kind_pick in any::<prop::sample::Index>(),
        intensity in 0.0f64..1.0,
        seed in 0u64..1_000_000,
        run in any::<prop::sample::Index>(),
        frac in 0.05f64..0.95,
    ) {
        let (model, runs) = fixture();
        let model: &Diagnoser = model;
        let kind = DegradeKind::ALL[kind_pick.index(DegradeKind::ALL.len())];
        let plan = DegradePlan::new(kind, intensity, seed);
        let i = run.index(runs.len());
        let degraded = plan.apply(i as u64, &runs[i].metrics);
        if degraded.is_empty() {
            // Plan erased every sample: nothing ever reaches the wire.
            return Ok(());
        }
        let keep = ((degraded.len() as f64 * frac) as usize).max(1);
        let partial = &degraded[..keep];
        let mut events = Vec::new();
        // The degraded session sends a prefix around t=0, then goes
        // quiet — no end marker ever arrives.
        for (k, (n, v)) in partial.iter().enumerate() {
            events.push(ProbeEvent::sample("stale", k as u64, n.clone(), *v).at(k as f64 * 1e-3));
        }
        // A busy neighbour on the same shard drives the event clock
        // far past the lateness bound so the partial session expires.
        let busy = &runs[(i + 1) % runs.len()].metrics;
        for (k, (n, v)) in busy.iter().enumerate() {
            events.push(ProbeEvent::sample("busy", k as u64, n.clone(), *v).at(1_000.0 + k as f64));
        }
        events.push(ProbeEvent::end("busy", busy.len() as u64).at(1_000.0 + busy.len() as f64));
        let got = serve_all(
            ServeConfig {
                shards: 1,
                lateness: Some(5.0),
                ..ServeConfig::default()
            },
            events,
        );
        let stale = got.iter().find(|fs| fs.session == "stale");
        let stale = match stale {
            Some(fs) => fs,
            None => return Err(TestCaseError::fail("stale session never flushed")),
        };
        // Sweeps are amortised, so a short busy stream may only expire
        // the session at EOF — either way it must resolve, not panic.
        prop_assert!(
            matches!(stale.cause, FlushCause::Watermark | FlushCause::Shutdown),
            "unexpected flush cause {:?}",
            stale.cause
        );
        assert_bitwise(&model.diagnose(partial), &stale.diagnosis)?;
        prop_assert_eq!(
            stale.diagnosis.fallback_label.is_some(),
            stale.diagnosis.resolution != Resolution::Exact
        );
    }
}

// ---------------------------------------------------------------------------
// Snapshot save → load bit-exact round trip.
// ---------------------------------------------------------------------------

/// A float that stresses the hex-bits codec: mostly arbitrary bit
/// patterns, salted with the values a naive `{}`/`parse` codec
/// mangles (-0.0, NaN with a payload, ±inf, subnormals).
fn chaos_f64(rng: &mut vqd_core::SplitMix64) -> f64 {
    match rng.below(8) {
        0 => -0.0,
        1 => f64::NAN,
        2 => f64::from_bits(0x7ff8_0000_0000_beef), // NaN payload
        3 => f64::INFINITY,
        4 => f64::NEG_INFINITY,
        5 => f64::MIN_POSITIVE / 2.0, // subnormal
        _ => f64::from_bits(rng.next_u64()),
    }
}

/// A string that stresses the JSON string codec: quotes, backslashes,
/// control characters, tabs, newlines, non-ASCII.
fn chaos_string(rng: &mut vqd_core::SplitMix64) -> String {
    const POOL: &[char] = &[
        'a', 'Z', '7', '"', '\\', '\t', '\n', '\r', '\u{1}', ' ', 'é', '→', '🎬', '\u{7f}',
    ];
    let len = rng.below(12) as usize;
    (0..len)
        .map(|_| POOL[rng.below(POOL.len() as u64) as usize])
        .collect()
}

/// An arbitrary in-flight session derived from the seed stream.
fn chaos_session(rng: &mut vqd_core::SplitMix64) -> vqd_core::stream::PortableSession {
    let n_samples = rng.below(12) as usize;
    let mut samples: Vec<(u64, String, f64)> = (0..n_samples)
        .map(|_| (rng.next_u64(), chaos_string(rng), chaos_f64(rng)))
        .collect();
    samples.sort_unstable_by_key(|(seq, _, _)| *seq);
    samples.dedup_by_key(|(seq, _, _)| *seq);
    vqd_core::stream::PortableSession {
        id: chaos_string(rng),
        expected: (rng.below(2) == 0).then(|| rng.next_u64()),
        newest_ts: (rng.below(2) == 0).then(|| chaos_f64(rng)),
        duplicates: rng.next_u64(),
        shed: rng.next_u64(),
        samples,
    }
}

/// Bit-exact snapshot equality (`==` is wrong for NaN and blind to
/// -0.0).
fn assert_snap_bits_eq(
    a: &vqd_core::stream::StreamSnapshot,
    b: &vqd_core::stream::StreamSnapshot,
) -> Result<(), TestCaseError> {
    let bits = |v: Option<f64>| v.map(f64::to_bits);
    prop_assert_eq!(a.seq, b.seq);
    prop_assert_eq!(bits(a.max_ts), bits(b.max_ts));
    prop_assert_eq!(&a.tombstones, &b.tombstones);
    prop_assert_eq!(a.sessions.len(), b.sessions.len());
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        prop_assert_eq!(&x.id, &y.id);
        prop_assert_eq!(x.expected, y.expected);
        prop_assert_eq!(bits(x.newest_ts), bits(y.newest_ts));
        prop_assert_eq!(x.duplicates, y.duplicates);
        prop_assert_eq!(x.shed, y.shed);
        prop_assert_eq!(x.samples.len(), y.samples.len());
        for ((s1, n1, v1), (s2, n2, v2)) in x.samples.iter().zip(&y.samples) {
            prop_assert_eq!(s1, s2);
            prop_assert_eq!(n1, n2);
            prop_assert_eq!(v1.to_bits(), v2.to_bits());
        }
    }
    Ok(())
}

proptest! {
    /// serialize → deserialize and save → load both reproduce the
    /// snapshot bit for bit: every float (NaN payloads, -0.0, ±inf,
    /// subnormals), every id and tombstone (quotes, control chars,
    /// non-ASCII through the JSON string codec), in order.
    #[test]
    fn snapshot_roundtrip_is_bit_exact(
        seed in any::<u64>(),
        n_sessions in 0usize..8,
        n_tombstones in 0usize..8,
    ) {
        use std::sync::atomic::{AtomicU64, Ordering};
        use vqd_core::stream::StreamSnapshot;
        static NEXT: AtomicU64 = AtomicU64::new(0);

        let mut rng = vqd_core::SplitMix64::new(seed);
        let snap = StreamSnapshot {
            seq: rng.next_u64(),
            max_ts: (rng.below(2) == 0).then(|| chaos_f64(&mut rng)),
            sessions: (0..n_sessions).map(|_| chaos_session(&mut rng)).collect(),
            tombstones: (0..n_tombstones).map(|_| chaos_string(&mut rng)).collect(),
        };

        // Text round trip.
        let text = snap.serialize();
        let back = StreamSnapshot::deserialize(&text)
            .unwrap_or_else(|(line, msg)| panic!("line {line}: {msg}"));
        assert_snap_bits_eq(&snap, &back)?;
        // Idempotence: re-serialising the decoded state is identical.
        prop_assert_eq!(&back.serialize(), &text);

        // Disk round trip (tmp + fsync + rename path).
        let dir = std::env::temp_dir().join(format!(
            "vqd-snap-prop-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = snap.save(&dir).unwrap();
        let loaded = StreamSnapshot::load(&path).unwrap();
        assert_snap_bits_eq(&snap, &loaded)?;
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
