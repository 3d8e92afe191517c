//! Live-ops surface integration tests: audit-enabled descent must be
//! bitwise verdict-identical to audit-off across the scalar, batch and
//! streamed paths at shard counts 1 and 8; every flushed session with
//! audit on carries exactly one decision path whose replay reproduces
//! its verdict; and the drift monitor windows serve traffic without
//! false alarms when live traffic matches the training distribution.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use vqd::prelude::*;

fn fixture() -> &'static (Arc<Diagnoser>, Vec<LabeledRun>) {
    static FIX: OnceLock<(Arc<Diagnoser>, Vec<LabeledRun>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = CorpusConfig {
            sessions: 32,
            seed: 9464,
            ..Default::default()
        };
        let runs = generate_corpus(&cfg, &Catalog::top100(42));
        let model = Diagnoser::train(
            &to_dataset(&runs, LabelScheme::Exact),
            &DiagnoserConfig::default(),
        );
        (Arc::new(model), runs)
    })
}

fn assert_bit_identical(a: &Diagnosis, b: &Diagnosis, what: &str) {
    let bits = |v: f64| v.to_bits();
    assert_eq!(a.label, b.label, "{what}: label");
    assert_eq!(a.class, b.class, "{what}: class");
    for (i, (x, y)) in a.dist.iter().zip(&b.dist).enumerate() {
        assert_eq!(bits(*x), bits(*y), "{what}: dist[{i}] {x} vs {y}");
    }
    assert_eq!(
        bits(a.quality.feature_coverage),
        bits(b.quality.feature_coverage),
        "{what}: coverage"
    );
    assert_eq!(
        bits(a.quality.confidence),
        bits(b.quality.confidence),
        "{what}: confidence"
    );
    assert_eq!(a.resolution, b.resolution, "{what}: resolution");
    assert_eq!(a.fallback_label, b.fallback_label, "{what}: fallback");
}

/// Serializes the daemons this file runs: the obs registry is
/// process-global, so a counter check must not see another test's
/// serve traffic.
static SERVE_RUNS: Mutex<()> = Mutex::new(());

/// Replay `events` through a daemon and collect every flushed session.
fn serve_all(cfg: ServeConfig, events: Vec<ProbeEvent>) -> Vec<FlushedSession> {
    let _serial = SERVE_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    let (model, _) = fixture();
    let got: Arc<Mutex<Vec<FlushedSession>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut server = StreamServer::new(Arc::clone(model), cfg, move |fs| {
        sink.lock().unwrap_or_else(PoisonError::into_inner).push(fs);
    });
    for ev in events {
        server
            .push_event(ev)
            .expect("no durability, push cannot fail");
    }
    server.finish().expect("no durability, finish cannot fail");
    Arc::try_unwrap(got)
        .unwrap_or_else(|_| panic!("sink still shared after finish"))
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Deterministic xorshift64* Fisher–Yates, same scheme as `vqd events
/// --shuffle`.
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

/// The acceptance gate's first half: turning audit on changes no
/// output bit anywhere. Scalar diagnose is the reference; the batch
/// engine runs audit-off and audit-on at 1 and 8 threads; the streamed
/// daemon runs audit-on at 1 and 8 shards. Every path must agree
/// bitwise on every session.
#[test]
fn audit_on_is_bitwise_identical_across_scalar_batch_and_streamed_paths() {
    let (model, runs) = fixture();
    let sessions: Vec<&Vec<(String, f64)>> = runs.iter().map(|r| &r.metrics).collect();

    // Scalar reference, and audit-off batch (the pre-change behavior).
    let scalar: Vec<Diagnosis> = runs.iter().map(|r| model.diagnose(&r.metrics)).collect();
    let plain = model.diagnose_batch(&sessions, 1);

    for threads in [1usize, 8] {
        let audited = model.diagnose_batch_with(
            &sessions,
            threads,
            BatchOptions {
                audit: true,
                ..Default::default()
            },
        );
        for (i, reference) in scalar.iter().enumerate() {
            let dx = audited.get(i);
            assert_bit_identical(
                reference,
                &dx,
                &format!("threads={threads} scalar vs audited"),
            );
            assert_bit_identical(
                &plain.get(i),
                &dx,
                &format!("threads={threads} plain vs audited"),
            );
            let steps = audited
                .audit_path(i)
                .unwrap_or_else(|| panic!("audit on but no path for session {i}"));
            assert!(!steps.is_empty(), "session {i}: descent crossed no split?");
            // The recorded path alone reproduces the verdict bitwise.
            let (dist, class, _) = model
                .replay_audit(steps)
                .unwrap_or_else(|e| panic!("session {i}: replay failed: {e}"));
            assert_eq!(class, dx.class, "session {i}: replayed class");
            for (k, (a, b)) in dist.iter().zip(&dx.dist).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "session {i}: replayed dist[{k}] {a} vs {b}"
                );
            }
        }
    }

    // Streamed: shuffled arrival, audit on, shard counts 1 and 8.
    for shards in [1usize, 8] {
        let mut events = corpus_to_events(runs);
        shuffle(&mut events, 0xA0D17 + shards as u64);
        let cfg = ServeConfig {
            shards,
            flush_batch: 5,
            audit: true,
            ..ServeConfig::default()
        };
        let got = serve_all(cfg, events);
        assert_eq!(got.len(), runs.len(), "shards={shards}: session count");
        for fs in &got {
            let idx: usize = fs
                .session
                .parse()
                .unwrap_or_else(|_| panic!("session id {:?} is not a corpus index", fs.session));
            assert_bit_identical(
                &scalar[idx],
                &fs.diagnosis,
                &format!("shards={shards} session {idx}"),
            );
        }
    }
}

/// The acceptance gate's second half: with audit on, every flushed
/// session has exactly one audit record, and replaying that record
/// through the same model reproduces the session's exact verdict.
#[test]
fn every_streamed_session_has_one_replayable_audit_record() {
    let (model, runs) = fixture();
    for shards in [1usize, 8] {
        let mut events = corpus_to_events(runs);
        shuffle(&mut events, 0x5EED + shards as u64);
        let got = serve_all(
            ServeConfig {
                shards,
                audit: true,
                ..ServeConfig::default()
            },
            events,
        );
        let mut per_session: HashMap<&str, usize> = HashMap::new();
        for fs in &got {
            *per_session.entry(fs.session.as_str()).or_default() += 1;
            let steps = fs
                .audit
                .as_deref()
                .unwrap_or_else(|| panic!("shards={shards} {}: no audit record", fs.session));
            let (dist, class, _) = model
                .replay_audit(steps)
                .unwrap_or_else(|e| panic!("shards={shards} {}: replay: {e}", fs.session));
            assert_eq!(class, fs.diagnosis.class, "{}: replayed class", fs.session);
            for (k, (a, b)) in dist.iter().zip(&fs.diagnosis.dist).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "shards={shards} {}: dist[{k}]",
                    fs.session
                );
            }
        }
        assert_eq!(per_session.len(), runs.len(), "shards={shards}");
        assert!(
            per_session.values().all(|&c| c == 1),
            "shards={shards}: exactly one audit record per session"
        );
    }
}

/// Audit off means audit off: no trail on the batch, no record on the
/// flushed sessions — the default path allocates nothing for audit.
#[test]
fn audit_off_records_nothing() {
    let (model, runs) = fixture();
    let sessions: Vec<&Vec<(String, f64)>> = runs.iter().map(|r| &r.metrics).collect();
    let batch = model.diagnose_batch(&sessions, 2);
    assert!(batch.audit_path(0).is_none());
    let got = serve_all(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        corpus_to_events(&runs[..4]),
    );
    assert!(got.iter().all(|fs| fs.audit.is_none()));
}

/// Drift monitoring over serve traffic drawn from the training
/// distribution itself: the windowed sketches match the stamp (PSI at
/// the noise floor), the label mix stays inside the alert threshold,
/// and no alert fires. The window must have seen every session once,
/// including sessions left in shard windows short of the `flush_batch`
/// fold cadence at shutdown (the second input never reaches it).
#[test]
fn drift_monitor_windows_serve_traffic_without_false_alarms() {
    let (model, runs) = fixture();
    for (shards, flush_batch) in [(4usize, 8usize), (2, runs.len() + 1)] {
        let what = format!("shards={shards} flush_batch={flush_batch}");
        let stamp = model
            .drift_stamp()
            .expect("freshly trained model carries a drift stamp")
            .clone();
        let monitor = Arc::new(Mutex::new(DriftMonitor::new(stamp)));
        // The fixture is below the production 64-row minimum; lower the
        // floor to the corpus size so the final window evaluates while
        // mid-stream partial windows stay silent.
        monitor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .min_rows = runs.len() as u64;
        let mut events = corpus_to_events(runs);
        shuffle(&mut events, 7);
        let got = serve_all(
            ServeConfig {
                shards,
                flush_batch,
                drift: Some(Arc::clone(&monitor)),
                ..ServeConfig::default()
            },
            events,
        );
        assert_eq!(got.len(), runs.len(), "{what}");
        let mut mon = monitor.lock().unwrap_or_else(PoisonError::into_inner);
        let reading = mon.evaluate();
        assert_eq!(
            reading.rows,
            runs.len() as u64,
            "{what}: one windowed row per session"
        );
        let max_psi = reading.psi.iter().map(|(_, v)| *v).fold(0.0f64, f64::max);
        assert!(
            max_psi < 0.05,
            "{what}: traffic from the training distribution must sit at the PSI noise floor, \
             got {max_psi}"
        );
        assert!(
            reading.label_mix < 0.25,
            "{what}: resubstitution label mix {} crossed the alert threshold",
            reading.label_mix
        );
        assert!(
            mon.alerts().is_empty(),
            "{what}: false drift alarm on training traffic: {:?}",
            mon.alerts()
        );
        assert!(reading.confidence_avg > 0.0 && reading.confidence_avg <= 1.0);
        assert!(reading.coverage_avg > 0.0 && reading.coverage_avg <= 1.0);
    }
}

/// The producer reports routed events to the `serve.events` counter in
/// batches; `finish()` folds the remainder, so the counter ends equal
/// to the report's event count.
#[test]
fn serve_events_counter_matches_the_report() {
    let (_, runs) = fixture();
    let mut events = corpus_to_events(runs);
    events.push(events[0].clone()); // one duplicate sample
    let _serial = SERVE_RUNS.lock().unwrap_or_else(PoisonError::into_inner);
    vqd_obs::enable();
    let before = vqd_obs::snapshot().counter("serve.events");
    let (model, _) = fixture();
    let mut server = StreamServer::new(
        Arc::clone(model),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        |_| {},
    );
    for ev in events.iter().cloned() {
        server
            .push_event(ev)
            .expect("no durability, push cannot fail");
    }
    let report = server.finish().expect("no durability, finish cannot fail");
    let counted = vqd_obs::snapshot().counter("serve.events") - before;
    vqd_obs::disable();
    assert_eq!(report.events, events.len() as u64);
    assert!(
        !report.events.is_multiple_of(256),
        "the input must leave a remainder below the reporting batch"
    );
    assert_eq!(counted, report.events);
}
