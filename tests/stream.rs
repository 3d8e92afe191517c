//! Streaming-daemon equality tests: `StreamServer` must reproduce the
//! offline batch engine bit for bit — for any arrival order,
//! duplication, shard count and flush cause — and must degrade (never
//! die) on partial sessions and malformed lines.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use vqd::prelude::*;

fn fixture() -> &'static (Arc<Diagnoser>, Vec<LabeledRun>) {
    static FIX: OnceLock<(Arc<Diagnoser>, Vec<LabeledRun>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = CorpusConfig {
            sessions: 32,
            seed: 6203,
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
    assert_eq!(
        a.quality.silent_vps, b.quality.silent_vps,
        "{what}: silent VPs"
    );
    assert_eq!(a.resolution, b.resolution, "{what}: resolution");
    assert_eq!(a.fallback_label, b.fallback_label, "{what}: fallback");
}

/// Replay `events` through a daemon and collect every flushed session.
fn serve_all(cfg: ServeConfig, events: Vec<ProbeEvent>) -> Vec<FlushedSession> {
    serve_with_report(cfg, events).0
}

/// [`serve_all`] that also returns the daemon's end-of-run report.
fn serve_with_report(
    cfg: ServeConfig,
    events: Vec<ProbeEvent>,
) -> (Vec<FlushedSession>, ServeReport) {
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
    let report = server.finish().expect("no durability, finish cannot fail");
    let got = Arc::try_unwrap(got)
        .unwrap_or_else(|_| panic!("sink still shared after finish"))
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    assert_eq!(report.sessions as usize, got.len(), "report vs sink count");
    (got, report)
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

/// Offline truth: one diagnosis per corpus session through the batch
/// engine, keyed the way the daemon keys them.
fn offline(runs: &[LabeledRun]) -> HashMap<String, Diagnosis> {
    let (model, _) = fixture();
    let sessions: Vec<&Vec<(String, f64)>> = runs.iter().map(|r| &r.metrics).collect();
    let batch = model.diagnose_batch(&sessions, 1);
    (0..runs.len())
        .map(|i| (i.to_string(), batch.get(i)))
        .collect()
}

/// The acceptance gate: shuffled arrival, shard counts 1 and 8 — every
/// session's streamed diagnosis is bitwise the offline batch result,
/// and the emitted TSV lines are byte-identical too.
#[test]
fn serve_matches_offline_batch_shuffled_at_shard_counts_1_and_8() {
    let (_, runs) = fixture();
    let want = offline(runs);
    for shards in [1usize, 8] {
        let mut events = corpus_to_events(runs);
        shuffle(&mut events, 0xBADC0DE + shards as u64);
        let cfg = ServeConfig {
            shards,
            flush_batch: 5, // verdicts flush per session at any value
            ..ServeConfig::default()
        };
        let got = serve_all(cfg, events);
        assert_eq!(got.len(), runs.len(), "shards={shards}: session count");
        for fs in &got {
            assert_eq!(
                fs.cause,
                FlushCause::Complete,
                "shards={shards}: every session arrived whole"
            );
            let dx = want
                .get(&fs.session)
                .unwrap_or_else(|| panic!("unknown session {:?}", fs.session));
            assert_bit_identical(
                dx,
                &fs.diagnosis,
                &format!("shards={shards} session {}", fs.session),
            );
            assert_eq!(
                result_line(&fs.session, &fs.diagnosis),
                result_line(&fs.session, dx),
                "shards={shards}: TSV bytes"
            );
        }
    }
}

/// A completed session is answered on the event that completed it:
/// its verdict reaches the sink while the daemon is still running,
/// without waiting for `flush_batch` sessions to pile up on its shard.
#[test]
fn completed_session_is_answered_before_finish() {
    let (model, runs) = fixture();
    let want = offline(&runs[..1]);
    let (tx, rx) = std::sync::mpsc::channel();
    let mut server = StreamServer::new(
        Arc::clone(model),
        ServeConfig {
            shards: 2,
            flush_batch: 32,
            ..ServeConfig::default()
        },
        move |fs| {
            let _ = tx.send(fs);
        },
    );
    for ev in corpus_to_events(&runs[..1]) {
        server
            .push_event(ev)
            .expect("no durability, push cannot fail");
    }
    let fs = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("verdict must arrive before finish()");
    assert_eq!(fs.session, "0");
    assert_eq!(fs.cause, FlushCause::Complete);
    assert_bit_identical(&want["0"], &fs.diagnosis, "early verdict");
    let report = server.finish().expect("no durability, finish cannot fail");
    assert_eq!(report.sessions, 1);
    assert_eq!(report.flush_batches, 1);
    assert!(rx.try_recv().is_err(), "answered exactly once");
}

/// In-order replay flushes once per session (each `end` marker
/// completes one session), however many sessions `flush_batch` names,
/// at 1 and 8 shards. The session count is deliberately not a multiple
/// of `flush_batch`.
#[test]
fn in_order_replay_flushes_once_per_completed_session() {
    let (_, runs) = fixture();
    let runs = &runs[..29];
    let want = offline(runs);
    for shards in [1usize, 8] {
        let (got, report) = serve_with_report(
            ServeConfig {
                shards,
                flush_batch: 32,
                ..ServeConfig::default()
            },
            corpus_to_events(runs),
        );
        assert_eq!(report.complete, runs.len() as u64, "shards={shards}");
        assert_eq!(report.flush_batches, runs.len() as u64, "shards={shards}");
        for fs in &got {
            assert_bit_identical(&want[&fs.session], &fs.diagnosis, &fs.session);
        }
    }
}

/// Duplicated events are idempotent: doubling every line changes
/// nothing but the duplicate counter.
#[test]
fn duplicated_events_are_dropped_idempotently() {
    let (_, runs) = fixture();
    let want = offline(runs);
    let mut events = corpus_to_events(runs);
    let doubled = events.clone();
    events.extend(doubled);
    shuffle(&mut events, 99);
    let got = serve_all(
        ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        },
        events,
    );
    assert_eq!(got.len(), runs.len());
    let mut dup_total = 0;
    for fs in &got {
        dup_total += fs.duplicates;
        assert_bit_identical(&want[&fs.session], &fs.diagnosis, &fs.session);
    }
    assert!(dup_total > 0, "duplicate samples must be counted");
}

/// A session whose tail never arrives (no end marker) flushes at
/// shutdown, resolves through the quality tiers, and its diagnosis
/// still equals the offline result for the samples that did arrive.
#[test]
fn partial_sessions_resolve_through_quality_tiers_at_shutdown() {
    let (model, runs) = fixture();
    // Keep only the first 10% of each session's samples, drop all end
    // markers: nothing ever completes.
    let truncated: Vec<Vec<(String, f64)>> = runs
        .iter()
        .map(|r| r.metrics[..r.metrics.len() / 10].to_vec())
        .collect();
    let mut events = Vec::new();
    for (i, m) in truncated.iter().enumerate() {
        for (j, (n, v)) in m.iter().enumerate() {
            events.push(ProbeEvent::sample(i.to_string(), j as u64, n.clone(), *v));
        }
    }
    shuffle(&mut events, 4);
    let got = serve_all(
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        events,
    );
    assert_eq!(got.len(), runs.len());
    let views: Vec<&[(String, f64)]> = truncated.iter().map(|m| m.as_slice()).collect();
    let batch = model.diagnose_batch(&views, 1);
    let mut fallbacks = 0;
    for fs in &got {
        assert_eq!(fs.cause, FlushCause::Shutdown, "{}", fs.session);
        let idx: usize = fs
            .session
            .parse()
            .unwrap_or_else(|_| panic!("session id {:?} is not a corpus index", fs.session));
        assert_bit_identical(&batch.get(idx), &fs.diagnosis, &fs.session);
        if fs.diagnosis.resolution != Resolution::Exact {
            fallbacks += 1;
            assert!(
                fs.diagnosis.fallback_label.is_some(),
                "{}: coarser tier must carry a fallback answer",
                fs.session
            );
        }
    }
    assert!(
        fallbacks > 0,
        "10% telemetry should push some sessions off the exact tier"
    );
}

/// Watermark expiry: a session that goes quiet while event time keeps
/// advancing flushes as `Watermark` before EOF, with its partial
/// diagnosis equal to the offline result on the arrived samples.
#[test]
fn watermark_expires_stale_sessions() {
    let (model, runs) = fixture();
    let stale = &runs[0].metrics;
    let keep = stale.len() / 3;
    let mut events: Vec<ProbeEvent> = Vec::new();
    // Session "stale" sends a third of its samples around t=0...
    for (j, (n, v)) in stale[..keep].iter().enumerate() {
        events.push(ProbeEvent::sample("stale", j as u64, n.clone(), *v).at(j as f64 * 1e-3));
    }
    // ...then session "busy" keeps the shard's event clock moving far
    // past the lateness bound (same shard: shards=1).
    for (j, (n, v)) in runs[1].metrics.iter().enumerate() {
        events.push(ProbeEvent::sample("busy", j as u64, n.clone(), *v).at(100.0 + j as f64));
    }
    let got = serve_all(
        ServeConfig {
            shards: 1,
            lateness: Some(5.0),
            ..ServeConfig::default()
        },
        events,
    );
    let by_id: HashMap<&str, &FlushedSession> =
        got.iter().map(|fs| (fs.session.as_str(), fs)).collect();
    let stale_fs = by_id["stale"];
    assert_eq!(
        stale_fs.cause,
        FlushCause::Watermark,
        "quiet session must expire mid-stream"
    );
    assert_eq!(by_id["busy"].cause, FlushCause::Shutdown);
    let view: Vec<&[(String, f64)]> = vec![&stale[..keep]];
    assert_bit_identical(
        &model.diagnose_batch(&view, 1).get(0),
        &stale_fs.diagnosis,
        "expired partial session",
    );
}

/// Eviction pressure: with a tiny per-shard table, extra sessions are
/// flushed least-recently-touched first — and since each victim had
/// already received all its samples, its diagnosis still matches
/// offline exactly.
#[test]
fn eviction_flushes_least_recently_touched_sessions() {
    let (_, runs) = fixture();
    let n = 6.min(runs.len());
    let want = offline(&runs[..n]);
    // Sessions arrive back to back (no interleaving) without end
    // markers, so each stays resident until evicted or shutdown.
    let mut events = Vec::new();
    for (i, r) in runs[..n].iter().enumerate() {
        for (j, (name, v)) in r.metrics.iter().enumerate() {
            events.push(ProbeEvent::sample(
                i.to_string(),
                j as u64,
                name.clone(),
                *v,
            ));
        }
    }
    let got = serve_all(
        ServeConfig {
            shards: 1,
            max_sessions: 2,
            ..ServeConfig::default()
        },
        events,
    );
    assert_eq!(got.len(), n);
    assert!(
        got.iter().any(|fs| fs.cause == FlushCause::Evicted),
        "cap of 2 with {n} sessions must evict"
    );
    for fs in &got {
        assert_bit_identical(&want[&fs.session], &fs.diagnosis, &fs.session);
    }
}

/// A malformed line is a typed error for that line only: the daemon
/// keeps serving and the good sessions are unaffected.
#[test]
fn malformed_lines_degrade_one_event_not_the_daemon() {
    let (model, runs) = fixture();
    let got: Arc<Mutex<Vec<FlushedSession>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut server = StreamServer::new(
        Arc::clone(model),
        ServeConfig {
            shards: 2,
            ..ServeConfig::default()
        },
        move |fs| {
            sink.lock().unwrap_or_else(PoisonError::into_inner).push(fs);
        },
    );
    let mut lineno = 0;
    let mut errors = 0;
    for ev in corpus_to_events(&runs[..4]) {
        for line in [ev.to_jsonl(), "{\"session\":17}".to_string()] {
            lineno += 1;
            if server.push_line(lineno, &line).is_err() {
                errors += 1;
            }
        }
    }
    let report = server.finish().expect("no durability, finish cannot fail");
    assert_eq!(errors, report.parse_errors as usize);
    assert!(errors > 0);
    assert_eq!(report.sessions, 4, "good sessions served despite bad lines");
    let want = offline(&runs[..4]);
    for fs in got.lock().unwrap_or_else(PoisonError::into_inner).iter() {
        assert_bit_identical(&want[&fs.session], &fs.diagnosis, &fs.session);
    }
}
