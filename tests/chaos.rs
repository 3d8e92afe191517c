//! Deterministic crash-injection harness: kill the daemon at seeded
//! event boundaries, recover from journal + snapshot, and assert the
//! recovery invariant — the merged output TSV is byte-identical to
//! offline batch diagnosis, every session answered exactly once, for
//! any crash point, shard count and arrival order.
//!
//! Crashes are simulated in-process (`StreamServer::crash` abandons
//! the workers and discards the journal's unflushed tail, exactly
//! what `kill -9` loses); the CI `chaos-smoke` job repeats the same
//! protocol against the release binary with real `kill -9`.

use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use vqd::prelude::*;

fn fixture() -> &'static (Arc<Diagnoser>, Vec<LabeledRun>) {
    static FIX: OnceLock<(Arc<Diagnoser>, Vec<LabeledRun>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let cfg = CorpusConfig {
            sessions: 24,
            seed: 1789,
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

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("vqd-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Offline truth: the sorted result lines `vqd diagnose --batch`
/// would emit for this corpus.
fn offline_lines(model: &Diagnoser, runs: &[LabeledRun]) -> Vec<String> {
    let sessions: Vec<&Vec<(String, f64)>> = runs.iter().map(|r| &r.metrics).collect();
    let batch = model.diagnose_batch(&sessions, 1);
    let mut lines: Vec<String> = (0..runs.len())
        .map(|i| result_line(&i.to_string(), &batch.get(i)))
        .collect();
    lines.sort_unstable();
    lines
}

/// A sink that appends result lines to `path` with one unbuffered
/// `write(2)` per line — durable against `kill -9` the way the CLI's
/// journaling output path is.
fn file_sink(path: &Path) -> impl FnMut(FlushedSession) + Send + 'static {
    let mut f = OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
    move |fs: FlushedSession| {
        f.write_all(result_line(&fs.session, &fs.diagnosis).as_bytes())
            .unwrap_or_else(|e| panic!("append output: {e}"));
    }
}

struct ChaosOutcome {
    incarnations: usize,
    replayed: u64,
}

/// Run `events` through the daemon, crashing at each crash point (an
/// absolute accepted-event count) and recovering, then finishing
/// gracefully. Returns after asserting the recovery invariant.
fn run_chaos(
    tag: &str,
    shards: usize,
    events: &[ProbeEvent],
    crash_at: &[u64],
    snapshot_every: u64,
    flush_every: u64,
) -> ChaosOutcome {
    let (model, runs) = fixture();
    let base = tmpdir(tag);
    let jdir = base.join("journal");
    let sdir = base.join("snaps");
    let out = base.join("out.tsv");
    let durability = || Durability {
        journal: Some(JournalSpec {
            dir: jdir.clone(),
            segment_bytes: 4096, // small segments: rotation + pruning exercised
            flush_every,
        }),
        snapshots: Some(SnapshotSpec {
            dir: sdir.clone(),
            every_events: snapshot_every,
            keep: 2,
        }),
    };
    let cfg = || ServeConfig {
        shards,
        flush_batch: 5,
        ..ServeConfig::default()
    };

    let mut points = crash_at.iter().copied();
    let mut incarnations = 0;
    let replayed = loop {
        incarnations += 1;
        let (emitted, _) = prepare_output(&out).unwrap();
        let rec = recover_state(&durability(), emitted).unwrap();
        let resume = rec.next_seq;
        assert!(
            resume <= events.len() as u64,
            "journal cannot hold more than was sent"
        );
        let mut server = StreamServer::start(
            Arc::clone(model),
            cfg(),
            durability(),
            Some(rec),
            file_sink(&out),
        )
        .unwrap();
        // The journal seq is the ingest ack: re-feed from `resume`.
        // Group commit means resume may trail the previous crash
        // point; each point is consumed once either way.
        match points.next() {
            Some(crash) => {
                let crash = crash.max(resume);
                for ev in &events[resume as usize..crash as usize] {
                    server.push_event(ev.clone()).unwrap();
                }
                assert_eq!(server.next_seq(), crash, "crash lands on an event boundary");
                server.crash();
            }
            None => {
                for ev in &events[resume as usize..] {
                    server.push_event(ev.clone()).unwrap();
                }
                let report = server.finish().unwrap();
                assert_eq!(report.parse_errors, 0);
                break report.replayed;
            }
        }
    };

    // The invariant: merged output == offline batch, bytes and all,
    // each session exactly once.
    let text = std::fs::read_to_string(&out).unwrap();
    let mut got: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
    got.sort_unstable();
    let want = offline_lines(model, runs);
    assert_eq!(
        got.len(),
        want.len(),
        "{tag}: every session answered exactly once (got {} lines, want {})",
        got.len(),
        want.len()
    );
    assert_eq!(got, want, "{tag}: recovered output != offline batch");

    std::fs::remove_dir_all(&base).unwrap();
    ChaosOutcome {
        incarnations,
        replayed,
    }
}

/// The acceptance gate: seeded crash points at shards 1 and 8 over a
/// shuffled-arrival corpus stream.
#[test]
fn crash_recover_equals_offline_at_shards_1_and_8() {
    let (_, runs) = fixture();
    for shards in [1usize, 8] {
        let mut events = corpus_to_events(runs);
        shuffle(&mut events, 0xC0FFEE ^ shards as u64);
        let points = crash_points(0x5EED ^ shards as u64, events.len() as u64, 3);
        assert_eq!(points.len(), 3);
        let outcome = run_chaos(
            &format!("gate-s{shards}"),
            shards,
            &events,
            &points,
            97, // snapshot cadence: several snapshots per run
            7,  // group commit: crashes lose an unflushed tail
        );
        assert_eq!(outcome.incarnations, 4, "3 crashes + 1 graceful run");
    }
}

/// A snapshot barrier force-folds every shard's drift window, even one
/// short of the `flush_batch` fold cadence: once `write_snapshot`
/// returns, the monitor holds one row per answered session, and
/// shutdown adds none twice.
#[test]
fn snapshot_barrier_folds_partial_drift_windows() {
    let (model, runs) = fixture();
    let runs = &runs[..10];
    let base = tmpdir("drift-barrier");
    let stamp = model
        .drift_stamp()
        .expect("freshly trained model carries a drift stamp")
        .clone();
    let monitor = Arc::new(Mutex::new(DriftMonitor::new(stamp)));
    let rows = || {
        monitor
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .window_rows()
    };
    let mut server = StreamServer::start(
        Arc::clone(model),
        ServeConfig {
            shards: 3,
            flush_batch: 1000,
            drift: Some(Arc::clone(&monitor)),
            ..ServeConfig::default()
        },
        Durability {
            journal: Some(JournalSpec::new(base.join("journal"))),
            snapshots: Some(SnapshotSpec::new(base.join("snaps"), 0)),
        },
        None,
        file_sink(&base.join("out.tsv")),
    )
    .unwrap();
    for ev in corpus_to_events(runs) {
        server.push_event(ev).unwrap();
    }
    server.write_snapshot().unwrap();
    assert_eq!(rows(), runs.len() as u64, "barrier folds every window");
    let report = server.finish().unwrap();
    assert_eq!(report.complete, runs.len() as u64);
    assert_eq!(rows(), runs.len() as u64, "shutdown folds nothing twice");
    std::fs::remove_dir_all(&base).unwrap();
}

/// Journal-only recovery (no snapshots would be cut before the first
/// cadence tick): replay-from-zero must carry the whole weight.
#[test]
fn recovery_works_before_any_snapshot_exists() {
    let (_, runs) = fixture();
    let mut events = corpus_to_events(runs);
    shuffle(&mut events, 11);
    // One early crash: long replay, sessions mid-reassembly.
    let points = vec![events.len() as u64 / 10];
    let outcome = run_chaos(
        "early", 3, &events, &points,
        1_000_000, // cadence never fires; only shutdown snapshots
        1,         // strict commit: nothing lost, resume == crash point
    );
    assert_eq!(outcome.incarnations, 2);
    assert!(outcome.replayed > 0, "journal suffix must replay");
}

/// The output file already answers a session whose events replay
/// again: the re-flush must be suppressed, not duplicated. Driven
/// deterministically — a graceful journaled run followed by a
/// `--recover` restart over the same journal and output file, the
/// worst case where *every* journal record replays and *every*
/// session was already answered.
#[test]
fn resent_events_after_recovery_do_not_duplicate_answers() {
    let (model, runs) = fixture();
    let events = corpus_to_events(runs);
    let base = tmpdir("dedup");
    let jdir = base.join("journal");
    let out = base.join("out.tsv");
    let durability = || Durability {
        journal: Some(JournalSpec::new(jdir.clone())),
        snapshots: None, // no snapshot: recovery replays the whole journal
    };
    let cfg = || ServeConfig {
        shards: 2,
        flush_batch: 5,
        ..ServeConfig::default()
    };

    // Incarnation 1: graceful run. Every session is answered in the
    // output and every event is durable in the journal.
    let mut server = StreamServer::start(
        Arc::clone(model),
        cfg(),
        durability(),
        None,
        file_sink(&out),
    )
    .unwrap();
    for ev in events.iter().cloned() {
        server.push_event(ev).unwrap();
    }
    let r1 = server.finish().unwrap();
    assert_eq!(r1.sessions as usize, runs.len());

    // Incarnation 2: the ack to the sender was lost, so the operator
    // restarts with --recover anyway. The full journal replays, every
    // session completes again, and every re-flush must be suppressed —
    // the output file must not change by a byte.
    let before = std::fs::read(&out).unwrap();
    let (emitted, prep) = prepare_output(&out).unwrap();
    assert_eq!(prep.emitted, runs.len());
    let rec = recover_state(&durability(), emitted).unwrap();
    assert_eq!(rec.replay_len(), events.len());
    let server = StreamServer::start(
        Arc::clone(model),
        cfg(),
        durability(),
        Some(rec),
        file_sink(&out),
    )
    .unwrap();
    let r2 = server.finish().unwrap();
    assert_eq!(r2.replayed as usize, events.len());
    assert_eq!(
        r2.suppressed as usize,
        runs.len(),
        "every replayed answer must be suppressed"
    );
    assert_eq!(
        before,
        std::fs::read(&out).unwrap(),
        "output file must not change by a byte"
    );
    let mut got: Vec<String> = String::from_utf8(before)
        .unwrap()
        .lines()
        .map(|l| format!("{l}\n"))
        .collect();
    got.sort_unstable();
    assert_eq!(got, offline_lines(model, runs));
}

/// Restart with a *different* shard count: snapshot state re-routes
/// by id hash, and the invariant still holds.
#[test]
fn recovery_survives_shard_count_changes() {
    let (model, runs) = fixture();
    let mut events = corpus_to_events(runs);
    shuffle(&mut events, 23);
    let base = tmpdir("reshard");
    let jdir = base.join("journal");
    let sdir = base.join("snaps");
    let out = base.join("out.tsv");
    let durability = || Durability {
        journal: Some(JournalSpec {
            dir: jdir.clone(),
            segment_bytes: 4096,
            flush_every: 1,
        }),
        snapshots: Some(SnapshotSpec {
            dir: sdir.clone(),
            every_events: 120,
            keep: 2,
        }),
    };
    let crash = events.len() as u64 / 2;
    // First incarnation: 8 shards, crash midway.
    let rec = recover_state(&durability(), HashSet::new()).unwrap();
    let mut server = StreamServer::start(
        Arc::clone(model),
        ServeConfig {
            shards: 8,
            ..ServeConfig::default()
        },
        durability(),
        Some(rec),
        file_sink(&out),
    )
    .unwrap();
    for ev in &events[..crash as usize] {
        server.push_event(ev.clone()).unwrap();
    }
    server.crash();
    // Second incarnation: 1 shard.
    let (emitted, _) = prepare_output(&out).unwrap();
    let rec = recover_state(&durability(), emitted).unwrap();
    assert_eq!(rec.next_seq, crash);
    let mut server = StreamServer::start(
        Arc::clone(model),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
        durability(),
        Some(rec),
        file_sink(&out),
    )
    .unwrap();
    for ev in &events[crash as usize..] {
        server.push_event(ev.clone()).unwrap();
    }
    server.finish().unwrap();

    let text = std::fs::read_to_string(&out).unwrap();
    let mut got: Vec<String> = text.lines().map(|l| format!("{l}\n")).collect();
    got.sort_unstable();
    assert_eq!(got, offline_lines(model, runs), "reshard broke recovery");
    std::fs::remove_dir_all(&base).unwrap();
}

/// `vqd recover`'s engine is strictly read-only and reports the
/// resume point mid-crash.
#[test]
fn inspection_reports_resume_point_without_touching_state() {
    let (model, runs) = fixture();
    let events = corpus_to_events(runs);
    let base = tmpdir("inspect");
    let jdir = base.join("journal");
    let sdir = base.join("snaps");
    let out = base.join("out.tsv");
    let durability = Durability {
        journal: Some(JournalSpec {
            dir: jdir.clone(),
            segment_bytes: 4096,
            flush_every: 1,
        }),
        snapshots: Some(SnapshotSpec {
            dir: sdir.clone(),
            every_events: 100,
            keep: 2,
        }),
    };
    let rec = recover_state(&durability, HashSet::new()).unwrap();
    let mut server = StreamServer::start(
        Arc::clone(model),
        ServeConfig::default(),
        durability.clone(),
        Some(rec),
        file_sink(&out),
    )
    .unwrap();
    let crash = 2 * events.len() as u64 / 3;
    for ev in &events[..crash as usize] {
        server.push_event(ev.clone()).unwrap();
    }
    server.crash();

    let info = inspect_recovery(&jdir, Some(&sdir), Some(&out)).unwrap();
    assert_eq!(info.next_seq, crash, "flush_every=1: ack == crash point");
    assert!(info.snapshot_seq > 0, "cadence must have cut snapshots");
    assert!(info.replay <= crash - info.snapshot_seq.min(crash));
    // Inspection twice in a row sees identical state (read-only).
    let again = inspect_recovery(&jdir, Some(&sdir), Some(&out)).unwrap();
    assert_eq!(again.next_seq, info.next_seq);
    assert_eq!(again.snapshot_seq, info.snapshot_seq);
    assert_eq!(again.emitted, info.emitted);
    std::fs::remove_dir_all(&base).unwrap();
}

/// Overload shedding: past the high-water mark the daemon sheds
/// lowest-value samples, keeps answering every session, and the shed
/// counters say so. (Equality with offline no longer holds for shed
/// sessions — that is the documented trade.)
#[test]
fn shedding_degrades_answers_instead_of_stalling() {
    let (model, runs) = fixture();
    // No end markers: sessions stay resident and buffered samples
    // grow past any small high-water mark.
    let mut events = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        for (j, (name, v)) in r.metrics.iter().enumerate() {
            events.push(ProbeEvent::sample(
                i.to_string(),
                j as u64,
                name.clone(),
                *v,
            ));
        }
    }
    shuffle(&mut events, 5);
    let got: Arc<Mutex<Vec<FlushedSession>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&got);
    let mut server = StreamServer::new(
        Arc::clone(model),
        ServeConfig {
            shards: 2,
            shed: Some(200),
            ..ServeConfig::default()
        },
        move |fs| {
            sink.lock().unwrap_or_else(PoisonError::into_inner).push(fs);
        },
    );
    for ev in events {
        server.push_event(ev).unwrap();
    }
    let report = server.finish().unwrap();
    assert_eq!(
        report.sessions as usize,
        runs.len(),
        "every session answered"
    );
    assert!(report.shed_samples > 0, "high-water of 200 must shed");
    assert!(report.shed_sessions > 0);
    let got = got.lock().unwrap_or_else(PoisonError::into_inner);
    let shed_total: u64 = got.iter().map(|fs| fs.shed).sum();
    assert_eq!(
        shed_total, report.shed_samples,
        "per-session counters add up"
    );
    // Determinism: the same input sheds the same samples.
    let mut events2 = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        for (j, (name, v)) in r.metrics.iter().enumerate() {
            events2.push(ProbeEvent::sample(
                i.to_string(),
                j as u64,
                name.clone(),
                *v,
            ));
        }
    }
    shuffle(&mut events2, 5);
    let got2: Arc<Mutex<Vec<FlushedSession>>> = Arc::new(Mutex::new(Vec::new()));
    let sink2 = Arc::clone(&got2);
    let mut server2 = StreamServer::new(
        Arc::clone(model),
        ServeConfig {
            shards: 2,
            shed: Some(200),
            ..ServeConfig::default()
        },
        move |fs| {
            sink2
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(fs);
        },
    );
    for ev in events2 {
        server2.push_event(ev).unwrap();
    }
    let report2 = server2.finish().unwrap();
    assert_eq!(report.shed_samples, report2.shed_samples);
    let got2 = got2.lock().unwrap_or_else(PoisonError::into_inner);
    let mut a: Vec<String> = got
        .iter()
        .map(|fs| result_line(&fs.session, &fs.diagnosis))
        .collect();
    let mut b: Vec<String> = got2
        .iter()
        .map(|fs| result_line(&fs.session, &fs.diagnosis))
        .collect();
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b, "shedding must be deterministic");
}
