//! Determinism regression tests: every parallel stage of the pipeline
//! must produce byte-identical results regardless of worker-thread
//! count, and the columnar pre-sorted C4.5 engine must reproduce the
//! seed implementation's trees exactly.
//!
//! Corpus generation fans sessions out across OS threads, and tree
//! training fans the per-node split search out across features; both
//! merge results back in deterministic index order. These tests pin
//! that contract: 1 thread and 8 threads are indistinguishable from
//! the outside, down to the last bit of every float.

use std::sync::OnceLock;

use vqd::ml::dtree::{C45Config, C45Trainer};
use vqd::prelude::*;

fn catalog() -> Catalog {
    Catalog::top100(42)
}

fn corpus_with_threads(threads: usize) -> Vec<LabeledRun> {
    let cfg = CorpusConfig {
        sessions: 500,
        seed: 9100,
        p_fault: 0.6,
        threads,
        ..Default::default()
    };
    generate_corpus(&cfg, &catalog())
}

/// The 500-session corpus shared by the tests below (generated once,
/// with 8 worker threads).
fn corpus() -> &'static Vec<LabeledRun> {
    static CORPUS: OnceLock<Vec<LabeledRun>> = OnceLock::new();
    CORPUS.get_or_init(|| corpus_with_threads(8))
}

/// Bit-exact fingerprint of a corpus: metric names in order plus the
/// raw IEEE-754 bits of every value (NaN-safe, `-0.0`-safe — stricter
/// than `==`).
fn fingerprint(runs: &[LabeledRun]) -> Vec<(String, u64)> {
    runs.iter()
        .flat_map(|r| r.metrics.iter().map(|(n, v)| (n.clone(), v.to_bits())))
        .collect()
}

#[test]
fn corpus_identical_across_thread_counts() {
    let one = corpus_with_threads(1);
    let eight = corpus();
    assert_eq!(one.len(), eight.len());
    for (a, b) in one.iter().zip(eight.iter()) {
        assert_eq!(a.truth, b.truth);
    }
    assert_eq!(fingerprint(&one), fingerprint(eight));
}

#[test]
fn trained_diagnoser_identical_across_thread_counts() {
    let data = to_dataset(corpus(), LabelScheme::Exact);
    let serialized: Vec<String> = [1usize, 8]
        .iter()
        .map(|&threads| {
            let mut cfg = DiagnoserConfig::default();
            cfg.tree.threads = threads;
            Diagnoser::train(&data, &cfg).serialize()
        })
        .collect();
    assert_eq!(serialized[0], serialized[1]);
}

/// Observability must be write-only: enabling metrics and span
/// tracing cannot change a single bit of the corpus or the trained
/// model, at any worker-thread count.
#[test]
fn corpus_and_model_identical_with_observability_on_and_off() {
    let make = |threads: usize| {
        let cfg = CorpusConfig {
            sessions: 120,
            seed: 4242,
            p_fault: 0.6,
            threads,
            ..Default::default()
        };
        let runs = generate_corpus(&cfg, &catalog());
        let mut dcfg = DiagnoserConfig::default();
        dcfg.tree.threads = threads;
        let model = Diagnoser::train(&to_dataset(&runs, LabelScheme::Exact), &dcfg);
        (corpus_to_text(&runs), model.serialize())
    };

    vqd_obs::disable();
    let (c_off_1, m_off_1) = make(1);
    let (c_off_8, m_off_8) = make(8);

    vqd_obs::enable_tracing();
    let (c_on_1, m_on_1) = make(1);
    let (c_on_8, m_on_8) = make(8);
    let spans = vqd_obs::take_spans();
    let snap = vqd_obs::snapshot();
    vqd_obs::disable();

    // Recording actually happened while enabled...
    assert!(!spans.is_empty(), "tracing collected no spans");
    assert!(snap.counter("core.corpus.sessions") >= 240);
    // ...and perturbed nothing.
    assert_eq!(c_off_1, c_on_1, "1 thread: recording changed the corpus");
    assert_eq!(c_off_8, c_on_8, "8 threads: recording changed the corpus");
    assert_eq!(c_off_1, c_off_8, "thread count changed the corpus");
    assert_eq!(m_off_1, m_on_1, "1 thread: recording changed the model");
    assert_eq!(m_off_8, m_on_8, "8 threads: recording changed the model");
    assert_eq!(m_off_1, m_off_8, "thread count changed the model");
}

#[test]
fn columnar_fit_matches_seed_reference() {
    // The raw exact-label dataset has missing vantage points (NaNs),
    // so this exercises both the unit-weight fast sweep and the
    // fractional-weight generic sweep of the columnar engine.
    let data = to_dataset(corpus(), LabelScheme::Exact);
    let rows: Vec<usize> = (0..data.len()).collect();
    for unpruned in [false, true] {
        for threads in [1usize, 8] {
            let trainer = C45Trainer {
                cfg: C45Config {
                    threads,
                    unpruned,
                    ..Default::default()
                },
            };
            assert_eq!(
                trainer.fit(&data, &rows).serialize(),
                trainer.fit_seed_reference(&data, &rows).serialize(),
                "unpruned={unpruned} threads={threads}"
            );
        }
    }
}

/// A 150-session corpus for the §5 suite equalities below.
fn suite_corpus() -> &'static Vec<LabeledRun> {
    static CORPUS: OnceLock<Vec<LabeledRun>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let cfg = CorpusConfig {
            sessions: 150,
            seed: 2121,
            p_fault: 0.6,
            ..Default::default()
        };
        generate_corpus(&cfg, &catalog())
    })
}

fn assert_same_cm(a: &ConfusionMatrix, b: &ConfusionMatrix, what: &str) {
    assert_eq!(a.classes, b.classes, "{what}: classes");
    let n = a.classes.len();
    for t in 0..n {
        for p in 0..n {
            assert_eq!(a.count(t, p), b.count(t, p), "{what}: cell ({t}, {p})");
        }
    }
}

/// The §5 drivers share one feature construction and one FCBF
/// candidate table per label set; each of their outputs must equal,
/// bit for bit, the formulation that prepares every subset on its own.
#[test]
fn section5_suite_matches_per_subset_formulation() {
    use vqd::core::experiments::{
        feature_set_sweep_prepared, table4_prepared, vp_subset, ExactPrep,
    };
    use vqd::features::{fcbf, rank_by_su};

    let runs = suite_corpus();
    let cfg = DiagnoserConfig::default();
    let seed = 17;
    let sets: Vec<&[&str]> = VP_SETS.iter().map(|(_, vps)| *vps).collect();
    for scheme in [
        LabelScheme::Existence,
        LabelScheme::Location,
        LabelScheme::Exact,
    ] {
        let data = to_dataset(runs, scheme);
        let shared = Diagnoser::prepare_vp_sets(&data, &cfg, &sets);
        let evals = eval_by_vp(runs, scheme, &cfg, seed);
        for (((name, vps), prep), e) in VP_SETS.iter().zip(&shared).zip(&evals) {
            let what = format!("{scheme:?}/{name}");
            let want = Diagnoser::cross_validate(&vp_subset(&data, vps), &cfg, 10, seed);
            let got = Diagnoser::cross_validate_prepared(prep, &cfg, 10, seed);
            assert_same_cm(&got, &want, &what);
            assert_eq!(e.vp, *name);
            assert_eq!(e.accuracy.to_bits(), want.accuracy().to_bits(), "{what}");
            assert_eq!(e.rows.len(), want.classes.len(), "{what}");
            for (c, r) in e.rows.iter().enumerate() {
                assert_eq!(r.class, want.classes[c], "{what}");
                assert_eq!(r.precision.to_bits(), want.precision(c).to_bits(), "{what}");
                assert_eq!(r.recall.to_bits(), want.recall(c).to_bits(), "{what}");
            }
        }
    }

    // Fig 5 "FS & FC": the full pipeline's CV over the raw dataset,
    // and the global FCBF count over the constructed one.
    let prep = ExactPrep::from_runs(runs);
    let sweep = feature_set_sweep_prepared(&prep, seed);
    let row = sweep.last().expect("Fig 5 rows");
    assert_eq!(row.name, "FS & FC");
    let want = Diagnoser::cross_validate(&prep.raw, &cfg, 10, seed);
    assert_eq!(row.accuracy.to_bits(), want.accuracy().to_bits());
    assert_eq!(row.precision.to_bits(), want.macro_precision().to_bits());
    assert_eq!(row.recall.to_bits(), want.macro_recall().to_bits());
    assert_eq!(row.n_features, fcbf(&prep.constructed, 0.01).names.len());

    // Table 4: each VP set's ranking from its own good-vs-fault dataset.
    let c = &prep.constructed;
    let mut want = Vec::new();
    for fault in FaultKind::ALL.iter().map(|f| f.name()) {
        let rows: Vec<(usize, usize)> =
            c.y.iter()
                .enumerate()
                .filter_map(|(i, &cls)| {
                    let name = &c.classes[cls];
                    (name == "good")
                        .then_some((i, 0))
                        .or_else(|| name.starts_with(fault).then_some((i, 1)))
                })
                .collect();
        if rows.iter().map(|&(_, y)| y).sum::<usize>() < 4 {
            continue;
        }
        for (vp_name, vps) in VP_SETS {
            let cols = vp_subset(c, vps);
            let mut sub = vqd::ml::Dataset::new(
                cols.features.clone(),
                vec!["good".into(), fault.to_string()],
            );
            for &(r, y) in &rows {
                sub.push(cols.x[r].clone(), y);
            }
            let top: Vec<(String, u64)> = rank_by_su(&sub)
                .into_iter()
                .take(5)
                .map(|(n, su)| (n, su.to_bits()))
                .collect();
            want.push((fault.to_string(), vp_name.to_string(), top));
        }
    }
    let got: Vec<_> = table4_prepared(&prep, 5)
        .into_iter()
        .map(|cell| {
            let top: Vec<(String, u64)> = cell
                .top
                .into_iter()
                .map(|(n, su)| (n, su.to_bits()))
                .collect();
            (cell.fault, cell.vp, top)
        })
        .collect();
    assert!(!got.is_empty());
    assert_eq!(got, want);
}

/// Cross-validation runs its folds on threads and each fold's fit
/// serially; the pooled confusion matrix is the same at any width.
#[test]
fn cv_confusion_matrix_identical_across_thread_counts() {
    let prep = Diagnoser::prepare(
        &to_dataset(suite_corpus(), LabelScheme::Exact),
        &DiagnoserConfig::default(),
    );
    let cms: Vec<ConfusionMatrix> = [1usize, 2, 8]
        .iter()
        .map(|&threads| {
            vqd::ml::cv::cross_validate_threads(&C45Trainer::default(), &prep.data, 10, 5, threads)
        })
        .collect();
    assert!(cms[0].total() > 0);
    assert_same_cm(&cms[1], &cms[0], "threads 2 vs 1");
    assert_same_cm(&cms[2], &cms[0], "threads 8 vs 1");
}
