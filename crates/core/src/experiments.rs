//! Controlled-environment experiment drivers (Section 5 of the paper).
//!
//! Each function regenerates the rows of one table/figure from a
//! corpus of labelled runs:
//!
//! * [`eval_by_vp`] — Figure 3 (existence), Figure 4 (exact problem)
//!   and the Section 5.2 location results: per-VP and combined
//!   accuracy/precision/recall under 10-fold cross-validation.
//! * [`feature_set_sweep`] — Figure 5: RSSI / HW / UTILIZATION /
//!   DELAY / TCP / ALL / FS&FC.
//! * [`table1`] — the FCBF-selected feature list.
//! * [`table4`] — top-3 features per fault per vantage point.

use vqd_features::{fcbf, rank_by_su, CandidateTable, FeatureConstructor, Selection};
use vqd_ml::dataset::Dataset;
use vqd_ml::metrics::ConfusionMatrix;

use crate::dataset::{to_dataset, LabeledRun};
use crate::diagnoser::{Diagnoser, DiagnoserConfig, PreparedPipeline};
use crate::scenario::LabelScheme;

/// The vantage-point sets evaluated throughout Section 5.
pub const VP_SETS: [(&str, &[&str]); 4] = [
    ("mobile", &["mobile"]),
    ("router", &["router"]),
    ("server", &["server"]),
    ("combined", &["mobile", "router", "server"]),
];

/// Per-class precision/recall row.
#[derive(Debug, Clone)]
pub struct PrRow {
    /// Class name.
    pub class: String,
    /// Precision.
    pub precision: f64,
    /// Recall.
    pub recall: f64,
    /// Instances of this class.
    pub support: u64,
}

/// One vantage point's evaluation.
#[derive(Debug, Clone)]
pub struct VpEval {
    /// VP set name ("mobile", …, "combined").
    pub vp: String,
    /// Overall accuracy.
    pub accuracy: f64,
    /// Per-class rows.
    pub rows: Vec<PrRow>,
}

fn rows_of(cm: &ConfusionMatrix) -> Vec<PrRow> {
    (0..cm.classes.len())
        .map(|c| PrRow {
            class: cm.classes[c].clone(),
            precision: cm.precision(c),
            recall: cm.recall(c),
            support: (0..cm.classes.len()).map(|p| cm.count(c, p)).sum(),
        })
        .collect()
}

/// Restrict a raw dataset to the columns of a VP set.
pub fn vp_subset(data: &Dataset, vps: &[&str]) -> Dataset {
    data.select_features_by(|n| vps.iter().any(|vp| n.starts_with(vp)))
}

/// Figures 3 & 4 (and §5.2 with [`LabelScheme::Location`]): evaluate
/// each VP set with 10-fold CV under the given label scheme. The four
/// VP sets share one feature construction and one FCBF candidate
/// table ([`Diagnoser::prepare_vp_sets`]); each set's result equals
/// `Diagnoser::cross_validate(&vp_subset(..), ..)`.
pub fn eval_by_vp(
    runs: &[LabeledRun],
    scheme: LabelScheme,
    cfg: &DiagnoserConfig,
    seed: u64,
) -> Vec<VpEval> {
    let data = to_dataset(runs, scheme);
    let sets: Vec<&[&str]> = VP_SETS.iter().map(|(_, vps)| *vps).collect();
    let preps = Diagnoser::prepare_vp_sets(&data, cfg, &sets);
    VP_SETS
        .iter()
        .zip(&preps)
        .map(|((name, _), prep)| {
            let cm = Diagnoser::cross_validate_prepared(prep, cfg, 10, seed);
            VpEval {
                vp: name.to_string(),
                accuracy: cm.accuracy(),
                rows: rows_of(&cm),
            }
        })
        .collect()
}

/// One bar pair of Figure 5.
#[derive(Debug, Clone)]
pub struct FeatureSetEval {
    /// Feature-set name as in the figure.
    pub name: String,
    /// Macro-averaged precision.
    pub precision: f64,
    /// Macro-averaged recall.
    pub recall: f64,
    /// Overall accuracy.
    pub accuracy: f64,
    /// Number of feature columns used.
    pub n_features: usize,
}

/// The exact-label dataset and its constructed (normalised) view,
/// computed once per corpus and shared by [`feature_set_sweep`],
/// [`table1`] and [`table4`] (and the `repro` binary, which renders
/// all three from one corpus).
pub struct ExactPrep {
    /// Raw exact-label dataset.
    pub raw: Dataset,
    /// Feature-constructed (normalised) view of `raw`.
    pub constructed: Dataset,
}

impl ExactPrep {
    /// Run `to_dataset` + feature construction once.
    pub fn from_runs(runs: &[LabeledRun]) -> ExactPrep {
        let raw = to_dataset(runs, LabelScheme::Exact);
        let constructed = FeatureConstructor::fit(&raw).transform(&raw);
        ExactPrep { raw, constructed }
    }
}

/// Figure 5: compare feature subsets on exact-problem detection with
/// all three VPs combined.
pub fn feature_set_sweep(runs: &[LabeledRun], seed: u64) -> Vec<FeatureSetEval> {
    feature_set_sweep_prepared(&ExactPrep::from_runs(runs), seed)
}

/// [`feature_set_sweep`] on an already-prepared corpus.
pub fn feature_set_sweep_prepared(prep: &ExactPrep, seed: u64) -> Vec<FeatureSetEval> {
    let ExactPrep { raw, constructed } = prep;
    let no_fs = DiagnoserConfig {
        use_fc: false,
        use_fs: false,
        ..Default::default()
    };

    let mut out = Vec::new();
    let mut eval = |name: &str, data: &Dataset| {
        let cm = Diagnoser::cross_validate(data, &no_fs, 10, seed);
        out.push(FeatureSetEval {
            name: name.to_string(),
            precision: cm.macro_precision(),
            recall: cm.macro_recall(),
            accuracy: cm.accuracy(),
            n_features: data.n_features(),
        });
    };

    eval(
        "RSSI",
        &constructed.select_features_by(|n| n.contains("phy.rssi")),
    );
    eval(
        "HW",
        &constructed.select_features_by(|n| n.contains(".hw.")),
    );
    eval(
        "UTILIZATION",
        &constructed.select_features_by(|n| n.contains("util")),
    );
    eval(
        "DELAY",
        &constructed.select_features_by(|n| n.contains("rtt")),
    );
    eval(
        "TCP",
        &constructed.select_features_by(|n| n.contains(".tcp.")),
    );
    eval("ALL", raw);
    // Full pipeline (FS & FC) over the constructed view at hand: one
    // candidate table backs both the CV's selection (global + per-VP
    // union, as `Diagnoser::cross_validate(raw, ..)` selects) and the
    // reported count (the global selection, Table 1's).
    let cfg = DiagnoserConfig::default();
    let table = CandidateTable::build(constructed, cfg.fcbf_delta);
    let fc = FeatureConstructor::fit(raw);
    let fs = PreparedPipeline::derive(constructed, Some(&fc), Some(&table), |_| true);
    let cm = Diagnoser::cross_validate_prepared(&fs, &cfg, 10, seed);
    out.push(FeatureSetEval {
        name: "FS & FC".to_string(),
        precision: cm.macro_precision(),
        recall: cm.macro_recall(),
        accuracy: cm.accuracy(),
        n_features: table.fcbf(|_| true).names.len(),
    });
    out
}

/// Table 1: the FCBF selection over the combined, constructed feature
/// space (exact labels).
pub fn table1(runs: &[LabeledRun]) -> Selection {
    table1_prepared(&ExactPrep::from_runs(runs))
}

/// [`table1`] on an already-prepared corpus.
pub fn table1_prepared(prep: &ExactPrep) -> Selection {
    fcbf(&prep.constructed, 0.01)
}

/// One Table 4 cell: the strongest features for detecting `fault` from
/// vantage point `vp`.
#[derive(Debug, Clone)]
pub struct FaultFeatureRank {
    /// Fault name.
    pub fault: String,
    /// VP set name.
    pub vp: String,
    /// Top features, strongest first, with SU scores.
    pub top: Vec<(String, f64)>,
}

/// Table 4: per-fault, per-VP feature ranking. For each fault the
/// dataset is restricted to *good vs that fault* (both severities) and
/// features are ranked by symmetrical uncertainty.
pub fn table4(runs: &[LabeledRun], top_k: usize) -> Vec<FaultFeatureRank> {
    table4_prepared(&ExactPrep::from_runs(runs), top_k)
}

/// [`table4`] on an already-prepared corpus.
pub fn table4_prepared(prep: &ExactPrep, top_k: usize) -> Vec<FaultFeatureRank> {
    let constructed = &prep.constructed;
    let faults: Vec<&str> = vqd_faults::FaultKind::ALL
        .iter()
        .map(|f| f.name())
        .collect();
    // Rank each fault once over every VP set's columns; a VP set's
    // ranking is that ranking filtered to its columns, because
    // `rank_by_su` scores each column alone and sorts stably.
    let in_set = |vps: &[&str], n: &str| vps.iter().any(|vp| n.starts_with(vp));
    let idx: Vec<usize> = constructed
        .features
        .iter()
        .enumerate()
        .filter(|(_, n)| VP_SETS.iter().any(|(_, vps)| in_set(vps, n)))
        .map(|(j, _)| j)
        .collect();
    let mut out = Vec::new();
    for fault in &faults {
        // Binary dataset: good (0) vs this fault (1).
        let mut rows: Vec<usize> = Vec::new();
        let mut y: Vec<usize> = Vec::new();
        for (i, &cls) in constructed.y.iter().enumerate() {
            let name = &constructed.classes[cls];
            if name == "good" {
                rows.push(i);
                y.push(0);
            } else if name.starts_with(fault) {
                rows.push(i);
                y.push(1);
            }
        }
        if y.iter().sum::<usize>() < 4 {
            continue; // too few instances of this fault in the corpus
        }
        let mut sub = Dataset::new(
            idx.iter()
                .map(|&j| constructed.features[j].clone())
                .collect(),
            vec!["good".into(), fault.to_string()],
        );
        for (&r, &cls) in rows.iter().zip(&y) {
            sub.push(idx.iter().map(|&j| constructed.x[r][j]).collect(), cls);
        }
        let ranked = rank_by_su(&sub);
        for (vp_name, vps) in VP_SETS {
            out.push(FaultFeatureRank {
                fault: fault.to_string(),
                vp: vp_name.to_string(),
                top: ranked
                    .iter()
                    .filter(|(n, _)| in_set(vps, n))
                    .take(top_k)
                    .cloned()
                    .collect(),
            });
        }
    }
    out
}

/// Evaluate a *lab-trained* model on an independent set of runs
/// (Section 6 transfer evaluation). `vps` optionally restricts the
/// metrics offered to the model (a vantage-point subset); runs that
/// have no metrics from any requested VP are skipped (that probe did
/// not exist for the session — e.g. the server probe on YouTube
/// sessions).
pub fn eval_transfer(
    model: &Diagnoser,
    runs: &[LabeledRun],
    scheme: LabelScheme,
    vps: Option<&[&str]>,
) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::new(model.classes.clone());
    for run in runs {
        let metrics: Vec<(String, f64)> = match vps {
            Some(vps) => run
                .metrics
                .iter()
                .filter(|(n, _)| vps.iter().any(|vp| n.starts_with(vp)))
                .cloned()
                .collect(),
            None => run.metrics.clone(),
        };
        if metrics.is_empty() {
            continue;
        }
        let d = model.diagnose(&metrics);
        let actual_name = run.truth.label(scheme);
        let Some(actual) = model.classes.iter().position(|c| *c == actual_name) else {
            continue;
        };
        cm.add(actual, d.class);
    }
    cm
}

/// Render a set of [`VpEval`]s as an aligned text table (used by the
/// experiment benches to print paper-style output).
pub fn render_vp_evals(title: &str, evals: &[VpEval]) -> String {
    let mut s = format!("== {title} ==\n");
    for e in evals {
        s.push_str(&format!(
            "-- VP {:<9} accuracy {:.1}%\n",
            e.vp,
            e.accuracy * 100.0
        ));
        s.push_str("   class                        precision  recall  support\n");
        for r in &e.rows {
            if r.support == 0 {
                continue;
            }
            s.push_str(&format!(
                "   {:<28} {:>8.2}  {:>6.2}  {:>7}\n",
                r.class, r.precision, r.recall, r.support
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_corpus, CorpusConfig};
    use vqd_video::catalog::Catalog;

    fn small_corpus() -> Vec<LabeledRun> {
        let cfg = CorpusConfig {
            sessions: 60,
            seed: 99,
            p_fault: 0.7,
            p_mobile_wan: 0.25,
            ..Default::default()
        };
        generate_corpus(&cfg, &Catalog::top100(42))
    }

    #[test]
    fn vp_eval_produces_all_sets() {
        let runs = small_corpus();
        let evals = eval_by_vp(
            &runs,
            LabelScheme::Existence,
            &DiagnoserConfig::default(),
            1,
        );
        assert_eq!(evals.len(), 4);
        for e in &evals {
            assert!(e.accuracy > 0.4, "{} acc {}", e.vp, e.accuracy);
            assert_eq!(e.rows.len(), 3);
        }
        let text = render_vp_evals("fig3", &evals);
        assert!(text.contains("combined"));
    }

    #[test]
    fn feature_sets_cover_figure5() {
        let runs = small_corpus();
        let sweep = feature_set_sweep(&runs, 1);
        let names: Vec<&str> = sweep.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "RSSI",
                "HW",
                "UTILIZATION",
                "DELAY",
                "TCP",
                "ALL",
                "FS & FC"
            ]
        );
        for e in &sweep {
            assert!(e.n_features > 0, "{} empty", e.name);
            assert!((0.0..=1.0).contains(&e.precision));
        }
    }

    #[test]
    fn table1_selects_nontrivial_subset() {
        let runs = small_corpus();
        let sel = table1(&runs);
        assert!(!sel.names.is_empty());
        assert!(sel.names.len() < 100);
    }

    #[test]
    fn table4_ranks_per_fault() {
        let runs = small_corpus();
        let t4 = table4(&runs, 3);
        assert!(!t4.is_empty());
        for cell in &t4 {
            assert!(cell.top.len() <= 3);
            for (name, su) in &cell.top {
                assert!(
                    name.starts_with("mobile")
                        || name.starts_with("router")
                        || name.starts_with("server")
                        || cell.vp == "combined"
                );
                assert!(*su >= 0.0);
            }
        }
    }
}
