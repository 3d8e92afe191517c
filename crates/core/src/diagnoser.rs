//! The public diagnosis API: train a root-cause model, diagnose
//! sessions.
//!
//! [`Diagnoser::train`] runs the paper's full pipeline — feature
//! construction, FCBF feature selection, C4.5 — on a raw labelled
//! dataset; [`Diagnoser::diagnose`] maps one session's raw probe
//! metrics (from any subset of vantage points) to a class label.
//! Missing vantage points simply produce missing features, which the
//! tree handles natively.

use vqd_features::{CandidateTable, FeatureConstructor};
use vqd_ml::cv::cross_validate_threads;
use vqd_ml::dataset::Dataset;
use vqd_ml::dtree::{C45Config, C45Trainer, DecisionTree};
use vqd_ml::metrics::ConfusionMatrix;
use vqd_ml::ModelParseError;

use crate::error::VqdError;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct DiagnoserConfig {
    /// Apply feature construction (normalisation).
    pub use_fc: bool,
    /// Apply FCBF feature selection.
    pub use_fs: bool,
    /// Minimum SU with the class for FCBF relevance.
    pub fcbf_delta: f64,
    /// C4.5 settings.
    pub tree: C45Config,
    /// Feature-coverage floor for *exact* root-cause answers: when the
    /// importance-weighted fraction of tree-relevant features present
    /// in a session drops below this, the diagnosis is downgraded to a
    /// localisation (Q2) answer.
    pub min_coverage_exact: f64,
    /// Coverage floor for localisation answers: below this only
    /// problem existence (Q1) is reported.
    pub min_coverage_location: f64,
}

impl Default for DiagnoserConfig {
    fn default() -> Self {
        DiagnoserConfig {
            use_fc: true,
            use_fs: true,
            fcbf_delta: 0.01,
            tree: C45Config::default(),
            min_coverage_exact: 0.45,
            min_coverage_location: 0.15,
        }
    }
}

/// A trained root-cause diagnosis model.
pub struct Diagnoser {
    constructor: Option<FeatureConstructor>,
    /// Post-FC, post-FS feature schema the tree expects.
    pub feature_names: Vec<String>,
    /// Class names.
    pub classes: Vec<String>,
    tree: DecisionTree,
    /// Fallback thresholds, copied from the training config
    /// (defaults when the model was loaded from disk).
    pub(crate) min_coverage_exact: f64,
    pub(crate) min_coverage_location: f64,
    /// The serving-path compilation of this model (flattened tree,
    /// interned schema, pre-resolved projections) — see
    /// [`crate::serving`].
    pub(crate) compiled: crate::serving::CompiledModel,
    /// Training-time feature/label distribution stamp
    /// ([`crate::drift`]); `None` for models loaded from a v1 file.
    pub(crate) drift: Option<crate::drift::DriftStamp>,
}

/// How specific an answer the available telemetry supports — the
/// paper's three questions, coarsest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resolution {
    /// Q1: a problem exists (good / mild / severe).
    Existence,
    /// Q2: the problem's location (mobile / lan / wan).
    Location,
    /// Q3: the exact root cause.
    Exact,
}

/// How trustworthy one diagnosis is, given the telemetry that was
/// actually present (§6.2's partial-deployment reality).
#[derive(Debug, Clone)]
pub struct DiagnosisQuality {
    /// Importance-weighted fraction of tree-relevant features present
    /// in the session (`[0, 1]`; 1 = the model saw everything it uses).
    pub feature_coverage: f64,
    /// Vantage points the model schema expects but that contributed no
    /// reading at all (crashed or undeployed probes).
    pub silent_vps: Vec<String>,
    /// Fraction of the prediction weight that reached leaves through
    /// missing-value fallback branches.
    pub missing_descent: f64,
    /// Top-class probability after downgrading for evidence that
    /// arrived via missing-branch fallbacks (shrunk toward chance).
    pub confidence: f64,
}

/// One diagnosis.
#[derive(Debug, Clone)]
pub struct Diagnosis {
    /// Predicted class name (e.g. `"wifi_interference_severe"`) at the
    /// model's native granularity, regardless of telemetry quality.
    pub label: String,
    /// Predicted class index.
    pub class: usize,
    /// Class probability distribution.
    pub dist: Vec<f64>,
    /// Telemetry-quality report for this session.
    pub quality: DiagnosisQuality,
    /// The most specific question the available telemetry supports.
    pub resolution: Resolution,
    /// The downgraded (Q1/Q2) answer when `resolution` is coarser than
    /// exact: the class distribution projected onto location or
    /// existence classes, argmaxed.
    pub fallback_label: Option<String>,
}

impl Diagnosis {
    /// The answer to report: the exact label when coverage supports
    /// it, else the coarser fallback.
    pub fn answer(&self) -> &str {
        self.fallback_label.as_deref().unwrap_or(&self.label)
    }
}

/// A raw dataset already run through feature construction and
/// selection, ready for (repeated) model training.
///
/// [`Diagnoser::prepare`] is the single FC + FCBF pass; `train`,
/// `cross_validate` and the experiment/ablation drivers in this crate
/// all consume a `PreparedPipeline` so the pass runs once per corpus
/// instead of once per evaluation.
pub struct PreparedPipeline {
    /// The transformed, feature-selected dataset.
    pub data: Dataset,
    /// The fitted feature constructor (when `use_fc`).
    pub constructor: Option<FeatureConstructor>,
}

impl PreparedPipeline {
    /// The prepared pipeline of the columns of an FC output whose name
    /// passes `keep`: the FCBF union of those columns read from
    /// `table` (every column passing `keep` when no column clears the
    /// relevance bar, or when `table` is `None`, i.e. without FS).
    ///
    /// Feature construction reads only columns of the same vantage
    /// point (see [`vqd_features::ConstructionPlan`]), so restricting
    /// its output to a set of VP-prefixed columns equals constructing
    /// over the restricted raw columns, column for column. With
    /// `constructed` and `table` from one raw dataset, the result
    /// therefore equals `Diagnoser::prepare` over that dataset's
    /// columns under the same VP filter.
    pub fn derive(
        constructed: &Dataset,
        constructor: Option<&FeatureConstructor>,
        table: Option<&CandidateTable>,
        keep: impl Fn(&str) -> bool,
    ) -> PreparedPipeline {
        let names = table.map(|t| t.fcbf_union(&keep)).unwrap_or_default();
        let data = if names.is_empty() {
            constructed.select_features_by(keep)
        } else {
            constructed.select_features(&names)
        };
        PreparedPipeline {
            data,
            constructor: constructor.cloned(),
        }
    }
}

impl Diagnoser {
    /// Run the discretisation-free part of the pipeline once: feature
    /// construction (when `use_fc`) and FCBF selection (when
    /// `use_fs`). The result can back any number of `*_prepared`
    /// calls.
    ///
    /// Selection is the global FCBF pass unioned with one pass per
    /// vantage point ([`CandidateTable::fcbf_union`]), both walking
    /// one [`CandidateTable`], so each column is discretised once.
    pub fn prepare(raw: &Dataset, cfg: &DiagnoserConfig) -> PreparedPipeline {
        let (data, constructor) = Self::construct(raw, cfg);
        let _span = vqd_obs::WallSpan::begin("select", "pipeline");
        if !cfg.use_fs {
            return PreparedPipeline { data, constructor };
        }
        let table = CandidateTable::build(&data, cfg.fcbf_delta);
        PreparedPipeline::derive(&data, constructor.as_ref(), Some(&table), |_| true)
    }

    /// [`Diagnoser::prepare`] of each vantage-point subset of a raw
    /// dataset (the columns starting with one of a set's VP names, as
    /// [`crate::experiments::vp_subset`] keeps them), from one feature
    /// construction and one [`CandidateTable`] over all columns. Equal,
    /// pipeline for pipeline, to `prepare(&vp_subset(raw, set), cfg)`.
    pub fn prepare_vp_sets(
        raw: &Dataset,
        cfg: &DiagnoserConfig,
        sets: &[&[&str]],
    ) -> Vec<PreparedPipeline> {
        let (data, constructor) = Self::construct(raw, cfg);
        let _span = vqd_obs::WallSpan::begin("select", "pipeline");
        let table = cfg
            .use_fs
            .then(|| CandidateTable::build(&data, cfg.fcbf_delta));
        sets.iter()
            .map(|vps| {
                PreparedPipeline::derive(&data, constructor.as_ref(), table.as_ref(), |n| {
                    vps.iter().any(|vp| n.starts_with(vp))
                })
            })
            .collect()
    }

    /// The FC stage of [`Diagnoser::prepare`]: the constructed dataset
    /// and the fitted constructor (the raw dataset, unconstructed,
    /// without `use_fc`).
    fn construct(raw: &Dataset, cfg: &DiagnoserConfig) -> (Dataset, Option<FeatureConstructor>) {
        let _span = vqd_obs::WallSpan::begin("construct", "pipeline");
        if cfg.use_fc {
            let c = FeatureConstructor::fit(raw);
            (c.transform(raw), Some(c))
        } else {
            (raw.clone(), None)
        }
    }

    /// Train on a raw labelled dataset.
    pub fn train(raw: &Dataset, cfg: &DiagnoserConfig) -> Diagnoser {
        Self::train_prepared(&Self::prepare(raw, cfg), cfg)
    }

    /// Train on an already-prepared pipeline (see
    /// [`Diagnoser::prepare`]); skips the FC + FCBF pass.
    pub fn train_prepared(prep: &PreparedPipeline, cfg: &DiagnoserConfig) -> Diagnoser {
        let _span = vqd_obs::WallSpan::begin("train", "pipeline");
        let data = &prep.data;
        let rows: Vec<usize> = (0..data.len()).collect();
        let tree = C45Trainer { cfg: cfg.tree }.fit(data, &rows);
        let compiled = crate::serving::CompiledModel::build(&tree, prep.constructor.is_some());
        let drift = crate::drift::DriftStamp::from_dataset(data);
        Diagnoser {
            constructor: prep.constructor.clone(),
            feature_names: data.features.clone(),
            classes: data.classes.clone(),
            tree,
            min_coverage_exact: cfg.min_coverage_exact,
            min_coverage_location: cfg.min_coverage_location,
            compiled,
            drift: Some(drift),
        }
    }

    /// Assemble a diagnoser around an externally-fitted tree — the
    /// out-of-core training path ([`crate::octrain`]). Mirrors
    /// [`Diagnoser::train_prepared`] field-for-field so the two paths
    /// serialise identically when fed identical trees.
    pub(crate) fn from_trained_tree(
        constructor: Option<FeatureConstructor>,
        feature_names: Vec<String>,
        classes: Vec<String>,
        tree: DecisionTree,
        cfg: &DiagnoserConfig,
        drift: Option<crate::drift::DriftStamp>,
    ) -> Diagnoser {
        let compiled = crate::serving::CompiledModel::build(&tree, constructor.is_some());
        Diagnoser {
            constructor,
            feature_names,
            classes,
            tree,
            min_coverage_exact: cfg.min_coverage_exact,
            min_coverage_location: cfg.min_coverage_location,
            compiled,
            drift,
        }
    }

    /// The training-time distribution stamp, when the model carries
    /// one (trained in-process, or loaded from a v2 file).
    pub fn drift_stamp(&self) -> Option<&crate::drift::DriftStamp> {
        self.drift.as_ref()
    }

    /// The selected features (post-FS schema) — the paper's Table 1.
    pub fn selected_features(&self) -> &[String] {
        &self.feature_names
    }

    /// The underlying decision tree (interpretable — Section 3.2).
    pub fn tree(&self) -> &DecisionTree {
        &self.tree
    }

    /// Build the tree-space row for raw instance metrics.
    fn row_for(&self, metrics: &[(String, f64)]) -> Vec<f64> {
        let transformed;
        let view: &[(String, f64)] = match &self.constructor {
            Some(c) => {
                transformed = c.transform_instance(metrics);
                &transformed
            }
            None => metrics,
        };
        self.feature_names
            .iter()
            .map(|name| {
                view.iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(f64::NAN)
            })
            .collect()
    }

    /// Importance-weighted coverage of the tree-relevant schema by a
    /// tree-space row, plus the schema VPs with no reading at all.
    fn coverage_of(&self, row: &[f64]) -> (f64, Vec<String>) {
        let imp = self.tree.feature_importance();
        let used = self.tree.features_used();
        let total: f64 = used.iter().map(|&i| imp[i]).sum();
        let coverage = if total > 0.0 {
            used.iter()
                .filter(|&&i| row[i].is_finite())
                .map(|&i| imp[i])
                .sum::<f64>()
                / total
        } else if used.is_empty() {
            // A leaf-only tree (majority-class model) needs nothing.
            1.0
        } else {
            let present = used.iter().filter(|&&i| row[i].is_finite()).count();
            present as f64 / used.len() as f64
        };
        // A schema VP is silent when every one of its columns is NaN.
        let mut vps: Vec<&str> = Vec::new();
        for n in &self.feature_names {
            let vp = n.split('.').next().unwrap_or("");
            if !vps.contains(&vp) {
                vps.push(vp);
            }
        }
        let silent = vps
            .into_iter()
            .filter(|vp| {
                self.feature_names
                    .iter()
                    .zip(row)
                    .filter(|(n, _)| n.split('.').next() == Some(vp))
                    .all(|(_, v)| !v.is_finite())
            })
            .map(str::to_string)
            .collect();
        // Zero-gain importances can sum to -0.0; normalise so reports
        // never show "-0%".
        (coverage + 0.0, silent)
    }

    /// Project the class distribution onto a coarser label set and
    /// argmax it: the Q2 (location) or Q1 (existence) answer.
    fn project_dist(&self, dist: &[f64], project: impl Fn(&str) -> String) -> String {
        let mut groups: Vec<(String, f64)> = Vec::new();
        for (name, p) in self.classes.iter().zip(dist) {
            let g = project(name);
            match groups.iter_mut().find(|(n, _)| *n == g) {
                Some((_, acc)) => *acc += p,
                None => groups.push((g, *p)),
            }
        }
        groups
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
            .unwrap_or_else(|| "good".to_string())
    }

    /// Diagnose one session from raw probe metrics (any VP subset).
    ///
    /// Degrades gracefully: missing features descend the tree's
    /// missing-value branches as always, but the returned
    /// [`DiagnosisQuality`] reports how much of the model's evidence
    /// was actually present, and when coverage falls below the
    /// configured floors the answer falls back from the exact root
    /// cause (Q3) to localisation (Q2) or bare existence (Q1) — a
    /// sparse deployment still gets the coarser answers the paper
    /// shows remain reliable (§6.2).
    ///
    /// This is the batched engine ([`Diagnoser::diagnose_batch`])
    /// applied to a single session; batching N sessions returns
    /// bit-identical results at a fraction of the per-session cost.
    pub fn diagnose(&self, metrics: &[(String, f64)]) -> Diagnosis {
        self.diagnose_batch(std::slice::from_ref(&metrics), 1)
            .get(0)
    }

    /// The pre-batch scalar serving loop, retained verbatim as the
    /// baseline the `diagnose_perf` bench and the equality tests
    /// measure the compiled engine against: linear name scans over the
    /// metric list per schema feature, pointer-tree descent, fresh
    /// allocations per call.
    #[doc(hidden)]
    pub fn diagnose_seed_reference(&self, metrics: &[(String, f64)]) -> Diagnosis {
        let row = self.row_for(metrics);
        let (mut dist, missing_descent) = self.tree.predict_dist_traced(&row);
        let total: f64 = dist.iter().sum();
        if total > 0.0 {
            for d in &mut dist {
                *d /= total;
            }
        }
        let class = dist
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0);
        let (feature_coverage, silent_vps) = self.coverage_of(&row);
        // Evidence that arrived through missing-branch fallbacks only
        // carries chance-level certainty: shrink the top probability
        // toward 1/n by the missing-descent fraction.
        let p_top = dist.get(class).copied().unwrap_or(0.0);
        let chance = 1.0 / self.classes.len().max(1) as f64;
        let confidence = p_top * (1.0 - missing_descent) + chance * missing_descent;
        let (resolution, fallback_label) = if feature_coverage >= self.min_coverage_exact {
            (Resolution::Exact, None)
        } else if feature_coverage >= self.min_coverage_location {
            (
                Resolution::Location,
                Some(self.project_dist(&dist, crate::scenario::exact_to_location)),
            )
        } else {
            (
                Resolution::Existence,
                Some(self.project_dist(&dist, crate::scenario::exact_to_existence)),
            )
        };
        if vqd_obs::enabled() {
            let r = vqd_obs::recorder();
            r.counter_add("core.diagnose.calls", 1);
            r.counter_add(
                match resolution {
                    Resolution::Exact => "core.diagnose.resolution.exact",
                    Resolution::Location => "core.diagnose.resolution.location",
                    Resolution::Existence => "core.diagnose.resolution.existence",
                },
                1,
            );
            // The reported answer: the fallback projection when
            // coverage forced one, else the exact class.
            let reported = fallback_label.as_deref().unwrap_or(&self.classes[class]);
            r.counter_add_dyn(&format!("core.diagnose.label.{reported}"), 1);
            r.hist_record("core.diagnose.coverage", feature_coverage);
            r.hist_record("core.diagnose.confidence", confidence);
        }
        Diagnosis {
            label: self.classes[class].clone(),
            class,
            dist,
            quality: DiagnosisQuality {
                feature_coverage,
                silent_vps,
                missing_descent,
                confidence,
            },
            resolution,
            fallback_label,
        }
    }

    /// Serialise the whole diagnoser (pipeline flags + tree, plus the
    /// drift stamp when present) to a dependency-free text format.
    /// Models carrying a stamp write the `v2` header with a trailing
    /// `drift v1` section; stamp-less models keep the `v1` layout
    /// byte-for-byte.
    pub fn serialize(&self) -> String {
        let version = if self.drift.is_some() { 2 } else { 1 };
        let mut s = format!("vqd-diagnoser v{version}\n");
        s.push_str(&format!("fc\t{}\n", self.constructor.is_some()));
        s.push_str(&self.tree.serialize());
        if let Some(stamp) = &self.drift {
            s.push_str(&stamp.serialize());
        }
        s
    }

    /// Load a diagnoser serialised with [`Diagnoser::serialize`].
    /// Accepts both `v1` (no drift stamp) and `v2` (stamp required)
    /// files. Malformed input — wrong header, bad pipeline flags, any
    /// of the tree-payload corruptions [`DecisionTree::deserialize`]
    /// rejects, or a corrupt drift section — yields a [`VqdError`]
    /// naming the offending file line.
    pub fn deserialize(text: &str) -> Result<Diagnoser, VqdError> {
        let mut lines = text.lines();
        let version = match lines.next() {
            Some("vqd-diagnoser v1") => 1,
            Some("vqd-diagnoser v2") => 2,
            other => {
                return Err(ModelParseError::at(
                    1,
                    "header",
                    format!("expected \"vqd-diagnoser v1\" or \"vqd-diagnoser v2\", got {other:?}"),
                )
                .into())
            }
        };
        let fc = match lines.next() {
            Some("fc\ttrue") => true,
            Some("fc\tfalse") => false,
            other => {
                return Err(ModelParseError::at(
                    2,
                    "fc",
                    format!("expected \"fc\\ttrue\" or \"fc\\tfalse\", got {other:?}"),
                )
                .into())
            }
        };
        // Split the remaining lines into the tree payload and the
        // optional trailing drift section. The marker is a bare
        // `drift v1` line, which cannot occur inside a tree payload
        // (every tree line is tagged or `id<TAB>body`-shaped).
        let rest: Vec<&str> = lines.collect();
        let drift_at = rest.iter().position(|&l| l == "drift v1");
        let (tree_lines, drift_lines) = match drift_at {
            Some(i) => (&rest[..i], Some(&rest[i..])),
            None => (&rest[..], None),
        };
        if version >= 2 && drift_lines.is_none() {
            return Err(ModelParseError::at(
                3,
                "drift",
                "v2 model file is missing its drift section",
            )
            .into());
        }
        // The tree payload starts at file line 3: re-address its parse
        // errors to the whole file so the message is actionable.
        let tree = DecisionTree::deserialize(&tree_lines.join("\n")).map_err(|mut e| {
            if e.line > 0 {
                e.line += 2;
            }
            VqdError::Model(e)
        })?;
        let drift = match drift_lines {
            Some(section) => {
                let offset = 2 + tree_lines.len();
                let stamp = crate::drift::DriftStamp::deserialize(&section.join("\n")).map_err(
                    |mut e| {
                        if e.line > 0 {
                            e.line += offset;
                        }
                        VqdError::Model(e)
                    },
                )?;
                if stamp.features != tree.feature_names {
                    return Err(ModelParseError::at(
                        offset + 1,
                        "drift",
                        "drift stamp schema does not match the tree's feature list",
                    )
                    .into());
                }
                if stamp.label_counts.len() != tree.class_names.len() {
                    return Err(ModelParseError::at(
                        offset + 1,
                        "drift",
                        "drift stamp label counts do not match the class list",
                    )
                    .into());
                }
                Some(stamp)
            }
            None => None,
        };
        let defaults = DiagnoserConfig::default();
        let compiled = crate::serving::CompiledModel::build(&tree, fc);
        Ok(Diagnoser {
            constructor: fc.then(FeatureConstructor::default),
            feature_names: tree.feature_names.clone(),
            classes: tree.class_names.clone(),
            tree,
            min_coverage_exact: defaults.min_coverage_exact,
            min_coverage_location: defaults.min_coverage_location,
            compiled,
            drift,
        })
    }

    /// Save to a file.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> Result<(), VqdError> {
        let path = path.as_ref();
        std::fs::write(path, self.serialize()).map_err(|e| VqdError::io(path, e))
    }

    /// Load from a file.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Diagnoser, VqdError> {
        let path = path.as_ref();
        let text = std::fs::read_to_string(path).map_err(|e| VqdError::io(path, e))?;
        Self::deserialize(&text)
    }

    /// Evaluate this trained model on an independent raw dataset
    /// (classes must match by name; extra/missing feature columns are
    /// handled by name alignment).
    pub fn evaluate(&self, raw: &Dataset) -> ConfusionMatrix {
        let sessions: Vec<Vec<(String, f64)>> = (0..raw.len())
            .map(|i| {
                raw.features
                    .iter()
                    .cloned()
                    .zip(raw.x[i].iter().copied())
                    .filter(|(_, v)| !v.is_nan())
                    .collect()
            })
            .collect();
        let batch = self.diagnose_batch(&sessions, 0);
        let mut cm = ConfusionMatrix::new(self.classes.clone());
        for i in 0..raw.len() {
            // Align class by name.
            let actual_name = &raw.classes[raw.y[i]];
            let actual = self
                .classes
                .iter()
                .position(|c| c == actual_name)
                .unwrap_or(0);
            cm.add(actual, batch.class(i));
        }
        cm
    }

    /// 10-fold (or k-fold) cross-validation of the full pipeline on a
    /// raw dataset: FC/FS are fitted once on the full data (as the
    /// paper does with Weka), the tree is cross-validated. Folds run
    /// in parallel (governed by `cfg.tree.threads`), each fold's fit
    /// serially; the result is identical for every thread count.
    pub fn cross_validate(
        raw: &Dataset,
        cfg: &DiagnoserConfig,
        k: usize,
        seed: u64,
    ) -> ConfusionMatrix {
        Self::cross_validate_prepared(&Self::prepare(raw, cfg), cfg, k, seed)
    }

    /// [`Diagnoser::cross_validate`] on an already-prepared pipeline;
    /// skips the FC + FCBF pass.
    pub fn cross_validate_prepared(
        prep: &PreparedPipeline,
        cfg: &DiagnoserConfig,
        k: usize,
        seed: u64,
    ) -> ConfusionMatrix {
        cross_validate_threads(
            &C45Trainer { cfg: cfg.tree },
            &prep.data,
            k,
            seed,
            cfg.tree.threads,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_simnet::rng::SimRng;

    /// Synthetic "raw probe metrics" with the naming shape of real
    /// ones: rssi drives the class, retx is its redundant echo, plus
    /// count columns that need normalisation.
    fn synthetic(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(
            vec![
                "mobile.phy.rssi_avg".into(),
                "mobile.tcp.s2c.retx_pkts".into(),
                "mobile.tcp.total_pkts".into(),
                "mobile.tcp.total_data_bytes".into(),
                "mobile.hw.cpu_avg".into(),
            ],
            vec!["good".into(), "low_rssi_severe".into()],
        );
        for _ in 0..n {
            let c = rng.index(2);
            let rssi = if c == 0 {
                rng.normal(-50.0, 4.0)
            } else {
                rng.normal(-85.0, 4.0)
            };
            let pkts = rng.range_f64(500.0, 5000.0);
            let retx_rate = if c == 0 { 0.005 } else { 0.08 };
            d.push(
                vec![
                    rssi,
                    pkts * retx_rate,
                    pkts,
                    pkts * 1400.0,
                    rng.range_f64(0.1, 0.5),
                ],
                c,
            );
        }
        d
    }

    #[test]
    fn train_and_diagnose() {
        let d = synthetic(400, 1);
        let model = Diagnoser::train(&d, &DiagnoserConfig::default());
        let good = model.diagnose(&[
            ("mobile.phy.rssi_avg".into(), -48.0),
            ("mobile.tcp.s2c.retx_pkts".into(), 4.0),
            ("mobile.tcp.total_pkts".into(), 1000.0),
            ("mobile.tcp.total_data_bytes".into(), 1.4e6),
            ("mobile.hw.cpu_avg".into(), 0.3),
        ]);
        assert_eq!(good.label, "good");
        let bad = model.diagnose(&[
            ("mobile.phy.rssi_avg".into(), -88.0),
            ("mobile.tcp.s2c.retx_pkts".into(), 90.0),
            ("mobile.tcp.total_pkts".into(), 1000.0),
            ("mobile.tcp.total_data_bytes".into(), 1.4e6),
            ("mobile.hw.cpu_avg".into(), 0.3),
        ]);
        assert_eq!(bad.label, "low_rssi_severe");
        assert!(bad.dist[bad.class] > 0.5);
    }

    #[test]
    fn missing_vantage_point_still_diagnoses() {
        let d = synthetic(400, 2);
        let model = Diagnoser::train(&d, &DiagnoserConfig::default());
        // No RSSI available at all (server-only view).
        let dx = model.diagnose(&[
            ("mobile.tcp.s2c.retx_pkts".into(), 90.0),
            ("mobile.tcp.total_pkts".into(), 1000.0),
            ("mobile.tcp.total_data_bytes".into(), 1.4e6),
        ]);
        assert!(dx.class < 2);
    }

    #[test]
    fn quality_full_telemetry_is_clean() {
        let d = synthetic(400, 6);
        let model = Diagnoser::train(&d, &DiagnoserConfig::default());
        let dx = model.diagnose(&[
            ("mobile.phy.rssi_avg".into(), -48.0),
            ("mobile.tcp.s2c.retx_pkts".into(), 4.0),
            ("mobile.tcp.total_pkts".into(), 1000.0),
            ("mobile.tcp.total_data_bytes".into(), 1.4e6),
            ("mobile.hw.cpu_avg".into(), 0.3),
        ]);
        assert!(
            (dx.quality.feature_coverage - 1.0).abs() < 1e-12,
            "coverage {}",
            dx.quality.feature_coverage
        );
        assert!(dx.quality.silent_vps.is_empty());
        assert_eq!(dx.quality.missing_descent, 0.0);
        assert_eq!(dx.resolution, Resolution::Exact);
        assert!(dx.fallback_label.is_none());
        assert_eq!(dx.answer(), dx.label);
        assert!(dx.quality.confidence > 0.5);
    }

    #[test]
    fn empty_telemetry_falls_back_to_existence() {
        let d = synthetic(400, 7);
        let model = Diagnoser::train(&d, &DiagnoserConfig::default());
        let dx = model.diagnose(&[]);
        assert!(dx.quality.feature_coverage < 1e-12);
        // Every schema VP is silent.
        assert!(!dx.quality.silent_vps.is_empty());
        assert_eq!(dx.resolution, Resolution::Existence);
        let fb = dx.fallback_label.as_deref().unwrap();
        assert!(
            ["good", "mild", "severe"].contains(&fb),
            "fallback {fb:?} is not an existence class"
        );
        // Confidence shrinks toward chance when all evidence is
        // missing-branch fallback.
        assert!(
            dx.quality.confidence <= dx.dist[dx.class] + 1e-12,
            "confidence {} > top prob {}",
            dx.quality.confidence,
            dx.dist[dx.class]
        );
    }

    #[test]
    fn degraded_telemetry_reports_missing_descent() {
        let d = synthetic(400, 9);
        let model = Diagnoser::train(&d, &DiagnoserConfig::default());
        let full = model.diagnose(&[
            ("mobile.phy.rssi_avg".into(), -88.0),
            ("mobile.tcp.s2c.retx_pkts".into(), 90.0),
            ("mobile.tcp.total_pkts".into(), 1000.0),
            ("mobile.tcp.total_data_bytes".into(), 1.4e6),
            ("mobile.hw.cpu_avg".into(), 0.3),
        ]);
        let partial = model.diagnose(&[("mobile.hw.cpu_avg".into(), 0.3)]);
        assert!(partial.quality.feature_coverage < full.quality.feature_coverage);
        assert!(partial.quality.missing_descent > 0.0);
        assert!(partial.resolution < full.resolution);
    }

    #[test]
    fn cross_validation_accuracy() {
        let d = synthetic(400, 3);
        let cm = Diagnoser::cross_validate(&d, &DiagnoserConfig::default(), 10, 1);
        assert!(cm.accuracy() > 0.9, "acc {}", cm.accuracy());
        assert_eq!(cm.total(), 400);
    }

    #[test]
    fn fs_reduces_schema() {
        let d = synthetic(500, 4);
        let with_fs = Diagnoser::train(&d, &DiagnoserConfig::default());
        let without = Diagnoser::train(
            &d,
            &DiagnoserConfig {
                use_fs: false,
                ..Default::default()
            },
        );
        assert!(with_fs.feature_names.len() <= without.feature_names.len());
        assert!(
            with_fs.feature_names.len() <= 3,
            "{:?}",
            with_fs.feature_names
        );
    }

    #[test]
    fn save_load_round_trip() {
        let d = synthetic(300, 8);
        let model = Diagnoser::train(&d, &DiagnoserConfig::default());
        let text = model.serialize();
        let back = Diagnoser::deserialize(&text).unwrap();
        assert_eq!(back.classes, model.classes);
        assert_eq!(back.feature_names, model.feature_names);
        let probe = vec![
            ("mobile.phy.rssi_avg".to_string(), -85.0),
            ("mobile.tcp.s2c.retx_pkts".to_string(), 80.0),
            ("mobile.tcp.total_pkts".to_string(), 1000.0),
            ("mobile.tcp.total_data_bytes".to_string(), 1.4e6),
            ("mobile.hw.cpu_avg".to_string(), 0.3),
        ];
        assert_eq!(back.diagnose(&probe).label, model.diagnose(&probe).label);
        assert!(Diagnoser::deserialize("junk").is_err());
    }

    #[test]
    fn evaluate_on_fresh_data() {
        let train = synthetic(400, 5);
        let test = synthetic(150, 99);
        let model = Diagnoser::train(&train, &DiagnoserConfig::default());
        let cm = model.evaluate(&test);
        assert_eq!(cm.total(), 150);
        assert!(cm.accuracy() > 0.9, "acc {}", cm.accuracy());
    }
}
