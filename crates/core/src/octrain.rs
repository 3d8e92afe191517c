//! Out-of-core training: the full diagnosis pipeline fed column by
//! column from a [`VqdcReader`], never materialising the dataset.
//!
//! The pipeline is the same FC → FCBF → C4.5 as [`Diagnoser::train`],
//! re-expressed over columns:
//!
//! * **FC** — [`ConstructionPlan::for_schema`] resolves the
//!   construction rules against the raw schema once; each transformed
//!   column is then computed on demand from one or two raw columns
//!   (the constructor carries no learned state).
//! * **FS** — [`fcbf_union_streaming`] fills the candidate table
//!   `Diagnoser::prepare` selects from, fetching one transformed
//!   column at a time, and walks the same global + per-VP FCBF union.
//! * **C4.5** — [`C45Trainer::fit_streaming`] gathers `(value, id)`
//!   pairs per node/feature through an external sort, bit-identical to
//!   the in-memory fit.
//!
//! Every stage holds O(rows) memory for one column (plus labels and
//! the spill budget), so the corpus the model is trained on can exceed
//! RAM. The resulting model serialises **byte-identically** to
//! `Diagnoser::train` over the same corpus — pinned by the test here
//! and diffed again in the `corpus-smoke` CI job.

use std::io;

use vqd_features::{fcbf_union_streaming, ColumnOp, ConstructionPlan, FeatureConstructor};
use vqd_ml::dtree::C45Trainer;
use vqd_ml::stream_fit::{ColumnSource, StreamFitConfig, StreamFitStats};

use crate::diagnoser::{Diagnoser, DiagnoserConfig};
use crate::error::VqdError;
use crate::scenario::{class_names, LabelScheme};
use crate::vqdc::VqdcReader;

/// Out-of-core training configuration.
#[derive(Debug, Clone)]
pub struct OocConfig {
    /// Pipeline configuration (FC/FS flags, FCBF delta, tree config).
    pub diagnoser: DiagnoserConfig,
    /// Label granularity to train at.
    pub scheme: LabelScheme,
    /// Streaming-fit knobs (chunk size, spill budget, spill dir) —
    /// wall time and memory only, never the model.
    pub fit: StreamFitConfig,
}

impl Default for OocConfig {
    fn default() -> OocConfig {
        OocConfig {
            diagnoser: DiagnoserConfig::default(),
            scheme: LabelScheme::Exact,
            fit: StreamFitConfig::default(),
        }
    }
}

/// What the out-of-core pipeline did, for reporting and benches.
#[derive(Debug, Clone)]
pub struct OocReport {
    /// Sessions trained on.
    pub sessions: usize,
    /// Raw corpus columns.
    pub raw_features: usize,
    /// Columns after feature construction.
    pub constructed_features: usize,
    /// Columns after FCBF selection (the model schema).
    pub selected_features: usize,
    /// External-sort statistics of the tree fit.
    pub fit: StreamFitStats,
}

/// [`ColumnSource`] over a `.vqdc` file with feature construction
/// applied on the fly: each schema column is one raw column or a
/// ratio of two, computed per read window.
struct VqdcColumns<'a> {
    reader: &'a VqdcReader,
    names: Vec<String>,
    ops: Vec<ColumnOp>,
    classes: Vec<String>,
    y: Vec<u32>,
}

impl ColumnSource for VqdcColumns<'_> {
    fn n_rows(&self) -> usize {
        self.reader.n_rows()
    }
    fn feature_names(&self) -> &[String] {
        &self.names
    }
    fn class_names(&self) -> &[String] {
        &self.classes
    }
    fn labels(&self) -> &[u32] {
        &self.y
    }
    fn fill_column(&self, feat: usize, start: usize, out: &mut [f64]) -> io::Result<()> {
        match self.ops[feat] {
            ColumnOp::Copy(j) => self.reader.fill_column(j, start, out),
            ColumnOp::Ratio(j, t) => {
                self.reader.fill_column(j, start, out)?;
                let mut denom = vec![0.0; out.len()];
                self.reader.fill_column(t, start, &mut denom)?;
                for (v, d) in out.iter_mut().zip(&denom) {
                    *v = ConstructionPlan::ratio(*v, *d);
                }
                Ok(())
            }
        }
    }
    fn borrow_cells(&self, feat: usize, start: usize) -> io::Result<Option<&[u64]>> {
        match self.ops[feat] {
            // Copied columns are the stored bits verbatim, so an
            // mmap-backed raw block can be lent straight through.
            // Ratio columns are computed per window — no stored bits
            // to lend — and fall back to `fill_column`.
            ColumnOp::Copy(j) => self.reader.borrow_cells(j, start).map_err(io::Error::other),
            ColumnOp::Ratio(..) => Ok(None),
        }
    }
}

/// Train a diagnoser from a binary corpus without materialising it.
/// The model is byte-identical to `Diagnoser::train` over the same
/// corpus and config, at any `fit` knob values.
pub fn train_out_of_core(
    reader: &VqdcReader,
    cfg: &OocConfig,
) -> Result<(Diagnoser, OocReport), VqdError> {
    let _span = vqd_obs::WallSpan::begin("octrain", "pipeline");
    let dcfg = &cfg.diagnoser;
    let raw = reader.feature_names();
    let plan = if dcfg.use_fc {
        ConstructionPlan::for_schema(raw)
    } else {
        ConstructionPlan {
            names: raw.to_vec(),
            ops: (0..raw.len()).map(ColumnOp::Copy).collect(),
        }
    };
    let y = reader.class_ids(cfg.scheme);
    let classes = class_names(cfg.scheme);
    // One transformed column, materialised on demand — the only
    // row-length allocation of the selection pass.
    let fetch = |k: usize| -> Result<Vec<f64>, VqdError> {
        match plan.ops[k] {
            ColumnOp::Copy(j) => reader.column(j),
            ColumnOp::Ratio(j, t) => {
                let num = reader.column(j)?;
                let den = reader.column(t)?;
                Ok(num
                    .iter()
                    .zip(&den)
                    .map(|(&a, &b)| ConstructionPlan::ratio(a, b))
                    .collect())
            }
        }
    };
    let (schema, ops) = if dcfg.use_fs {
        let names = fcbf_union_streaming(&plan.names, &y, classes.len(), dcfg.fcbf_delta, fetch)?;
        if names.is_empty() {
            // Nothing cleared the relevance bar: keep the full schema,
            // exactly as `Diagnoser::prepare` does.
            (plan.names.clone(), plan.ops.clone())
        } else {
            let mut schema = Vec::with_capacity(names.len());
            let mut ops = Vec::with_capacity(names.len());
            for n in &names {
                if let Some(k) = plan.names.iter().position(|m| m == n) {
                    schema.push(plan.names[k].clone());
                    ops.push(plan.ops[k]);
                }
            }
            (schema, ops)
        }
    } else {
        (plan.names.clone(), plan.ops.clone())
    };
    let selected = schema.len();
    let src = VqdcColumns {
        reader,
        names: schema,
        ops,
        classes: classes.clone(),
        y: y.iter().map(|&c| c as u32).collect(),
    };
    let (tree, stats) = C45Trainer { cfg: dcfg.tree }
        .fit_streaming_with_stats(&src, &cfg.fit)
        .map_err(|e| {
            VqdError::bin_corpus(reader.path(), format!("out-of-core training I/O: {e}"))
        })?;
    if vqd_obs::enabled() {
        let r = vqd_obs::recorder();
        r.counter_add("core.octrain.runs", 1);
        r.gauge_set("core.octrain.selected_features", selected as f64);
        r.gauge_set("core.octrain.spill_runs", stats.spill_runs as f64);
    }
    let report = OocReport {
        sessions: reader.n_rows(),
        raw_features: raw.len(),
        constructed_features: plan.names.len(),
        selected_features: selected,
        fit: stats,
    };
    // Drift stamp over the selected columns, one chunk at a time —
    // column-by-column in row order, exactly the order
    // `DriftStamp::from_dataset` records in-memory, so the two
    // training paths stamp byte-identically (including the
    // floating-point sums, which accumulate in record order).
    let n = reader.n_rows();
    let mut stamp = crate::drift::DriftStamp::empty(src.names.clone(), classes.len());
    let chunk = cfg.fit.chunk_rows.clamp(1, n.max(1));
    let mut buf = vec![0.0; chunk];
    for j in 0..stamp.features.len() {
        let mut start = 0;
        while start < n {
            let len = chunk.min(n - start);
            src.fill_column(j, start, &mut buf[..len]).map_err(|e| {
                VqdError::bin_corpus(reader.path(), format!("drift stamp column read: {e}"))
            })?;
            stamp.record_column(j, buf[..len].iter().copied());
            start += len;
        }
    }
    stamp.record_labels(y.iter().copied());
    let model = Diagnoser::from_trained_tree(
        dcfg.use_fc.then(FeatureConstructor::default),
        src.names,
        classes,
        tree,
        dcfg,
        Some(stamp),
    );
    Ok((model, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_corpus, to_dataset, CorpusConfig};
    use crate::vqdc::write_vqdc;
    use vqd_video::catalog::Catalog;

    #[test]
    fn out_of_core_model_matches_in_memory_train() {
        let ccfg = CorpusConfig {
            sessions: 60,
            seed: 11,
            ..Default::default()
        };
        let runs = generate_corpus(&ccfg, &Catalog::top100(5));
        let path = std::env::temp_dir().join(format!("vqd-oc-{}.vqdc", std::process::id()));
        write_vqdc(&runs, &path).unwrap();
        let reader = VqdcReader::open(&path).unwrap();
        for scheme in [LabelScheme::Exact, LabelScheme::Location] {
            let want = Diagnoser::train(&to_dataset(&runs, scheme), &DiagnoserConfig::default())
                .serialize();
            // Tiny spill budget forces the external sort; big chunk
            // keeps reads whole-column. Both must yield `want`.
            for (chunk, spill) in [(7usize, 64usize), (64 * 1024, 1 << 20)] {
                let oc = OocConfig {
                    scheme,
                    fit: StreamFitConfig {
                        chunk_rows: chunk,
                        spill_pairs: spill,
                        tmp_dir: None,
                    },
                    ..Default::default()
                };
                let (model, report) = train_out_of_core(&reader, &oc).unwrap();
                assert_eq!(
                    model.serialize(),
                    want,
                    "scheme {scheme:?} chunk {chunk} spill {spill}"
                );
                assert_eq!(report.sessions, 60);
                assert!(report.selected_features <= report.constructed_features);
                assert!(report.constructed_features <= report.raw_features);
            }
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pipeline_toggles_match_in_memory() {
        let ccfg = CorpusConfig {
            sessions: 40,
            seed: 5,
            ..Default::default()
        };
        let runs = generate_corpus(&ccfg, &Catalog::top100(3));
        let path = std::env::temp_dir().join(format!("vqd-oc2-{}.vqdc", std::process::id()));
        write_vqdc(&runs, &path).unwrap();
        let reader = VqdcReader::open(&path).unwrap();
        for (use_fc, use_fs) in [(false, false), (false, true), (true, false)] {
            let dcfg = DiagnoserConfig {
                use_fc,
                use_fs,
                ..Default::default()
            };
            let want =
                Diagnoser::train(&to_dataset(&runs, LabelScheme::Existence), &dcfg).serialize();
            let oc = OocConfig {
                diagnoser: dcfg,
                scheme: LabelScheme::Existence,
                ..Default::default()
            };
            let (model, _) = train_out_of_core(&reader, &oc).unwrap();
            assert_eq!(model.serialize(), want, "fc={use_fc} fs={use_fs}");
        }
        std::fs::remove_file(path).ok();
    }
}
