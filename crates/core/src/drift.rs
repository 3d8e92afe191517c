//! Model drift monitoring: training-time feature/label distribution
//! stamps and runtime divergence tracking.
//!
//! At training time the pipeline records a [`DriftStamp`] — one
//! [`FeatureSketch`] per post-FS feature (a pair of log-linear
//! histograms for positive and negative magnitudes plus zero/missing
//! tallies) and the label distribution. The stamp travels inside the
//! model file (`vqd-diagnoser v2`) so any serving process can compare
//! live traffic against what the model actually saw.
//!
//! At serving time each shard accumulates a [`DriftWindow`] over the
//! rows it diagnoses; every `flush_batch` sessions (and at snapshot
//! barriers and shutdown) the windows are absorbed into a shared
//! [`DriftMonitor`], which publishes PSI-style
//! per-feature divergence, label-mix distance, and confidence /
//! coverage trend gauges, and raises (counted, logged) alerts when a
//! divergence crosses its threshold.
//!
//! Both training paths (in-memory [`crate::Diagnoser::train`] and
//! out-of-core [`crate::octrain`]) must produce *byte-identical*
//! stamps for the same corpus — the sketches are therefore recorded
//! column-by-column in row order in both, so even the floating-point
//! sums match bitwise.

use std::collections::BTreeSet;

use vqd_ml::{Dataset, ModelParseError};
use vqd_obs::LogHistogram;

/// Probability floor for PSI bins: an empty bin on one side counts as
/// this probability rather than zero, keeping the statistic finite.
const PSI_EPS: f64 = 1e-6;

/// Default PSI / label-mix alert threshold. PSI folklore calls 0.1
/// "moderate" and 0.25 "major" population shift; we alert on major.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 0.25;

/// Default minimum window rows before the monitor evaluates at all —
/// tiny windows make PSI meaninglessly noisy.
pub const DEFAULT_DRIFT_MIN_ROWS: u64 = 64;

/// Distribution sketch of one feature column: positive values in
/// `pos`, negative values (by magnitude) in `neg`, exact tallies for
/// zeros and missing (`NaN`) readings. The split handles features
/// that live below zero (RSSI in dBm) as faithfully as throughputs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureSketch {
    /// Positive sample magnitudes.
    pub pos: LogHistogram,
    /// Negative sample magnitudes (`record(-v)`).
    pub neg: LogHistogram,
    /// Exactly-zero samples.
    pub zeros: u64,
    /// Missing (`NaN`) samples.
    pub missing: u64,
}

impl FeatureSketch {
    /// Record one reading.
    pub fn record(&mut self, v: f64) {
        if v.is_nan() {
            self.missing += 1;
        } else if v == 0.0 {
            self.zeros += 1;
        } else if v > 0.0 {
            self.pos.record(v);
        } else {
            self.neg.record(-v);
        }
    }

    /// Total readings sketched (including zeros and missing).
    pub fn total(&self) -> u64 {
        self.pos.count() + self.neg.count() + self.zeros + self.missing
    }

    /// Fold another sketch in.
    pub fn merge(&mut self, other: &FeatureSketch) {
        self.pos.merge(&other.pos);
        self.neg.merge(&other.neg);
        self.zeros += other.zeros;
        self.missing += other.missing;
    }
}

/// One side (`pos` / `neg`) of a sketch as a text line body:
/// `sum<TAB>min<TAB>max<TAB>i:c i:c …` (`-` when empty). `{:?}`
/// formatting keeps the floats shortest-round-trip, so a stamp
/// serialised from either training path re-parses bitwise.
fn hist_line(h: &LogHistogram) -> String {
    let sparse: Vec<String> = h
        .nonzero_buckets()
        .map(|(i, c)| format!("{i}:{c}"))
        .collect();
    let sparse = if sparse.is_empty() {
        "-".to_string()
    } else {
        sparse.join(" ")
    };
    format!("{:?}\t{:?}\t{:?}\t{}", h.sum(), h.min(), h.max(), sparse)
}

fn parse_hist_line(body: &str, line: usize, field: &str) -> Result<LogHistogram, ModelParseError> {
    let mut it = body.split('\t');
    let mut f = |name: &str| -> Result<f64, ModelParseError> {
        it.next()
            .and_then(|t| t.parse::<f64>().ok())
            .ok_or_else(|| ModelParseError::at(line, field, format!("bad {name} field")))
    };
    let sum = f("sum")?;
    let min = f("min")?;
    let max = f("max")?;
    let sparse_txt = it
        .next()
        .ok_or_else(|| ModelParseError::at(line, field, "missing bucket list"))?;
    if it.next().is_some() {
        return Err(ModelParseError::at(line, field, "trailing fields"));
    }
    let mut sparse = Vec::new();
    if sparse_txt != "-" {
        for pair in sparse_txt.split(' ') {
            let (i, c) = pair
                .split_once(':')
                .ok_or_else(|| ModelParseError::at(line, field, format!("bad bucket {pair:?}")))?;
            let i: usize = i
                .parse()
                .map_err(|_| ModelParseError::at(line, field, format!("bad bucket index {i:?}")))?;
            let c: u64 = c
                .parse()
                .map_err(|_| ModelParseError::at(line, field, format!("bad bucket count {c:?}")))?;
            sparse.push((i, c));
        }
    }
    LogHistogram::from_parts(&sparse, 0, 0, sum, min, max)
        .map_err(|e| ModelParseError::at(line, field, e))
}

/// Population-stability-index-style divergence between a baseline and
/// a current sketch of the same feature. Bins are the union of
/// occupied categories on either side — missing, zero, each occupied
/// negative bucket, each occupied positive bucket — with empty bins
/// floored at a small epsilon. Returns 0 when either side is empty.
pub fn psi(baseline: &FeatureSketch, current: &FeatureSketch) -> f64 {
    let (bt, ct) = (baseline.total(), current.total());
    if bt == 0 || ct == 0 {
        return 0.0;
    }
    // Category key: 0 = missing, 1 = zero, 2+i = neg bucket i,
    // 2 + BUCKETS + i = pos bucket i (offset only needs to be unique).
    const NEG_BASE: usize = 2;
    let pos_base = NEG_BASE + vqd_obs::hist::BUCKETS;
    let mut cats: BTreeSet<usize> = BTreeSet::new();
    let collect_cats = |s: &FeatureSketch, cats: &mut BTreeSet<usize>| {
        if s.missing > 0 {
            cats.insert(0);
        }
        if s.zeros > 0 {
            cats.insert(1);
        }
        for (i, _) in s.neg.nonzero_buckets() {
            cats.insert(NEG_BASE + i);
        }
        for (i, _) in s.pos.nonzero_buckets() {
            cats.insert(pos_base + i);
        }
    };
    collect_cats(baseline, &mut cats);
    collect_cats(current, &mut cats);
    let lookup = |s: &FeatureSketch, cat: usize| -> u64 {
        match cat {
            0 => s.missing,
            1 => s.zeros,
            c if c >= pos_base => s
                .pos
                .nonzero_buckets()
                .find(|&(i, _)| i == c - pos_base)
                .map_or(0, |(_, n)| n),
            c => s
                .neg
                .nonzero_buckets()
                .find(|&(i, _)| i == c - NEG_BASE)
                .map_or(0, |(_, n)| n),
        }
    };
    let mut total = 0.0;
    for &cat in &cats {
        let p = (lookup(baseline, cat) as f64 / bt as f64).max(PSI_EPS);
        let q = (lookup(current, cat) as f64 / ct as f64).max(PSI_EPS);
        total += (p - q) * (p / q).ln();
    }
    total
}

/// Total-variation distance between two label-count vectors
/// (normalised); 0 when either side is empty.
pub fn label_mix_distance(baseline: &[u64], current: &[u64]) -> f64 {
    let bt: u64 = baseline.iter().sum();
    let ct: u64 = current.iter().sum();
    if bt == 0 || ct == 0 {
        return 0.0;
    }
    let n = baseline.len().max(current.len());
    let mut tv = 0.0;
    for i in 0..n {
        let p = baseline.get(i).copied().unwrap_or(0) as f64 / bt as f64;
        let q = current.get(i).copied().unwrap_or(0) as f64 / ct as f64;
        tv += (p - q).abs();
    }
    tv / 2.0
}

/// The training-time distribution stamp embedded in a model file:
/// per-feature sketches over the training rows (post-construction,
/// post-FS — the same tree-space columns serving constructs) plus the
/// label distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftStamp {
    /// Training rows sketched.
    pub rows: u64,
    /// Feature names, aligned with `sketches` and the model schema.
    pub features: Vec<String>,
    /// One sketch per feature.
    pub sketches: Vec<FeatureSketch>,
    /// Training label counts, aligned with the model's class list.
    pub label_counts: Vec<u64>,
}

impl DriftStamp {
    /// An empty stamp over the given schema, ready for
    /// [`record_column`](DriftStamp::record_column) /
    /// [`record_labels`](DriftStamp::record_labels).
    pub fn empty(features: Vec<String>, n_classes: usize) -> DriftStamp {
        let sketches = vec![FeatureSketch::default(); features.len()];
        DriftStamp {
            rows: 0,
            features,
            sketches,
            label_counts: vec![0; n_classes],
        }
    }

    /// Sketch one whole column, in row order. Both training paths call
    /// this with identical value sequences, which is what makes the
    /// two stamps byte-identical (the histogram sum accumulates in
    /// record order).
    pub fn record_column(&mut self, j: usize, values: impl Iterator<Item = f64>) {
        let s = &mut self.sketches[j];
        for v in values {
            s.record(v);
        }
    }

    /// Tally the label column; also fixes `rows`.
    pub fn record_labels(&mut self, y: impl Iterator<Item = usize>) {
        for c in y {
            if c < self.label_counts.len() {
                self.label_counts[c] += 1;
            }
            self.rows += 1;
        }
    }

    /// Stamp a prepared (tree-space) dataset: columns in schema order,
    /// each column in row order.
    pub fn from_dataset(data: &Dataset) -> DriftStamp {
        let mut stamp = DriftStamp::empty(data.features.clone(), data.classes.len());
        for j in 0..data.features.len() {
            stamp.record_column(j, data.x.iter().map(|row| row[j]));
        }
        stamp.record_labels(data.y.iter().copied());
        stamp
    }

    /// Serialise as the model file's trailing `drift v1` section.
    pub fn serialize(&self) -> String {
        let mut s = String::from("drift v1\n");
        s.push_str(&format!("rows\t{}\n", self.rows));
        let labels: Vec<String> = self.label_counts.iter().map(|c| c.to_string()).collect();
        s.push_str(&format!("labels\t{}\n", labels.join(" ")));
        for (name, sk) in self.features.iter().zip(&self.sketches) {
            s.push_str(&format!("feat\t{name}\t{}\t{}\n", sk.zeros, sk.missing));
            s.push_str(&format!("pos\t{}\n", hist_line(&sk.pos)));
            s.push_str(&format!("neg\t{}\n", hist_line(&sk.neg)));
        }
        s
    }

    /// Parse a `drift v1` section (as produced by
    /// [`serialize`](DriftStamp::serialize)). Error line numbers are
    /// relative to the section's first line (`drift v1` = line 1); the
    /// caller re-addresses them to the whole file.
    pub fn deserialize(text: &str) -> Result<DriftStamp, ModelParseError> {
        let lines: Vec<&str> = text.lines().collect();
        let mut cursor = 0usize;
        let next = |cursor: &mut usize, field: &str| -> Result<(usize, &str), ModelParseError> {
            let out = lines
                .get(*cursor)
                .map(|&l| (*cursor + 1, l))
                .ok_or_else(|| ModelParseError::at(0, field, "section truncated"));
            *cursor += 1;
            out
        };
        match next(&mut cursor, "drift-header")? {
            (_, "drift v1") => {}
            (ln, other) => {
                return Err(ModelParseError::at(
                    ln,
                    "drift-header",
                    format!("expected \"drift v1\", got {other:?}"),
                ))
            }
        }
        let (rln, rl) = next(&mut cursor, "rows")?;
        let rows = rl
            .strip_prefix("rows\t")
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| ModelParseError::at(rln, "rows", format!("bad rows line {rl:?}")))?;
        let (lln, ll) = next(&mut cursor, "labels")?;
        let labels_body = ll
            .strip_prefix("labels\t")
            .ok_or_else(|| ModelParseError::at(lln, "labels", format!("bad labels line {ll:?}")))?;
        let label_counts: Vec<u64> = labels_body
            .split(' ')
            .filter(|t| !t.is_empty())
            .map(|t| {
                t.parse::<u64>()
                    .map_err(|_| ModelParseError::at(lln, "labels", format!("bad count {t:?}")))
            })
            .collect::<Result<_, _>>()?;
        let mut features = Vec::new();
        let mut sketches = Vec::new();
        while let Ok((ln, l)) = next(&mut cursor, "feat") {
            let body = l.strip_prefix("feat\t").ok_or_else(|| {
                ModelParseError::at(ln, "feat", format!("expected feat line, got {l:?}"))
            })?;
            let mut it = body.split('\t');
            let name = it
                .next()
                .filter(|n| !n.is_empty())
                .ok_or_else(|| ModelParseError::at(ln, "feat", "empty feature name"))?;
            let zeros: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ModelParseError::at(ln, "feat", "bad zeros field"))?;
            let missing: u64 = it
                .next()
                .and_then(|t| t.parse().ok())
                .ok_or_else(|| ModelParseError::at(ln, "feat", "bad missing field"))?;
            if it.next().is_some() {
                return Err(ModelParseError::at(ln, "feat", "trailing fields"));
            }
            let (pln, pl) = next(&mut cursor, "pos")?;
            let pos_body = pl.strip_prefix("pos\t").ok_or_else(|| {
                ModelParseError::at(pln, "pos", format!("expected pos line, got {pl:?}"))
            })?;
            let pos = parse_hist_line(pos_body, pln, "pos")?;
            let (nln, nl) = next(&mut cursor, "neg")?;
            let neg_body = nl.strip_prefix("neg\t").ok_or_else(|| {
                ModelParseError::at(nln, "neg", format!("expected neg line, got {nl:?}"))
            })?;
            let neg = parse_hist_line(neg_body, nln, "neg")?;
            features.push(name.to_string());
            sketches.push(FeatureSketch {
                pos,
                neg,
                zeros,
                missing,
            });
        }
        Ok(DriftStamp {
            rows,
            features,
            sketches,
            label_counts,
        })
    }
}

/// A runtime accumulation window: the same per-feature sketches plus
/// predicted-label counts and confidence / coverage running sums.
/// Each serving shard keeps its own (no locks on the hot path); the
/// shared [`DriftMonitor`] absorbs them every `flush_batch` sessions.
#[derive(Debug, Clone)]
pub struct DriftWindow {
    /// One sketch per schema feature.
    pub sketches: Vec<FeatureSketch>,
    /// Predicted-label tallies.
    pub label_counts: Vec<u64>,
    /// Rows sketched.
    pub rows: u64,
    /// Sum of diagnosis confidences (for the trend gauge).
    pub confidence_sum: f64,
    /// Sum of feature coverages.
    pub coverage_sum: f64,
    /// Outcomes recorded (denominator for the trend gauges).
    pub outcomes: u64,
}

impl DriftWindow {
    /// An empty window over a schema of `n_features` / `n_classes`.
    pub fn new(n_features: usize, n_classes: usize) -> DriftWindow {
        DriftWindow {
            sketches: vec![FeatureSketch::default(); n_features],
            label_counts: vec![0; n_classes],
            rows: 0,
            confidence_sum: 0.0,
            coverage_sum: 0.0,
            outcomes: 0,
        }
    }

    /// Sketch one tree-space row.
    pub fn record_row(&mut self, row: &[f64]) {
        for (s, &v) in self.sketches.iter_mut().zip(row) {
            s.record(v);
        }
        self.rows += 1;
    }

    /// Record one diagnosis outcome.
    pub fn record_outcome(&mut self, class: usize, confidence: f64, coverage: f64) {
        if class < self.label_counts.len() {
            self.label_counts[class] += 1;
        }
        if confidence.is_finite() {
            self.confidence_sum += confidence;
        }
        if coverage.is_finite() {
            self.coverage_sum += coverage;
        }
        self.outcomes += 1;
    }

    /// Fold another window in (shard → monitor merge).
    pub fn absorb(&mut self, other: &DriftWindow) {
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.merge(b);
        }
        for (a, b) in self.label_counts.iter_mut().zip(&other.label_counts) {
            *a += b;
        }
        self.rows += other.rows;
        self.confidence_sum += other.confidence_sum;
        self.coverage_sum += other.coverage_sum;
        self.outcomes += other.outcomes;
    }

    /// Reset to empty, keeping the schema.
    pub fn clear(&mut self) {
        for s in &mut self.sketches {
            *s = FeatureSketch::default();
        }
        self.label_counts.iter_mut().for_each(|c| *c = 0);
        self.rows = 0;
        self.confidence_sum = 0.0;
        self.coverage_sum = 0.0;
        self.outcomes = 0;
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 && self.outcomes == 0
    }
}

/// One evaluation's worth of drift readings.
#[derive(Debug, Clone, Default)]
pub struct DriftReading {
    /// Per-feature PSI, aligned with the stamp's feature list.
    pub psi: Vec<(String, f64)>,
    /// Label-mix total-variation distance.
    pub label_mix: f64,
    /// Mean diagnosis confidence over the window.
    pub confidence_avg: f64,
    /// Mean feature coverage over the window.
    pub coverage_avg: f64,
    /// Window rows behind these numbers.
    pub rows: u64,
    /// Alerts newly raised by this evaluation (threshold crossings).
    pub alerts: Vec<String>,
}

/// The shared drift monitor: a training-time baseline, a cumulative
/// runtime window, and threshold-crossing alert state. Evaluation
/// publishes `serve.drift.*` gauges and counts crossings on
/// `serve.drift.alerts`.
#[derive(Debug)]
pub struct DriftMonitor {
    baseline: DriftStamp,
    window: DriftWindow,
    /// PSI / label-mix alert threshold.
    pub threshold: f64,
    /// Minimum window rows before evaluation produces readings.
    pub min_rows: u64,
    /// Keys (feature name or `"labels"`) currently above threshold —
    /// a key alerts once per excursion, re-arming when it drops back.
    alerting: BTreeSet<String>,
    alerts: Vec<String>,
}

impl DriftMonitor {
    /// Monitor against a training-time stamp, with the default
    /// threshold and minimum window.
    pub fn new(baseline: DriftStamp) -> DriftMonitor {
        let window = DriftWindow::new(baseline.features.len(), baseline.label_counts.len());
        DriftMonitor {
            baseline,
            window,
            threshold: DEFAULT_DRIFT_THRESHOLD,
            min_rows: DEFAULT_DRIFT_MIN_ROWS,
            alerting: BTreeSet::new(),
            alerts: Vec::new(),
        }
    }

    /// The training-time baseline.
    pub fn baseline(&self) -> &DriftStamp {
        &self.baseline
    }

    /// Rows accumulated so far.
    pub fn window_rows(&self) -> u64 {
        self.window.rows
    }

    /// Every alert raised over the monitor's lifetime, in order.
    pub fn alerts(&self) -> &[String] {
        &self.alerts
    }

    /// Fold a shard's window in (the shard clears its own copy).
    pub fn absorb(&mut self, w: &DriftWindow) {
        self.window.absorb(w);
    }

    /// Compare the window against the baseline: compute readings,
    /// publish gauges, and raise alerts for fresh threshold
    /// crossings. Below `min_rows` only the window-size gauge is
    /// published.
    pub fn evaluate(&mut self) -> DriftReading {
        let obs_on = vqd_obs::enabled();
        let r = vqd_obs::recorder();
        if obs_on {
            r.gauge_set("serve.drift.window.rows", self.window.rows as f64);
        }
        if self.window.rows < self.min_rows {
            return DriftReading {
                rows: self.window.rows,
                ..DriftReading::default()
            };
        }
        let mut reading = DriftReading {
            rows: self.window.rows,
            ..DriftReading::default()
        };
        let mut cross = |key: String,
                         value: f64,
                         alerting: &mut BTreeSet<String>,
                         alerts: &mut Vec<String>,
                         threshold: f64,
                         rows: u64| {
            if value > threshold {
                if alerting.insert(key.clone()) {
                    let msg = format!(
                        "drift alert: {key} divergence {value:.3} exceeds {threshold} over {rows} rows"
                    );
                    alerts.push(msg.clone());
                    reading.alerts.push(msg);
                }
            } else {
                alerting.remove(&key);
            }
        };
        for ((name, base), cur) in self
            .baseline
            .features
            .iter()
            .zip(&self.baseline.sketches)
            .zip(&self.window.sketches)
        {
            let v = psi(base, cur);
            if obs_on {
                r.gauge_set_dyn(&format!("serve.drift.psi.{name}"), v);
            }
            cross(
                name.clone(),
                v,
                &mut self.alerting,
                &mut self.alerts,
                self.threshold,
                self.window.rows,
            );
            reading.psi.push((name.clone(), v));
        }
        let mix = label_mix_distance(&self.baseline.label_counts, &self.window.label_counts);
        cross(
            "labels".to_string(),
            mix,
            &mut self.alerting,
            &mut self.alerts,
            self.threshold,
            self.window.rows,
        );
        reading.label_mix = mix;
        if self.window.outcomes > 0 {
            reading.confidence_avg = self.window.confidence_sum / self.window.outcomes as f64;
            reading.coverage_avg = self.window.coverage_sum / self.window.outcomes as f64;
        }
        if obs_on {
            r.gauge_set("serve.drift.label_mix", mix);
            r.gauge_set("serve.drift.confidence.avg", reading.confidence_avg);
            r.gauge_set("serve.drift.coverage.avg", reading.coverage_avg);
            if !reading.alerts.is_empty() {
                r.counter_add("serve.drift.alerts", reading.alerts.len() as u64);
            }
        }
        reading
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: &[f64]) -> FeatureSketch {
        let mut s = FeatureSketch::default();
        for &v in values {
            s.record(v);
        }
        s
    }

    #[test]
    fn sketch_partitions_by_sign() {
        let s = sketch_of(&[3.0, -85.0, 0.0, f64::NAN, 7.5, -60.0]);
        assert_eq!(s.pos.count(), 2);
        assert_eq!(s.neg.count(), 2);
        assert_eq!(s.zeros, 1);
        assert_eq!(s.missing, 1);
        assert_eq!(s.total(), 6);
        assert_eq!(s.neg.max(), 85.0);
    }

    #[test]
    fn stamp_round_trips_bitwise() {
        let mut data = Dataset::new(
            vec!["mobile.phy.rssi_avg".into(), "server.tput".into()],
            vec!["none".into(), "wifi".into()],
        );
        data.x = vec![
            vec![-85.0, 1200.0],
            vec![-60.0, 0.0],
            vec![f64::NAN, 950.5],
            vec![-71.25, 0.1 + 0.2], // non-representable sum exercises {:?}
        ];
        data.y = vec![0, 1, 1, 0];
        let stamp = DriftStamp::from_dataset(&data);
        let text = stamp.serialize();
        let back = DriftStamp::deserialize(&text).expect("round trip");
        assert_eq!(back, stamp);
        assert_eq!(back.serialize(), text);
        assert_eq!(back.rows, 4);
        assert_eq!(back.label_counts, vec![2, 2]);
    }

    #[test]
    fn column_fill_matches_from_dataset() {
        let mut data = Dataset::new(vec!["a".into(), "b".into()], vec!["x".into(), "y".into()]);
        data.x = vec![vec![1.0, -2.0], vec![0.0, f64::NAN], vec![5.5, 3.25]];
        data.y = vec![0, 1, 0];
        let whole = DriftStamp::from_dataset(&data);
        let mut bycol = DriftStamp::empty(data.features.clone(), data.classes.len());
        for j in 0..2 {
            let col: Vec<f64> = data.x.iter().map(|r| r[j]).collect();
            bycol.record_column(j, col.into_iter());
        }
        bycol.record_labels(data.y.iter().copied());
        assert_eq!(bycol.serialize(), whole.serialize());
    }

    #[test]
    fn deserialize_rejects_corruption() {
        let good = {
            let mut d = Dataset::new(vec!["a".into()], vec!["c".into()]);
            d.x = vec![vec![1.0]];
            d.y = vec![0];
            DriftStamp::from_dataset(&d).serialize()
        };
        assert!(DriftStamp::deserialize("nope").is_err());
        assert!(DriftStamp::deserialize(&good.replace("rows\t1", "rows\tx")).is_err());
        assert!(DriftStamp::deserialize(&good.replace("pos\t", "pox\t")).is_err());
        // Truncation mid-feature.
        let cut = good.lines().take(4).collect::<Vec<_>>().join("\n");
        assert!(DriftStamp::deserialize(&cut).is_err());
    }

    #[test]
    fn psi_zero_for_identical_large_for_shifted() {
        let base = sketch_of(&(0..500).map(|i| 10.0 + (i % 50) as f64).collect::<Vec<_>>());
        let same = base.clone();
        assert!(psi(&base, &same).abs() < 1e-9);
        // Shift the whole population two decades up.
        let shifted = sketch_of(
            &(0..500)
                .map(|i| 1000.0 + (i % 50) as f64)
                .collect::<Vec<_>>(),
        );
        assert!(psi(&base, &shifted) > 1.0);
        // Empty side compares as zero, not NaN.
        assert_eq!(psi(&base, &FeatureSketch::default()), 0.0);
    }

    #[test]
    fn label_mix_is_total_variation() {
        assert_eq!(label_mix_distance(&[50, 50], &[5, 5]), 0.0);
        assert!((label_mix_distance(&[100, 0], &[0, 100]) - 1.0).abs() < 1e-12);
        assert!((label_mix_distance(&[75, 25], &[25, 75]) - 0.5).abs() < 1e-12);
        assert_eq!(label_mix_distance(&[], &[1]), 0.0);
    }

    #[test]
    fn monitor_alerts_once_per_excursion() {
        let mut stamp = DriftStamp::empty(vec!["f".into()], 2);
        stamp.record_column(0, (0..200).map(|i| 10.0 + (i % 10) as f64));
        stamp.record_labels((0..200).map(|i| i % 2));
        let mut mon = DriftMonitor::new(stamp);
        mon.min_rows = 10;

        // Below min_rows: no readings.
        let mut w = DriftWindow::new(1, 2);
        for i in 0..5 {
            w.record_row(&[5000.0 + i as f64]);
            w.record_outcome(0, 0.9, 1.0);
        }
        mon.absorb(&w);
        let r = mon.evaluate();
        assert!(r.psi.is_empty() && r.alerts.is_empty());

        // Past min_rows with a shifted population: alert fires once.
        w.clear();
        for i in 0..100 {
            w.record_row(&[5000.0 + i as f64]);
            w.record_outcome(0, 0.9, 1.0);
        }
        mon.absorb(&w);
        let r = mon.evaluate();
        assert_eq!(r.psi.len(), 1);
        assert!(r.psi[0].1 > 0.25, "psi {} should cross", r.psi[0].1);
        assert!(r.alerts.iter().any(|a| a.contains("f divergence")));
        // Labels are all class 0 vs a 50/50 baseline: TV = 0.5 > 0.25.
        assert!(r.label_mix > 0.25);
        assert!(r.alerts.iter().any(|a| a.contains("labels")));
        assert!((r.confidence_avg - 0.9).abs() < 1e-12);
        assert!((r.coverage_avg - 1.0).abs() < 1e-12);

        // Second evaluation, still above threshold: no fresh alerts.
        let r2 = mon.evaluate();
        assert!(r2.alerts.is_empty(), "re-alerted: {:?}", r2.alerts);
        assert_eq!(mon.alerts().len(), 2);
    }

    #[test]
    fn window_absorb_equals_direct() {
        let rows = [[1.0, -3.0], [0.5, f64::NAN], [2.0, -1.0], [0.0, 8.0]];
        let mut direct = DriftWindow::new(2, 2);
        for r in &rows {
            direct.record_row(r);
        }
        direct.record_outcome(0, 0.8, 0.9);
        direct.record_outcome(1, 0.6, 0.7);

        let mut a = DriftWindow::new(2, 2);
        let mut b = DriftWindow::new(2, 2);
        a.record_row(&rows[0]);
        a.record_row(&rows[1]);
        a.record_outcome(0, 0.8, 0.9);
        b.record_row(&rows[2]);
        b.record_row(&rows[3]);
        b.record_outcome(1, 0.6, 0.7);
        let mut merged = DriftWindow::new(2, 2);
        merged.absorb(&a);
        merged.absorb(&b);
        assert_eq!(merged.rows, direct.rows);
        assert_eq!(merged.label_counts, direct.label_counts);
        assert_eq!(merged.sketches, direct.sketches);
        assert!(!merged.is_empty());
        merged.clear();
        assert!(merged.is_empty());
    }
}
