//! Feature Selection: Fast Correlation-Based Filter (FCBF).
//!
//! The paper reduces 354 raw features to 22 with FCBF (Yu & Liu, ICML
//! 2003): rank features by symmetrical uncertainty (SU) with the class,
//! then walk the ranking removing every feature that is more correlated
//! with an already-selected feature than with the class (a *redundant
//! peer*). Continuous features are first discretised with
//! Fayyad–Irani MDL cuts, as Weka does.

use vqd_ml::dataset::Dataset;
use vqd_ml::discretize::{apply, mdl_cuts};
use vqd_ml::info::{entropy_of_counts, symmetrical_uncertainty};

/// Outcome of feature selection.
#[derive(Debug, Clone)]
pub struct Selection {
    /// Selected feature names, strongest first.
    pub names: Vec<String>,
    /// SU with the class for each selected feature.
    pub su: Vec<f64>,
}

/// Run FCBF. `delta` is the minimum SU with the class for a feature to
/// be considered relevant at all (the paper/Weka default is ≈0).
pub fn fcbf(data: &Dataset, delta: f64) -> Selection {
    let n = data.len();
    if n == 0 {
        return Selection {
            names: Vec::new(),
            su: Vec::new(),
        };
    }
    let ny = data.n_classes();

    // Discretise every column once.
    let mut cols: Vec<(usize, Vec<usize>, usize, f64)> = Vec::new(); // (feat, bins, n_bins, su_class)
    for j in 0..data.n_features() {
        let values: Vec<f64> = data.x.iter().map(|r| r[j]).collect();
        let cuts = mdl_cuts(&values, &data.y, ny);
        if cuts.cuts.is_empty() {
            // No class-relevant structure in this feature.
            continue;
        }
        let bins = apply(&cuts, &values);
        let nb = cuts.n_bins();
        let su = symmetrical_uncertainty(&bins, &data.y, nb, ny);
        if su > delta {
            cols.push((j, bins, nb, su));
        }
    }
    // Descending by SU with the class.
    cols.sort_by(|a, b| b.3.total_cmp(&a.3));

    // Redundancy elimination.
    let mut selected: Vec<usize> = Vec::new(); // indices into cols
    let mut removed = vec![false; cols.len()];
    for i in 0..cols.len() {
        if removed[i] {
            continue;
        }
        selected.push(i);
        for k in (i + 1)..cols.len() {
            if removed[k] {
                continue;
            }
            let su_pq = symmetrical_uncertainty(&cols[i].1, &cols[k].1, cols[i].2, cols[k].2);
            if su_pq >= cols[k].3 {
                removed[k] = true;
            }
        }
    }

    // Per-run selection-funnel counters (write-only; no-ops unless
    // observability is enabled).
    let r = vqd_obs::recorder();
    r.counter_add("features.fcbf.runs", 1);
    r.counter_add("features.fcbf.candidates", data.n_features() as u64);
    r.counter_add("features.fcbf.relevant", cols.len() as u64);
    r.counter_add("features.fcbf.selected", selected.len() as u64);

    Selection {
        names: selected
            .iter()
            .map(|&i| data.features[cols[i].0].clone())
            .collect(),
        su: selected.iter().map(|&i| cols[i].3).collect(),
    }
}

/// A discretised column: its bins, bin count and bin entropy.
struct Binned {
    bins: Vec<u32>,
    n_bins: usize,
    h: f64,
}

impl Binned {
    fn new(bins: Vec<u32>, n_bins: usize) -> Binned {
        let mut counts = vec![0.0f64; n_bins];
        for &b in &bins {
            counts[b as usize] += 1.0;
        }
        let h = entropy_of_counts(&counts);
        Binned { bins, n_bins, h }
    }

    /// Symmetrical uncertainty with another column of the same rows:
    /// the arithmetic of [`symmetrical_uncertainty`] (whose marginal
    /// entropies come from the same integer counts), without
    /// recounting the marginals per pair.
    fn su(&self, other: &Binned, joint: &mut Vec<f64>) -> f64 {
        let (hx, hy) = (self.h, other.h);
        if hx + hy <= 0.0 {
            return 0.0;
        }
        let ny = other.n_bins;
        joint.clear();
        joint.resize(self.n_bins * ny, 0.0);
        for (&x, &y) in self.bins.iter().zip(&other.bins) {
            joint[x as usize * ny + y as usize] += 1.0;
        }
        let mi = (hx + hy - entropy_of_counts(joint)).max(0.0);
        (2.0 * mi / (hx + hy)).clamp(0.0, 1.0)
    }
}

/// One relevant column of a [`CandidateTable`]: its bins
/// (`4·n_rows` bytes) and SU with the class.
struct Cand {
    col: usize,
    binned: Binned,
    su: f64,
}

/// Every column of one dataset discretised once against one label
/// vector: each column's Fayyad–Irani cuts, bins and SU with the
/// class, computed once. FCBF over any column subset is then an
/// elimination walk over the table ([`CandidateTable::fcbf`]), so the
/// global and per-vantage-point selections of one corpus — and the
/// selections of several vantage-point subsets of it — share one
/// discretisation pass.
///
/// A walk over a column-name filter selects exactly what [`fcbf`]
/// selects on the dataset restricted to those columns: a column's
/// cuts and SU depend on that column and the labels only, and the walk
/// replays [`fcbf`]'s stable ranking over the filtered columns in
/// column order. Resident state is `4·n_rows` bytes per relevant
/// column; columns without class-relevant structure are dropped at
/// build time.
pub struct CandidateTable {
    names: Vec<String>,
    n_rows: usize,
    cands: Vec<Cand>,
}

impl CandidateTable {
    /// Discretise every column of a resident dataset. `delta` is the
    /// relevance floor of [`fcbf`].
    pub fn build(data: &Dataset, delta: f64) -> CandidateTable {
        Self::build_streaming(
            &data.features,
            &data.y,
            data.n_classes(),
            delta,
            |j| -> Result<Vec<f64>, std::convert::Infallible> {
                Ok(data.x.iter().map(|r| r[j]).collect())
            },
        )
        .unwrap_or_else(|e| match e {})
    }

    /// Discretise columns fetched one at a time (from a `.vqdc`
    /// reader, a constructed-column view, …) instead of from a
    /// resident [`Dataset`]. Resident state is one column during
    /// `fetch` plus the table itself.
    pub fn build_streaming<E>(
        features: &[String],
        y: &[usize],
        n_classes: usize,
        delta: f64,
        mut fetch: impl FnMut(usize) -> Result<Vec<f64>, E>,
    ) -> Result<CandidateTable, E> {
        let mut cands = Vec::new();
        if !y.is_empty() {
            let class = Binned::new(y.iter().map(|&c| c as u32).collect(), n_classes);
            let mut joint = Vec::new();
            for j in 0..features.len() {
                let values = fetch(j)?;
                let cuts = mdl_cuts(&values, y, n_classes);
                if cuts.cuts.is_empty() {
                    // No class-relevant structure in this column.
                    continue;
                }
                let bins = values.iter().map(|&v| cuts.bin(v) as u32).collect();
                let binned = Binned::new(bins, cuts.n_bins());
                let su = binned.su(&class, &mut joint);
                if su > delta {
                    cands.push(Cand { col: j, binned, su });
                }
            }
        }
        Ok(CandidateTable {
            names: features.to_vec(),
            n_rows: y.len(),
            cands,
        })
    }

    /// FCBF over the columns whose name passes `keep`: exactly
    /// `fcbf(&data.select_features_by(keep), delta)`.
    pub fn fcbf(&self, keep: impl Fn(&str) -> bool) -> Selection {
        if self.n_rows == 0 {
            return Selection {
                names: Vec::new(),
                su: Vec::new(),
            };
        }
        // Column order, then a stable sort by SU descending: the
        // ranking `fcbf` builds over the same columns.
        let mut order: Vec<&Cand> = self
            .cands
            .iter()
            .filter(|c| keep(&self.names[c.col]))
            .collect();
        order.sort_by(|a, b| b.su.total_cmp(&a.su));
        let mut selected: Vec<&Cand> = Vec::new();
        let mut removed = vec![false; order.len()];
        let mut joint = Vec::new();
        for i in 0..order.len() {
            if removed[i] {
                continue;
            }
            let ci = order[i];
            selected.push(ci);
            for k in (i + 1)..order.len() {
                if removed[k] {
                    continue;
                }
                if ci.binned.su(&order[k].binned, &mut joint) >= order[k].su {
                    removed[k] = true;
                }
            }
        }

        let r = vqd_obs::recorder();
        r.counter_add("features.fcbf.runs", 1);
        r.counter_add(
            "features.fcbf.candidates",
            self.names.iter().filter(|n| keep(n)).count() as u64,
        );
        r.counter_add("features.fcbf.relevant", order.len() as u64);
        r.counter_add("features.fcbf.selected", selected.len() as u64);

        Selection {
            names: selected.iter().map(|c| self.names[c.col].clone()).collect(),
            su: selected.iter().map(|c| c.su).collect(),
        }
    }

    /// The diagnoser's global + per-vantage-point FCBF union over the
    /// columns whose name passes `keep`: the global selection, then
    /// each VP's (a VP is a name's first dot-separated segment; its
    /// pass keeps the columns starting with it), appending names not
    /// yet selected. The global pass alone tends to keep one VP's copy
    /// of a correlated metric and discard the others', which would
    /// leave the remaining entities unable to diagnose alone.
    pub fn fcbf_union(&self, keep: impl Fn(&str) -> bool) -> Vec<String> {
        let mut names = self.fcbf(&keep).names;
        let vps: std::collections::BTreeSet<&str> = self
            .names
            .iter()
            .filter(|n| keep(n))
            .filter_map(|n| n.split('.').next())
            .collect();
        for vp in vps {
            for n in self.fcbf(|n| keep(n) && n.starts_with(vp)).names {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        names
    }
}

/// Streaming form of the diagnoser's global + per-vantage-point FCBF
/// union: columns are fetched one at a time (from a `.vqdc` reader, a
/// constructed-column view, …) into a [`CandidateTable`], the same
/// table `Diagnoser::prepare` selects from, so the two select
/// **exactly** the same feature names in the same order.
pub fn fcbf_union_streaming<E>(
    features: &[String],
    y: &[usize],
    n_classes: usize,
    delta: f64,
    fetch: impl FnMut(usize) -> Result<Vec<f64>, E>,
) -> Result<Vec<String>, E> {
    Ok(CandidateTable::build_streaming(features, y, n_classes, delta, fetch)?.fcbf_union(|_| true))
}

/// Rank all features by SU with the class (no redundancy elimination) —
/// used for the paper's Table 4 per-fault feature rankings.
pub fn rank_by_su(data: &Dataset) -> Vec<(String, f64)> {
    let ny = data.n_classes();
    let mut out: Vec<(String, f64)> = Vec::new();
    for j in 0..data.n_features() {
        let values: Vec<f64> = data.x.iter().map(|r| r[j]).collect();
        let cuts = mdl_cuts(&values, &data.y, ny);
        if cuts.cuts.is_empty() {
            continue;
        }
        let bins = apply(&cuts, &values);
        let su = symmetrical_uncertainty(&bins, &data.y, cuts.n_bins(), ny);
        out.push((data.features[j].clone(), su));
    }
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqd_simnet::rng::SimRng;

    /// signal: fully predictive; echo: copy of signal (redundant);
    /// weak: noisy version; junk: random.
    fn toy(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut d = Dataset::new(
            vec!["signal".into(), "echo".into(), "weak".into(), "junk".into()],
            vec!["a".into(), "b".into()],
        );
        for _ in 0..n {
            let c = rng.index(2);
            let s = c as f64 * 10.0 + rng.normal(0.0, 0.5);
            let weak = c as f64 * 2.0 + rng.normal(0.0, 2.0);
            d.push(vec![s, s + 0.1, weak, rng.normal(0.0, 3.0)], c);
        }
        d
    }

    #[test]
    fn fcbf_keeps_signal_drops_echo_and_junk() {
        let d = toy(500, 1);
        let sel = fcbf(&d, 0.01);
        assert!(
            sel.names.contains(&"signal".to_string()) || sel.names.contains(&"echo".to_string())
        );
        // The redundant twin must not survive alongside the original.
        assert!(
            !(sel.names.contains(&"signal".to_string()) && sel.names.contains(&"echo".to_string())),
            "{:?}",
            sel.names
        );
        assert!(!sel.names.contains(&"junk".to_string()), "{:?}", sel.names);
    }

    #[test]
    fn weak_but_nonredundant_survives() {
        let d = toy(800, 2);
        let sel = fcbf(&d, 0.01);
        // `weak` carries class information not fully captured once
        // redundancy with signal is accounted — FCBF usually keeps it.
        assert!(
            !sel.names.is_empty() && sel.names.len() <= 3,
            "{:?}",
            sel.names
        );
        // Ordering is by SU descending.
        for w in sel.su.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn rank_by_su_ordering() {
        let d = toy(500, 3);
        let ranks = rank_by_su(&d);
        assert!(!ranks.is_empty());
        assert_eq!(ranks[0].0, "signal");
        for w in ranks.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn empty_dataset_is_safe() {
        let d = Dataset::new(vec!["a".into()], vec!["x".into(), "y".into()]);
        let sel = fcbf(&d, 0.0);
        assert!(sel.names.is_empty());
    }

    /// Multi-VP toy data with correlated cross-VP copies, so the
    /// per-VP union actually adds names beyond the global pass.
    fn multi_vp(n: usize, seed: u64) -> Dataset {
        let mut rng = SimRng::seed_from_u64(seed);
        let names: Vec<String> = vec![
            "mobile.tcp.rtt".into(),
            "mobile.phy.rssi".into(),
            "router.tcp.rtt".into(),
            "router.tcp.retx".into(),
            "server.tcp.rtt".into(),
            "server.junk".into(),
        ];
        let mut d = Dataset::new(names, vec!["a".into(), "b".into(), "c".into()]);
        for _ in 0..n {
            let c = rng.index(3);
            let rtt = c as f64 * 4.0 + rng.normal(0.0, 0.6);
            d.push(
                vec![
                    rtt + rng.normal(0.0, 0.2),
                    c as f64 * -6.0 + rng.normal(0.0, 1.0),
                    rtt + rng.normal(0.0, 0.3),
                    (c == 2) as usize as f64 * 3.0 + rng.normal(0.0, 1.5),
                    rtt + rng.normal(0.0, 0.4),
                    rng.normal(0.0, 2.0),
                ],
                c,
            );
        }
        d
    }

    /// In-memory reference of the diagnoser's global + per-VP union.
    fn union_reference(data: &Dataset, delta: f64) -> Vec<String> {
        let mut names = fcbf(data, delta).names;
        let vps: std::collections::BTreeSet<String> = data
            .features
            .iter()
            .filter_map(|n| n.split('.').next().map(str::to_string))
            .collect();
        for vp in vps {
            let sub = data.select_features_by(|n| n.starts_with(&vp));
            for n in fcbf(&sub, delta).names {
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        names
    }

    #[test]
    fn streaming_union_matches_in_memory_reference() {
        for seed in [7u64, 11, 23] {
            let d = multi_vp(400, seed);
            let want = union_reference(&d, 0.01);
            let got: Vec<String> = fcbf_union_streaming(
                &d.features,
                &d.y,
                d.n_classes(),
                0.01,
                |j| -> Result<Vec<f64>, std::convert::Infallible> {
                    Ok(d.x.iter().map(|r| r[j]).collect())
                },
            )
            .unwrap_or_else(|e| match e {});
            assert_eq!(got, want, "seed {seed}");
            assert!(!got.is_empty());
            // The resident table path selects the same union, and its
            // global walk is `fcbf` itself, SU bits included.
            let table = CandidateTable::build(&d, 0.01);
            assert_eq!(table.fcbf_union(|_| true), want, "seed {seed}");
            let (got, want) = (table.fcbf(|_| true), fcbf(&d, 0.01));
            assert_eq!(got.names, want.names, "seed {seed}");
            let bits = |s: &Selection| s.su.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "seed {seed}");
        }
    }

    #[test]
    fn massive_reduction_on_noise() {
        // 50 junk features + 2 informative → FCBF returns a handful.
        let mut rng = SimRng::seed_from_u64(5);
        let names: Vec<String> = (0..52).map(|i| format!("f{i}")).collect();
        let mut d = Dataset::new(names, vec!["a".into(), "b".into()]);
        for _ in 0..400 {
            let c = rng.index(2);
            let mut row: Vec<f64> = (0..50).map(|_| rng.normal(0.0, 1.0)).collect();
            row.push(c as f64 * 5.0 + rng.normal(0.0, 0.5));
            row.push(c as f64 * -3.0 + rng.normal(0.0, 0.8));
            d.push(row, c);
        }
        let sel = fcbf(&d, 0.01);
        assert!(sel.names.len() <= 6, "kept {:?}", sel.names);
        assert!(sel.names.contains(&"f50".to_string()));
    }
}
