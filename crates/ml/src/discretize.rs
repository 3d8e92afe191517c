//! Fayyad–Irani MDL discretisation of continuous features.
//!
//! FCBF operates on discrete variables, so continuous columns are cut
//! at class-boundary thresholds chosen by recursive entropy
//! minimisation with the MDLPC stopping criterion (Fayyad & Irani,
//! IJCAI 1993) — the same pre-processing Weka applies before its FCBF
//! implementation. Missing values are left out of cut selection and
//! map to a dedicated extra bin.

/// Cut points for one feature: values are assigned to bin `i` where
/// `cuts[i-1] <= v < cuts[i]`; missing maps to bin `cuts.len() + 1`.
#[derive(Debug, Clone, Default)]
pub struct FeatureCuts {
    /// Sorted thresholds.
    pub cuts: Vec<f64>,
}

impl FeatureCuts {
    /// Number of discrete bins (including the missing bin).
    pub fn n_bins(&self) -> usize {
        self.cuts.len() + 2
    }

    /// Bin index of a value.
    ///
    /// Binary search over the sorted cut vector: the bin is the number
    /// of cuts `<= v`, which for sorted cuts is exactly the index of
    /// the first cut `> v` that the old linear scan returned.
    pub fn bin(&self, v: f64) -> usize {
        if v.is_nan() {
            return self.cuts.len() + 1;
        }
        self.cuts.partition_point(|&c| c <= v)
    }
}

fn class_entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut h = 0.0;
    for &c in counts {
        if c > 0 {
            let p = c as f64 / total as f64;
            h -= p * p.log2();
        }
    }
    h
}

fn distinct_classes(counts: &[usize]) -> usize {
    counts.iter().filter(|&&c| c > 0).count()
}

/// Class-count buffers of one [`mdl_cuts`] call, reused by every
/// level of its recursion (each level is done with them before it
/// recurses).
struct SplitScratch {
    total: Vec<usize>,
    left: Vec<usize>,
    right: Vec<usize>,
    best_left: Vec<usize>,
}

/// Recursive MDL split of `pairs` (sorted by value) appending accepted
/// cut points to `out`.
fn split_recursive(pairs: &[(f64, usize)], s: &mut SplitScratch, out: &mut Vec<f64>, depth: usize) {
    let n = pairs.len();
    if n < 4 || depth > 16 {
        return;
    }
    s.total.fill(0);
    for &(_, c) in pairs {
        s.total[c] += 1;
    }
    let h_all = class_entropy(&s.total);
    if h_all == 0.0 {
        return;
    }

    // Sweep boundary candidates (value changes only). The left counts
    // of the best candidate so far are kept for the MDLPC test below.
    s.left.fill(0);
    let mut best: Option<(usize, f64, f64, f64)> = None; // (idx, cut, h_l, h_r)
    let mut best_weighted = f64::INFINITY;
    for i in 0..n - 1 {
        s.left[pairs[i].1] += 1;
        if pairs[i].0 == pairs[i + 1].0 {
            continue;
        }
        for ((r, &t), &l) in s.right.iter_mut().zip(&s.total).zip(&s.left) {
            *r = t - l;
        }
        let nl = (i + 1) as f64;
        let nr = (n - i - 1) as f64;
        let h_l = class_entropy(&s.left);
        let h_r = class_entropy(&s.right);
        let weighted = (nl * h_l + nr * h_r) / n as f64;
        if weighted < best_weighted {
            best_weighted = weighted;
            let cut = (pairs[i].0 + pairs[i + 1].0) / 2.0;
            best = Some((i, cut, h_l, h_r));
            s.best_left.copy_from_slice(&s.left);
        }
    }
    let Some((idx, cut, h_l, h_r)) = best else {
        return;
    };
    let nl = (idx + 1) as f64;
    let nr = (n - idx - 1) as f64;
    let gain = h_all - (nl * h_l + nr * h_r) / n as f64;

    // MDLPC criterion.
    let k = distinct_classes(&s.total) as f64;
    let k_l = distinct_classes(&s.best_left) as f64;
    let k_r = s
        .total
        .iter()
        .zip(&s.best_left)
        .filter(|(&t, &l)| t > l)
        .count() as f64;
    let delta = (3f64.powf(k) - 2.0).log2() - (k * h_all - k_l * h_l - k_r * h_r);
    let threshold = ((n as f64 - 1.0).log2() + delta) / n as f64;
    if gain <= threshold {
        return;
    }
    out.push(cut);
    split_recursive(&pairs[..=idx], s, out, depth + 1);
    split_recursive(&pairs[idx + 1..], s, out, depth + 1);
}

/// Compute MDL cut points for one feature column against the labels.
pub fn mdl_cuts(values: &[f64], labels: &[usize], n_classes: usize) -> FeatureCuts {
    let mut pairs: Vec<(f64, usize)> = values
        .iter()
        .zip(labels)
        .filter(|(v, _)| !v.is_nan())
        .map(|(&v, &c)| (v, c))
        .collect();
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut scratch = SplitScratch {
        total: vec![0; n_classes],
        left: vec![0; n_classes],
        right: vec![0; n_classes],
        best_left: vec![0; n_classes],
    };
    let mut cuts = Vec::new();
    split_recursive(&pairs, &mut scratch, &mut cuts, 0);
    cuts.sort_by(|a, b| a.total_cmp(b));
    FeatureCuts { cuts }
}

/// Discretise a whole column.
pub fn apply(cuts: &FeatureCuts, values: &[f64]) -> Vec<usize> {
    values.iter().map(|&v| cuts.bin(v)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_boundary_found() {
        // Values < 5 are class 0, >= 5 class 1.
        let values: Vec<f64> = (0..40).map(|i| i as f64 / 4.0).collect();
        let labels: Vec<usize> = values.iter().map(|&v| usize::from(v >= 5.0)).collect();
        let cuts = mdl_cuts(&values, &labels, 2);
        assert_eq!(cuts.cuts.len(), 1, "{:?}", cuts.cuts);
        assert!((cuts.cuts[0] - 4.875).abs() < 0.2, "{:?}", cuts.cuts);
        assert_eq!(cuts.bin(1.0), 0);
        assert_eq!(cuts.bin(9.0), 1);
        assert_eq!(cuts.bin(f64::NAN), 2);
    }

    #[test]
    fn no_cut_for_random_labels() {
        // Labels independent of the value: MDL must refuse to cut.
        let values: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let labels: Vec<usize> = (0..100).map(|i| (i * 7 + 3) % 2).collect();
        let cuts = mdl_cuts(&values, &labels, 2);
        assert!(cuts.cuts.len() <= 1, "spurious cuts {:?}", cuts.cuts);
    }

    #[test]
    fn multiple_boundaries() {
        // Three bands: class 0 | class 1 | class 0.
        let values: Vec<f64> = (0..90).map(|i| i as f64).collect();
        let labels: Vec<usize> = values
            .iter()
            .map(|&v| usize::from((30.0..60.0).contains(&v)))
            .collect();
        let cuts = mdl_cuts(&values, &labels, 2);
        assert_eq!(cuts.cuts.len(), 2, "{:?}", cuts.cuts);
    }

    #[test]
    fn constant_feature_no_cut() {
        let values = vec![3.0; 50];
        let labels: Vec<usize> = (0..50).map(|i| i % 2).collect();
        let cuts = mdl_cuts(&values, &labels, 2);
        assert!(cuts.cuts.is_empty());
        // Everything in one bin.
        let bins = apply(&cuts, &values);
        assert!(bins.iter().all(|&b| b == 0));
    }

    #[test]
    fn missing_values_ignored_and_binned() {
        let mut values: Vec<f64> = (0..40).map(|i| i as f64).collect();
        values[5] = f64::NAN;
        let labels: Vec<usize> = (0..40).map(|i| usize::from(i >= 20)).collect();
        let cuts = mdl_cuts(&values, &labels, 2);
        assert_eq!(cuts.cuts.len(), 1);
        let bins = apply(&cuts, &values);
        assert_eq!(bins[5], cuts.cuts.len() + 1);
    }
}
