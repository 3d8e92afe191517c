//! Stratified k-fold cross-validation.
//!
//! The paper evaluates every model with 10-fold cross-validation; this
//! module provides that loop for any classifier via the
//! [`Learner`] abstraction, producing a pooled
//! [`ConfusionMatrix`](crate::metrics::ConfusionMatrix).

use vqd_simnet::rng::SimRng;

use crate::dataset::Dataset;
use crate::dtree::{C45Config, C45Trainer, DecisionTree};
use crate::metrics::ConfusionMatrix;
use crate::nb::NaiveBayes;
use crate::svm::{LinearSvm, SvmConfig};

/// Anything that can be fit on dataset rows and predict instances.
pub trait Learner {
    /// The trained model type.
    type Model;
    /// Train on the given rows.
    fn fit(&self, data: &Dataset, rows: &[usize]) -> Self::Model;
    /// Train on the given rows without starting threads of its own:
    /// what each fold of a parallel [`cross_validate_threads`] runs,
    /// so the folds are the only level of parallelism. Must return
    /// the model [`Learner::fit`] returns; defaults to it.
    fn fit_serial(&self, data: &Dataset, rows: &[usize]) -> Self::Model {
        self.fit(data, rows)
    }
    /// Predict one instance with a trained model.
    fn predict(model: &Self::Model, x: &[f64]) -> usize;
}

/// C4.5 learner adapter.
impl Learner for C45Trainer {
    type Model = DecisionTree;
    fn fit(&self, data: &Dataset, rows: &[usize]) -> DecisionTree {
        C45Trainer::fit(self, data, rows)
    }
    fn fit_serial(&self, data: &Dataset, rows: &[usize]) -> DecisionTree {
        let cfg = C45Config {
            threads: 1,
            ..self.cfg
        };
        C45Trainer { cfg }.fit(data, rows)
    }
    fn predict(model: &DecisionTree, x: &[f64]) -> usize {
        model.predict(x)
    }
}

/// Gaussian NB learner adapter.
#[derive(Debug, Clone, Copy, Default)]
pub struct NbLearner;
impl Learner for NbLearner {
    type Model = NaiveBayes;
    fn fit(&self, data: &Dataset, rows: &[usize]) -> NaiveBayes {
        NaiveBayes::fit(data, rows)
    }
    fn predict(model: &NaiveBayes, x: &[f64]) -> usize {
        model.predict(x)
    }
}

/// Linear SVM learner adapter.
#[derive(Debug, Clone, Copy, Default)]
pub struct SvmLearner {
    /// SVM configuration.
    pub cfg: SvmConfig,
}

impl Learner for SvmLearner {
    type Model = LinearSvm;
    fn fit(&self, data: &Dataset, rows: &[usize]) -> LinearSvm {
        LinearSvm::fit(data, rows, self.cfg)
    }
    fn predict(model: &LinearSvm, x: &[f64]) -> usize {
        model.predict(x)
    }
}

/// Run stratified k-fold cross-validation; returns the pooled
/// confusion matrix over all held-out folds.
///
/// Folds are evaluated across all available worker threads; see
/// [`cross_validate_threads`] for an explicit thread count. The result
/// is identical for every thread count.
pub fn cross_validate<L: Learner + Sync>(
    learner: &L,
    data: &Dataset,
    k: usize,
    seed: u64,
) -> ConfusionMatrix {
    cross_validate_threads(learner, data, k, seed, 0)
}

/// [`cross_validate`] with an explicit worker-thread count
/// (0 = available parallelism, 1 = serial).
///
/// The fold assignment is drawn serially from `seed` before any worker
/// starts, each fold's held-out predictions are collected
/// independently, and the pooled confusion matrix is merged in fold
/// order — so the result is byte-identical for every `threads` value.
///
/// When the folds run on more than one thread, each fold's fit runs
/// serially ([`Learner::fit_serial`]): a C4.5 fit would otherwise
/// start its own presort and split-search threads inside every fold
/// ([`C45Config::threads`]), oversubscribing the cores the folds
/// already occupy.
pub fn cross_validate_threads<L: Learner + Sync>(
    learner: &L,
    data: &Dataset,
    k: usize,
    seed: u64,
    threads: usize,
) -> ConfusionMatrix {
    let mut rng = SimRng::seed_from_u64(seed);
    let folds = data.stratified_folds(k, &mut rng);
    let threads = crate::dtree::resolve_threads(threads).min(k.max(1));
    let parallel = threads > 1 && k >= 2;
    let eval_fold = |held: usize| -> Vec<(usize, usize)> {
        let train: Vec<usize> = folds
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != held)
            .flat_map(|(_, f)| f.iter().copied())
            .collect();
        if train.is_empty() || folds[held].is_empty() {
            return Vec::new();
        }
        let model = if parallel {
            learner.fit_serial(data, &train)
        } else {
            learner.fit(data, &train)
        };
        folds[held]
            .iter()
            .map(|&r| (data.y[r], L::predict(&model, &data.x[r])))
            .collect()
    };
    let per_fold: Vec<Vec<(usize, usize)>> = if !parallel {
        (0..k).map(eval_fold).collect()
    } else {
        let next = std::sync::atomic::AtomicUsize::new(0);
        let slots: Vec<std::sync::Mutex<Vec<(usize, usize)>>> =
            (0..k).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| loop {
                    let held = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if held >= k {
                        break;
                    }
                    *slots[held]
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = eval_fold(held);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
            })
            .collect()
    };
    let mut cm = ConfusionMatrix::new(data.classes.clone());
    for fold in per_fold {
        for (truth, pred) in fold {
            cm.add(truth, pred);
        }
    }
    cm
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable(n: usize) -> Dataset {
        let mut rng = SimRng::seed_from_u64(9);
        let mut d = Dataset::new(vec!["a".into(), "b".into()], vec!["x".into(), "y".into()]);
        for _ in 0..n {
            let c = rng.index(2);
            d.push(
                vec![rng.normal(c as f64 * 6.0, 1.0), rng.normal(0.0, 1.0)],
                c,
            );
        }
        d
    }

    #[test]
    fn cv_c45_high_accuracy() {
        let d = separable(400);
        let cm = cross_validate(&C45Trainer::default(), &d, 10, 1);
        assert_eq!(cm.total(), 400);
        assert!(cm.accuracy() > 0.95, "acc {}", cm.accuracy());
    }

    #[test]
    fn cv_nb_and_svm_work() {
        let d = separable(300);
        let nb = cross_validate(&NbLearner, &d, 5, 2);
        assert!(nb.accuracy() > 0.95, "nb {}", nb.accuracy());
        let svm = cross_validate(&SvmLearner::default(), &d, 5, 2);
        assert!(svm.accuracy() > 0.95, "svm {}", svm.accuracy());
    }

    #[test]
    fn every_instance_tested_once() {
        let d = separable(103); // not divisible by k
        let cm = cross_validate(&C45Trainer::default(), &d, 10, 3);
        assert_eq!(cm.total(), 103);
    }
}
