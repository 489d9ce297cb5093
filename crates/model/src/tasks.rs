//! Probe tasks: the accuracy metrics of the compression experiments.
//!
//! The paper scores compressed models on zero-shot multiple-choice suites
//! (PIQA, WinoGrande, …) and four non-LM tasks (Fig 7). We substitute:
//!
//! - [`probe_suite`] — eight multiple-choice task *families* over the
//!   synthetic language: each family conditions on a different slice of
//!   the grammar (token-class partitions plus a copy-recall family), so
//!   families differ in difficulty the way real task suites do.
//! - [`fig7_tasks`] — four synthetic feature-space tasks standing in for
//!   sentiment / retrieval / VQA / image classification, each scored on a
//!   trained [`MlpClassifier`].

use llm265_tensor::rng::Pcg32;
use llm265_tensor::Tensor;

use crate::data::{DataError, SyntheticLang};
use crate::error::ModelError;
use crate::mlp::MlpClassifier;
use crate::optimizer::Adam;
use crate::transformer::TransformerLm;

/// One multiple-choice item: context, candidates, index of the answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChoiceItem {
    /// Context tokens.
    pub context: Vec<u16>,
    /// Candidate continuations (single tokens here).
    pub candidates: Vec<u16>,
    /// Index of the correct candidate.
    pub answer: usize,
}

/// A named set of multiple-choice items.
#[derive(Debug, Clone)]
pub struct ProbeTask {
    /// Task-family name.
    pub name: String,
    /// The items.
    pub items: Vec<ChoiceItem>,
}

impl ProbeTask {
    /// Scores a model on this task: fraction of items where the correct
    /// candidate gets the highest continuation log-probability.
    pub fn accuracy(&self, model: &TransformerLm) -> f64 {
        if self.items.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for item in &self.items {
            let mut best = (f64::NEG_INFINITY, 0usize);
            for (i, &cand) in item.candidates.iter().enumerate() {
                let s = model.continuation_logprob(&item.context, &[cand]);
                if s > best.0 {
                    best = (s, i);
                }
            }
            if best.1 == item.answer {
                correct += 1;
            }
        }
        correct as f64 / self.items.len() as f64
    }
}

/// Builds the eight-family probe suite: seven grammar-slice families
/// (items whose context ends in token class `id % 7`) plus one copy-recall
/// family that tests the long-range pattern.
///
/// # Errors
///
/// [`DataError::SamplingStuck`] if rejection sampling cannot fill every
/// grammar family within its attempt budget, plus any [`DataError`] the
/// underlying samplers report for a malformed grammar.
pub fn probe_suite(
    lang: &SyntheticLang,
    items_per_task: usize,
    seed: u64,
) -> Result<Vec<ProbeTask>, DataError> {
    let mut rng = Pcg32::seed_from(seed);
    let mut tasks: Vec<ProbeTask> = (0..7)
        .map(|class| ProbeTask {
            name: format!("grammar-{class}"),
            items: Vec::with_capacity(items_per_task),
        })
        .collect();

    // Fill the grammar families by rejection on the context's last token.
    // Hard items (top vs. second legal successor) keep the suite sensitive
    // to weight distortion — the measurement the compression experiments
    // depend on.
    let mut guard = 0usize;
    while tasks.iter().any(|t| t.items.len() < items_per_task) {
        guard += 1;
        if guard >= items_per_task * 2000 {
            return Err(DataError::SamplingStuck {
                family: "grammar",
                attempts: guard,
            });
        }
        let (ctx, good, bad) = lang.choice_item_hard(20, &mut rng)?;
        let class = (*ctx.last().ok_or(DataError::EmptyContext)? as usize) % 7;
        let task = &mut tasks[class];
        if task.items.len() >= items_per_task {
            continue;
        }
        // Shuffle the answer position deterministically.
        let answer_first = rng.chance(0.5);
        let (candidates, answer) = if answer_first {
            (vec![good, bad], 0)
        } else {
            (vec![bad, good], 1)
        };
        task.items.push(ChoiceItem {
            context: ctx,
            candidates,
            answer,
        });
    }

    // Copy-recall family: context ends in the marker; the answer is the
    // token copy_distance back, the distractor a random other token.
    let d = lang.config().copy_distance;
    let mut copy_items = Vec::with_capacity(items_per_task);
    while copy_items.len() < items_per_task {
        let mut ctx = lang.sample_seq(19, &mut rng)?;
        ctx.push(lang.marker());
        let good = ctx[ctx.len() - d];
        let bad = loop {
            let cand = rng.below((lang.config().vocab - 1) as u32) as u16;
            if cand != good {
                break cand;
            }
        };
        let answer_first = rng.chance(0.5);
        let (candidates, answer) = if answer_first {
            (vec![good, bad], 0)
        } else {
            (vec![bad, good], 1)
        };
        copy_items.push(ChoiceItem {
            context: ctx,
            candidates,
            answer,
        });
    }
    tasks.push(ProbeTask {
        name: "copy-recall".to_string(),
        items: copy_items,
    });
    Ok(tasks)
}

/// Mean accuracy across a task suite.
pub fn suite_accuracy(model: &TransformerLm, tasks: &[ProbeTask]) -> f64 {
    if tasks.is_empty() {
        return 0.0;
    }
    tasks.iter().map(|t| t.accuracy(model)).sum::<f64>() / tasks.len() as f64
}

/// A synthetic non-LM task: train/test features + labels and a display
/// name, stood in for the paper's Fig 7 workloads.
#[derive(Debug, Clone)]
pub struct FeatureTask {
    /// Task name ("sentiment", "retrieval", "vqa", "image").
    pub name: String,
    /// Training features.
    pub train_x: Tensor,
    /// Training labels.
    pub train_y: Vec<usize>,
    /// Held-out features.
    pub test_x: Tensor,
    /// Held-out labels.
    pub test_y: Vec<usize>,
    /// Number of classes.
    pub classes: usize,
}

impl FeatureTask {
    /// Trains a fresh MLP on the task and returns it.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError`] from [`MlpClassifier::train_step`].
    pub fn train_model(
        &self,
        hidden: usize,
        steps: usize,
        seed: u64,
    ) -> Result<MlpClassifier, ModelError> {
        let mut rng = Pcg32::seed_from(seed);
        let mut model = MlpClassifier::new(self.train_x.cols(), hidden, self.classes, &mut rng);
        let mut opt = Adam::new(4e-3);
        for _ in 0..steps {
            model.train_step(&self.train_x, &self.train_y, &mut opt)?;
        }
        Ok(model)
    }

    /// Held-out accuracy of a model on this task.
    pub fn accuracy(&self, model: &MlpClassifier) -> f64 {
        model.accuracy(&self.test_x, &self.test_y)
    }
}

fn class_prototype(dim: usize, class: usize, classes: usize, rng: &mut Pcg32) -> Vec<f32> {
    let _ = (class, classes);
    (0..dim).map(|_| rng.normal() as f32).collect()
}

fn prototype_task(
    name: &str,
    dim: usize,
    classes: usize,
    n_train: usize,
    n_test: usize,
    noise: f64,
    seed: u64,
) -> FeatureTask {
    let mut rng = Pcg32::seed_from(seed);
    let protos: Vec<Vec<f32>> = (0..classes)
        .map(|c| class_prototype(dim, c, classes, &mut rng))
        .collect();
    let sample = |n: usize, rng: &mut Pcg32| {
        let mut x = Tensor::zeros(n, dim);
        let mut y = Vec::with_capacity(n);
        for r in 0..n {
            let class = rng.below(classes as u32) as usize;
            for c in 0..dim {
                x[(r, c)] = protos[class][c] + (noise * rng.normal()) as f32;
            }
            y.push(class);
        }
        (x, y)
    };
    let (train_x, train_y) = sample(n_train, &mut rng);
    let (test_x, test_y) = sample(n_test, &mut rng);
    FeatureTask {
        name: name.to_string(),
        train_x,
        train_y,
        test_x,
        test_y,
        classes,
    }
}

/// Builds the four Fig-7 stand-in tasks. Each mirrors the shape of its
/// original: sentiment = 2-class over text-like features; retrieval =
/// many-class (match-the-prototype); VQA = fused two-modality features;
/// image = high-dimensional patch features with more noise.
pub fn fig7_tasks(seed: u64) -> Vec<FeatureTask> {
    // Noise levels are set so a healthy model scores well but not
    // perfectly — compression damage must register as accuracy loss.
    let mut tasks = vec![
        prototype_task("sentiment", 24, 2, 256, 256, 3.2, seed ^ 0x1),
        prototype_task("retrieval", 32, 8, 384, 256, 2.4, seed ^ 0x2),
        // VQA: concatenation of two modality blocks with different noise.
        {
            let mut t = prototype_task("vqa", 40, 4, 320, 256, 2.6, seed ^ 0x3);
            // Second "modality" half is noisier, as images are for VQA.
            let mut rng = Pcg32::seed_from(seed ^ 0x33);
            for x in [&mut t.train_x, &mut t.test_x] {
                for r in 0..x.rows() {
                    for c in 20..40 {
                        x[(r, c)] += (1.2 * rng.normal()) as f32;
                    }
                }
            }
            t
        },
        prototype_task("image", 48, 6, 384, 256, 3.0, seed ^ 0x4),
    ];
    // Keep name order stable for tables.
    tasks.sort_by(|a, b| a.name.cmp(&b.name));
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LangConfig;
    use crate::transformer::TransformerConfig;

    #[test]
    fn probe_suite_has_eight_balanced_tasks() {
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let suite = probe_suite(&lang, 10, 42).expect("well-formed grammar");
        assert_eq!(suite.len(), 8);
        for t in &suite {
            assert_eq!(t.items.len(), 10, "{}", t.name);
            for item in &t.items {
                assert_eq!(item.candidates.len(), 2);
                assert!(item.answer < 2);
            }
        }
        assert!(suite.iter().any(|t| t.name == "copy-recall"));
    }

    #[test]
    fn probe_suite_is_deterministic() {
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let a = probe_suite(&lang, 5, 7).expect("well-formed grammar");
        let b = probe_suite(&lang, 5, 7).expect("well-formed grammar");
        for (ta, tb) in a.iter().zip(&b) {
            assert_eq!(ta.items, tb.items);
        }
    }

    #[test]
    fn untrained_model_scores_near_chance() {
        let lang = SyntheticLang::new(&LangConfig::tiny());
        let model = TransformerLm::new(&TransformerConfig::tiny(), &mut Pcg32::seed_from(1));
        let suite = probe_suite(&lang, 12, 9).expect("well-formed grammar");
        let acc = suite_accuracy(&model, &suite);
        assert!((0.2..=0.8).contains(&acc), "untrained accuracy {acc}");
    }

    #[test]
    fn fig7_tasks_are_learnable() {
        for task in fig7_tasks(11) {
            let model = task.train_model(24, 80, 3).expect("train step");
            let acc = task.accuracy(&model);
            let chance = 1.0 / task.classes as f64;
            assert!(
                acc > chance + 0.25,
                "{}: accuracy {acc} vs chance {chance}",
                task.name
            );
        }
    }

    #[test]
    fn fig7_has_expected_tasks() {
        let names: Vec<String> = fig7_tasks(1).into_iter().map(|t| t.name).collect();
        assert_eq!(names, vec!["image", "retrieval", "sentiment", "vqa"]);
    }
}
