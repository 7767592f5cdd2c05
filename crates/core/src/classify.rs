//! Benchmark classification by scaling behaviour (Figure 6).
//!
//! The paper classifies benchmarks three ways, each a bifurcation in a
//! tree: scaling class (good / moderate / poor, by achieved speedup), then
//! the first, second and third largest stack components (omitting
//! negligible ones).

use crate::components::Component;
use crate::stack::SpeedupStack;
use std::fmt::Write as _;

/// Scaling class of a benchmark at a given thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScalingClass {
    /// Speedup of at least the "good" threshold (10× for 16 threads).
    Good,
    /// Between the poor and good thresholds.
    Moderate,
    /// Below the "poor" threshold (5× for 16 threads).
    Poor,
}

impl std::fmt::Display for ScalingClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ScalingClass::Good => "good",
            ScalingClass::Moderate => "moderate",
            ScalingClass::Poor => "poor",
        })
    }
}

/// Thresholds and cutoffs for classification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationConfig {
    /// Speedup at or above which scaling is "good" (paper: 10× at 16
    /// threads).
    pub good_threshold: f64,
    /// Speedup below which scaling is "poor" (paper: 5× at 16 threads).
    pub poor_threshold: f64,
    /// Components below this fraction of `N` are considered negligible and
    /// do not appear among the top components.
    pub negligible_fraction: f64,
    /// How many top components to report (paper: 3).
    pub top_k: usize,
}

impl Default for ClassificationConfig {
    fn default() -> Self {
        ClassificationConfig {
            good_threshold: 10.0,
            poor_threshold: 5.0,
            negligible_fraction: 0.03,
            top_k: 3,
        }
    }
}

impl ClassificationConfig {
    /// Classifies a speedup value.
    #[must_use]
    pub fn class_of(&self, speedup: f64) -> ScalingClass {
        if speedup >= self.good_threshold {
            ScalingClass::Good
        } else if speedup < self.poor_threshold {
            ScalingClass::Poor
        } else {
            ScalingClass::Moderate
        }
    }
}

/// One benchmark's classification entry (a leaf row of Figure 6).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifiedBenchmark {
    /// Benchmark name (with input size suffix where applicable).
    pub name: String,
    /// Suite the benchmark belongs to (e.g. "splash2", "parsec_small").
    pub suite: String,
    /// Achieved speedup used for classification.
    pub speedup: f64,
    /// Scaling class.
    pub class: ScalingClass,
    /// Largest → smaller non-negligible components, at most `top_k`.
    pub top_components: Vec<Component>,
}

impl ClassifiedBenchmark {
    /// Classifies one benchmark from its speedup stack, using the actual
    /// speedup when attached and the estimated speedup otherwise.
    #[must_use]
    pub fn from_stack(
        name: impl Into<String>,
        suite: impl Into<String>,
        stack: &SpeedupStack,
        cfg: &ClassificationConfig,
    ) -> Self {
        let speedup = stack
            .actual_speedup()
            .unwrap_or_else(|| stack.estimated_speedup());
        let cutoff = cfg.negligible_fraction * stack.num_threads() as f64;
        let top_components = stack
            .overheads()
            .ranked()
            .into_iter()
            .filter(|&(_, v)| v >= cutoff)
            .take(cfg.top_k)
            .map(|(c, _)| c)
            .collect();
        ClassifiedBenchmark {
            name: name.into(),
            suite: suite.into(),
            speedup,
            class: cfg.class_of(speedup),
            top_components,
        }
    }

    /// The `i`-th largest component label, or `""` when negligible.
    #[must_use]
    pub fn component_label(&self, i: usize) -> &'static str {
        self.top_components.get(i).map_or("", |c| c.label())
    }
}

/// The full classification tree (Figure 6): benchmarks grouped by scaling
/// class and ordered by their top components.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationTree {
    entries: Vec<ClassifiedBenchmark>,
}

impl ClassificationTree {
    /// Builds the tree. Entries are sorted by class (good → moderate →
    /// poor), then by component path, then by descending speedup, which
    /// reproduces the figure's right-to-left readability.
    #[must_use]
    pub fn build(mut entries: Vec<ClassifiedBenchmark>) -> Self {
        entries.sort_by(|a, b| {
            a.class
                .cmp(&b.class)
                .then_with(|| {
                    let pa: Vec<&str> = (0..3).map(|i| a.component_label(i)).collect();
                    let pb: Vec<&str> = (0..3).map(|i| b.component_label(i)).collect();
                    pa.cmp(&pb)
                })
                .then_with(|| {
                    b.speedup
                        .partial_cmp(&a.speedup)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
        });
        ClassificationTree { entries }
    }

    /// All entries in tree order.
    #[must_use]
    pub fn entries(&self) -> &[ClassifiedBenchmark] {
        &self.entries
    }

    /// Benchmarks in a given class, in tree order.
    pub fn in_class(&self, class: ScalingClass) -> impl Iterator<Item = &ClassifiedBenchmark> {
        self.entries.iter().filter(move |e| e.class == class)
    }

    /// Count of benchmarks whose *largest* component is `c`.
    #[must_use]
    pub fn count_largest(&self, c: Component) -> usize {
        self.entries
            .iter()
            .filter(|e| e.top_components.first() == Some(&c))
            .count()
    }

    /// Count of benchmarks with no non-negligible component at all.
    #[must_use]
    pub fn count_unlimited(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.top_components.is_empty())
            .count()
    }

    /// Renders the tree as a Figure 6-style table: scaling class, top-3
    /// components, benchmark, suite, speedup. Repeated values in the left
    /// columns are blanked like in the figure.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<9} {:<10} {:<10} {:<10} {:<22} {:<14} {:>7}",
            "scaling", "1st comp", "2nd comp", "3rd comp", "benchmark", "suite", "speedup"
        );
        let mut prev: Option<(ScalingClass, [&str; 3])> = None;
        for e in &self.entries {
            let path = [
                e.component_label(0),
                e.component_label(1),
                e.component_label(2),
            ];
            let (show_class, show) = match prev {
                Some((pc, pp)) => {
                    let show_class = pc != e.class;
                    let show = [
                        show_class || pp[0] != path[0],
                        show_class || pp[0] != path[0] || pp[1] != path[1],
                        show_class || pp[0] != path[0] || pp[1] != path[1] || pp[2] != path[2],
                    ];
                    (show_class, show)
                }
                None => (true, [true, true, true]),
            };
            let _ = writeln!(
                out,
                "{:<9} {:<10} {:<10} {:<10} {:<22} {:<14} {:>7.2}",
                if show_class {
                    e.class.to_string()
                } else {
                    String::new()
                },
                if show[0] { path[0] } else { "" },
                if show[1] { path[1] } else { "" },
                if show[2] { path[2] } else { "" },
                e.name,
                e.suite,
                e.speedup
            );
            prev = Some((e.class, path));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::AccountingConfig;
    use crate::counters::ThreadCounters;

    fn stack_with(spin: f64, yield_c: f64, n: usize, tp: u64) -> SpeedupStack {
        let threads: Vec<ThreadCounters> = (0..n)
            .map(|_| ThreadCounters {
                active_end_cycle: tp,
                spin_cycles: spin,
                yield_cycles: yield_c,
                ..ThreadCounters::default()
            })
            .collect();
        SpeedupStack::from_counters(&threads, tp, &AccountingConfig::default()).unwrap()
    }

    #[test]
    fn class_thresholds() {
        let cfg = ClassificationConfig::default();
        assert_eq!(cfg.class_of(15.9), ScalingClass::Good);
        assert_eq!(cfg.class_of(10.0), ScalingClass::Good);
        assert_eq!(cfg.class_of(9.99), ScalingClass::Moderate);
        assert_eq!(cfg.class_of(5.0), ScalingClass::Moderate);
        assert_eq!(cfg.class_of(4.99), ScalingClass::Poor);
    }

    #[test]
    fn top_components_ranked_and_cutoff() {
        // 16 threads, tp 1000: spin 100/thread => 1.6 units; yield 50 => 0.8.
        let s = stack_with(100.0, 50.0, 16, 1000);
        let cfg = ClassificationConfig::default();
        let c = ClassifiedBenchmark::from_stack("x", "s", &s, &cfg);
        assert_eq!(
            c.top_components,
            vec![Component::Spinning, Component::Yielding]
        );
        // cutoff 3% of 16 = 0.48 units: raise yield cutoff above it
        let cfg = ClassificationConfig {
            negligible_fraction: 0.06,
            ..cfg
        };
        let c = ClassifiedBenchmark::from_stack("x", "s", &s, &cfg);
        assert_eq!(c.top_components, vec![Component::Spinning]);
    }

    #[test]
    fn uses_actual_speedup_when_available() {
        let s = stack_with(0.0, 0.0, 16, 1000).with_actual_speedup(4.0);
        let c = ClassifiedBenchmark::from_stack("x", "s", &s, &ClassificationConfig::default());
        assert_eq!(c.class, ScalingClass::Poor);
        assert_eq!(c.speedup, 4.0);
    }

    #[test]
    fn tree_sorted_by_class_then_speedup() {
        let cfg = ClassificationConfig::default();
        let mk = |name: &str, sp: f64| {
            let s = stack_with(0.0, 0.0, 16, 1000).with_actual_speedup(sp);
            ClassifiedBenchmark::from_stack(name, "s", &s, &cfg)
        };
        let tree =
            ClassificationTree::build(vec![mk("poor", 3.0), mk("good", 15.0), mk("mod", 7.0)]);
        let names: Vec<&str> = tree.entries().iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["good", "mod", "poor"]);
    }

    #[test]
    fn counts() {
        let cfg = ClassificationConfig::default();
        let spin_heavy =
            ClassifiedBenchmark::from_stack("a", "s", &stack_with(200.0, 0.0, 16, 1000), &cfg);
        let clean =
            ClassifiedBenchmark::from_stack("b", "s", &stack_with(0.0, 0.0, 16, 1000), &cfg);
        let tree = ClassificationTree::build(vec![spin_heavy, clean]);
        assert_eq!(tree.count_largest(Component::Spinning), 1);
        assert_eq!(tree.count_unlimited(), 1);
        assert_eq!(tree.in_class(ScalingClass::Good).count(), 2);
    }

    #[test]
    fn render_blanks_repeats() {
        let cfg = ClassificationConfig::default();
        let mk = |name: &str| {
            ClassifiedBenchmark::from_stack(name, "suite", &stack_with(200.0, 0.0, 16, 1000), &cfg)
        };
        let tree = ClassificationTree::build(vec![mk("a"), mk("b")]);
        let rendered = tree.render();
        // "spinning" appears once as a column value (second row blanked) —
        // header contains "1st comp", not the word spinning.
        let count = rendered.matches("spinning").count();
        assert_eq!(count, 1, "rendered:\n{rendered}");
    }
}
