//! ASCII rendering of speedup stacks (Figure 2 / Figure 5 style).
//!
//! The renderer draws each stack as a horizontal bar of fixed character
//! width, where each segment's width is proportional to its share of `N`:
//! `#` for base speedup, `+` for positive interference, and the
//! [`Component::code`] letter for each overhead component. A legend with
//! exact values accompanies the bar.
//!
//! For core-count sweeps, [`render_sweep`] draws one bar per stack with
//! the *bar width itself proportional to `N`*, so a 1→128-core series
//! reads as a growth chart: the full-width bar is the widest machine and
//! each smaller machine occupies its proportional share.

use crate::components::Component;
use crate::stack::SpeedupStack;
use std::fmt::Write as _;

/// Bar width in characters (the full width represents `N`).
const WIDTH: usize = 64;

/// Components contributing less than this many thousandths of `N` are
/// left out of the legend (they still occupy bar space if they round to
/// at least one character).
const LEGEND_CUTOFF_PERMILLE: u32 = 5;

/// Renders one stack as a bar plus legend.
///
/// # Examples
///
/// ```
/// use speedup_stacks::{render, SpeedupStack, ThreadCounters, AccountingConfig};
/// let threads = vec![
///     ThreadCounters { active_end_cycle: 1000, spin_cycles: 500.0,
///                      ..ThreadCounters::default() },
///     ThreadCounters { active_end_cycle: 1000, ..ThreadCounters::default() },
/// ];
/// let stack = SpeedupStack::from_counters(&threads, 1000, &AccountingConfig::default())?;
/// let art = render::render_stack("demo", &stack);
/// assert!(art.contains("demo"));
/// assert!(art.contains("spinning"));
/// # Ok::<(), speedup_stacks::StackError>(())
/// ```
#[must_use]
pub fn render_stack(label: &str, stack: &SpeedupStack) -> String {
    let n = stack.num_threads() as f64;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{label}: N={} estimated speedup={:.2}{}",
        stack.num_threads(),
        stack.estimated_speedup(),
        match stack.actual_speedup() {
            Some(a) => format!(" actual={a:.2}"),
            None => String::new(),
        }
    );

    // Bar: base, then positive, then overheads in stack order.
    let bar = draw_bar(stack, WIDTH);
    let _ = writeln!(out, "  {bar}");

    // Legend.
    let _ = writeln!(
        out,
        "  # base speedup          {:>8.3}  ({:>5.1}% of N)",
        stack.base_speedup(),
        stack.base_speedup() / n * 100.0
    );
    if stack.positive_interference() > 0.0 {
        let _ = writeln!(
            out,
            "  + positive interference {:>8.3}  ({:>5.1}% of N)",
            stack.positive_interference(),
            stack.positive_interference() / n * 100.0
        );
    }
    let cutoff = f64::from(LEGEND_CUTOFF_PERMILLE) / 1000.0 * n;
    for (c, v) in stack.overheads().iter() {
        if v >= cutoff {
            let _ = writeln!(
                out,
                "  {} {:<22} {:>8.3}  ({:>5.1}% of N)",
                c.code(),
                c.to_string(),
                v,
                v / n * 100.0
            );
        }
    }
    out
}

/// Draws the proportional segment bar of one stack into `bar_width`
/// characters (the shared segment logic of [`render_stack`] and
/// [`render_sweep`]).
fn draw_bar(stack: &SpeedupStack, bar_width: usize) -> String {
    let n = stack.num_threads() as f64;
    let mut segments: Vec<(char, f64)> = vec![
        ('#', stack.base_speedup()),
        ('+', stack.positive_interference()),
    ];
    for (c, v) in stack.overheads().iter() {
        segments.push((c.code(), v));
    }
    let mut bar = String::with_capacity(bar_width + 2);
    bar.push('|');
    let mut used = 0usize;
    let mut carried = 0.0f64;
    for (ch, v) in &segments {
        let exact = v / n * bar_width as f64 + carried;
        let w = exact.round() as usize;
        carried = exact - w as f64;
        for _ in 0..w.min(bar_width - used) {
            bar.push(*ch);
        }
        used = (used + w).min(bar_width);
    }
    while used < bar_width {
        bar.push(' ');
        used += 1;
    }
    bar.push('|');
    bar
}

/// Renders a core-count sweep as a growth chart: one bar per stack, the
/// bar *width* proportional to that stack's `N` relative to the widest
/// stack in the series (which gets the full width). Within each
/// bar, segments are proportional to their share of that stack's `N` as
/// usual, so ideal scaling shows as a solid `#` wedge and every scaling
/// delimiter as a growing coloured tail.
///
/// # Examples
///
/// ```
/// use speedup_stacks::{render, SpeedupStack, ThreadCounters, AccountingConfig};
/// let mk = |n: usize| {
///     let t = vec![ThreadCounters { active_end_cycle: 1000, ..Default::default() }; n];
///     SpeedupStack::from_counters(&t, 1000, &AccountingConfig::default()).unwrap()
/// };
/// let series = vec![("N=2".to_string(), mk(2)), ("N=8".to_string(), mk(8))];
/// let art = render::render_sweep("demo sweep", &series);
/// assert!(art.contains("demo sweep"));
/// assert!(art.lines().count() >= 3);
/// ```
#[must_use]
pub fn render_sweep(title: &str, series: &[(String, SpeedupStack)]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title} (bar width proportional to N)");
    let Some(max_n) = series.iter().map(|(_, s)| s.num_threads()).max() else {
        return out;
    };
    let label_w = series.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    for (label, stack) in series {
        let bar_width = (WIDTH * stack.num_threads() / max_n).max(1);
        let bar = draw_bar(stack, bar_width);
        let _ = write!(out, "  {label:<label_w$} {bar}");
        for _ in bar_width..WIDTH {
            out.push(' ');
        }
        let _ = write!(out, " est={:>7.2}", stack.estimated_speedup());
        match stack.actual_speedup() {
            Some(a) => {
                let _ = writeln!(out, " act={a:>7.2}");
            }
            None => {
                let _ = writeln!(out);
            }
        }
    }
    out
}

/// Renders several stacks as an aligned comparison table (Figure 5 style):
/// one row per stack, one column per component.
///
/// # Examples
///
/// ```
/// use speedup_stacks::{render, SpeedupStack, ThreadCounters, AccountingConfig};
/// let t = vec![ThreadCounters { active_end_cycle: 100, ..Default::default() }];
/// let s = SpeedupStack::from_counters(&t, 100, &AccountingConfig::default())?;
/// let table = render::render_table(&[("run".to_string(), s)]);
/// assert!(table.contains("base"));
/// # Ok::<(), speedup_stacks::StackError>(())
/// ```
#[must_use]
pub fn render_table(stacks: &[(String, SpeedupStack)]) -> String {
    let mut out = String::new();
    let name_w = stacks
        .iter()
        .map(|(n, _)| n.len())
        .chain(std::iter::once("benchmark".len()))
        .max()
        .unwrap_or(9);
    let _ = write!(
        out,
        "{:<name_w$}  {:>3}  {:>7}  {:>7}",
        "benchmark", "N", "base", "pos"
    );
    for c in Component::ALL {
        let _ = write!(out, "  {:>9}", c.label());
    }
    let _ = writeln!(out, "  {:>7}  {:>7}", "est.S", "act.S");
    for (name, s) in stacks {
        let _ = write!(
            out,
            "{:<name_w$}  {:>3}  {:>7.3}  {:>7.3}",
            name,
            s.num_threads(),
            s.base_speedup(),
            s.positive_interference()
        );
        for c in Component::ALL {
            let _ = write!(out, "  {:>9.3}", s.component(c));
        }
        let _ = write!(out, "  {:>7.3}", s.estimated_speedup());
        match s.actual_speedup() {
            Some(a) => {
                let _ = writeln!(out, "  {a:>7.3}");
            }
            None => {
                let _ = writeln!(out, "  {:>7}", "-");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accounting::AccountingConfig;
    use crate::counters::ThreadCounters;

    fn demo_stack() -> SpeedupStack {
        let threads = vec![
            ThreadCounters {
                active_end_cycle: 1000,
                spin_cycles: 250.0,
                yield_cycles: 250.0,
                ..ThreadCounters::default()
            },
            ThreadCounters {
                active_end_cycle: 500,
                ..ThreadCounters::default()
            },
        ];
        SpeedupStack::from_counters(&threads, 1000, &AccountingConfig::default()).unwrap()
    }

    #[test]
    fn bar_has_requested_width() {
        let art = render_stack("x", &demo_stack());
        let bar_line = art.lines().nth(1).unwrap().trim();
        assert_eq!(bar_line.len(), 66); // 64 + two '|'
    }

    #[test]
    fn legend_mentions_components() {
        let art = render_stack("x", &demo_stack());
        assert!(art.contains("spinning"));
        assert!(art.contains("yielding"));
        assert!(art.contains("imbalance"));
        assert!(art.contains("base speedup"));
    }

    #[test]
    fn legend_cutoff_hides_small() {
        // Spinning is 0.004 of N = 2 (2 per mille, under the 5 per mille
        // cutoff); yielding is 12.5 % of N.
        let threads = vec![
            ThreadCounters {
                active_end_cycle: 1000,
                spin_cycles: 4.0,
                yield_cycles: 250.0,
                ..ThreadCounters::default()
            },
            ThreadCounters {
                active_end_cycle: 1000,
                ..ThreadCounters::default()
            },
        ];
        let stack =
            SpeedupStack::from_counters(&threads, 1000, &AccountingConfig::default()).unwrap();
        let spinning = stack.component(Component::Spinning);
        assert!(
            spinning > 0.0 && spinning < 0.005 * 2.0,
            "spinning {spinning}"
        );
        let art = render_stack("x", &stack);
        assert!(!art.contains("spinning"), "{art}");
        assert!(art.contains("yielding"), "{art}");
    }

    #[test]
    fn bar_segment_chars_proportional() {
        // base = 0.5 of N => half the bar is '#'.
        let art = render_stack("x", &demo_stack());
        let bar = art.lines().nth(1).unwrap();
        let hashes = bar.chars().filter(|&c| c == '#').count();
        assert!((31..=33).contains(&hashes), "got {hashes} hashes");
    }

    #[test]
    fn sweep_bar_widths_proportional_to_n() {
        let mk = |n: usize| {
            let t = vec![
                ThreadCounters {
                    active_end_cycle: 1000,
                    ..ThreadCounters::default()
                };
                n
            ];
            SpeedupStack::from_counters(&t, 1000, &AccountingConfig::default()).unwrap()
        };
        let series = vec![
            ("N=1".to_string(), mk(1)),
            ("N=4".to_string(), mk(4)),
            ("N=8".to_string(), mk(8)),
        ];
        let art = render_sweep("sweep", &series);
        let widths: Vec<usize> = art
            .lines()
            .skip(1)
            .map(|l| {
                let open = l.find('|').unwrap();
                let close = l.rfind('|').unwrap();
                close - open - 1
            })
            .collect();
        assert_eq!(widths, vec![8, 32, 64]);
    }

    #[test]
    fn sweep_handles_empty_series() {
        let art = render_sweep("empty", &[]);
        assert!(art.starts_with("empty"));
        assert_eq!(art.lines().count(), 1);
    }

    #[test]
    fn table_contains_rows_and_header() {
        let table = render_table(&[("demo".to_string(), demo_stack())]);
        assert!(table.starts_with("benchmark"));
        assert!(table.contains("demo"));
        assert!(table.contains("yielding"));
    }

    #[test]
    fn table_shows_actual_when_present() {
        let s = demo_stack().with_actual_speedup(1.23);
        let table = render_table(&[("demo".to_string(), s)]);
        assert!(table.contains("1.230"));
    }
}
