//! The speedup-stack component vocabulary.
//!
//! A speedup stack decomposes the gap between the ideal speedup `N` and the
//! achieved speedup into *overhead components* (scaling delimiters). This
//! module defines the closed set of overhead components used by the paper
//! ([`Component`]) and a dense map from component to a value
//! ([`Breakdown`]).
//!
//! Positive LLC interference is *not* a [`Component`]: it increases rather
//! than decreases speedup and is carried separately by
//! [`SpeedupStack`](crate::stack::SpeedupStack).

use core::fmt;
use core::ops::{Add, AddAssign, Index, IndexMut};

/// A scaling delimiter: one overhead component of a speedup stack.
///
/// The variants mirror Section 3 of the paper. Each represents cycles a
/// thread spent *not* making single-threaded-equivalent forward progress.
///
/// # Examples
///
/// ```
/// use speedup_stacks::Component;
/// assert_eq!(Component::Spinning.to_string(), "spinning");
/// assert_eq!(Component::ALL.len(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum Component {
    /// Negative interference in the shared LLC: additional misses caused by
    /// other threads evicting this thread's data (inter-thread misses).
    NegativeLlc,
    /// Negative interference in the memory subsystem: waiting for the
    /// memory bus or a bank occupied by another core, and open-page
    /// conflicts caused by other cores.
    NegativeMemory,
    /// Additional misses caused by the cache coherency protocol
    /// invalidating lines in private caches. The paper's default
    /// accounting counts these events but does not charge them (a balanced
    /// out-of-order core hides most L1 misses).
    CacheCoherency,
    /// Active spinning on lock and barrier variables.
    Spinning,
    /// Time scheduled out by the OS while waiting on a barrier or a highly
    /// contended lock.
    Yielding,
    /// Threads waiting for the slowest thread to finish the parallel
    /// section.
    Imbalance,
    /// Extra instructions executed because the program is parallel
    /// (communication, recomputation, lock management). The paper's
    /// hardware accounting cannot measure this; it is included in the
    /// vocabulary so software estimates can be attached.
    ParallelizationOverhead,
}

impl Component {
    /// All components, in stack order (bottom-most overhead first).
    pub const ALL: [Component; 7] = [
        Component::NegativeLlc,
        Component::NegativeMemory,
        Component::CacheCoherency,
        Component::Spinning,
        Component::Yielding,
        Component::Imbalance,
        Component::ParallelizationOverhead,
    ];

    /// Number of components.
    pub const COUNT: usize = Self::ALL.len();

    /// A stable dense index in `0..Component::COUNT`.
    ///
    /// ```
    /// use speedup_stacks::Component;
    /// assert_eq!(Component::NegativeLlc.index(), 0);
    /// assert_eq!(Component::ParallelizationOverhead.index(), 6);
    /// ```
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Component::NegativeLlc => 0,
            Component::NegativeMemory => 1,
            Component::CacheCoherency => 2,
            Component::Spinning => 3,
            Component::Yielding => 4,
            Component::Imbalance => 5,
            Component::ParallelizationOverhead => 6,
        }
    }

    /// Short label used in rendered stacks and the classification tree.
    ///
    /// ```
    /// use speedup_stacks::Component;
    /// assert_eq!(Component::NegativeLlc.label(), "cache");
    /// ```
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Component::NegativeLlc => "cache",
            Component::NegativeMemory => "memory",
            Component::CacheCoherency => "coherency",
            Component::Spinning => "spinning",
            Component::Yielding => "yielding",
            Component::Imbalance => "imbalance",
            Component::ParallelizationOverhead => "overhead",
        }
    }

    /// Single-character code used by the ASCII bar renderer.
    #[must_use]
    pub const fn code(self) -> char {
        match self {
            Component::NegativeLlc => 'C',
            Component::NegativeMemory => 'M',
            Component::CacheCoherency => 'H',
            Component::Spinning => 'S',
            Component::Yielding => 'Y',
            Component::Imbalance => 'I',
            Component::ParallelizationOverhead => 'P',
        }
    }
}

impl fmt::Display for Component {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Component::NegativeLlc => "negative LLC interference",
            Component::NegativeMemory => "negative memory interference",
            Component::CacheCoherency => "cache coherency",
            Component::Spinning => "spinning",
            Component::Yielding => "yielding",
            Component::Imbalance => "imbalance",
            Component::ParallelizationOverhead => "parallelization overhead",
        };
        f.write_str(name)
    }
}

/// A dense map from [`Component`] to an `f64` value.
///
/// Used both for per-thread cycle counts and for aggregated speedup-stack
/// components (cycles divided by `Tp`). Supports component-wise addition.
///
/// # Examples
///
/// ```
/// use speedup_stacks::{Breakdown, Component};
/// let mut b = Breakdown::zero();
/// b[Component::Spinning] = 120.0;
/// b[Component::Yielding] = 30.0;
/// assert_eq!(b.total(), 150.0);
/// assert_eq!(b.largest(), Some((Component::Spinning, 120.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Breakdown {
    values: [f64; Component::COUNT],
}

impl Breakdown {
    /// An all-zero breakdown.
    #[must_use]
    pub const fn zero() -> Self {
        Breakdown {
            values: [0.0; Component::COUNT],
        }
    }

    /// Value for one component.
    #[must_use]
    pub fn get(&self, c: Component) -> f64 {
        self.values[c.index()]
    }

    /// Sets the value for one component.
    pub fn set(&mut self, c: Component, v: f64) {
        self.values[c.index()] = v;
    }

    /// Sum of all components.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Iterates `(component, value)` pairs in stack order.
    pub fn iter(&self) -> impl Iterator<Item = (Component, f64)> + '_ {
        Component::ALL.iter().map(move |&c| (c, self.get(c)))
    }

    /// The component with the largest value, if any value is non-zero.
    ///
    /// Ties resolve to the earliest component in stack order.
    #[must_use]
    pub fn largest(&self) -> Option<(Component, f64)> {
        let (c, v) = Component::ALL.iter().map(|&c| (c, self.get(c))).fold(
            (Component::NegativeLlc, f64::NEG_INFINITY),
            |acc, cur| {
                if cur.1 > acc.1 {
                    cur
                } else {
                    acc
                }
            },
        );
        if v > 0.0 {
            Some((c, v))
        } else {
            None
        }
    }

    /// Components sorted by descending value.
    #[must_use]
    pub fn ranked(&self) -> Vec<(Component, f64)> {
        let mut v: Vec<_> = self.iter().collect();
        v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(core::cmp::Ordering::Equal));
        v
    }

    /// Scales every component by `factor`, returning a new breakdown.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let mut out = *self;
        for v in &mut out.values {
            *v *= factor;
        }
        out
    }

    /// Returns true if every component is finite and non-negative.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.values.iter().all(|v| v.is_finite() && *v >= 0.0)
    }
}

impl Index<Component> for Breakdown {
    type Output = f64;

    fn index(&self, c: Component) -> &f64 {
        &self.values[c.index()]
    }
}

impl IndexMut<Component> for Breakdown {
    fn index_mut(&mut self, c: Component) -> &mut f64 {
        &mut self.values[c.index()]
    }
}

impl Add for Breakdown {
    type Output = Breakdown;

    fn add(mut self, rhs: Breakdown) -> Breakdown {
        self += rhs;
        self
    }
}

impl AddAssign for Breakdown {
    fn add_assign(&mut self, rhs: Breakdown) {
        for (a, b) in self.values.iter_mut().zip(rhs.values.iter()) {
            *a += *b;
        }
    }
}

impl FromIterator<(Component, f64)> for Breakdown {
    fn from_iter<I: IntoIterator<Item = (Component, f64)>>(iter: I) -> Self {
        let mut b = Breakdown::zero();
        for (c, v) in iter {
            b[c] += v;
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_unique() {
        let mut seen = [false; Component::COUNT];
        for c in Component::ALL {
            assert!(!seen[c.index()], "duplicate index for {c:?}");
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn codes_are_unique() {
        let mut codes: Vec<char> = Component::ALL.iter().map(|c| c.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Component::COUNT);
    }

    #[test]
    fn breakdown_total_and_index() {
        let mut b = Breakdown::zero();
        b[Component::Spinning] = 10.0;
        b[Component::Imbalance] = 2.5;
        assert_eq!(b.total(), 12.5);
        assert_eq!(b.get(Component::Spinning), 10.0);
        assert_eq!(b[Component::Yielding], 0.0);
    }

    #[test]
    fn breakdown_add() {
        let mut a = Breakdown::zero();
        a[Component::Yielding] = 1.0;
        let mut b = Breakdown::zero();
        b[Component::Yielding] = 2.0;
        b[Component::NegativeLlc] = 3.0;
        let c = a + b;
        assert_eq!(c[Component::Yielding], 3.0);
        assert_eq!(c[Component::NegativeLlc], 3.0);
    }

    #[test]
    fn largest_none_when_zero() {
        assert_eq!(Breakdown::zero().largest(), None);
    }

    #[test]
    fn largest_picks_max() {
        let mut b = Breakdown::zero();
        b[Component::NegativeMemory] = 5.0;
        b[Component::Spinning] = 7.0;
        assert_eq!(b.largest(), Some((Component::Spinning, 7.0)));
    }

    #[test]
    fn ranked_is_descending() {
        let mut b = Breakdown::zero();
        b[Component::NegativeLlc] = 1.0;
        b[Component::Spinning] = 3.0;
        b[Component::Yielding] = 2.0;
        let r = b.ranked();
        assert_eq!(r[0].0, Component::Spinning);
        assert_eq!(r[1].0, Component::Yielding);
        assert_eq!(r[2].0, Component::NegativeLlc);
    }

    #[test]
    fn from_iterator_accumulates() {
        let b: Breakdown = [
            (Component::Spinning, 1.0),
            (Component::Spinning, 2.0),
            (Component::Yielding, 4.0),
        ]
        .into_iter()
        .collect();
        assert_eq!(b[Component::Spinning], 3.0);
        assert_eq!(b[Component::Yielding], 4.0);
    }

    #[test]
    fn scaled_multiplies_all() {
        let mut b = Breakdown::zero();
        b[Component::Imbalance] = 2.0;
        let s = b.scaled(2.5);
        assert_eq!(s[Component::Imbalance], 5.0);
        assert_eq!(s.total(), 5.0);
    }

    #[test]
    fn display_labels() {
        assert_eq!(Component::Yielding.label(), "yielding");
        assert_eq!(
            format!("{}", Component::NegativeLlc),
            "negative LLC interference"
        );
    }

    #[test]
    fn validity_rejects_negative_and_nan() {
        let mut b = Breakdown::zero();
        assert!(b.is_valid());
        b[Component::Spinning] = -1.0;
        assert!(!b.is_valid());
        b[Component::Spinning] = f64::NAN;
        assert!(!b.is_valid());
    }
}
