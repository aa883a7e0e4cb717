//! Query budgets: bounded traversal for overload protection (DESIGN.md §12).
//!
//! A [`QueryBudget`] caps what one visibility query may spend before the
//! traversal stops descending and serves the remaining subtrees as internal
//! LoDs (the same graceful-degradation machinery §11 uses for read errors,
//! recorded with [`DegradeCause::BudgetExhausted`]). The one cap is
//! simulated cost: the deterministic I/O + CPU charge every search already
//! accounts (`SearchStats::search_time_ms` currency), the currency the paper
//! costs queries in. A capped query is therefore bit-identical across runs,
//! which is what lets CI and the `overload` bench gate it.
//!
//! An [`unlimited`](QueryBudget::unlimited) budget is free: the traversal
//! performs one branch test per descent, so its answer, simulated costs,
//! and degrade report are byte-identical to the unbudgeted path (pinned by
//! the `budget` proptest suite).
//!
//! [`DegradeCause::BudgetExhausted`]: crate::search::DegradeCause::BudgetExhausted

/// What one query may spend before its traversal degrades to internal LoDs.
///
/// Budgets are *soft*: exhaustion never fails the query and never truncates
/// the answer set — every remaining subtree is still represented, just by
/// its internal LoD instead of a full descent. Fetching those fallback LoDs
/// itself costs simulated time, so a budgeted query can overshoot its cap by
/// at most one internal-LoD fetch per pending subtree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryBudget {
    /// Simulated-cost cap in milliseconds ([`SearchStats::search_time_ms`]
    /// currency: I/O elapsed plus per-node/per-V-page CPU).
    /// `f64::INFINITY` disables the cap.
    ///
    /// [`SearchStats::search_time_ms`]: crate::search::SearchStats::search_time_ms
    pub sim_ms: f64,
}

impl QueryBudget {
    /// No cap — the budgeted path is byte-identical to the unbudgeted one.
    pub const UNLIMITED: QueryBudget = QueryBudget {
        sim_ms: f64::INFINITY,
    };

    /// No cap (const form: [`Self::UNLIMITED`]).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::UNLIMITED
    }

    /// Cap the simulated cost at `ms` milliseconds.
    ///
    /// Non-finite or negative caps are normalized: `NaN`/`inf` mean
    /// unlimited, negatives clamp to zero (degrade at the first descent).
    #[must_use]
    pub fn sim_ms(ms: f64) -> Self {
        let sim_ms = if ms.is_finite() {
            ms.max(0.0)
        } else {
            f64::INFINITY
        };
        QueryBudget { sim_ms }
    }

    /// True when the cap is active. An unlimited budget short-circuits
    /// every check in the traversal to a single branch.
    #[must_use]
    pub fn is_limited(&self) -> bool {
        self.sim_ms.is_finite()
    }
}

impl Default for QueryBudget {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

/// Per-query budget tracker: the budget plus the query's cost baseline.
///
/// Created once per search; `exhausted` is called at most once per descent
/// with the *current* cumulative I/O charge, so the tracker itself holds no
/// mutable state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BudgetClock {
    limited: bool,
    sim_budget_us: f64,
    base_io_us: f64,
}

impl BudgetClock {
    /// Starts tracking. `base_io_us` is the cumulative simulated I/O charge
    /// of the query's meters at query start (the stats are shared across
    /// queries; the budget covers only this query's delta).
    pub(crate) fn start(budget: QueryBudget, base_io_us: f64) -> Self {
        BudgetClock {
            limited: budget.is_limited(),
            sim_budget_us: budget.sim_ms * 1000.0,
            base_io_us,
        }
    }

    /// True when the cap is active (callers skip the spent computation —
    /// and its meter reads — entirely on the unlimited path).
    #[inline]
    pub(crate) fn is_limited(&self) -> bool {
        self.limited
    }

    /// True when this query's spend has reached the cap. `io_elapsed_us` is
    /// the *cumulative* simulated I/O charge of the query's meters (the
    /// baseline is subtracted here); `nodes`/`vpages` are this query's
    /// counts, charged at the standard CPU rates.
    pub(crate) fn exhausted(&self, io_elapsed_us: f64, nodes: u64, vpages: u64) -> bool {
        debug_assert!(self.limited, "checked only on the limited path");
        let spent_us = (io_elapsed_us - self.base_io_us)
            + nodes as f64 * crate::search::CPU_PER_NODE_US
            + vpages as f64 * crate::search::CPU_PER_RESULT_US;
        spent_us >= self.sim_budget_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_is_not_limited() {
        assert!(!QueryBudget::unlimited().is_limited());
        assert!(!QueryBudget::default().is_limited());
        assert!(!QueryBudget::sim_ms(f64::INFINITY).is_limited());
        assert!(!QueryBudget::sim_ms(f64::NAN).is_limited());
    }

    #[test]
    fn sim_cap_is_limited_and_clamped() {
        assert!(QueryBudget::sim_ms(5.0).is_limited());
        assert_eq!(QueryBudget::sim_ms(-3.0).sim_ms, 0.0);
    }

    #[test]
    fn clock_exhausts_on_simulated_spend_only() {
        let c = BudgetClock::start(QueryBudget::sim_ms(1.0), 500.0);
        // 0.9 ms spent (delta from baseline): under the 1 ms cap.
        assert!(!c.exhausted(1400.0, 0, 0));
        // CPU charges count toward the cap too.
        assert!(c.exhausted(1400.0, 40, 10));
        // 1.0 ms spent: at the cap.
        assert!(c.exhausted(1500.0, 0, 0));
    }

    #[test]
    fn zero_budget_exhausts_immediately() {
        let c = BudgetClock::start(QueryBudget::sim_ms(0.0), 0.0);
        assert!(c.exhausted(0.0, 0, 0));
    }
}
