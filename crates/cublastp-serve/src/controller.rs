//! The load controller: maps observed pressure to a degradation level.
//!
//! The controller is deliberately dumb — it takes the single scalar
//! *pressure* in `[0, 1]` that the server's own admission state reports
//! (the worst of queue occupancy and cost-budget occupancy) and maps it
//! through three fixed thresholds to a [`DegradationLevel`]. The policy is
//! a pure function of that typed state: there is no hysteresis state to
//! corrupt under concurrent assessment, two servers in one process never
//! see each other's load, and the decision does not depend on whether the
//! metrics registry is armed — the `serve_*` gauges export the same
//! numbers, but nothing reads them back.
//!
//! The ladder, in escalation order (DESIGN.md §3.8):
//!
//! | level | trigger (pressure) | effect |
//! |---|---|---|
//! | `Normal` | < 0.60 | none |
//! | `ShedBulk` | ≥ 0.60 | bulk submissions refused with `Overloaded` |
//! | `ShrinkBudgets` | ≥ 0.80 | admission caps halved for everyone |
//! | `CoarseOnly` | ≥ 0.95 | gapped placement forced to the coarse CPU backend |
//!
//! Each level implies all the ones below it: at `CoarseOnly` bulk is shed
//! *and* budgets are shrunk *and* placement is coarse.

/// Rung on the degradation ladder. `Ord` follows escalation order, so
/// `level >= DegradationLevel::ShedBulk` reads as "shedding bulk (or
/// worse)".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// Full service.
    Normal,
    /// Refuse new bulk-class submissions.
    ShedBulk,
    /// Additionally halve the admission queue and cost budgets.
    ShrinkBudgets,
    /// Additionally force gapped placement to the coarse CPU backend.
    CoarseOnly,
}

impl DegradationLevel {
    /// Stable lowercase name for metrics labels and logs.
    pub fn name(self) -> &'static str {
        match self {
            Self::Normal => "normal",
            Self::ShedBulk => "shed_bulk",
            Self::ShrinkBudgets => "shrink_budgets",
            Self::CoarseOnly => "coarse_only",
        }
    }
}

/// Pressure thresholds for the ladder. Defaults follow the table above;
/// the bench overrides them to exercise specific rungs.
#[derive(Debug, Clone, Copy)]
pub struct LoadController {
    /// Pressure at which bulk submissions are refused.
    pub shed_bulk_at: f64,
    /// Pressure at which admission budgets are halved.
    pub shrink_at: f64,
    /// Pressure at which gapped placement degrades to coarse.
    pub coarse_at: f64,
}

impl Default for LoadController {
    fn default() -> Self {
        Self {
            shed_bulk_at: 0.60,
            shrink_at: 0.80,
            coarse_at: 0.95,
        }
    }
}

impl LoadController {
    /// Map a pressure value to its ladder rung.
    pub fn level_for_pressure(&self, p: f64) -> DegradationLevel {
        if p >= self.coarse_at {
            DegradationLevel::CoarseOnly
        } else if p >= self.shrink_at {
            DegradationLevel::ShrinkBudgets
        } else if p >= self.shed_bulk_at {
            DegradationLevel::ShedBulk
        } else {
            DegradationLevel::Normal
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_escalate_with_pressure() {
        let c = LoadController::default();
        assert_eq!(c.level_for_pressure(0.0), DegradationLevel::Normal);
        assert_eq!(c.level_for_pressure(0.59), DegradationLevel::Normal);
        assert_eq!(c.level_for_pressure(0.60), DegradationLevel::ShedBulk);
        assert_eq!(c.level_for_pressure(0.80), DegradationLevel::ShrinkBudgets);
        assert_eq!(c.level_for_pressure(0.95), DegradationLevel::CoarseOnly);
        assert_eq!(c.level_for_pressure(1.0), DegradationLevel::CoarseOnly);
        // Ord follows escalation.
        assert!(DegradationLevel::CoarseOnly > DegradationLevel::ShedBulk);
        assert!(DegradationLevel::ShedBulk > DegradationLevel::Normal);
    }

    #[test]
    fn level_names_are_stable() {
        assert_eq!(DegradationLevel::Normal.name(), "normal");
        assert_eq!(DegradationLevel::CoarseOnly.name(), "coarse_only");
    }
}
