//! Fixtures the degraded-mode, chaos and transport soaks share: one tiny
//! model per test binary, its analyzer, the fault-free reference-week
//! report, and the drift measure. The including test declares
//! `const SEED: u64`, its model seed.

use std::sync::OnceLock;

use ixp_vantage::core::analyzer::{Analyzer, WeeklyReport};
use ixp_vantage::netmodel::{InternetModel, ScaleConfig, Week};

use super::SEED;

pub(crate) fn model() -> &'static InternetModel {
    static M: OnceLock<InternetModel> = OnceLock::new();
    M.get_or_init(|| InternetModel::generate(ScaleConfig::tiny(), SEED))
}

pub(crate) fn analyzer() -> &'static Analyzer<'static> {
    static A: OnceLock<Analyzer<'static>> = OnceLock::new();
    A.get_or_init(|| Analyzer::new(model()))
}

/// The fault-free reference-week report every faulted run is compared
/// against.
pub(crate) fn clean() -> &'static WeeklyReport {
    static C: OnceLock<WeeklyReport> = OnceLock::new();
    C.get_or_init(|| analyzer().run_week(Week::REFERENCE))
}

pub(crate) fn drift_pct(value: u64, reference: u64) -> f64 {
    100.0 * (value as f64 - reference as f64).abs() / reference.max(1) as f64
}
