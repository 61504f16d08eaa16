//! # ixp-core
//!
//! The analysis pipeline of *"On the Benefits of Using a Large IXP as an
//! Internet Vantage Point"* (IMC 2013), reimplemented end-to-end:
//!
//! | Paper | Module |
//! |---|---|
//! | §2.2.1 filtering cascade (Fig. 1) | [`scan`] |
//! | §2.2.2 HTTP string matching | [`http`] |
//! | §2.2.2 HTTPS crawl + validation funnel | [`census`] (with `ixp-cert`) |
//! | §2.4 meta-data assembly | [`census`] |
//! | §3 visibility (Tables 1–3, Figs 2–3) | [`snapshot`], [`visibility`] |
//! | §4 longitudinal churn (Figs 4–5) | [`longitudinal`] |
//! | §4.2 change detection (HTTPS drift, EC2, Sandy, resellers) | [`changes`] |
//! | §5.1 organization clustering | [`cluster`] |
//! | §5.2/§5.3 heterogeneity (Figs 6–7) | [`hetero`] |
//! | §3.3 blind spots | [`blindspots`] |
//! | §2.1 sampling-bias cross-check (extension) | [`bias`] |
//! | §6 baselines (port classification, AS-to-org) | [`baseline`] |
//!
//! ## Epistemic discipline
//!
//! The pipeline's inputs are the sFlow byte stream and *public* data only
//! (routing snapshot, member directory, AS graph, popularity list,
//! published range lists) plus active-measurement instruments (DNS,
//! crawler, resolvers). The synthetic model's ground truth — who owns which
//! server — is consulted exclusively by functions whose name starts with
//! `validate_`, mirroring how the authors validated against Akamai's
//! published footprint and hand-checked clusters.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::unimplemented,
        clippy::unreachable,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok,
        clippy::disallowed_macros
    )
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyzer;
pub mod baseline;
pub mod bias;
pub mod blindspots;
pub mod census;
pub mod changes;
pub mod cluster;
pub mod hetero;
pub mod http;
pub mod longitudinal;
pub mod report;
pub mod scan;
pub mod snapshot;
pub mod visibility;

pub use analyzer::{Analyzer, StudyReport, WeeklyReport};
pub use census::{ServerCensus, ServerRecord};
pub use scan::{Category, WeekScan};
pub use snapshot::WeeklySnapshot;

/// Run `helper` on a second core beside `caller` on this one, and return
/// both results, the helper's joined. The one two-core mechanism of the
/// crate: checkpoint, restore and report call it. A helper panic is resumed
/// here with its payload. `caller` is taken by value, so if it unwinds,
/// what it owns — a channel end the helper waits on — drops before the
/// join, and the helper wakes to a closed channel instead of hanging.
fn beside<H: Send, C>(helper: impl FnOnce() -> H + Send, caller: impl FnOnce() -> C) -> (H, C) {
    std::thread::scope(|scope| {
        let helper = scope.spawn(helper);
        let caller = caller();
        (helper.join().unwrap_or_else(|e| std::panic::resume_unwind(e)), caller)
    })
}

#[cfg(test)]
mod tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::thread;

    use super::beside;

    #[test]
    fn beside_returns_the_helpers_result_then_the_callers_and_resumes_a_helper_panic() {
        let here = thread::current().id();
        let (helper, caller) = beside(|| thread::current().id(), || thread::current().id());
        assert_eq!((helper == here, caller), (false, here));
        let payload = catch_unwind(|| beside(|| panic!("the helper failed"), || ())).unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the helper failed"));
    }

    /// The caller takes one value and panics, owning the receiver of the
    /// rendezvous channel the helper then blocks on: the receiver drops
    /// before the join, the helper's send fails, and the panic comes out.
    #[test]
    #[allow(clippy::disallowed_methods, reason = "one sender and one receiver per channel")]
    fn a_caller_panic_frees_a_helper_blocked_on_its_channel() {
        let (done_tx, done) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let (tx, rx) = std::sync::mpsc::sync_channel(0);
            let helper = move || tx.send(1).and_then(|()| tx.send(2)).is_err();
            let caller = move || -> () {
                rx.recv().ok();
                panic!("the caller failed")
            };
            let caught = catch_unwind(AssertUnwindSafe(|| beside(helper, caller)));
            done_tx.send(caught.err().and_then(|e| e.downcast_ref::<&str>().copied())).ok();
        });
        let caught = done.recv_timeout(std::time::Duration::from_secs(5));
        assert_eq!(caught, Ok(Some("the caller failed")));
    }
}

/// Shared, lazily built fixtures so the test suite constructs the tiny
/// model / 17-week study exactly once.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::OnceLock;

    use ixp_faults::{FaultConfig, FaultPlan};
    use ixp_netmodel::{InternetModel, Week};

    use crate::analyzer::{Analyzer, StudyReport, WeeklyReport};
    use crate::census::ServerCensus;
    use crate::cluster::Clusters;
    use crate::scan::WeekScan;

    /// The shared tiny model.
    pub(crate) fn model() -> &'static InternetModel {
        static MODEL: OnceLock<InternetModel> = OnceLock::new();
        MODEL.get_or_init(|| InternetModel::tiny(31))
    }

    /// The shared analyzer over the tiny model.
    pub(crate) fn analyzer() -> &'static Analyzer<'static> {
        static ANALYZER: OnceLock<Analyzer<'static>> = OnceLock::new();
        ANALYZER.get_or_init(|| Analyzer::new(model()))
    }

    /// The shared full 17-week study.
    pub(crate) fn study() -> &'static StudyReport {
        static STUDY: OnceLock<StudyReport> = OnceLock::new();
        STUDY.get_or_init(|| analyzer().run_study(8))
    }

    /// The shared reference-week report.
    pub(crate) fn reference() -> &'static WeeklyReport {
        study().reference().unwrap()
    }

    /// The reference week scanned clean and through the hostile fault plan,
    /// each with its census: the inputs the report path's frozen references
    /// are compared on. The plan is a copy of the `hostile` row of
    /// `ixp_bench::scenario`; ixp-bench depends on this crate, so the row
    /// cannot be read from here.
    pub(crate) fn scanned_weeks() -> &'static [(WeekScan, ServerCensus)] {
        static WEEKS: OnceLock<Vec<(WeekScan, ServerCensus)>> = OnceLock::new();
        WEEKS.get_or_init(|| {
            let a = analyzer();
            clean_and_hostile(a)
                .into_iter()
                .map(|scan| {
                    let census = ServerCensus::identify(&scan, a.model, &a.dns, &a.crawl);
                    (scan, census)
                })
                .collect()
        })
    }

    /// An analyzer's reference week scanned clean and through the hostile
    /// fault plan, the plan seeded with the model's seed.
    pub(crate) fn clean_and_hostile(a: &Analyzer<'_>) -> [WeekScan; 2] {
        let hostile = FaultConfig {
            seed: a.model.seed,
            drop: 0.05,
            duplicate: 0.02,
            reorder: 0.02,
            truncate: 0.01,
            corrupt: 0.01,
            restarts: vec![(0, 300)],
            counter_wrap: true,
            ..FaultConfig::default()
        };
        let faulty = FaultPlan::new(a.feed(Week::REFERENCE), hostile);
        [a.scan_week(Week::REFERENCE), a.scan_week_from(Week::REFERENCE, faulty)]
    }

    /// Assert that two values render alike under their derived `Debug`
    /// (every field, floats to the last digit), naming the first line of
    /// the pretty form that differs.
    pub(crate) fn assert_same_debug<T: std::fmt::Debug>(new: &T, old: &T) {
        let (new, old) = (format!("{new:#?}"), format!("{old:#?}"));
        for (n, (new, old)) in new.lines().zip(old.lines()).enumerate() {
            assert_eq!(new, old, "line {n}");
        }
        assert_eq!(new.lines().count(), old.lines().count());
    }

    /// The shared reference-week clustering.
    pub(crate) fn clusters() -> &'static Clusters {
        static CLUSTERS: OnceLock<Clusters> = OnceLock::new();
        CLUSTERS.get_or_init(|| crate::cluster::cluster(reference(), &analyzer().dns))
    }
}
