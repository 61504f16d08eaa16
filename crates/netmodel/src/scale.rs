//! Model scaling.
//!
//! The real ground truth behind the paper (a quarter billion IPs per week)
//! does not fit a laptop-scale reproduction. Every population size therefore
//! lives in a [`ScaleConfig`]; *proportions* — traffic mixes, churn rates,
//! distribution shapes, per-country weights — are scale-invariant, so the
//! pipeline recovers the paper's percentages at any preset, and the absolute
//! counts are reported next to the paper's in EXPERIMENTS.md together with
//! the divisor used.

/// Real-world reference counts from the paper (week 45).
pub(crate) mod paper_counts {
    /// Routed ASes ("ground truth ≈ 43K", observed 42 825).
    pub(crate) const ROUTED_ASES: u32 = 42_825;
    /// Routed prefixes (observed 445 051 of 450K–500K routed).
    pub(crate) const ROUTED_PREFIXES: u32 = 453_000;
    /// Unique IPs seen per week (≈ 232.5M).
    pub(crate) const WEEKLY_IPS: u64 = 232_460_635;
    /// Web-server IPs seen in week 45 (≈ 1.49M).
    pub(crate) const SERVER_IPS: u64 = 1_488_286;
    /// Organizations recovered by clustering (≈ 21K).
    pub(crate) const ORGANIZATIONS: u32 = 21_000;
    /// IXP members at the first week (35).
    pub(crate) const MEMBERS_W35: u32 = 443;
    /// Members at the last week.
    pub(crate) const MEMBERS_W51: u32 = 457;
}

/// All population sizes of the synthetic Internet.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleConfig {
    /// Number of routed ASes.
    pub as_count: u32,
    /// Number of routed prefixes (allocated across the ASes).
    pub prefix_count: u32,
    /// Number of organizations running server infrastructure.
    pub org_count: u32,
    /// Server IPs active in the reference week (the weekly pool fluctuates
    /// around this per the churn model).
    pub server_count: u32,
    /// Size of the client-IP universe (unique client IPs that can appear).
    pub client_universe: u64,
    /// sFlow samples generated per week.
    pub samples_per_week: u64,
    /// IXP members at week 35.
    pub members_start: u32,
    /// IXP members at week 51.
    pub members_end: u32,
    /// The divisor this config was derived with (1 = real scale); purely
    /// informational, echoed into reports.
    pub divisor: u32,
}

impl ScaleConfig {
    /// The smallest divisor [`ScaleConfig::paper`] takes.
    pub const MIN_DIVISOR: u32 = 20;

    /// Minimal model for unit tests: builds in milliseconds.
    pub fn tiny() -> ScaleConfig {
        ScaleConfig {
            as_count: 300,
            prefix_count: 1_500,
            org_count: 48,
            server_count: 1_000,
            client_universe: 9_000,
            samples_per_week: 60_000,
            members_start: 40,
            members_end: 46,
            divisor: 0,
        }
    }

    /// Mid-size model for examples and integration tests (a few seconds).
    pub fn small() -> ScaleConfig {
        ScaleConfig {
            as_count: 2_500,
            prefix_count: 10_000,
            org_count: 320,
            server_count: 5_200,
            client_universe: 80_000,
            samples_per_week: 320_000,
            members_start: 120,
            members_end: 130,
            divisor: 0,
        }
    }

    /// Paper-shaped model: structural counts (ASes, prefixes, members) at
    /// the real values, population counts divided by `divisor`.
    ///
    /// `divisor = 200` gives ≈ 1.2M unique IPs and ≈ 7.5K server IPs per
    /// week and runs the full 17-week study in minutes; smaller divisors
    /// approach the real scale at proportional cost.
    pub fn paper(divisor: u32) -> ScaleConfig {
        assert!(divisor >= Self::MIN_DIVISOR, "divisors under 20 exceed laptop-scale budgets");
        let server_count = (paper_counts::SERVER_IPS / u64::from(divisor)) as u32;
        // Organizations shrink more slowly than servers so that the
        // clustering scatter (Fig. 6) keeps thousands of points: the paper's
        // ratio is ≈ 71 servers per organization at the head of a heavily
        // skewed distribution.
        let org_count =
            (f64::from(paper_counts::ORGANIZATIONS) / f64::from(divisor).powf(0.4)) as u32;
        let client_universe = paper_counts::WEEKLY_IPS / u64::from(divisor);
        // Prefixes shrink gently: the sample budget must be able to touch
        // essentially every routed prefix each week — the Table 1 headline —
        // so the prefix count tracks the population, floored well above the
        // AS count so the allocation stays realistic.
        let prefix_count = (u64::from(paper_counts::ROUTED_PREFIXES) * 10 / u64::from(divisor))
            .clamp(
                u64::from(paper_counts::ROUTED_ASES) * 3 / 2,
                u64::from(paper_counts::ROUTED_PREFIXES),
            ) as u32;
        ScaleConfig {
            as_count: paper_counts::ROUTED_ASES,
            prefix_count,
            org_count: org_count.max(200),
            server_count: server_count.max(2_000),
            client_universe: client_universe.max(50_000),
            // ≈ 4.4 samples per eventually-seen unique IP pair: enough for
            // the weekly snapshot to "see" nearly the whole universe, the
            // property the paper's Table 1 hinges on.
            samples_per_week: (client_universe * 22 / 10).max(200_000),
            members_start: paper_counts::MEMBERS_W35,
            members_end: paper_counts::MEMBERS_W51,
            divisor,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered_by_size() {
        let t = ScaleConfig::tiny();
        let s = ScaleConfig::small();
        let p = ScaleConfig::paper(200);
        assert!(t.server_count < s.server_count);
        assert!(s.server_count < p.server_count);
        assert!(t.client_universe < s.client_universe);
        assert!(s.as_count < p.as_count);
    }

    #[test]
    fn paper_preset_keeps_structural_counts() {
        let p = ScaleConfig::paper(100);
        assert_eq!(p.as_count, paper_counts::ROUTED_ASES);
        assert!(p.prefix_count >= p.as_count * 3 / 2);
        assert!(p.prefix_count <= paper_counts::ROUTED_PREFIXES);
        assert_eq!(p.members_start, 443);
        assert_eq!(p.members_end, 457);
    }

    #[test]
    #[should_panic(expected = "laptop-scale")]
    fn tiny_divisors_are_rejected() {
        let _ = ScaleConfig::paper(1);
    }
}
