//! The `ixp-bench` reproduction harness: the two binaries under `src/bin`
//! (`repro`, `flowgen`), and as its library the one supervised pipeline
//! ([`pipeline`]) that `repro` and the soaks drive, the soak scenario table
//! ([`scenario`]) that `repro --exp faults|chaos` and the root package's soak
//! tests both read, and the `--scale` parser both binaries share.

pub mod pipeline;
pub mod scenario;

use ixp_netmodel::ScaleConfig;

/// Parse a `--scale` value: `tiny`, `small` or `paper:<divisor>` (from the minimum divisor on).
pub fn parse_scale(name: &str) -> Option<ScaleConfig> {
    match name {
        "tiny" => Some(ScaleConfig::tiny()),
        "small" => Some(ScaleConfig::small()),
        other => Some(other.strip_prefix("paper:")?.parse().ok()?)
            .filter(|d| *d >= ScaleConfig::MIN_DIVISOR)
            .map(ScaleConfig::paper),
    }
}

#[cfg(test)]
mod tests {
    use super::parse_scale;
    use ixp_netmodel::ScaleConfig;

    /// The two named scales, and `paper:<divisor>` from the minimum divisor
    /// on; anything else is no scale.
    #[test]
    fn parse_scale_takes_the_named_scales_and_paper_from_the_minimum_divisor() {
        for (name, scale) in [
            ("tiny", ScaleConfig::tiny()),
            ("small", ScaleConfig::small()),
            ("paper:20", ScaleConfig::paper(20)),
            ("paper:400", ScaleConfig::paper(400)),
        ] {
            assert_eq!(parse_scale(name), Some(scale), "{name}");
        }
        for name in ["paper:19", "paper:10", "paper:", "paper:x", "large"] {
            assert_eq!(parse_scale(name), None, "{name}");
        }
    }
}
