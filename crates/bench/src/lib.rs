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
