//! # ixp-cert
//!
//! The X.509/HTTPS substrate of the `ixp-vantage` reproduction.
//!
//! §2.2.2 of the paper identifies HTTPS servers by a mixed passive/active
//! method: port-443 traffic nominates *candidate* IPs, each candidate is
//! crawled for its certificate chain, and a six-check validation pipeline
//! decides whether the IP really is a commercial HTTPS server:
//!
//! 1. **certificate subject** — a valid domain with a valid ccSLD
//!    (publicsuffix-style check),
//! 2. **alternative names** — same validity requirements,
//! 3. **key usage** — must indicate a (Web) server role,
//! 4. **certificate chain** — the delivered certificates must reference
//!    each other in order up to a root in the local trust store,
//! 5. **validity time** — every certificate valid at fetch time,
//! 6. **stability over time** — repeated crawls must agree (cloud IPs
//!    "change their role very quickly and frequently").
//!
//! The funnel the paper reports — ≈ 1.5M candidates → ≈ 500K responders →
//! ≈ 250K validated HTTPS servers — emerges from the model: port-443
//! impostors (SSH/VPN behind firewall-friendly ports) never answer TLS,
//! non-HTTPS servers refuse, HTTPS servers present chains of which a
//! calibrated fraction is broken (expired, self-signed, shuffled chain,
//! bogus subject, wrong key usage), and role-flipping cloud IPs fail the
//! stability check.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crawl;
pub mod validate;
pub mod x509;

pub use crawl::{CrawlResult, CrawlSim};
pub use validate::{validate_chain, validate_fetches, ValidationError};
pub use x509::{Chain, RootStore};
