//! # ixp-dns
//!
//! The DNS substrate of the `ixp-vantage` reproduction.
//!
//! The paper leans on DNS in three places:
//!
//! * **§2.4 meta-data** — reverse lookups (PTR) give server hostnames; SOA
//!   resource records, resolved iteratively, give the *administrative
//!   authority* behind a name even when no hostname exists;
//! * **§5.1 clustering** — server IPs whose hostname SOA and URI-authority
//!   SOA "lead to the same entry" are grouped in step 1; outsourced DNS
//!   (third-party providers, common among hosters) pushes IPs into the
//!   majority-vote steps 2 and 3;
//! * **§2.3/§3.3 active measurements** — a vetted pool of ≈ 25K open
//!   resolvers in ≈ 12K ASes performs region-aware resolutions that uncover
//!   server IPs the IXP never sees (private clusters, far-away regions).
//!
//! This crate derives all of that behaviour from the ground truth of an
//! [`ixp_netmodel::InternetModel`]: per-organization naming schemata and
//! zones (`names`), the PTR/SOA database (`db`), and the open-resolver
//! population with its failure modes (`resolvers`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod db;
mod names;
mod resolvers;

pub use db::{DnsDb, SoaIdentity, SoaTimeout};
pub use resolvers::ResolverPool;
