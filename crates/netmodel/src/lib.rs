//! # ixp-netmodel
//!
//! A seeded synthetic Internet, built as the substrate for reproducing
//! *"On the Benefits of Using a Large IXP as an Internet Vantage Point"*
//! (IMC 2013). The real study rests on proprietary sFlow data from one of
//! Europe's largest IXPs; this crate provides the world that data was
//! sampled from, calibrated against every aggregate the paper publishes:
//!
//! * ≈ 43K routed ASes and ≈ 450K routed prefixes (`registry`,
//!   `prefixes`), with an AS-level topology whose distance classes
//!   reproduce Table 3's A(L)/A(M)/A(G) split (`graph`);
//! * a country table with client/server weights shaped for Table 2 and
//!   Fig. 3 (`country`);
//! * an IXP membership of 443→457 ASes with a ≈ 91 %-dense public peering
//!   matrix (`peering`);
//! * ≈ 21K organizations — named archetypes for every player the paper
//!   calls out, plus a power-law tail (`orgs`) — deploying ≈ 1.5M server
//!   IPs *heterogeneously* across third-party ASes (`servers`), with
//!   churn masks that reproduce Fig. 4/5 and the §4.2 events;
//! * a functional client universe (`clients`) and an Alexa-style
//!   popularity list (`popularity`).
//!
//! All sizes live in [`ScaleConfig`]; everything is deterministic in the
//! seed. See `DESIGN.md` at the repository root for the full substitution
//! argument.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clients;
mod country;
mod graph;
pub mod model;
mod orgs;
mod peering;
mod popularity;
mod prefixes;
mod registry;
mod scale;
mod servers;
mod types;

pub use clients::ClientPool;
pub use country::CountryId;
pub use model::InternetModel;
pub use orgs::{Archetype, OrgCatalog, OrgKind, Organization};
pub use peering::PeeringMatrix;
pub use prefixes::RoutingSnapshot;
pub use registry::AsRole;
pub use scale::ScaleConfig;
pub use servers::{Server, ServerFlags, ServiceTag};
pub use types::{Asn, Locality, MemberId, OrgId, Region, Week};
