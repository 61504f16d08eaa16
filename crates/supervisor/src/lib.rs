//! ixp-supervisor: checkpointed crash recovery and bounded-queue
//! backpressure around the ingest pipeline.
//!
//! The analysis pipeline in `ixp-core` assumes it runs to completion; a
//! real multi-day collection at an IXP does not get that luxury. This
//! crate wraps a week's [`WeekScan`](ixp_core::WeekScan) in a
//! [`Supervisor`] that adds the three properties a long-running collector
//! needs:
//!
//! * **Crash recovery** — [`Supervisor::checkpoint`] serializes the whole
//!   pipeline (supervisor counters, queued datagrams, per-agent health,
//!   and the nested collector/scan state) into a sealed, checksummed,
//!   versioned image; [`Supervisor::restore`] rebuilds it. A run killed at
//!   any datagram boundary and resumed from its checkpoint produces a
//!   byte-identical weekly report and metrics snapshot.
//! * **Backpressure** — arrivals pass through a bounded [`IntakeRing`]
//!   with an explicit shed-newest policy; every shed is counted into the
//!   scan's `IngestHealth`, extending the no-silent-discard invariant to
//!   `ingested = accepted + duplicates + errors + shed`.
//! * **Supervision** — a deterministic watchdog ticks every
//!   `arrivals_per_tick` datagrams, enforces the drain stage's deadline
//!   budget, and drives each `(agent, sub_agent)` source through a
//!   Healthy / Degraded / Quarantined / Recovering state machine.
//!
//! Everything is counted rather than timed, so supervised runs stay pure
//! functions of their input stream — which is what makes the kill/resume
//! byte-identity gate in `tests/chaos_soak.rs` possible at all.

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

pub mod envelope;
mod health;
mod ring;
pub mod supervisor;

pub use envelope::CheckpointError;
pub use health::HealthPolicy;
pub use ring::IntakeRing;
pub use supervisor::{Supervisor, SupervisorConfig, SupervisorStats, SUPERVISOR_STATE_VERSION};
