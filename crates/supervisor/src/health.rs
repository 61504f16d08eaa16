//! Per-agent health states, driven by the supervisor's watchdog.
//!
//! Every `(agent, sub_agent)` source moves through a small state machine
//! evaluated once per supervisor tick from the *deltas* of the collector's
//! sequence accounting:
//!
//! ```text
//!            dirty tick                 severe tick
//! Healthy ──────────────▶ Degraded ──────────────────▶ Quarantined
//!    ▲                        │   ▲                        │
//!    │   recover_ticks clean  │   │ dirty tick             │ clean tick
//!    └──────── Recovering ◀───┘   └──── Recovering ◀───────┘
//! ```
//!
//! * a **dirty** tick saw sequence loss above the policy's loss budget or
//!   any decode errors;
//! * a **severe** tick saw the collector's garbage quarantine fire or a
//!   decode-error burst at or above `severe_errors`;
//! * a clean tick moves a sick agent to *Recovering*; after
//!   `recover_ticks` consecutive clean ticks it is *Healthy* again. Any
//!   dirty tick during recovery falls straight back.

use ixp_sflow::checkpoint::{self, Cur, StateError};

/// The watchdog's verdict on one agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// No loss, no decode errors.
    #[default]
    Healthy,
    /// Recent loss or decode errors above the policy budget.
    Degraded,
    /// The collector quarantined the source, or an error burst hit the
    /// severe threshold.
    Quarantined,
    /// Clean again, but not yet for `recover_ticks` consecutive ticks.
    Recovering,
}

impl HealthState {
    /// All states, in [`HealthState::index`] order.
    pub(crate) const ALL: [HealthState; 4] = [
        HealthState::Healthy,
        HealthState::Degraded,
        HealthState::Quarantined,
        HealthState::Recovering,
    ];

    /// Dense index for per-state arrays (gauges, transition counters).
    pub(crate) fn index(&self) -> usize {
        match self {
            HealthState::Healthy => 0,
            HealthState::Degraded => 1,
            HealthState::Quarantined => 2,
            HealthState::Recovering => 3,
        }
    }

    /// Metric label.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthState::Healthy => "healthy",
            HealthState::Degraded => "degraded",
            HealthState::Quarantined => "quarantined",
            HealthState::Recovering => "recovering",
        }
    }

    fn from_index(i: u8) -> Result<HealthState, StateError> {
        HealthState::ALL
            .get(usize::from(i))
            .copied()
            .ok_or(StateError::Invalid("health state index out of range"))
    }
}

/// Thresholds the watchdog judges each tick against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// A tick is dirty when `lost / (received + lost)` exceeds this
    /// many per-mille (default 100‰ = 10 %), or any decode error landed.
    pub loss_permille: u64,
    /// Decode errors in one tick at or above this count are severe.
    pub severe_errors: u64,
    /// Consecutive clean ticks required to leave `Recovering`.
    pub recover_ticks: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy { loss_permille: 100, severe_errors: 8, recover_ticks: 3 }
    }
}

/// What one agent did during one tick (deltas of its collector stats).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TickDelta {
    /// Datagrams accepted this tick.
    pub received: u64,
    /// Net new sequence loss this tick.
    pub lost: u64,
    /// Decode errors attributed to the agent this tick.
    pub decode_errors: u64,
    /// True if the collector's garbage quarantine has flagged the source.
    pub quarantined: bool,
}

impl TickDelta {
    fn severe(&self, policy: &HealthPolicy) -> bool {
        self.quarantined || self.decode_errors >= policy.severe_errors.max(1)
    }

    fn dirty(&self, policy: &HealthPolicy) -> bool {
        if self.decode_errors > 0 {
            return true;
        }
        let expected = self.received.saturating_add(self.lost);
        expected > 0
            && self.lost.saturating_mul(1000) > expected.saturating_mul(policy.loss_permille)
    }
}

/// One agent's position in the health state machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct AgentHealth {
    state: HealthState,
    clean_ticks: u32,
}

impl AgentHealth {
    /// Current state.
    pub(crate) fn state(&self) -> HealthState {
        self.state
    }

    /// Advance the state machine by one tick. Returns the new state if a
    /// transition happened.
    pub(crate) fn observe(
        &mut self,
        delta: &TickDelta,
        policy: &HealthPolicy,
    ) -> Option<HealthState> {
        let next = if delta.severe(policy) {
            self.clean_ticks = 0;
            HealthState::Quarantined
        } else if delta.dirty(policy) {
            self.clean_ticks = 0;
            // Quarantine is sticky while the stream stays dirty: a merely
            // dirty tick does not promote a quarantined agent.
            if self.state == HealthState::Quarantined {
                HealthState::Quarantined
            } else {
                HealthState::Degraded
            }
        } else {
            match self.state {
                HealthState::Healthy => HealthState::Healthy,
                HealthState::Degraded | HealthState::Quarantined => {
                    self.clean_ticks = 1;
                    HealthState::Recovering
                }
                HealthState::Recovering => {
                    self.clean_ticks = self.clean_ticks.saturating_add(1);
                    if self.clean_ticks >= policy.recover_ticks.max(1) {
                        HealthState::Healthy
                    } else {
                        HealthState::Recovering
                    }
                }
            }
        };
        let transition = (next != self.state).then_some(next);
        self.state = next;
        transition
    }

    /// Serialize (state index + clean-tick counter).
    pub(crate) fn save(&self, out: &mut Vec<u8>) {
        checkpoint::put_u8(out, self.state.index() as u8);
        checkpoint::put_u32(out, self.clean_ticks);
    }

    /// Restore from [`AgentHealth::save`] bytes.
    pub(crate) fn restore(cur: &mut Cur<'_>) -> Result<AgentHealth, StateError> {
        let state = HealthState::from_index(cur.u8()?)?;
        let clean_ticks = cur.u32()?;
        Ok(AgentHealth { state, clean_ticks })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> TickDelta {
        TickDelta { received: 100, ..TickDelta::default() }
    }

    fn lossy() -> TickDelta {
        TickDelta { received: 50, lost: 50, ..TickDelta::default() }
    }

    #[test]
    fn healthy_degrades_on_loss_and_recovers_after_clean_ticks() {
        let policy = HealthPolicy::default();
        let mut h = AgentHealth::default();
        assert_eq!(h.observe(&clean(), &policy), None);
        assert_eq!(h.observe(&lossy(), &policy), Some(HealthState::Degraded));
        assert_eq!(h.observe(&clean(), &policy), Some(HealthState::Recovering));
        assert_eq!(h.observe(&clean(), &policy), None); // still recovering
        assert_eq!(h.observe(&clean(), &policy), Some(HealthState::Healthy));
    }

    #[test]
    fn dirty_tick_during_recovery_falls_back() {
        let policy = HealthPolicy::default();
        let mut h = AgentHealth::default();
        h.observe(&lossy(), &policy);
        h.observe(&clean(), &policy);
        assert_eq!(h.state(), HealthState::Recovering);
        assert_eq!(h.observe(&lossy(), &policy), Some(HealthState::Degraded));
    }

    #[test]
    fn severe_errors_quarantine_and_quarantine_is_sticky_while_dirty() {
        let policy = HealthPolicy::default();
        let mut h = AgentHealth::default();
        let burst = TickDelta { decode_errors: 8, ..TickDelta::default() };
        assert_eq!(h.observe(&burst, &policy), Some(HealthState::Quarantined));
        // A merely dirty tick keeps it quarantined, not degraded.
        let trickle = TickDelta { received: 10, decode_errors: 1, ..TickDelta::default() };
        assert_eq!(h.observe(&trickle, &policy), None);
        assert_eq!(h.state(), HealthState::Quarantined);
        // Clean ticks walk it out through Recovering.
        assert_eq!(h.observe(&clean(), &policy), Some(HealthState::Recovering));
    }

    #[test]
    fn loss_below_budget_is_not_dirty() {
        let policy = HealthPolicy::default();
        let mut h = AgentHealth::default();
        // 5 % loss < 10 % budget.
        let mild = TickDelta { received: 95, lost: 5, ..TickDelta::default() };
        assert_eq!(h.observe(&mild, &policy), None);
        assert_eq!(h.state(), HealthState::Healthy);
    }

    #[test]
    fn idle_tick_is_clean() {
        let policy = HealthPolicy::default();
        let mut h = AgentHealth::default();
        h.observe(&lossy(), &policy);
        // No traffic at all counts as clean (the agent may be idle).
        assert_eq!(h.observe(&TickDelta::default(), &policy), Some(HealthState::Recovering));
    }

    #[test]
    fn save_restore_round_trips_every_state() {
        let policy = HealthPolicy::default();
        for seed in [0usize, 1, 2, 3, 4] {
            let mut h = AgentHealth::default();
            // Walk into a different state per seed.
            for _ in 0..seed {
                h.observe(&lossy(), &policy);
                h.observe(&clean(), &policy);
            }
            let mut out = Vec::new();
            h.save(&mut out);
            let mut cur = Cur::new(&out);
            let r = AgentHealth::restore(&mut cur).expect("restore");
            assert!(cur.finish().is_ok());
            assert_eq!(r, h);
        }
        let mut cur = Cur::new(&[9u8, 0, 0, 0, 0]);
        assert!(AgentHealth::restore(&mut cur).is_err());
    }
}
