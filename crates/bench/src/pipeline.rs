//! The supervised pipeline, stated once: a [`Supervisor`] with, when the
//! feed arrives over a transport, a [`TransportIntake`] in front of it.
//! `repro`, the soak runner ([`crate::scenario`]) and the soak and
//! format-pin tests all drive it, so the hand-off, the resume cursor, the
//! kill edge and the paired resume are written here only.

use std::fmt;

use ixp_core::WeekScan;
use ixp_obs::journal::{EventKind, Journal};
use ixp_obs::Obs;
use ixp_sflow::checkpoint::StateError;
use ixp_supervisor::{CheckpointError, Supervisor, SupervisorConfig};
use ixp_transport::{Drained, TransportIntake, TransportMetrics};

/// Peer identity under which the week's sFlow datagrams reach an intake.
pub const SFLOW_PEER: u64 = 0x5F10;

/// The supervisor and the transport intake in front of it, if any.
#[derive(Debug)]
pub struct Pipeline {
    sup: Supervisor,
    intake: Option<TransportIntake>,
}

/// A pipeline's sealed images, as a kill leaves them.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Images {
    /// [`Supervisor::checkpoint`].
    pub checkpoint: Vec<u8>,
    /// [`TransportIntake::save_state`], when an intake is in front.
    pub transport: Option<Vec<u8>>,
}

/// Which image a [`Pipeline::resume`] refused, and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError {
    /// The supervisor's checkpoint.
    Checkpoint(CheckpointError),
    /// The transport intake's saved state.
    Transport(StateError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Checkpoint(e) => write!(f, "supervisor checkpoint refused: {e}"),
            ResumeError::Transport(e) => write!(f, "transport state refused: {e}"),
        }
    }
}

/// The refused image's error is in the message, so it is no `source`.
impl std::error::Error for ResumeError {}

/// Where [`Pipeline::drive`] is in a feed unit when it calls its hook.
#[derive(Debug)]
pub enum Step<'a> {
    /// Feed unit `index` (0-based) is next; setting `stall` holds the drain
    /// stage still while it is offered (an overload burst).
    Before { index: u64, stall: &'a mut bool },
    /// The unit was offered; the supervisor as it left it.
    After(&'a Supervisor),
}

/// Where a killed run's intake image lies beside its checkpoint.
pub fn side_file(checkpoint: &str) -> String {
    format!("{checkpoint}.transport")
}

impl Pipeline {
    /// A pipeline of `sup` behind `intake`, unbound.
    pub fn new(sup: Supervisor, intake: Option<TransportIntake>) -> Pipeline {
        Pipeline { sup, intake }
    }

    /// Bind both stages' metrics into `obs` (publishing their counts so
    /// far, so a resumed run reads as an uninterrupted one) and their
    /// events into `journal`.
    pub fn attach(&mut self, obs: &Obs, journal: &Journal) {
        self.sup.bind_obs(obs);
        self.sup.bind_journal(journal.clone());
        if let Some(intake) = &mut self.intake {
            intake.bind_metrics(TransportMetrics::register(&obs.registry));
            intake.bind_journal(journal.clone());
        }
    }

    /// The supervisor.
    pub fn supervisor(&self) -> &Supervisor {
        &self.sup
    }

    /// The transport intake, if one is in front.
    pub fn intake(&self) -> Option<&TransportIntake> {
        self.intake.as_ref()
    }

    /// Hand the scan to the analysis.
    pub fn into_scan(self) -> WeekScan {
        self.sup.into_scan()
    }

    /// Feed units taken so far, where a resumed run picks the feed up: the
    /// intake's count when one is in front (it differs from the supervisor's
    /// once the intake keeps a unit back), else the supervisor's.
    pub fn cursor(&self) -> u64 {
        self.intake.as_ref().map_or(self.sup.offered(), |intake| intake.stats().offered)
    }

    /// No silent discard in either stage.
    pub fn balances(&self) -> bool {
        self.sup.fully_accounted()
            && self.intake.as_ref().is_none_or(TransportIntake::fully_accounted)
    }

    /// Offer one feed unit from `peer`: straight to the supervisor, or to
    /// the intake, whose drained sFlow datagrams go on to the supervisor.
    pub(crate) fn offer(&mut self, peer: u64, packet: impl AsRef<[u8]> + Into<Vec<u8>>) {
        let Some(intake) = &mut self.intake else { return self.sup.offer(packet.into()) };
        intake.offer(peer, packet.as_ref());
        for unit in intake.drain(usize::MAX) {
            if let Drained::Sflow { datagram, .. } = unit {
                self.sup.offer(datagram);
            }
        }
    }

    /// Offer `feed` from the cursor on, calling `hook` before and after
    /// each unit. Stops before unit `kill_at` (false), or finishes both
    /// stages at the end of the feed (true).
    pub fn drive<P: AsRef<[u8]> + Into<Vec<u8>>>(
        &mut self,
        feed: impl Iterator<Item = (u64, P)>,
        kill_at: Option<u64>,
        mut hook: impl FnMut(Step<'_>),
    ) -> bool {
        let skip = usize::try_from(self.cursor()).unwrap_or(usize::MAX);
        for (peer, packet) in feed.skip(skip) {
            let index = self.cursor();
            if kill_at.is_some_and(|k| index >= k) {
                return false;
            }
            let mut stall = false;
            hook(Step::Before { index, stall: &mut stall });
            self.sup.set_stalled(stall);
            self.offer(peer, packet);
            hook(Step::After(&self.sup));
        }
        self.sup.set_stalled(false);
        self.sup.finish();
        if let Some(intake) = &mut self.intake {
            intake.finish();
        }
        true
    }

    /// Seal both stages' images (sealing publishes the registry).
    pub(crate) fn images(&self) -> Images {
        let transport = self.intake.as_ref().map(TransportIntake::save_state);
        Images { checkpoint: self.sup.checkpoint(), transport }
    }

    /// Kill the run: journal the kill edge — the cursor and the ticks
    /// completed, `sub_agent` 1 with an intake in front and 0 without —
    /// and seal both images.
    pub fn kill(&self) -> Images {
        let (sub_agent, ticks) = (u64::from(self.intake.is_some()), self.sup.stats().ticks);
        self.sup.journal().record(EventKind::Kill, 0, sub_agent, self.cursor(), ticks);
        self.images()
    }

    /// Restore a killed run from its images under `config`, unbound. The
    /// images are hostile input: both restore, or the error names the one
    /// refused (the checkpoint is judged first).
    pub fn resume(images: &Images, config: SupervisorConfig) -> Result<Pipeline, ResumeError> {
        let sup =
            Supervisor::restore(&images.checkpoint, config).map_err(ResumeError::Checkpoint)?;
        let intake = images.transport.as_deref().map(TransportIntake::restore_from);
        Ok(Pipeline { sup, intake: intake.transpose().map_err(ResumeError::Transport)? })
    }
}
