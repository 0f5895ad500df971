//! The follower's lag clock: the `Δ` of the `2·v_max·Δ` widening on
//! follower-served answers (DESIGN §15).
//!
//! `Δ` is the Age of Information of the replica's state: how long ago a
//! contact with the upstream — an applied run or a heartbeat — last found
//! the applied watermark at the upstream's frontier. Every write the
//! leader took since may be missing here, so that age, not the time the
//! replica has *noticed* itself behind, bounds its staleness. A caught-up
//! replica whose upstream goes silent therefore widens its answers by the
//! length of the silence.
//!
//! One allowance: a replica counts as current for
//! [`LagClock::CONTACT_WINDOW`] after a contact that found it caught up,
//! so that a quiet follower of a live leader (which heartbeats well
//! inside the window) answers bit-identically to the leader. The clock is
//! a value driven by the caller's `now`, with no I/O and no clock of its
//! own.

use std::time::{Duration, Instant};

/// A replica's lag clock (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LagClock {
    /// The last contact that found the watermark at the upstream
    /// frontier; the replica's opening before the first.
    current_at: Instant,
    /// The latest contact found the watermark behind the frontier (and
    /// so does a replica nothing has contacted yet).
    behind: bool,
}

impl LagClock {
    /// How long after a contact that found it caught up a replica counts
    /// as current: five heartbeats at the leader's fixed 100 ms cadence,
    /// so a quiet follower of a live leader never widens between
    /// heartbeats.
    pub const CONTACT_WINDOW: Duration = Duration::from_millis(500);

    /// The clock of a replica opened at `now` that nothing has contacted
    /// yet: it counts from `now`, with no window.
    pub fn new(now: Instant) -> Self {
        LagClock {
            current_at: now,
            behind: true,
        }
    }

    /// Records a contact at `now` that left the watermark at `applied`
    /// while the upstream's frontier was last known to be `frontier`. A
    /// contact that finds the watermark at the frontier restarts the
    /// clock from `now`; one that finds it behind leaves it running from
    /// the last such contact.
    pub fn contact(&mut self, applied: u64, frontier: u64, now: Instant) {
        self.behind = applied < frontier;
        if !self.behind {
            self.current_at = now;
        }
    }

    /// `Δ` at `now`: zero while the last contact found the replica
    /// caught up and is no older than the window, the age of the last
    /// caught-up contact otherwise.
    pub fn lag_at(&self, now: Instant) -> Duration {
        let age = now.saturating_duration_since(self.current_at);
        if !self.behind && age <= Self::CONTACT_WINDOW {
            Duration::ZERO
        } else {
            age
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WINDOW: Duration = LagClock::CONTACT_WINDOW;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Caught up, then silent: a replica that hears nothing after
    /// catching up ages with the silence, past the window, instead of
    /// reading zero until some contact shows the leader ahead.
    #[test]
    fn a_caught_up_replica_whose_upstream_goes_silent_ages() {
        let t0 = Instant::now();
        let mut clock = LagClock::new(t0);
        clock.contact(10, 10, t0);
        assert_eq!(clock.lag_at(t0), Duration::ZERO);
        assert_eq!(
            clock.lag_at(t0 + WINDOW),
            Duration::ZERO,
            "inside the window"
        );
        for silence in [WINDOW + ms(1), ms(2_000), ms(60_000)] {
            assert_eq!(clock.lag_at(t0 + silence), silence);
        }
        // A heartbeat breaking the silence restarts it.
        clock.contact(10, 10, t0 + ms(60_000));
        assert_eq!(clock.lag_at(t0 + ms(60_100)), Duration::ZERO);
    }

    /// Behind, the clock counts from the last caught-up contact, with no
    /// window, and keeps counting until a contact finds it caught up.
    #[test]
    fn a_replica_behind_ages_from_its_last_caught_up_contact() {
        let t0 = Instant::now();
        let mut clock = LagClock::new(t0);
        assert_eq!(
            clock.lag_at(t0 + ms(40)),
            ms(40),
            "nothing heard since opening"
        );
        clock.contact(10, 10, t0 + ms(100));
        clock.contact(10, 15, t0 + ms(110));
        assert_eq!(clock.lag_at(t0 + ms(120)), ms(20));
        clock.contact(12, 15, t0 + ms(300));
        assert_eq!(clock.lag_at(t0 + ms(400)), ms(300));
        clock.contact(15, 15, t0 + ms(450));
        assert_eq!(clock.lag_at(t0 + ms(460)), Duration::ZERO);
        // A reading taken before the contact it follows never goes negative.
        assert_eq!(clock.lag_at(t0), Duration::ZERO);
    }
}
