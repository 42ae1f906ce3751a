//! Logical-tick arithmetic: the agent's phase clock and the runner's
//! tick budgets. Ticks are not residues, so this module sits outside
//! the machine-arithmetic ban (rule L2) on the agent, its phases and
//! the runner. Every sum saturates at `u64::MAX`, the end of logical
//! time, so no patience, repair horizon or round budget overflows.

/// When the agent's current phase began and how long it may wait (rule
/// L6). The agent holds its clock in a private field, so the phase
/// modules can read no tick and must decide from what arrived.
#[derive(Debug)]
pub(crate) struct PhaseClock {
    /// First tick whose poll counts toward the current phase: `0` at
    /// construction, `act_tick + 1` after each act. Keeping the *entry
    /// tick* instead of a per-poll counter is what lets the event-driven
    /// scheduler skip idle ticks without disturbing patience arithmetic
    /// (see `docs/scheduler.md`).
    entered: u64,
    /// Ticks a phase may wait for its inputs before acting on whatever
    /// arrived; at least `1`.
    patience: u64,
}

impl PhaseClock {
    /// A clock at tick `0`; `patience` is clamped to at least `1`.
    pub(crate) fn new(patience: u64) -> Self {
        PhaseClock {
            entered: 0,
            patience: patience.max(1),
        }
    }

    /// Starts the next phase after an act at `now`.
    pub(crate) fn enter(&mut self, now: u64) {
        self.entered = later(now, 1);
    }

    /// Ticks the current phase has waited, counting `now` — what a
    /// counter bumped by a poll-every-tick scheduler would read. `0`
    /// for a tick before the phase began.
    pub(crate) fn waited(&self, now: u64) -> u64 {
        later(now, 1).saturating_sub(self.entered)
    }

    /// `true` when the phase has waited out its patience at `now`.
    pub(crate) fn expired(&self, now: u64) -> bool {
        self.waited(now) >= self.patience
    }

    /// The next tick at which a poll could act: the phase's first tick
    /// when its inputs are already `ready`, else the tick its patience
    /// expires.
    pub(crate) fn wake(&self, ready: bool) -> u64 {
        if ready {
            self.entered
        } else {
            later(self.entered, self.patience - 1)
        }
    }
}

/// `ticks` after `tick`.
pub(crate) fn later(tick: u64, ticks: u64) -> u64 {
    tick.saturating_add(ticks)
}

/// `times` back-to-back spans of `ticks`.
pub(crate) fn spans(ticks: u64, times: u64) -> u64 {
    ticks.saturating_mul(times)
}
