//! Buffer scheduling policies for streams feeding replicated filters
//! (paper §4.1).

use serde::{Deserialize, Serialize};

/// How buffers written to a stream are distributed among the consumer
/// filter's copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulePolicy {
    /// Transparent copies, round-robin: "the scheduler assigns data to each
    /// transparent filter in turn. Thus, each transparent filter receives
    /// roughly the same amount of data to process."
    RoundRobin,
    /// Transparent copies, demand-driven: "the DataCutter scheduler assigns
    /// the distribution based on the buffer consumption rate of the
    /// transparent filter copies", i.e. buffers go "to the transparent
    /// filter copies that can process them the fastest."
    DemandDriven,
    /// Explicit copies with deterministic routing: copy `tag % n_copies`
    /// receives the buffer. Used where "assignment of data chunks to filter
    /// copies in a user-defined way is required" — e.g. pieces of the same
    /// RFR-to-IIC chunk must all reach the same IIC copy.
    ByTagModulo,
}

impl SchedulePolicy {
    /// Whether the policy needs one private queue per consumer copy
    /// (`true`) or a single shared queue all copies pull from (`false`).
    ///
    /// Demand-driven is realized as a shared queue: whichever copy is free
    /// takes the next buffer, which is exactly "send to whoever consumes
    /// fastest" without a central scheduler.
    pub const fn uses_private_queues(self) -> bool {
        !matches!(self, SchedulePolicy::DemandDriven)
    }

    /// Where a buffer with tag `tag` goes, given the producer's running
    /// sequence number `seq` on this stream.
    pub fn route(self, seq: u64, tag: u64, n_copies: usize) -> Route {
        match self {
            SchedulePolicy::RoundRobin => Route::One((seq % n_copies as u64) as usize),
            SchedulePolicy::ByTagModulo => Route::One((tag % n_copies as u64) as usize),
            SchedulePolicy::DemandDriven => Route::Shared,
        }
    }
}

/// Routing decision for one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Deliver to the given consumer copy.
    One(usize),
    /// Push onto the shared demand-driven queue.
    Shared,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let p = SchedulePolicy::RoundRobin;
        let got: Vec<Route> = (0..6).map(|s| p.route(s, 999, 3)).collect();
        assert_eq!(
            got,
            vec![
                Route::One(0),
                Route::One(1),
                Route::One(2),
                Route::One(0),
                Route::One(1),
                Route::One(2)
            ]
        );
    }

    #[test]
    fn tag_modulo_ignores_sequence() {
        let p = SchedulePolicy::ByTagModulo;
        assert_eq!(p.route(0, 7, 4), Route::One(3));
        assert_eq!(p.route(99, 7, 4), Route::One(3));
        assert_eq!(p.route(0, 8, 4), Route::One(0));
    }

    #[test]
    fn demand_driven_shares_one_queue() {
        assert_eq!(SchedulePolicy::DemandDriven.route(0, 0, 2), Route::Shared);
        assert!(!SchedulePolicy::DemandDriven.uses_private_queues());
        assert!(SchedulePolicy::RoundRobin.uses_private_queues());
    }
}
