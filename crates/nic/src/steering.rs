//! Accelerated Receive Flow Steering: the per-PF table mapping flows to
//! receive queues (§2.3).
//!
//! "Modern NICs support Accelerated Receive Flow Steering (ARFS) by
//! (1) providing the OS with an API that allows it to associate networking
//! flows with Rx queues, and by (2) steering incoming packets accordingly."
//! Entries expire if unused, mirroring the kernel worker that "periodically
//! search[es] for expired rules and delete[s] them" (§4.2).

use simcore::{Dur, FxHashMap, Time};

use crate::device::QueueId;
use crate::flow::FlowTuple;

#[derive(Debug, Clone, Copy)]
struct Rule {
    queue: QueueId,
    last_hit: Time,
}

/// One PF's ARFS table.
#[derive(Debug, Clone)]
pub struct ArfsTable {
    rules: FxHashMap<FlowTuple, Rule>,
    expiry: Dur,
    hits: u64,
    misses: u64,
}

impl ArfsTable {
    /// Creates a table whose unused rules expire after `expiry`.
    pub fn new(expiry: Dur) -> Self {
        ArfsTable {
            rules: FxHashMap::default(),
            expiry,
            hits: 0,
            misses: 0,
        }
    }

    /// Installs or updates a flow → queue rule.
    pub fn install(&mut self, now: Time, flow: FlowTuple, queue: QueueId) {
        self.rules.insert(
            flow,
            Rule {
                queue,
                last_hit: now,
            },
        );
    }

    /// Removes a rule; returns the queue it pointed at, if present.
    pub fn remove(&mut self, flow: &FlowTuple) -> Option<QueueId> {
        self.rules.remove(flow).map(|r| r.queue)
    }

    /// Looks up the queue for an arriving packet, refreshing the rule's
    /// last-hit time. `None` means "fall back to RSS".
    pub fn steer(&mut self, now: Time, flow: &FlowTuple) -> Option<QueueId> {
        match self.rules.get_mut(flow) {
            Some(r) => {
                r.last_hit = now;
                self.hits += 1;
                Some(r.queue)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Drops rules idle longer than the expiry period; returns how many were
    /// removed.
    pub fn expire(&mut self, now: Time) -> usize {
        let expiry = self.expiry;
        let before = self.rules.len();
        #[expect(
            clippy::disallowed_methods,
            reason = "order-independent: the predicate is pure, so the surviving set does not depend on visit order"
        )]
        self.rules.retain(|_, r| now.since(r.last_hit) < expiry);
        before - self.rules.len()
    }

    /// Installed rule count.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Lookup hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(port: u16) -> FlowTuple {
        FlowTuple::tcp(10, port, 20, 80)
    }

    #[test]
    fn install_then_steer() {
        let mut t = ArfsTable::new(Dur::from_ms(100));
        t.install(Time::ZERO, flow(1), QueueId(3));
        assert_eq!(t.steer(Time::ZERO, &flow(1)), Some(QueueId(3)));
        assert_eq!(t.steer(Time::ZERO, &flow(2)), None);
        assert_eq!(t.hits(), 1);
        assert_eq!(t.misses(), 1);
    }

    #[test]
    fn update_moves_flow() {
        let mut t = ArfsTable::new(Dur::from_ms(100));
        t.install(Time::ZERO, flow(1), QueueId(0));
        t.install(Time::from_ms(1), flow(1), QueueId(5));
        assert_eq!(t.steer(Time::from_ms(2), &flow(1)), Some(QueueId(5)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn expiry_removes_idle_rules() {
        let mut t = ArfsTable::new(Dur::from_ms(10));
        t.install(Time::ZERO, flow(1), QueueId(0));
        t.install(Time::ZERO, flow(2), QueueId(1));
        // Keep flow 1 warm.
        t.steer(Time::from_ms(8), &flow(1));
        assert_eq!(t.expire(Time::from_ms(15)), 1);
        assert!(t.steer(Time::from_ms(15), &flow(1)).is_some());
        assert!(t.steer(Time::from_ms(15), &flow(2)).is_none());
    }

    #[test]
    fn remove_returns_queue() {
        let mut t = ArfsTable::new(Dur::from_ms(10));
        t.install(Time::ZERO, flow(1), QueueId(2));
        assert_eq!(t.remove(&flow(1)), Some(QueueId(2)));
        assert_eq!(t.remove(&flow(1)), None);
        assert!(t.is_empty());
    }

    #[test]
    fn steer_refreshes_recency() {
        let mut t = ArfsTable::new(Dur::from_ms(10));
        t.install(Time::ZERO, flow(1), QueueId(0));
        for ms in (2..30).step_by(2) {
            assert!(t.steer(Time::from_ms(ms), &flow(1)).is_some());
            t.expire(Time::from_ms(ms));
        }
        assert_eq!(t.len(), 1, "continuously used rule survives");
    }
}
