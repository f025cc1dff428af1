//! The multi-PF Ethernet switch (MPFS) integrated in the NIC.
//!
//! With standard firmware the MPFS "steers incoming traffic to PFs based on
//! their target MAC address" (§4.1) — each PF is a separate logical NIC.
//! The octoNIC firmware replaces the MAC lookup with a flow-5-tuple lookup
//! (IOctoRFS): "we modify the MPFS to map packets to a PF based on their
//! flow 5-tuple instead of the MAC address."

use pcie::PfId;
use simcore::FxHashMap;

use crate::flow::{FlowTuple, MacAddr};

/// Which steering logic the firmware runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SteeringMode {
    /// Standard firmware: one MAC per PF; packets go to the PF owning their
    /// destination MAC.
    MacBased,
    /// OctoNIC firmware (IOctoRFS): one MAC for the whole device; packets go
    /// to the PF their flow was bound to, defaulting to `default_pf`.
    FlowBased,
}

/// The multi-PF switch state.
#[derive(Debug, Clone)]
pub struct Mpfs {
    mode: SteeringMode,
    macs: FxHashMap<MacAddr, PfId>,
    flows: FxHashMap<FlowTuple, PfId>,
    default_pf: PfId,
    updates: u64,
}

impl Mpfs {
    /// Creates a switch in the given mode; `default_pf` catches unmatched
    /// traffic.
    pub fn new(mode: SteeringMode, default_pf: PfId) -> Self {
        Mpfs {
            mode,
            macs: FxHashMap::default(),
            flows: FxHashMap::default(),
            default_pf,
            updates: 0,
        }
    }

    /// The active steering mode.
    pub fn mode(&self) -> SteeringMode {
        self.mode
    }

    /// Registers a PF's MAC (standard firmware).
    pub fn register_mac(&mut self, mac: MacAddr, pf: PfId) {
        self.macs.insert(mac, pf);
    }

    /// Installs or moves a flow → PF rule (IOctoRFS). This is the operation
    /// the octoNIC driver performs from its ARFS callback when a process
    /// migrates to a CPU on another socket (§4.2 "Receive").
    pub fn install_flow(&mut self, flow: FlowTuple, pf: PfId) {
        self.updates += 1;
        self.flows.insert(flow, pf);
    }

    /// Removes a flow rule (rule expiry).
    pub fn remove_flow(&mut self, flow: &FlowTuple) -> Option<PfId> {
        self.flows.remove(flow)
    }

    /// The PF unmatched traffic currently falls back to.
    pub fn default_pf(&self) -> PfId {
        self.default_pf
    }

    /// Redirects unmatched traffic (failover moves the default off a dead
    /// PF and back after recovery).
    pub fn set_default_pf(&mut self, pf: PfId) {
        self.default_pf = pf;
    }

    /// Number of flow rules currently steering to `pf`.
    #[expect(
        clippy::disallowed_methods,
        reason = "order-independent: only counts matching rules"
    )]
    pub fn flows_on(&self, pf: PfId) -> usize {
        self.flows.values().filter(|&&p| p == pf).count()
    }

    /// Re-points every flow rule on `from` to `to` — the firmware half of
    /// PF failover: a dead PF's steering entries migrate to a survivor so
    /// its flows keep landing somewhere. Returns the number of rules moved.
    ///
    /// Rules are rewritten in sorted 5-tuple order: the flow table is a
    /// hash map, and iterating it directly would make the update sequence
    /// (and anything seeded from it) nondeterministic across runs.
    pub fn resteer(&mut self, from: PfId, to: PfId) -> usize {
        #[expect(
            clippy::disallowed_methods,
            reason = "order-independent: collects the matching tuples, sorted below"
        )]
        let mut moved: Vec<FlowTuple> = self
            .flows
            .iter()
            .filter(|&(_, &p)| p == from)
            .map(|(f, _)| *f)
            .collect();
        moved.sort_unstable();
        for f in &moved {
            self.updates += 1;
            self.flows.insert(*f, to);
        }
        moved.len()
    }

    /// Steers an arriving packet to a PF.
    pub fn steer(&self, dst_mac: MacAddr, flow: &FlowTuple) -> PfId {
        match self.mode {
            SteeringMode::MacBased => *self.macs.get(&dst_mac).unwrap_or(&self.default_pf),
            SteeringMode::FlowBased => *self.flows.get(flow).unwrap_or(&self.default_pf),
        }
    }

    /// Number of installed flow rules.
    pub fn flow_rules(&self) -> usize {
        self.flows.len()
    }

    /// Total flow-rule updates ever applied (diagnostics; the paper's
    /// prototype applies these "asynchronously by a separate kernel worker
    /// thread").
    pub fn updates(&self) -> u64 {
        self.updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(port: u16) -> FlowTuple {
        FlowTuple::tcp(10, port, 20, 80)
    }

    #[test]
    fn mac_based_steers_by_mac() {
        let mut m = Mpfs::new(SteeringMode::MacBased, PfId(0));
        m.register_mac(MacAddr::local_admin(0), PfId(0));
        m.register_mac(MacAddr::local_admin(1), PfId(1));
        assert_eq!(m.steer(MacAddr::local_admin(1), &flow(1)), PfId(1));
        assert_eq!(m.steer(MacAddr::local_admin(0), &flow(1)), PfId(0));
        // Unknown MAC falls back.
        assert_eq!(m.steer(MacAddr::local_admin(9), &flow(1)), PfId(0));
    }

    #[test]
    fn mac_based_ignores_flow_rules() {
        let mut m = Mpfs::new(SteeringMode::MacBased, PfId(0));
        m.register_mac(MacAddr::local_admin(0), PfId(0));
        m.install_flow(flow(1), PfId(1));
        assert_eq!(m.steer(MacAddr::local_admin(0), &flow(1)), PfId(0));
    }

    #[test]
    fn flow_based_steers_by_tuple() {
        let mut m = Mpfs::new(SteeringMode::FlowBased, PfId(0));
        m.install_flow(flow(1), PfId(1));
        let mac = MacAddr::local_admin(0);
        assert_eq!(m.steer(mac, &flow(1)), PfId(1));
        assert_eq!(m.steer(mac, &flow(2)), PfId(0), "miss -> default");
    }

    #[test]
    fn flow_rule_moves_on_migration() {
        let mut m = Mpfs::new(SteeringMode::FlowBased, PfId(0));
        m.install_flow(flow(1), PfId(0));
        m.install_flow(flow(1), PfId(1));
        assert_eq!(m.steer(MacAddr::local_admin(0), &flow(1)), PfId(1));
        assert_eq!(m.flow_rules(), 1);
        assert_eq!(m.updates(), 2);
    }

    #[test]
    fn resteer_moves_all_rules_off_a_pf() {
        let mut m = Mpfs::new(SteeringMode::FlowBased, PfId(0));
        m.install_flow(flow(1), PfId(0));
        m.install_flow(flow(2), PfId(0));
        m.install_flow(flow(3), PfId(1));
        let before = m.updates();
        assert_eq!(m.resteer(PfId(0), PfId(1)), 2);
        assert_eq!(m.flows_on(PfId(0)), 0);
        assert_eq!(m.flows_on(PfId(1)), 3);
        assert_eq!(m.updates(), before + 2);
        // Nothing left to move.
        assert_eq!(m.resteer(PfId(0), PfId(1)), 0);
    }

    #[test]
    fn default_pf_redirects() {
        let mut m = Mpfs::new(SteeringMode::FlowBased, PfId(0));
        assert_eq!(m.default_pf(), PfId(0));
        m.set_default_pf(PfId(1));
        assert_eq!(m.steer(MacAddr::local_admin(0), &flow(9)), PfId(1));
    }

    #[test]
    fn remove_flow_rule() {
        let mut m = Mpfs::new(SteeringMode::FlowBased, PfId(0));
        m.install_flow(flow(1), PfId(1));
        assert_eq!(m.remove_flow(&flow(1)), Some(PfId(1)));
        assert_eq!(m.steer(MacAddr::local_admin(0), &flow(1)), PfId(0));
    }
}
