//! Replica placement and peer liveness.
//!
//! The paper runs on a P-Grid overlay whose robustness under churn comes
//! from structural *replication*: every index fraction exists on several
//! peers, so single departures never lose content. This module supplies
//! the two ingredients the [`crate::dht::Dht`] layer needs to model that:
//!
//! * [`Membership`] — the network's peer-liveness view. A peer is
//!   [`Live`](PeerState::Live) until it [`Departed`](PeerState::Departed)
//!   gracefully (handing its copies over) or [`Failed`](PeerState::Failed)
//!   by crashing (its copies are gone). Dead peers stay in the overlay —
//!   peer indices, trie paths and routing stay stable — they are simply
//!   routed *around*.
//! * the **replica walk** — replica placement as a pure deterministic
//!   function of the overlay and the membership view, with **no placement
//!   state**: the replica set of a key is its responsible peer followed by
//!   the next live peers along the overlay's key-space successor order
//!   ([`crate::pgrid::PGrid::successor_index`] — in-order trie
//!   traversal), skipping dead peers. Because the set is derived, it
//!   re-derives itself after every membership change; repair only has to
//!   materialize the copies the new derivation asks for.
//!
//! Lookups use the same walk as their deterministic *failover order*: the
//! first live replica that holds a copy serves the request; every skipped
//! candidate costs an extra overlay hop, and skipped *dead* candidates
//! additionally cost a retransmission timeout on the simulated network
//! ("requests to dead peers cost a timeout, not a hang"). The walk is
//! implemented once, as the private `Dht::walk` in [`crate::dht`]; its
//! doc comment is the reference for these charges, including the free
//! skip of a peer the querier's gossip view confirms dead. [`Delivery`]
//! records exactly those resolved attributes per message leg, so the
//! simulated backend can time a message without re-deriving the route.

/// Liveness of one peer, as seen by the membership view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Member in good standing: hosts its index fraction, serves lookups.
    Live,
    /// Left gracefully: its copies were handed over first, then it
    /// disappeared from the replica walks.
    Departed,
    /// Crashed: its copies are gone; the repair sweep re-materializes them
    /// from surviving replicas.
    Failed,
}

/// One recorded liveness transition: peer `peer` entered `state` as the
/// `seq`-th transition overall (0-based, strictly increasing). Joins are
/// recorded as [`PeerState::Live`] transitions; deaths as
/// [`PeerState::Departed`] / [`PeerState::Failed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// 0-based position in the transition history.
    pub seq: u64,
    /// Peer index the transition applies to.
    pub peer: u32,
    /// The state the peer entered.
    pub state: PeerState,
}

/// The peer-liveness view threaded through every network backend.
///
/// Indexed by *peer index* (position in [`crate::pgrid::PGrid::peers`]),
/// which stays stable across joins and departures.
#[derive(Debug, Clone)]
pub struct Membership {
    states: Vec<PeerState>,
    dead: usize,
    /// Ordered transition log ([`Membership::membership_events`]). The
    /// initial all-live population is state, not a transition, so it is
    /// not recorded; everything after construction is.
    events: Vec<MembershipEvent>,
}

impl Membership {
    /// All-live membership for `n` peers.
    pub fn new(n: usize) -> Self {
        Self {
            states: vec![PeerState::Live; n],
            dead: 0,
            events: Vec::new(),
        }
    }

    /// Registers a freshly joined peer (always live).
    pub fn add_peer(&mut self) {
        let peer = self.states.len() as u32;
        self.states.push(PeerState::Live);
        self.push_event(peer, PeerState::Live);
    }

    fn push_event(&mut self, peer: u32, state: PeerState) {
        let seq = self.events.len() as u64;
        self.events.push(MembershipEvent { seq, peer, state });
    }

    /// The ordered liveness-transition history since construction: every
    /// join ([`PeerState::Live`]), graceful departure and crash, in the
    /// order they were applied. This is the *ground truth* schedule the
    /// gossip layer's convergence is measured against — and the read-back
    /// `fail_peers` / `leave_peers` never had.
    pub fn membership_events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// The state of peer `index`.
    pub fn state(&self, index: usize) -> PeerState {
        self.states[index]
    }

    /// True when peer `index` is live.
    #[inline]
    pub fn is_live(&self, index: usize) -> bool {
        self.states[index] == PeerState::Live
    }

    /// True while nobody has departed or failed — the fast path on which
    /// every walk is just its first element (the responsible peer).
    #[inline]
    pub fn all_live(&self) -> bool {
        self.dead == 0
    }

    /// Number of live peers.
    pub fn live_count(&self) -> usize {
        self.states.len() - self.dead
    }

    /// Total number of peers ever admitted (live or dead).
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True for a view over zero peers (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Marks a live peer departed or failed.
    ///
    /// # Panics
    /// Panics when the peer is already dead or the transition target is
    /// [`PeerState::Live`] (dead peers never come back; a returning node
    /// joins as a new peer).
    pub fn mark(&mut self, index: usize, state: PeerState) {
        assert!(
            state != PeerState::Live,
            "dead peers cannot be revived; rejoin as a new peer"
        );
        assert!(
            self.is_live(index),
            "peer index {index} is already {:?}",
            self.states[index]
        );
        self.states[index] = state;
        self.dead += 1;
        self.push_event(index as u32, state);
    }
}

/// One resolved message leg: where it was served/stored and what the
/// resolution cost, as derived from overlay + membership at dispatch time.
///
/// The simulated-network backend times messages from these records (link
/// identity, hops, dead skips) instead of re-running the overlay's routing
/// — the metering pass and the timing pass share one derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Peer the leg originates from (the querying/inserting peer, or the
    /// forwarding replica for replica copies and repairs).
    pub source: crate::id::PeerId,
    /// Peer that stored the copy / served the lookup.
    pub target: crate::id::PeerId,
    /// Overlay hops the leg traversed, including one per skipped
    /// candidate of the failover walk.
    pub hops: u32,
    /// Dead candidates the walk skipped before reaching `target` — each
    /// costs a retransmission timeout on the simulated network.
    pub dead_skips: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_counts_and_marks() {
        let mut m = Membership::new(4);
        assert!(m.all_live());
        assert_eq!(m.live_count(), 4);
        m.mark(1, PeerState::Departed);
        m.mark(3, PeerState::Failed);
        assert!(!m.all_live());
        assert_eq!(m.live_count(), 2);
        assert!(m.is_live(0) && !m.is_live(1) && m.is_live(2) && !m.is_live(3));
        assert_eq!(m.state(1), PeerState::Departed);
        assert_eq!(m.state(3), PeerState::Failed);
        m.add_peer();
        assert_eq!(m.len(), 5);
        assert!(m.is_live(4));
        assert_eq!(m.live_count(), 3);
    }

    #[test]
    fn membership_events_record_ordered_transitions() {
        let mut m = Membership::new(3);
        assert!(
            m.membership_events().is_empty(),
            "initial population is state, not transitions"
        );
        m.mark(2, PeerState::Failed);
        m.add_peer();
        m.mark(0, PeerState::Departed);
        let events = m.membership_events();
        assert_eq!(
            events,
            &[
                MembershipEvent {
                    seq: 0,
                    peer: 2,
                    state: PeerState::Failed
                },
                MembershipEvent {
                    seq: 1,
                    peer: 3,
                    state: PeerState::Live
                },
                MembershipEvent {
                    seq: 2,
                    peer: 0,
                    state: PeerState::Departed
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "already")]
    fn double_death_rejected() {
        let mut m = Membership::new(2);
        m.mark(0, PeerState::Failed);
        m.mark(0, PeerState::Departed);
    }

    #[test]
    #[should_panic(expected = "revived")]
    fn revival_rejected() {
        let mut m = Membership::new(2);
        m.mark(0, PeerState::Live);
    }
}
