//! Deterministic SWIM-style gossip membership: per-peer liveness views.
//!
//! The [`crate::replica::Membership`] structure is *ground truth* — the
//! physical simulation substrate that decides whether a probe reaches its
//! target and whose transitions destroy copies. Until this module, it was
//! also an instantaneous oracle: every peer "saw" a death the moment it
//! happened. Real P2P networks have no such oracle; each peer maintains
//! its own **view** of who is alive, fed by background gossip, and the
//! gap between view and truth is what stale-view routing costs.
//!
//! The protocol is SWIM-shaped and fully deterministic:
//!
//! * Each peer `i` holds a [`PeerView`]: per observed peer, a
//!   [`Liveness`] (`Alive` / `Suspect` / `Dead`) plus an **incarnation
//!   number** for refutation.
//! * Every [`GossipState::run_round`], each ground-truth-live peer pings
//!   [`GossipConfig::fanout`] targets chosen by a seeded hash of
//!   `(seed, round, peer, slot)` — never by a shared RNG stream, so the
//!   schedule is a pure function of the round number and replays
//!   bit-identically at any thread count and on any backend.
//! * A delivered ping carries the sender's full view digest; the target
//!   merges it (higher incarnation wins; at equal incarnation
//!   `Dead > Suspect > Alive`), **refutes** any suspicion of itself by
//!   bumping its own incarnation, and answers with its own digest — so a
//!   false suspicion is first-class and heals network-wide within a
//!   round trip plus dissemination.
//! * A probe to a ground-truth-dead target (or one lost to the gossip
//!   channel's own seeded [`GossipConfig::loss_prob`]) times out and the
//!   sender marks the target `Suspect`. A suspicion that survives
//!   [`GossipConfig::suspicion_rounds`] rounds without refutation is
//!   confirmed `Dead` in that observer's view.
//! * Fanout slots never target view-confirmed-dead peers, so each round
//!   a peer whose view holds any confirmed death sends one extra
//!   **resurrection probe** into that dead set (memberlist's "gossip to
//!   the dead"). Against a truly dead peer it just times out; against a
//!   falsely-confirmed live peer it lets the victim refute on the spot —
//!   without it, two groups that each confirmed the other dead would
//!   partition the belief graph forever.
//!
//! Confirmed deaths are what the rest of the stack consumes: lookups skip
//! view-confirmed-dead candidates for free (the querier routes around
//! them) while paying a timeout for every dead peer it still *believes*
//! in, and the repair sweep triggers once a death is confirmed in every
//! live view — no oracle call anywhere.
//!
//! Gossip loss is modeled by this module's own `loss_prob`, not by the
//! SimNet drop model, so view evolution is a pure function of
//! `(config, ground-truth schedule, rounds run)` — identical across
//! InProc, SimNet and TcpNet. That is what lets the serving tier run N
//! full copies of this state in lockstep, advanced by broadcast round
//! frames, without ever shipping a view over the wire.

use crate::id::{hash_u64s, splitmix64};
use crate::replica::Membership;

/// Virtual slot index of the per-round resurrection probe (distinct from
/// every real fanout slot so its target pick and loss draw never collide
/// with a normal probe's).
const RESURRECTION_SLOT: u64 = u64::MAX;

/// Knobs of the gossip subsystem. `fanout == 0` (the default) disables
/// gossip entirely: the stack behaves exactly as it did under the
/// membership oracle, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipConfig {
    /// Probes each live peer sends per round (0 = gossip disabled).
    pub fanout: usize,
    /// Rounds a suspicion must survive unrefuted before the observer
    /// confirms the death. Longer windows tolerate more probe loss
    /// before a false positive; shorter windows detect real deaths
    /// sooner.
    pub suspicion_rounds: u32,
    /// Probability that one probe (and with it the whole exchange) is
    /// lost, drawn from a seeded hash per `(round, sender, target)`.
    /// This is the *gossip channel's* loss — deliberately independent of
    /// any backend's packet-drop model, so views evolve identically on
    /// every backend.
    pub loss_prob: f64,
    /// Seed for every random choice (target picks and loss draws).
    pub seed: u64,
}

impl Default for GossipConfig {
    /// Gossip off (`fanout 0`); the other knobs hold the values the
    /// study found reasonable for a lossless channel.
    fn default() -> Self {
        Self {
            fanout: 0,
            suspicion_rounds: 3,
            loss_prob: 0.0,
            seed: 0x90551b,
        }
    }
}

impl GossipConfig {
    /// The one validity rule: what is wrong with these parameters, if
    /// anything. Settings that arrive over the wire are refused with this
    /// message; [`GossipConfig::validate`] panics with it.
    pub fn check(&self) -> Result<(), String> {
        if self.fanout > 0 && self.suspicion_rounds < 1 {
            return Err("gossip suspicion_rounds must be >= 1 when gossip is enabled".into());
        }
        if !(0.0..1.0).contains(&self.loss_prob) {
            return Err(format!(
                "gossip loss_prob must be in [0, 1), got {}",
                self.loss_prob
            ));
        }
        Ok(())
    }

    /// Panics on nonsensical parameters (mirrors `HdkConfig::validate`).
    pub fn validate(&self) {
        self.check().expect("invalid gossip configuration");
    }
}

/// What one observer believes about one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Liveness {
    /// Believed alive.
    Alive,
    /// A probe timed out (or a digest said so); awaiting refutation.
    Suspect,
    /// The suspicion survived the window (or a digest confirmed it):
    /// believed dead. Only an `Alive` claim at a *higher* incarnation —
    /// a refutation by the peer itself — resurrects it.
    Dead,
}

impl Liveness {
    /// Strength order at equal incarnation: `Dead > Suspect > Alive`
    /// (the pessimistic claim wins, as in SWIM).
    fn rank(self) -> u8 {
        match self {
            Liveness::Alive => 0,
            Liveness::Suspect => 1,
            Liveness::Dead => 2,
        }
    }
}

/// One view entry: what the observer believes about one peer, at which
/// incarnation, and — while suspect — since which round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ViewEntry {
    /// The believed liveness.
    pub liveness: Liveness,
    /// Incarnation the belief is about. A peer refutes a suspicion of
    /// itself by re-asserting `Alive` at a bumped incarnation.
    pub incarnation: u64,
    /// Round the current suspicion started (meaningful only while
    /// `liveness == Suspect`).
    pub suspected_at: u32,
}

impl ViewEntry {
    fn alive(incarnation: u64) -> Self {
        Self {
            liveness: Liveness::Alive,
            incarnation,
            suspected_at: 0,
        }
    }

    /// True when `other` overrides `self` under SWIM precedence: higher
    /// incarnation always wins; at equal incarnation the stronger
    /// (more pessimistic) liveness wins.
    fn overridden_by(&self, other: &ViewEntry) -> bool {
        other.incarnation > self.incarnation
            || (other.incarnation == self.incarnation
                && other.liveness.rank() > self.liveness.rank())
    }
}

/// One peer's local membership view: a [`ViewEntry`] per peer index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PeerView {
    entries: Vec<ViewEntry>,
}

impl PeerView {
    fn all_alive(n: usize) -> Self {
        Self {
            entries: vec![ViewEntry::alive(0); n],
        }
    }

    /// The entry for peer `index`.
    pub fn entry(&self, index: usize) -> ViewEntry {
        self.entries[index]
    }

    /// True when this view has confirmed peer `index` dead.
    #[inline]
    pub fn is_confirmed_dead(&self, index: usize) -> bool {
        self.entries[index].liveness == Liveness::Dead
    }

    /// Peers this view does *not* confirm dead (alive or merely suspect).
    pub fn believed_alive_count(&self) -> usize {
        self.entries
            .iter()
            .filter(|e| e.liveness != Liveness::Dead)
            .count()
    }
}

/// Wire-shape of one gossip digest: the header plus one encoded entry
/// (peer index, incarnation, liveness tag) per peer the view covers.
/// Both the traffic meters and the SimNet timing pass size gossip
/// payloads with this, so byte counts agree across backends by
/// construction.
pub fn digest_bytes(entries: usize) -> u64 {
    16 + 13 * entries as u64
}

/// One probe exchange (or timed-out probe) of a round, in canonical
/// schedule order — everything the metering and timing passes need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GossipProbe {
    /// Initiating peer index.
    pub from: u32,
    /// Probed peer index.
    pub to: u32,
    /// True when the probe reached a live target (the exchange completed:
    /// ping + ack, two messages); false when it timed out (one message,
    /// one timeout).
    pub delivered: bool,
    /// Digest payload bytes of *each* message of the exchange.
    pub bytes: u64,
    /// Canonical position within the round (jitter decorrelation).
    pub position: u64,
}

/// What one [`GossipState::run_round`] observed, in canonical order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GossipRound {
    /// The round number that was just run (0-based).
    pub round: u32,
    /// Delivered pings (each also produced an ack).
    pub pings: u64,
    /// Probes that timed out (dead target or gossip-channel loss).
    pub failed: u64,
    /// Digest bytes moved (pings + acks).
    pub bytes: u64,
    /// `(observer, peer)` pairs that newly entered `Suspect` this round.
    pub new_suspects: Vec<(u32, u32)>,
    /// `(observer, peer)` pairs whose suspicion was confirmed `Dead`
    /// this round.
    pub confirmed: Vec<(u32, u32)>,
    /// Peers that, as of the end of this round, are confirmed dead in
    /// **every** ground-truth-live peer's view — and were not before the
    /// round. This is the repair trigger: a universally confirmed death
    /// means no view will route to the peer again, so its copies can be
    /// re-materialized exactly once.
    pub universally_confirmed: Vec<u32>,
}

/// The full gossip substrate: every peer's [`PeerView`] plus the round
/// counter and each peer's own incarnation. One instance covers the
/// whole (simulated) network — the per-peer views are the state the
/// paper's peers would each hold locally.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipState {
    config: GossipConfig,
    round: u32,
    views: Vec<PeerView>,
    /// Each peer's own incarnation (bumped only by refutation).
    incarnations: Vec<u64>,
}

impl GossipState {
    /// All-alive state over `n` peers.
    pub fn new(n: usize, config: GossipConfig) -> Self {
        config.validate();
        assert!(config.fanout > 0, "a GossipState needs fanout >= 1");
        Self {
            config,
            round: 0,
            views: vec![PeerView::all_alive(n); n],
            incarnations: vec![0; n],
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Rounds run so far (== the next round number).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Number of peers the views cover.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True for a state over zero peers (never constructed in practice).
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Peer `observer`'s view.
    pub fn view(&self, observer: usize) -> &PeerView {
        &self.views[observer]
    }

    /// Admits one freshly joined peer: every view (and the joiner's own,
    /// which starts all-alive over the grown population) gains an
    /// `Alive` entry — joins are announced, like graceful departures.
    pub fn add_peer(&mut self) {
        let n = self.views.len() + 1;
        for view in &mut self.views {
            view.entries.push(ViewEntry::alive(0));
        }
        self.views.push(PeerView::all_alive(n));
        self.incarnations.push(0);
    }

    /// Announces a graceful departure: peer `index` is marked `Dead` in
    /// every view at its current incarnation. A leaver says goodbye —
    /// only *crashes* must be detected by probing.
    pub fn mark_departed(&mut self, index: usize) {
        let inc = self.incarnations[index];
        for view in &mut self.views {
            view.entries[index] = ViewEntry {
                liveness: Liveness::Dead,
                incarnation: inc,
                suspected_at: 0,
            };
        }
    }

    /// True when every ground-truth-live peer's view matches the ground
    /// truth: every dead peer confirmed dead, no live peer confirmed
    /// dead (suspicions of live peers are allowed — they refute).
    pub fn converged(&self, truth: &Membership) -> bool {
        (0..self.views.len())
            .filter(|&i| truth.is_live(i))
            .all(|i| {
                self.views[i]
                    .entries
                    .iter()
                    .enumerate()
                    .all(|(j, e)| (e.liveness == Liveness::Dead) != truth.is_live(j))
            })
    }

    /// Live peers (per ground truth) that observer `i`'s view has
    /// falsely confirmed dead.
    pub fn false_positives(&self, truth: &Membership) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for (i, view) in self.views.iter().enumerate() {
            if !truth.is_live(i) {
                continue;
            }
            for (j, e) in view.entries.iter().enumerate() {
                if e.liveness == Liveness::Dead && truth.is_live(j) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    /// Seeded per-probe loss draw: a pure function of
    /// `(seed, round, sender, target, slot)`.
    fn loss_draw(&self, round: u32, i: usize, t: usize, slot: u64) -> bool {
        if self.config.loss_prob == 0.0 {
            return false;
        }
        let draw = splitmix64(hash_u64s(&[
            self.config.seed,
            u64::from(round),
            i as u64,
            t as u64,
            slot,
            0xd20b,
        ]));
        ((draw >> 11) as f64 / (1u64 << 53) as f64) < self.config.loss_prob
    }

    /// Merges the digest of `source`'s view into `dest`'s view under
    /// SWIM precedence. Entries about `dest` itself are left to the
    /// caller's refutation step.
    fn merge_digest(&mut self, source: usize, dest: usize) {
        for j in 0..self.views[source].entries.len() {
            let incoming = self.views[source].entries[j];
            let current = &mut self.views[dest].entries[j];
            if current.overridden_by(&incoming) {
                *current = incoming;
            }
        }
    }

    /// `peer` inspects its own entry in its own view and refutes any
    /// suspicion or death claim that reached it: bump the incarnation
    /// past the claim and re-assert `Alive`. Returns true when a bump
    /// happened (the refutation then spreads via future digests).
    fn refute(&mut self, peer: usize) -> bool {
        let own = self.views[peer].entries[peer];
        if own.liveness == Liveness::Alive {
            return false;
        }
        let bumped = own.incarnation + 1;
        self.incarnations[peer] = self.incarnations[peer].max(bumped);
        self.views[peer].entries[peer] = ViewEntry::alive(self.incarnations[peer]);
        true
    }

    /// Runs one gossip round against the ground truth, in canonical
    /// order (initiators ascending, fanout slots ascending), invoking
    /// `on_probe` for every probe in schedule order. Returns the round
    /// report. Dead peers (ground truth) initiate nothing; their
    /// staleness is the point.
    pub fn run_round(
        &mut self,
        truth: &Membership,
        mut on_probe: impl FnMut(GossipProbe),
    ) -> GossipRound {
        let n = self.views.len();
        assert_eq!(
            truth.len(),
            n,
            "gossip views and ground truth cover different peer sets"
        );
        let round = self.round;
        let mut report = GossipRound {
            round,
            ..GossipRound::default()
        };
        // Who was universally confirmed before the round, so the report
        // can name exactly the deaths that *became* universal now.
        let universal_before: Vec<bool> = (0..n)
            .map(|j| self.universally_confirmed(truth, j))
            .collect();
        let mut position = 0u64;
        for i in 0..n {
            if !truth.is_live(i) {
                continue;
            }
            for slot in 0..self.config.fanout {
                // Candidates: everyone i does not already believe dead
                // (probing a confirmed-dead peer is pointless), minus i.
                let candidates: Vec<usize> = (0..n)
                    .filter(|&j| j != i && !self.views[i].is_confirmed_dead(j))
                    .collect();
                if candidates.is_empty() {
                    continue;
                }
                let pick = hash_u64s(&[self.config.seed, u64::from(round), i as u64, slot as u64])
                    % candidates.len() as u64;
                let t = candidates[pick as usize];
                let bytes = digest_bytes(n);
                let lost = self.loss_draw(round, i, t, slot as u64);
                let delivered = truth.is_live(t) && !lost;
                on_probe(GossipProbe {
                    from: i as u32,
                    to: t as u32,
                    delivered,
                    bytes,
                    position,
                });
                position += 1;
                if delivered {
                    report.pings += 1;
                    report.bytes += 2 * bytes;
                    // Ping: i's digest reaches t; t refutes any claim
                    // about itself the digest (or earlier gossip)
                    // planted, then acks with its own digest — which now
                    // carries the refutation back to i. The ack can
                    // equally carry a claim about *i* (a third party's
                    // suspicion relayed through t), so i refutes too —
                    // without this, a peer everyone has falsely written
                    // off receives no probes and could never learn of
                    // its own death claim.
                    self.merge_digest(i, t);
                    self.refute(t);
                    self.merge_digest(t, i);
                    self.refute(i);
                } else {
                    report.failed += 1;
                    report.bytes += bytes;
                    // Timeout: i starts (or keeps) suspecting t at the
                    // incarnation it currently believes.
                    let entry = &mut self.views[i].entries[t];
                    if entry.liveness == Liveness::Alive {
                        *entry = ViewEntry {
                            liveness: Liveness::Suspect,
                            incarnation: entry.incarnation,
                            suspected_at: round,
                        };
                        report.new_suspects.push((i as u32, t as u32));
                    }
                }
            }
            // Resurrection probe ("gossip to the dead"): one extra probe
            // aimed at a view-confirmed-dead peer, when any exists.
            // Confirmed-dead entries are excluded from the fanout slots,
            // so without this a *false* confirmation can partition the
            // belief graph — two groups that each confirmed the other
            // dead never exchange again and the refutation machinery
            // starves. Probing into the "dead" set is how the partition
            // heals: a delivered probe lets the victim refute on the
            // spot. Truly dead targets just time out without touching
            // the (already Dead) entry.
            let dead_candidates: Vec<usize> = (0..n)
                .filter(|&j| j != i && self.views[i].is_confirmed_dead(j))
                .collect();
            if !dead_candidates.is_empty() {
                let slot = RESURRECTION_SLOT;
                let pick = hash_u64s(&[self.config.seed, u64::from(round), i as u64, slot])
                    % dead_candidates.len() as u64;
                let t = dead_candidates[pick as usize];
                let bytes = digest_bytes(n);
                let lost = self.loss_draw(round, i, t, slot);
                let delivered = truth.is_live(t) && !lost;
                on_probe(GossipProbe {
                    from: i as u32,
                    to: t as u32,
                    delivered,
                    bytes,
                    position,
                });
                position += 1;
                if delivered {
                    report.pings += 1;
                    report.bytes += 2 * bytes;
                    self.merge_digest(i, t);
                    self.refute(t);
                    self.merge_digest(t, i);
                    self.refute(i);
                } else {
                    report.failed += 1;
                    report.bytes += bytes;
                }
            }
        }
        // End of round: unrefuted suspicions older than the window are
        // confirmed dead, observer-ascending then peer-ascending.
        for i in 0..n {
            if !truth.is_live(i) {
                continue;
            }
            for j in 0..n {
                let entry = &mut self.views[i].entries[j];
                if entry.liveness == Liveness::Suspect
                    && round >= entry.suspected_at + self.config.suspicion_rounds - 1
                {
                    entry.liveness = Liveness::Dead;
                    report.confirmed.push((i as u32, j as u32));
                }
            }
        }
        for (j, before) in universal_before.iter().enumerate().take(n) {
            if !before && self.universally_confirmed(truth, j) {
                report.universally_confirmed.push(j as u32);
            }
        }
        self.round += 1;
        report
    }

    /// True when every ground-truth-live peer's view confirms `peer`
    /// dead (vacuously false while any live view still believes in it).
    pub fn universally_confirmed(&self, truth: &Membership, peer: usize) -> bool {
        let mut any = false;
        for i in 0..self.views.len() {
            if !truth.is_live(i) || i == peer {
                continue;
            }
            if !self.views[i].is_confirmed_dead(peer) {
                return false;
            }
            any = true;
        }
        any
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::PeerState;

    fn cfg(fanout: usize, suspicion: u32, loss: f64) -> GossipConfig {
        GossipConfig {
            fanout,
            suspicion_rounds: suspicion,
            loss_prob: loss,
            seed: 42,
        }
    }

    fn run_until_converged(state: &mut GossipState, truth: &Membership, max_rounds: u32) -> u32 {
        for r in 0..max_rounds {
            if state.converged(truth) {
                return r;
            }
            state.run_round(truth, |_| {});
        }
        assert!(
            state.converged(truth),
            "no convergence in {max_rounds} rounds"
        );
        max_rounds
    }

    #[test]
    fn lossless_crash_detection_confirms_in_every_live_view() {
        let mut truth = Membership::new(8);
        let mut state = GossipState::new(8, cfg(2, 3, 0.0));
        truth.mark(3, PeerState::Failed);
        let rounds = run_until_converged(&mut state, &truth, 40);
        assert!(rounds >= 3, "confirmation cannot beat the suspicion window");
        for i in 0..8 {
            if truth.is_live(i) {
                assert!(state.view(i).is_confirmed_dead(3));
            }
        }
        assert!(state.false_positives(&truth).is_empty());
        assert!(state.universally_confirmed(&truth, 3));
    }

    #[test]
    fn rounds_are_deterministic() {
        let mut truth = Membership::new(10);
        truth.mark(7, PeerState::Failed);
        let run = || {
            let mut s = GossipState::new(10, cfg(2, 2, 0.2));
            let mut probes = Vec::new();
            let mut reports = Vec::new();
            for _ in 0..12 {
                reports.push(s.run_round(&truth, |p| probes.push(p)));
            }
            (s, probes, reports)
        };
        let (a, pa, ra) = run();
        let (b, pb, rb) = run();
        assert_eq!(a, b);
        assert_eq!(pa, pb);
        assert_eq!(ra, rb);
    }

    #[test]
    fn graceful_departure_is_announced_not_detected() {
        let mut truth = Membership::new(5);
        let mut state = GossipState::new(5, cfg(1, 3, 0.0));
        truth.mark(2, PeerState::Departed);
        state.mark_departed(2);
        assert!(state.converged(&truth), "a leaver says goodbye");
        let report = state.run_round(&truth, |_| {});
        assert!(report.new_suspects.is_empty());
        assert!(report.confirmed.is_empty());
    }

    #[test]
    fn lossy_false_suspicions_refute_and_never_confirm_with_a_wide_window() {
        // 30% probe loss, everyone actually alive: suspicions happen but
        // a 6-round window gives refutation time to win every race.
        let truth = Membership::new(8);
        let mut state = GossipState::new(8, cfg(3, 6, 0.3));
        let mut suspects = 0u64;
        for _ in 0..60 {
            let report = state.run_round(&truth, |_| {});
            suspects += report.new_suspects.len() as u64;
            assert!(
                state.false_positives(&truth).is_empty(),
                "a live peer was confirmed dead at suspicion window 6"
            );
        }
        assert!(suspects > 0, "30% loss over 60 rounds must suspect someone");
    }

    #[test]
    fn false_confirmation_resurrects_via_refutation() {
        // A brutal channel (80% loss, 1-round window) will falsely
        // confirm live peers dead; a later successful exchange with the
        // "dead" peer must resurrect it (incarnation bump beats Dead).
        let truth = Membership::new(6);
        let mut state = GossipState::new(6, cfg(2, 1, 0.8));
        for _ in 0..200 {
            if !state.false_positives(&truth).is_empty() {
                break;
            }
            state.run_round(&truth, |_| {});
        }
        assert!(
            !state.false_positives(&truth).is_empty(),
            "80% loss at window 1 must confirm falsely"
        );
        // Heal: drop the loss, keep gossiping. Fanout slots never probe
        // confirmed-dead entries, but the resurrection probes do — a
        // delivered one lets the victim refute on the spot, and third
        // parties relay the bumped incarnation onward.
        state.config.loss_prob = 0.0;
        for _ in 0..200 {
            if state.false_positives(&truth).is_empty() {
                break;
            }
            state.run_round(&truth, |_| {});
        }
        assert!(
            state.false_positives(&truth).is_empty(),
            "false confirmations must heal once the channel recovers"
        );
    }

    #[test]
    fn joins_extend_every_view() {
        let mut truth = Membership::new(3);
        let mut state = GossipState::new(3, cfg(1, 2, 0.0));
        truth.add_peer();
        state.add_peer();
        assert_eq!(state.len(), 4);
        assert!(state.converged(&truth));
        for i in 0..4 {
            assert_eq!(state.view(i).believed_alive_count(), 4);
        }
    }

    #[test]
    fn universal_confirmation_fires_exactly_once() {
        let mut truth = Membership::new(6);
        truth.mark(1, PeerState::Failed);
        let mut state = GossipState::new(6, cfg(2, 2, 0.0));
        let mut universal_rounds = Vec::new();
        for _ in 0..30 {
            let report = state.run_round(&truth, |_| {});
            if !report.universally_confirmed.is_empty() {
                universal_rounds.push((report.round, report.universally_confirmed.clone()));
            }
        }
        assert_eq!(
            universal_rounds.len(),
            1,
            "the repair trigger must fire exactly once per death"
        );
        assert_eq!(universal_rounds[0].1, vec![1]);
    }

    #[test]
    fn probe_bytes_match_digest_size() {
        let truth = Membership::new(4);
        let mut state = GossipState::new(4, cfg(1, 2, 0.0));
        let mut seen = Vec::new();
        let report = state.run_round(&truth, |p| seen.push(p));
        assert_eq!(seen.len(), 4, "every live peer probes once at fanout 1");
        for p in &seen {
            assert!(p.delivered);
            assert_eq!(p.bytes, digest_bytes(4));
        }
        assert_eq!(report.bytes, 2 * 4 * digest_bytes(4), "ping + ack each");
        assert_eq!(report.pings, 4);
        assert_eq!(report.failed, 0);
    }

    #[test]
    #[should_panic(expected = "loss_prob")]
    fn config_validates_loss_prob() {
        cfg(1, 2, 1.5).validate();
    }
}
