//! P-Grid-style binary-trie overlay — the paper's substrate.
//!
//! P-Grid (Aberer et al.) partitions the key space by binary prefixes: each
//! peer is responsible for all keys whose bit string starts with the peer's
//! *path*. Routing is prefix-correcting: a peer that does not own the key
//! forwards it to a *reference* peer from the complementary subtree at the
//! first diverging bit, so every hop extends the matched prefix by at least
//! one bit and routes take `O(path length) = O(log N)` hops.
//!
//! The trie is built by recursively halving the peer set, which yields the
//! balanced tree an adaptive P-Grid converges to under uniform load
//! (Section 5's experiments use uniformly hashed keys, so this is the
//! steady state). References are chosen deterministically-pseudorandomly
//! per `(peer, level)` as in the real protocol, where each peer knows *some*
//! peer of the complementary subtree, not the best one.

use crate::id::{splitmix64, KeyHash, PeerId};

/// Result of routing a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteResult {
    /// The peer responsible for the key.
    pub responsible: PeerId,
    /// Overlay hops from the originator to the responsible peer.
    pub hops: u32,
}

/// Binary path of a peer: the top `len` bits of `bits` (MSB-first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    bits: u64,
    len: u32,
}

impl Path {
    /// Is this path a prefix of the key's bit string?
    #[inline]
    pub fn is_prefix_of(&self, key: KeyHash) -> bool {
        if self.len == 0 {
            return true;
        }
        (key.0 ^ self.bits) >> (64 - self.len) == 0
    }

    /// First bit position (MSB-first) where `key` diverges from this path,
    /// or `None` if the path is a prefix of the key.
    #[inline]
    pub fn first_divergence(&self, key: KeyHash) -> Option<u32> {
        if self.is_prefix_of(key) {
            None
        } else {
            Some((key.0 ^ self.bits).leading_zeros())
        }
    }

    /// Path length in bits.
    pub fn len(&self) -> u32 {
        self.len
    }

    /// True only for the root path (single-peer network).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug)]
enum Node {
    Leaf(usize),
    Inner(Box<Node>, Box<Node>),
}

/// The P-Grid overlay.
#[derive(Debug)]
pub struct PGrid {
    peers: Vec<PeerId>,
    paths: Vec<Path>,
    root: Node,
    /// Peer indices in in-order trie traversal (ascending path bits) —
    /// the key-space successor order replica placement walks along.
    order: Vec<usize>,
    /// Inverse of `order`: position of each peer index in the traversal.
    order_pos: Vec<usize>,
}

impl PGrid {
    /// Builds a balanced trie over the peers (in the given stable order).
    ///
    /// # Panics
    /// Panics on an empty peer set.
    pub fn new(peers: Vec<PeerId>) -> Self {
        assert!(!peers.is_empty(), "trie needs at least one peer");
        let mut paths = vec![Path { bits: 0, len: 0 }; peers.len()];
        let indices: Vec<usize> = (0..peers.len()).collect();
        let root = Self::split(&indices, 0, 0, &mut paths);
        let mut grid = Self {
            peers,
            paths,
            root,
            order: Vec::new(),
            order_pos: Vec::new(),
        };
        grid.rebuild_order();
        grid
    }

    /// Recomputes the in-order leaf traversal (cheap; runs at build time
    /// and after each join).
    fn rebuild_order(&mut self) {
        fn collect(node: &Node, out: &mut Vec<usize>) {
            match node {
                Node::Leaf(i) => out.push(*i),
                Node::Inner(zero, one) => {
                    collect(zero, out);
                    collect(one, out);
                }
            }
        }
        self.order.clear();
        collect(&self.root, &mut self.order);
        self.order_pos = vec![0; self.order.len()];
        for (pos, &i) in self.order.iter().enumerate() {
            self.order_pos[i] = pos;
        }
    }

    fn split(indices: &[usize], prefix: u64, depth: u32, paths: &mut [Path]) -> Node {
        if indices.len() == 1 {
            paths[indices[0]] = Path {
                bits: prefix,
                len: depth,
            };
            return Node::Leaf(indices[0]);
        }
        assert!(depth < 63, "trie too deep");
        let mid = indices.len() / 2;
        let zero = Self::split(&indices[..mid], prefix, depth + 1, paths);
        let one_prefix = prefix | (1u64 << (63 - depth));
        let one = Self::split(&indices[mid..], one_prefix, depth + 1, paths);
        Node::Inner(Box::new(zero), Box::new(one))
    }

    /// The peer path assigned to `peer_index`.
    pub fn path(&self, peer_index: usize) -> Path {
        self.paths[peer_index]
    }

    /// Leaf reached by following `key`'s bits from the root.
    fn leaf_for(&self, key: KeyHash) -> usize {
        let mut node = &self.root;
        let mut depth = 0u32;
        loop {
            match node {
                Node::Leaf(i) => return *i,
                Node::Inner(zero, one) => {
                    node = if key.bit(depth) { one } else { zero };
                    depth += 1;
                }
            }
        }
    }

    /// Subtree rooted at the first `depth` bits of `key`.
    fn subtree(&self, key: KeyHash, depth: u32) -> &Node {
        let mut node = &self.root;
        for d in 0..depth {
            match node {
                Node::Leaf(_) => return node,
                Node::Inner(zero, one) => {
                    node = if key.bit(d) { one } else { zero };
                }
            }
        }
        node
    }

    /// Deterministic pseudo-random leaf of a subtree (a peer's routing
    /// reference into that subtree).
    fn reference_leaf(node: &Node, selector: u64) -> usize {
        let mut node = node;
        let mut sel = selector;
        loop {
            match node {
                Node::Leaf(i) => return *i,
                Node::Inner(zero, one) => {
                    node = if sel & 1 == 1 { one } else { zero };
                    sel = splitmix64(sel);
                }
            }
        }
    }

    /// Splits the leaf of `target` in two: `target` keeps its path extended
    /// by `0`, the new peer (index `new_index`) takes the path extended by
    /// `1`. This is P-Grid's join protocol: a joining peer meets an
    /// existing one and they divide its key-space half-and-half.
    fn split_leaf(node: &mut Node, target: usize, new_index: usize) -> Option<u32> {
        match node {
            Node::Leaf(i) if *i == target => {
                *node = Node::Inner(
                    Box::new(Node::Leaf(target)),
                    Box::new(Node::Leaf(new_index)),
                );
                Some(0)
            }
            Node::Leaf(_) => None,
            Node::Inner(zero, one) => Self::split_leaf(zero, target, new_index)
                .or_else(|| Self::split_leaf(one, target, new_index))
                .map(|d| d + 1),
        }
    }

    /// All peers, in a stable order. The position of a peer in this slice is
    /// its *peer index*, used by storage and metering arrays.
    pub fn peers(&self) -> &[PeerId] {
        &self.peers
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True for an empty grid (never constructed: [`PGrid::new`] panics).
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Index of `peer` in [`PGrid::peers`].
    ///
    /// # Panics
    /// Panics if `peer` is not a member.
    pub fn peer_index(&self, peer: PeerId) -> usize {
        self.peers
            .iter()
            .position(|&p| p == peer)
            .expect("unknown peer")
    }

    /// The peer responsible for `key`: the one whose path prefixes it.
    pub fn responsible(&self, key: KeyHash) -> PeerId {
        self.peers[self.leaf_for(key)]
    }

    /// Admits a new peer. The peer is appended to [`PGrid::peers`] (so
    /// existing peer indices stay stable) and takes over half of the
    /// shallowest leaf's key space; [`crate::dht::Dht::add_peers`] migrates
    /// the affected keys.
    ///
    /// # Panics
    /// Panics if the peer is already a member.
    pub fn join(&mut self, peer: PeerId) {
        assert!(
            !self.peers.contains(&peer),
            "{peer} is already in the overlay"
        );
        // Split the shallowest leaf (deterministic tie-break by peer
        // index), keeping the trie balanced as the adaptive protocol would
        // under uniform load.
        let target = (0..self.peers.len())
            .min_by_key(|&i| (self.paths[i].len, i))
            .expect("overlay is non-empty");
        let new_index = self.peers.len();
        self.peers.push(peer);
        let old = self.paths[target];
        assert!(old.len < 62, "trie too deep to split");
        Self::split_leaf(&mut self.root, target, new_index).expect("target leaf exists");
        self.paths[target] = Path {
            bits: old.bits,
            len: old.len + 1,
        };
        self.paths.push(Path {
            bits: old.bits | (1u64 << (63 - old.len)),
            len: old.len + 1,
        });
        self.rebuild_order();
    }

    /// Peer index of the peer owning the key-space region immediately
    /// *after* `peer_index`'s, wrapping around — the in-order successor of
    /// the binary trie.
    ///
    /// Iterating `successor_index` from any start visits every peer
    /// exactly once per cycle; this is the deterministic walk replica
    /// placement is derived from (primary = responsible peer, replicas =
    /// the next peers along the walk — see `crate::replica`).
    pub fn successor_index(&self, peer_index: usize) -> usize {
        self.order[(self.order_pos[peer_index] + 1) % self.order.len()]
    }

    /// Routes from `from` to the peer responsible for `key`, counting hops.
    /// Always agrees with [`PGrid::responsible`]; a peer reaches its own
    /// keys in zero hops.
    pub fn route(&self, from: PeerId, key: KeyHash) -> RouteResult {
        let target = self.leaf_for(key);
        let mut cur = self.peer_index(from);
        let mut hops = 0u32;
        while cur != target {
            let path = self.paths[cur];
            let Some(diverge) = path.first_divergence(key) else {
                // Only possible when cur == target; defensive.
                break;
            };
            // The reference peer lives in the subtree that agrees with the
            // key on bits 0..=diverge; pick the peer's (deterministic)
            // reference inside it.
            let subtree = self.subtree(key, diverge + 1);
            let selector = splitmix64(cur as u64 ^ (u64::from(diverge) << 32));
            let next = Self::reference_leaf(subtree, selector);
            debug_assert_ne!(next, cur, "routing made no progress");
            cur = next;
            hops += 1;
            debug_assert!(hops <= 64 + self.peers.len() as u32);
        }
        RouteResult {
            responsible: self.peers[target],
            hops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::hash_u64s;

    fn peers(n: u64) -> Vec<PeerId> {
        (0..n).map(PeerId).collect()
    }

    /// Exercises the grid's contract: `peer_index` inverts `peers`, routes
    /// agree with `responsible`, self-routes are free, and the successor
    /// walk is one cycle over every peer.
    fn check_contract(grid: &PGrid) {
        let peers = grid.peers();
        assert!(!peers.is_empty());
        // peer_index is the inverse of peers().
        for (i, &p) in peers.iter().enumerate() {
            assert_eq!(grid.peer_index(p), i);
        }
        // Every key routes to its responsible peer from every origin, and
        // a peer reaches its own keys in zero hops.
        for k in 0..200u64 {
            let key = KeyHash(hash_u64s(&[k]));
            let owner = grid.responsible(key);
            for &from in peers.iter().take(8) {
                let r = grid.route(from, key);
                assert_eq!(r.responsible, owner, "route/responsible disagree");
                if from == owner {
                    assert_eq!(r.hops, 0, "self-route must be free");
                }
            }
        }
        // The successor walk is a single cycle covering every peer once.
        let mut cur = 0usize;
        let mut seen = vec![false; peers.len()];
        for _ in 0..peers.len() {
            assert!(!seen[cur], "successor walk revisited peer {cur} early");
            seen[cur] = true;
            cur = grid.successor_index(cur);
        }
        assert_eq!(cur, 0, "successor walk must wrap to its start");
        assert!(seen.iter().all(|&s| s), "walk skipped a peer");
    }

    /// Checks that responsibility spreads over many peers (load balance).
    fn check_balance(grid: &PGrid, keys: u64, max_skew: f64) {
        let n = grid.len();
        let mut counts = vec![0usize; n];
        for k in 0..keys {
            let key = KeyHash(hash_u64s(&[k, 0xdead]));
            counts[grid.peer_index(grid.responsible(key))] += 1;
        }
        let expected = keys as f64 / n as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max <= expected * max_skew,
            "max load {max} exceeds {max_skew}x the mean {expected}"
        );
        let nonempty = counts.iter().filter(|&&c| c > 0).count();
        assert_eq!(nonempty, n, "some peers own no keys");
    }

    #[test]
    fn contract_various_sizes() {
        for n in [1, 2, 3, 4, 5, 7, 8, 28, 33] {
            let grid = PGrid::new(peers(n));
            check_contract(&grid);
        }
    }

    #[test]
    fn paths_are_prefix_free_and_cover() {
        let grid = PGrid::new(peers(11));
        // Every key lands at exactly one leaf whose path prefixes it.
        for k in 0..500u64 {
            let key = KeyHash(hash_u64s(&[k, 3]));
            let owners: Vec<usize> = (0..11)
                .filter(|&i| grid.path(i).is_prefix_of(key))
                .collect();
            assert_eq!(owners.len(), 1, "key {k} has owners {owners:?}");
            assert_eq!(grid.peers()[owners[0]], grid.responsible(key));
        }
    }

    #[test]
    fn path_lengths_are_balanced() {
        let grid = PGrid::new(peers(28));
        let lens: Vec<u32> = (0..28).map(|i| grid.path(i).len()).collect();
        let min = *lens.iter().min().unwrap();
        let max = *lens.iter().max().unwrap();
        // ceil(log2(28)) = 5; a halving construction differs by at most 1.
        assert!(max <= 5 && min >= 4, "path lengths {lens:?}");
    }

    #[test]
    fn balanced_ownership() {
        let grid = PGrid::new(peers(32));
        // Power-of-two trie: perfectly uniform key partition.
        check_balance(&grid, 32_000, 1.25);
    }

    #[test]
    fn hops_bounded_by_path_length() {
        let grid = PGrid::new(peers(64));
        for k in 0..1_000u64 {
            let key = KeyHash(hash_u64s(&[k, 9]));
            let from = PeerId(k % 64);
            let r = grid.route(from, key);
            // Each hop corrects at least one prefix bit; paths are 6 bits.
            assert!(r.hops <= 6, "route took {} hops", r.hops);
        }
    }

    #[test]
    fn single_peer_owns_all() {
        let grid = PGrid::new(peers(1));
        let key = KeyHash(hash_u64s(&[42]));
        assert_eq!(grid.responsible(key), PeerId(0));
        assert_eq!(grid.route(PeerId(0), key).hops, 0);
    }

    #[test]
    fn path_prefix_check() {
        // Path "10" (len 2).
        let p = Path {
            bits: 0b10u64 << 62,
            len: 2,
        };
        assert!(p.is_prefix_of(KeyHash(0b101_u64 << 61)));
        assert!(!p.is_prefix_of(KeyHash(0b01u64 << 62)));
        assert!(!p.is_prefix_of(KeyHash(0)));
    }

    #[test]
    #[should_panic(expected = "at least one peer")]
    fn empty_rejected() {
        let _ = PGrid::new(vec![]);
    }
}
