//! The follow graph and the federation (peers) relation it induces.

use fediscope_core::id::{Domain, UserRef};
use fediscope_core::time::SimTime;
use std::collections::{BTreeSet, HashMap, HashSet};

/// Result of a follow attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FollowOutcome {
    /// New subscription established.
    Followed,
    /// The edge already existed.
    AlreadyFollowing,
}

/// A directed follow graph over fully-qualified user references.
///
/// Besides user-level edges it maintains the *instance-level federation
/// relation*: two domains are peers once any user of one has interacted
/// with (followed, or received content from) a user of the other. The
/// Peers API (`/api/v1/instance/peers`) the paper crawls serves exactly
/// this set: "the list of instances that each Pleroma instance has *ever*
/// federated with" — peers are therefore never removed, even if every
/// follow edge between the domains is undone.
#[derive(Debug, Default)]
pub struct FollowGraph {
    /// follower → set of followees.
    following: HashMap<UserRef, HashSet<UserRef>>,
    /// followee → set of followers.
    followers: HashMap<UserRef, HashSet<UserRef>>,
    /// domain → domains it has ever federated with (sorted for stable API
    /// output).
    peers: HashMap<Domain, BTreeSet<Domain>>,
    /// Follow timestamps for account-age style analytics.
    established: HashMap<(UserRef, UserRef), SimTime>,
}

impl FollowGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that `follower` follows `followee` at time `at`.
    ///
    /// Cross-domain follows federate the two instances (both directions —
    /// each has now seen the other).
    pub fn follow(&mut self, follower: UserRef, followee: UserRef, at: SimTime) -> FollowOutcome {
        if self
            .following
            .get(&follower)
            .map(|s| s.contains(&followee))
            .unwrap_or(false)
        {
            return FollowOutcome::AlreadyFollowing;
        }
        self.note_federation(&follower.domain, &followee.domain);
        self.established
            .insert((follower.clone(), followee.clone()), at);
        self.following
            .entry(follower.clone())
            .or_default()
            .insert(followee.clone());
        self.followers.entry(followee).or_default().insert(follower);
        FollowOutcome::Followed
    }

    /// Removes a follow edge (an `Undo { Follow }`). The federation link
    /// survives: peers record *ever*-federated domains.
    pub fn unfollow(&mut self, follower: &UserRef, followee: &UserRef) -> bool {
        let removed = self
            .following
            .get_mut(follower)
            .map(|s| s.remove(followee))
            .unwrap_or(false);
        if removed {
            if let Some(s) = self.followers.get_mut(followee) {
                s.remove(follower);
            }
            self.established
                .remove(&(follower.clone(), followee.clone()));
        }
        removed
    }

    /// Marks two domains as federated without a user edge (e.g. a boost or
    /// a whole-known-network import introduced the content).
    pub fn note_federation(&mut self, a: &Domain, b: &Domain) {
        if a == b {
            return;
        }
        self.peers.entry(a.clone()).or_default().insert(b.clone());
        self.peers.entry(b.clone()).or_default().insert(a.clone());
    }

    /// Tears down every follow edge between domains `a` and `b` (both
    /// directions) — what defederation does to the social graph. Returns
    /// the number of edges removed.
    ///
    /// The *peers* relation survives, as everywhere else in this module:
    /// the Peers API reports ever-federated domains, and the paper's
    /// measurements rely on that ("the list of instances that each
    /// Pleroma instance has **ever** federated with"). Only live
    /// subscriptions are destroyed.
    pub fn sever(&mut self, a: &Domain, b: &Domain) -> usize {
        let crossing: Vec<(UserRef, UserRef)> = self
            .following
            .iter()
            .flat_map(|(follower, followees)| {
                followees
                    .iter()
                    .filter(|followee| {
                        (follower.domain == *a && followee.domain == *b)
                            || (follower.domain == *b && followee.domain == *a)
                    })
                    .map(|followee| (follower.clone(), followee.clone()))
            })
            .collect();
        for (follower, followee) in &crossing {
            self.unfollow(follower, followee);
        }
        crossing.len()
    }

    /// Whether `follower` follows `followee`.
    pub fn follows(&self, follower: &UserRef, followee: &UserRef) -> bool {
        self.following
            .get(follower)
            .map(|s| s.contains(followee))
            .unwrap_or(false)
    }

    /// The accounts following `user`.
    pub fn followers_of(&self, user: &UserRef) -> impl Iterator<Item = &UserRef> {
        self.followers.get(user).into_iter().flatten()
    }

    /// Follower count.
    pub fn follower_count(&self, user: &UserRef) -> usize {
        self.followers.get(user).map(HashSet::len).unwrap_or(0)
    }

    /// Following count.
    pub fn following_count(&self, user: &UserRef) -> usize {
        self.following.get(user).map(HashSet::len).unwrap_or(0)
    }

    /// Every domain `domain` has ever federated with, sorted — the exact
    /// payload of the Peers API.
    pub fn peers_of(&self, domain: &Domain) -> Vec<Domain> {
        self.peers
            .get(domain)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of peers of a domain.
    pub fn peer_count(&self, domain: &Domain) -> usize {
        self.peers.get(domain).map(BTreeSet::len).unwrap_or(0)
    }

    /// Remote domains hosting followers of `user` — the delivery targets
    /// for the user's posts.
    pub fn follower_domains(&self, user: &UserRef) -> BTreeSet<Domain> {
        self.followers_of(user)
            .map(|f| f.domain.clone())
            .filter(|d| *d != user.domain)
            .collect()
    }

    /// When the follow edge was established, if it exists.
    pub fn established_at(&self, follower: &UserRef, followee: &UserRef) -> Option<SimTime> {
        self.established
            .get(&(follower.clone(), followee.clone()))
            .copied()
    }

    /// Total number of follow edges.
    pub fn edge_count(&self) -> usize {
        self.following.values().map(HashSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::id::UserId;

    fn user(id: u64, domain: &str) -> UserRef {
        UserRef::new(UserId(id), Domain::new(domain))
    }

    #[test]
    fn follow_creates_edge_and_federation() {
        let mut g = FollowGraph::new();
        let alice = user(1, "a.example");
        let bob = user(2, "b.example");
        assert_eq!(
            g.follow(alice.clone(), bob.clone(), SimTime(10)),
            FollowOutcome::Followed
        );
        assert!(g.follows(&alice, &bob));
        assert!(!g.follows(&bob, &alice), "follows are directed");
        assert_eq!(g.follower_count(&bob), 1);
        assert_eq!(g.following_count(&alice), 1);
        // Federation is symmetric.
        assert_eq!(
            g.peers_of(&Domain::new("a.example")),
            vec![Domain::new("b.example")]
        );
        assert_eq!(
            g.peers_of(&Domain::new("b.example")),
            vec![Domain::new("a.example")]
        );
        assert_eq!(g.established_at(&alice, &bob), Some(SimTime(10)));
    }

    #[test]
    fn duplicate_follow_reports_already_following() {
        let mut g = FollowGraph::new();
        let a = user(1, "a.example");
        let b = user(2, "b.example");
        g.follow(a.clone(), b.clone(), SimTime(0));
        assert_eq!(g.follow(a, b, SimTime(5)), FollowOutcome::AlreadyFollowing);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn same_domain_follow_adds_no_peer() {
        let mut g = FollowGraph::new();
        g.follow(user(1, "a.example"), user(2, "a.example"), SimTime(0));
        assert_eq!(g.peer_count(&Domain::new("a.example")), 0);
    }

    #[test]
    fn unfollow_removes_edge_but_keeps_peer() {
        let mut g = FollowGraph::new();
        let a = user(1, "a.example");
        let b = user(2, "b.example");
        g.follow(a.clone(), b.clone(), SimTime(0));
        assert!(g.unfollow(&a, &b));
        assert!(!g.follows(&a, &b));
        assert_eq!(g.follower_count(&b), 0);
        // "ever federated with" — the peer link persists.
        assert_eq!(g.peer_count(&Domain::new("a.example")), 1);
        // Unfollowing again is a no-op.
        assert!(!g.unfollow(&a, &b));
    }

    #[test]
    fn sever_tears_down_both_directions_but_keeps_peers() {
        let mut g = FollowGraph::new();
        let a1 = user(1, "a.example");
        let a2 = user(2, "a.example");
        let b1 = user(10, "b.example");
        let c1 = user(20, "c.example");
        g.follow(a1.clone(), b1.clone(), SimTime(0));
        g.follow(b1.clone(), a2.clone(), SimTime(1));
        g.follow(a2.clone(), c1.clone(), SimTime(2));
        assert_eq!(g.edge_count(), 3);
        let removed = g.sever(&Domain::new("a.example"), &Domain::new("b.example"));
        assert_eq!(removed, 2);
        assert!(!g.follows(&a1, &b1));
        assert!(!g.follows(&b1, &a2));
        // The unrelated edge and the ever-federated peer links survive.
        assert!(g.follows(&a2, &c1));
        assert!(g
            .peers_of(&Domain::new("a.example"))
            .contains(&Domain::new("b.example")));
        // Severing again finds nothing.
        assert_eq!(
            g.sever(&Domain::new("a.example"), &Domain::new("b.example")),
            0
        );
    }

    #[test]
    fn sever_unknown_link_is_a_noop() {
        let mut g = FollowGraph::new();
        let a1 = user(1, "a.example");
        let c1 = user(20, "c.example");
        g.follow(a1.clone(), c1.clone(), SimTime(0));
        // Domains that never federated: nothing to remove, nothing
        // created as a side effect.
        assert_eq!(
            g.sever(&Domain::new("a.example"), &Domain::new("ghost.example")),
            0
        );
        assert_eq!(
            g.sever(
                &Domain::new("ghost.example"),
                &Domain::new("phantom.example")
            ),
            0
        );
        assert_eq!(g.edge_count(), 1);
        assert!(g.follows(&a1, &c1));
        assert!(g.peers_of(&Domain::new("ghost.example")).is_empty());
    }

    #[test]
    fn follower_domains_excludes_local() {
        let mut g = FollowGraph::new();
        let author = user(1, "home.example");
        g.follow(user(2, "home.example"), author.clone(), SimTime(0));
        g.follow(user(3, "remote1.example"), author.clone(), SimTime(0));
        g.follow(user(4, "remote2.example"), author.clone(), SimTime(0));
        g.follow(user(5, "remote2.example"), author.clone(), SimTime(0));
        let domains = g.follower_domains(&author);
        assert_eq!(domains.len(), 2);
        assert!(!domains.contains(&Domain::new("home.example")));
    }

    #[test]
    fn peers_are_sorted() {
        let mut g = FollowGraph::new();
        let me = user(1, "m.example");
        for d in ["zzz.example", "aaa.example", "mmm.example"] {
            g.follow(me.clone(), user(9, d), SimTime(0));
        }
        let peers = g.peers_of(&Domain::new("m.example"));
        let mut sorted = peers.clone();
        sorted.sort();
        assert_eq!(peers, sorted);
    }

    #[test]
    fn note_federation_is_idempotent() {
        let mut g = FollowGraph::new();
        let a = Domain::new("a.example");
        let b = Domain::new("b.example");
        g.note_federation(&a, &b);
        g.note_federation(&a, &b);
        g.note_federation(&a, &a);
        assert_eq!(g.peer_count(&a), 1);
    }
}
