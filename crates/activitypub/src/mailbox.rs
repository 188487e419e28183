//! Replay deduplication and delivery fan-out.

use crate::follow::FollowGraph;
use fediscope_core::id::{ActivityId, Domain};
use fediscope_core::model::{Activity, ActivityKind, ActivityPayload, Visibility};
use std::collections::{BTreeSet, HashSet};

/// The ids of the activities received from remote instances: ingestion is
/// idempotent, since federation delivery is at-least-once and a replay of
/// the same `ActivityId` must be dropped. No log of the activities is kept.
#[derive(Debug, Default)]
pub struct Inbox {
    seen: HashSet<ActivityId>,
}

impl Inbox {
    /// Empty inbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an activity's id; returns `false` if it was a duplicate.
    pub fn receive(&mut self, activity: &Activity) -> bool {
        self.seen.insert(activity.id)
    }

    /// Number of accepted activities.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether the inbox is empty.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Whether an activity id has been seen.
    pub fn has_seen(&self, id: ActivityId) -> bool {
        self.seen.contains(&id)
    }
}

/// Pure fan-out logic: which remote domains must receive an activity.
///
/// §2: federation is subscription-driven — content flows to the instances
/// hosting the author's followers. Public posts additionally flow to every
/// *peer* that has asked to mirror the author's instance (we model the
/// whole-known-network import as follower-driven only, like Pleroma).
#[derive(Debug, Default, Clone, Copy)]
pub struct Mailman;

impl Mailman {
    /// Computes the delivery set for `activity` given the local follow
    /// graph. The local domain itself is never included.
    pub fn delivery_targets(&self, graph: &FollowGraph, activity: &Activity) -> BTreeSet<Domain> {
        let local = &activity.actor.domain;
        let mut targets = BTreeSet::new();
        match (&activity.kind, &activity.payload) {
            (ActivityKind::Create, ActivityPayload::Note(post)) => {
                match post.visibility {
                    Visibility::Direct => {
                        // Only the mentioned users' instances.
                        for m in &post.mentions {
                            if &m.domain != local {
                                targets.insert(m.domain.clone());
                            }
                        }
                    }
                    _ => {
                        // Followers' instances (unless stripped), plus
                        // mentioned users' instances.
                        if !post.followers_stripped {
                            targets.extend(graph.follower_domains(&activity.actor));
                        }
                        for m in &post.mentions {
                            if &m.domain != local {
                                targets.insert(m.domain.clone());
                            }
                        }
                    }
                }
            }
            (ActivityKind::Follow, ActivityPayload::FollowRequest { target }) => {
                if &target.domain != local {
                    targets.insert(target.domain.clone());
                }
            }
            (ActivityKind::Flag, ActivityPayload::Report { target, .. }) => {
                if &target.domain != local {
                    targets.insert(target.domain.clone());
                }
            }
            // Deletes/boosts/likes follow the same follower fan-out.
            _ => {
                targets.extend(graph.follower_domains(&activity.actor));
            }
        }
        targets.remove(local);
        targets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::id::{PostId, UserId, UserRef};
    use fediscope_core::model::Post;
    use fediscope_core::time::SimTime;

    fn user(id: u64, domain: &str) -> UserRef {
        UserRef::new(UserId(id), Domain::new(domain))
    }

    fn create(id: u64, author: &UserRef) -> Activity {
        Activity::create(
            ActivityId(id),
            Post::stub(PostId(id), author.clone(), SimTime(0), "hello"),
        )
    }

    #[test]
    fn inbox_deduplicates_replays() {
        let mut inbox = Inbox::new();
        let a = create(1, &user(1, "r.example"));
        assert!(inbox.receive(&a));
        assert!(!inbox.receive(&a), "at-least-once delivery must be deduped");
        assert_eq!(inbox.len(), 1);
        assert!(inbox.has_seen(ActivityId(1)));
        assert!(!inbox.has_seen(ActivityId(2)));
    }

    #[test]
    fn public_posts_fan_out_to_follower_domains() {
        let mut graph = FollowGraph::new();
        let author = user(1, "home.example");
        graph.follow(user(2, "a.example"), author.clone(), SimTime(0));
        graph.follow(user(3, "b.example"), author.clone(), SimTime(0));
        graph.follow(user(4, "home.example"), author.clone(), SimTime(0));
        let targets = Mailman.delivery_targets(&graph, &create(1, &author));
        assert_eq!(targets.len(), 2, "local followers don't need delivery");
        assert!(targets.contains(&Domain::new("a.example")));
        assert!(targets.contains(&Domain::new("b.example")));
    }

    #[test]
    fn stripped_followers_suppress_fanout_but_not_mentions() {
        let mut graph = FollowGraph::new();
        let author = user(1, "home.example");
        graph.follow(user(2, "a.example"), author.clone(), SimTime(0));
        let mut post = Post::stub(PostId(1), author.clone(), SimTime(0), "x");
        post.followers_stripped = true;
        post.mentions.push(user(9, "c.example"));
        let act = Activity::create(ActivityId(1), post);
        let targets = Mailman.delivery_targets(&graph, &act);
        assert_eq!(targets.len(), 1);
        assert!(targets.contains(&Domain::new("c.example")));
    }

    #[test]
    fn direct_messages_go_only_to_mentioned_instances() {
        let mut graph = FollowGraph::new();
        let author = user(1, "home.example");
        graph.follow(user(2, "a.example"), author.clone(), SimTime(0));
        let mut post = Post::stub(PostId(1), author.clone(), SimTime(0), "psst");
        post.visibility = Visibility::Direct;
        post.mentions.push(user(9, "dm.example"));
        let act = Activity::create(ActivityId(1), post);
        let targets = Mailman.delivery_targets(&graph, &act);
        assert_eq!(targets.len(), 1);
        assert!(targets.contains(&Domain::new("dm.example")));
    }

    #[test]
    fn follows_are_delivered_to_target_instance() {
        let graph = FollowGraph::new();
        let follow = Activity::follow(
            ActivityId(1),
            user(1, "home.example"),
            user(2, "far.example"),
            SimTime(0),
        );
        let targets = Mailman.delivery_targets(&graph, &follow);
        assert_eq!(targets.len(), 1);
        assert!(targets.contains(&Domain::new("far.example")));
    }

    #[test]
    fn reports_are_delivered_to_reported_users_instance() {
        let graph = FollowGraph::new();
        let flag = Activity::report(
            ActivityId(1),
            user(1, "home.example"),
            user(2, "bad.example"),
            "spam",
            SimTime(0),
        );
        let targets = Mailman.delivery_targets(&graph, &flag);
        assert!(targets.contains(&Domain::new("bad.example")));
    }

    #[test]
    fn deletes_follow_follower_fanout() {
        let mut graph = FollowGraph::new();
        let author = user(1, "home.example");
        graph.follow(user(2, "a.example"), author.clone(), SimTime(0));
        let del = Activity::delete(ActivityId(1), author.clone(), PostId(1), SimTime(1));
        let targets = Mailman.delivery_targets(&graph, &del);
        assert!(targets.contains(&Domain::new("a.example")));
    }
}
