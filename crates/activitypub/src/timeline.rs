//! The three timelines of §3.
//!
//! > "Users have three timelines: (i) a *home* timeline, with posts
//! > published by the accounts that the user follows (local and remote);
//! > (ii) a *public* timeline, with all the posts generated within the
//! > local instance; and (iii) the *whole known network*, with all posts
//! > that have been retrieved from remote instances that the local users
//! > follow."

use fediscope_core::id::{Domain, PostId, UserRef};
use fediscope_core::model::{Post, Visibility};
use std::collections::HashMap;

/// Which timeline to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimelineKind {
    /// Posts by accounts the user follows (per-user).
    Home,
    /// All public posts generated on the local instance
    /// (`/api/v1/timelines/public?local=true` — what the paper scraped).
    PublicLocal,
    /// The whole known network: the union of remote posts retrieved for
    /// all local users.
    WholeKnownNetwork,
}

/// Timeline storage for one instance.
///
/// Posts are stored once; timelines hold ids in insertion order (which is
/// also `PostId` order for local posts, making `max_id` pagination exact).
#[derive(Debug, Default)]
pub struct Timelines {
    posts: HashMap<PostId, Post>,
    public_local: Vec<PostId>,
    whole_known_network: Vec<PostId>,
    home: HashMap<UserRef, Vec<PostId>>,
}

impl Timelines {
    /// Empty timelines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests a post originating on this instance.
    ///
    /// Public posts land on the public-local timeline; all posts land on
    /// the home timelines of the given local followers (plus the author).
    pub fn ingest_local(&mut self, post: Post, local_followers: &[UserRef]) {
        let id = post.id;
        if post.visibility == Visibility::Public {
            self.public_local.push(id);
        }
        self.home.entry(post.author.clone()).or_default().push(id);
        for follower in local_followers {
            if follower != &post.author {
                self.home.entry(follower.clone()).or_default().push(id);
            }
        }
        self.posts.insert(id, post);
    }

    /// Ingests a post retrieved from a remote instance (it already passed
    /// the MRF pipeline).
    ///
    /// Public remote posts (not federated-timeline-removed) land on the
    /// whole-known-network timeline; home delivery goes to the local
    /// followers unless the post's followers collection was stripped.
    pub fn ingest_remote(&mut self, post: Post, local_followers: &[UserRef]) {
        let id = post.id;
        if post.visibility == Visibility::Public {
            self.whole_known_network.push(id);
        }
        if !post.followers_stripped {
            for follower in local_followers {
                self.home.entry(follower.clone()).or_default().push(id);
            }
        }
        self.posts.insert(id, post);
    }

    /// Removes a post everywhere (a `Delete` that survived the pipeline).
    pub fn delete(&mut self, id: PostId) -> bool {
        let existed = self.posts.remove(&id).is_some();
        if existed {
            self.public_local.retain(|p| *p != id);
            self.whole_known_network.retain(|p| *p != id);
            for tl in self.home.values_mut() {
                tl.retain(|p| *p != id);
            }
        }
        existed
    }

    /// Expires posts whose `expires_at` has passed (the
    /// `ActivityExpirationPolicy` reaper). Returns how many were removed.
    pub fn expire(&mut self, now: fediscope_core::time::SimTime) -> usize {
        let expired: Vec<PostId> = self
            .posts
            .values()
            .filter(|p| p.expires_at.map(|t| t <= now).unwrap_or(false))
            .map(|p| p.id)
            .collect();
        for id in &expired {
            self.delete(*id);
        }
        expired.len()
    }

    /// Reads a timeline newest-first with Mastodon-style `max_id` paging:
    /// returns up to `limit` posts with id strictly less than `max_id`
    /// (or the newest if `None`).
    pub fn page(
        &self,
        kind: TimelineKind,
        viewer: Option<&UserRef>,
        max_id: Option<PostId>,
        limit: usize,
    ) -> Vec<&Post> {
        let ids: &[PostId] = match kind {
            TimelineKind::PublicLocal => &self.public_local,
            TimelineKind::WholeKnownNetwork => &self.whole_known_network,
            TimelineKind::Home => viewer
                .and_then(|v| self.home.get(v))
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        };
        ids.iter()
            .rev()
            .filter(|id| max_id.map(|m| **id < m).unwrap_or(true))
            .take(limit)
            .filter_map(|id| self.posts.get(id))
            .collect()
    }

    /// Fetches a post by id.
    pub fn get(&self, id: PostId) -> Option<&Post> {
        self.posts.get(&id)
    }

    /// Total posts stored on the instance.
    pub fn post_count(&self) -> usize {
        self.posts.len()
    }

    /// Length of one timeline.
    pub fn timeline_len(&self, kind: TimelineKind, viewer: Option<&UserRef>) -> usize {
        match kind {
            TimelineKind::PublicLocal => self.public_local.len(),
            TimelineKind::WholeKnownNetwork => self.whole_known_network.len(),
            TimelineKind::Home => viewer
                .and_then(|v| self.home.get(v))
                .map(Vec::len)
                .unwrap_or(0),
        }
    }

    /// Domains whose posts appear in the whole known network — federation
    /// evidence for the Peers API.
    pub fn known_remote_domains(&self) -> Vec<Domain> {
        let mut v: Vec<Domain> = self
            .whole_known_network
            .iter()
            .filter_map(|id| self.posts.get(id))
            .map(|p| p.origin().clone())
            .collect();
        v.sort();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::id::UserId;
    use fediscope_core::time::SimTime;

    fn user(id: u64, domain: &str) -> UserRef {
        UserRef::new(UserId(id), Domain::new(domain))
    }

    fn post(id: u64, author: &UserRef, vis: Visibility) -> Post {
        let mut p = Post::stub(
            PostId(id),
            author.clone(),
            SimTime(id),
            format!("post {id}"),
        );
        p.visibility = vis;
        p
    }

    #[test]
    fn local_public_posts_reach_public_timeline() {
        let mut t = Timelines::new();
        let author = user(1, "home.example");
        t.ingest_local(post(1, &author, Visibility::Public), &[]);
        t.ingest_local(post(2, &author, Visibility::Unlisted), &[]);
        assert_eq!(t.timeline_len(TimelineKind::PublicLocal, None), 1);
        assert_eq!(t.post_count(), 2);
    }

    #[test]
    fn remote_posts_reach_whole_known_network_not_public() {
        let mut t = Timelines::new();
        let remote = user(9, "remote.example");
        t.ingest_remote(post(1, &remote, Visibility::Public), &[]);
        assert_eq!(t.timeline_len(TimelineKind::PublicLocal, None), 0);
        assert_eq!(t.timeline_len(TimelineKind::WholeKnownNetwork, None), 1);
    }

    #[test]
    fn home_timeline_collects_followed_authors() {
        let mut t = Timelines::new();
        let local_author = user(1, "home.example");
        let follower = user(2, "home.example");
        let remote = user(9, "remote.example");
        t.ingest_local(
            post(1, &local_author, Visibility::Public),
            std::slice::from_ref(&follower),
        );
        t.ingest_remote(
            post(2, &remote, Visibility::Public),
            std::slice::from_ref(&follower),
        );
        assert_eq!(t.timeline_len(TimelineKind::Home, Some(&follower)), 2);
        // The author sees their own post at home.
        assert_eq!(t.timeline_len(TimelineKind::Home, Some(&local_author)), 1);
    }

    #[test]
    fn followers_stripped_posts_skip_home_delivery() {
        let mut t = Timelines::new();
        let remote = user(9, "remote.example");
        let follower = user(2, "home.example");
        let mut p = post(1, &remote, Visibility::Public);
        p.followers_stripped = true;
        t.ingest_remote(p, std::slice::from_ref(&follower));
        assert_eq!(t.timeline_len(TimelineKind::Home, Some(&follower)), 0);
        // It still shows on the whole known network (it is public).
        assert_eq!(t.timeline_len(TimelineKind::WholeKnownNetwork, None), 1);
    }

    #[test]
    fn pagination_is_newest_first_and_complete() {
        let mut t = Timelines::new();
        let author = user(1, "home.example");
        for i in 1..=25 {
            t.ingest_local(post(i, &author, Visibility::Public), &[]);
        }
        let page1 = t.page(TimelineKind::PublicLocal, None, None, 10);
        assert_eq!(page1.len(), 10);
        assert_eq!(page1[0].id, PostId(25), "newest first");
        assert_eq!(page1[9].id, PostId(16));
        // Next page via max_id.
        let page2 = t.page(TimelineKind::PublicLocal, None, Some(PostId(16)), 10);
        assert_eq!(page2[0].id, PostId(15));
        let page3 = t.page(TimelineKind::PublicLocal, None, Some(PostId(6)), 10);
        assert_eq!(page3.len(), 5);
        // Walking pages yields every post exactly once.
        let mut seen = Vec::new();
        let mut max_id = None;
        loop {
            let page = t.page(TimelineKind::PublicLocal, None, max_id, 7);
            if page.is_empty() {
                break;
            }
            max_id = Some(page.last().unwrap().id);
            seen.extend(page.iter().map(|p| p.id.0));
        }
        assert_eq!(seen.len(), 25);
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 25, "no duplicates");
    }

    #[test]
    fn delete_removes_everywhere() {
        let mut t = Timelines::new();
        let author = user(1, "home.example");
        let follower = user(2, "home.example");
        t.ingest_local(
            post(1, &author, Visibility::Public),
            std::slice::from_ref(&follower),
        );
        assert!(t.delete(PostId(1)));
        assert_eq!(t.post_count(), 0);
        assert_eq!(t.timeline_len(TimelineKind::PublicLocal, None), 0);
        assert_eq!(t.timeline_len(TimelineKind::Home, Some(&follower)), 0);
        assert!(!t.delete(PostId(1)), "double delete is a no-op");
    }

    #[test]
    fn expiry_reaps_stamped_posts() {
        let mut t = Timelines::new();
        let author = user(1, "home.example");
        let mut p = post(1, &author, Visibility::Public);
        p.expires_at = Some(SimTime(100));
        t.ingest_local(p, &[]);
        t.ingest_local(post(2, &author, Visibility::Public), &[]);
        assert_eq!(t.expire(SimTime(50)), 0);
        assert_eq!(t.expire(SimTime(100)), 1);
        assert_eq!(t.post_count(), 1);
    }

    #[test]
    fn known_remote_domains_deduplicates() {
        let mut t = Timelines::new();
        for (i, d) in [(1, "b.example"), (2, "a.example"), (3, "b.example")] {
            t.ingest_remote(post(i, &user(9, d), Visibility::Public), &[]);
        }
        assert_eq!(
            t.known_remote_domains(),
            vec![Domain::new("a.example"), Domain::new("b.example")]
        );
    }
}
