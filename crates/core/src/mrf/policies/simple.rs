//! `SimplePolicy` — the paper's centrepiece.
//!
//! §4.1: *"The SimplePolicy is the most flexible policy, allowing admins to
//! configure a range of actions on posts or instances that match certain
//! criteria, e.g. the reject action blocks all connections from a given
//! instance."* Figures 2 and 3 of the paper break down the ten actions;
//! `reject` alone accounts for 62.8% of all moderation events and hits
//! 86.2% of users.

use crate::catalog::PolicyKind;
use crate::id::Domain;
use crate::model::{ActivityKind, Post, Visibility};
use crate::mrf::context::{PolicyContext, ProfileImage, SideEffect};
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// FNV-1a — a tiny allocation-free hasher for the membership index.
/// Domain names are short and not attacker-controlled in this system;
/// std's SipHash would cost more than the rest of a one-target delta on
/// the control path.
pub(crate) struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

type FnvBuild = BuildHasherDefault<FnvHasher>;

/// The ten `SimplePolicy` actions, named exactly as the paper's Figures 2/3
/// label them (Pleroma's `mrf_simple` keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SimpleAction {
    /// Block all activities from the target instance.
    Reject,
    /// Remove the target's posts from the federated (whole-known-network)
    /// timeline (`fed_timeline_rem` in the figures).
    FederatedTimelineRemoval,
    /// Whitelist mode: if non-empty, only the listed instances federate.
    Accept,
    /// Strip media attachments from the target's posts.
    MediaRemoval,
    /// Strip profile banners of the target's users.
    BannerRemoval,
    /// Strip avatars of the target's users.
    AvatarRemoval,
    /// Force-mark the target's media as sensitive (`nsfw`).
    MediaNsfw,
    /// Ignore `Delete` activities from the target.
    RejectDeletes,
    /// Ignore `Flag` (report) activities from the target.
    ReportRemoval,
    /// Force the target's posts to followers-only visibility.
    FollowersOnly,
}

impl SimpleAction {
    /// All ten actions, in the order the paper's Figure 2 lists them.
    pub const ALL: [SimpleAction; 10] = [
        SimpleAction::Reject,
        SimpleAction::FederatedTimelineRemoval,
        SimpleAction::Accept,
        SimpleAction::MediaRemoval,
        SimpleAction::BannerRemoval,
        SimpleAction::AvatarRemoval,
        SimpleAction::MediaNsfw,
        SimpleAction::RejectDeletes,
        SimpleAction::ReportRemoval,
        SimpleAction::FollowersOnly,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SimpleAction::Reject => "reject",
            SimpleAction::FederatedTimelineRemoval => "fed_timeline_rem",
            SimpleAction::Accept => "accept",
            SimpleAction::MediaRemoval => "media_removal",
            SimpleAction::BannerRemoval => "banner_removal",
            SimpleAction::AvatarRemoval => "avatar_removal",
            SimpleAction::MediaNsfw => "nsfw",
            SimpleAction::RejectDeletes => "reject_deletes",
            SimpleAction::ReportRemoval => "report_removal",
            SimpleAction::FollowersOnly => "followers_only",
        }
    }

    /// The Pleroma `mrf_simple` configuration key.
    pub fn config_key(self) -> &'static str {
        match self {
            SimpleAction::Reject => "reject",
            SimpleAction::FederatedTimelineRemoval => "federated_timeline_removal",
            SimpleAction::Accept => "accept",
            SimpleAction::MediaRemoval => "media_removal",
            SimpleAction::BannerRemoval => "banner_removal",
            SimpleAction::AvatarRemoval => "avatar_removal",
            SimpleAction::MediaNsfw => "media_nsfw",
            SimpleAction::RejectDeletes => "reject_deletes",
            SimpleAction::ReportRemoval => "report_removal",
            SimpleAction::FollowersOnly => "followers_only",
        }
    }

    /// Applies this action's post rewrite (media removal, NSFW,
    /// de-listing, followers-only), cloning only when it changes the post.
    /// The other actions do not rewrite posts and leave it alone.
    pub(crate) fn rewrite_post(self, act: &mut Inbound<'_>) {
        let changes = |p: &Post| match self {
            SimpleAction::MediaRemoval => p.has_media(),
            SimpleAction::MediaNsfw => !p.is_fully_sensitive(),
            SimpleAction::FederatedTimelineRemoval => p.visibility == Visibility::Public,
            SimpleAction::FollowersOnly => p.visibility.is_public_ish(),
            _ => false,
        };
        let Some(post) = act.note_mut_if(changes) else {
            return;
        };
        match self {
            SimpleAction::MediaRemoval => post.strip_media(),
            SimpleAction::MediaNsfw => post.force_sensitive(),
            SimpleAction::FederatedTimelineRemoval => post.visibility = Visibility::Unlisted,
            SimpleAction::FollowersOnly => post.visibility = Visibility::FollowersOnly,
            _ => {}
        }
    }

    /// Parse a figure label or config key back into an action.
    pub fn parse(s: &str) -> Option<SimpleAction> {
        Self::ALL
            .into_iter()
            .find(|a| a.label() == s || a.config_key() == s)
    }
}

/// One action's target list: the ordered (insertion-order, serialized)
/// domain list, plus a hash index over the names — the per-stage cache
/// that makes membership, dedup on [`SimplePolicy::add_target`], and the
/// subdomain-matching hot path O(1)-ish instead of O(list). Heavy-tailed
/// blocklist imports (thousands of targets) stay cheap both to *apply*
/// (the pipeline delta API merges one target at a time) and to *enforce*
/// (each inbound activity walks its domain's parent labels instead of
/// scanning the list).
///
/// Serialization delegates to the ordered `Vec<Domain>`, so the wire
/// shape is exactly what it was before the index existed; the index is
/// rebuilt on deserialize.
#[derive(Debug, Clone, Default)]
struct TargetList {
    ordered: Vec<Domain>,
    index: HashSet<Arc<str>, FnvBuild>,
}

impl TargetList {
    /// Builds a list from a plain vector, deduplicating while keeping
    /// first-occurrence order — `add_target` semantics for hand-built or
    /// deserialized inputs.
    fn from_vec(ordered: Vec<Domain>) -> Self {
        let mut list = TargetList::default();
        for domain in ordered {
            list.add(domain);
        }
        list
    }

    /// Adds `domain` if absent; returns whether it was added.
    fn add(&mut self, domain: Domain) -> bool {
        if self.index.insert(domain.shared_str()) {
            self.ordered.push(domain);
            true
        } else {
            false
        }
    }

    /// Removes `domain`; returns whether it was present.
    fn remove(&mut self, domain: &Domain) -> bool {
        if self.index.remove(domain.as_str()) {
            self.ordered.retain(|d| d != domain);
            true
        } else {
            false
        }
    }

    /// Whether `domain` (or any of its parent domains) is targeted —
    /// Pleroma's subdomain matching rule, answered by walking the
    /// candidate's `.`-separated suffixes through the index.
    fn matches(&self, domain: &Domain) -> bool {
        let name = domain.as_str();
        if self.index.contains(name) {
            return true;
        }
        let mut rest = name;
        while let Some(dot) = rest.find('.') {
            rest = &rest[dot + 1..];
            if self.index.contains(rest) {
                return true;
            }
        }
        false
    }
}

impl Serialize for TargetList {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.ordered.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for TargetList {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Ok(TargetList::from_vec(Vec::<Domain>::deserialize(
            deserializer,
        )?))
    }
}

/// Per-instance `SimplePolicy` configuration: which domains each action
/// targets. This is both an executable MRF filter and the *data* the
/// instance publishes through its metadata API — which is precisely what
/// the paper's crawler collected.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimplePolicy {
    targets: BTreeMap<SimpleAction, TargetList>,
}

impl SimplePolicy {
    /// An empty configuration (no targets).
    pub fn new() -> Self {
        SimplePolicy::default()
    }

    /// Adds `domain` to `action`'s target list (deduplicated through the
    /// membership index — O(1) amortized, which is what keeps heavy
    /// blocklist imports O(delta) end to end).
    pub fn add_target(&mut self, action: SimpleAction, domain: Domain) {
        self.targets.entry(action).or_default().add(domain);
    }

    /// Builder-style [`add_target`](Self::add_target).
    pub fn with_target(mut self, action: SimpleAction, domain: Domain) -> Self {
        self.add_target(action, domain);
        self
    }

    /// Removes `domain` from `action`'s target list; returns whether it
    /// was present.
    pub fn remove_target(&mut self, action: SimpleAction, domain: &Domain) -> bool {
        self.targets
            .get_mut(&action)
            .map(|list| list.remove(domain))
            .unwrap_or(false)
    }

    /// Target list for one action, in insertion order.
    pub fn targets(&self, action: SimpleAction) -> &[Domain] {
        self.targets
            .get(&action)
            .map(|l| l.ordered.as_slice())
            .unwrap_or(&[])
    }

    /// Merges every `(action, domain)` pair of `other` into this config
    /// (deduplicated, existing order preserved). This is how a staged
    /// rollout grows an instance's configuration wave by wave until it
    /// reaches the full target list.
    pub fn merge(&mut self, other: &SimplePolicy) {
        for (action, domain) in other.events() {
            self.add_target(action, domain.clone());
        }
    }

    /// Every `(action, domain)` pair — one *moderation event* in the
    /// paper's accounting.
    pub fn events(&self) -> impl Iterator<Item = (SimpleAction, &Domain)> {
        self.targets
            .iter()
            .flat_map(|(a, list)| list.ordered.iter().map(move |d| (*a, d)))
    }

    /// Actions with at least one target.
    pub fn active_actions(&self) -> Vec<SimpleAction> {
        self.targets
            .iter()
            .filter(|(_, list)| !list.ordered.is_empty())
            .map(|(a, _)| *a)
            .collect()
    }

    /// Whether `domain` is targeted by `action` (subdomains match):
    /// answered through the membership index by walking the candidate's
    /// parent labels — O(labels), never O(targets).
    pub fn matches(&self, action: SimpleAction, domain: &Domain) -> bool {
        self.targets
            .get(&action)
            .map(|list| list.matches(domain))
            .unwrap_or(false)
    }

    fn reject(&self, code: &'static str, detail: String) -> Result<(), RejectReason> {
        Err(RejectReason::new(PolicyKind::Simple, code, detail))
    }
}

impl MrfPolicy for SimplePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Simple
    }

    fn as_simple(&self) -> Option<&SimplePolicy> {
        Some(self)
    }

    fn as_simple_mut(&mut self) -> Option<&mut SimplePolicy> {
        Some(self)
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let origin = act.origin();
        // Local activities are never subject to SimplePolicy.
        if ctx.is_local(origin) {
            return Ok(());
        }
        // reject: the brute-force block the paper centres on.
        if self.matches(SimpleAction::Reject, origin) {
            return self.reject("instance_blocked", format!("{origin} is rejected"));
        }
        // accept: whitelist federation if configured.
        let whitelist = self.targets(SimpleAction::Accept);
        if !whitelist.is_empty() && !whitelist.iter().any(|t| origin.matches(t)) {
            return self.reject("not_whitelisted", format!("{origin} not in accept list"));
        }
        // reject_deletes / report_removal: kind-specific drops.
        if act.kind == ActivityKind::Delete && self.matches(SimpleAction::RejectDeletes, origin) {
            return self.reject("delete_rejected", format!("deletes from {origin} ignored"));
        }
        if act.kind == ActivityKind::Flag && self.matches(SimpleAction::ReportRemoval, origin) {
            return self.reject("report_removed", format!("reports from {origin} ignored"));
        }
        // Profile image stripping is an effect on actor rendering.
        if self.matches(SimpleAction::BannerRemoval, origin) {
            ctx.emit(SideEffect::ProfileMediaStripped {
                host: origin.clone(),
                image: ProfileImage::Banner,
            });
        }
        if self.matches(SimpleAction::AvatarRemoval, origin) {
            ctx.emit(SideEffect::ProfileMediaStripped {
                host: origin.clone(),
                image: ProfileImage::Avatar,
            });
        }
        // Post rewrites, in this order.
        for action in [
            SimpleAction::MediaRemoval,
            SimpleAction::MediaNsfw,
            SimpleAction::FederatedTimelineRemoval,
            SimpleAction::FollowersOnly,
        ] {
            if self.matches(action, act.origin()) {
                action.rewrite_post(act);
            }
        }
        Ok(())
    }

    fn describe(&self) -> String {
        let parts: Vec<String> = self
            .targets
            .iter()
            .filter(|(_, l)| !l.ordered.is_empty())
            .map(|(a, l)| format!("{}:{}", a.label(), l.ordered.len()))
            .collect();
        format!("SimplePolicy({})", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, PostId, UserId, UserRef};
    use crate::model::{Activity, MediaAttachment, MediaKind};
    use crate::mrf::context::NullActorDirectory;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    fn remote_post(domain: &str) -> Activity {
        let author = UserRef::new(UserId(5), Domain::new(domain));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "content");
        post.media.push(MediaAttachment {
            host: Domain::new(domain),
            kind: MediaKind::Image,
            sensitive: false,
        });
        Activity::create(ActivityId(1), post)
    }

    fn run(policy: &SimplePolicy, act: Activity) -> (PolicyVerdict, Vec<SideEffect>) {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(1000), &dir);
        let v = filter_owned(policy, &ctx, act);
        let effects = ctx.take_effects();
        (v, effects)
    }

    #[test]
    fn reject_blocks_everything_from_target() {
        let p = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example"));
        let (v, _) = run(&p, remote_post("bad.example"));
        let r = v.expect_reject();
        assert_eq!(r.code, "instance_blocked");
        assert_eq!(r.policy, PolicyKind::Simple);
    }

    #[test]
    fn reject_matches_subdomains() {
        let p = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example"));
        let (v, _) = run(&p, remote_post("media.bad.example"));
        assert!(!v.is_pass());
    }

    #[test]
    fn unrelated_instances_pass() {
        let p = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example"));
        let (v, _) = run(&p, remote_post("good.example"));
        assert!(v.is_pass());
    }

    #[test]
    fn local_activities_are_exempt() {
        let p = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("home.example"));
        let (v, _) = run(&p, remote_post("home.example"));
        assert!(v.is_pass(), "SimplePolicy never applies to local traffic");
    }

    #[test]
    fn accept_whitelist_blocks_unlisted_instances() {
        let p =
            SimplePolicy::new().with_target(SimpleAction::Accept, Domain::new("friend.example"));
        let (v, _) = run(&p, remote_post("friend.example"));
        assert!(v.is_pass());
        let (v, _) = run(&p, remote_post("stranger.example"));
        assert_eq!(v.expect_reject().code, "not_whitelisted");
    }

    #[test]
    fn media_removal_strips_attachments_keeps_text() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::MediaRemoval, Domain::new("porn.example"));
        let (v, _) = run(&p, remote_post("porn.example"));
        let a = v.expect_pass();
        let post = a.note().unwrap();
        assert!(!post.has_media());
        assert_eq!(&*post.content, "content");
    }

    #[test]
    fn media_removal_without_media_is_judged_without_a_clone() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::MediaRemoval, Domain::new("porn.example"));
        let mut template = remote_post("porn.example");
        template.note_mut().unwrap().strip_media();
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(1000), &dir);
        let mut inbound = Inbound::borrowed(&template, SimTime(1000));
        assert!(p.filter(&ctx, &mut inbound).is_ok());
        assert!(inbound.is_borrowed());
    }

    #[test]
    fn nsfw_forces_sensitive() {
        let p =
            SimplePolicy::new().with_target(SimpleAction::MediaNsfw, Domain::new("lewd.example"));
        let (v, _) = run(&p, remote_post("lewd.example"));
        let a = v.expect_pass();
        assert!(a.note().unwrap().sensitive);
    }

    #[test]
    fn fed_timeline_removal_delists() {
        let p = SimplePolicy::new().with_target(
            SimpleAction::FederatedTimelineRemoval,
            Domain::new("loud.example"),
        );
        let (v, _) = run(&p, remote_post("loud.example"));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
    }

    #[test]
    fn followers_only_downgrades_visibility() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::FollowersOnly, Domain::new("spam.example"));
        let (v, _) = run(&p, remote_post("spam.example"));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::FollowersOnly
        );
    }

    #[test]
    fn reject_deletes_drops_only_deletes() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::RejectDeletes, Domain::new("flaky.example"));
        let author = UserRef::new(UserId(5), Domain::new("flaky.example"));
        let del = Activity::delete(ActivityId(2), author, PostId(1), SimTime(10));
        let (v, _) = run(&p, del);
        assert_eq!(v.expect_reject().code, "delete_rejected");
        // Creates still pass.
        let (v, _) = run(&p, remote_post("flaky.example"));
        assert!(v.is_pass());
    }

    #[test]
    fn report_removal_drops_flags() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::ReportRemoval, Domain::new("noisy.example"));
        let actor = UserRef::new(UserId(5), Domain::new("noisy.example"));
        let target = UserRef::new(UserId(9), Domain::new("home.example"));
        let flag = Activity::report(ActivityId(3), actor, target, "spam", SimTime(5));
        let (v, _) = run(&p, flag);
        assert_eq!(v.expect_reject().code, "report_removed");
    }

    #[test]
    fn banner_and_avatar_removal_emit_effects() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::BannerRemoval, Domain::new("ugly.example"))
            .with_target(SimpleAction::AvatarRemoval, Domain::new("ugly.example"));
        let (v, effects) = run(&p, remote_post("ugly.example"));
        assert!(v.is_pass());
        assert_eq!(effects.len(), 2);
        assert!(effects.iter().any(|e| matches!(
            e,
            SideEffect::ProfileMediaStripped {
                image: ProfileImage::Banner,
                ..
            }
        )));
        assert!(effects.iter().any(|e| matches!(
            e,
            SideEffect::ProfileMediaStripped {
                image: ProfileImage::Avatar,
                ..
            }
        )));
    }

    #[test]
    fn events_enumerates_action_target_pairs() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("a.example"))
            .with_target(SimpleAction::Reject, Domain::new("b.example"))
            .with_target(SimpleAction::MediaNsfw, Domain::new("c.example"));
        assert_eq!(p.events().count(), 3);
        assert_eq!(p.targets(SimpleAction::Reject).len(), 2);
        assert_eq!(p.active_actions().len(), 2);
    }

    #[test]
    fn add_target_deduplicates() {
        let mut p = SimplePolicy::new();
        p.add_target(SimpleAction::Reject, Domain::new("a.example"));
        p.add_target(SimpleAction::Reject, Domain::new("a.example"));
        assert_eq!(p.targets(SimpleAction::Reject).len(), 1);
    }

    #[test]
    fn labels_round_trip() {
        for a in SimpleAction::ALL {
            assert_eq!(SimpleAction::parse(a.label()), Some(a));
            assert_eq!(SimpleAction::parse(a.config_key()), Some(a));
        }
        assert_eq!(SimpleAction::parse("bogus"), None);
    }

    #[test]
    fn serde_round_trip_rebuilds_the_membership_index() {
        let p = SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("bad.example"))
            .with_target(SimpleAction::Reject, Domain::new("worse.example"))
            .with_target(SimpleAction::MediaNsfw, Domain::new("lewd.example"));
        let json = serde_json::to_string(&p).unwrap();
        let back: SimplePolicy = serde_json::from_str(&json).unwrap();
        // Ordered lists survive byte for byte (the wire shape is the
        // plain vector; the index never serializes)...
        assert_eq!(
            back.targets(SimpleAction::Reject),
            p.targets(SimpleAction::Reject)
        );
        assert_eq!(
            back.targets(SimpleAction::MediaNsfw),
            p.targets(SimpleAction::MediaNsfw)
        );
        // ...and the rebuilt index answers subdomain matching.
        assert!(back.matches(SimpleAction::Reject, &Domain::new("media.bad.example")));
        assert!(!back.matches(SimpleAction::Reject, &Domain::new("good.example")));
    }

    #[test]
    fn index_matching_respects_label_boundaries() {
        // "notbad.example" must not match the "bad.example" target even
        // though it is a string suffix — the index walks `.` boundaries.
        let p = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example"));
        assert!(!p.matches(SimpleAction::Reject, &Domain::new("notbad.example")));
        assert!(p.matches(SimpleAction::Reject, &Domain::new("a.b.bad.example")));
        // A target that is itself a subdomain never matches its parent.
        assert!(!p.matches(SimpleAction::Reject, &Domain::new("example")));
    }

    #[test]
    fn describe_summarises_config() {
        let p = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("a.example"));
        assert_eq!(p.describe(), "SimplePolicy(reject:1)");
    }
}
