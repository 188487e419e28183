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
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
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

/// A circulating blocklist, frozen: its names in first-occurrence order
/// plus an immutable name → position index over them. One `Arc` of it is
/// shared by the list's chunk waves ([`SimplePolicy::from_shared`]) and
/// by every adopter's target list they are merged into, so many admins
/// adopting one list build one index between them; each adopter records
/// which of its names it holds as bits.
#[derive(Debug, Default)]
pub struct SharedTargets {
    names: Vec<Domain>,
    index: HashMap<Arc<str>, u32, FnvBuild>,
}

impl SharedTargets {
    /// Appends `domain` if absent. Call it while building the list,
    /// before sharing it behind an `Arc`.
    pub fn insert(&mut self, domain: &Domain) {
        if let Entry::Vacant(slot) = self.index.entry(domain.shared_str()) {
            slot.insert(self.names.len() as u32);
            self.names.push(domain.clone());
        }
    }

    /// The names, in first-occurrence order.
    pub fn names(&self) -> &[Domain] {
        &self.names
    }

    /// Number of distinct names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the list has no names.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    fn position(&self, name: &str) -> Option<usize> {
        self.index.get(name).map(|&p| p as usize)
    }
}

/// A [`TargetList`]'s attached shared index and one membership bit per
/// name in it.
#[derive(Debug, Clone)]
struct SharedBits {
    targets: Arc<SharedTargets>,
    bits: Vec<u64>,
}

impl SharedBits {
    fn new(targets: &Arc<SharedTargets>) -> Self {
        SharedBits {
            targets: Arc::clone(targets),
            bits: vec![0; targets.len().div_ceil(64)],
        }
    }

    fn test(&self, p: usize) -> bool {
        self.bits[p / 64] & (1 << (p % 64)) != 0
    }

    /// Sets bit `p`; returns whether it was clear.
    fn set(&mut self, p: usize) -> bool {
        let was_clear = !self.test(p);
        self.bits[p / 64] |= 1 << (p % 64);
        was_clear
    }

    /// Clears bit `p`; returns whether it was set.
    fn clear(&mut self, p: usize) -> bool {
        let was_set = self.test(p);
        self.bits[p / 64] &= !(1 << (p % 64));
        was_set
    }
}

/// One action's target list: the ordered (insertion-order, serialized)
/// domain list, plus membership indexes over the names — the per-stage
/// cache that makes membership, dedup on [`SimplePolicy::add_target`],
/// and the subdomain-matching hot path O(1)-ish instead of O(list).
/// Heavy-tailed blocklist imports (thousands of targets) stay cheap both
/// to *apply* (the pipeline delta API merges one target at a time) and
/// to *enforce* (each inbound activity walks its domain's parent labels
/// instead of scanning the list).
///
/// Membership lives in two places. A list may carry one attached
/// [`SharedTargets`] index, boxed so an unattached list pays one
/// pointer: the first merged list that carries one attaches it, and from
/// then on every listed name found in it is a bit, whichever wave or
/// block added it. Every other name sits in the private hash index. A
/// name is in exactly one of the two.
///
/// Serialization delegates to the ordered `Vec<Domain>`, so the wire
/// shape is exactly what it was before the indexes existed; the private
/// index is rebuilt on deserialize, unattached.
#[derive(Debug, Clone, Default)]
struct TargetList {
    ordered: Vec<Domain>,
    index: HashSet<Arc<str>, FnvBuild>,
    shared: Option<Box<SharedBits>>,
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

    /// An empty list attached to the same shared index as `self`.
    fn emptied(&self) -> Self {
        TargetList {
            shared: self
                .shared
                .as_ref()
                .map(|s| Box::new(SharedBits::new(&s.targets))),
            ..TargetList::default()
        }
    }

    /// Attaches `targets`, moving the names already listed in it from
    /// the private index to bits.
    fn attach(&mut self, targets: &Arc<SharedTargets>) {
        let mut shared = SharedBits::new(targets);
        for domain in &self.ordered {
            if let Some(p) = targets.position(domain.as_str()) {
                shared.set(p);
                self.index.remove(domain.as_str());
            }
        }
        self.shared = Some(Box::new(shared));
    }

    /// Applies `op` to the bit of `name` when the attached index holds
    /// it; `None` means the name belongs to the private index.
    fn on_bit<R>(&mut self, name: &str, op: impl FnOnce(&mut SharedBits, usize) -> R) -> Option<R> {
        let shared = self.shared.as_deref_mut()?;
        let p = shared.targets.position(name)?;
        Some(op(shared, p))
    }

    /// Adds `domain` if absent; returns whether it was added.
    fn add(&mut self, domain: Domain) -> bool {
        let added = self
            .on_bit(domain.as_str(), SharedBits::set)
            .unwrap_or_else(|| self.index.insert(domain.shared_str()));
        if added {
            self.ordered.push(domain);
        }
        added
    }

    /// Removes `domain`; returns whether it was present.
    fn remove(&mut self, domain: &Domain) -> bool {
        let removed = self
            .on_bit(domain.as_str(), SharedBits::clear)
            .unwrap_or_else(|| self.index.remove(domain.as_str()));
        if removed {
            self.ordered.retain(|d| d != domain);
        }
        removed
    }

    /// Adds every name of `other` in its order, first attaching `other`'s
    /// shared index if this list has none yet.
    fn merge(&mut self, other: &TargetList) {
        if let (None, Some(theirs)) = (&self.shared, &other.shared) {
            self.attach(&theirs.targets);
        }
        for domain in &other.ordered {
            self.add(domain.clone());
        }
    }

    /// Whether exactly `name` is listed.
    fn contains(&self, name: &str) -> bool {
        self.shared
            .as_deref()
            .and_then(|shared| Some(shared.test(shared.targets.position(name)?)))
            .unwrap_or_else(|| self.index.contains(name))
    }

    /// Whether `domain` (or any of its parent domains) is targeted —
    /// Pleroma's subdomain matching rule, answered by walking the
    /// candidate's `.`-separated suffixes through the indexes.
    fn matches(&self, domain: &Domain) -> bool {
        let name = domain.as_str();
        if self.contains(name) {
            return true;
        }
        let mut rest = name;
        while let Some(dot) = rest.find('.') {
            rest = &rest[dot + 1..];
            if self.contains(rest) {
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

/// The per-action target lists of a [`SimplePolicy`], sorted by action:
/// one entry per action that was ever given a list, even if that list
/// has since been emptied. A policy typically uses one or two of the ten
/// actions, so the entries sit in an exactly sized vector.
///
/// Serializes as the object a `BTreeMap<SimpleAction, TargetList>` gives.
#[derive(Debug, Clone, Default)]
struct ActionLists(Vec<(SimpleAction, TargetList)>);

impl ActionLists {
    fn get(&self, action: SimpleAction) -> Option<&TargetList> {
        let i = self.0.binary_search_by_key(&action, |(a, _)| *a).ok()?;
        Some(&self.0[i].1)
    }

    fn get_mut(&mut self, action: SimpleAction) -> Option<&mut TargetList> {
        let i = self.0.binary_search_by_key(&action, |(a, _)| *a).ok()?;
        Some(&mut self.0[i].1)
    }

    /// `action`'s list, inserting `make()` first if it has none.
    fn entry(
        &mut self,
        action: SimpleAction,
        make: impl FnOnce() -> TargetList,
    ) -> &mut TargetList {
        let i = match self.0.binary_search_by_key(&action, |(a, _)| *a) {
            Ok(i) => i,
            Err(i) => {
                self.0.reserve_exact(1);
                self.0.insert(i, (action, make()));
                i
            }
        };
        &mut self.0[i].1
    }

    fn iter(&self) -> impl Iterator<Item = (SimpleAction, &TargetList)> {
        self.0.iter().map(|(a, list)| (*a, list))
    }
}

impl Serialize for ActionLists {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.iter()
            .collect::<BTreeMap<_, _>>()
            .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for ActionLists {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let lists = BTreeMap::<SimpleAction, TargetList>::deserialize(deserializer)?;
        Ok(ActionLists(lists.into_iter().collect()))
    }
}

/// Per-instance `SimplePolicy` configuration: which domains each action
/// targets. This is both an executable MRF filter and the *data* the
/// instance publishes through its metadata API — which is precisely what
/// the paper's crawler collected.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SimplePolicy {
    targets: ActionLists,
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
        self.targets.entry(action, TargetList::default).add(domain);
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
            .get_mut(action)
            .map(|list| list.remove(domain))
            .unwrap_or(false)
    }

    /// Target list for one action, in insertion order.
    pub fn targets(&self, action: SimpleAction) -> &[Domain] {
        self.targets
            .get(action)
            .map(|l| l.ordered.as_slice())
            .unwrap_or(&[])
    }

    /// A policy whose `action` list holds `domains` (deduplicated, in
    /// order), attached to `targets` — one chunk wave of a circulating
    /// blocklist. Lists this policy is [merged](Self::merge) into attach
    /// the same index. Empty `domains` give an empty policy.
    pub fn from_shared(
        action: SimpleAction,
        targets: &Arc<SharedTargets>,
        domains: &[Domain],
    ) -> SimplePolicy {
        let mut policy = SimplePolicy::new();
        if !domains.is_empty() {
            let list = policy.targets.entry(action, TargetList::default);
            list.attach(targets);
            for domain in domains {
                list.add(domain.clone());
            }
        }
        policy
    }

    /// The `(action, domain)` pairs `keep` accepts, seen in
    /// [`events`](Self::events) order, or `None` when it accepts none.
    /// Each kept list stays attached to its source list's shared index.
    pub fn subset(
        &self,
        mut keep: impl FnMut(SimpleAction, &Domain) -> bool,
    ) -> Option<SimplePolicy> {
        let mut sub: Option<SimplePolicy> = None;
        for (action, list) in self.targets.iter() {
            for domain in &list.ordered {
                if keep(action, domain) {
                    sub.get_or_insert_with(SimplePolicy::new)
                        .targets
                        .entry(action, || list.emptied())
                        .add(domain.clone());
                }
            }
        }
        sub
    }

    /// Merges every `(action, domain)` pair of `other` into this config
    /// (deduplicated, existing order preserved). This is how a staged
    /// rollout grows an instance's configuration wave by wave until it
    /// reaches the full target list. An action gets a list here only
    /// when `other` lists at least one target for it, so the serialized
    /// shape never gains an empty `"reject": []`. A list with no shared
    /// index attaches the one of the first merged list that carries one
    /// (see [`from_shared`](Self::from_shared)).
    pub fn merge(&mut self, other: &SimplePolicy) {
        for (action, list) in other.targets.iter() {
            if !list.ordered.is_empty() {
                self.targets.entry(action, TargetList::default).merge(list);
            }
        }
    }

    /// Every `(action, domain)` pair — one *moderation event* in the
    /// paper's accounting.
    pub fn events(&self) -> impl Iterator<Item = (SimpleAction, &Domain)> {
        self.targets
            .iter()
            .flat_map(|(a, list)| list.ordered.iter().map(move |d| (a, d)))
    }

    /// Actions with at least one target.
    pub fn active_actions(&self) -> Vec<SimpleAction> {
        self.targets
            .iter()
            .filter(|(_, list)| !list.ordered.is_empty())
            .map(|(a, _)| a)
            .collect()
    }

    /// Whether `domain` is targeted by `action` (subdomains match):
    /// answered through the membership index by walking the candidate's
    /// parent labels — O(labels), never O(targets).
    pub fn matches(&self, action: SimpleAction, domain: &Domain) -> bool {
        self.targets
            .get(action)
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
        if !self.targets(SimpleAction::Accept).is_empty()
            && !self.matches(SimpleAction::Accept, origin)
        {
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
        // A dot-bounded subdomain of a listed name passes; a name that
        // merely ends in the same letters does not.
        let (v, _) = run(&p, remote_post("a.friend.example"));
        assert!(v.is_pass());
        let (v, _) = run(&p, remote_post("notfriend.example"));
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

    fn reject_list(p: &SimplePolicy) -> &TargetList {
        p.targets.get(SimpleAction::Reject).expect("a reject list")
    }

    fn union(names: &[&str]) -> Arc<SharedTargets> {
        let mut index = SharedTargets::default();
        for name in names {
            index.insert(&Domain::new(*name));
        }
        Arc::new(index)
    }

    #[test]
    fn shared_targets_dedup_in_first_occurrence_order() {
        let index = union(&["b.example", "a.example", "b.example"]);
        assert_eq!(index.len(), 2);
        assert_eq!(index.names()[0].as_str(), "b.example");
        assert_eq!(index.position("a.example"), Some(1));
        assert_eq!(index.position("c.example"), None);
    }

    #[test]
    fn the_attachment_costs_an_unattached_list_one_pointer() {
        use std::mem::size_of;
        let plain = size_of::<Vec<Domain>>() + size_of::<HashSet<Arc<str>, FnvBuild>>();
        assert!(size_of::<TargetList>() <= plain + 8);
    }

    #[test]
    fn merged_lists_record_shared_names_as_bits() {
        let index = union(&["a.example", "b.example", "c.example"]);
        let mut p = SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("b.example"))
            .with_target(SimpleAction::Reject, Domain::new("own.example"));
        p.merge(&SimplePolicy::from_shared(
            SimpleAction::Reject,
            &index,
            index.names(),
        ));
        // Order is the seed list, then the wave's new names.
        let names: Vec<&str> = p
            .targets(SimpleAction::Reject)
            .iter()
            .map(Domain::as_str)
            .collect();
        assert_eq!(
            names,
            ["b.example", "own.example", "a.example", "c.example"]
        );
        let list = reject_list(&p);
        // The seed's shared name moved to a bit on attach; the private
        // index keeps only the name the shared one lacks.
        assert_eq!(list.shared.as_ref().unwrap().bits, [0b111]);
        assert_eq!(list.index.len(), 1);
        assert!(p.matches(SimpleAction::Reject, &Domain::new("x.c.example")));
        assert!(p.matches(SimpleAction::Reject, &Domain::new("own.example")));
        // A later single add of a shared name dedups through its bit.
        p.add_target(SimpleAction::Reject, Domain::new("a.example"));
        assert_eq!(p.targets(SimpleAction::Reject).len(), 4);
        assert!(p.remove_target(SimpleAction::Reject, &Domain::new("a.example")));
        assert!(!p.matches(SimpleAction::Reject, &Domain::new("a.example")));
    }

    #[test]
    fn a_subset_wave_matches_and_dedups_like_its_parent_wave() {
        use crate::rollout::RolloutWave;
        let index = union(&["a.example", "b.example", "c.example", "d.example"]);
        let parent = RolloutWave {
            simple: Some(SimplePolicy::from_shared(
                SimpleAction::Reject,
                &index,
                index.names(),
            )),
            ..RolloutWave::default()
        };
        let subset = parent.subset_simple(|_, d| d.as_str() != "b.example");
        let sub = subset.simple.as_ref().unwrap();
        assert!(reject_list(sub).shared.is_some());
        let mut adopter = SimplePolicy::new();
        adopter.merge(sub);
        assert!(reject_list(&adopter).shared.is_some());
        assert!(adopter.matches(SimpleAction::Reject, &Domain::new("m.a.example")));
        assert!(!adopter.matches(SimpleAction::Reject, &Domain::new("b.example")));
        // The subset again adds nothing; the parent adds only the name
        // the subset left out, after the others.
        adopter.merge(sub);
        assert_eq!(adopter.targets(SimpleAction::Reject).len(), 3);
        adopter.merge(parent.simple.as_ref().unwrap());
        let names: Vec<&str> = adopter
            .targets(SimpleAction::Reject)
            .iter()
            .map(Domain::as_str)
            .collect();
        assert_eq!(names, ["a.example", "c.example", "d.example", "b.example"]);
        assert_eq!(reject_list(&adopter).index.len(), 0);
    }

    #[test]
    fn the_wire_shape_keeps_emptied_lists_and_key_order() {
        let mut p = SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("bad.example"))
            .with_target(SimpleAction::MediaNsfw, Domain::new("lewd.example"))
            .with_target(SimpleAction::Accept, Domain::new("friend.example"))
            .with_target(SimpleAction::FollowersOnly, Domain::new("spam.example"));
        assert!(p.remove_target(SimpleAction::Accept, &Domain::new("friend.example")));
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(
            json,
            r#"{"targets":{"Accept":[],"FollowersOnly":["spam.example"],"MediaNsfw":["lewd.example"],"Reject":["bad.example"]}}"#
        );
        let back: SimplePolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        // Events and the summary walk the actions in declaration order.
        let events: Vec<(SimpleAction, &str)> =
            back.events().map(|(a, d)| (a, d.as_str())).collect();
        assert_eq!(
            events,
            [
                (SimpleAction::Reject, "bad.example"),
                (SimpleAction::MediaNsfw, "lewd.example"),
                (SimpleAction::FollowersOnly, "spam.example"),
            ]
        );
        assert_eq!(
            back.describe(),
            "SimplePolicy(reject:1,nsfw:1,followers_only:1)"
        );
    }

    #[test]
    fn describe_summarises_config() {
        let p = SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("a.example"));
        assert_eq!(p.describe(), "SimplePolicy(reject:1)");
    }
}
