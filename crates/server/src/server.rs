//! The instance server: state, ingestion, publication.

use fediscope_activitypub::{FollowGraph, Inbox, Outbox, Timelines};
use fediscope_core::config::InstanceModerationConfig;
use fediscope_core::id::{ActivityId, Domain, UserId, UserRef};
use fediscope_core::model::{Activity, ActivityKind, ActivityPayload, InstanceProfile, Post, User};
use fediscope_core::mrf::{
    ActorDirectory, FilterOutcome, Inbound, MrfPipeline, PolicyContext, RejectReason, SideEffect,
};
use fediscope_core::time::SimTime;
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Why a local publication was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PublishError {
    /// The author is not registered on this instance.
    UnknownAuthor(UserRef),
    /// The local MRF pipeline rejected the post (e.g. `NoEmptyPolicy`).
    Rejected(String),
}

impl fmt::Display for PublishError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PublishError::UnknownAuthor(u) => write!(f, "unknown author {u}"),
            PublishError::Rejected(r) => write!(f, "rejected by local pipeline: {r}"),
        }
    }
}

/// Counters the server keeps about its own moderation activity.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Inbound activities accepted.
    pub accepted: AtomicU64,
    /// Inbound activities rejected by the MRF pipeline.
    pub rejected: AtomicU64,
    /// Side effects executed (emoji steals, prefetches, ...). Policies
    /// report an emoji steal or a bot follow on every activity that
    /// triggers it; the server executes, and counts, each shortcode steal
    /// and each account follow once.
    pub effects: AtomicU64,
}

/// What the server remembers of the side effects it executed, so a
/// repeated report is not executed twice. Policies keep no memory of
/// their own (a compiled pipeline may be shared), so this is where an
/// emoji steal or a bot follow becomes once-only.
#[derive(Default)]
struct EffectLedger {
    stolen_emojis: HashSet<String>,
    followed: HashSet<UserRef>,
}

impl EffectLedger {
    /// Records `effect`; returns whether it is new and so executes.
    fn execute(&mut self, effect: SideEffect) -> bool {
        match effect {
            SideEffect::EmojiStolen { shortcode, .. } => self.stolen_emojis.insert(shortcode),
            SideEffect::AutoFollowed { target } => self.followed.insert(target),
            _ => true,
        }
    }
}

struct State {
    users: HashMap<UserId, User>,
    config: InstanceModerationConfig,
    pipeline: MrfPipeline,
    graph: FollowGraph,
    timelines: Timelines,
    inbox: Inbox,
    outbox: Outbox,
    clock: SimTime,
    next_activity: u64,
    /// When each remote domain first reached this server's inbox: the
    /// directory's [`ActorDirectory::first_seen`] fact.
    first_contact: HashMap<Domain, SimTime>,
    effects: EffectLedger,
}

/// A simulated instance server (Pleroma or Mastodon, per its profile).
pub struct InstanceServer {
    profile: InstanceProfile,
    state: RwLock<State>,
    stats: ServerStats,
}

impl InstanceServer {
    /// Creates a server with the given profile and moderation config.
    /// Mastodon servers typically pass an empty config (their moderation
    /// is not exposed, which is all that matters to the crawler).
    pub fn new(profile: InstanceProfile, config: InstanceModerationConfig) -> Self {
        let pipeline = config.build_pipeline();
        InstanceServer {
            profile,
            state: RwLock::new(State {
                users: HashMap::new(),
                config,
                pipeline,
                graph: FollowGraph::new(),
                timelines: Timelines::new(),
                inbox: Inbox::new(),
                outbox: Outbox::new(),
                clock: fediscope_core::time::CAMPAIGN_START,
                next_activity: 1,
                first_contact: HashMap::new(),
                effects: EffectLedger::default(),
            }),
            stats: ServerStats::default(),
        }
    }

    /// The instance profile.
    pub fn profile(&self) -> &InstanceProfile {
        &self.profile
    }

    /// The instance domain.
    pub fn domain(&self) -> &Domain {
        &self.profile.domain
    }

    /// Moderation statistics.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// Advances the server's logical clock (the driver calls this).
    pub fn set_clock(&self, now: SimTime) {
        self.state.write().clock = now;
    }

    /// Current logical time.
    pub fn clock(&self) -> SimTime {
        self.state.read().clock
    }

    /// Registers an account record. Local users live here, but so do
    /// *known remote accounts* the admin has annotated (e.g. MRF-tagged
    /// troublemakers) — exactly like Pleroma's `users` table, which caches
    /// remote actors.
    pub fn add_user(&self, user: User) {
        self.state.write().users.insert(user.id, user);
    }

    /// Number of registered *local* users (remote account records are
    /// excluded; this is what `/api/v1/instance` reports as `user_count`).
    pub fn user_count(&self) -> usize {
        let st = self.state.read();
        st.users
            .values()
            .filter(|u| u.domain == self.profile.domain)
            .count()
    }

    /// Number of posts stored (local + federated).
    pub fn post_count(&self) -> usize {
        self.state.read().timelines.post_count()
    }

    /// Looks up a local user.
    pub fn user(&self, id: UserId) -> Option<User> {
        self.state.read().users.get(&id).cloned()
    }

    /// Replaces the moderation configuration (rebuilding the pipeline),
    /// as an admin editing `config.exs` and hot-reloading.
    pub fn set_moderation(&self, config: InstanceModerationConfig) {
        let mut st = self.state.write();
        st.pipeline = config.build_pipeline();
        st.config = config;
    }

    /// A copy of the current moderation configuration (ground truth; the
    /// crawler sees it only if `profile.exposes_policies`).
    pub fn moderation(&self) -> InstanceModerationConfig {
        self.state.read().config.clone()
    }

    /// Records a local follow (and the federation link it creates).
    pub fn follow(&self, follower: UserRef, followee: UserRef) {
        let mut st = self.state.write();
        let at = st.clock;
        st.graph.follow(follower.clone(), followee.clone(), at);
        if let Some(u) = st.users.get_mut(&follower.user) {
            u.following += 1;
        }
        if let Some(u) = st.users.get_mut(&followee.user) {
            u.followers += 1;
        }
    }

    /// Defederates from `remote`: adds it to the `SimplePolicy` reject
    /// list (enabling the policy if needed, rebuilding the pipeline) and
    /// tears down every follow edge between the two domains. Returns the
    /// number of follow edges destroyed. The ever-federated peer record
    /// survives, matching the Peers API semantics the paper measures.
    ///
    /// This is the server-level form of the block events a
    /// defederation-cascade scenario replays: moderation config and
    /// social graph change together, atomically under the state lock.
    pub fn defederate(&self, remote: &Domain) -> usize {
        let mut st = self.state.write();
        let mut config = st.config.clone();
        let mut simple = config.simple.take().unwrap_or_default();
        simple.add_target(
            fediscope_core::mrf::policies::SimpleAction::Reject,
            remote.clone(),
        );
        config.set_simple(simple);
        st.pipeline = config.build_pipeline();
        st.config = config;
        let local = self.profile.domain.clone();
        st.graph.sever(&local, remote)
    }

    /// Marks a federation peer without a follow (e.g. discovered via a
    /// boost). Powers the Peers API.
    pub fn note_peer(&self, remote: &Domain) {
        let mut st = self.state.write();
        let local = self.profile.domain.clone();
        st.graph.note_federation(&local, remote);
    }

    /// The Peers API payload.
    pub fn peers(&self) -> Vec<Domain> {
        self.state.read().graph.peers_of(&self.profile.domain)
    }

    /// Publishes a post by a local user: runs the *local* pipeline (Pleroma
    /// filters outbound too — `NoEmptyPolicy` etc. act here), stores it on
    /// local timelines, appends to the outbox, and returns the `Create`
    /// activity for delivery.
    pub fn publish(&self, post: Post) -> Result<Activity, PublishError> {
        let mut st = self.state.write();
        if !st.users.contains_key(&post.author.user) {
            return Err(PublishError::UnknownAuthor(post.author.clone()));
        }
        let activity_id = ActivityId(((self.profile.id.0 as u64) << 40) | st.next_activity);
        st.next_activity += 1;
        let activity = Activity::create(activity_id, post);
        // Nothing downstream of publish ever reads a trace (callers
        // consume only the verdict), so use the untraced pipeline.
        // Inbound federation (`ingest_remote`) keeps the traced path for
        // explainability.
        match self.run_pipeline_fast(&mut st, activity) {
            Err(r) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(PublishError::Rejected(r.to_string()))
            }
            Ok(activity) => {
                let post = activity.note().expect("publish wraps a Create").clone();
                let followers: Vec<UserRef> = st
                    .graph
                    .followers_of(&post.author)
                    .filter(|f| f.domain == self.profile.domain)
                    .cloned()
                    .collect();
                st.timelines.ingest_local(post, &followers);
                st.outbox.push(activity.clone());
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                Ok(activity)
            }
        }
    }

    /// Ingests a remote activity through the MRF pipeline; the heart of
    /// federation moderation. Returns the filter outcome.
    pub fn ingest_remote(&self, activity: Activity) -> FilterOutcome {
        let mut st = self.state.write();
        if !st.inbox.receive(activity.clone()) {
            // Duplicate delivery: treat as accepted no-op.
            return FilterOutcome {
                verdict: fediscope_core::mrf::PolicyVerdict::Pass(activity),
                trace: Vec::new(),
            };
        }
        let origin = activity.origin().clone();
        let local = self.profile.domain.clone();
        st.graph.note_federation(&local, &origin);
        // First contact is recorded before the pipeline judges the
        // activity that makes it, so that activity is judged as new.
        let now = st.clock;
        st.first_contact.entry(origin).or_insert(now);
        let outcome = self.run_pipeline(&mut st, activity);
        match &outcome.verdict {
            fediscope_core::mrf::PolicyVerdict::Pass(activity) => {
                self.stats.accepted.fetch_add(1, Ordering::Relaxed);
                self.apply_accepted(&mut st, activity.clone());
            }
            fediscope_core::mrf::PolicyVerdict::Reject(_) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        outcome
    }

    /// Directly installs a post into the server's timelines, bypassing
    /// inbox and MRF. The world generator uses this to materialise a
    /// pre-computed state at scale; tests and examples should prefer
    /// [`publish`](Self::publish) / [`ingest_remote`](Self::ingest_remote).
    pub fn install_post(&self, post: Post) {
        let mut st = self.state.write();
        if post.author.domain == self.profile.domain {
            let followers: Vec<UserRef> = st
                .graph
                .followers_of(&post.author)
                .filter(|f| f.domain == self.profile.domain)
                .cloned()
                .collect();
            st.timelines.ingest_local(post, &followers);
        } else {
            let origin = post.author.domain.clone();
            let local = self.profile.domain.clone();
            st.graph.note_federation(&local, &origin);
            let followers: Vec<UserRef> = st
                .graph
                .followers_of(&post.author)
                .filter(|f| f.domain == self.profile.domain)
                .cloned()
                .collect();
            st.timelines.ingest_remote(post, &followers);
        }
    }

    /// Shared setup and accounting around one pipeline invocation: snap a
    /// directory view, build the policy context, run `invoke`, then
    /// execute its side effects (each emoji steal and bot follow once)
    /// and count them into the stats counter. The traced and untraced
    /// entry points below differ only in the `invoke` they pass, so any
    /// future context or accounting change lands in both.
    fn with_pipeline<R>(
        &self,
        st: &mut State,
        invoke: impl FnOnce(&MrfPipeline, &PolicyContext<'_>) -> R,
    ) -> R {
        // The pipeline borrows the directory immutably while we hold the
        // write lock; split borrows via a snapshot directory view.
        let dir = DirectoryView {
            users: &st.users,
            first_contact: &st.first_contact,
        };
        let ctx = PolicyContext::new(&self.profile.domain, st.clock, &dir);
        let out = invoke(&st.pipeline, &ctx);
        let mut executed = 0;
        for effect in ctx.take_effects() {
            executed += st.effects.execute(effect) as u64;
        }
        self.stats.effects.fetch_add(executed, Ordering::Relaxed);
        out
    }

    fn run_pipeline(&self, st: &mut State, activity: Activity) -> FilterOutcome {
        self.with_pipeline(st, |pipeline, ctx| pipeline.filter(ctx, activity))
    }

    /// Untraced twin of [`run_pipeline`](Self::run_pipeline) for bulk
    /// paths that only consume the verdict.
    fn run_pipeline_fast(
        &self,
        st: &mut State,
        activity: Activity,
    ) -> Result<Activity, RejectReason> {
        self.with_pipeline(st, |pipeline, ctx| {
            let mut inbound = Inbound::owned(activity);
            pipeline
                .filter_inbound(ctx, &mut inbound)
                .map(|()| inbound.into_owned())
        })
    }

    fn apply_accepted(&self, st: &mut State, activity: Activity) {
        match (&activity.kind, activity.payload) {
            (ActivityKind::Create, ActivityPayload::Note(post)) => {
                let followers: Vec<UserRef> = st
                    .graph
                    .followers_of(&post.author)
                    .filter(|f| f.domain == self.profile.domain)
                    .cloned()
                    .collect();
                st.timelines.ingest_remote(post, &followers);
            }
            (ActivityKind::Delete, ActivityPayload::Deletion { post }) => {
                st.timelines.delete(post);
            }
            (ActivityKind::Follow, ActivityPayload::FollowRequest { target }) => {
                let at = st.clock;
                st.graph.follow(activity.actor.clone(), target.clone(), at);
                if let Some(u) = st.users.get_mut(&target.user) {
                    u.followers += 1;
                }
            }
            (ActivityKind::Flag, ActivityPayload::Report { target, .. }) => {
                if let Some(u) = st.users.get_mut(&target.user) {
                    u.report_count += 1;
                }
            }
            _ => {}
        }
    }

    /// Read access to the timelines (for the API layer and tests).
    pub fn with_timelines<R>(&self, f: impl FnOnce(&Timelines) -> R) -> R {
        f(&self.state.read().timelines)
    }

    /// Read access to the follow graph.
    pub fn with_graph<R>(&self, f: impl FnOnce(&FollowGraph) -> R) -> R {
        f(&self.state.read().graph)
    }

    /// Read access to the inbox (tests).
    pub fn with_inbox<R>(&self, f: impl FnOnce(&Inbox) -> R) -> R {
        f(&self.state.read().inbox)
    }

    /// Read access to the outbox (tests).
    pub fn with_outbox<R>(&self, f: impl FnOnce(&Outbox) -> R) -> R {
        f(&self.state.read().outbox)
    }

    /// Iterates local users (snapshot).
    pub fn users_snapshot(&self) -> Vec<User> {
        self.state.read().users.values().cloned().collect()
    }

    /// Applies an MRF tag to a local user (admin action; `TagPolicy`).
    pub fn tag_user(&self, id: UserId, tag: &str) -> bool {
        let mut st = self.state.write();
        if let Some(u) = st.users.get_mut(&id) {
            if !u.mrf_tags.iter().any(|t| t == tag) {
                u.mrf_tags.push(tag.to_string());
            }
            true
        } else {
            false
        }
    }
}

/// Snapshot view over the user table and the first-contact record
/// implementing [`ActorDirectory`]. Remote actors are unknown
/// (None/empty), matching what a real instance knows synchronously at
/// filter time.
struct DirectoryView<'a> {
    users: &'a HashMap<UserId, User>,
    first_contact: &'a HashMap<Domain, SimTime>,
}

impl ActorDirectory for DirectoryView<'_> {
    fn is_bot(&self, actor: &UserRef) -> bool {
        self.users.get(&actor.user).map(|u| u.bot).unwrap_or(false)
    }
    fn followers(&self, actor: &UserRef) -> Option<u32> {
        self.users.get(&actor.user).map(|u| u.followers)
    }
    fn created(&self, actor: &UserRef) -> Option<SimTime> {
        self.users.get(&actor.user).map(|u| u.created)
    }
    fn mrf_tags(&self, actor: &UserRef) -> Vec<String> {
        // Tags are admin-local; for remote actors the *local* admin's tag
        // store is keyed by the remote ref. We keep remote tags in the
        // same table keyed by user id (globally unique), so one lookup
        // serves local and tagged remote accounts alike.
        self.users
            .get(&actor.user)
            .map(|u| u.mrf_tags.clone())
            .unwrap_or_default()
    }
    fn report_count(&self, actor: &UserRef) -> u32 {
        self.users
            .get(&actor.user)
            .map(|u| u.report_count)
            .unwrap_or(0)
    }
    fn first_seen(&self, domain: &Domain) -> Option<SimTime> {
        self.first_contact.get(domain).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::catalog::PolicyKind;
    use fediscope_core::id::{InstanceId, PostId};
    use fediscope_core::model::{InstanceKind, SoftwareVersion, Visibility};
    use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
    use fediscope_core::time::SimDuration;

    fn profile(domain: &str) -> InstanceProfile {
        InstanceProfile {
            id: InstanceId(1),
            domain: Domain::new(domain),
            kind: InstanceKind::Pleroma(SoftwareVersion::new(2, 2, 0)),
            title: format!("Test {domain}"),
            registrations_open: true,
            founded: SimTime(0),
            exposes_policies: true,
            public_timeline_open: true,
        }
    }

    fn local_user(id: u64, domain: &str) -> User {
        User {
            id: UserId(id),
            instance: InstanceId(1),
            domain: Domain::new(domain),
            handle: format!("user{id}"),
            created: SimTime(0),
            bot: false,
            followers: 0,
            following: 0,
            mrf_tags: Vec::new(),
            report_count: 0,
        }
    }

    fn make_server(domain: &str) -> InstanceServer {
        let server =
            InstanceServer::new(profile(domain), InstanceModerationConfig::pleroma_default());
        server.add_user(local_user(1, domain));
        server
    }

    fn remote_create(id: u64, domain: &str, content: &str) -> Activity {
        let author = UserRef::new(UserId(1000 + id), Domain::new(domain));
        Activity::create(
            ActivityId(id),
            Post::stub(
                PostId(5000 + id),
                author,
                fediscope_core::time::CAMPAIGN_START,
                content,
            ),
        )
    }

    #[test]
    fn publish_stores_on_public_timeline() {
        let s = make_server("home.example");
        let author = UserRef::new(UserId(1), Domain::new("home.example"));
        let post = Post::stub(
            PostId(1),
            author,
            fediscope_core::time::CAMPAIGN_START,
            "hello",
        );
        let act = s.publish(post).unwrap();
        assert_eq!(act.kind, ActivityKind::Create);
        assert_eq!(s.post_count(), 1);
        s.with_timelines(|t| {
            assert_eq!(
                t.timeline_len(fediscope_activitypub::TimelineKind::PublicLocal, None),
                1
            );
        });
        assert_eq!(s.with_outbox(|o| o.len()), 1);
    }

    #[test]
    fn publish_by_unknown_author_fails() {
        let s = make_server("home.example");
        let ghost = UserRef::new(UserId(99), Domain::new("home.example"));
        let post = Post::stub(PostId(1), ghost.clone(), SimTime(0), "boo");
        assert_eq!(
            s.publish(post).unwrap_err(),
            PublishError::UnknownAuthor(ghost)
        );
    }

    #[test]
    fn ingest_remote_lands_on_whole_known_network() {
        let s = make_server("home.example");
        let outcome = s.ingest_remote(remote_create(1, "remote.example", "hi there"));
        assert!(outcome.accepted());
        s.with_timelines(|t| {
            assert_eq!(
                t.timeline_len(fediscope_activitypub::TimelineKind::WholeKnownNetwork, None),
                1
            );
        });
        // Federation link recorded → peers API shows the remote domain.
        assert_eq!(s.peers(), vec![Domain::new("remote.example")]);
        assert_eq!(s.stats().accepted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn simple_policy_reject_blocks_ingestion() {
        let s = make_server("home.example");
        let mut config = InstanceModerationConfig::pleroma_default();
        config.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example")),
        );
        s.set_moderation(config);
        let outcome = s.ingest_remote(remote_create(1, "bad.example", "spam"));
        assert!(!outcome.accepted());
        assert_eq!(outcome.rejection().unwrap().policy, PolicyKind::Simple);
        assert_eq!(s.post_count(), 0);
        assert_eq!(s.stats().rejected.load(Ordering::Relaxed), 1);
        // Unrelated instances still get through.
        assert!(s
            .ingest_remote(remote_create(2, "ok.example", "fine"))
            .accepted());
    }

    #[test]
    fn duplicate_deliveries_are_idempotent() {
        let s = make_server("home.example");
        let act = remote_create(1, "remote.example", "once");
        assert!(s.ingest_remote(act.clone()).accepted());
        assert!(s.ingest_remote(act).accepted());
        assert_eq!(s.post_count(), 1, "replay must not duplicate the post");
    }

    #[test]
    fn remote_follow_increases_follower_count() {
        let s = make_server("home.example");
        let local = UserRef::new(UserId(1), Domain::new("home.example"));
        let remote = UserRef::new(UserId(500), Domain::new("fan.example"));
        let follow = Activity::follow(ActivityId(7), remote, local.clone(), SimTime(10));
        assert!(s.ingest_remote(follow).accepted());
        assert_eq!(s.user(UserId(1)).unwrap().followers, 1);
        // Subsequent post delivery reaches... (graph holds the edge)
        s.with_graph(|g| assert_eq!(g.follower_count(&local), 1));
    }

    #[test]
    fn reports_increment_report_count() {
        let s = make_server("home.example");
        let target = UserRef::new(UserId(1), Domain::new("home.example"));
        let reporter = UserRef::new(UserId(9), Domain::new("remote.example"));
        let flag = Activity::report(ActivityId(3), reporter, target, "rude", SimTime(5));
        assert!(s.ingest_remote(flag).accepted());
        assert_eq!(s.user(UserId(1)).unwrap().report_count, 1);
    }

    #[test]
    fn remote_delete_removes_post() {
        let s = make_server("home.example");
        s.ingest_remote(remote_create(1, "remote.example", "to be deleted"));
        assert_eq!(s.post_count(), 1);
        let actor = UserRef::new(UserId(1001), Domain::new("remote.example"));
        let del = Activity::delete(ActivityId(2), actor, PostId(5001), SimTime(20));
        assert!(s.ingest_remote(del).accepted());
        assert_eq!(s.post_count(), 0);
    }

    #[test]
    fn tag_user_drives_tag_policy() {
        use fediscope_core::model::mrf_tags;
        let s = make_server("home.example");
        let mut config = InstanceModerationConfig::pleroma_default();
        config.enable(PolicyKind::Tag);
        s.set_moderation(config);
        // Register the remote troublemaker locally (admin has tagged them).
        let mut remote_user = local_user(1001, "remote.example");
        remote_user.domain = Domain::new("remote.example");
        s.add_user(remote_user);
        assert!(s.tag_user(UserId(1001), mrf_tags::FORCE_UNLISTED));
        let outcome = s.ingest_remote(remote_create(1, "remote.example", "tagged"));
        let act = outcome.verdict.expect_pass();
        assert_eq!(act.note().unwrap().visibility, Visibility::Unlisted);
        assert!(!s.tag_user(UserId(4242), "nope"), "unknown user");
    }

    #[test]
    fn install_post_bypasses_mrf() {
        let s = make_server("home.example");
        let mut config = InstanceModerationConfig::pleroma_default();
        config.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("bad.example")),
        );
        s.set_moderation(config);
        let author = UserRef::new(UserId(1000), Domain::new("bad.example"));
        s.install_post(Post::stub(PostId(9), author, SimTime(0), "generator state"));
        assert_eq!(s.post_count(), 1, "install_post is ground-truth injection");
    }

    #[test]
    fn clock_is_settable() {
        let s = make_server("home.example");
        s.set_clock(SimTime(123_456));
        assert_eq!(s.clock(), SimTime(123_456));
    }

    #[test]
    fn defederate_blocks_and_tears_down_links() {
        let s = make_server("home.example");
        let local = UserRef::new(UserId(1), Domain::new("home.example"));
        let fan = UserRef::new(UserId(1001), Domain::new("bad.example"));
        s.follow(fan.clone(), local.clone());
        s.follow(local.clone(), fan.clone());
        let severed = s.defederate(&Domain::new("bad.example"));
        assert_eq!(severed, 2);
        s.with_graph(|g| {
            assert!(!g.follows(&fan, &local));
            assert!(!g.follows(&local, &fan));
            // Ever-federated: the peer record outlives the block.
            assert!(g
                .peers_of(&Domain::new("home.example"))
                .contains(&Domain::new("bad.example")));
        });
        // The rebuilt pipeline now rejects everything from bad.example.
        let outcome = s.ingest_remote(remote_create(7, "bad.example", "still here?"));
        assert!(!outcome.accepted());
        assert!(s
            .moderation()
            .simple
            .as_ref()
            .unwrap()
            .matches(SimpleAction::Reject, &Domain::new("bad.example")));
    }

    fn remote_create_at(id: u64, domain: &str, user: u64, at: SimTime) -> Activity {
        let author = UserRef::new(UserId(user), Domain::new(domain));
        Activity::create(
            ActivityId(id),
            Post::stub(PostId(5000 + id), author, at, "hello"),
        )
    }

    #[test]
    fn repeated_emoji_steals_and_bot_follows_execute_once() {
        use fediscope_core::model::CustomEmoji;
        use fediscope_core::mrf::policies::{FollowBotPolicy, StealEmojiPolicy};
        use std::sync::Arc;
        let s = make_server("home.example");
        let bot = UserRef::new(UserId(1), Domain::new("home.example"));
        s.state.write().pipeline = MrfPipeline::new()
            .with(Arc::new(StealEmojiPolicy::new(vec![Domain::new(
                "emoji.example",
            )])))
            .with(Arc::new(FollowBotPolicy::new(bot)));
        let emoji_post = |id: u64, user: u64, shortcode: &str| {
            let mut act = remote_create_at(id, "emoji.example", user, SimTime(0));
            act.note_mut().unwrap().emojis.push(CustomEmoji {
                shortcode: shortcode.into(),
                host: Domain::new("emoji.example"),
            });
            act
        };
        let effects = || s.stats().effects.load(Ordering::Relaxed);
        // First post: one steal and one follow.
        assert!(s.ingest_remote(emoji_post(1, 7, "blobcat")).accepted());
        assert_eq!(effects(), 2);
        // Same author, same emoji: both reported again, neither executes.
        assert!(s.ingest_remote(emoji_post(2, 7, "blobcat")).accepted());
        assert_eq!(effects(), 2);
        // A new author with a new emoji: both execute.
        assert!(s.ingest_remote(emoji_post(3, 8, "ablobcat")).accepted());
        assert_eq!(effects(), 4);
    }

    #[test]
    fn sandbox_quarantine_starts_at_first_contact() {
        let s = make_server("home.example");
        let mut config = InstanceModerationConfig::default();
        config.enable(PolicyKind::SandboxCustom);
        s.set_moderation(config);
        let day = |d: u64| fediscope_core::time::CAMPAIGN_START + SimDuration::days(d);
        let visibility = |id: u64, domain: &str, d: u64| {
            s.set_clock(day(d));
            let outcome = s.ingest_remote(remote_create_at(id, domain, 1000 + id, day(d)));
            outcome.verdict.expect_pass().note().unwrap().visibility
        };
        // First contact on day 0 starts the clock: quarantined through
        // the seven-day period, released after it.
        assert_eq!(visibility(1, "new.example", 0), Visibility::FollowersOnly);
        assert_eq!(visibility(2, "new.example", 3), Visibility::FollowersOnly);
        assert_eq!(visibility(3, "new.example", 8), Visibility::Public);
        // A domain first met on day 8 starts its own clock then.
        assert_eq!(visibility(4, "later.example", 8), Visibility::FollowersOnly);
        assert_eq!(visibility(5, "later.example", 16), Visibility::Public);
    }

    #[test]
    fn defederate_twice_and_on_unknown_domains_is_idempotent() {
        let s = make_server("home.example");
        let local = UserRef::new(UserId(1), Domain::new("home.example"));
        let fan = UserRef::new(UserId(1001), Domain::new("bad.example"));
        s.follow(fan.clone(), local.clone());
        assert_eq!(s.defederate(&Domain::new("bad.example")), 1);
        // A repeated block finds no edges left and must not grow the
        // reject list (a cascade replaying the same block, or a bridge
        // mirroring a re-applied event, must stay a no-op).
        assert_eq!(s.defederate(&Domain::new("bad.example")), 0);
        let rejects = s
            .moderation()
            .simple
            .as_ref()
            .unwrap()
            .targets(SimpleAction::Reject)
            .len();
        assert_eq!(rejects, 1, "reject list must not double-add");
        // Defederating from a domain with no links: the block is
        // recorded (an admin can pre-emptively blocklist), but zero
        // edges fall and repeating it still adds nothing.
        assert_eq!(s.defederate(&Domain::new("never-met.example")), 0);
        assert_eq!(s.defederate(&Domain::new("never-met.example")), 0);
        let m = s.moderation();
        let targets = m.simple.as_ref().unwrap().targets(SimpleAction::Reject);
        assert_eq!(targets.len(), 2);
    }
}
