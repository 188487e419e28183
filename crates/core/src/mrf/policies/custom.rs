//! The 20 admin-created custom policies of Figure 7.
//!
//! §4.1: *"instance administrators have created the other 20"* policies.
//! The paper observes their names through the metadata API but (unlike the
//! in-built set) does not document their behaviour; we implement each with
//! the semantics its name and the surrounding Pleroma ecosystem imply, so
//! that a synthetic instance enabling one behaves plausibly.

use crate::catalog::PolicyKind;
use crate::id::{Domain, UserId};
use crate::model::{ActivityKind, Post, Visibility};
use crate::mrf::context::{PolicyContext, SideEffect};
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// `AMQPPolicy` — mirrors every accepted activity onto a message bus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AmqpPolicy {
    /// Routing key for the mirrored messages.
    pub routing_key: String,
}

impl Default for AmqpPolicy {
    fn default() -> Self {
        AmqpPolicy {
            routing_key: "fediverse.inbound".to_string(),
        }
    }
}

impl MrfPolicy for AmqpPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Amqp
    }

    fn filter(&self, ctx: &PolicyContext<'_>, _: &mut Inbound<'_>) -> Result<(), RejectReason> {
        ctx.emit(SideEffect::MirroredToBus {
            routing_key: self.routing_key.clone(),
        });
        Ok(())
    }
}

/// `KanayaBlogProcessPolicy` — site-specific rewrite for a blog-bridging
/// instance: posts from the configured blog domain get a header line.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KanayaBlogProcessPolicy {
    /// The bridged blog's domain.
    pub blog_domain: Domain,
}

impl MrfPolicy for KanayaBlogProcessPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::KanayaBlogProcess
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if act.origin().matches(&self.blog_domain) {
            if let Some(post) = act.note_mut_if(|p| !p.content.starts_with("[blog] ")) {
                post.content = format!("[blog] {}", post.content).into();
            }
        }
        Ok(())
    }
}

/// `AntispamSandbox` — forces posts from suspected spam accounts
/// (zero followers + links) to followers-only, instead of rejecting like
/// `AntiLinkSpamPolicy` would.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AntispamSandboxPolicy;

impl MrfPolicy for AntispamSandboxPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AntispamSandbox
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let suspect = ctx.actors.followers(&act.actor) == Some(0);
        if suspect {
            if let Some(post) = act.note_mut_if(|p| p.has_links && p.visibility.is_public_ish()) {
                post.visibility = Visibility::FollowersOnly;
            }
        }
        Ok(())
    }
}

/// The `SupSlash*` family — board-specific filters (`/x/`, `/pol/`,
/// `/mlp/`, `/g/`, `/b/`) that drop posts carrying the board's hashtags.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BoardFilterPolicy {
    kind: PolicyKind,
    /// Hashtags that identify the board's content.
    pub board_tags: Vec<String>,
}

impl BoardFilterPolicy {
    /// Builds a filter for one of the SupSlash policies. Panics if `kind`
    /// is not one of the five board variants.
    pub fn new(kind: PolicyKind, board_tags: Vec<String>) -> Self {
        assert!(
            matches!(
                kind,
                PolicyKind::SupSlashX
                    | PolicyKind::SupSlashPol
                    | PolicyKind::SupSlashMlp
                    | PolicyKind::SupSlashG
                    | PolicyKind::SupSlashB
            ),
            "BoardFilterPolicy only implements the SupSlash* policies"
        );
        BoardFilterPolicy { kind, board_tags }
    }
}

impl MrfPolicy for BoardFilterPolicy {
    fn kind(&self) -> PolicyKind {
        self.kind
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            if post
                .hashtags
                .iter()
                .any(|h| self.board_tags.iter().any(|t| t == h))
            {
                return Err(RejectReason::new(
                    self.kind,
                    "board_filtered",
                    format!("post tagged for filtered board: {:?}", post.hashtags),
                ));
            }
        }
        Ok(())
    }
}

/// `BlockNotification` — tells the local admin when report (`Flag`)
/// traffic arrives, signalling incoming moderation pressure.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BlockNotificationPolicy;

impl MrfPolicy for BlockNotificationPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::BlockNotification
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if act.kind == ActivityKind::Flag {
            ctx.emit(SideEffect::AdminNotified {
                message: format!("incoming report from {}", act.origin()),
            });
        }
        Ok(())
    }
}

/// `NoIncomingDeletes` — ignores `Delete` activities from remote instances.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NoIncomingDeletesPolicy;

impl MrfPolicy for NoIncomingDeletesPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoIncomingDeletes
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if act.kind == ActivityKind::Delete && !ctx.is_local(act.origin()) {
            return Err(RejectReason::new(
                PolicyKind::NoIncomingDeletes,
                "delete_ignored",
                format!("remote delete from {} ignored", act.origin()),
            ));
        }
        Ok(())
    }
}

/// `RewritePolicy` — rewrites configured substrings in incoming posts.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RewritePolicy {
    /// `(from, to)` replacement pairs, applied in order.
    pub rules: Vec<(String, String)>,
}

impl MrfPolicy for RewritePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Rewrite
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let applies = |p: &Post| {
            self.rules
                .iter()
                .any(|(from, _)| !from.is_empty() && p.content.contains(from.as_str()))
        };
        if let Some(post) = act.note_mut_if(applies) {
            for (from, to) in &self.rules {
                if !from.is_empty() {
                    post.content = post.content.replace(from, to).into();
                }
            }
        }
        Ok(())
    }
}

/// `RejectCloudflarePolicy` — rejects activities from instances fronted by
/// a disliked CDN (modelled as a domain list).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RejectCloudflarePolicy {
    /// Domains known to be CDN-fronted.
    pub fronted_domains: Vec<Domain>,
}

impl MrfPolicy for RejectCloudflarePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RejectCloudflare
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if self.fronted_domains.iter().any(|d| act.origin().matches(d)) {
            return Err(RejectReason::new(
                PolicyKind::RejectCloudflare,
                "cdn_fronted",
                format!("{} is CDN-fronted", act.origin()),
            ));
        }
        Ok(())
    }
}

/// `RacismRemover` — drops posts matching a racism keyword list.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RacismRemoverPolicy {
    /// Lexicon of slurs/terms to drop on (lowercase).
    pub lexicon: Vec<String>,
}

impl MrfPolicy for RacismRemoverPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RacismRemover
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            let lower = post.content.to_ascii_lowercase();
            if let Some(term) = self.lexicon.iter().find(|t| lower.contains(t.as_str())) {
                return Err(RejectReason::new(
                    PolicyKind::RacismRemover,
                    "racist_content",
                    format!("matched lexicon term {term:?}"),
                ));
            }
        }
        Ok(())
    }
}

/// `CdnWarmingPolicy` — primes a CDN cache with incoming attachments
/// (behaviourally a sibling of `MediaProxyWarmingPolicy`).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CdnWarmingPolicy;

impl MrfPolicy for CdnWarmingPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::CdnWarming
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            for m in &post.media {
                ctx.emit(SideEffect::MediaPrefetched {
                    host: m.host.clone(),
                });
            }
        }
        Ok(())
    }
}

/// `SogigiMindWarmingPolicy` — instance-specific media cache warmer.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct SogigiMindWarmingPolicy;

impl MrfPolicy for SogigiMindWarmingPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::SogigiMindWarming
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            if !post.media.is_empty() {
                ctx.emit(SideEffect::MediaPrefetched {
                    host: act.origin().clone(),
                });
            }
        }
        Ok(())
    }
}

/// `NotifyLocalUsersPolicy` — pings local users about activity from watched
/// domains.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct NotifyLocalUsersPolicy {
    /// Domains whose activity triggers a notification.
    pub watched: Vec<Domain>,
}

impl MrfPolicy for NotifyLocalUsersPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NotifyLocalUsers
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if self.watched.iter().any(|d| act.origin().matches(d)) {
            ctx.emit(SideEffect::LocalUsersNotified {
                about: act.origin().clone(),
            });
        }
        Ok(())
    }
}

/// `BonziEmojiReactions` — drops `EmojiReact` activities. (The paper's
/// Figure 7 lists this policy under a longer instance-specific name.)
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct BonziEmojiReactionsPolicy;

impl MrfPolicy for BonziEmojiReactionsPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::BonziEmojiReactions
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if act.kind == ActivityKind::EmojiReact {
            return Err(RejectReason::new(
                PolicyKind::BonziEmojiReactions,
                "emoji_react_dropped",
                "EmojiReact activities are dropped",
            ));
        }
        Ok(())
    }
}

/// `AutoRejectPolicy` — rejects activities from instances whose domain
/// matches a heuristic pattern list.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AutoRejectPolicy {
    /// Substring patterns applied to the origin domain.
    pub patterns: Vec<String>,
}

impl MrfPolicy for AutoRejectPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AutoReject
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let origin = act.origin().as_str();
        if let Some(p) = self.patterns.iter().find(|p| origin.contains(p.as_str())) {
            return Err(RejectReason::new(
                PolicyKind::AutoReject,
                "pattern_matched",
                format!("origin matches pattern {p:?}"),
            ));
        }
        Ok(())
    }
}

/// `LocalOnlyPolicy` — keeps selected local users' posts off the
/// federation: on the outbound path their Creates are rejected (dropped
/// before delivery), keeping the content local-only.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LocalOnlyPolicy {
    /// Local users whose posts must not federate.
    pub users: Vec<UserId>,
}

impl MrfPolicy for LocalOnlyPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::LocalOnly
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if ctx.is_local(act.origin())
            && act.kind == ActivityKind::Create
            && self.users.contains(&act.actor.user)
        {
            return Err(RejectReason::new(
                PolicyKind::LocalOnly,
                "local_only",
                format!("{} posts stay local", act.actor),
            ));
        }
        Ok(())
    }
}

/// `SandboxPolicy` — quarantines newly seen remote instances: until a
/// domain has been known for the quarantine period, its posts are forced
/// to followers-only visibility.
///
/// The policy keeps no memory of its own. It reads when the instance
/// first had contact with the origin from
/// [`ActorDirectory::first_seen`](crate::mrf::ActorDirectory::first_seen),
/// and an unknown domain (`None`) is in first contact now, so it is
/// quarantined. A compiled pipeline shared between instances therefore
/// starts no instance's clock on behalf of another. A server's directory
/// records first contact before the filter runs.
///
/// The simulation engine judges every delivery under a directory that
/// knows no domain, so there every remote domain stays quarantined for
/// the whole run. Earlier, one pipeline-wide map released a domain a
/// quarantine period after the pipeline first saw it. The two differ
/// only where a later stage reads visibility, such as `RejectNonPublic`
/// after `SandboxCustom`. None of the 42 paper-scale worlds at seeds
/// 1534, 77 and 1–40 has that order (each runs one Sandbox instance and
/// three `RejectNonPublic` instances), so their traces are unchanged.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SandboxPolicy {
    /// How long a new domain stays quarantined.
    pub quarantine: SimDuration,
}

impl SandboxPolicy {
    /// Builds the policy with the given quarantine period.
    pub fn new(quarantine: SimDuration) -> Self {
        SandboxPolicy { quarantine }
    }
}

impl Default for SandboxPolicy {
    fn default() -> Self {
        SandboxPolicy::new(SimDuration::days(7))
    }
}

impl MrfPolicy for SandboxPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::SandboxCustom
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let origin = act.origin();
        if ctx.is_local(origin) {
            return Ok(());
        }
        let first = ctx.actors.first_seen(origin).unwrap_or(ctx.now);
        if ctx.now.since(first) < self.quarantine {
            if let Some(post) = act.note_mut_if(|p| p.visibility.is_public_ish()) {
                post.visibility = Visibility::FollowersOnly;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, PostId, UserRef};
    use crate::model::Activity;
    use crate::mrf::context::{ActorDirectory, NullActorDirectory};
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    fn note(domain: &str, content: &str) -> Activity {
        let author = UserRef::new(UserId(1), Domain::new(domain));
        Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(0), content),
        )
    }

    fn run_at(p: &dyn MrfPolicy, act: Activity, now: SimTime) -> (PolicyVerdict, Vec<SideEffect>) {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, now, &dir);
        let v = filter_owned(p, &ctx, act);
        (v, ctx.take_effects())
    }

    fn run(p: &dyn MrfPolicy, act: Activity) -> (PolicyVerdict, Vec<SideEffect>) {
        run_at(p, act, SimTime(0))
    }

    #[test]
    fn amqp_mirrors_everything() {
        let (v, effects) = run(&AmqpPolicy::default(), note("a.example", "x"));
        assert!(v.is_pass());
        assert!(
            matches!(&effects[0], SideEffect::MirroredToBus { routing_key } if routing_key == "fediverse.inbound")
        );
    }

    #[test]
    fn kanaya_prefixes_blog_posts_idempotently() {
        let p = KanayaBlogProcessPolicy {
            blog_domain: Domain::new("blog.example"),
        };
        let (v, _) = run(&p, note("blog.example", "post body"));
        let a = v.expect_pass();
        assert_eq!(&*a.note().unwrap().content, "[blog] post body");
        // Re-filtering must not double the prefix.
        let (v, _) = run(&p, a);
        assert_eq!(
            &*v.expect_pass().note().unwrap().content,
            "[blog] post body"
        );
    }

    #[test]
    fn antispam_sandbox_downgrades_spam_visibility() {
        struct ZeroFollowers;
        impl ActorDirectory for ZeroFollowers {
            fn is_bot(&self, _: &UserRef) -> bool {
                false
            }
            fn followers(&self, _: &UserRef) -> Option<u32> {
                Some(0)
            }
            fn created(&self, _: &UserRef) -> Option<SimTime> {
                None
            }
            fn mrf_tags(&self, _: &UserRef) -> Vec<String> {
                Vec::new()
            }
            fn report_count(&self, _: &UserRef) -> u32 {
                0
            }
            fn first_seen(&self, _: &Domain) -> Option<SimTime> {
                None
            }
        }
        let local = Domain::new("home.example");
        let dir = ZeroFollowers;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let mut act = note("spam.example", "buy stuff");
        act.note_mut().unwrap().has_links = true;
        let v = filter_owned(&AntispamSandboxPolicy, &ctx, act);
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::FollowersOnly
        );
    }

    #[test]
    fn board_filters_reject_tagged_posts() {
        let p = BoardFilterPolicy::new(PolicyKind::SupSlashPol, vec!["politics".into()]);
        let mut act = note("board.example", "rant");
        act.note_mut().unwrap().hashtags.push("politics".into());
        let (v, _) = run(&p, act);
        assert_eq!(v.expect_reject().code, "board_filtered");
        assert_eq!(p.kind(), PolicyKind::SupSlashPol);
        let (v, _) = run(&p, note("board.example", "rant"));
        assert!(v.is_pass());
    }

    #[test]
    #[should_panic(expected = "only implements the SupSlash")]
    fn board_filter_rejects_wrong_kind() {
        let _ = BoardFilterPolicy::new(PolicyKind::NoOp, vec![]);
    }

    #[test]
    fn block_notification_pings_admin_on_flags() {
        let actor = UserRef::new(UserId(1), Domain::new("remote.example"));
        let target = UserRef::new(UserId(2), Domain::new("home.example"));
        let flag = Activity::report(ActivityId(1), actor, target, "bad", SimTime(0));
        let (v, effects) = run(&BlockNotificationPolicy, flag);
        assert!(v.is_pass());
        assert_eq!(effects.len(), 1);
        // Non-flag traffic is silent.
        let (_, effects) = run(&BlockNotificationPolicy, note("remote.example", "x"));
        assert!(effects.is_empty());
    }

    #[test]
    fn no_incoming_deletes_rejects_remote_deletes_only() {
        let remote = UserRef::new(UserId(1), Domain::new("remote.example"));
        let del = Activity::delete(ActivityId(1), remote, PostId(9), SimTime(0));
        let (v, _) = run(&NoIncomingDeletesPolicy, del);
        assert_eq!(v.expect_reject().code, "delete_ignored");
        let local = UserRef::new(UserId(1), Domain::new("home.example"));
        let del = Activity::delete(ActivityId(2), local, PostId(9), SimTime(0));
        let (v, _) = run(&NoIncomingDeletesPolicy, del);
        assert!(v.is_pass());
    }

    #[test]
    fn rewrite_applies_rules_in_order() {
        let p = RewritePolicy {
            rules: vec![
                ("cat".into(), "dog".into()),
                ("dog".into(), "ferret".into()),
            ],
        };
        let (v, _) = run(&p, note("a.example", "my cat"));
        assert_eq!(&*v.expect_pass().note().unwrap().content, "my ferret");
    }

    #[test]
    fn reject_cloudflare_blocks_fronted() {
        let p = RejectCloudflarePolicy {
            fronted_domains: vec![Domain::new("cf.example")],
        };
        assert!(!run(&p, note("cf.example", "x")).0.is_pass());
        assert!(run(&p, note("self.example", "x")).0.is_pass());
    }

    #[test]
    fn racism_remover_drops_lexicon_hits() {
        let p = RacismRemoverPolicy {
            lexicon: vec!["slur1".into()],
        };
        assert!(!run(&p, note("a.example", "text with SLUR1 inside"))
            .0
            .is_pass());
        assert!(run(&p, note("a.example", "clean text")).0.is_pass());
    }

    #[test]
    fn bonzi_drops_emoji_reacts() {
        use crate::model::ActivityPayload;
        let react = Activity {
            id: ActivityId(1),
            actor: UserRef::new(UserId(1), Domain::new("a.example")),
            kind: ActivityKind::EmojiReact,
            payload: ActivityPayload::Reaction {
                post: PostId(1),
                emoji: Some("bonzi".into()),
            },
            published: SimTime(0),
        };
        let (v, _) = run(&BonziEmojiReactionsPolicy, react);
        assert_eq!(v.expect_reject().code, "emoji_react_dropped");
        assert!(run(&BonziEmojiReactionsPolicy, note("a.example", "x"))
            .0
            .is_pass());
    }

    #[test]
    fn auto_reject_matches_domain_patterns() {
        let p = AutoRejectPolicy {
            patterns: vec!["freespeech".into()],
        };
        assert!(!run(&p, note("freespeechextremist.com", "x")).0.is_pass());
        assert!(run(&p, note("quiet.example", "x")).0.is_pass());
    }

    #[test]
    fn local_only_blocks_listed_local_users_outbound() {
        let p = LocalOnlyPolicy {
            users: vec![UserId(1)],
        };
        assert!(!run(&p, note("home.example", "stays here")).0.is_pass());
        // Other local users federate fine.
        let author = UserRef::new(UserId(2), Domain::new("home.example"));
        let act = Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(0), "x"),
        );
        assert!(run(&p, act).0.is_pass());
        // Remote users are unaffected.
        assert!(run(&p, note("remote.example", "x")).0.is_pass());
    }

    /// Directory that first met `known.example` on day 0 and no other
    /// domain.
    struct FirstSeenDir;
    impl ActorDirectory for FirstSeenDir {
        fn is_bot(&self, _: &UserRef) -> bool {
            false
        }
        fn followers(&self, _: &UserRef) -> Option<u32> {
            None
        }
        fn created(&self, _: &UserRef) -> Option<SimTime> {
            None
        }
        fn mrf_tags(&self, _: &UserRef) -> Vec<String> {
            Vec::new()
        }
        fn report_count(&self, _: &UserRef) -> u32 {
            0
        }
        fn first_seen(&self, domain: &Domain) -> Option<SimTime> {
            (domain.as_str() == "known.example").then_some(SimTime(0))
        }
    }

    fn sandbox_visibility(p: &SandboxPolicy, domain: &str, day: u64) -> Visibility {
        let local = Domain::new("home.example");
        let dir = FirstSeenDir;
        let ctx = PolicyContext::new(&local, SimTime(SimDuration::days(day).as_secs()), &dir);
        let v = filter_owned(p, &ctx, note(domain, "x"));
        v.expect_pass().note().unwrap().visibility
    }

    #[test]
    fn sandbox_quarantines_by_the_directory_first_contact() {
        let p = SandboxPolicy::new(SimDuration::days(7));
        // Known since day 0: quarantined on day 3, released on day 8.
        assert_eq!(
            sandbox_visibility(&p, "known.example", 3),
            Visibility::FollowersOnly
        );
        assert_eq!(
            sandbox_visibility(&p, "known.example", 8),
            Visibility::Public
        );
        // Unknown to the directory: first contact is now, at any time.
        for day in [0, 8, 30] {
            assert_eq!(
                sandbox_visibility(&p, "new.example", day),
                Visibility::FollowersOnly
            );
        }
        // Local posts are never sandboxed.
        assert_eq!(
            sandbox_visibility(&p, "home.example", 0),
            Visibility::Public
        );
    }

    #[test]
    fn sandbox_verdicts_do_not_depend_on_call_order() {
        let cases = [
            ("known.example", 8),
            ("new.example", 0),
            ("known.example", 3),
            ("new.example", 30),
        ];
        let fresh: Vec<Visibility> = cases
            .iter()
            .map(|&(d, day)| sandbox_visibility(&SandboxPolicy::default(), d, day))
            .collect();
        let shared = SandboxPolicy::default();
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            for k in order {
                let (d, day) = cases[k];
                assert_eq!(
                    sandbox_visibility(&shared, d, day),
                    fresh[k],
                    "{d} day {day}"
                );
            }
        }
    }

    #[test]
    fn cdn_and_sogigi_warming_emit_prefetches() {
        use crate::model::{MediaAttachment, MediaKind};
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "pic");
        post.media.push(MediaAttachment {
            host: Domain::new("a.example"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        let act = Activity::create(ActivityId(1), post);
        let (_, effects) = run(&CdnWarmingPolicy, act.clone());
        assert_eq!(effects.len(), 1);
        let (_, effects) = run(&SogigiMindWarmingPolicy, act);
        assert_eq!(effects.len(), 1);
    }

    #[test]
    fn notify_local_users_on_watched_domains() {
        let p = NotifyLocalUsersPolicy {
            watched: vec![Domain::new("watched.example")],
        };
        let (_, effects) = run(&p, note("watched.example", "x"));
        assert_eq!(effects.len(), 1);
        let (_, effects) = run(&p, note("other.example", "x"));
        assert!(effects.is_empty());
    }
}
