//! Thread- and mention-shape policies: `HellthreadPolicy`,
//! `EnsureRePrepended` and `MentionPolicy`.
//!
//! (`AntiHellthreadPolicy` has no filter body of its own: its presence in a
//! pipeline disables any `HellthreadPolicy`, which [`crate::mrf::MrfPipeline`]
//! implements; the marker type lives here.)

use crate::catalog::PolicyKind;
use crate::id::UserRef;
use crate::model::{Post, Visibility};
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use serde::{Deserialize, Serialize};

/// `HellthreadPolicy` — de-list or reject posts whose mention count exceeds
/// configured thresholds (Table 3; enabled on 6.7% of instances).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HellthreadPolicy {
    /// Mentions above this de-list the post (None = disabled).
    pub delist_threshold: Option<usize>,
    /// Mentions above this reject the post (None = disabled).
    pub reject_threshold: Option<usize>,
}

impl Default for HellthreadPolicy {
    fn default() -> Self {
        // Pleroma defaults: delist over 10 mentions, reject over 20.
        HellthreadPolicy {
            delist_threshold: Some(10),
            reject_threshold: Some(20),
        }
    }
}

impl MrfPolicy for HellthreadPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Hellthread
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let Some(post) = act.note() else {
            return Ok(());
        };
        let mentions = post.mentions.len();
        if let Some(reject_at) = self.reject_threshold {
            if mentions > reject_at {
                return Err(RejectReason::new(
                    PolicyKind::Hellthread,
                    "hellthread",
                    format!("{mentions} mentions exceed reject threshold {reject_at}"),
                ));
            }
        }
        let delist = self.delist_threshold.is_some_and(|at| mentions > at);
        if let Some(post) = act.note_mut_if(|p| delist && p.visibility == Visibility::Public) {
            post.visibility = Visibility::Unlisted;
        }
        Ok(())
    }
}

/// `AntiHellthreadPolicy` — "Stops the use of the HellthreadPolicy". A
/// marker: the pipeline skips every `HellthreadPolicy` when one of these is
/// present. Its own filter is the identity.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AntiHellthreadPolicy;

impl MrfPolicy for AntiHellthreadPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AntiHellthread
    }

    fn filter(&self, _: &PolicyContext<'_>, _: &mut Inbound<'_>) -> Result<(), RejectReason> {
        Ok(())
    }
}

/// `EnsureRePrepended` — rewrites reply subjects so they start with `re:`
/// instead of duplicating the parent subject verbatim (Table 3).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EnsureRePrependedPolicy;

impl MrfPolicy for EnsureRePrependedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::EnsureRePrepended
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let unprefixed_reply = |p: &Post| {
            p.in_reply_to.is_some()
                && p.subject
                    .as_ref()
                    .is_some_and(|s| !s.to_ascii_lowercase().starts_with("re:"))
        };
        if let Some(post) = act.note_mut_if(unprefixed_reply) {
            if let Some(subject) = &post.subject {
                post.subject = Some(format!("re: {subject}"));
            }
        }
        Ok(())
    }
}

/// `MentionPolicy` — drops posts mentioning configured users (Table 3).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MentionPolicy {
    /// Users whose mention causes a drop.
    pub blocked_mentions: Vec<UserRef>,
}

impl MentionPolicy {
    /// Builds a policy dropping posts that mention any of `blocked`.
    pub fn new(blocked: Vec<UserRef>) -> Self {
        MentionPolicy {
            blocked_mentions: blocked,
        }
    }
}

impl MrfPolicy for MentionPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Mention
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            if let Some(hit) = post
                .mentions
                .iter()
                .find(|m| self.blocked_mentions.contains(m))
            {
                return Err(RejectReason::new(
                    PolicyKind::Mention,
                    "blocked_mention",
                    format!("post mentions {hit}"),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId};
    use crate::model::Activity;
    use crate::mrf::context::NullActorDirectory;
    use crate::mrf::{filter_owned, MrfPipeline, PolicyVerdict};
    use crate::time::SimTime;
    use std::sync::Arc;

    fn post_with_mentions(n: usize) -> Activity {
        let author = UserRef::new(UserId(1), Domain::new("thread.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "oi");
        for i in 0..n {
            post.mentions.push(UserRef::new(
                UserId(100 + i as u64),
                Domain::new("x.example"),
            ));
        }
        Activity::create(ActivityId(1), post)
    }

    fn run(p: &dyn MrfPolicy, act: Activity) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        filter_owned(p, &ctx, act)
    }

    #[test]
    fn few_mentions_pass() {
        let p = HellthreadPolicy::default();
        let v = run(&p, post_with_mentions(3));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Public
        );
    }

    #[test]
    fn moderate_mentions_delist() {
        let p = HellthreadPolicy::default();
        let v = run(&p, post_with_mentions(15));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
    }

    #[test]
    fn hellthread_rejects_over_threshold() {
        let p = HellthreadPolicy::default();
        let v = run(&p, post_with_mentions(25));
        assert_eq!(v.expect_reject().code, "hellthread");
    }

    #[test]
    fn disabled_thresholds_do_nothing() {
        let p = HellthreadPolicy {
            delist_threshold: None,
            reject_threshold: None,
        };
        let v = run(&p, post_with_mentions(500));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Public
        );
    }

    #[test]
    fn anti_hellthread_disables_hellthread_in_pipeline() {
        let pipe = MrfPipeline::new()
            .with(Arc::new(AntiHellthreadPolicy))
            .with(Arc::new(HellthreadPolicy::default()));
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let out = pipe.filter(&ctx, post_with_mentions(100));
        assert!(out.accepted(), "hellthread must be skipped");
        // Trace contains only the AntiHellthread pass.
        assert_eq!(out.trace.len(), 1);
    }

    #[test]
    fn re_prepended_for_replies_with_subject() {
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(2), author, SimTime(0), "body");
        post.in_reply_to = Some(PostId(1));
        post.subject = Some("topic".into());
        let v = run(
            &EnsureRePrependedPolicy,
            Activity::create(ActivityId(1), post),
        );
        assert_eq!(
            v.expect_pass().note().unwrap().subject.as_deref(),
            Some("re: topic")
        );
    }

    #[test]
    fn re_prepended_is_idempotent() {
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(2), author, SimTime(0), "body");
        post.in_reply_to = Some(PostId(1));
        post.subject = Some("re: topic".into());
        let v = run(
            &EnsureRePrependedPolicy,
            Activity::create(ActivityId(1), post),
        );
        assert_eq!(
            v.expect_pass().note().unwrap().subject.as_deref(),
            Some("re: topic"),
            "already-prefixed subjects must not be double-prefixed"
        );
    }

    #[test]
    fn re_prepended_ignores_non_replies() {
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(2), author, SimTime(0), "body");
        post.subject = Some("topic".into());
        let v = run(
            &EnsureRePrependedPolicy,
            Activity::create(ActivityId(1), post),
        );
        assert_eq!(
            v.expect_pass().note().unwrap().subject.as_deref(),
            Some("topic")
        );
    }

    #[test]
    fn mention_policy_drops_blocked_mentions() {
        let vip = UserRef::new(UserId(999), Domain::new("vip.example"));
        let p = MentionPolicy::new(vec![vip.clone()]);
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "ping");
        post.mentions.push(vip);
        let v = run(&p, Activity::create(ActivityId(1), post));
        assert_eq!(v.expect_reject().code, "blocked_mention");
        // Unrelated mentions pass.
        assert!(run(&p, post_with_mentions(2)).is_pass());
    }
}
