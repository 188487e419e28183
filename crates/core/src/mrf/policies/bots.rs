//! Bot-related policies: `AntiFollowbotPolicy`, `ForceBotUnlistedPolicy`,
//! `AntiLinkSpamPolicy` and `FollowBotPolicy`.

use crate::catalog::PolicyKind;
use crate::id::UserRef;
use crate::model::{ActivityKind, Visibility};
use crate::mrf::context::{PolicyContext, SideEffect};
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use serde::{Deserialize, Serialize};

/// `AntiFollowbotPolicy` — "Stop the automatic following of newly
/// discovered users" (Table 3; 51 instances). Rejects `Follow` requests
/// from actors flagged as bots (or with followbot-style handles).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AntiFollowbotPolicy;

impl MrfPolicy for AntiFollowbotPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AntiFollowbot
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if act.kind == ActivityKind::Follow && ctx.actors.is_bot(&act.actor) {
            return Err(RejectReason::new(
                PolicyKind::AntiFollowbot,
                "followbot",
                format!("{} is a follow bot", act.actor),
            ));
        }
        Ok(())
    }
}

/// `ForceBotUnlistedPolicy` — "Makes all bot posts disappear from public
/// timelines" (Table 3; 23 instances).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ForceBotUnlistedPolicy;

impl MrfPolicy for ForceBotUnlistedPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::ForceBotUnlisted
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if ctx.actors.is_bot(&act.actor) {
            if let Some(post) = act.note_mut_if(|p| p.visibility == Visibility::Public) {
                post.visibility = Visibility::Unlisted;
            }
        }
        Ok(())
    }
}

/// `AntiLinkSpamPolicy` — "Rejects posts from likely spambots by rejecting
/// posts from new users that contain links" (Table 3; 32 instances).
///
/// "New" follows Pleroma's heuristic: an account with zero followers is
/// treated as new; accounts whose follower count is unknown get the benefit
/// of the doubt.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct AntiLinkSpamPolicy;

impl MrfPolicy for AntiLinkSpamPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::AntiLinkSpam
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            if post.has_links && ctx.actors.followers(&act.actor) == Some(0) {
                return Err(RejectReason::new(
                    PolicyKind::AntiLinkSpam,
                    "link_spam",
                    format!("new user {} posted links", act.actor),
                ));
            }
        }
        Ok(())
    }
}

/// `FollowBotPolicy` — "Automatically follows newly discovered users from
/// the specified bot account" (Table 3; 2 instances).
///
/// Emits an [`SideEffect::AutoFollowed`] for every remote `Create` it
/// sees. The policy keeps no memory: the consumer of the effects (a
/// server) follows each discovered account once, so a pipeline shared
/// between instances shares no discovery state.
#[derive(Debug, Clone)]
pub struct FollowBotPolicy {
    /// The local bot account that performs the follows.
    pub bot: UserRef,
}

impl FollowBotPolicy {
    /// Builds the policy around the given local bot account.
    pub fn new(bot: UserRef) -> Self {
        FollowBotPolicy { bot }
    }
}

impl MrfPolicy for FollowBotPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::FollowBot
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if act.kind == ActivityKind::Create && !ctx.is_local(&act.actor.domain) {
            ctx.emit(SideEffect::AutoFollowed {
                target: act.actor.clone(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId};
    use crate::model::{Activity, Post};
    use crate::mrf::context::ActorDirectory;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    /// Directory where user 1 is a bot and user 2 has zero followers.
    struct BotDir;
    impl ActorDirectory for BotDir {
        fn is_bot(&self, actor: &UserRef) -> bool {
            actor.user == UserId(1)
        }
        fn followers(&self, actor: &UserRef) -> Option<u32> {
            match actor.user {
                UserId(2) => Some(0),
                UserId(3) => Some(25),
                _ => None,
            }
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

    fn run_with_effects(p: &dyn MrfPolicy, act: Activity) -> (PolicyVerdict, Vec<SideEffect>) {
        let local = Domain::new("home.example");
        let dir = BotDir;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let v = filter_owned(p, &ctx, act);
        (v, ctx.take_effects())
    }

    fn follow_from(user: u64) -> Activity {
        Activity::follow(
            ActivityId(1),
            UserRef::new(UserId(user), Domain::new("remote.example")),
            UserRef::new(UserId(50), Domain::new("home.example")),
            SimTime(0),
        )
    }

    fn create_from(user: u64, links: bool) -> Activity {
        let author = UserRef::new(UserId(user), Domain::new("remote.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "check this out");
        post.has_links = links;
        Activity::create(ActivityId(1), post)
    }

    #[test]
    fn anti_followbot_rejects_bot_follows() {
        let (v, _) = run_with_effects(&AntiFollowbotPolicy, follow_from(1));
        assert_eq!(v.expect_reject().code, "followbot");
        let (v, _) = run_with_effects(&AntiFollowbotPolicy, follow_from(3));
        assert!(v.is_pass(), "human follows pass");
    }

    #[test]
    fn anti_followbot_ignores_bot_posts() {
        let (v, _) = run_with_effects(&AntiFollowbotPolicy, create_from(1, false));
        assert!(v.is_pass(), "only Follow activities are screened");
    }

    #[test]
    fn force_bot_unlisted_delists_bot_posts() {
        let (v, _) = run_with_effects(&ForceBotUnlistedPolicy, create_from(1, false));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
        let (v, _) = run_with_effects(&ForceBotUnlistedPolicy, create_from(3, false));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Public
        );
    }

    #[test]
    fn anti_link_spam_rejects_new_users_with_links() {
        // User 2: zero followers + links → reject.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(2, true));
        assert_eq!(v.expect_reject().code, "link_spam");
        // Same user, no links → pass.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(2, false));
        assert!(v.is_pass());
        // Established user with links → pass.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(3, true));
        assert!(v.is_pass());
        // Unknown follower count → benefit of the doubt.
        let (v, _) = run_with_effects(&AntiLinkSpamPolicy, create_from(99, true));
        assert!(v.is_pass());
    }

    #[test]
    fn follow_bot_emits_a_follow_on_every_remote_post() {
        let bot = UserRef::new(UserId(1000), Domain::new("home.example"));
        let p = FollowBotPolicy::new(bot);
        // The same actor twice: the policy reports it each time; the
        // consumer decides whether it is new.
        for _ in 0..2 {
            let (v, effects) = run_with_effects(&p, create_from(5, false));
            assert!(v.is_pass());
            assert_eq!(effects.len(), 1);
            assert!(
                matches!(&effects[0], SideEffect::AutoFollowed { target } if target.user == UserId(5))
            );
        }
    }

    #[test]
    fn follow_bot_ignores_local_actors() {
        let bot = UserRef::new(UserId(1000), Domain::new("home.example"));
        let p = FollowBotPolicy::new(bot);
        let author = UserRef::new(UserId(6), Domain::new("home.example"));
        let act = Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(0), "local"),
        );
        let (_, effects) = run_with_effects(&p, act);
        assert!(effects.is_empty());
    }
}
