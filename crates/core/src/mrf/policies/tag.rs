//! `TagPolicy` — per-user moderation via admin-applied MRF tags.
//!
//! §4.1: *"The TagPolicy applies policies to individual users based on tags
//! but does not entirely stop the flow of any material between instances.
//! For example, it allows marking posts from individual users as Not Safe
//! For Work (NSFW)."* Enabled on 33% of instances; the paper's §7 singles
//! it out as the building block for less destructive moderation.

use crate::catalog::PolicyKind;
use crate::model::{mrf_tags, ActivityKind, ActivityPayload, Visibility};
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use serde::{Deserialize, Serialize};

/// Implementation of Pleroma's `TagPolicy`. Stateless: the tags live on the
/// accounts (applied by the local admin) and are read through the
/// [`ActorDirectory`](crate::mrf::ActorDirectory).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct TagPolicy;

impl TagPolicy {
    fn reject(code: &'static str, detail: String) -> Result<(), RejectReason> {
        Err(RejectReason::new(PolicyKind::Tag, code, detail))
    }
}

impl MrfPolicy for TagPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Tag
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        match act.kind {
            ActivityKind::Create => {
                let tags = ctx.actors.mrf_tags(&act.actor);
                let Some(post) = act.note_mut_if(|_| !tags.is_empty()) else {
                    return Ok(());
                };
                for tag in &tags {
                    match tag.as_str() {
                        mrf_tags::MEDIA_FORCE_NSFW => post.force_sensitive(),
                        mrf_tags::MEDIA_STRIP => post.strip_media(),
                        mrf_tags::FORCE_UNLISTED if post.visibility == Visibility::Public => {
                            post.visibility = Visibility::Unlisted;
                        }
                        mrf_tags::SANDBOX if post.visibility.is_public_ish() => {
                            post.visibility = Visibility::FollowersOnly;
                        }
                        _ => {}
                    }
                }
                Ok(())
            }
            ActivityKind::Follow => {
                // Subscription tags are applied to the *target* account.
                let ActivityPayload::FollowRequest { target } = &act.payload else {
                    return Ok(());
                };
                let tags = ctx.actors.mrf_tags(target);
                if tags.iter().any(|t| t == mrf_tags::DISABLE_ANY_SUBSCRIPTION) {
                    return Self::reject(
                        "subscription_disabled",
                        format!("{target} does not accept follows"),
                    );
                }
                if tags
                    .iter()
                    .any(|t| t == mrf_tags::DISABLE_REMOTE_SUBSCRIPTION)
                    && !ctx.is_local(&act.actor.domain)
                {
                    return Self::reject(
                        "remote_subscription_disabled",
                        format!("{target} does not accept remote follows"),
                    );
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
    use crate::model::{Activity, MediaAttachment, MediaKind, Post};
    use crate::mrf::context::ActorDirectory;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;
    use std::collections::HashMap;

    /// Directory with per-user tags for tests.
    #[derive(Default)]
    struct TagDir {
        tags: HashMap<UserId, Vec<String>>,
    }

    impl ActorDirectory for TagDir {
        fn is_bot(&self, _: &UserRef) -> bool {
            false
        }
        fn followers(&self, _: &UserRef) -> Option<u32> {
            None
        }
        fn created(&self, _: &UserRef) -> Option<SimTime> {
            None
        }
        fn mrf_tags(&self, actor: &UserRef) -> Vec<String> {
            self.tags.get(&actor.user).cloned().unwrap_or_default()
        }
        fn report_count(&self, _: &UserRef) -> u32 {
            0
        }
        fn first_seen(&self, _: &Domain) -> Option<SimTime> {
            None
        }
    }

    fn tagged_dir(user: UserId, tag: &str) -> TagDir {
        let mut d = TagDir::default();
        d.tags.insert(user, vec![tag.to_string()]);
        d
    }

    fn post_with_media(user: UserId) -> Activity {
        let author = UserRef::new(user, Domain::new("remote.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "text");
        post.media.push(MediaAttachment {
            host: Domain::new("remote.example"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        Activity::create(ActivityId(1), post)
    }

    fn run(dir: &TagDir, act: Activity) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let ctx = PolicyContext::new(&local, SimTime(100), dir);
        filter_owned(&TagPolicy, &ctx, act)
    }

    #[test]
    fn untagged_users_pass_untouched() {
        let dir = TagDir::default();
        let v = run(&dir, post_with_media(UserId(1)));
        let a = v.expect_pass();
        assert!(!a.note().unwrap().sensitive);
        assert!(a.note().unwrap().has_media());
    }

    #[test]
    fn untagged_users_are_judged_without_a_clone() {
        let dir = TagDir::default();
        let local = Domain::new("home.example");
        let ctx = PolicyContext::new(&local, SimTime(100), &dir);
        let template = post_with_media(UserId(1));
        let mut inbound = Inbound::borrowed(&template, SimTime(100));
        assert!(TagPolicy.filter(&ctx, &mut inbound).is_ok());
        assert!(inbound.is_borrowed());
    }

    #[test]
    fn force_nsfw_tag() {
        let dir = tagged_dir(UserId(1), mrf_tags::MEDIA_FORCE_NSFW);
        let v = run(&dir, post_with_media(UserId(1)));
        assert!(v.expect_pass().note().unwrap().sensitive);
    }

    #[test]
    fn media_strip_tag() {
        let dir = tagged_dir(UserId(1), mrf_tags::MEDIA_STRIP);
        let v = run(&dir, post_with_media(UserId(1)));
        assert!(!v.expect_pass().note().unwrap().has_media());
    }

    #[test]
    fn force_unlisted_tag() {
        let dir = tagged_dir(UserId(1), mrf_tags::FORCE_UNLISTED);
        let v = run(&dir, post_with_media(UserId(1)));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
    }

    #[test]
    fn sandbox_tag_forces_followers_only() {
        let dir = tagged_dir(UserId(1), mrf_tags::SANDBOX);
        let v = run(&dir, post_with_media(UserId(1)));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::FollowersOnly
        );
    }

    #[test]
    fn disable_any_subscription_rejects_follows() {
        let target = UserRef::new(UserId(7), Domain::new("home.example"));
        let dir = tagged_dir(UserId(7), mrf_tags::DISABLE_ANY_SUBSCRIPTION);
        let follow = Activity::follow(
            ActivityId(9),
            UserRef::new(UserId(1), Domain::new("remote.example")),
            target,
            SimTime(0),
        );
        assert_eq!(
            run(&dir, follow).expect_reject().code,
            "subscription_disabled"
        );
    }

    #[test]
    fn disable_remote_subscription_allows_local_follows() {
        let target = UserRef::new(UserId(7), Domain::new("home.example"));
        let dir = tagged_dir(UserId(7), mrf_tags::DISABLE_REMOTE_SUBSCRIPTION);
        // Remote follower: rejected.
        let remote_follow = Activity::follow(
            ActivityId(9),
            UserRef::new(UserId(1), Domain::new("remote.example")),
            target.clone(),
            SimTime(0),
        );
        assert!(!run(&dir, remote_follow).is_pass());
        // Local follower: fine.
        let local_follow = Activity::follow(
            ActivityId(10),
            UserRef::new(UserId(2), Domain::new("home.example")),
            target,
            SimTime(0),
        );
        assert!(run(&dir, local_follow).is_pass());
    }
}
