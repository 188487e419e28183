//! `ObjectAgePolicy` — the most widely enabled policy (66.9% of instances).
//!
//! §4.1: *"This policy allows admins to apply an action based on the age of
//! a post regardless of the post's harmful/non-harmful nature. The default
//! age threshold is 7 days [...] Possible actions: (i) delist, (ii) strip
//! followers, (iii) reject."* Enabled by default since Pleroma 2.1.0.

use crate::catalog::PolicyKind;
use crate::model::Visibility;
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Actions `ObjectAgePolicy` can take on over-age posts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ObjectAgeAction {
    /// Remove the post from public timelines.
    Delist,
    /// Remove the author's followers from the recipient list.
    StripFollowers,
    /// Reject the message entirely.
    Reject,
}

/// Configuration and implementation of `ObjectAgePolicy`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObjectAgePolicy {
    /// Posts older than this when received are acted on (default 7 days).
    pub threshold: SimDuration,
    /// Actions to apply (default: delist + strip-followers, matching
    /// Pleroma's `mrf_object_age` defaults).
    pub actions: Vec<ObjectAgeAction>,
}

impl Default for ObjectAgePolicy {
    fn default() -> Self {
        ObjectAgePolicy {
            threshold: SimDuration::days(7),
            actions: vec![ObjectAgeAction::Delist, ObjectAgeAction::StripFollowers],
        }
    }
}

impl ObjectAgePolicy {
    /// A policy with the given threshold and actions.
    pub fn new(threshold: SimDuration, actions: Vec<ObjectAgeAction>) -> Self {
        ObjectAgePolicy { threshold, actions }
    }

    /// A rejecting variant (threshold default).
    pub fn rejecting() -> Self {
        ObjectAgePolicy {
            threshold: SimDuration::days(7),
            actions: vec![ObjectAgeAction::Reject],
        }
    }
}

impl MrfPolicy for ObjectAgePolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::ObjectAge
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let Some(post) = act.note() else {
            return Ok(()); // only Creates carry an age
        };
        let age = ctx.now.since(act.published());
        if age <= self.threshold {
            return Ok(());
        }
        if self.actions.contains(&ObjectAgeAction::Reject) {
            return Err(RejectReason::new(
                PolicyKind::ObjectAge,
                "too_old",
                format!("post age {age} exceeds {}", self.threshold),
            ));
        }
        let delist = self.actions.contains(&ObjectAgeAction::Delist)
            && post.visibility == Visibility::Public;
        let strip = self.actions.contains(&ObjectAgeAction::StripFollowers);
        if let Some(post) = act.note_mut_if(|p| delist || (strip && !p.followers_stripped)) {
            if delist {
                post.visibility = Visibility::Unlisted;
            }
            if strip {
                post.followers_stripped = true;
            }
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "ObjectAgePolicy(threshold={},actions={})",
            self.threshold,
            self.actions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
    use crate::model::{Activity, Post};
    use crate::mrf::context::NullActorDirectory;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    fn aged_create(created: SimTime) -> Activity {
        let author = UserRef::new(UserId(1), Domain::new("old.example"));
        Activity::create(ActivityId(1), Post::stub(PostId(1), author, created, "x"))
    }

    fn filter_at(policy: &ObjectAgePolicy, act: Activity, now: SimTime) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, now, &dir);
        filter_owned(policy, &ctx, act)
    }

    #[test]
    fn fresh_posts_pass_untouched() {
        let p = ObjectAgePolicy::default();
        let now = SimTime(SimDuration::days(3).as_secs());
        let v = filter_at(&p, aged_create(SimTime(0)), now);
        let a = v.expect_pass();
        assert_eq!(a.note().unwrap().visibility, Visibility::Public);
        assert!(!a.note().unwrap().followers_stripped);
    }

    #[test]
    fn exactly_at_threshold_passes() {
        let p = ObjectAgePolicy::default();
        let now = SimTime(SimDuration::days(7).as_secs());
        let v = filter_at(&p, aged_create(SimTime(0)), now);
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Public
        );
    }

    #[test]
    fn default_actions_delist_and_strip() {
        let p = ObjectAgePolicy::default();
        let now = SimTime(SimDuration::days(8).as_secs());
        let v = filter_at(&p, aged_create(SimTime(0)), now);
        let a = v.expect_pass();
        let post = a.note().unwrap();
        assert_eq!(post.visibility, Visibility::Unlisted, "delisted");
        assert!(post.followers_stripped, "followers stripped");
    }

    #[test]
    fn reject_variant_rejects_old_posts() {
        let p = ObjectAgePolicy::rejecting();
        let now = SimTime(SimDuration::days(30).as_secs());
        let v = filter_at(&p, aged_create(SimTime(0)), now);
        assert_eq!(v.expect_reject().code, "too_old");
    }

    #[test]
    fn custom_threshold_respected() {
        let p = ObjectAgePolicy::new(SimDuration::days(1), vec![ObjectAgeAction::Reject]);
        let now = SimTime(SimDuration::hours(30).as_secs());
        assert!(!filter_at(&p, aged_create(SimTime(0)), now).is_pass());
        let now = SimTime(SimDuration::hours(20).as_secs());
        assert!(filter_at(&p, aged_create(SimTime(0)), now).is_pass());
    }

    #[test]
    fn non_create_activities_pass() {
        let p = ObjectAgePolicy::rejecting();
        let actor = UserRef::new(UserId(1), Domain::new("old.example"));
        let follow = Activity::follow(
            ActivityId(2),
            actor,
            UserRef::new(UserId(2), Domain::new("home.example")),
            SimTime(0),
        );
        let v = filter_at(&p, follow, SimTime(SimDuration::days(365).as_secs()));
        assert!(v.is_pass());
    }
}
