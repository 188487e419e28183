//! The structurally simple policies: `NoOpPolicy`, `DropPolicy`,
//! `BlockPolicy` and `UserAllowListPolicy`.

use crate::catalog::PolicyKind;
use crate::id::{Domain, UserId};
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// `NoOpPolicy` — "Doesn't modify activities (default)". Enabled on 13.6%
/// of instances per Table 3; ships enabled on fresh installs.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NoOpPolicy;

impl MrfPolicy for NoOpPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoOp
    }

    fn filter(&self, _: &PolicyContext<'_>, _: &mut Inbound<'_>) -> Result<(), RejectReason> {
        Ok(())
    }
}

/// `DropPolicy` — "Drops all activities". Table 3 records exactly one
/// instance (with 1,098 users) running it.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct DropPolicy;

impl MrfPolicy for DropPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Drop
    }

    fn filter(&self, _: &PolicyContext<'_>, _: &mut Inbound<'_>) -> Result<(), RejectReason> {
        Err(RejectReason::new(
            PolicyKind::Drop,
            "drop_all",
            "DropPolicy drops every activity",
        ))
    }
}

/// `BlockPolicy` — instance-wide blocks maintained outside `SimplePolicy`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct BlockPolicy {
    /// Domains to block entirely.
    pub blocked: Vec<Domain>,
}

impl BlockPolicy {
    /// Builds a block policy over the given domains.
    pub fn new(blocked: Vec<Domain>) -> Self {
        BlockPolicy { blocked }
    }
}

impl MrfPolicy for BlockPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Block
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let origin = act.origin();
        if self.blocked.iter().any(|b| origin.matches(b)) {
            return Err(RejectReason::new(
                PolicyKind::Block,
                "blocked",
                format!("{origin} is blocked"),
            ));
        }
        Ok(())
    }
}

/// `UserAllowListPolicy` — for domains with an entry, only the listed users
/// may federate in; everyone else from that domain is rejected.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct UserAllowListPolicy {
    allowed: BTreeMap<Domain, Vec<UserId>>,
}

impl UserAllowListPolicy {
    /// Empty policy (no restrictions).
    pub fn new() -> Self {
        Self::default()
    }

    /// Restricts `domain` to the given users.
    pub fn allow(&mut self, domain: Domain, users: Vec<UserId>) {
        self.allowed.insert(domain, users);
    }

    /// Builder-style [`allow`](Self::allow).
    pub fn with(mut self, domain: Domain, users: Vec<UserId>) -> Self {
        self.allow(domain, users);
        self
    }
}

impl MrfPolicy for UserAllowListPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::UserAllowList
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(users) = self.allowed.get(act.origin()) {
            if !users.contains(&act.actor.user) {
                return Err(RejectReason::new(
                    PolicyKind::UserAllowList,
                    "user_not_allowed",
                    format!("{} not on the allow list", act.actor),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, PostId, UserRef};
    use crate::model::{Activity, Post};
    use crate::mrf::context::NullActorDirectory;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    fn act_from(domain: &str, user: u64) -> Activity {
        let author = UserRef::new(UserId(user), Domain::new(domain));
        Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(0), "x"),
        )
    }

    fn run(p: &dyn MrfPolicy, act: Activity) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        filter_owned(p, &ctx, act)
    }

    #[test]
    fn noop_passes_everything() {
        assert!(run(&NoOpPolicy, act_from("anywhere.example", 1)).is_pass());
    }

    #[test]
    fn drop_rejects_everything() {
        let v = run(&DropPolicy, act_from("anywhere.example", 1));
        assert_eq!(v.expect_reject().code, "drop_all");
    }

    #[test]
    fn block_policy_blocks_listed_domains_only() {
        let p = BlockPolicy::new(vec![Domain::new("bad.example")]);
        assert!(!run(&p, act_from("bad.example", 1)).is_pass());
        assert!(!run(&p, act_from("sub.bad.example", 1)).is_pass());
        assert!(run(&p, act_from("good.example", 1)).is_pass());
    }

    #[test]
    fn user_allow_list_restricts_listed_domains() {
        let p = UserAllowListPolicy::new().with(Domain::new("partial.example"), vec![UserId(7)]);
        assert!(run(&p, act_from("partial.example", 7)).is_pass());
        assert_eq!(
            run(&p, act_from("partial.example", 8)).expect_reject().code,
            "user_not_allowed"
        );
        // Domains without an entry are unrestricted.
        assert!(run(&p, act_from("other.example", 123)).is_pass());
    }
}
