//! Filter results.

use crate::catalog::PolicyKind;
use crate::model::Activity;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a policy rejected an activity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RejectReason {
    /// The policy that rejected.
    pub policy: PolicyKind,
    /// Short machine-readable code (e.g. `instance_blocked`, `too_old`).
    pub code: String,
    /// Free-text detail for logs.
    pub detail: String,
}

impl RejectReason {
    /// Builds a reason.
    pub fn new(policy: PolicyKind, code: impl Into<String>, detail: impl Into<String>) -> Self {
        RejectReason {
            policy,
            code: code.into(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.policy, self.code, self.detail)
    }
}

/// Result of a traced [`MrfPipeline::filter`](super::MrfPipeline::filter)
/// run: the surviving activity or the rejection.
// `Pass` carries the full `Activity` by value on purpose: boxing it to
// shrink the enum would put an allocation on every traced filter run.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum PolicyVerdict {
    /// Let the (possibly rewritten) activity continue down the chain.
    Pass(Activity),
    /// Stop: the activity is rejected and will not be ingested.
    Reject(RejectReason),
}

impl PolicyVerdict {
    /// True if the verdict passes the activity on.
    pub fn is_pass(&self) -> bool {
        matches!(self, PolicyVerdict::Pass(_))
    }

    /// Unwraps the passed activity; panics on a rejection. Test helper.
    pub fn expect_pass(self) -> Activity {
        match self {
            PolicyVerdict::Pass(a) => a,
            PolicyVerdict::Reject(r) => panic!("expected pass, got rejection: {r}"),
        }
    }

    /// Unwraps the rejection; panics on a pass. Test helper.
    pub fn expect_reject(self) -> RejectReason {
        match self {
            PolicyVerdict::Reject(r) => r,
            PolicyVerdict::Pass(a) => panic!("expected rejection, got pass of {:?}", a.id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
    use crate::model::Post;
    use crate::time::SimTime;

    fn act() -> Activity {
        Activity::create(
            ActivityId(1),
            Post::stub(
                PostId(1),
                UserRef::new(UserId(1), Domain::new("a.example")),
                SimTime(0),
                "x",
            ),
        )
    }

    #[test]
    fn verdict_predicates() {
        assert!(PolicyVerdict::Pass(act()).is_pass());
        let r = RejectReason::new(PolicyKind::Simple, "instance_blocked", "a.example");
        assert!(!PolicyVerdict::Reject(r).is_pass());
    }

    #[test]
    fn reason_display() {
        let r = RejectReason::new(PolicyKind::ObjectAge, "too_old", "age 8d > 7d");
        assert_eq!(r.to_string(), "ObjectAgePolicy[too_old]: age 8d > 7d");
    }

    #[test]
    #[should_panic(expected = "expected pass")]
    fn expect_pass_panics_on_reject() {
        PolicyVerdict::Reject(RejectReason::new(PolicyKind::Drop, "drop", "all")).expect_pass();
    }
}
