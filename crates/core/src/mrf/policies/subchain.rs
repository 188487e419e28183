//! `SubchainPolicy` — "Selectively runs other MRF policies when messages
//! match" (Table 3; 8 instances).

use crate::catalog::PolicyKind;
use crate::id::Domain;
use crate::model::Activity;
use crate::mrf::context::PolicyContext;
use crate::mrf::pipeline::MrfPipeline;
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};

/// What a subchain matches on.
#[derive(Debug, Clone)]
pub enum SubchainMatch {
    /// Activities originating from one of these domains.
    OriginIn(Vec<Domain>),
    /// Activities whose post content contains this substring
    /// (case-insensitive).
    ContentContains(String),
}

impl SubchainMatch {
    fn matches(&self, activity: &Activity) -> bool {
        match self {
            SubchainMatch::OriginIn(domains) => {
                domains.iter().any(|d| activity.origin().matches(d))
            }
            SubchainMatch::ContentContains(needle) => activity
                .note()
                .map(|p| {
                    p.content
                        .to_ascii_lowercase()
                        .contains(&needle.to_ascii_lowercase())
                })
                .unwrap_or(false),
        }
    }
}

/// Runs an inner pipeline only for matching activities.
pub struct SubchainPolicy {
    /// The match criterion.
    pub matcher: SubchainMatch,
    /// The inner chain executed on matches.
    pub chain: MrfPipeline,
}

impl SubchainPolicy {
    /// Builds a subchain.
    pub fn new(matcher: SubchainMatch, chain: MrfPipeline) -> Self {
        SubchainPolicy { matcher, chain }
    }
}

impl MrfPolicy for SubchainPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Subchain
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if self.matcher.matches(act) {
            // The inner chain's trace is never surfaced (only the verdict
            // propagates), so take the untraced path on the same Inbound:
            // an inner rewrite is the outer chain's rewrite.
            self.chain.filter_inbound(ctx, act)
        } else {
            Ok(())
        }
    }

    fn describe(&self) -> String {
        format!("SubchainPolicy(chain_len={})", self.chain.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, PostId, UserId, UserRef};
    use crate::model::Post;
    use crate::mrf::context::NullActorDirectory;
    use crate::mrf::policies::DropPolicy;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;
    use std::sync::Arc;

    fn note(domain: &str, content: &str) -> Activity {
        let author = UserRef::new(UserId(1), Domain::new(domain));
        Activity::create(
            ActivityId(1),
            Post::stub(PostId(1), author, SimTime(0), content),
        )
    }

    fn run(p: &dyn MrfPolicy, act: Activity) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        filter_owned(p, &ctx, act)
    }

    #[test]
    fn subchain_runs_only_on_matching_origin() {
        let chain = MrfPipeline::new().with(Arc::new(DropPolicy));
        let p = SubchainPolicy::new(
            SubchainMatch::OriginIn(vec![Domain::new("sus.example")]),
            chain,
        );
        assert!(!run(&p, note("sus.example", "hello")).is_pass());
        assert!(run(&p, note("fine.example", "hello")).is_pass());
    }

    #[test]
    fn subchain_matches_content() {
        let chain = MrfPipeline::new().with(Arc::new(DropPolicy));
        let p = SubchainPolicy::new(SubchainMatch::ContentContains("CRYPTO".into()), chain);
        assert!(!run(&p, note("a.example", "buy crypto now")).is_pass());
        assert!(run(&p, note("a.example", "buy bread now")).is_pass());
    }

    #[test]
    fn empty_subchain_passes_matches() {
        let p = SubchainPolicy::new(
            SubchainMatch::ContentContains("x".into()),
            MrfPipeline::new(),
        );
        assert!(run(&p, note("a.example", "x")).is_pass());
        assert_eq!(p.describe(), "SubchainPolicy(chain_len=0)");
    }
}
