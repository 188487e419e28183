//! The paper's §7 "strawman" proposals, implemented as fediscope
//! extensions.
//!
//! §7 proposes three concrete steps to reduce collateral damage:
//!
//! 1. **Curated blocklists** ("NoHate", "NoPorn") maintained as a community
//!    effort → [`CuratedListPolicy`];
//! 2. **Per-user moderation** with streamlined tagging, "potentially
//!    assisted by automated classifiers" → [`UserTagModerationPolicy`];
//! 3. **Automatic escalation for repeat offenders** — apply NSFW or media
//!    removal "when they have been reported n times, or when the user post
//!    goes above a certain threshold (e.g. in Google Perspective API)" →
//!    [`RepeatOffenderPolicy`].
//!
//! The ablation harness (`fediscope-analysis::ablation`) compares each of
//! these against the brute-force `reject` on the collateral-damage metric
//! of §5.

use crate::catalog::PolicyKind;
use crate::id::{Domain, UserRef};
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

use super::simple::SimpleAction;

/// A named, community-curated blocklist (§7 proposal 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CuratedBlocklist {
    /// List name, e.g. `NoHate` or `NoPorn`.
    pub name: String,
    /// Instances on the list.
    pub entries: Vec<Domain>,
    /// The action subscribing instances apply to listed domains. The paper
    /// suggests curators pick actions with "limited collateral damage", so
    /// the default in examples is `MediaRemoval` or `MediaNsfw` rather than
    /// `Reject`.
    pub action: SimpleAction,
}

impl CuratedBlocklist {
    /// Builds a list.
    pub fn new(name: impl Into<String>, entries: Vec<Domain>, action: SimpleAction) -> Self {
        CuratedBlocklist {
            name: name.into(),
            entries,
            action,
        }
    }

    /// Whether `domain` is on the list.
    pub fn contains(&self, domain: &Domain) -> bool {
        self.entries.iter().any(|e| domain.matches(e))
    }
}

/// `CuratedListPolicy` — subscribes an instance to curated blocklists; the
/// admin "simply selects the relevant lists" instead of hand-maintaining
/// `SimplePolicy` targets.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CuratedListPolicy {
    /// The lists this instance subscribes to.
    pub lists: Vec<CuratedBlocklist>,
}

impl CuratedListPolicy {
    /// Subscribes to the given lists.
    pub fn new(lists: Vec<CuratedBlocklist>) -> Self {
        CuratedListPolicy { lists }
    }

    /// Expands the subscription into the equivalent `SimplePolicy`
    /// configuration (useful for comparing reach with hand-made configs).
    pub fn as_simple_policy(&self) -> super::simple::SimplePolicy {
        let mut simple = super::simple::SimplePolicy::new();
        for list in &self.lists {
            for domain in &list.entries {
                simple.add_target(list.action, domain.clone());
            }
        }
        simple
    }
}

impl MrfPolicy for CuratedListPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::CuratedList
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let origin = act.origin().clone();
        if ctx.is_local(&origin) {
            return Ok(());
        }
        for list in self.lists.iter().filter(|l| l.contains(&origin)) {
            if list.action == SimpleAction::Reject {
                return Err(RejectReason::new(
                    PolicyKind::CuratedList,
                    "curated_reject",
                    format!("{origin} is on the {} list", list.name),
                ));
            }
            list.action.rewrite_post(act);
        }
        Ok(())
    }

    fn describe(&self) -> String {
        let names: Vec<&str> = self.lists.iter().map(|l| l.name.as_str()).collect();
        format!("CuratedListPolicy({})", names.join(","))
    }
}

/// A classifier that scores an account's harmfulness in `[0, 1]` — the §7
/// "automated classifier" assisting per-user moderation. The workspace's
/// Perspective substrate implements this for synthetic users; tests inject
/// table-driven fakes.
pub trait HarmClassifier: Send + Sync {
    /// Average harm score for the account, if the classifier knows it.
    fn harm_score(&self, actor: &UserRef) -> Option<f64>;
}

/// A [`HarmClassifier`] backed by a fixed map. Primarily for tests and
/// examples.
#[derive(Debug, Default)]
pub struct StaticHarmClassifier {
    scores: std::collections::HashMap<UserRef, f64>,
}

impl StaticHarmClassifier {
    /// Empty classifier (knows nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an account's score.
    pub fn set(&mut self, actor: UserRef, score: f64) {
        self.scores.insert(actor, score);
    }
}

impl HarmClassifier for StaticHarmClassifier {
    fn harm_score(&self, actor: &UserRef) -> Option<f64> {
        self.scores.get(actor).copied()
    }
}

/// The action an escalating per-user policy applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EscalationAction {
    /// Force-mark the user's posts sensitive.
    ForceNsfw,
    /// Strip the user's media.
    MediaRemoval,
    /// De-list the user's posts.
    Unlisted,
    /// Reject the user's posts (per-user, not per-instance).
    RejectUser,
}

impl EscalationAction {
    /// The post rewrite this escalation applies (`None` for `RejectUser`).
    fn rewrite(self) -> Option<SimpleAction> {
        match self {
            EscalationAction::ForceNsfw => Some(SimpleAction::MediaNsfw),
            EscalationAction::MediaRemoval => Some(SimpleAction::MediaRemoval),
            EscalationAction::Unlisted => Some(SimpleAction::FederatedTimelineRemoval),
            EscalationAction::RejectUser => None,
        }
    }
}

/// `UserTagModerationPolicy` (§7 proposal 2) — applies a per-user action to
/// accounts whose classifier score crosses a threshold, instead of blocking
/// the whole instance.
pub struct UserTagModerationPolicy {
    /// The classifier assisting moderation.
    pub classifier: Arc<dyn HarmClassifier>,
    /// Score at which the action kicks in (the paper's threshold of 0.8 is
    /// the natural default).
    pub threshold: f64,
    /// What to do to flagged users' posts.
    pub action: EscalationAction,
}

impl UserTagModerationPolicy {
    /// Builds the policy.
    pub fn new(
        classifier: Arc<dyn HarmClassifier>,
        threshold: f64,
        action: EscalationAction,
    ) -> Self {
        UserTagModerationPolicy {
            classifier,
            threshold,
            action,
        }
    }

    fn flagged(&self, actor: &UserRef) -> bool {
        self.classifier
            .harm_score(actor)
            .map(|s| s >= self.threshold)
            .unwrap_or(false)
    }
}

impl MrfPolicy for UserTagModerationPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::UserTagModeration
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if self.flagged(&act.actor) {
            let Some(rewrite) = self.action.rewrite() else {
                return Err(RejectReason::new(
                    PolicyKind::UserTagModeration,
                    "user_rejected",
                    format!("{} classified harmful", act.actor),
                ));
            };
            rewrite.rewrite_post(act);
        }
        Ok(())
    }
}

/// `RepeatOffenderPolicy` (§7 proposal 3) — escalates automatically when an
/// account has been reported `n` times *or* its classifier score crosses a
/// threshold.
pub struct RepeatOffenderPolicy {
    /// Reports needed to trigger escalation.
    pub report_threshold: u32,
    /// Optional classifier assist.
    pub classifier: Option<Arc<dyn HarmClassifier>>,
    /// Classifier score that triggers escalation (used when `classifier`
    /// is present).
    pub score_threshold: f64,
    /// What to do to offenders' posts.
    pub action: EscalationAction,
}

impl RepeatOffenderPolicy {
    /// Report-count–only variant.
    pub fn by_reports(report_threshold: u32, action: EscalationAction) -> Self {
        RepeatOffenderPolicy {
            report_threshold,
            classifier: None,
            score_threshold: 0.8,
            action,
        }
    }

    /// Classifier-assisted variant.
    pub fn with_classifier(
        report_threshold: u32,
        classifier: Arc<dyn HarmClassifier>,
        score_threshold: f64,
        action: EscalationAction,
    ) -> Self {
        RepeatOffenderPolicy {
            report_threshold,
            classifier: Some(classifier),
            score_threshold,
            action,
        }
    }

    fn is_offender(&self, ctx: &PolicyContext<'_>, actor: &UserRef) -> bool {
        if ctx.actors.report_count(actor) >= self.report_threshold {
            return true;
        }
        if let Some(classifier) = &self.classifier {
            if let Some(score) = classifier.harm_score(actor) {
                return score >= self.score_threshold;
            }
        }
        false
    }
}

impl MrfPolicy for RepeatOffenderPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RepeatOffender
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if self.is_offender(ctx, &act.actor) {
            let Some(rewrite) = self.action.rewrite() else {
                return Err(RejectReason::new(
                    PolicyKind::RepeatOffender,
                    "repeat_offender",
                    format!("{} exceeded the offence thresholds", act.actor),
                ));
            };
            rewrite.rewrite_post(act);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, PostId, UserId};
    use crate::model::{Activity, MediaAttachment, MediaKind, Post, Visibility};
    use crate::mrf::context::{ActorDirectory, NullActorDirectory};
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    fn media_note(domain: &str, user: u64) -> Activity {
        let author = UserRef::new(UserId(user), Domain::new(domain));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "text");
        post.media.push(MediaAttachment {
            host: Domain::new(domain),
            kind: MediaKind::Image,
            sensitive: false,
        });
        Activity::create(ActivityId(1), post)
    }

    fn run(p: &dyn MrfPolicy, act: Activity) -> PolicyVerdict {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        filter_owned(p, &ctx, act)
    }

    #[test]
    fn curated_list_media_removal_preserves_text() {
        let list = CuratedBlocklist::new(
            "NoPorn",
            vec![Domain::new("lewd.example")],
            SimpleAction::MediaRemoval,
        );
        let p = CuratedListPolicy::new(vec![list]);
        let v = run(&p, media_note("lewd.example", 1));
        let a = v.expect_pass();
        assert!(!a.note().unwrap().has_media());
        assert_eq!(&*a.note().unwrap().content, "text");
    }

    #[test]
    fn curated_list_reject_action_blocks() {
        let list = CuratedBlocklist::new(
            "NoHate",
            vec![Domain::new("hate.example")],
            SimpleAction::Reject,
        );
        let p = CuratedListPolicy::new(vec![list]);
        assert_eq!(
            run(&p, media_note("hate.example", 1)).expect_reject().code,
            "curated_reject"
        );
        assert!(run(&p, media_note("fine.example", 1)).is_pass());
    }

    #[test]
    fn curated_list_expands_to_simple_policy() {
        let list = CuratedBlocklist::new(
            "NoHate",
            vec![Domain::new("a.example"), Domain::new("b.example")],
            SimpleAction::Reject,
        );
        let p = CuratedListPolicy::new(vec![list]);
        let simple = p.as_simple_policy();
        assert_eq!(simple.targets(SimpleAction::Reject).len(), 2);
    }

    #[test]
    fn user_tag_moderation_flags_only_harmful_users() {
        let mut classifier = StaticHarmClassifier::new();
        let harmful = UserRef::new(UserId(1), Domain::new("mixed.example"));
        let innocent = UserRef::new(UserId(2), Domain::new("mixed.example"));
        classifier.set(harmful, 0.93);
        classifier.set(innocent, 0.05);
        let p =
            UserTagModerationPolicy::new(Arc::new(classifier), 0.8, EscalationAction::ForceNsfw);
        // Harmful user: NSFW forced.
        let v = run(&p, media_note("mixed.example", 1));
        assert!(v.expect_pass().note().unwrap().sensitive);
        // Innocent user on the SAME instance: untouched. This is the whole
        // point of §7 — no collateral damage.
        let v = run(&p, media_note("mixed.example", 2));
        assert!(!v.expect_pass().note().unwrap().sensitive);
    }

    #[test]
    fn user_tag_moderation_reject_user_variant() {
        let mut classifier = StaticHarmClassifier::new();
        classifier.set(UserRef::new(UserId(1), Domain::new("m.example")), 0.99);
        let p =
            UserTagModerationPolicy::new(Arc::new(classifier), 0.8, EscalationAction::RejectUser);
        assert_eq!(
            run(&p, media_note("m.example", 1)).expect_reject().code,
            "user_rejected"
        );
    }

    struct ReportDir(u32);
    impl ActorDirectory for ReportDir {
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
            self.0
        }
        fn first_seen(&self, _: &Domain) -> Option<SimTime> {
            None
        }
    }

    #[test]
    fn repeat_offender_triggers_on_report_count() {
        let p = RepeatOffenderPolicy::by_reports(3, EscalationAction::MediaRemoval);
        let local = Domain::new("home.example");
        // Below threshold: untouched.
        let dir = ReportDir(2);
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let v = filter_owned(&p, &ctx, media_note("r.example", 1));
        assert!(v.expect_pass().note().unwrap().has_media());
        // At threshold: media stripped.
        let dir = ReportDir(3);
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let v = filter_owned(&p, &ctx, media_note("r.example", 1));
        assert!(!v.expect_pass().note().unwrap().has_media());
    }

    #[test]
    fn repeat_offender_classifier_assist() {
        let mut classifier = StaticHarmClassifier::new();
        classifier.set(UserRef::new(UserId(1), Domain::new("r.example")), 0.9);
        let p = RepeatOffenderPolicy::with_classifier(
            100, // report threshold unreachable
            Arc::new(classifier),
            0.8,
            EscalationAction::Unlisted,
        );
        let v = run(&p, media_note("r.example", 1));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
        // Unknown users are untouched.
        let v = run(&p, media_note("r.example", 2));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Public
        );
    }
}
