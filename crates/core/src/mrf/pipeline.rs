//! Ordered policy composition with short-circuit semantics.
//!
//! # The live store and its delta API
//!
//! A pipeline is compiled from an
//! [`InstanceModerationConfig`](crate::config::InstanceModerationConfig)
//! by `build_pipeline()` — the *reference path*, O(policies + targets).
//! Dynamic workloads (rollout waves, cascade blocks, blocklist imports)
//! then change one instance's moderation thousands of times per run, and
//! from there on the compiled pipeline is the only live copy of it: its
//! `SimplePolicy` stage holds the target lists ([`MrfPipeline::simple`]),
//! and the config it came from is kept only as the source of the enabled
//! kinds and the policy knobs. Updates are O(delta) and in place:
//!
//! * [`MrfPipeline::apply_wave`] applies one rollout wave: each kind the
//!   config does not enable yet is recorded in the config and appended as
//!   a stage (so append order stays equal to build order), and the wave's
//!   targets merge into the `SimplePolicy` stage;
//! * [`MrfPipeline::apply_simple_delta`] /
//!   [`MrfPipeline::add_simple_target`] merge targets into the compiled
//!   `SimplePolicy` stage.
//!
//! Invariants the delta API maintains — and that the differential
//! proptests in [`super::proptests`] pin against the reference path:
//!
//! 1. **Verdict equivalence.** After any sequence of deltas, `filter`
//!    and `filter_inbound` return the same verdicts (surviving activity
//!    included) as a pipeline freshly compiled from a config that had
//!    every wave and target applied to it.
//! 2. **Idempotent enable per requested kind.** Enabling is keyed on the
//!    config's enabled list, not on the chain's stage kinds: `Subchain`
//!    and `FollowBot` compile to a `NoOp` stage, so only the config can
//!    tell whether they were already requested.
//! 3. **Skip-mask consistency.** The precomputed anti-hellthread skip
//!    set is recomputed on every `push` and left untouched by target
//!    merges, which cannot change any stage's [`PolicyKind`].
//! 4. **Additive only.** Deltas merge; they never remove targets or
//!    stages. Removal (e.g. a reset to the fresh-install default) goes
//!    through the reference path.
//! 5. **Copy-on-write under sharing.** Target merges mutate through
//!    `Arc::get_mut` when the stage is uniquely owned — the O(delta) hot
//!    path — and fall back to cloning the one `SimplePolicy` stage when
//!    the `Arc` is shared, never touching the other stages. The config
//!    is likewise diverged (`Arc::make_mut`) only when a wave enables a
//!    new kind.

use super::context::PolicyContext;
use super::inbound::Inbound;
use super::policies::{SimpleAction, SimplePolicy};
use super::verdict::{PolicyVerdict, RejectReason};
use super::MrfPolicy;
use crate::catalog::PolicyKind;
use crate::config::InstanceModerationConfig;
use crate::id::Domain;
use crate::model::Activity;
use crate::rollout::RolloutWave;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// What one policy in the chain decided.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyDecision {
    /// The activity flowed through.
    Passed,
    /// The chain stopped here.
    Rejected(RejectReason),
}

/// Trace entry: one policy's decision for one activity.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PolicyTrace {
    /// The policy that ran.
    pub policy: PolicyKind,
    /// Its decision.
    pub decision: PolicyDecision,
}

/// Result of running an activity through a whole pipeline.
#[derive(Debug)]
pub struct FilterOutcome {
    /// The surviving (possibly rewritten) activity, or the rejection.
    pub verdict: PolicyVerdict,
    /// Per-policy decisions, in execution order. Policies after a rejection
    /// do not appear (they never ran — Pleroma short-circuits identically).
    pub trace: Vec<PolicyTrace>,
}

impl FilterOutcome {
    /// True if the activity survived every policy.
    pub fn accepted(&self) -> bool {
        self.verdict.is_pass()
    }

    /// The rejection reason, if any.
    pub fn rejection(&self) -> Option<&RejectReason> {
        match &self.verdict {
            PolicyVerdict::Reject(r) => Some(r),
            PolicyVerdict::Pass(_) => None,
        }
    }
}

/// An ordered chain of MRF policies, mirroring Pleroma's
/// `config :pleroma, :mrf, policies: [...]`.
///
/// The anti-hellthread interaction (an `AntiHellthreadPolicy` anywhere in
/// the chain disables every `HellthreadPolicy`) is precomputed into a
/// per-policy skip mask at construction, so the per-activity filter loop
/// never re-scans the chain.
#[derive(Clone, Default)]
pub struct MrfPipeline {
    policies: Vec<Arc<dyn MrfPolicy>>,
    /// `skip[i]` ⇒ `policies[i]` never runs (disabled by another policy).
    skip: Vec<bool>,
}

impl MrfPipeline {
    /// An empty pipeline (passes everything).
    pub fn new() -> Self {
        MrfPipeline::default()
    }

    /// Appends a policy to the end of the chain.
    pub fn push(&mut self, policy: Arc<dyn MrfPolicy>) {
        self.policies.push(policy);
        self.skip.push(false);
        self.recompute_skips();
    }

    /// Rebuilds the skip mask. O(n) in chain length, run only on
    /// construction/mutation — never per activity.
    fn recompute_skips(&mut self) {
        let hellthread_disabled = self
            .policies
            .iter()
            .any(|p| p.kind() == PolicyKind::AntiHellthread);
        for (i, policy) in self.policies.iter().enumerate() {
            self.skip[i] = hellthread_disabled && policy.kind() == PolicyKind::Hellthread;
        }
    }

    /// Builder-style [`push`](Self::push).
    pub fn with(mut self, policy: Arc<dyn MrfPolicy>) -> Self {
        self.push(policy);
        self
    }

    /// The policies in the chain, in order.
    pub fn policies(&self) -> &[Arc<dyn MrfPolicy>] {
        &self.policies
    }

    /// The catalog kinds enabled in this pipeline, in order.
    pub fn kinds(&self) -> Vec<PolicyKind> {
        self.policies.iter().map(|p| p.kind()).collect()
    }

    /// Whether a policy of the given kind is in the chain.
    pub fn has(&self, kind: PolicyKind) -> bool {
        self.policies.iter().any(|p| p.kind() == kind)
    }

    /// Index of the first policy of the given kind.
    pub fn position(&self, kind: PolicyKind) -> Option<usize> {
        self.policies.iter().position(|p| p.kind() == kind)
    }

    /// The compiled `SimplePolicy` stage — the live target lists — if
    /// the chain runs one.
    pub fn simple(&self) -> Option<&SimplePolicy> {
        self.position(PolicyKind::Simple)
            .and_then(|idx| self.policies[idx].as_simple())
    }

    /// Applies one rollout wave in place — O(wave). `knobs` is the config
    /// this pipeline was compiled from; it is written only to record a
    /// kind it does not enable yet (targets enable `Simple`), whose stage
    /// is built from its knobs and appended. Targets merge into the
    /// `SimplePolicy` stage only, so `knobs.simple` goes stale: read
    /// [`simple`](Self::simple).
    pub fn apply_wave(&mut self, wave: &RolloutWave, knobs: &mut Arc<InstanceModerationConfig>) {
        let simple = wave.simple.as_ref().map(|_| &PolicyKind::Simple);
        for &kind in wave.enable.iter().chain(simple) {
            if knobs.has(kind) {
                continue;
            }
            let knobs = Arc::make_mut(knobs);
            knobs.enable(kind);
            if let Some(policy) = knobs.instantiate(kind) {
                self.push(policy);
            }
        }
        if let Some(addition) = &wave.simple {
            let merged = self.apply_simple_delta(addition);
            debug_assert!(merged, "an enabled Simple kind compiles to a Simple stage");
        }
    }

    /// Merges `delta`'s `(action, domain)` targets into the compiled
    /// `SimplePolicy` stage in place — O(delta), no recompilation.
    ///
    /// Returns `false` (leaving the pipeline untouched) when there is no
    /// `SimplePolicy` stage to absorb the delta: enable `Simple` first
    /// through [`apply_wave`](Self::apply_wave). The skip mask is
    /// untouched: a target merge cannot change any stage's kind.
    pub fn apply_simple_delta(&mut self, delta: &SimplePolicy) -> bool {
        self.with_simple_stage(|simple| simple.merge(delta))
    }

    /// Adds a single `(action, domain)` target to the compiled
    /// `SimplePolicy` stage in place — the one-block delta a
    /// defederation event applies. Same contract as
    /// [`apply_simple_delta`](Self::apply_simple_delta).
    pub fn add_simple_target(&mut self, action: SimpleAction, domain: Domain) -> bool {
        self.with_simple_stage(|simple| simple.add_target(action, domain))
    }

    /// Runs `mutate` on the `SimplePolicy` stage: through `Arc::get_mut`
    /// when uniquely owned, else copy-on-write of that one stage.
    fn with_simple_stage(&mut self, mutate: impl FnOnce(&mut SimplePolicy)) -> bool {
        let Some(idx) = self.position(PolicyKind::Simple) else {
            return false;
        };
        let slot = &mut self.policies[idx];
        if let Some(stage) = Arc::get_mut(slot) {
            let Some(simple) = stage.as_simple_mut() else {
                return false;
            };
            mutate(simple);
            return true;
        }
        // The Arc is shared (the pipeline was cloned): copy-on-write.
        let Some(current) = slot.as_simple() else {
            return false;
        };
        let mut copy = current.clone();
        mutate(&mut copy);
        *slot = Arc::new(copy);
        true
    }

    /// Number of policies in the chain.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True if the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Runs `activity` through the chain, recording each stage's decision.
    ///
    /// Each policy sees the output of the previous one; the first rejection
    /// stops the chain (`AntiHellthreadPolicy` is the one exception — its
    /// presence disables any `HellthreadPolicy` later in the chain, which
    /// the pipeline implements by skipping those policies).
    pub fn filter(&self, ctx: &PolicyContext<'_>, activity: Activity) -> FilterOutcome {
        let mut trace = Vec::with_capacity(self.policies.len());
        let mut inbound = Inbound::owned(activity);
        let verdict = match self.run(ctx, &mut inbound, Some(&mut trace)) {
            Ok(()) => PolicyVerdict::Pass(inbound.into_owned()),
            Err(reason) => PolicyVerdict::Reject(reason),
        };
        FilterOutcome { verdict, trace }
    }

    /// Runs `activity` through the chain without recording a trace.
    ///
    /// Identical decision semantics to [`filter`](Self::filter) — same
    /// skip mask, same short-circuit on first rejection — but allocation
    /// free as long as no stage rewrites: a borrowed [`Inbound`] is cloned
    /// only at the first stage that changes it, and the walk continues
    /// from there. Bulk simulation judges millions of borrowed templates
    /// this way; the surviving (possibly rewritten) activity stays in
    /// `activity`. The proptests in the `proptests` module pin verdict,
    /// surviving activity and side effects against `filter` across the
    /// catalog.
    pub fn filter_inbound(
        &self,
        ctx: &PolicyContext<'_>,
        activity: &mut Inbound<'_>,
    ) -> Result<(), RejectReason> {
        self.run(ctx, activity, None)
    }

    /// The one chain walk behind both entry points.
    fn run(
        &self,
        ctx: &PolicyContext<'_>,
        activity: &mut Inbound<'_>,
        mut trace: Option<&mut Vec<PolicyTrace>>,
    ) -> Result<(), RejectReason> {
        for (policy, &skip) in self.policies.iter().zip(&self.skip) {
            if skip {
                continue;
            }
            let result = policy.filter(ctx, activity);
            if let Some(trace) = trace.as_deref_mut() {
                trace.push(PolicyTrace {
                    policy: policy.kind(),
                    decision: match &result {
                        Ok(()) => PolicyDecision::Passed,
                        Err(reason) => PolicyDecision::Rejected(reason.clone()),
                    },
                });
            }
            result?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for MrfPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.kinds()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
    use crate::model::Post;
    use crate::mrf::context::NullActorDirectory;
    use crate::time::SimTime;

    /// A policy that always passes, optionally tagging the content.
    struct Tagger(&'static str);
    impl MrfPolicy for Tagger {
        fn kind(&self) -> PolicyKind {
            PolicyKind::NoOp
        }
        fn filter(&self, _: &PolicyContext<'_>, a: &mut Inbound<'_>) -> Result<(), RejectReason> {
            if let Some(p) = a.note_mut_if(|_| true) {
                p.content = format!("{}{}", p.content, self.0).into();
            }
            Ok(())
        }
    }

    /// A policy that always rejects.
    struct Rejector;
    impl MrfPolicy for Rejector {
        fn kind(&self) -> PolicyKind {
            PolicyKind::Drop
        }
        fn filter(&self, _: &PolicyContext<'_>, _: &mut Inbound<'_>) -> Result<(), RejectReason> {
            Err(RejectReason::new(PolicyKind::Drop, "drop", "everything"))
        }
    }

    fn act() -> Activity {
        Activity::create(
            ActivityId(1),
            Post::stub(
                PostId(1),
                UserRef::new(UserId(1), Domain::new("origin.example")),
                SimTime(0),
                "",
            ),
        )
    }

    fn ctx_parts() -> (Domain, NullActorDirectory) {
        (Domain::new("local.example"), NullActorDirectory)
    }

    #[test]
    fn empty_pipeline_passes() {
        let (d, dir) = ctx_parts();
        let ctx = PolicyContext::new(&d, SimTime(0), &dir);
        let out = MrfPipeline::new().filter(&ctx, act());
        assert!(out.accepted());
        assert!(out.trace.is_empty());
    }

    #[test]
    fn policies_run_in_order_and_compose_rewrites() {
        let (d, dir) = ctx_parts();
        let ctx = PolicyContext::new(&d, SimTime(0), &dir);
        let pipe = MrfPipeline::new()
            .with(Arc::new(Tagger("a")))
            .with(Arc::new(Tagger("b")));
        let out = pipe.filter(&ctx, act());
        let post = out.verdict.expect_pass();
        assert_eq!(&*post.note().unwrap().content, "ab");
    }

    #[test]
    fn rejection_short_circuits() {
        let (d, dir) = ctx_parts();
        let ctx = PolicyContext::new(&d, SimTime(0), &dir);
        let pipe = MrfPipeline::new()
            .with(Arc::new(Tagger("a")))
            .with(Arc::new(Rejector))
            .with(Arc::new(Tagger("never")));
        let out = pipe.filter(&ctx, act());
        assert!(!out.accepted());
        // trace: Tagger passed, Rejector rejected, third never ran.
        assert_eq!(out.trace.len(), 2);
        assert_eq!(out.rejection().unwrap().policy, PolicyKind::Drop);
    }

    #[test]
    fn filter_inbound_matches_filter() {
        let (d, dir) = ctx_parts();
        let pipe = MrfPipeline::new()
            .with(Arc::new(Tagger("a")))
            .with(Arc::new(Tagger("b")));
        let ctx = PolicyContext::new(&d, SimTime(0), &dir);
        let slow = pipe.filter(&ctx, act());
        let template = act();
        let mut fast = Inbound::borrowed(&template, SimTime(0));
        assert!(pipe.filter_inbound(&ctx, &mut fast).is_ok());
        assert_eq!(
            slow.verdict.expect_pass().note().unwrap().content,
            fast.note().unwrap().content
        );

        let rejecting = MrfPipeline::new().with(Arc::new(Rejector));
        let mut fast = Inbound::borrowed(&template, SimTime(0));
        assert!(rejecting.filter_inbound(&ctx, &mut fast).is_err());
    }

    #[test]
    fn anti_hellthread_skip_is_precomputed() {
        use crate::mrf::policies::{AntiHellthreadPolicy, HellthreadPolicy};
        // Hellthread first, AntiHellthread later: the mask must still
        // disable the earlier policy (any position disables, as before).
        let pipe = MrfPipeline::new()
            .with(Arc::new(HellthreadPolicy::default()))
            .with(Arc::new(AntiHellthreadPolicy));
        assert_eq!(pipe.skip, vec![true, false]);
        let (d, dir) = ctx_parts();
        // A hellthread-sized mention list passes because Hellthread is
        // disabled.
        let mut hell = act();
        if let Some(p) = hell.note_mut() {
            for i in 0..50 {
                p.mentions
                    .push(UserRef::new(UserId(i), Domain::new("m.example")));
            }
        }
        let ctx = PolicyContext::new(&d, SimTime(0), &dir);
        let out = pipe.filter(&ctx, hell.clone());
        assert!(out.accepted());
        // Without AntiHellthread the same activity is rejected.
        let alone = MrfPipeline::new().with(Arc::new(HellthreadPolicy::default()));
        assert_eq!(alone.skip, vec![false]);
        let ctx = PolicyContext::new(&d, SimTime(0), &dir);
        assert!(!alone.filter(&ctx, hell).accepted());
    }

    #[test]
    fn kinds_and_has() {
        let pipe = MrfPipeline::new().with(Arc::new(Rejector));
        assert!(pipe.has(PolicyKind::Drop));
        assert!(!pipe.has(PolicyKind::Simple));
        assert_eq!(pipe.kinds(), vec![PolicyKind::Drop]);
        assert_eq!(pipe.len(), 1);
        assert!(!pipe.is_empty());
        assert_eq!(pipe.position(PolicyKind::Drop), Some(0));
        assert_eq!(pipe.position(PolicyKind::Simple), None);
    }

    fn blocked(pipe: &MrfPipeline, origin: &str) -> bool {
        let (d, dir) = ctx_parts();
        let ctx = PolicyContext::new(&d, SimTime(0), &dir);
        let act = Activity::create(
            ActivityId(9),
            Post::stub(
                PostId(9),
                UserRef::new(UserId(9), Domain::new(origin)),
                SimTime(0),
                "x",
            ),
        );
        pipe.filter_inbound(&ctx, &mut Inbound::owned(act)).is_err()
    }

    #[test]
    fn simple_delta_mutates_the_stage_in_place() {
        let mut pipe = MrfPipeline::new().with(Arc::new(SimplePolicy::new()));
        assert!(!blocked(&pipe, "bad.example"));
        assert!(pipe.add_simple_target(SimpleAction::Reject, Domain::new("bad.example")));
        assert!(blocked(&pipe, "bad.example"));
        let delta = SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("worse.example"))
            .with_target(SimpleAction::Reject, Domain::new("bad.example"));
        assert!(pipe.apply_simple_delta(&delta));
        assert!(blocked(&pipe, "worse.example"));
        // Dedup: merging an existing target again keeps the list stable.
        let simple = pipe.policies()[0].as_simple().unwrap();
        assert_eq!(simple.targets(SimpleAction::Reject).len(), 2);
    }

    #[test]
    fn simple_delta_without_a_simple_stage_is_refused() {
        let mut pipe = MrfPipeline::new().with(Arc::new(Rejector));
        assert!(!pipe.add_simple_target(SimpleAction::Reject, Domain::new("bad.example")));
        assert!(!pipe.apply_simple_delta(&SimplePolicy::new()));
        assert_eq!(pipe.len(), 1, "a refused delta must not grow the chain");
    }

    #[test]
    fn simple_delta_copy_on_write_when_shared() {
        let mut pipe = MrfPipeline::new().with(Arc::new(SimplePolicy::new()));
        // Clone shares the stage Arc: the delta must not leak into the
        // clone (copy-on-write of the one stage).
        let frozen = pipe.clone();
        assert!(pipe.add_simple_target(SimpleAction::Reject, Domain::new("bad.example")));
        assert!(blocked(&pipe, "bad.example"));
        assert!(!blocked(&frozen, "bad.example"));
    }
}
