//! The MRF (Message Rewrite Facility) policy engine.
//!
//! Pleroma moderates federation traffic by passing every activity through a
//! configurable chain of *policies*. Each policy may pass the activity
//! through unchanged, rewrite it (e.g. strip media, force NSFW, de-list),
//! or reject it outright — mirroring Pleroma's `MRF.filter/1` contract of
//! `{:ok, object} | {:reject, reason}`. Administrators enable policies and
//! point them at target instances; the paper measures exactly this
//! configuration surface.
//!
//! # One decision function per policy
//!
//! A policy implements exactly one [`MrfPolicy::filter`]: it reads the
//! activity through an [`Inbound`], rewrites it only through
//! [`Inbound::to_mut`] (or [`Inbound::note_mut_if`]), and returns
//! `Ok(())` to pass it on or `Err(reason)` to reject. An `Inbound` is
//! copy-on-write: bulk simulation hands the chain a *borrowed* template
//! plus its receive-time stamp, and the template is cloned (and stamped)
//! only at the first stage that actually rewrites it; later stages see the
//! rewrite. Policies read the stamp through [`Inbound::published`], never
//! from the borrowed template's own fields.
//!
//! This module defines:
//!
//! * [`MrfPolicy`] — the policy trait;
//! * [`Inbound`] — the copy-on-write activity a policy judges;
//! * [`PolicyContext`] — read-only environment (local domain, simulated
//!   clock, actor directory) plus a side-effect sink;
//! * [`PolicyVerdict`] / [`RejectReason`] — the filter result;
//! * [`MrfPipeline`] — ordered composition with short-circuit on reject:
//!   the traced owning [`MrfPipeline::filter`] and the untraced
//!   [`MrfPipeline::filter_inbound`], one loop behind both.
//!
//! Policy implementations live in the sibling modules, one file per policy
//! family, each carrying its configuration knobs and unit tests.

mod context;
mod inbound;
mod pipeline;
#[cfg(test)]
mod proptests;
mod verdict;

pub mod policies;

pub use context::{
    ActorDirectory, EffectSink, NullActorDirectory, PolicyContext, ProfileImage, SideEffect,
};
pub use inbound::Inbound;
pub use pipeline::{FilterOutcome, MrfPipeline, PolicyDecision, PolicyTrace};
pub use verdict::{PolicyVerdict, RejectReason};

use crate::catalog::PolicyKind;

/// A single MRF policy.
///
/// Implementations must be cheap to call and keep no mutable state: a
/// verdict is a function of the policy's configuration, the activity and
/// the [`PolicyContext`] alone, and the context's effect sink is the only
/// thing a call writes. The same policy object is shared across every
/// activity an instance ingests, and an interned pipeline across
/// instances. Memory a policy needs (first contact with a domain) is a
/// fact of the [`ActorDirectory`]; de-duplicating side effects (an emoji
/// already stolen, an account already followed) is the consumer's job.
pub trait MrfPolicy: Send + Sync {
    /// Which catalog entry this policy implements.
    fn kind(&self) -> PolicyKind;

    /// Filter one activity: pass it on (`Ok`, possibly rewritten in place
    /// through [`Inbound::to_mut`]) or reject it.
    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason>;

    /// Human-readable one-line summary of this policy's configuration,
    /// rendered into the instance metadata the crawler scrapes.
    fn describe(&self) -> String {
        self.kind().name().to_string()
    }

    /// Downcast to the concrete [`policies::SimplePolicy`], if this *is*
    /// one. The pipeline's delta API ([`MrfPipeline::apply_simple_delta`])
    /// uses this to mutate the compiled `SimplePolicy` stage in place
    /// instead of recompiling the whole chain; every other policy keeps
    /// the `None` default.
    fn as_simple(&self) -> Option<&policies::SimplePolicy> {
        None
    }

    /// Mutable variant of [`as_simple`](Self::as_simple), reachable only
    /// through a uniquely-owned stage (`Arc::get_mut`).
    fn as_simple_mut(&mut self) -> Option<&mut policies::SimplePolicy> {
        None
    }
}

/// Runs one policy on an owned activity (policy unit tests).
#[cfg(test)]
pub(crate) fn filter_owned(
    policy: &dyn MrfPolicy,
    ctx: &PolicyContext<'_>,
    activity: crate::model::Activity,
) -> PolicyVerdict {
    let mut inbound = Inbound::owned(activity);
    match policy.filter(ctx, &mut inbound) {
        Ok(()) => PolicyVerdict::Pass(inbound.into_owned()),
        Err(reason) => PolicyVerdict::Reject(reason),
    }
}
