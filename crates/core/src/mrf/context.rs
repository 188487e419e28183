//! The environment a policy runs in.

use crate::id::{Domain, UserRef};
use crate::time::{SimDuration, SimTime};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Read-only directory of actor (account) facts a policy may consult.
///
/// On a live instance this is backed by the user database; several policies
/// need it (`AntiFollowbotPolicy` checks the bot flag, `AntiLinkSpamPolicy`
/// checks account age/followers, `TagPolicy` reads admin-applied MRF tags,
/// `RepeatOffenderPolicy` reads the report counter).
pub trait ActorDirectory: Send + Sync {
    /// Whether the account is flagged as a bot / service actor.
    fn is_bot(&self, actor: &UserRef) -> bool;
    /// Follower count, if known.
    fn followers(&self, actor: &UserRef) -> Option<u32>;
    /// Account creation time, if known.
    fn created(&self, actor: &UserRef) -> Option<SimTime>;
    /// MRF tags the local admin applied to this account.
    fn mrf_tags(&self, actor: &UserRef) -> Vec<String>;
    /// Number of reports (`Flag` activities) filed against this account.
    fn report_count(&self, actor: &UserRef) -> u32;
    /// When this instance first had contact with `domain`, if it has.
    ///
    /// A live server records it when a remote domain's first activity
    /// arrives, before the pipeline judges that activity. `None` means
    /// "first contact is now": [`SandboxPolicy`] quarantines such a
    /// domain. Keeping the fact here, not in the policy, keeps every
    /// verdict a pure function of the pipeline, the activity and the
    /// context, so one compiled pipeline can be shared between instances.
    ///
    /// [`SandboxPolicy`]: crate::mrf::policies::SandboxPolicy
    fn first_seen(&self, domain: &Domain) -> Option<SimTime>;

    /// Account age at `now`, if creation time is known.
    fn account_age(&self, actor: &UserRef, now: SimTime) -> Option<SimDuration> {
        self.created(actor).map(|c| now.since(c))
    }
}

/// An [`ActorDirectory`] that knows nothing — useful in tests and for
/// policies evaluated outside a server context.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullActorDirectory;

impl ActorDirectory for NullActorDirectory {
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
        0
    }
    fn first_seen(&self, _: &Domain) -> Option<SimTime> {
        None
    }
}

/// Side effects a policy may trigger beyond pass/rewrite/reject.
///
/// These model the "warming"/"stealing"/notification behaviours of several
/// in-built policies; servers drain the sink after each filter run and act
/// on the effects (e.g. record a stolen emoji).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SideEffect {
    /// `StealEmojiPolicy` copied an emoji locally.
    EmojiStolen {
        /// Emoji shortcode.
        shortcode: String,
        /// Host it was copied from.
        host: Domain,
    },
    /// `MediaProxyWarmingPolicy` / `CdnWarmingPolicy` prefetched media.
    MediaPrefetched {
        /// Host the media was fetched from.
        host: Domain,
    },
    /// `FollowBotPolicy` auto-followed a newly discovered user.
    AutoFollowed {
        /// The discovered account that was followed.
        target: UserRef,
    },
    /// `NotifyLocalUsersPolicy` pinged local users about a policy event.
    LocalUsersNotified {
        /// Which remote domain triggered the notification.
        about: Domain,
    },
    /// `AMQPPolicy` mirrored the activity onto a message bus.
    MirroredToBus {
        /// Routing key used.
        routing_key: String,
    },
    /// `BlockNotification` told the admin about an incoming block.
    AdminNotified {
        /// Human-readable message.
        message: String,
    },
    /// A policy requested a report be forwarded to moderators.
    ReportForwarded {
        /// The reported account.
        target: UserRef,
    },
    /// `SimplePolicy` banner/avatar removal stripped a profile image.
    ProfileMediaStripped {
        /// Origin instance whose actors get their profile media dropped.
        host: Domain,
        /// Which image was stripped.
        image: ProfileImage,
    },
}

/// Which profile image a `SimplePolicy` removal action stripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileImage {
    /// The account avatar.
    Avatar,
    /// The profile banner.
    Banner,
}

/// Environment handed to every policy invocation.
pub struct PolicyContext<'a> {
    /// Domain of the instance running the pipeline.
    pub local_domain: &'a Domain,
    /// Current simulated time (the *receive* time; `ObjectAgePolicy`
    /// compares this against the post's creation time).
    pub now: SimTime,
    /// Actor facts.
    pub actors: &'a dyn ActorDirectory,
    effects: EffectSink,
}

impl<'a> PolicyContext<'a> {
    /// Creates a context.
    pub fn new(local_domain: &'a Domain, now: SimTime, actors: &'a dyn ActorDirectory) -> Self {
        PolicyContext {
            local_domain,
            now,
            actors,
            effects: EffectSink::default(),
        }
    }

    /// Whether `domain` is the local instance.
    pub fn is_local(&self, domain: &Domain) -> bool {
        domain == self.local_domain
    }

    /// Record a side effect.
    pub fn emit(&self, effect: SideEffect) {
        self.effects.push(effect);
    }

    /// Drain all recorded side effects.
    pub fn take_effects(&self) -> Vec<SideEffect> {
        self.effects.drain()
    }
}

/// Thread-safe accumulator of [`SideEffect`]s.
#[derive(Debug, Default)]
pub struct EffectSink {
    inner: Mutex<Vec<SideEffect>>,
}

impl EffectSink {
    /// Append an effect.
    pub fn push(&self, effect: SideEffect) {
        self.inner.lock().push(effect);
    }

    /// Take every accumulated effect, leaving the sink empty.
    pub fn drain(&self) -> Vec<SideEffect> {
        std::mem::take(&mut *self.inner.lock())
    }

    /// Number of effects currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True if no effects are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::UserId;

    #[test]
    fn null_directory_defaults() {
        let d = NullActorDirectory;
        let u = UserRef::new(UserId(1), Domain::new("x.example"));
        assert!(!d.is_bot(&u));
        assert_eq!(d.followers(&u), None);
        assert_eq!(d.account_age(&u, SimTime(100)), None);
        assert!(d.mrf_tags(&u).is_empty());
        assert_eq!(d.report_count(&u), 0);
        assert_eq!(d.first_seen(&u.domain), None);
    }

    #[test]
    fn context_collects_effects() {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        assert!(ctx.is_local(&Domain::new("home.example")));
        assert!(!ctx.is_local(&Domain::new("away.example")));
        ctx.emit(SideEffect::MediaPrefetched {
            host: Domain::new("cdn.example"),
        });
        ctx.emit(SideEffect::EmojiStolen {
            shortcode: "blobcat".into(),
            host: Domain::new("emoji.example"),
        });
        let effects = ctx.take_effects();
        assert_eq!(effects.len(), 2);
        assert!(ctx.take_effects().is_empty(), "drain empties the sink");
    }

    #[test]
    fn sink_len_tracks() {
        let sink = EffectSink::default();
        assert!(sink.is_empty());
        sink.push(SideEffect::AdminNotified {
            message: "hi".into(),
        });
        assert_eq!(sink.len(), 1);
        sink.drain();
        assert!(sink.is_empty());
    }
}
