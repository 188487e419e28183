//! Implementations of every MRF policy in the catalog.
//!
//! One module per policy family. Every in-built Pleroma policy named in the
//! paper's Table 3 is implemented with its real configuration knobs; the
//! admin-created custom policies of Figure 7 get faithful lightweight
//! implementations; the §7 strawman proposals are implemented in
//! [`strawman`] as fediscope extensions.

mod basic;
mod bots;
mod content;
mod custom;
mod media;
mod object_age;
mod simple;
pub mod strawman;
mod subchain;
mod tag;
mod threads;

pub use basic::{BlockPolicy, DropPolicy, NoOpPolicy, UserAllowListPolicy};
pub use bots::{AntiFollowbotPolicy, AntiLinkSpamPolicy, FollowBotPolicy, ForceBotUnlistedPolicy};
pub use content::{
    KeywordAction, KeywordPolicy, KeywordRule, NoEmptyPolicy, NoPlaceholderTextPolicy,
    NormalizeMarkupPolicy, RejectNonPublicPolicy, VocabularyPolicy,
};
pub use custom::{
    AmqpPolicy, AntispamSandboxPolicy, AutoRejectPolicy, BlockNotificationPolicy,
    BoardFilterPolicy, BonziEmojiReactionsPolicy, CdnWarmingPolicy, KanayaBlogProcessPolicy,
    LocalOnlyPolicy, NoIncomingDeletesPolicy, NotifyLocalUsersPolicy, RacismRemoverPolicy,
    RejectCloudflarePolicy, RewritePolicy, SandboxPolicy, SogigiMindWarmingPolicy,
};
pub use media::{
    ActivityExpirationPolicy, HashtagPolicy, MediaProxyWarmingPolicy, StealEmojiPolicy,
};
pub use object_age::{ObjectAgeAction, ObjectAgePolicy};
pub use simple::{SharedTargets, SimpleAction, SimplePolicy};
pub use strawman::{
    CuratedBlocklist, CuratedListPolicy, EscalationAction, HarmClassifier, RepeatOffenderPolicy,
    UserTagModerationPolicy,
};
pub use subchain::{SubchainMatch, SubchainPolicy};
pub use tag::TagPolicy;
pub use threads::{AntiHellthreadPolicy, EnsureRePrependedPolicy, HellthreadPolicy, MentionPolicy};
