//! Per-instance moderation configuration.
//!
//! A Pleroma instance's enabled policies and `SimplePolicy` target lists
//! are exposed through its public metadata API
//! (`/api/v1/instance` → `pleroma.metadata.federation`), which is exactly
//! what the paper crawled every four hours. [`InstanceModerationConfig`] is
//! that configuration: it can be rendered to the JSON shape the API serves
//! and parsed back by the crawler, and it can be compiled into a runnable
//! [`MrfPipeline`].

use crate::catalog::PolicyKind;
use crate::mrf::policies::{
    ActivityExpirationPolicy, AmqpPolicy, AntiFollowbotPolicy, AntiHellthreadPolicy,
    AntiLinkSpamPolicy, AntispamSandboxPolicy, AutoRejectPolicy, BlockNotificationPolicy,
    BlockPolicy, BoardFilterPolicy, BonziEmojiReactionsPolicy, CdnWarmingPolicy, CuratedListPolicy,
    DropPolicy, EnsureRePrependedPolicy, ForceBotUnlistedPolicy, HashtagPolicy, HellthreadPolicy,
    KanayaBlogProcessPolicy, KeywordPolicy, LocalOnlyPolicy, MediaProxyWarmingPolicy,
    MentionPolicy, NoEmptyPolicy, NoIncomingDeletesPolicy, NoOpPolicy, NoPlaceholderTextPolicy,
    NormalizeMarkupPolicy, NotifyLocalUsersPolicy, ObjectAgePolicy, RacismRemoverPolicy,
    RejectCloudflarePolicy, RejectNonPublicPolicy, RewritePolicy, SandboxPolicy, SimplePolicy,
    SogigiMindWarmingPolicy, StealEmojiPolicy, TagPolicy, UserAllowListPolicy, VocabularyPolicy,
};
use crate::mrf::{MrfPipeline, MrfPolicy};
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Extra configuration for policies that carry knobs beyond "enabled".
///
/// Policies not listed here are instantiated with their Pleroma defaults
/// when the pipeline is built.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PolicyConfig {
    /// `ObjectAgePolicy` knobs.
    ObjectAge(ObjectAgePolicy),
    /// `HellthreadPolicy` thresholds.
    Hellthread(HellthreadPolicy),
    /// `KeywordPolicy` rules.
    Keyword(KeywordPolicy),
    /// `HashtagPolicy` sensitive tags.
    Hashtag(HashtagPolicy),
    /// `ActivityExpirationPolicy` lifetime.
    ActivityExpiration(ActivityExpirationPolicy),
    /// `RejectNonPublic` switches.
    RejectNonPublic(RejectNonPublicPolicy),
}

impl PolicyConfig {
    /// The policy kind this config belongs to.
    pub fn kind(&self) -> PolicyKind {
        match self {
            PolicyConfig::ObjectAge(_) => PolicyKind::ObjectAge,
            PolicyConfig::Hellthread(_) => PolicyKind::Hellthread,
            PolicyConfig::Keyword(_) => PolicyKind::Keyword,
            PolicyConfig::Hashtag(_) => PolicyKind::Hashtag,
            PolicyConfig::ActivityExpiration(_) => PolicyKind::ActivityExpiration,
            PolicyConfig::RejectNonPublic(_) => PolicyKind::RejectNonPublic,
        }
    }
}

/// The moderation configuration of one instance.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct InstanceModerationConfig {
    /// Enabled policies, in pipeline order.
    pub enabled: Vec<PolicyKind>,
    /// `SimplePolicy` target lists (present iff `Simple` is enabled).
    pub simple: Option<SimplePolicy>,
    /// Knobs for configurable policies.
    pub configs: Vec<PolicyConfig>,
}

impl InstanceModerationConfig {
    /// A fresh Pleroma ≥ 2.1.0 install: `ObjectAgePolicy` and `NoOpPolicy`
    /// enabled by default (§4.1).
    pub fn pleroma_default() -> Self {
        InstanceModerationConfig {
            enabled: vec![PolicyKind::ObjectAge, PolicyKind::NoOp],
            simple: None,
            configs: Vec::new(),
        }
    }

    /// Enables a policy (idempotent).
    pub fn enable(&mut self, kind: PolicyKind) {
        if !self.enabled.contains(&kind) {
            self.enabled.push(kind);
        }
        if kind == PolicyKind::Simple && self.simple.is_none() {
            self.simple = Some(SimplePolicy::new());
        }
    }

    /// Builder-style [`enable`](Self::enable).
    pub fn with(mut self, kind: PolicyKind) -> Self {
        self.enable(kind);
        self
    }

    /// Sets the `SimplePolicy` configuration (enabling it if needed).
    pub fn set_simple(&mut self, simple: SimplePolicy) {
        self.enable(PolicyKind::Simple);
        self.simple = Some(simple);
    }

    /// Whether a policy is enabled.
    pub fn has(&self, kind: PolicyKind) -> bool {
        self.enabled.contains(&kind)
    }

    /// Renders the `pleroma.metadata.federation` JSON block served by
    /// `/api/v1/instance` — the crawler's raw material.
    pub fn to_metadata_json(&self) -> Value {
        let policies: Vec<&str> = self.enabled.iter().map(|k| k.name()).collect();
        let mut federation = json!({ "mrf_policies": policies });
        if let Some(simple) = &self.simple {
            let mut mrf_simple = serde_json::Map::new();
            for action in crate::mrf::policies::SimpleAction::ALL {
                let targets: Vec<String> = simple
                    .targets(action)
                    .iter()
                    .map(|d| d.to_string())
                    .collect();
                mrf_simple.insert(action.config_key().to_string(), json!(targets));
            }
            federation["mrf_simple"] = Value::Object(mrf_simple);
        }
        federation
    }

    /// Parses the federation metadata JSON back into a config — the inverse
    /// of [`to_metadata_json`](Self::to_metadata_json), used by the crawler.
    /// Unknown policy names are ignored (the paper likewise bucketed
    /// unparseable custom policies into "Others").
    pub fn from_metadata_json(value: &Value) -> Self {
        let mut config = InstanceModerationConfig::default();
        if let Some(names) = value.get("mrf_policies").and_then(Value::as_array) {
            for name in names.iter().filter_map(Value::as_str) {
                if let Some(entry) = crate::catalog::PolicyCatalog::global().by_name(name) {
                    config.enable(entry.kind);
                }
            }
        }
        if let Some(mrf_simple) = value.get("mrf_simple").and_then(Value::as_object) {
            let mut simple = SimplePolicy::new();
            for (key, targets) in mrf_simple {
                let Some(action) = crate::mrf::policies::SimpleAction::parse(key) else {
                    continue;
                };
                if let Some(list) = targets.as_array() {
                    for d in list.iter().filter_map(Value::as_str) {
                        simple.add_target(action, crate::id::Domain::new(d));
                    }
                }
            }
            config.set_simple(simple);
        }
        config
    }

    /// Compiles the configuration into a runnable pipeline. Policies with a
    /// [`PolicyConfig`] entry use it; everything else gets Pleroma
    /// defaults. Stateful custom policies are freshly instantiated.
    pub fn build_pipeline(&self) -> MrfPipeline {
        let mut pipeline = MrfPipeline::new();
        for &kind in &self.enabled {
            if let Some(policy) = self.instantiate(kind) {
                pipeline.push(policy);
            }
        }
        pipeline
    }

    /// The canonical structural encoding of the config: its serialized
    /// form, which covers every field that feeds
    /// [`build_pipeline`](Self::build_pipeline) (enabled kinds in
    /// pipeline order, `SimplePolicy` target lists, policy knobs).
    /// Structurally equal configs — and only those — encode identically,
    /// so the encoding is a collision-proof interning key.
    fn canonical_key(&self) -> String {
        serde_json::to_string(self).expect("a moderation config always serializes")
    }

    /// A structural digest of the config: equal for structurally equal
    /// configs, and (modulo 64-bit hash collisions) distinct otherwise.
    /// [`PipelinePool`] keys on the full canonical encoding — the digest
    /// is the cheap fingerprint for logs and diagnostics.
    pub fn structural_digest(&self) -> u64 {
        // FNV-1a over the canonical encoding.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.canonical_key().as_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    fn configured<T, F>(&self, pick: F) -> Option<T>
    where
        T: Clone,
        F: Fn(&PolicyConfig) -> Option<&T>,
    {
        self.configs.iter().find_map(|c| pick(c).cloned())
    }

    /// Compiles one enabled kind into its stage, with this config's knobs
    /// (`None` for kinds that need injected dependencies).
    pub(crate) fn instantiate(&self, kind: PolicyKind) -> Option<Arc<dyn MrfPolicy>> {
        Some(match kind {
            PolicyKind::ObjectAge => Arc::new(
                self.configured(|c| match c {
                    PolicyConfig::ObjectAge(p) => Some(p),
                    _ => None,
                })
                .unwrap_or_default(),
            ),
            PolicyKind::Tag => Arc::new(TagPolicy),
            PolicyKind::Simple => Arc::new(self.simple.clone().unwrap_or_default()),
            PolicyKind::NoOp => Arc::new(NoOpPolicy),
            PolicyKind::Hellthread => Arc::new(
                self.configured(|c| match c {
                    PolicyConfig::Hellthread(p) => Some(p),
                    _ => None,
                })
                .unwrap_or_default(),
            ),
            PolicyKind::StealEmoji => Arc::new(StealEmojiPolicy::default()),
            PolicyKind::Hashtag => Arc::new(
                self.configured(|c| match c {
                    PolicyConfig::Hashtag(p) => Some(p),
                    _ => None,
                })
                .unwrap_or_default(),
            ),
            PolicyKind::AntiFollowbot => Arc::new(AntiFollowbotPolicy),
            PolicyKind::MediaProxyWarming => Arc::new(MediaProxyWarmingPolicy),
            PolicyKind::Keyword => Arc::new(
                self.configured(|c| match c {
                    PolicyConfig::Keyword(p) => Some(p),
                    _ => None,
                })
                .unwrap_or_default(),
            ),
            PolicyKind::AntiLinkSpam => Arc::new(AntiLinkSpamPolicy),
            PolicyKind::ForceBotUnlisted => Arc::new(ForceBotUnlistedPolicy),
            PolicyKind::EnsureRePrepended => Arc::new(EnsureRePrependedPolicy),
            PolicyKind::ActivityExpiration => Arc::new(
                self.configured(|c| match c {
                    PolicyConfig::ActivityExpiration(p) => Some(p),
                    _ => None,
                })
                .unwrap_or_default(),
            ),
            // A bare Subchain without a body is the identity; instances
            // that really script subchains construct pipelines directly.
            PolicyKind::Subchain => Arc::new(NoOpPolicy),
            PolicyKind::Mention => Arc::new(MentionPolicy::default()),
            PolicyKind::Vocabulary => Arc::new(VocabularyPolicy::default()),
            PolicyKind::AntiHellthread => Arc::new(AntiHellthreadPolicy),
            PolicyKind::RejectNonPublic => Arc::new(
                self.configured(|c| match c {
                    PolicyConfig::RejectNonPublic(p) => Some(p),
                    _ => None,
                })
                .unwrap_or_default(),
            ),
            // FollowBot needs a bot account; without one it is inert.
            PolicyKind::FollowBot => Arc::new(NoOpPolicy),
            PolicyKind::Drop => Arc::new(DropPolicy),
            PolicyKind::NormalizeMarkup => Arc::new(NormalizeMarkupPolicy),
            PolicyKind::NoEmpty => Arc::new(NoEmptyPolicy),
            PolicyKind::NoPlaceholderText => Arc::new(NoPlaceholderTextPolicy),
            PolicyKind::UserAllowList => Arc::new(UserAllowListPolicy::default()),
            PolicyKind::Block => Arc::new(BlockPolicy::default()),
            PolicyKind::Amqp => Arc::new(AmqpPolicy::default()),
            PolicyKind::KanayaBlogProcess => Arc::new(KanayaBlogProcessPolicy {
                blog_domain: crate::id::Domain::new("blog.invalid"),
            }),
            PolicyKind::AntispamSandbox => Arc::new(AntispamSandboxPolicy),
            PolicyKind::SupSlashX => Arc::new(BoardFilterPolicy::new(kind, vec!["x".into()])),
            PolicyKind::SupSlashPol => Arc::new(BoardFilterPolicy::new(kind, vec!["pol".into()])),
            PolicyKind::SupSlashMlp => Arc::new(BoardFilterPolicy::new(kind, vec!["mlp".into()])),
            PolicyKind::SupSlashG => Arc::new(BoardFilterPolicy::new(kind, vec!["g".into()])),
            PolicyKind::SupSlashB => Arc::new(BoardFilterPolicy::new(kind, vec!["b".into()])),
            PolicyKind::BlockNotification => Arc::new(BlockNotificationPolicy),
            PolicyKind::NoIncomingDeletes => Arc::new(NoIncomingDeletesPolicy),
            PolicyKind::Rewrite => Arc::new(RewritePolicy::default()),
            PolicyKind::RejectCloudflare => Arc::new(RejectCloudflarePolicy::default()),
            PolicyKind::RacismRemover => Arc::new(RacismRemoverPolicy::default()),
            PolicyKind::CdnWarming => Arc::new(CdnWarmingPolicy),
            PolicyKind::NotifyLocalUsers => Arc::new(NotifyLocalUsersPolicy::default()),
            PolicyKind::BonziEmojiReactions => Arc::new(BonziEmojiReactionsPolicy),
            PolicyKind::SogigiMindWarming => Arc::new(SogigiMindWarmingPolicy),
            PolicyKind::AutoReject => Arc::new(AutoRejectPolicy::default()),
            PolicyKind::LocalOnly => Arc::new(LocalOnlyPolicy::default()),
            PolicyKind::SandboxCustom => Arc::new(SandboxPolicy::default()),
            PolicyKind::CuratedList => Arc::new(CuratedListPolicy::default()),
            // The remaining strawman policies need injected dependencies
            // (classifier); configs can't instantiate them standalone.
            PolicyKind::UserTagModeration | PolicyKind::RepeatOffender => return None,
        })
    }
}

/// A seed-time interning pool for compiled pipelines: configs that are
/// structurally identical share one `Arc<MrfPipeline>` instead of each
/// paying a fresh compile. In a paper-scale world the vast majority of
/// instances run one of a handful of configs (fresh-install defaults and
/// the common blocklist shapes), so interning turns ~10k compiles into a
/// few dozen. Callers that later mutate a shared pipeline diverge
/// copy-on-write via `Arc::make_mut`.
///
/// Keyed by the full canonical encoding (not the 64-bit digest), so a
/// hash collision can never alias two different configs to one pipeline.
#[derive(Debug, Default)]
pub struct PipelinePool {
    pool: HashMap<String, Arc<MrfPipeline>>,
    hits: u64,
    misses: u64,
}

impl PipelinePool {
    /// An empty pool.
    pub fn new() -> Self {
        PipelinePool::default()
    }

    /// The shared compiled pipeline for `config`: a refcount bump when a
    /// structurally equal config was seen before, a fresh
    /// [`build_pipeline`](InstanceModerationConfig::build_pipeline)
    /// otherwise.
    pub fn get(&mut self, config: &InstanceModerationConfig) -> Arc<MrfPipeline> {
        use std::collections::hash_map::Entry;
        match self.pool.entry(config.canonical_key()) {
            Entry::Occupied(e) => {
                self.hits += 1;
                Arc::clone(e.get())
            }
            Entry::Vacant(v) => {
                self.misses += 1;
                Arc::clone(v.insert(Arc::new(config.build_pipeline())))
            }
        }
    }

    /// Lookups served from the pool.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that compiled a fresh pipeline.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct configs interned so far.
    pub fn distinct(&self) -> usize {
        self.pool.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::Domain;
    use crate::mrf::policies::SimpleAction;

    #[test]
    fn pleroma_default_config() {
        let c = InstanceModerationConfig::pleroma_default();
        assert!(c.has(PolicyKind::ObjectAge));
        assert!(c.has(PolicyKind::NoOp));
        assert!(!c.has(PolicyKind::Simple));
        assert_eq!(c.build_pipeline().len(), 2);
    }

    #[test]
    fn enable_is_idempotent() {
        let mut c = InstanceModerationConfig::default();
        c.enable(PolicyKind::Tag);
        c.enable(PolicyKind::Tag);
        assert_eq!(c.enabled.len(), 1);
    }

    #[test]
    fn enabling_simple_creates_empty_targets() {
        let mut c = InstanceModerationConfig::default();
        c.enable(PolicyKind::Simple);
        assert!(c.simple.is_some());
    }

    #[test]
    fn metadata_json_round_trip() {
        let mut c = InstanceModerationConfig::pleroma_default();
        let simple = SimplePolicy::new()
            .with_target(SimpleAction::Reject, Domain::new("gab.com"))
            .with_target(SimpleAction::MediaRemoval, Domain::new("lewd.example"));
        c.set_simple(simple);
        let json = c.to_metadata_json();
        // Shape checks: what the paper's crawler actually read.
        assert!(json["mrf_policies"]
            .as_array()
            .unwrap()
            .iter()
            .any(|v| v == "SimplePolicy"));
        assert_eq!(json["mrf_simple"]["reject"][0], "gab.com");
        // Round trip.
        let back = InstanceModerationConfig::from_metadata_json(&json);
        assert!(back.has(PolicyKind::ObjectAge));
        assert!(back.has(PolicyKind::Simple));
        let simple = back.simple.unwrap();
        assert_eq!(simple.targets(SimpleAction::Reject)[0].as_str(), "gab.com");
        assert_eq!(
            simple.targets(SimpleAction::MediaRemoval)[0].as_str(),
            "lewd.example"
        );
    }

    #[test]
    fn unknown_policy_names_are_ignored() {
        let json = serde_json::json!({ "mrf_policies": ["TotallyMadeUpPolicy", "TagPolicy"] });
        let c = InstanceModerationConfig::from_metadata_json(&json);
        assert_eq!(c.enabled, vec![PolicyKind::Tag]);
    }

    #[test]
    fn pipeline_respects_custom_configs() {
        use crate::mrf::policies::ObjectAgePolicy;
        use crate::time::SimDuration;
        let mut c = InstanceModerationConfig::default();
        c.enable(PolicyKind::ObjectAge);
        c.configs
            .push(PolicyConfig::ObjectAge(ObjectAgePolicy::rejecting()));
        let pipe = c.build_pipeline();
        assert_eq!(pipe.len(), 1);
        // Old post should now be rejected (default config would delist).
        use crate::id::{ActivityId, PostId, UserId, UserRef};
        use crate::model::{Activity, Post};
        use crate::mrf::{NullActorDirectory, PolicyContext};
        use crate::time::SimTime;
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(SimDuration::days(30).as_secs()), &dir);
        let act = Activity::create(
            ActivityId(1),
            Post::stub(
                PostId(1),
                UserRef::new(UserId(1), Domain::new("r.example")),
                SimTime(0),
                "old",
            ),
        );
        assert!(!pipe.filter(&ctx, act).accepted());
    }

    #[test]
    fn every_observed_policy_is_instantiable() {
        for kind in PolicyKind::OBSERVED {
            let mut c = InstanceModerationConfig::default();
            c.enable(kind);
            let pipe = c.build_pipeline();
            assert_eq!(pipe.len(), 1, "{kind} must build");
        }
    }

    #[test]
    fn config_kind_mapping() {
        let cfg = PolicyConfig::Hellthread(HellthreadPolicy::default());
        assert_eq!(cfg.kind(), PolicyKind::Hellthread);
    }

    #[test]
    fn structural_digest_tracks_structure() {
        let a = InstanceModerationConfig::pleroma_default();
        assert_eq!(
            a.structural_digest(),
            InstanceModerationConfig::pleroma_default().structural_digest()
        );
        let with_tag = a.clone().with(PolicyKind::Tag);
        assert_ne!(a.structural_digest(), with_tag.structural_digest());
        // Same kinds, different SimplePolicy targets — must not collide
        // into one digest class.
        let mut gab = a.clone();
        gab.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("gab.com")),
        );
        let mut kiwi = a.clone();
        kiwi.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("kiwifarms.cc")),
        );
        assert_ne!(gab.structural_digest(), kiwi.structural_digest());
    }

    #[test]
    fn pipeline_pool_interns_structurally_equal_configs() {
        let mut pool = PipelinePool::new();
        let a = pool.get(&InstanceModerationConfig::pleroma_default());
        let b = pool.get(&InstanceModerationConfig::pleroma_default());
        assert!(Arc::ptr_eq(&a, &b), "equal configs share one pipeline");
        assert_eq!((pool.hits(), pool.misses(), pool.distinct()), (1, 1, 1));
        let mut other = InstanceModerationConfig::pleroma_default();
        other.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("gab.com")),
        );
        let c = pool.get(&other);
        assert!(!Arc::ptr_eq(&a, &c), "different configs must not alias");
        assert_eq!(c.len(), other.build_pipeline().len());
        assert_eq!((pool.hits(), pool.misses(), pool.distinct()), (1, 2, 2));
    }
}
