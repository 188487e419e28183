//! The dataset a measurement campaign produces.

use fediscope_core::config::InstanceModerationConfig;
use fediscope_core::id::Domain;
use fediscope_core::mrf::policies::SimpleAction;
use fediscope_core::time::SimTime;
use serde::de::IgnoredAny;
use serde::{Deserialize, Serialize};

/// How the attempt to crawl one domain ended.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrawlOutcome {
    /// Full crawl succeeded.
    Crawled,
    /// The instance answered with an error status (the §3 taxonomy).
    Failed {
        /// HTTP status code received.
        status: u16,
    },
    /// DNS / connection failure — the domain never answered.
    Unreachable,
    /// Classified as non-Pleroma; only nodeinfo recorded (the paper
    /// collected metadata/posts from Pleroma instances only).
    NonPleroma,
}

/// Parsed `/api/v1/instance` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InstanceMetadata {
    /// Reported registered users.
    pub user_count: u64,
    /// Reported stored posts.
    pub status_count: u64,
    /// Reported known peers.
    pub domain_count: u64,
    /// Version string.
    pub version: String,
    /// Whether registrations are open.
    pub registrations_open: bool,
    /// The exposed moderation configuration, if the instance publishes it
    /// (§4.1: 91.9% of Pleroma instances do).
    pub policies: Option<InstanceModerationConfig>,
}

/// One periodic metadata snapshot (the paper polled every 4 hours).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetadataSnapshot {
    /// When the snapshot was taken.
    pub at: SimTime,
    /// Users at that time.
    pub user_count: u64,
    /// Posts at that time.
    pub status_count: u64,
}

/// One post collected from a public timeline.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CollectedPost {
    /// Post id (instance-local ordering token).
    pub id: u64,
    /// Author's numeric id.
    pub author_id: u64,
    /// Author's home domain.
    pub author_domain: Domain,
    /// Creation time.
    pub created: SimTime,
    /// Body text.
    pub content: String,
    /// Sensitive flag.
    pub sensitive: bool,
    /// Visibility string as served.
    pub visibility: String,
    /// Number of media attachments.
    pub media_count: usize,
    /// Hashtags.
    pub hashtags: Vec<String>,
    /// Number of mentions.
    pub mentions: usize,
}

/// A Mastodon `Status` as the crawler reads it off a timeline page:
/// only the fields the dataset keeps. Every field is optional, so a
/// status missing one still decodes and is then skipped by
/// [`CollectedPost::from_status`] instead of failing its whole page.
#[derive(Deserialize)]
pub struct PageStatus {
    /// Post id, as a decimal string.
    pub id: Option<String>,
    /// Creation time.
    pub created_at: Option<u64>,
    /// Body text.
    pub content: Option<String>,
    /// Sensitive flag.
    pub sensitive: Option<bool>,
    /// Visibility string.
    pub visibility: Option<String>,
    /// The author.
    pub account: Option<PageAccount>,
    /// Media attachments (only counted).
    pub media_attachments: Option<Vec<IgnoredAny>>,
    /// Mentions (only counted).
    pub mentions: Option<Vec<IgnoredAny>>,
    /// Hashtags.
    pub tags: Option<Vec<PageTag>>,
}

/// The author of a [`PageStatus`].
#[derive(Deserialize)]
pub struct PageAccount {
    /// Numeric user id, as a decimal string.
    pub id: Option<String>,
    /// `user@domain`.
    pub acct: Option<String>,
}

/// A hashtag of a [`PageStatus`].
#[derive(Deserialize)]
pub struct PageTag {
    /// The tag, without `#`.
    pub name: Option<String>,
}

impl CollectedPost {
    /// The post a timeline status records, or `None` if a field the
    /// dataset needs is missing or malformed.
    pub fn from_status(status: PageStatus) -> Option<CollectedPost> {
        let id = status.id?.parse().ok()?;
        let account = status.account?;
        let acct = account.acct?;
        let (author_id, author_domain) = match acct.split_once('@') {
            Some((id, domain)) => (id.parse().ok()?, Domain::new(domain)),
            None => (account.id?.parse().ok()?, Domain::new("")),
        };
        Some(CollectedPost {
            id,
            author_id,
            author_domain,
            created: SimTime(status.created_at?),
            content: status.content?,
            sensitive: status.sensitive?,
            visibility: status.visibility?,
            media_count: status.media_attachments.map_or(0, |m| m.len()),
            hashtags: status
                .tags
                .unwrap_or_default()
                .into_iter()
                .filter_map(|t| t.name)
                .collect(),
            mentions: status.mentions.map_or(0, |m| m.len()),
        })
    }
}

/// How the timeline collection for one instance went.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum TimelineCrawl {
    /// Not attempted (instance failed earlier, or non-Pleroma).
    NotAttempted,
    /// The public timeline required authorisation (§3: 38.7%).
    Forbidden,
    /// Readable but empty (§3: 119 instances had no posts).
    Empty,
    /// Posts collected.
    Posts(Vec<CollectedPost>),
}

impl TimelineCrawl {
    /// Collected posts, if any.
    pub fn posts(&self) -> &[CollectedPost] {
        match self {
            TimelineCrawl::Posts(p) => p,
            _ => &[],
        }
    }

    /// Whether posts were retrievable.
    pub fn has_posts(&self) -> bool {
        !self.posts().is_empty()
    }
}

/// Everything learned about one domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawledInstance {
    /// The domain.
    pub domain: Domain,
    /// Outcome class.
    pub outcome: CrawlOutcome,
    /// Software name from nodeinfo (`pleroma`, `mastodon`, ...).
    pub software: Option<String>,
    /// Whether the domain was on the seed directory (the paper's Pleroma
    /// list, which includes instances that later failed).
    pub from_directory: bool,
    /// Parsed metadata (Pleroma instances that answered).
    pub metadata: Option<InstanceMetadata>,
    /// Peers list (Pleroma instances that answered).
    pub peers: Vec<Domain>,
    /// Timeline collection result.
    pub timeline: TimelineCrawl,
    /// Periodic metadata snapshots.
    pub snapshots: Vec<MetadataSnapshot>,
}

impl CrawledInstance {
    /// Whether this is a Pleroma instance (directory membership or
    /// nodeinfo classification).
    pub fn is_pleroma(&self) -> bool {
        self.software.as_deref() == Some("pleroma")
            || (self.software.is_none() && self.from_directory)
    }

    /// Whether a full crawl succeeded.
    pub fn crawled(&self) -> bool {
        self.outcome == CrawlOutcome::Crawled
    }

    /// The exposed moderation config, if any.
    pub fn policies(&self) -> Option<&InstanceModerationConfig> {
        self.metadata.as_ref().and_then(|m| m.policies.as_ref())
    }

    /// Reported user count (0 when unknown).
    pub fn user_count(&self) -> u64 {
        self.metadata.as_ref().map(|m| m.user_count).unwrap_or(0)
    }

    /// Reported post count (0 when unknown).
    pub fn status_count(&self) -> u64 {
        self.metadata.as_ref().map(|m| m.status_count).unwrap_or(0)
    }
}

/// The full dataset of one campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    /// When the campaign started.
    pub started: SimTime,
    /// When it finished.
    pub finished: SimTime,
    /// Every domain attempted, in discovery order.
    pub instances: Vec<CrawledInstance>,
}

impl Dataset {
    /// Pleroma instances successfully crawled.
    pub fn pleroma_crawled(&self) -> impl Iterator<Item = &CrawledInstance> {
        self.instances
            .iter()
            .filter(|i| i.is_pleroma() && i.crawled())
    }

    /// Pleroma instances (crawled or failed).
    pub fn pleroma_all(&self) -> impl Iterator<Item = &CrawledInstance> {
        self.instances.iter().filter(|i| i.is_pleroma())
    }

    /// Non-Pleroma instances discovered.
    pub fn non_pleroma(&self) -> impl Iterator<Item = &CrawledInstance> {
        self.instances.iter().filter(|i| !i.is_pleroma())
    }

    /// Finds an instance by domain.
    pub fn by_domain(&self, domain: &str) -> Option<&CrawledInstance> {
        self.instances.iter().find(|i| i.domain.as_str() == domain)
    }

    /// Total users reported by crawled Pleroma instances.
    pub fn total_users(&self) -> u64 {
        self.pleroma_crawled().map(|i| i.user_count()).sum()
    }

    /// Total posts reported by crawled Pleroma instances.
    pub fn total_posts(&self) -> u64 {
        self.pleroma_crawled().map(|i| i.status_count()).sum()
    }

    /// Total posts actually collected from timelines.
    pub fn collected_posts(&self) -> u64 {
        self.pleroma_crawled()
            .map(|i| i.timeline.posts().len() as u64)
            .sum()
    }

    /// Every `(instance, action, target)` moderation event in the exposed
    /// SimplePolicy configs.
    pub fn moderation_events(
        &self,
    ) -> impl Iterator<Item = (&CrawledInstance, SimpleAction, &Domain)> {
        self.pleroma_crawled().flat_map(|i| {
            i.policies()
                .and_then(|p| p.simple.as_ref())
                .into_iter()
                .flat_map(move |s| s.events().map(move |(a, d)| (i, a, d)))
        })
    }

    /// Reject counts per target domain: how many crawled instances list
    /// each domain under `reject`.
    pub fn reject_counts(&self) -> std::collections::HashMap<&Domain, u32> {
        let mut counts = std::collections::HashMap::new();
        for (_, action, target) in self.moderation_events() {
            if action == SimpleAction::Reject {
                *counts.entry(target).or_insert(0) += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn status(json: &str) -> Option<CollectedPost> {
        CollectedPost::from_status(serde_json::from_str(json).unwrap())
    }

    #[test]
    fn collected_post_parses_status_json() {
        let p = status(
            r#"{
                "id": "42",
                "created_at": 1000,
                "content": "hello world",
                "visibility": "public",
                "sensitive": false,
                "account": {"id": "7", "acct": "7@poa.st", "url": "https://poa.st/users/7"},
                "media_attachments": [{"type": "image"}],
                "tags": [{"name": "nsfw"}],
                "mentions": [],
                "spoiler_text": ""
            }"#,
        )
        .unwrap();
        assert_eq!(p.id, 42);
        assert_eq!(p.author_id, 7);
        assert_eq!(p.author_domain.as_str(), "poa.st");
        assert_eq!(p.media_count, 1);
        assert_eq!(p.hashtags, vec!["nsfw"]);
        assert!(!p.sensitive);
    }

    #[test]
    fn malformed_status_json_is_none() {
        assert!(status(r#"{"id": "x"}"#).is_none());
        assert!(status("{}").is_none());
        // A page skips null statuses and keeps reading.
        let page: Vec<Option<PageStatus>> = serde_json::from_str("[null, {}]").unwrap();
        assert_eq!(page.len(), 2);
        assert!(page
            .into_iter()
            .flatten()
            .all(|s| CollectedPost::from_status(s).is_none()));
    }

    #[test]
    fn timeline_crawl_accessors() {
        assert!(!TimelineCrawl::NotAttempted.has_posts());
        assert!(!TimelineCrawl::Empty.has_posts());
        assert!(TimelineCrawl::Forbidden.posts().is_empty());
    }

    #[test]
    fn pleroma_classification_falls_back_to_directory() {
        let mk = |software: Option<&str>, from_directory| CrawledInstance {
            domain: Domain::new("x.example"),
            outcome: CrawlOutcome::Failed { status: 404 },
            software: software.map(str::to_string),
            from_directory,
            metadata: None,
            peers: Vec::new(),
            timeline: TimelineCrawl::NotAttempted,
            snapshots: Vec::new(),
        };
        assert!(mk(Some("pleroma"), false).is_pleroma());
        assert!(mk(None, true).is_pleroma(), "directory implies Pleroma");
        assert!(!mk(Some("mastodon"), false).is_pleroma());
        assert!(!mk(None, false).is_pleroma());
    }
}
