//! Posts ("Notes" in ActivityPub terms) and their attachments.

use crate::id::{Domain, PostId, UserRef};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Visibility scope of a post, mirroring Pleroma/Mastodon semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Visibility {
    /// Addressed to the public collection; appears on public timelines.
    Public,
    /// Public but de-listed: reachable by URL / followers, hidden from the
    /// public and federated timelines. MRF "delist" actions produce this.
    Unlisted,
    /// Only the author's followers receive it.
    FollowersOnly,
    /// A direct message to the mentioned users.
    Direct,
}

impl Visibility {
    /// Whether the post shows up on a public (local or federated) timeline.
    pub fn on_public_timelines(self) -> bool {
        matches!(self, Visibility::Public)
    }

    /// Whether the post is public or unlisted (i.e. not private).
    pub fn is_public_ish(self) -> bool {
        matches!(self, Visibility::Public | Visibility::Unlisted)
    }
}

/// What kind of media an attachment is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MediaKind {
    /// A still image.
    Image,
    /// A video clip.
    Video,
    /// An audio file.
    Audio,
}

/// A media attachment on a post.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaAttachment {
    /// Domain the media is served from (usually the origin instance; the
    /// `MediaProxyWarmingPolicy` pre-fetches through the local proxy).
    pub host: Domain,
    /// Media type.
    pub kind: MediaKind,
    /// Whether the *author* marked the attachment sensitive.
    pub sensitive: bool,
}

/// A custom emoji used in a post (`StealEmojiPolicy` copies these).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CustomEmoji {
    /// Shortcode, e.g. `blobcat`.
    pub shortcode: String,
    /// Host serving the emoji image.
    pub host: Domain,
}

/// A post: the unit of content the paper collected 24.5 M of.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Post {
    /// Globally-unique id, monotone in creation order per instance.
    pub id: PostId,
    /// Author reference.
    pub author: UserRef,
    /// When the post was created on its origin instance.
    pub created: SimTime,
    /// Body text (plain text after markup normalisation), behind a shared
    /// allocation: the same body is carried by the generated world, the
    /// scenario seed templates, and every experiment arm's pre-built
    /// activities, so cloning a post must never copy the text. MRF
    /// rewrites (`content_replace`, tag stripping) copy-on-write by
    /// assigning a fresh value.
    pub content: std::sync::Arc<str>,
    /// Optional subject / content-warning line ("summary" in AP terms).
    pub subject: Option<String>,
    /// Visibility scope.
    pub visibility: Visibility,
    /// Users mentioned in the post.
    pub mentions: Vec<UserRef>,
    /// Hashtags (lowercase, without `#`).
    pub hashtags: Vec<String>,
    /// Media attachments.
    pub media: Vec<MediaAttachment>,
    /// Custom emoji used.
    pub emojis: Vec<CustomEmoji>,
    /// Whether the body contains hyperlinks (input to `AntiLinkSpamPolicy`).
    pub has_links: bool,
    /// Whether this is a reply, and to which post.
    pub in_reply_to: Option<PostId>,
    /// Whether the post as a whole is marked sensitive (NSFW).
    pub sensitive: bool,
    /// Expiry time, if an `ActivityExpirationPolicy` stamped one.
    pub expires_at: Option<SimTime>,
    /// Whether the author's followers collection was stripped from the
    /// recipient list (the `ObjectAgePolicy` *strip followers* action);
    /// the delivery layer then skips follower fan-out.
    pub followers_stripped: bool,
}

impl Post {
    /// Age of the post at `now` (zero if `now` predates creation).
    pub fn age_at(&self, now: SimTime) -> crate::time::SimDuration {
        now.since(self.created)
    }

    /// Domain the post originates from.
    pub fn origin(&self) -> &Domain {
        &self.author.domain
    }

    /// True if the post carries any media.
    pub fn has_media(&self) -> bool {
        !self.media.is_empty()
    }

    /// Strips all media attachments (the `media_removal` action), leaving
    /// text intact — the paper's §7 notes this preserves the innocent
    /// textual content while dropping the harmful payload.
    pub fn strip_media(&mut self) {
        self.media.clear();
    }

    /// True if the post and every attachment are already sensitive
    /// ([`force_sensitive`](Self::force_sensitive) would change nothing).
    pub fn is_fully_sensitive(&self) -> bool {
        self.sensitive && self.media.iter().all(|m| m.sensitive)
    }

    /// Marks the post (and all attachments) sensitive (the `media_nsfw`
    /// action / `HashtagPolicy` outcome).
    pub fn force_sensitive(&mut self) {
        self.sensitive = true;
        for m in &mut self.media {
            m.sensitive = true;
        }
    }

    /// A minimal valid post for tests and examples.
    pub fn stub(
        id: PostId,
        author: UserRef,
        created: SimTime,
        content: impl Into<std::sync::Arc<str>>,
    ) -> Self {
        Post {
            id,
            author,
            created,
            content: content.into(),
            subject: None,
            visibility: Visibility::Public,
            mentions: Vec::new(),
            hashtags: Vec::new(),
            media: Vec::new(),
            emojis: Vec::new(),
            has_links: false,
            in_reply_to: None,
            sensitive: false,
            expires_at: None,
            followers_stripped: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::UserId;

    fn post() -> Post {
        let author = UserRef::new(UserId(1), Domain::new("example.social"));
        let mut p = Post::stub(PostId(10), author, SimTime(500), "hello fedi");
        p.media.push(MediaAttachment {
            host: Domain::new("example.social"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        p
    }

    #[test]
    fn visibility_semantics() {
        assert!(Visibility::Public.on_public_timelines());
        assert!(!Visibility::Unlisted.on_public_timelines());
        assert!(Visibility::Unlisted.is_public_ish());
        assert!(!Visibility::FollowersOnly.is_public_ish());
        assert!(!Visibility::Direct.is_public_ish());
    }

    #[test]
    fn strip_media_clears_attachments() {
        let mut p = post();
        assert!(p.has_media());
        p.strip_media();
        assert!(!p.has_media());
        assert_eq!(&*p.content, "hello fedi", "text must survive media removal");
    }

    #[test]
    fn force_sensitive_cascades_to_media() {
        let mut p = post();
        p.force_sensitive();
        assert!(p.sensitive);
        assert!(p.media.iter().all(|m| m.sensitive));
    }

    #[test]
    fn origin_is_author_domain() {
        let p = post();
        assert_eq!(p.origin().as_str(), "example.social");
    }

    #[test]
    fn age_saturates() {
        let p = post();
        assert_eq!(p.age_at(SimTime(100)).as_secs(), 0);
        assert_eq!(p.age_at(SimTime(86_900)).as_secs(), 86_400);
    }
}
