//! Media- and metadata-oriented policies: `StealEmojiPolicy`,
//! `HashtagPolicy`, `MediaProxyWarmingPolicy`, `ActivityExpirationPolicy`.

use crate::catalog::PolicyKind;
use crate::id::Domain;
use crate::model::Post;
use crate::mrf::context::{PolicyContext, SideEffect};
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use crate::time::SimDuration;
use serde::{Deserialize, Serialize};

/// `StealEmojiPolicy` — "List of hosts to steal emojis from" (Table 3; 81
/// instances, 7,003 users). When a post from a whitelisted host uses a
/// custom emoji the local instance does not have, it is downloaded
/// ("stolen") and registered locally.
///
/// Emits an [`SideEffect::EmojiStolen`] for every eligible emoji on
/// every call. The policy keeps no memory: the consumer of the effects (a
/// server) registers each shortcode once, so a pipeline shared between
/// instances shares no stolen set.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StealEmojiPolicy {
    /// Hosts to steal from.
    pub hosts: Vec<Domain>,
    /// Shortcodes never to steal (Pleroma's `rejected_shortcodes`).
    pub rejected_shortcodes: Vec<String>,
}

impl StealEmojiPolicy {
    /// Builds the policy with a host whitelist.
    pub fn new(hosts: Vec<Domain>) -> Self {
        StealEmojiPolicy {
            hosts,
            rejected_shortcodes: Vec::new(),
        }
    }
}

impl MrfPolicy for StealEmojiPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::StealEmoji
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            let origin = act.origin();
            if self.hosts.iter().any(|h| origin.matches(h)) {
                for emoji in &post.emojis {
                    if self.rejected_shortcodes.contains(&emoji.shortcode) {
                        continue;
                    }
                    ctx.emit(SideEffect::EmojiStolen {
                        shortcode: emoji.shortcode.clone(),
                        host: emoji.host.clone(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// `HashtagPolicy` — "List of hashtags to mark activities as sensitive
/// (default: nsfw)" (Table 3; 62 instances, 10,933 users).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HashtagPolicy {
    /// Hashtags (lowercase, no `#`) that force the sensitive flag.
    pub sensitive_tags: Vec<String>,
}

impl Default for HashtagPolicy {
    fn default() -> Self {
        HashtagPolicy {
            sensitive_tags: vec!["nsfw".to_string()],
        }
    }
}

impl MrfPolicy for HashtagPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Hashtag
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let tagged = |p: &Post| {
            !p.is_fully_sensitive()
                && p.hashtags
                    .iter()
                    .any(|h| self.sensitive_tags.iter().any(|s| s == h))
        };
        if let Some(post) = act.note_mut_if(tagged) {
            post.force_sensitive();
        }
        Ok(())
    }
}

/// `MediaProxyWarmingPolicy` — "Crawls attachments using their MediaProxy
/// URLs so that the MediaProxy cache is primed" (Table 3; 46 instances).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct MediaProxyWarmingPolicy;

impl MrfPolicy for MediaProxyWarmingPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::MediaProxyWarming
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            for attachment in &post.media {
                ctx.emit(SideEffect::MediaPrefetched {
                    host: attachment.host.clone(),
                });
            }
        }
        Ok(())
    }
}

/// `ActivityExpirationPolicy` — "Sets a default expiration on all posts
/// made by users of the local instance" (Table 3; 11 instances).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActivityExpirationPolicy {
    /// Lifetime stamped on local posts (Pleroma default: 365 days).
    pub lifetime: SimDuration,
}

impl Default for ActivityExpirationPolicy {
    fn default() -> Self {
        ActivityExpirationPolicy {
            lifetime: SimDuration::days(365),
        }
    }
}

impl MrfPolicy for ActivityExpirationPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::ActivityExpiration
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if ctx.is_local(&act.actor.domain) {
            // Reads `created` after the write access, so a borrowed
            // template's receive-time stamp has been applied.
            if let Some(post) = act.note_mut_if(|p| p.expires_at.is_none()) {
                post.expires_at = Some(post.created + self.lifetime);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, PostId, UserId, UserRef};
    use crate::model::{Activity, CustomEmoji, MediaAttachment, MediaKind};
    use crate::mrf::context::NullActorDirectory;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    fn run_with_effects(p: &dyn MrfPolicy, act: Activity) -> (PolicyVerdict, Vec<SideEffect>) {
        let local = Domain::new("home.example");
        let dir = NullActorDirectory;
        let ctx = PolicyContext::new(&local, SimTime(0), &dir);
        let v = filter_owned(p, &ctx, act);
        (v, ctx.take_effects())
    }

    fn emoji_post(domain: &str, shortcodes: &[&str]) -> Activity {
        let author = UserRef::new(UserId(1), Domain::new(domain));
        let mut post = Post::stub(PostId(1), author, SimTime(0), ":blob:");
        for s in shortcodes {
            post.emojis.push(CustomEmoji {
                shortcode: s.to_string(),
                host: Domain::new(domain),
            });
        }
        Activity::create(ActivityId(1), post)
    }

    #[test]
    fn steal_emoji_emits_on_every_call() {
        let p = StealEmojiPolicy::new(vec![Domain::new("emoji.example")]);
        let (_, effects) =
            run_with_effects(&p, emoji_post("emoji.example", &["blobcat", "ablobcat"]));
        assert_eq!(effects.len(), 2);
        // The same emoji again: the policy reports it again; the
        // consumer decides whether it is already stolen.
        for _ in 0..2 {
            let (_, effects) = run_with_effects(&p, emoji_post("emoji.example", &["blobcat"]));
            assert!(
                matches!(&effects[..], [SideEffect::EmojiStolen { shortcode, .. }] if shortcode == "blobcat")
            );
        }
    }

    #[test]
    fn steal_emoji_ignores_unlisted_hosts() {
        let p = StealEmojiPolicy::new(vec![Domain::new("emoji.example")]);
        let (_, effects) = run_with_effects(&p, emoji_post("other.example", &["blobcat"]));
        assert!(effects.is_empty());
    }

    #[test]
    fn steal_emoji_respects_rejected_shortcodes() {
        let mut p = StealEmojiPolicy::new(vec![Domain::new("emoji.example")]);
        p.rejected_shortcodes.push("verified".into());
        let (_, effects) =
            run_with_effects(&p, emoji_post("emoji.example", &["verified", "blobcat"]));
        assert_eq!(effects.len(), 1);
    }

    #[test]
    fn hashtag_policy_marks_nsfw_tagged_posts() {
        let p = HashtagPolicy::default();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "look");
        post.hashtags.push("nsfw".into());
        let (v, _) = run_with_effects(&p, Activity::create(ActivityId(1), post));
        assert!(v.expect_pass().note().unwrap().sensitive);
    }

    #[test]
    fn hashtag_policy_ignores_other_tags() {
        let p = HashtagPolicy::default();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "look");
        post.hashtags.push("caturday".into());
        let (v, _) = run_with_effects(&p, Activity::create(ActivityId(1), post));
        assert!(!v.expect_pass().note().unwrap().sensitive);
    }

    #[test]
    fn media_proxy_warming_prefetches_every_attachment() {
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "pics");
        for host in ["cdn1.example", "cdn2.example"] {
            post.media.push(MediaAttachment {
                host: Domain::new(host),
                kind: MediaKind::Image,
                sensitive: false,
            });
        }
        let (v, effects) = run_with_effects(
            &MediaProxyWarmingPolicy,
            Activity::create(ActivityId(1), post),
        );
        assert!(v.is_pass());
        assert_eq!(effects.len(), 2);
    }

    #[test]
    fn expiration_stamps_local_posts_only() {
        let p = ActivityExpirationPolicy::default();
        // Local post gets an expiry.
        let author = UserRef::new(UserId(1), Domain::new("home.example"));
        let post = Post::stub(PostId(1), author, SimTime(1000), "ephemeral");
        let (v, _) = run_with_effects(&p, Activity::create(ActivityId(1), post));
        let expires = v.expect_pass().note().unwrap().expires_at;
        assert_eq!(expires, Some(SimTime(1000) + SimDuration::days(365)));
        // Remote post untouched.
        let author = UserRef::new(UserId(2), Domain::new("remote.example"));
        let post = Post::stub(PostId(2), author, SimTime(1000), "remote");
        let (v, _) = run_with_effects(&p, Activity::create(ActivityId(2), post));
        assert_eq!(v.expect_pass().note().unwrap().expires_at, None);
    }

    #[test]
    fn expiration_does_not_override_existing() {
        let p = ActivityExpirationPolicy::default();
        let author = UserRef::new(UserId(1), Domain::new("home.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "x");
        post.expires_at = Some(SimTime(42));
        let (v, _) = run_with_effects(&p, Activity::create(ActivityId(1), post));
        assert_eq!(
            v.expect_pass().note().unwrap().expires_at,
            Some(SimTime(42))
        );
    }
}
