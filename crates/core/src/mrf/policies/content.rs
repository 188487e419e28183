//! Content-shape policies: `KeywordPolicy`, `VocabularyPolicy`,
//! `NormalizeMarkup`, `NoEmptyPolicy`, `NoPlaceholderTextPolicy`,
//! `RejectNonPublic`.

use crate::catalog::PolicyKind;
use crate::model::{ActivityKind, Post, Visibility};
use crate::mrf::context::PolicyContext;
use crate::mrf::verdict::RejectReason;
use crate::mrf::{Inbound, MrfPolicy};
use serde::{Deserialize, Serialize};

/// What a [`KeywordRule`] does when it matches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeywordAction {
    /// Reject the post.
    Reject,
    /// De-list it from the federated timeline (public → unlisted).
    FederatedTimelineRemoval,
    /// Replace every occurrence of the pattern with the given string.
    Replace(String),
}

/// A single pattern → action rule for [`KeywordPolicy`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KeywordRule {
    /// Case-insensitive substring to match in content or subject.
    pub pattern: String,
    /// What to do on a match.
    pub action: KeywordAction,
}

impl KeywordRule {
    /// Builds a rule.
    pub fn new(pattern: impl Into<String>, action: KeywordAction) -> Self {
        KeywordRule {
            pattern: pattern.into(),
            action,
        }
    }

    fn matches(&self, text: &str) -> bool {
        text.to_ascii_lowercase()
            .contains(&self.pattern.to_ascii_lowercase())
    }
}

/// `KeywordPolicy` — "A list of patterns which result in message being
/// reject/unlisted/replaced" (Table 3; 42 instances, 22,428 users).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KeywordPolicy {
    /// Rules applied in order; the first `Reject` match stops processing.
    pub rules: Vec<KeywordRule>,
}

impl KeywordPolicy {
    /// Builds a policy from rules.
    pub fn new(rules: Vec<KeywordRule>) -> Self {
        KeywordPolicy { rules }
    }
}

impl MrfPolicy for KeywordPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Keyword
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        for rule in &self.rules {
            let Some(post) = act.note() else {
                return Ok(());
            };
            let subject_hit = post
                .subject
                .as_deref()
                .map(|s| rule.matches(s))
                .unwrap_or(false);
            if !rule.matches(&post.content) && !subject_hit {
                continue;
            }
            match &rule.action {
                KeywordAction::Reject => {
                    return Err(RejectReason::new(
                        PolicyKind::Keyword,
                        "keyword",
                        format!("matched pattern {:?}", rule.pattern),
                    ));
                }
                KeywordAction::FederatedTimelineRemoval => {
                    if let Some(post) = act.note_mut_if(|p| p.visibility == Visibility::Public) {
                        post.visibility = Visibility::Unlisted;
                    }
                }
                KeywordAction::Replace(with) => {
                    if let Some(post) = act.note_mut_if(|_| true) {
                        post.content = replace_ci(&post.content, &rule.pattern, with).into();
                        if let Some(s) = &post.subject {
                            post.subject = Some(replace_ci(s, &rule.pattern, with));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Case-insensitive substring replacement.
fn replace_ci(haystack: &str, pattern: &str, with: &str) -> String {
    if pattern.is_empty() {
        return haystack.to_string();
    }
    let lower_h = haystack.to_ascii_lowercase();
    let lower_p = pattern.to_ascii_lowercase();
    let mut out = String::with_capacity(haystack.len());
    let mut i = 0;
    while let Some(pos) = lower_h[i..].find(&lower_p) {
        let at = i + pos;
        out.push_str(&haystack[i..at]);
        out.push_str(with);
        i = at + pattern.len();
    }
    out.push_str(&haystack[i..]);
    out
}

/// `VocabularyPolicy` — "Restricts activities to a configured set of
/// vocabulary" (Table 3; 5 instances). `accept` non-empty means only those
/// activity types pass; `reject` always drops its types.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct VocabularyPolicy {
    /// If non-empty, only these activity kinds are accepted.
    pub accept: Vec<ActivityKind>,
    /// These activity kinds are always rejected.
    pub reject: Vec<ActivityKind>,
}

impl MrfPolicy for VocabularyPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Vocabulary
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if self.reject.contains(&act.kind) {
            return Err(RejectReason::new(
                PolicyKind::Vocabulary,
                "vocabulary_rejected",
                format!("{} is on the reject vocabulary", act.kind.as_str()),
            ));
        }
        if !self.accept.is_empty() && !self.accept.contains(&act.kind) {
            return Err(RejectReason::new(
                PolicyKind::Vocabulary,
                "vocabulary_not_accepted",
                format!("{} is not on the accept vocabulary", act.kind.as_str()),
            ));
        }
        Ok(())
    }
}

/// `NormalizeMarkup` — scrubs HTML markup down to plain text (Figure 1).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NormalizeMarkupPolicy;

/// Removes `<...>` tag runs from `s`. Unterminated tags are dropped to the
/// end of the string, matching lenient HTML scrubbers.
fn strip_tags(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_tag = false;
    for c in s.chars() {
        match (in_tag, c) {
            (false, '<') => in_tag = true,
            (false, ch) => out.push(ch),
            (true, '>') => in_tag = false,
            (true, _) => {}
        }
    }
    out
}

impl MrfPolicy for NormalizeMarkupPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NormalizeMarkup
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note_mut_if(|p| p.content.contains('<')) {
            post.content = strip_tags(&post.content).into();
        }
        Ok(())
    }
}

/// `NoEmptyPolicy` — denies *local* users posting empty notes (no text, no
/// media).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NoEmptyPolicy;

impl MrfPolicy for NoEmptyPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoEmpty
    }

    fn filter(&self, ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if ctx.is_local(act.origin()) {
            if let Some(post) = act.note() {
                if post.content.trim().is_empty() && !post.has_media() {
                    return Err(RejectReason::new(
                        PolicyKind::NoEmpty,
                        "empty_post",
                        "local post with no text and no attachments",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// `NoPlaceholderTextPolicy` — strips placeholder bodies (`"."`) from posts
/// that carry media.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct NoPlaceholderTextPolicy;

impl MrfPolicy for NoPlaceholderTextPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::NoPlaceholderText
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        let placeholder = |p: &Post| {
            let trimmed = p.content.trim();
            p.has_media() && (trimmed == "." || trimmed == "..")
        };
        if let Some(post) = act.note_mut_if(placeholder) {
            post.content = "".into();
        }
        Ok(())
    }
}

/// `RejectNonPublic` — "Whether to allow followers-only/direct posts"
/// (Table 3; 3 instances).
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct RejectNonPublicPolicy {
    /// Allow followers-only posts through?
    pub allow_followers_only: bool,
    /// Allow direct messages through?
    pub allow_direct: bool,
}

impl MrfPolicy for RejectNonPublicPolicy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::RejectNonPublic
    }

    fn filter(&self, _ctx: &PolicyContext<'_>, act: &mut Inbound<'_>) -> Result<(), RejectReason> {
        if let Some(post) = act.note() {
            let verboten = match post.visibility {
                Visibility::FollowersOnly => !self.allow_followers_only,
                Visibility::Direct => !self.allow_direct,
                Visibility::Public | Visibility::Unlisted => false,
            };
            if verboten {
                return Err(RejectReason::new(
                    PolicyKind::RejectNonPublic,
                    "non_public",
                    format!("{:?} posts are not allowed", post.visibility),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ActivityId, Domain, PostId, UserId, UserRef};
    use crate::model::{Activity, MediaAttachment, MediaKind};
    use crate::mrf::context::NullActorDirectory;
    use crate::mrf::{filter_owned, PolicyVerdict};
    use crate::time::SimTime;

    fn note(content: &str, domain: &str) -> Activity {
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
    fn keyword_reject() {
        let p = KeywordPolicy::new(vec![KeywordRule::new("forbidden", KeywordAction::Reject)]);
        assert!(!run(&p, note("this is FORBIDDEN text", "a.example")).is_pass());
        assert!(run(&p, note("this is fine", "a.example")).is_pass());
    }

    #[test]
    fn keyword_matches_subject_too() {
        let p = KeywordPolicy::new(vec![KeywordRule::new("spoiler", KeywordAction::Reject)]);
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "clean body");
        post.subject = Some("SPOILER alert".into());
        assert!(!run(&p, Activity::create(ActivityId(1), post)).is_pass());
    }

    #[test]
    fn keyword_delist() {
        let p = KeywordPolicy::new(vec![KeywordRule::new(
            "drama",
            KeywordAction::FederatedTimelineRemoval,
        )]);
        let v = run(&p, note("fediverse drama again", "a.example"));
        assert_eq!(
            v.expect_pass().note().unwrap().visibility,
            Visibility::Unlisted
        );
    }

    #[test]
    fn keyword_replace_case_insensitive() {
        let p = KeywordPolicy::new(vec![KeywordRule::new(
            "Elixir",
            KeywordAction::Replace("Rust".into()),
        )]);
        let v = run(&p, note("elixir is great, ELIXIR forever", "a.example"));
        assert_eq!(
            &*v.expect_pass().note().unwrap().content,
            "Rust is great, Rust forever"
        );
    }

    #[test]
    fn replace_ci_edge_cases() {
        assert_eq!(
            replace_ci("abc", "", "x"),
            "abc",
            "empty pattern is a no-op"
        );
        assert_eq!(replace_ci("aaa", "a", "b"), "bbb");
        assert_eq!(replace_ci("xyz", "q", "r"), "xyz");
    }

    #[test]
    fn vocabulary_accept_list() {
        let p = VocabularyPolicy {
            accept: vec![ActivityKind::Create],
            reject: vec![],
        };
        assert!(run(&p, note("x", "a.example")).is_pass());
        let follow = Activity::follow(
            ActivityId(2),
            UserRef::new(UserId(1), Domain::new("a.example")),
            UserRef::new(UserId(2), Domain::new("home.example")),
            SimTime(0),
        );
        assert_eq!(
            run(&p, follow).expect_reject().code,
            "vocabulary_not_accepted"
        );
    }

    #[test]
    fn vocabulary_reject_list_wins() {
        let p = VocabularyPolicy {
            accept: vec![ActivityKind::Create],
            reject: vec![ActivityKind::Create],
        };
        assert_eq!(
            run(&p, note("x", "a.example")).expect_reject().code,
            "vocabulary_rejected"
        );
    }

    #[test]
    fn normalize_markup_strips_tags() {
        let v = run(
            &NormalizeMarkupPolicy,
            note("<p>hello <b>world</b></p>", "a.example"),
        );
        assert_eq!(&*v.expect_pass().note().unwrap().content, "hello world");
    }

    #[test]
    fn normalize_markup_is_idempotent() {
        let once = strip_tags("<p>hi</p>");
        assert_eq!(strip_tags(&once), once);
    }

    #[test]
    fn no_empty_rejects_local_empty_posts_only() {
        // Local empty: rejected.
        assert!(!run(&NoEmptyPolicy, note("   ", "home.example")).is_pass());
        // Remote empty: passes (policy governs local users).
        assert!(run(&NoEmptyPolicy, note("", "remote.example")).is_pass());
        // Local with media: passes.
        let author = UserRef::new(UserId(1), Domain::new("home.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "");
        post.media.push(MediaAttachment {
            host: Domain::new("home.example"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        assert!(run(&NoEmptyPolicy, Activity::create(ActivityId(1), post)).is_pass());
    }

    #[test]
    fn placeholder_text_stripped_when_media_present() {
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), " . ");
        post.media.push(MediaAttachment {
            host: Domain::new("a.example"),
            kind: MediaKind::Image,
            sensitive: false,
        });
        let v = run(
            &NoPlaceholderTextPolicy,
            Activity::create(ActivityId(1), post),
        );
        assert_eq!(&*v.expect_pass().note().unwrap().content, "");
        // Without media the dot is kept.
        let v = run(&NoPlaceholderTextPolicy, note(".", "a.example"));
        assert_eq!(&*v.expect_pass().note().unwrap().content, ".");
    }

    #[test]
    fn reject_non_public_blocks_private_scopes() {
        let p = RejectNonPublicPolicy::default();
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        for (vis, expect_pass) in [
            (Visibility::Public, true),
            (Visibility::Unlisted, true),
            (Visibility::FollowersOnly, false),
            (Visibility::Direct, false),
        ] {
            let mut post = Post::stub(PostId(1), author.clone(), SimTime(0), "x");
            post.visibility = vis;
            let v = run(&p, Activity::create(ActivityId(1), post));
            assert_eq!(v.is_pass(), expect_pass, "visibility {vis:?}");
        }
    }

    #[test]
    fn reject_non_public_configurable() {
        let p = RejectNonPublicPolicy {
            allow_followers_only: true,
            allow_direct: false,
        };
        let author = UserRef::new(UserId(1), Domain::new("a.example"));
        let mut post = Post::stub(PostId(1), author, SimTime(0), "x");
        post.visibility = Visibility::FollowersOnly;
        assert!(run(&p, Activity::create(ActivityId(1), post)).is_pass());
    }
}
