//! HTTP API surface: routing and the Mastodon-compatible JSON shapes.

use crate::server::InstanceServer;
use fediscope_activitypub::TimelineKind;
use fediscope_core::id::PostId;
use fediscope_core::model::{Activity, Post, Visibility};
use fediscope_simnet::{Endpoint, HttpRequest, HttpResponse, Method, StatusCode};
use serde::Serialize;
use serde_json::json;
use std::sync::Arc;

/// Default and maximum page size of the timeline API (Mastodon's limits).
pub const DEFAULT_PAGE: usize = 20;
/// Maximum page size.
pub const MAX_PAGE: usize = 40;

impl Endpoint for InstanceServer {
    fn handle(&self, req: HttpRequest) -> HttpResponse {
        match (req.method, req.path.as_str()) {
            (Method::Get, "/api/v1/instance") => self.instance_metadata(),
            (Method::Get, "/api/v1/instance/peers") => self.peers_payload(),
            (Method::Get, "/api/v1/timelines/public") => self.public_timeline(&req),
            (Method::Get, "/.well-known/nodeinfo") => self.nodeinfo_index(),
            (Method::Get, "/nodeinfo/2.0") => self.nodeinfo(),
            (Method::Post, "/inbox") => self.inbox_post(&req),
            _ => HttpResponse::status(StatusCode::NOT_FOUND),
        }
    }
}

impl InstanceServer {
    fn instance_metadata(&self) -> HttpResponse {
        let profile = self.profile();
        let version = match &profile.kind {
            fediscope_core::model::InstanceKind::Pleroma(v) => {
                format!("2.7.2 (compatible; Pleroma {v})")
            }
            fediscope_core::model::InstanceKind::Mastodon => "3.3.0".to_string(),
            fediscope_core::model::InstanceKind::Other(name) => format!("0.0.0 ({name})"),
        };
        let mut body = json!({
            "uri": profile.domain.as_str(),
            "title": profile.title,
            "version": version,
            "registrations": profile.registrations_open,
            "stats": {
                "user_count": self.user_count(),
                "status_count": self.post_count(),
                "domain_count": self.peers().len(),
            },
        });
        // §4.1: 91.9% of Pleroma instances expose policy information in
        // their metadata; the rest hide it.
        if profile.is_pleroma() && profile.exposes_policies {
            body["pleroma"] = json!({
                "metadata": {
                    "federation": self.moderation().to_metadata_json(),
                }
            });
        }
        HttpResponse::json(&body)
    }

    fn peers_payload(&self) -> HttpResponse {
        HttpResponse::json(&self.peers())
    }

    fn public_timeline(&self, req: &HttpRequest) -> HttpResponse {
        if !self.profile().public_timeline_open {
            // §3: "the public timeline of [38.7%] instances was not
            // reachable" — authorisation-gated.
            return HttpResponse::status(StatusCode::FORBIDDEN);
        }
        let local_only = req.param("local").map(|v| v == "true").unwrap_or(false);
        let kind = if local_only {
            TimelineKind::PublicLocal
        } else {
            TimelineKind::WholeKnownNetwork
        };
        let limit = req
            .param_u64("limit")
            .map(|l| (l as usize).min(MAX_PAGE))
            .unwrap_or(DEFAULT_PAGE);
        let max_id = req.param_u64("max_id").map(PostId);
        let statuses: Vec<Status> = self.with_timelines(|t| {
            t.page(kind, None, max_id, limit)
                .into_iter()
                .map(Status::of)
                .collect()
        });
        HttpResponse::json(&statuses)
    }

    fn nodeinfo_index(&self) -> HttpResponse {
        HttpResponse::json(&json!({
            "links": [{
                "rel": "http://nodeinfo.diaspora.software/ns/schema/2.0",
                "href": format!("https://{}/nodeinfo/2.0", self.domain()),
            }]
        }))
    }

    fn nodeinfo(&self) -> HttpResponse {
        let profile = self.profile();
        let (name, version) = match &profile.kind {
            fediscope_core::model::InstanceKind::Pleroma(v) => ("pleroma", v.to_string()),
            fediscope_core::model::InstanceKind::Mastodon => ("mastodon", "3.3.0".to_string()),
            fediscope_core::model::InstanceKind::Other(name) => (name.as_str(), "1.0.0".into()),
        };
        HttpResponse::json(&json!({
            "version": "2.0",
            "software": { "name": name, "version": version },
            "openRegistrations": profile.registrations_open,
            "usage": {
                "users": { "total": self.user_count() },
                "localPosts": self.post_count(),
            },
        }))
    }

    fn inbox_post(&self, req: &HttpRequest) -> HttpResponse {
        let Ok(activity) = serde_json::from_slice::<Activity>(&req.body) else {
            return HttpResponse::status(StatusCode::BAD_REQUEST);
        };
        let outcome = self.ingest_remote(activity);
        if outcome.accepted() {
            HttpResponse::status(StatusCode::ACCEPTED)
        } else {
            // Pleroma answers rejected deliveries with a 200-family status
            // too (MRF rejection is silent to the sender); we use 202 with
            // a body flag so tests can observe it without changing the
            // sender-visible semantics.
            let mut resp = HttpResponse::json(&json!({"rejected": true}));
            resp.status = StatusCode::ACCEPTED;
            resp
        }
    }
}

/// A post in the Mastodon `Status` JSON shape the crawler parses (the
/// subset of fields this reproduction serves).
#[derive(Debug, Clone, Serialize)]
pub struct Status {
    /// Post id, as a decimal string.
    pub id: String,
    /// Creation time, in simulated seconds.
    pub created_at: u64,
    /// Body text.
    pub content: Arc<str>,
    /// Content warning (empty when none).
    pub spoiler_text: String,
    /// `public`, `unlisted`, `private` or `direct`.
    pub visibility: &'static str,
    /// Sensitive flag.
    pub sensitive: bool,
    /// The author.
    pub account: Account,
    /// Attached media.
    pub media_attachments: Vec<Attachment>,
    /// Mentioned accounts.
    pub mentions: Vec<Mention>,
    /// Hashtags.
    pub tags: Vec<Tag>,
}

/// The author of a [`Status`].
#[derive(Debug, Clone, Serialize)]
pub struct Account {
    /// Numeric user id, as a decimal string.
    pub id: String,
    /// `user@domain`.
    pub acct: String,
    /// Profile URL.
    pub url: String,
}

/// A media attachment of a [`Status`].
#[derive(Debug, Clone, Serialize)]
pub struct Attachment {
    /// `image`, `video` or `audio`.
    pub r#type: &'static str,
    /// Where the media is served from.
    pub remote_url: String,
    /// Whether the author marked it sensitive.
    pub sensitive: bool,
}

/// A mentioned account of a [`Status`].
#[derive(Debug, Clone, Serialize)]
pub struct Mention {
    /// `user@domain`.
    pub acct: String,
}

/// A hashtag of a [`Status`].
#[derive(Debug, Clone, Serialize)]
pub struct Tag {
    /// The tag, without `#`.
    pub name: String,
}

impl Status {
    /// The status a timeline page serves for `post`.
    pub fn of(post: &Post) -> Status {
        Status {
            id: post.id.0.to_string(),
            created_at: post.created.as_secs(),
            content: Arc::clone(&post.content),
            spoiler_text: post.subject.clone().unwrap_or_default(),
            visibility: visibility_str(post.visibility),
            sensitive: post.sensitive,
            account: Account {
                id: post.author.user.0.to_string(),
                acct: format!("{}@{}", post.author.user.0, post.author.domain),
                url: format!(
                    "https://{}/users/{}",
                    post.author.domain, post.author.user.0
                ),
            },
            media_attachments: post
                .media
                .iter()
                .map(|m| Attachment {
                    r#type: media_str(m.kind),
                    remote_url: format!("https://{}/media", m.host),
                    sensitive: m.sensitive,
                })
                .collect(),
            mentions: post
                .mentions
                .iter()
                .map(|m| Mention {
                    acct: format!("{}@{}", m.user.0, m.domain),
                })
                .collect(),
            tags: post
                .hashtags
                .iter()
                .map(|h| Tag { name: h.clone() })
                .collect(),
        }
    }
}

fn visibility_str(v: Visibility) -> &'static str {
    match v {
        Visibility::Public => "public",
        Visibility::Unlisted => "unlisted",
        Visibility::FollowersOnly => "private",
        Visibility::Direct => "direct",
    }
}

fn media_str(kind: fediscope_core::model::MediaKind) -> &'static str {
    match kind {
        fediscope_core::model::MediaKind::Image => "image",
        fediscope_core::model::MediaKind::Video => "video",
        fediscope_core::model::MediaKind::Audio => "audio",
    }
}

/// Registers a server on the network under its own domain.
pub fn register_on(net: &fediscope_simnet::SimNet, server: Arc<InstanceServer>) {
    let domain = server.domain().clone();
    net.register(domain, server);
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::config::InstanceModerationConfig;
    use fediscope_core::id::{ActivityId, Domain, InstanceId, UserId, UserRef};
    use fediscope_core::model::{InstanceKind, InstanceProfile, SoftwareVersion, User};
    use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
    use fediscope_core::time::SimTime;

    fn pleroma_server(domain: &str) -> InstanceServer {
        let profile = InstanceProfile {
            id: InstanceId(1),
            domain: Domain::new(domain),
            kind: InstanceKind::Pleroma(SoftwareVersion::new(2, 2, 0)),
            title: "api test".into(),
            registrations_open: true,
            founded: SimTime(0),
            exposes_policies: true,
            public_timeline_open: true,
        };
        let mut config = InstanceModerationConfig::pleroma_default();
        config.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("gab.com")),
        );
        let s = InstanceServer::new(profile, config);
        s.add_user(User {
            id: UserId(1),
            instance: InstanceId(1),
            domain: Domain::new(domain),
            handle: "alice".into(),
            created: SimTime(0),
            bot: false,
            followers: 0,
            following: 0,
            mrf_tags: Vec::new(),
            report_count: 0,
        });
        s
    }

    fn publish_n(s: &InstanceServer, n: u64) {
        let author = UserRef::new(UserId(1), s.domain().clone());
        for i in 1..=n {
            s.publish(Post::stub(
                PostId(i),
                author.clone(),
                fediscope_core::time::CAMPAIGN_START,
                format!("post {i}"),
            ))
            .unwrap();
        }
    }

    #[test]
    fn instance_metadata_exposes_policies() {
        let s = pleroma_server("meta.example");
        publish_n(&s, 3);
        let resp = s.handle(HttpRequest::get("/api/v1/instance"));
        let body = resp.json_body().unwrap();
        assert_eq!(body["uri"], "meta.example");
        assert_eq!(body["stats"]["user_count"], 1);
        assert_eq!(body["stats"]["status_count"], 3);
        let federation = &body["pleroma"]["metadata"]["federation"];
        assert!(federation["mrf_policies"]
            .as_array()
            .unwrap()
            .iter()
            .any(|p| p == "SimplePolicy"));
        assert_eq!(federation["mrf_simple"]["reject"][0], "gab.com");
        assert!(body["version"].as_str().unwrap().contains("Pleroma 2.2.0"));
    }

    #[test]
    fn hidden_policies_are_absent() {
        let mut profile = pleroma_server("x.example").profile().clone();
        profile.exposes_policies = false;
        let s = InstanceServer::new(profile, InstanceModerationConfig::pleroma_default());
        let body = s
            .handle(HttpRequest::get("/api/v1/instance"))
            .json_body()
            .unwrap();
        assert!(body.get("pleroma").is_none(), "8.1% hide their config");
    }

    #[test]
    fn mastodon_metadata_never_exposes_policies() {
        let profile = InstanceProfile {
            id: InstanceId(2),
            domain: Domain::new("masto.example"),
            kind: InstanceKind::Mastodon,
            title: "mastodon".into(),
            registrations_open: true,
            founded: SimTime(0),
            exposes_policies: true, // even if set, Mastodon has no such API
            public_timeline_open: true,
        };
        let s = InstanceServer::new(profile, InstanceModerationConfig::default());
        let body = s
            .handle(HttpRequest::get("/api/v1/instance"))
            .json_body()
            .unwrap();
        assert!(body.get("pleroma").is_none());
        assert_eq!(body["version"], "3.3.0");
    }

    #[test]
    fn timeline_pagination_over_http() {
        let s = pleroma_server("tl.example");
        publish_n(&s, 50);
        let resp = s.handle(HttpRequest::get(
            "/api/v1/timelines/public?local=true&limit=40",
        ));
        let page1 = resp.json_body().unwrap();
        let page1 = page1.as_array().unwrap();
        assert_eq!(page1.len(), 40);
        assert_eq!(page1[0]["id"], "50", "newest first");
        let last_id = page1.last().unwrap()["id"].as_str().unwrap();
        assert_eq!(last_id, "11");
        let resp = s.handle(HttpRequest::get(&format!(
            "/api/v1/timelines/public?local=true&limit=40&max_id={last_id}"
        )));
        let page2 = resp.json_body().unwrap();
        assert_eq!(page2.as_array().unwrap().len(), 10);
    }

    #[test]
    fn limit_is_capped_at_40() {
        let s = pleroma_server("cap.example");
        publish_n(&s, 60);
        let resp = s.handle(HttpRequest::get(
            "/api/v1/timelines/public?local=true&limit=9999",
        ));
        assert_eq!(resp.json_body().unwrap().as_array().unwrap().len(), 40);
    }

    #[test]
    fn closed_timeline_returns_403() {
        let mut profile = pleroma_server("x.example").profile().clone();
        profile.public_timeline_open = false;
        let s = InstanceServer::new(profile, InstanceModerationConfig::pleroma_default());
        let resp = s.handle(HttpRequest::get("/api/v1/timelines/public?local=true"));
        assert_eq!(resp.status, StatusCode::FORBIDDEN);
        // Metadata still works: the paper could read policies of instances
        // whose timelines were closed.
        assert!(s.handle(HttpRequest::get("/api/v1/instance")).is_success());
    }

    #[test]
    fn nodeinfo_identifies_software() {
        let s = pleroma_server("ni.example");
        let idx = s
            .handle(HttpRequest::get("/.well-known/nodeinfo"))
            .json_body()
            .unwrap();
        assert!(idx["links"][0]["href"]
            .as_str()
            .unwrap()
            .contains("/nodeinfo/2.0"));
        let ni = s
            .handle(HttpRequest::get("/nodeinfo/2.0"))
            .json_body()
            .unwrap();
        assert_eq!(ni["software"]["name"], "pleroma");
        assert_eq!(ni["software"]["version"], "2.2.0");
    }

    #[test]
    fn peers_api_lists_federated_domains() {
        let s = pleroma_server("p.example");
        s.note_peer(&Domain::new("b.example"));
        s.note_peer(&Domain::new("a.example"));
        let peers = s
            .handle(HttpRequest::get("/api/v1/instance/peers"))
            .json_body()
            .unwrap();
        assert_eq!(peers, serde_json::json!(["a.example", "b.example"]));
    }

    #[test]
    fn inbox_accepts_and_rejects_via_mrf() {
        let s = pleroma_server("in.example");
        let ok_author = UserRef::new(UserId(7), Domain::new("friendly.example"));
        let ok = Activity::create(
            ActivityId(1),
            Post::stub(
                PostId(100),
                ok_author,
                fediscope_core::time::CAMPAIGN_START,
                "hi",
            ),
        );
        let resp = s.handle(HttpRequest::post_json("/inbox", &ok));
        assert_eq!(resp.status, StatusCode::ACCEPTED);
        assert_eq!(s.post_count(), 1);
        // gab.com is rejected by the SimplePolicy config.
        let bad_author = UserRef::new(UserId(8), Domain::new("gab.com"));
        let bad = Activity::create(
            ActivityId(2),
            Post::stub(
                PostId(101),
                bad_author,
                fediscope_core::time::CAMPAIGN_START,
                "hate",
            ),
        );
        let resp = s.handle(HttpRequest::post_json("/inbox", &bad));
        assert_eq!(resp.status, StatusCode::ACCEPTED, "rejection is silent");
        assert_eq!(resp.json_body().unwrap()["rejected"], true);
        assert_eq!(s.post_count(), 1);
    }

    #[test]
    fn malformed_inbox_body_is_bad_request() {
        let s = pleroma_server("bad.example");
        let mut req = HttpRequest::get("/inbox");
        req.method = Method::Post;
        req.body = bytes::Bytes::from_static(b"not json");
        assert_eq!(s.handle(req).status, StatusCode::BAD_REQUEST);
    }

    #[test]
    fn unknown_paths_404() {
        let s = pleroma_server("u.example");
        assert_eq!(
            s.handle(HttpRequest::get("/api/v2/whatever")).status,
            StatusCode::NOT_FOUND
        );
    }

    #[test]
    fn status_json_shape() {
        let author = UserRef::new(UserId(3), Domain::new("j.example"));
        let mut post = Post::stub(PostId(42), author, SimTime(1000), "body text");
        post.hashtags.push("nsfw".into());
        post.sensitive = true;
        post.media.push(fediscope_core::model::MediaAttachment {
            host: Domain::new("cdn.example"),
            kind: fediscope_core::model::MediaKind::Video,
            sensitive: false,
        });
        let v = serde_json::to_value(Status::of(&post)).unwrap();
        assert_eq!(v["id"], "42");
        assert_eq!(v["content"], "body text");
        assert_eq!(v["sensitive"], true);
        assert_eq!(v["visibility"], "public");
        assert_eq!(v["account"]["acct"], "3@j.example");
        assert_eq!(v["tags"][0]["name"], "nsfw");
        assert_eq!(v["media_attachments"][0]["type"], "video");
        assert_eq!(
            v["media_attachments"][0]["remote_url"],
            "https://cdn.example/media"
        );
    }
}
