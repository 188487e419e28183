//! Federation glue: delivering published activities across the network.

use crate::server::InstanceServer;
use fediscope_activitypub::Mailman;
use fediscope_core::model::{Activity, Post};
use fediscope_simnet::{FailureClass, HttpRequest, NetError, SimNet};
use std::sync::Arc;

/// Per-class outcome of one delivery fan-out: how many inbox POSTs
/// succeeded, how many failed in a way a retry could clear (5xx), and
/// how many failed permanently (4xx, dead DNS).
///
/// Real Pleroma's federator publisher makes exactly this distinction —
/// transient failures go back on the retry queue, permanent ones are
/// dropped — so a bare failure count is not enough for any caller that
/// wants to model redelivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryReport {
    /// Targets that answered 2xx.
    pub ok: usize,
    /// Targets that failed transiently — a retry may succeed.
    pub transient: usize,
    /// Targets that failed permanently — a retry cannot succeed.
    pub permanent: usize,
}

impl DeliveryReport {
    /// All failed targets, regardless of class.
    pub fn failed(&self) -> usize {
        self.transient + self.permanent
    }

    /// All targets the fan-out attempted.
    pub fn attempted(&self) -> usize {
        self.ok + self.failed()
    }

    fn record(&mut self, class: Option<FailureClass>) {
        match class {
            None => self.ok += 1,
            Some(FailureClass::Transient) => self.transient += 1,
            Some(FailureClass::Permanent) => self.permanent += 1,
        }
    }
}

/// Delivers activities published on a server to the instances hosting the
/// author's followers, over the simulated network (a `POST /inbox` per
/// target, exactly like ActivityPub's server-to-server delivery).
pub struct Federator {
    net: Arc<SimNet>,
    server: Arc<InstanceServer>,
}

impl Federator {
    /// Builds a federator for one server.
    pub fn new(net: Arc<SimNet>, server: Arc<InstanceServer>) -> Self {
        Federator { net, server }
    }

    /// The wrapped server.
    pub fn server(&self) -> &Arc<InstanceServer> {
        &self.server
    }

    /// Publishes a local post and fans it out, returning the per-class
    /// [`DeliveryReport`]. Failures are classified, not retried here —
    /// redelivery policy belongs to the caller (the dynamics engine's
    /// reliability layer schedules backoff retries off the transient
    /// count; a bare caller may ignore it, as best-effort federation).
    pub fn publish_and_deliver(
        &self,
        post: Post,
    ) -> Result<(Activity, DeliveryReport), crate::server::PublishError> {
        let activity = self.server.publish(post)?;
        let report = self.deliver(&activity);
        Ok((activity, report))
    }

    /// Delivers an already-published activity; returns the per-class
    /// [`DeliveryReport`].
    ///
    /// The inbox POSTs go out one after another on the calling thread.
    /// Each target receives one POST per activity (the target set is a
    /// set), so per-target delivery order across successive `deliver`
    /// calls is the call order. A target's handler that panics unwinds
    /// into the caller; it is not counted as a failed delivery.
    pub fn deliver(&self, activity: &Activity) -> DeliveryReport {
        let targets = self
            .server
            .with_graph(|g| Mailman.delivery_targets(g, activity));
        // One POST per target leaves this fan-out, counted in one add.
        fediscope_telemetry::Telemetry::global().add(
            fediscope_telemetry::HotCounter::DeliveryPosts,
            targets.len() as u64,
        );
        // Serialize once; every target's request shares the buffer (a
        // `Bytes` clone is a refcount).
        let body = bytes::Bytes::from(serde_json::to_vec(activity).expect("activities serialize"));
        let mut report = DeliveryReport::default();
        for target in targets {
            let req = HttpRequest::post_bytes("/inbox", body.clone());
            report.record(match self.net.request(&target, req) {
                Ok(resp) => FailureClass::of_status(resp.status),
                Err(NetError::UnknownHost(_)) => Some(FailureClass::Permanent),
            });
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fediscope_core::config::InstanceModerationConfig;
    use fediscope_core::id::{Domain, InstanceId, PostId, UserId, UserRef};
    use fediscope_core::model::{InstanceKind, InstanceProfile, SoftwareVersion, User};
    use fediscope_core::mrf::policies::{SimpleAction, SimplePolicy};
    use fediscope_core::time::SimTime;
    use fediscope_simnet::FailureMode;

    fn server(domain: &str, id: u32, config: InstanceModerationConfig) -> Arc<InstanceServer> {
        let profile = InstanceProfile {
            id: InstanceId(id),
            domain: Domain::new(domain),
            kind: InstanceKind::Pleroma(SoftwareVersion::new(2, 2, 0)),
            title: domain.to_string(),
            registrations_open: true,
            founded: SimTime(0),
            exposes_policies: true,
            public_timeline_open: true,
        };
        let s = Arc::new(InstanceServer::new(profile, config));
        s.add_user(User {
            id: UserId(id as u64 * 1000),
            instance: InstanceId(id),
            domain: Domain::new(domain),
            handle: format!("root@{domain}"),
            created: SimTime(0),
            bot: false,
            followers: 0,
            following: 0,
            mrf_tags: Vec::new(),
            report_count: 0,
        });
        s
    }

    #[test]
    fn end_to_end_federation() {
        let net = Arc::new(SimNet::new());
        let home = server(
            "home.example",
            1,
            InstanceModerationConfig::pleroma_default(),
        );
        let friend = server(
            "friend.example",
            2,
            InstanceModerationConfig::pleroma_default(),
        );
        crate::api::register_on(&net, Arc::clone(&home));
        crate::api::register_on(&net, Arc::clone(&friend));

        // friend's user follows home's user (edge lives on home's graph —
        // home needs it for delivery fan-out).
        let author = UserRef::new(UserId(1000), Domain::new("home.example"));
        let fan = UserRef::new(UserId(2000), Domain::new("friend.example"));
        home.follow(fan, author.clone());

        let fed = Federator::new(Arc::clone(&net), Arc::clone(&home));
        let post = Post::stub(
            PostId(1),
            author,
            fediscope_core::time::CAMPAIGN_START,
            "federated hello",
        );
        let (_, report) = fed.publish_and_deliver(post).unwrap();
        assert_eq!((report.ok, report.failed()), (1, 0));
        // The post arrived on friend's whole-known-network timeline.
        assert_eq!(friend.post_count(), 1);
        friend.with_timelines(|t| {
            assert_eq!(
                t.timeline_len(fediscope_activitypub::TimelineKind::WholeKnownNetwork, None),
                1
            );
        });
    }

    #[test]
    fn rejecting_instance_silently_drops_delivery() {
        let net = Arc::new(SimNet::new());
        let home = server(
            "home.example",
            1,
            InstanceModerationConfig::pleroma_default(),
        );
        let mut config = InstanceModerationConfig::pleroma_default();
        config.set_simple(
            SimplePolicy::new().with_target(SimpleAction::Reject, Domain::new("home.example")),
        );
        let blocker = server("blocker.example", 2, config);
        crate::api::register_on(&net, Arc::clone(&home));
        crate::api::register_on(&net, Arc::clone(&blocker));

        let author = UserRef::new(UserId(1000), Domain::new("home.example"));
        let fan = UserRef::new(UserId(2000), Domain::new("blocker.example"));
        home.follow(fan, author.clone());

        let fed = Federator::new(Arc::clone(&net), Arc::clone(&home));
        let (_, report) = fed
            .publish_and_deliver(Post::stub(
                PostId(1),
                author,
                fediscope_core::time::CAMPAIGN_START,
                "you won't see this",
            ))
            .unwrap();
        // Delivery "succeeds" at the HTTP level (MRF rejection is silent)…
        assert_eq!((report.ok, report.failed()), (1, 0));
        // …but the content never lands: this is the reject collateral
        // damage mechanism — ALL home.example users are cut off.
        assert_eq!(blocker.post_count(), 0);
        assert_eq!(
            blocker
                .stats()
                .rejected
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn wide_fanout_counts_every_target_once() {
        // 60 followers across 40 live, 15 dead and 5 unknown domains:
        // every target is counted once, in its class.
        let net = Arc::new(SimNet::new());
        let home = server(
            "home.example",
            1,
            InstanceModerationConfig::pleroma_default(),
        );
        crate::api::register_on(&net, Arc::clone(&home));
        let author = UserRef::new(UserId(1000), Domain::new("home.example"));
        for k in 0..60u32 {
            let domain = match k {
                0..=39 => {
                    let d = format!("live{k}.example");
                    let peer = server(&d, 100 + k, InstanceModerationConfig::pleroma_default());
                    crate::api::register_on(&net, peer);
                    d
                }
                40..=54 => {
                    let d = format!("dead{k}.example");
                    net.set_failure(Domain::new(&d), FailureMode::BadGateway);
                    d
                }
                _ => format!("ghost{k}.example"),
            };
            let fan = UserRef::new(UserId(50_000 + k as u64), Domain::new(domain));
            home.follow(fan, author.clone());
        }
        let fed = Federator::new(Arc::clone(&net), Arc::clone(&home));
        let (_, report) = fed
            .publish_and_deliver(Post::stub(
                PostId(1),
                author,
                fediscope_core::time::CAMPAIGN_START,
                "wide fanout",
            ))
            .unwrap();
        // 40 delivered; the 15 BadGateway targets are retryable, the 5
        // unknown hosts are not.
        assert_eq!(report.ok, 40);
        assert_eq!(report.transient, 15);
        assert_eq!(report.permanent, 5);
        assert_eq!(report.failed(), 20);
        assert_eq!(report.attempted(), 60);
        // Exactly one POST per target reached the network.
        assert_eq!(net.stats().snapshot().0, 60);
    }

    #[test]
    fn dead_instances_fail_delivery() {
        let net = Arc::new(SimNet::new());
        let home = server(
            "home.example",
            1,
            InstanceModerationConfig::pleroma_default(),
        );
        crate::api::register_on(&net, Arc::clone(&home));
        net.set_failure(Domain::new("dead.example"), FailureMode::BadGateway);

        let author = UserRef::new(UserId(1000), Domain::new("home.example"));
        let fan = UserRef::new(UserId(9000), Domain::new("dead.example"));
        home.follow(fan, author.clone());

        let fed = Federator::new(Arc::clone(&net), Arc::clone(&home));
        let (_, report) = fed
            .publish_and_deliver(Post::stub(
                PostId(1),
                author,
                fediscope_core::time::CAMPAIGN_START,
                "into the void",
            ))
            .unwrap();
        assert_eq!((report.ok, report.failed()), (0, 1));
        assert_eq!(report.transient, 1, "a 502 peer may come back");
    }
}
