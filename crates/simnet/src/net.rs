//! The network fabric: registration, dispatch, failure injection, stats.

use crate::failure::{FailureClass, FailureMode};
use crate::http::{HttpRequest, HttpResponse, StatusCode};
use fediscope_core::id::Domain;
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A served HTTP endpoint. Handlers are synchronous and must be fast:
/// [`SimNet::request`] calls them inline on the requesting thread, and
/// requests to one endpoint from several threads may run concurrently.
pub trait Endpoint: Send + Sync + 'static {
    /// Handles one request.
    fn handle(&self, req: HttpRequest) -> HttpResponse;
}

/// Adapter turning a closure into an [`Endpoint`].
pub struct FnEndpoint<F>(pub F);

impl<F> Endpoint for FnEndpoint<F>
where
    F: Fn(HttpRequest) -> HttpResponse + Send + Sync + 'static,
{
    fn handle(&self, req: HttpRequest) -> HttpResponse {
        (self.0)(req)
    }
}

/// Why a request failed before producing an HTTP response.
///
/// Its retry class is always [`FailureClass::Permanent`]: a missing DNS
/// entry never resolves differently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// No endpoint registered under the domain (DNS failure).
    UnknownHost(Domain),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownHost(d) => write!(f, "unknown host: {d}"),
        }
    }
}

impl std::error::Error for NetError {}

/// The status codes the simulated fediverse ever answers with: the §3
/// failure taxonomy plus the success/client-error codes the API surface
/// produces. Fixed at compile time so the per-status counters stay
/// lock-free `AtomicU64`s on the request hot path (the crawler's workers
/// hammer it from every thread of the pool).
const TRACKED_STATUSES: [StatusCode; 8] = [
    StatusCode::OK,
    StatusCode::ACCEPTED,
    StatusCode::BAD_REQUEST,
    StatusCode::FORBIDDEN,
    StatusCode::NOT_FOUND,
    StatusCode::GONE,
    StatusCode::BAD_GATEWAY,
    StatusCode::SERVICE_UNAVAILABLE,
];

/// Aggregate request statistics.
#[derive(Debug, Default)]
pub struct NetStats {
    /// Total requests issued (including failed ones).
    pub requests: AtomicU64,
    /// Requests answered by a forced failure mode.
    pub injected_failures: AtomicU64,
    /// Requests that failed at the network level (unknown host etc.).
    pub net_errors: AtomicU64,
    /// Responses observed per tracked status code (injected failures and
    /// real endpoint answers alike), indexed like [`TRACKED_STATUSES`].
    /// Lets churn scenarios and the crawler error taxonomy assert the
    /// exact §3 404/403/502/503/410 mix.
    by_status: [AtomicU64; TRACKED_STATUSES.len()],
    /// Responses with a status outside [`TRACKED_STATUSES`].
    other_status: AtomicU64,
}

impl NetStats {
    /// Snapshot of the counters as plain numbers.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.injected_failures.load(Ordering::Relaxed),
            self.net_errors.load(Ordering::Relaxed),
        )
    }

    /// Records one response status.
    fn record_status(&self, status: StatusCode) {
        match TRACKED_STATUSES.iter().position(|&s| s == status) {
            Some(idx) => self.by_status[idx].fetch_add(1, Ordering::Relaxed),
            None => self.other_status.fetch_add(1, Ordering::Relaxed),
        };
    }

    /// Responses observed with exactly this status code (0 for codes
    /// outside the tracked set — see [`Self::status_other`]).
    pub fn status_count(&self, status: StatusCode) -> u64 {
        TRACKED_STATUSES
            .iter()
            .position(|&s| s == status)
            .map(|idx| self.by_status[idx].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Responses with a status outside the tracked set.
    pub fn status_other(&self) -> u64 {
        self.other_status.load(Ordering::Relaxed)
    }

    /// Nonzero per-status counters, keyed by numeric code, ascending.
    pub fn status_counts(&self) -> BTreeMap<u16, u64> {
        TRACKED_STATUSES
            .iter()
            .enumerate()
            .map(|(idx, s)| (s.0, self.by_status[idx].load(Ordering::Relaxed)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// A typed snapshot of the §3 error-taxonomy counters, indexable by
    /// [`FailureMode`] instead of positional tuple order.
    pub fn failure_taxonomy(&self) -> FailureTaxonomy {
        FailureTaxonomy {
            counts: [
                self.status_count(StatusCode::NOT_FOUND),
                self.status_count(StatusCode::FORBIDDEN),
                self.status_count(StatusCode::BAD_GATEWAY),
                self.status_count(StatusCode::SERVICE_UNAVAILABLE),
                self.status_count(StatusCode::GONE),
            ],
        }
    }
}

/// A point-in-time snapshot of the §3 error-taxonomy counters, indexed by
/// [`FailureMode`] rather than by positional status-code order (callers
/// used to decode a `(404, 403, 502, 503, 410)` tuple by memory).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FailureTaxonomy {
    /// Counts in the paper's reporting order (404, 403, 502, 503, 410),
    /// i.e. [`FailureTaxonomy::MODES`] order.
    counts: [u64; 5],
}

impl FailureTaxonomy {
    /// The failure modes this taxonomy tracks, in the paper's §3
    /// reporting order.
    pub const MODES: [FailureMode; 5] = [
        FailureMode::NotFound,
        FailureMode::Forbidden,
        FailureMode::BadGateway,
        FailureMode::Unavailable,
        FailureMode::Gone,
    ];

    /// Responses observed with this failure mode's status. Zero for
    /// [`FailureMode::Healthy`].
    pub fn count(&self, mode: FailureMode) -> u64 {
        Self::MODES
            .iter()
            .position(|&m| m == mode)
            .map(|idx| self.counts[idx])
            .unwrap_or(0)
    }

    /// The counts in the paper's reporting order `[404, 403, 502, 503, 410]`.
    pub fn as_array(&self) -> [u64; 5] {
        self.counts
    }

    /// All failures across the taxonomy.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Failures a retry could plausibly clear (502 + 503).
    pub fn transient(&self) -> u64 {
        self.by_class(FailureClass::Transient)
    }

    /// Failures no retry will ever clear (404 + 403 + 410).
    pub fn permanent(&self) -> u64 {
        self.by_class(FailureClass::Permanent)
    }

    /// Failures of a given retry class.
    pub fn by_class(&self, class: FailureClass) -> u64 {
        Self::MODES
            .iter()
            .zip(self.counts)
            .filter(|(m, _)| m.class() == Some(class))
            .map(|(_, n)| n)
            .sum()
    }
}

impl std::ops::Index<FailureMode> for FailureTaxonomy {
    type Output = u64;

    fn index(&self, mode: FailureMode) -> &u64 {
        match Self::MODES.iter().position(|&m| m == mode) {
            Some(idx) => &self.counts[idx],
            None => &0,
        }
    }
}

/// The simulated network. Cheap to clone via `Arc`.
pub struct SimNet {
    endpoints: RwLock<HashMap<Domain, Arc<dyn Endpoint>>>,
    failures: RwLock<HashMap<Domain, FailureMode>>,
    stats: NetStats,
}

impl Default for SimNet {
    fn default() -> Self {
        Self::new()
    }
}

impl SimNet {
    /// An empty network.
    pub fn new() -> Self {
        SimNet {
            endpoints: RwLock::new(HashMap::new()),
            failures: RwLock::new(HashMap::new()),
            stats: NetStats::default(),
        }
    }

    /// Registers `endpoint` under `domain`. Needs no runtime: requests
    /// call the endpoint in place. Re-registering a domain replaces the
    /// old endpoint.
    pub fn register(&self, domain: Domain, endpoint: Arc<dyn Endpoint>) {
        self.endpoints.write().insert(domain, endpoint);
    }

    /// Convenience: register a closure endpoint.
    pub fn register_fn<F>(&self, domain: Domain, f: F)
    where
        F: Fn(HttpRequest) -> HttpResponse + Send + Sync + 'static,
    {
        self.register(domain, Arc::new(FnEndpoint(f)));
    }

    /// Sets the failure mode for a domain.
    pub fn set_failure(&self, domain: Domain, mode: FailureMode) {
        self.failures.write().insert(domain, mode);
    }

    /// Current failure mode for a domain.
    pub fn failure_of(&self, domain: &Domain) -> FailureMode {
        self.failures
            .read()
            .get(domain)
            .copied()
            .unwrap_or(FailureMode::Healthy)
    }

    /// Whether a domain is registered.
    pub fn knows(&self, domain: &Domain) -> bool {
        self.endpoints.read().contains_key(domain)
    }

    /// Number of registered domains.
    pub fn host_count(&self) -> usize {
        self.endpoints.read().len()
    }

    /// Request statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Issues a request to `domain`, calling its endpoint on the
    /// caller's thread. A plain function: nothing suspends, and no
    /// runtime is needed.
    ///
    /// Failure-injected domains answer their forced status without ever
    /// reaching the endpoint — exactly how a dead or auth-walled instance
    /// presented itself to the paper's crawler.
    pub fn request(&self, domain: &Domain, req: HttpRequest) -> Result<HttpResponse, NetError> {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if let Some(status) = self.failure_of(domain).forced_status() {
            self.stats.injected_failures.fetch_add(1, Ordering::Relaxed);
            self.stats.record_status(status);
            return Ok(HttpResponse::status(status));
        }
        let endpoint = match self.endpoints.read().get(domain) {
            Some(endpoint) => Arc::clone(endpoint),
            None => {
                self.stats.net_errors.fetch_add(1, Ordering::Relaxed);
                return Err(NetError::UnknownHost(domain.clone()));
            }
        };
        let resp = endpoint.handle(req);
        self.stats.record_status(resp.status);
        Ok(resp)
    }

    /// GET convenience wrapper.
    pub fn get(&self, domain: &Domain, path_and_query: &str) -> Result<HttpResponse, NetError> {
        self.request(domain, HttpRequest::get(path_and_query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::StatusCode;
    use serde_json::json;

    fn hello_endpoint() -> Arc<dyn Endpoint> {
        Arc::new(FnEndpoint(|req: HttpRequest| {
            if req.path == "/hello" {
                HttpResponse::json(&json!({"msg": "hi"}))
            } else {
                HttpResponse::status(StatusCode::NOT_FOUND)
            }
        }))
    }

    #[test]
    fn round_trip_request() {
        let net = SimNet::new();
        let d = Domain::new("a.example");
        net.register(d.clone(), hello_endpoint());
        let resp = net.get(&d, "/hello").unwrap();
        assert!(resp.is_success());
        assert_eq!(resp.json_body().unwrap()["msg"], "hi");
        let resp = net.get(&d, "/nope").unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn unknown_host_errors() {
        let net = SimNet::new();
        let err = net
            .get(&Domain::new("ghost.example"), "/hello")
            .unwrap_err();
        assert!(matches!(err, NetError::UnknownHost(_)));
        let (reqs, _, net_errs) = net.stats().snapshot();
        assert_eq!((reqs, net_errs), (1, 1));
    }

    #[test]
    fn failure_injection_shields_endpoint() {
        let net = SimNet::new();
        let d = Domain::new("dead.example");
        net.register(d.clone(), hello_endpoint());
        net.set_failure(d.clone(), FailureMode::BadGateway);
        let resp = net.get(&d, "/hello").unwrap();
        assert_eq!(resp.status, StatusCode::BAD_GATEWAY);
        let (_, injected, _) = net.stats().snapshot();
        assert_eq!(injected, 1);
        // Healing the domain restores service.
        net.set_failure(d.clone(), FailureMode::Healthy);
        assert!(net.get(&d, "/hello").unwrap().is_success());
    }

    #[test]
    fn failure_injection_works_without_endpoint() {
        // A 404-injected domain doesn't need a registered endpoint at all —
        // exactly like the 110 dead instances of §3.
        let net = SimNet::new();
        let d = Domain::new("vanished.example");
        net.set_failure(d.clone(), FailureMode::NotFound);
        let resp = net.get(&d, "/api/v1/instance").unwrap();
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
    }

    #[test]
    fn concurrent_requests_are_all_answered() {
        let net = SimNet::new();
        let d = Domain::new("busy.example");
        net.register(d.clone(), hello_endpoint());
        // Eight callers released together, so their requests overlap.
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            let callers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        (0..8)
                            .map(|_| net.get(&d, "/hello").unwrap().status)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for caller in callers {
                let statuses = caller.join().unwrap();
                assert_eq!(statuses, vec![StatusCode::OK; 8]);
            }
        });
        assert_eq!(net.stats().snapshot().0, 64);
        assert_eq!(net.stats().status_count(StatusCode::OK), 64);
    }

    #[test]
    fn per_status_counters_track_the_failure_taxonomy() {
        // A miniature §3 mix: 3×404, 2×403, 1×502, 1×503, 1×410, plus two
        // healthy 200s and a healthy 404 from a real endpoint.
        let net = SimNet::new();
        let plan = [
            (FailureMode::NotFound, 3u64),
            (FailureMode::Forbidden, 2),
            (FailureMode::BadGateway, 1),
            (FailureMode::Unavailable, 1),
            (FailureMode::Gone, 1),
        ];
        for (k, (mode, hits)) in plan.iter().enumerate() {
            let d = Domain::new(format!("fail{k}.example"));
            net.set_failure(d.clone(), *mode);
            for _ in 0..*hits {
                let _ = net.get(&d, "/api/v1/instance");
            }
        }
        let live = Domain::new("live.example");
        net.register(live.clone(), hello_endpoint());
        assert!(net.get(&live, "/hello").unwrap().is_success());
        assert!(net.get(&live, "/hello").unwrap().is_success());
        assert_eq!(
            net.get(&live, "/nope").unwrap().status,
            StatusCode::NOT_FOUND
        );
        // Injected and endpoint-served statuses both land in the counters.
        let taxonomy = net.stats().failure_taxonomy();
        assert_eq!(taxonomy.as_array(), [4, 2, 1, 1, 1]);
        assert_eq!(taxonomy[FailureMode::NotFound], 4);
        assert_eq!(taxonomy.count(FailureMode::Forbidden), 2);
        assert_eq!(taxonomy.count(FailureMode::Healthy), 0);
        assert_eq!(taxonomy.transient(), 2);
        assert_eq!(taxonomy.permanent(), 7);
        assert_eq!(taxonomy.total(), 9);
        assert_eq!(net.stats().status_count(StatusCode::OK), 2);
        let counts = net.stats().status_counts();
        assert_eq!(counts.values().sum::<u64>(), net.stats().snapshot().0);
    }

    #[test]
    fn net_errors_record_no_status() {
        let net = SimNet::new();
        let _ = net.get(&Domain::new("ghost.example"), "/x");
        assert!(net.stats().status_counts().is_empty());
    }

    #[test]
    fn status_counters_never_double_count() {
        // Every request lands in exactly one bucket — tracked status,
        // other status, or net error — no matter how often the failure
        // mode is (re-)set. A bridge re-applying `set_failure` with the
        // same mode each tick must not inflate anything on its own:
        // counters move on *requests*, never on configuration.
        let net = SimNet::new();
        let d = Domain::new("flappy.example");
        net.register(d.clone(), hello_endpoint());
        for _ in 0..5 {
            net.set_failure(d.clone(), FailureMode::BadGateway);
        }
        assert_eq!(net.stats().snapshot().0, 0, "set_failure is not a request");
        assert_eq!(net.stats().status_counts().values().sum::<u64>(), 0);
        for _ in 0..3 {
            let _ = net.get(&d, "/hello");
        }
        net.set_failure(d.clone(), FailureMode::Healthy);
        net.set_failure(d.clone(), FailureMode::Healthy);
        for _ in 0..2 {
            let _ = net.get(&d, "/hello");
        }
        let _ = net.get(&Domain::new("ghost.example"), "/x");
        let (requests, injected, net_errors) = net.stats().snapshot();
        assert_eq!(requests, 6);
        assert_eq!(injected, 3);
        assert_eq!(net_errors, 1);
        assert_eq!(net.stats().status_count(StatusCode::BAD_GATEWAY), 3);
        assert_eq!(net.stats().status_count(StatusCode::OK), 2);
        // The accounting identity: every request is counted exactly once.
        let by_status: u64 = net.stats().status_counts().values().sum();
        assert_eq!(
            by_status + net.stats().status_other() + net_errors,
            requests
        );
    }

    #[test]
    fn host_registry_queries() {
        let net = SimNet::new();
        assert_eq!(net.host_count(), 0);
        let d = Domain::new("a.example");
        net.register(d.clone(), hello_endpoint());
        assert!(net.knows(&d));
        assert!(!net.knows(&Domain::new("b.example")));
        assert_eq!(net.host_count(), 1);
    }
}
