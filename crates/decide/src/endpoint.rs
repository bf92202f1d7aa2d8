//! A client endpoint as its pumps see it: the state every clone of a
//! client shares, and where an RPC is addressed.

use bytes::BytesMut;
use pvfs_proto::{encode_frame_into, request_head_len, Frame, Request};
use pvfs_replica::{ReplicaMap, ReplicaPolicy};
use pvfs_types::{
    ClientId, ClientLedger, ClientStats, PvfsResult, RequestId, ServerId, TraceContext,
};
use std::ops::DerefMut;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::health::{BreakerPolicy, HealthTracker};
use crate::retry::RetryPolicy;
use crate::spares::Spares;
use crate::WINDOW;

/// Default deadline for one RPC before the client reports
/// `PvfsError::Timeout`. Generous: the in-process servers answer in
/// microseconds unless wedged.
pub const DEFAULT_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Where an RPC is addressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcTarget {
    /// The manager daemon (metadata).
    Manager,
    /// An I/O daemon (data).
    Server(ServerId),
}

impl From<ServerId> for RpcTarget {
    fn from(server: ServerId) -> RpcTarget {
        RpcTarget::Server(server)
    }
}

/// `manager` / `iod3` — how diagnostics name the peer.
impl std::fmt::Display for RpcTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcTarget::Manager => write!(f, "manager"),
            RpcTarget::Server(s) => write!(f, "{s}"),
        }
    }
}

/// What a client's pumps read and book: its ids, deadline, retry
/// policy, books, daemons' health, replica placement and frame buffers.
/// A clone shares all but the deadline and the policy, which are values.
#[derive(Clone)]
pub struct Endpoint {
    id: ClientId,
    pub(crate) n_servers: u32,
    pub(crate) next_request: Arc<AtomicU64>,
    rpc_timeout: Duration,
    retry: RetryPolicy,
    pub(crate) stats: Arc<ClientLedger>,
    health: Arc<HealthTracker>,
    replica: Arc<ReplicaMap>,
    #[allow(clippy::disallowed_types)] // every clone of a client builds frames in them
    spares: Arc<std::sync::Mutex<FrameSpares>>,
}

/// No attempt allocates its frame: its head is encoded — from the
/// request as the pump holds it, borrowed — into one of `heads`, and a
/// write's payload was gathered into one of `payloads`
/// ([`Endpoint::payload_buffer`]), each kind bounded by [`WINDOW`] per
/// daemon. A head comes back when its flight lands and a payload when
/// its op resolves, each only as the last handle on it
/// ([`Spares::take_back`]), which it is once the daemon has answered
/// (see `serve_rpc`); a flight that timed out or was wedged does not.
pub(crate) struct FrameSpares {
    pub(crate) heads: Spares<BytesMut>,
    pub(crate) payloads: Spares<BytesMut>,
}

impl Endpoint {
    /// Client `id` of `n_servers` daemons, under the `PVFS_RETRY` and
    /// `PVFS_REPLICAS` policies and the default breaker and deadline.
    pub fn new(id: ClientId, n_servers: u32) -> Endpoint {
        // Malformed replication env panics like the other PVFS_*
        // variables: a typo'd run must not silently change placement.
        let policy = ReplicaPolicy::from_env(n_servers)
            .unwrap_or_else(|e| panic!("replica configuration rejected: {e}"));
        let window = WINDOW * n_servers.max(1) as usize;
        let spares = FrameSpares {
            heads: Spares::new(window),
            payloads: Spares::new(window),
        };
        Endpoint {
            id,
            n_servers,
            // Id 0 is reserved for unattributable responses.
            next_request: Arc::new(AtomicU64::new(1)),
            rpc_timeout: DEFAULT_RPC_TIMEOUT,
            retry: RetryPolicy::from_env(),
            stats: Arc::new(ClientLedger::default()),
            health: Arc::new(HealthTracker::new(n_servers, BreakerPolicy::default())),
            replica: Arc::new(ReplicaMap::new(n_servers, policy)),
            spares: Arc::new(spares.into()),
        }
    }

    /// This endpoint's client id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// This endpoint with a different per-RPC deadline.
    pub fn with_rpc_timeout(mut self, timeout: Duration) -> Endpoint {
        self.rpc_timeout = timeout;
        self
    }

    /// The per-RPC deadline currently in force.
    pub fn rpc_timeout(&self) -> Duration {
        self.rpc_timeout
    }

    /// This endpoint with a different retry policy
    /// ([`RetryPolicy::none`] turns retries off).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Endpoint {
        self.retry = retry;
        self
    }

    /// The retry policy currently in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// This endpoint with a fresh [`HealthTracker`] under a breaker
    /// policy other than the default ([`BreakerPolicy::off`] disables
    /// breakers). Existing clones keep the tracker they were built with;
    /// clones taken *after* this call share the new one.
    pub fn with_breaker_policy(mut self, policy: BreakerPolicy) -> Endpoint {
        self.health = Arc::new(HealthTracker::new(self.n_servers, policy));
        self
    }

    /// The per-daemon breakers and windows of this endpoint and all its
    /// clones.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// This endpoint with an explicit replication policy (tests and
    /// tools; the usual way in is `PVFS_REPLICAS`).
    pub fn with_replica_policy(mut self, policy: ReplicaPolicy) -> Endpoint {
        self.replica = Arc::new(ReplicaMap::new(self.n_servers, policy));
        self
    }

    /// The stripe replication placement map in force.
    pub fn replica_map(&self) -> &ReplicaMap {
        &self.replica
    }

    /// The books of this endpoint and all its clones.
    pub fn stats(&self) -> ClientStats {
        self.stats.snapshot()
    }

    /// A buffer to gather a write's `room`-byte payload into
    /// (`pvfs_core::exec::gather_payload_into`): one of this endpoint's
    /// spares when one is back, which it is once the op it last carried
    /// has resolved. The buffer comes as that op left it; the gather
    /// clears it.
    pub fn payload_buffer(&self, room: usize) -> BytesMut {
        self.frame_spares().payloads.buffer(room)
    }

    pub(crate) fn frame_spares(&self) -> impl DerefMut<Target = FrameSpares> + '_ {
        // Spares are valid at every step: a panic elsewhere while the
        // lock was held leaves nothing half-done.
        self.spares.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Encode one request, borrowed, under a fresh request id, its head
    /// into one of this endpoint's spares; `ctx` is stamped into a
    /// version-2 frame when the operation is traced. Untraced requests
    /// (`ctx == None`) encode byte-identical version-1 frames —
    /// `PVFS_TRACE=off` sends exactly the bytes an untraced build sends.
    /// A write whose payload is `lent` leaves it out of the frame (see
    /// [`encode_frame_into`]).
    pub fn encode(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
        lent: usize,
    ) -> PvfsResult<(RequestId, Frame)> {
        let id = RequestId(self.next_request.fetch_add(1, Ordering::Relaxed));
        let room = request_head_len(request, ctx);
        let head = self.frame_spares().heads.buffer(room);
        let frame = encode_frame_into(self.id, id, request, ctx, head, lent)?;
        Ok((id, frame))
    }
}
