//! Error type shared across the workspace.

use std::fmt;

/// Convenient result alias used by every fallible PVFS API.
pub type PvfsResult<T> = Result<T, PvfsError>;

/// Errors surfaced by the PVFS reproduction.
///
/// The enum is deliberately flat so that server-side failures can travel
/// back over the wire protocol unchanged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PvfsError {
    /// A request or argument violated an API precondition (mismatched
    /// list lengths, zero stripe size, overlapping write regions, ...).
    InvalidArgument(String),
    /// Path lookup failed at the manager.
    NoSuchFile(String),
    /// A file with this path already exists (create without overwrite).
    AlreadyExists(String),
    /// A client used a handle the server does not know about (stale or
    /// never opened).
    BadHandle(u64),
    /// The wire protocol was violated: short frame, bad magic, unknown
    /// opcode, trailing-data length mismatch, oversized list request.
    Protocol(String),
    /// The underlying (simulated or real) storage failed.
    Storage(String),
    /// The transport to a server failed (disconnected, poisoned).
    Transport(String),
    /// A request was addressed to a server that does not exist.
    NoSuchServer(u32),
    /// An RPC did not complete within the client's deadline (wedged or
    /// overloaded server). The request may still execute server-side;
    /// replay is nevertheless safe — reads have no side effects and
    /// writes are idempotent per region — which is exactly the contract
    /// [`PvfsError::is_retryable`] encodes and the chaos suites
    /// (`PVFS_FAULTS`) verify with byte-exact data checks.
    Timeout(String),
    /// A peer announced a wire frame larger than the transport's hard
    /// cap. The frame is rejected *before* any allocation: a malformed
    /// or malicious length prefix must not become an OOM.
    FrameTooLarge {
        /// Announced frame length.
        len: u64,
        /// The transport's maximum frame length.
        max: u64,
    },
    /// A configuration knob (environment variable, config string) was
    /// malformed: junk digits, a zero where a positive value is
    /// required, an overflowing size. Surfaced as a typed error so
    /// library callers can report it instead of aborting the process.
    Config(String),
    /// The client's circuit breaker for this server is open: recent
    /// RPCs failed consecutively, so the request was rejected *before*
    /// transmission instead of hammering a daemon that is provably
    /// down. `retry_after_ms` is how long until the breaker admits a
    /// half-open probe. Not retryable — the whole point is to fail
    /// fast; callers that want to wait should do so above the RPC
    /// layer.
    Unavailable {
        /// The I/O server whose breaker is open.
        server: u32,
        /// Milliseconds until the breaker will admit a probe.
        retry_after_ms: u64,
    },
    /// The server shed this request because its bounded queue was full
    /// (load shedding instead of backpressure-by-blocking). Retryable
    /// with backoff, and — uniquely among retryable errors — the shed
    /// provably happened *before* execution, so even non-idempotent
    /// requests may be replayed after it.
    Overloaded {
        /// The I/O server that shed the request.
        server: u32,
        /// The server's queue depth at the moment it shed.
        queue_depth: u64,
    },
}

impl fmt::Display for PvfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PvfsError::InvalidArgument(m) => write!(f, "invalid argument: {m}"),
            PvfsError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            PvfsError::AlreadyExists(p) => write!(f, "file already exists: {p}"),
            PvfsError::BadHandle(h) => write!(f, "bad file handle: {h:#x}"),
            PvfsError::Protocol(m) => write!(f, "protocol error: {m}"),
            PvfsError::Storage(m) => write!(f, "storage error: {m}"),
            PvfsError::Transport(m) => write!(f, "transport error: {m}"),
            PvfsError::NoSuchServer(s) => write!(f, "no such I/O server: {s}"),
            PvfsError::Timeout(m) => write!(f, "rpc timed out: {m}"),
            PvfsError::FrameTooLarge { len, max } => {
                write!(f, "wire frame of {len} bytes exceeds the {max}-byte cap")
            }
            PvfsError::Config(m) => write!(f, "bad configuration: {m}"),
            PvfsError::Unavailable {
                server,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "server {server} unavailable (circuit open, retry after {retry_after_ms}ms)"
                )
            }
            PvfsError::Overloaded {
                server,
                queue_depth,
            } => {
                write!(
                    f,
                    "server {server} overloaded (shed at queue depth {queue_depth})"
                )
            }
        }
    }
}

impl std::error::Error for PvfsError {}

impl PvfsError {
    /// Shorthand for [`PvfsError::InvalidArgument`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        PvfsError::InvalidArgument(msg.into())
    }

    /// Shorthand for [`PvfsError::Protocol`].
    pub fn protocol(msg: impl Into<String>) -> Self {
        PvfsError::Protocol(msg.into())
    }

    /// Shorthand for [`PvfsError::Timeout`].
    pub fn timeout(msg: impl Into<String>) -> Self {
        PvfsError::Timeout(msg.into())
    }

    /// Shorthand for [`PvfsError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        PvfsError::Config(msg.into())
    }

    /// Whether retrying the failed RPC can plausibly succeed.
    ///
    /// Retryable errors are the *transient* ones — the transport died,
    /// the deadline elapsed, or a frame was mangled in flight:
    ///
    /// * [`PvfsError::Transport`] — connection reset, peer gone,
    ///   dropped reply; a fresh connection may work.
    /// * [`PvfsError::Timeout`] — the server was wedged or overloaded;
    ///   it may answer the next attempt.
    /// * [`PvfsError::Protocol`] — a corrupt frame (either direction)
    ///   or an unattributable/mismatched response id; the next attempt
    ///   travels on clean frames with a fresh request id.
    /// * [`PvfsError::Overloaded`] — the server shed the request off a
    ///   full queue; after backoff the queue may have drained.
    ///
    /// Everything else is *deterministic*: the server looked at a
    /// well-formed request and said no ([`PvfsError::NoSuchFile`],
    /// [`PvfsError::AlreadyExists`], [`PvfsError::BadHandle`],
    /// [`PvfsError::InvalidArgument`], [`PvfsError::Storage`]), the
    /// request was unroutable ([`PvfsError::NoSuchServer`]), a frame
    /// exceeds the hard cap ([`PvfsError::FrameTooLarge`]), or local
    /// configuration was malformed before any request left the process
    /// ([`PvfsError::Config`]). Replaying those yields the same answer
    /// and only masks bugs. [`PvfsError::Unavailable`] is deliberately
    /// in the non-retryable camp even though the server might recover:
    /// the circuit breaker already *decided* to fail fast, and an RPC
    /// retry loop spinning against an open breaker would defeat it.
    ///
    /// Replaying a retryable data op is safe even though the original
    /// attempt *may* have executed server-side
    /// ([`PvfsError::is_definitely_not_executed`]): reads have no side
    /// effects, and writes are idempotent per region — re-applying the
    /// same bytes to the same region is a no-op. The chaos tests
    /// (`PVFS_FAULTS`) assert this with byte-exact verification.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            PvfsError::Transport(_)
                | PvfsError::Timeout(_)
                | PvfsError::Protocol(_)
                | PvfsError::Overloaded { .. }
        )
    }

    /// Whether the failed RPC *definitely did not* execute server-side.
    ///
    /// `true` means the failure proves non-execution: the request never
    /// found a server ([`PvfsError::NoSuchServer`]), or the server
    /// looked at it and refused without touching state (argument
    /// validation, namespace errors, storage refusal), or a frame cap
    /// rejected it before transmission ([`PvfsError::FrameTooLarge`]).
    ///
    /// `false` is the ambiguous zone a retry policy must assume the
    /// worst about: on [`PvfsError::Timeout`] and
    /// [`PvfsError::Transport`] the request may have been served with
    /// the reply lost, and on [`PvfsError::Protocol`] the *response*
    /// may have been the mangled half. Only idempotent operations may
    /// be replayed after these.
    ///
    /// [`PvfsError::Overloaded`] is the one error that is retryable
    /// *and* proves non-execution: the server shed the frame off a full
    /// queue before any worker decoded it, so even non-idempotent
    /// requests may be replayed after backoff.
    pub fn is_definitely_not_executed(&self) -> bool {
        !matches!(
            self,
            PvfsError::Transport(_) | PvfsError::Timeout(_) | PvfsError::Protocol(_)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_human_readable() {
        assert_eq!(
            PvfsError::invalid("lists differ").to_string(),
            "invalid argument: lists differ"
        );
        assert_eq!(
            PvfsError::NoSuchFile("/pvfs/a".into()).to_string(),
            "no such file: /pvfs/a"
        );
        assert_eq!(
            PvfsError::BadHandle(0xff).to_string(),
            "bad file handle: 0xff"
        );
        assert_eq!(
            PvfsError::NoSuchServer(9).to_string(),
            "no such I/O server: 9"
        );
        assert_eq!(
            PvfsError::Unavailable {
                server: 2,
                retry_after_ms: 250
            }
            .to_string(),
            "server 2 unavailable (circuit open, retry after 250ms)"
        );
        assert_eq!(
            PvfsError::Overloaded {
                server: 1,
                queue_depth: 64
            }
            .to_string(),
            "server 1 overloaded (shed at queue depth 64)"
        );
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(PvfsError::BadHandle(1), PvfsError::BadHandle(1));
        assert_ne!(PvfsError::BadHandle(1), PvfsError::BadHandle(2));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(PvfsError::protocol("bad magic"));
        assert!(e.to_string().contains("bad magic"));
    }

    /// Every variant, classified. Transient transport-ish failures are
    /// retryable and ambiguous about execution; deterministic refusals
    /// are neither.
    #[test]
    fn retry_classification_covers_every_variant() {
        let transient = [
            PvfsError::Transport("reset".into()),
            PvfsError::Timeout("wedged".into()),
            PvfsError::Protocol("corrupt frame".into()),
        ];
        for e in &transient {
            assert!(e.is_retryable(), "{e} must be retryable");
            assert!(
                !e.is_definitely_not_executed(),
                "{e} may have executed server-side"
            );
        }
        // Overloaded is retryable *and* proves non-execution: the shed
        // happened before any worker touched the request.
        let shed = PvfsError::Overloaded {
            server: 2,
            queue_depth: 64,
        };
        assert!(shed.is_retryable(), "{shed} must be retryable");
        assert!(
            shed.is_definitely_not_executed(),
            "{shed} happened before execution"
        );
        let deterministic = [
            PvfsError::invalid("zero stripe"),
            PvfsError::NoSuchFile("/pvfs/x".into()),
            PvfsError::AlreadyExists("/pvfs/x".into()),
            PvfsError::BadHandle(7),
            PvfsError::Storage("refused".into()),
            PvfsError::NoSuchServer(9),
            PvfsError::FrameTooLarge {
                len: 1 << 40,
                max: 1 << 20,
            },
            PvfsError::config("PVFS_AGGREGATORS: junk"),
            PvfsError::Unavailable {
                server: 3,
                retry_after_ms: 250,
            },
        ];
        for e in &deterministic {
            assert!(!e.is_retryable(), "{e} must not be retryable");
            assert!(e.is_definitely_not_executed(), "{e} proves non-execution");
        }
    }

    /// The two classifications partition the error space — an error is
    /// retryable exactly when it might have executed anyway — with one
    /// deliberate exception: [`PvfsError::Overloaded`] is retryable
    /// *and* proves non-execution (the server shed it before a worker
    /// ever decoded it), which is what makes replaying non-idempotent
    /// requests after a shed safe.
    #[test]
    fn retryable_iff_execution_is_ambiguous() {
        let all = [
            PvfsError::invalid("x"),
            PvfsError::NoSuchFile("x".into()),
            PvfsError::AlreadyExists("x".into()),
            PvfsError::BadHandle(1),
            PvfsError::protocol("x"),
            PvfsError::Storage("x".into()),
            PvfsError::Transport("x".into()),
            PvfsError::NoSuchServer(1),
            PvfsError::timeout("x"),
            PvfsError::FrameTooLarge { len: 2, max: 1 },
            PvfsError::config("x"),
            PvfsError::Unavailable {
                server: 1,
                retry_after_ms: 1,
            },
        ];
        for e in &all {
            assert_eq!(e.is_retryable(), !e.is_definitely_not_executed(), "{e}");
        }
        let shed = PvfsError::Overloaded {
            server: 1,
            queue_depth: 1,
        };
        assert!(shed.is_retryable() && shed.is_definitely_not_executed());
    }
}
