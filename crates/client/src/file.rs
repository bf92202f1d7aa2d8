//! `PvfsFile`: the user-facing file handle.

use crate::executor::{execute_plan, ExecReport, UserBuf};
use pvfs_core::{IoKind, ListRequest, Method, MethodConfig};
use pvfs_net::{ClusterClient, RpcTarget};
use pvfs_proto::{Request, Response};
use pvfs_types::{FileHandle, PvfsError, PvfsResult, RegionList, StripeLayout};

/// Check that `layout` is valid and its servers `base..base + pcount`
/// are all daemons of `client`'s cluster — summed in `u64`, so that a
/// base near `u32::MAX` cannot wrap into range. A layout that passes
/// sizes every op's per-daemon report to at most the cluster.
fn fits(client: &ClusterClient, layout: &StripeLayout) -> PvfsResult<()> {
    layout.validate()?;
    let end = u64::from(layout.base) + u64::from(layout.pcount);
    if end > u64::from(client.n_servers()) {
        return Err(PvfsError::invalid(format!(
            "layout needs servers {}..{end} but the cluster has {}",
            layout.base,
            client.n_servers()
        )));
    }
    Ok(())
}

/// An open PVFS file.
///
/// Metadata operations talk to the manager; data operations compile to
/// access plans and run directly against the I/O daemons — the manager
/// is never on the data path, as in PVFS.
pub struct PvfsFile {
    client: ClusterClient,
    path: String,
    handle: FileHandle,
    layout: StripeLayout,
    config: MethodConfig,
}

impl PvfsFile {
    /// Create a new file with user-controlled striping (Fig. 2: base
    /// node, pcount, stripe size).
    pub fn create(
        client: &ClusterClient,
        path: &str,
        layout: StripeLayout,
    ) -> PvfsResult<PvfsFile> {
        fits(client, &layout)?;
        match client.call(
            RpcTarget::Manager,
            Request::Create {
                path: path.into(),
                layout,
            },
        )? {
            Response::Created { handle } => Ok(PvfsFile {
                client: client.clone(),
                path: path.into(),
                handle,
                layout,
                config: MethodConfig::paper_default(),
            }),
            other => Err(PvfsError::protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Open an existing file; the manager reports the handle and the
    /// striping parameters.
    pub fn open(client: &ClusterClient, path: &str) -> PvfsResult<PvfsFile> {
        match client.call(RpcTarget::Manager, Request::Open { path: path.into() })? {
            Response::Opened { handle, layout } => fits(client, &layout).map(|()| PvfsFile {
                client: client.clone(),
                path: path.into(),
                handle,
                layout,
                config: MethodConfig::paper_default(),
            }),
            other => Err(PvfsError::protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Close the handle at the manager.
    pub fn close(self) -> PvfsResult<()> {
        match self.client.call(
            RpcTarget::Manager,
            Request::Close {
                handle: self.handle,
            },
        )? {
            Response::Closed => Ok(()),
            other => Err(PvfsError::protocol(format!("unexpected {other:?}"))),
        }
    }

    /// List every path in the cluster namespace.
    pub fn list(client: &ClusterClient) -> PvfsResult<Vec<String>> {
        match client.call(RpcTarget::Manager, Request::ListDir)? {
            Response::Listing { paths } => Ok(paths),
            other => Err(PvfsError::protocol(format!("unexpected {other:?}"))),
        }
    }

    /// Remove a file from the namespace.
    pub fn remove(client: &ClusterClient, path: &str) -> PvfsResult<()> {
        match client.call(RpcTarget::Manager, Request::Remove { path: path.into() })? {
            Response::Removed => Ok(()),
            other => Err(PvfsError::protocol(format!("unexpected {other:?}"))),
        }
    }

    /// The file's path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file handle.
    pub fn handle(&self) -> FileHandle {
        self.handle
    }

    /// The striping parameters.
    pub fn layout(&self) -> StripeLayout {
        self.layout
    }

    /// The client endpoint this file's RPCs go through (its tracer,
    /// health tracker, and counters are this handle's diagnostics).
    pub fn client(&self) -> &ClusterClient {
        &self.client
    }

    /// Tune the noncontiguous method parameters (sieve buffer size,
    /// trailing-data limit, ...).
    pub fn set_method_config(&mut self, config: MethodConfig) {
        self.config = config;
    }

    /// Set the per-RPC deadline for this file's metadata and data calls.
    ///
    /// A file inherits the deadline of the client it was created or
    /// opened with (default [`pvfs_net::DEFAULT_RPC_TIMEOUT`]); this
    /// overrides it for subsequent operations on this handle only.
    pub fn set_rpc_timeout(&mut self, timeout: std::time::Duration) {
        self.client = self.client.clone().with_rpc_timeout(timeout);
    }

    /// The per-RPC deadline currently in force for this file.
    pub fn rpc_timeout(&self) -> std::time::Duration {
        self.client.rpc_timeout()
    }

    /// Set the retry policy for this file's RPCs — how many attempts,
    /// how much backoff, and how large a per-op time budget transient
    /// failures get before they surface. `RetryPolicy::none()` fails
    /// fast on the first error.
    pub fn set_retry_policy(&mut self, policy: pvfs_net::RetryPolicy) {
        self.client = self.client.clone().with_retry_policy(policy);
    }

    /// The retry policy currently in force for this file.
    pub fn retry_policy(&self) -> pvfs_net::RetryPolicy {
        self.client.retry_policy()
    }

    /// The logical file size, computed from the I/O daemons' local file
    /// sizes — the manager stays off the data path.
    ///
    /// With replication (`PVFS_REPLICAS` ≥ 2) every copy of each slot is
    /// consulted and the largest local size wins: a daemon that missed a
    /// quorum write or restarted empty under-reports, and any surviving
    /// copy is enough to answer — the call only fails when every copy of
    /// some slot is unreachable.
    pub fn size(&self) -> PvfsResult<u64> {
        let replica = self.client.replica_map().clone();
        let mut size = 0u64;
        for slot in 0..self.layout.pcount {
            let mut local = None;
            let mut last_err = None;
            for target in replica.copies(&self.layout, slot) {
                let request = Request::GetLocalSize {
                    handle: pvfs_replica::replica_handle(self.handle, target.copy),
                };
                match self.client.call(RpcTarget::Server(target.server), request) {
                    Ok(Response::LocalSize { size: s }) => {
                        local = Some(local.unwrap_or(0).max(s));
                    }
                    Ok(other) => return Err(PvfsError::protocol(format!("unexpected {other:?}"))),
                    Err(e) => last_err = Some(e),
                }
            }
            match local {
                Some(local) if local > 0 => {
                    size = size.max(self.layout.to_logical(slot, local - 1) + 1);
                }
                Some(_) => {}
                None => return Err(last_err.expect("no copies answered without an error")),
            }
        }
        Ok(size)
    }

    /// Force this file's bytes to stable storage on every I/O daemon in
    /// its layout.
    ///
    /// On file-backed daemons (`PVFS_STORAGE=file:<dir>`) each server
    /// fsyncs its local stripe file and checkpoints the write-ahead
    /// journal; the return value is the total number of bytes made
    /// durable by this call, summed across servers. Memory-backed
    /// daemons answer immediately with 0 — there is nothing to persist.
    /// With replication every copy of each slot is barriered; the call
    /// succeeds when at least the write quorum's worth of copies per
    /// slot acknowledged, so a single dead daemon does not block a
    /// majority-quorum sync (its copy is healed by `scrub` later).
    pub fn sync(&self) -> PvfsResult<u64> {
        let replica = self.client.replica_map().clone();
        let required = replica.policy().required();
        let mut durable = 0u64;
        for slot in 0..self.layout.pcount {
            let mut acked = 0u32;
            let mut last_err = None;
            for target in replica.copies(&self.layout, slot) {
                let request = Request::Sync {
                    handle: pvfs_replica::replica_handle(self.handle, target.copy),
                };
                match self.client.call(RpcTarget::Server(target.server), request) {
                    Ok(Response::Synced { durable: local }) => {
                        durable += local;
                        acked += 1;
                    }
                    Ok(other) => return Err(PvfsError::protocol(format!("unexpected {other:?}"))),
                    Err(e) => last_err = Some(e),
                }
            }
            if acked < required {
                return Err(last_err.expect("missed quorum without an error"));
            }
        }
        Ok(durable)
    }

    /// Anti-entropy pass over this file: fetch [`StripeDigest`]
    /// checksums from every copy of every stripe slot, compare them,
    /// and rewrite divergent spans (and truncate overlong tails) on
    /// stale copies from the freshest reachable copy. A no-op reporting
    /// all-clean when replication is off.
    ///
    /// [`StripeDigest`]: pvfs_proto::Request::StripeDigest
    pub fn scrub(&self) -> PvfsResult<pvfs_types::ScrubReport> {
        crate::scrub::scrub_file(&self.client, self.handle, &self.layout)
    }

    /// Contiguous write at `offset`.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> PvfsResult<ExecReport> {
        if data.is_empty() {
            return Ok(ExecReport::default());
        }
        let request = ListRequest::contiguous(0, offset, data.len() as u64);
        self.run(Method::Multiple, &request, UserBuf::Write(data))
    }

    /// Contiguous read at `offset` into `buf`.
    pub fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> PvfsResult<ExecReport> {
        if buf.is_empty() {
            return Ok(ExecReport::default());
        }
        let request = ListRequest::contiguous(0, offset, buf.len() as u64);
        self.run(Method::Multiple, &request, UserBuf::Read(buf))
    }

    /// Noncontiguous read — the paper's `pvfs_read_list`. `mem` regions
    /// index into `buf`; `file` regions are logical file offsets; the
    /// two must cover equal totals. The `mem` regions should not
    /// overlap: replies are scattered as they land, in no fixed order
    /// across daemons and rounds, so bytes of `buf` named twice end up
    /// with either of their file bytes.
    pub fn read_list(
        &mut self,
        mem: &RegionList,
        file: &RegionList,
        buf: &mut [u8],
        method: Method,
    ) -> PvfsResult<ExecReport> {
        // Unchecked here: planning is the request's one check.
        let (mem, file) = (mem.clone(), file.clone());
        let request = ListRequest { mem, file };
        self.run(method, &request, UserBuf::Read(buf))
    }

    /// Noncontiguous write — the paper's `pvfs_write_list`.
    pub fn write_list(
        &mut self,
        mem: &RegionList,
        file: &RegionList,
        buf: &[u8],
        method: Method,
    ) -> PvfsResult<ExecReport> {
        // Unchecked here: planning is the request's one check.
        let (mem, file) = (mem.clone(), file.clone());
        let request = ListRequest { mem, file };
        self.run(method, &request, UserBuf::Write(buf))
    }

    /// Plan `request` under `method` — a read into `user` or a write out
    /// of it — and run the plan: the one data path of every method above.
    fn run(&self, method: Method, request: &ListRequest, user: UserBuf) -> PvfsResult<ExecReport> {
        let (kind, len) = match &user {
            UserBuf::Read(buf) => (IoKind::Read, buf.len()),
            UserBuf::Write(buf) => (IoKind::Write, buf.len()),
        };
        if let Some(extent) = request.mem.extent().filter(|e| e.end() > len as u64) {
            return Err(PvfsError::invalid(format!(
                "memory list reaches offset {} but the buffer is {len} bytes",
                extent.end()
            )));
        }
        let plan = pvfs_core::plan(
            method,
            kind,
            request,
            self.handle,
            self.layout,
            &self.config,
        )?;
        execute_plan(plan, user, &self.client)
    }
}
