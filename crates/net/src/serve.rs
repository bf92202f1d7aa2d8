//! The server half of one RPC, the same on every transport.
//!
//! A transport's job ends at moving frames: the channel transport's
//! workers and the TCP transport's workers both hand each request frame
//! to [`serve_rpc`], which is the only place the
//! `begin → decode → serve → end` sequence (and its stats-scrape guard)
//! exists. What a daemon *is* — an [`IoDaemon`] sharded by handle, the
//! [`Manager`] with its namespace behind one mutex — sits behind the
//! [`Service`] trait, which is only what differs between the two: how a
//! decoded request is served, what a frame that meets a full queue is
//! told, and where the books are. The bookkeeping itself — wire bytes, queue depth,
//! queue wait, service time — is the [`Ledger`]'s, the same for both, and
//! a transport does it through [`Service::ledger`] without entering the
//! daemon: accounting a manager frame takes no manager lock.
//!
//! # Buffers
//!
//! What serving a request needs beyond the frame it arrived in — the
//! list its regions are decoded into, the daemon's read buffer and run
//! list — is a [`Scratch`] the transport takes from the spares of the
//! connection (tcp) or the daemon's queue (chan) the frame came by,
//! never from the worker thread that happens to serve it, and gives back
//! around the reply (over chan less its read buffer, which came with the
//! request and leaves with the reply: it is the client's lane's);
//! [`serve_rpc`] states the order that makes every buffer of a frame its
//! owner's again by the time the reply is read.
//!
//! # The observer-effect guarantee
//!
//! Stats scrape frames (`GetStats`/`ResetStats`/`GetTrace`,
//! [`pvfs_proto::frame_is_stats_scrape`]) reach [`Service::serve`] and
//! nothing else: no wire accounting, no queue gauge, no queue-wait or
//! service-time sample, never shed. A scraped snapshot therefore equals
//! the in-process one byte for byte, and scraping twice shows the same
//! counters. Transports uphold their share by skipping the ledger's
//! `wire_rx`/`queued`/`wire_tx` for frames they flag as scrapes.

use pvfs_proto::{decode_frame_id, decode_frame_reusing, Frame, Message, Request, Response};
use pvfs_server::{IoDaemon, Manager, Scratch};
use pvfs_types::{Ledger, PvfsError, RequestId, TraceContext};
use std::time::{Duration, Instant};

/// One daemon as a transport sees it.
pub(crate) trait Service: Send + Sync {
    /// Serve one decoded request out of the buffers `scratch` holds.
    /// `traced`: the frame carried trace context, and the request waited
    /// this long in the queue — server-side spans are recorded under it.
    fn serve(
        &self,
        request: &Request,
        traced: Option<(TraceContext, Duration)>,
        scratch: &mut Scratch,
    ) -> Response;
    /// The daemon's books, in which the transport accounts every frame
    /// that is not a stats scrape.
    fn ledger(&self) -> &Ledger;
    /// A request met a full queue. `Some(refusal)`: the shed is
    /// accounted ([`Ledger::shed`]) and the transport answers the typed,
    /// retryable, provably-unexecuted refusal instead of queueing.
    /// `None`: this service never sheds — the transport waits for room,
    /// and the wait is the backpressure.
    fn shed(&self) -> Option<PvfsError> {
        None
    }
}

/// Serve one request frame that entered the queue at `queued_at`: book
/// the dequeue, decode, serve, book the completion. `scrape` frames
/// (see the module docs) skip both bookings.
///
/// When the body fails to decode but the fixed header is readable, the
/// error response carries the *real* request id so the client can
/// attribute it; only a frame with an unreadable header falls back to
/// the reserved id 0.
///
/// # Who holds what when this returns
///
/// The request is gone, and with it every view this side had of the
/// frame it arrived in: whoever owns that frame's buffers — the
/// connection's [`FrameReader`](crate::tcp::frame::FrameReader), or over
/// the channel transport the client that encoded and gathered it — is
/// their last holder once the reply they are waiting for arrives, and
/// takes them back then. The transport must therefore send the reply
/// *after* this returns, never from inside [`Service::serve`]. What
/// outlives the request is in `scratch`, which the transport took from
/// its [`Spares`](crate::spares::Spares) and gives back: the request's
/// region list (the next list request is decoded into it), the daemon's
/// run list, and the buffer a read was gathered into — behind the `Data`
/// reply returned here, or unused. Whose that is differs: a connection's
/// scratch keeps it, and is the last handle on it again once the reply
/// is written and dropped ([`Scratch::reclaim_read`]); over the channel
/// transport it is the lane's, adopted from the request
/// ([`Scratch::adopt_read`]) and let go before the reply is handed over
/// ([`Scratch::release_read`]) — as the reply's payload, or beside the
/// reply if that has none.
pub(crate) fn serve_rpc(
    service: &dyn Service,
    frame: Frame,
    queued_at: Instant,
    scrape: bool,
    scratch: &mut Scratch,
) -> (RequestId, Response) {
    let waited = queued_at.elapsed();
    let ledger = service.ledger();
    if !scrape {
        ledger.begin(waited);
    }
    let served_at = Instant::now();
    let header_id = decode_frame_id(&frame.head);
    let served = match decode_frame_reusing(frame, &mut scratch.regions) {
        Ok((Message { id, request, .. }, ctx)) => {
            let response = service.serve(&request, ctx.map(|ctx| (ctx, waited)), scratch);
            // The request ends here, before any reply can leave; of what
            // it held only the region list stays, back in the scratch.
            if let Some(regions) = request.into_regions() {
                scratch.regions = regions;
            }
            (id, response)
        }
        Err(e) => (header_id.unwrap_or(RequestId(0)), Response::Error(e)),
    };
    if !scrape {
        ledger.end(served_at.elapsed());
    }
    served
}

impl Service for IoDaemon {
    fn serve(
        &self,
        request: &Request,
        traced: Option<(TraceContext, Duration)>,
        scratch: &mut Scratch,
    ) -> Response {
        let (response, _) = self.handle_with(request, scratch, traced);
        // Emulated service time occupies the worker, the way a blocking
        // disk access would; the reply leaves only after the stall.
        if let Some(stall) = self.config().emulated_latency {
            std::thread::sleep(stall);
        }
        response
    }

    fn ledger(&self) -> &Ledger {
        IoDaemon::ledger(self)
    }

    fn shed(&self) -> Option<PvfsError> {
        IoDaemon::ledger(self).shed();
        Some(PvfsError::Overloaded {
            server: self.id().0,
            queue_depth: self.config().queue_depth.max(1) as u64,
        })
    }
}

/// Metadata operations are rare, order-sensitive and not idempotent:
/// the manager serializes them itself, and a full queue waits instead of
/// shedding.
impl Service for Manager {
    fn serve(
        &self,
        request: &Request,
        traced: Option<(TraceContext, Duration)>,
        _: &mut Scratch,
    ) -> Response {
        self.handle(request, traced)
    }

    fn ledger(&self) -> &Ledger {
        Manager::ledger(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::bounded;
    use crate::transport::{ChanNode, ChanTransport, NodeMsg, RpcTarget, Transport};
    use pvfs_proto::{encode_frame, encode_message};
    use pvfs_types::{ClientId, FileHandle, ServerId, StatsSnapshot};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A service with books of its own that counts what else it is
    /// asked.
    #[derive(Default)]
    struct Recording {
        ledger: Ledger,
        served: AtomicU64,
        shed_asked: AtomicU64,
        refusal: Option<PvfsError>,
    }

    impl Service for Recording {
        fn serve(
            &self,
            request: &Request,
            _: Option<(TraceContext, Duration)>,
            _: &mut Scratch,
        ) -> Response {
            self.served.fetch_add(1, Ordering::Relaxed);
            Response::Error(PvfsError::invalid(request.op_name()))
        }
        fn ledger(&self) -> &Ledger {
            &self.ledger
        }
        fn shed(&self) -> Option<PvfsError> {
            self.shed_asked.fetch_add(1, Ordering::Relaxed);
            self.refusal.clone().inspect(|_| self.ledger.shed())
        }
    }

    fn frame(id: u64, request: Request) -> Frame {
        let message = Message {
            client: ClientId(1),
            id: RequestId(id),
            request,
        };
        encode_frame(&message, None).unwrap()
    }

    #[test]
    fn a_scrape_frame_reaches_serve_and_nothing_else() {
        let service = Recording::default();
        let scratch = &mut Scratch::default();
        let (id, _) = serve_rpc(
            &service,
            frame(5, Request::GetStats),
            Instant::now(),
            true,
            scratch,
        );
        assert_eq!(id, RequestId(5));
        assert_eq!(service.served.load(Ordering::Relaxed), 1);
        assert_eq!(service.ledger.snapshot(), StatsSnapshot::default());
        // Any other frame is booked on both sides of the serve.
        service.ledger.queued();
        serve_rpc(
            &service,
            frame(6, Request::Ping),
            Instant::now(),
            false,
            scratch,
        );
        assert_eq!(service.served.load(Ordering::Relaxed), 2);
        let books = service.ledger.snapshot();
        assert_eq!(
            (books.queue_wait.count(), books.service_time.count()),
            (1, 1)
        );
        assert_eq!((books.queue_depth, books.busy_workers), (0, 0));
    }

    #[test]
    fn an_undecodable_body_echoes_the_headers_id_and_is_still_booked() {
        let service = Recording::default();
        let handle = FileHandle(1);
        let whole = encode_message(&Message {
            client: ClientId(1),
            id: RequestId(9),
            request: Request::GetLocalSize { handle },
        })
        .unwrap();
        // Header intact, body cut short.
        let cut = Frame::from(whole.slice(0..whole.len() - 3));
        let scratch = &mut Scratch::default();
        service.ledger.queued();
        let (id, response) = serve_rpc(&service, cut, Instant::now(), false, scratch);
        assert_eq!(id, RequestId(9), "the header's id, not the reserved 0");
        assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));
        assert_eq!(service.served.load(Ordering::Relaxed), 0);
        assert_eq!(
            service.ledger.service_time.count(),
            1,
            "a worker was busy with it"
        );
        // No readable header: the reserved id.
        service.ledger.queued();
        let (id, _) = serve_rpc(
            &service,
            Frame::from(whole.slice(0..7)),
            Instant::now(),
            false,
            scratch,
        );
        assert_eq!(id, RequestId(0));
    }

    /// What a full queue does is the service's call: `Some(refusal)`
    /// refuses the frame on the spot, `None` makes the sender wait for
    /// room.
    #[test]
    fn a_full_queue_refuses_or_blocks_as_shed_says() {
        let transport_over = |refusal| {
            let service = Arc::new(Recording {
                refusal,
                ..Recording::default()
            });
            let (tx, rx) = bounded::<NodeMsg>(1);
            let (mgr_tx, _) = bounded::<NodeMsg>(1);
            let node = |tx, service| ChanNode { tx, service };
            let served: Arc<dyn Service> = service.clone();
            let transport = ChanTransport::new(vec![node(tx, Some(served))], node(mgr_tx, None));
            (service, rx, Arc::new(transport))
        };
        let target = RpcTarget::Server(ServerId(0));
        let overloaded = PvfsError::Overloaded {
            server: 0,
            queue_depth: 1,
        };

        let books = |service: &Recording| {
            let books = service.ledger.snapshot();
            (books.frames_rx, books.queue_depth, books.requests_shed)
        };
        let (service, _rx, transport) = transport_over(Some(overloaded.clone()));
        transport.dispatch(target, frame(1, Request::Ping)).unwrap();
        assert_eq!(books(&service), (1, 1, 0));
        let refused = transport.dispatch(target, frame(2, Request::Ping));
        assert_eq!(refused.err(), Some(overloaded.clone()));
        assert_eq!(
            books(&service),
            (2, 1, 1),
            "the refused frame left the queue"
        );

        let (service, rx, transport) = transport_over(None);
        transport.dispatch(target, frame(1, Request::Ping)).unwrap();
        let sender = {
            let transport = transport.clone();
            std::thread::spawn(move || transport.dispatch(target, frame(2, Request::Ping)).is_ok())
        };
        // Once `shed` has declined, the sender is waiting on a queue
        // only this thread can make room in.
        while service.shed_asked.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }
        for _ in 0..2 {
            assert!(matches!(rx.recv(), Ok(NodeMsg::Rpc(..))));
        }
        assert!(sender.join().unwrap(), "the blocked send went through");
        assert_eq!(books(&service), (2, 2, 0), "both frames are queued");

        // A frame that never got into the queue — here the daemon's
        // workers are gone — is not left on the queue's books, whether the
        // service sheds or waits.
        for refusal in [Some(overloaded), None] {
            let (service, rx, transport) = transport_over(refusal);
            drop(rx);
            let gone = transport.dispatch(target, frame(1, Request::Ping));
            assert!(matches!(gone.err(), Some(PvfsError::Transport(_))));
            assert_eq!(books(&service), (1, 0, 0), "nothing is queued");
        }
    }
}
