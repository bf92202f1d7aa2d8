//! The server half of one RPC, the same on every transport.
//!
//! A transport's job ends at moving frames: the channel transport's
//! workers and the TCP transport's workers both hand each request frame
//! to [`serve_rpc`], which is the only place the
//! `begin → decode → serve → end` sequence (and its stats-scrape guard)
//! exists. What a daemon *is* — an [`IoDaemon`] sharded by handle, the
//! single-file [`Manager`] behind a mutex — sits behind the [`Service`]
//! trait: serve a decoded request, account wire traffic, queue depth
//! and service time, and say what to do with a frame that meets a full
//! queue.
//!
//! # Buffers
//!
//! What serving a request needs beyond the frame it arrived in — the
//! list its regions are decoded into, the daemon's read buffer and run
//! list — is a [`Scratch`] the transport takes from the spares of the
//! connection (tcp) or the daemon's queue (chan) the frame came by,
//! never from the worker thread that happens to serve it, and gives back
//! around the reply; [`serve_rpc`] states the order that makes every
//! buffer of a frame its owner's again by the time the reply is read.
//!
//! # The observer-effect guarantee
//!
//! Stats scrape frames (`GetStats`/`ResetStats`/`GetTrace`,
//! [`pvfs_proto::frame_is_stats_scrape`]) reach [`Service::serve`] and
//! nothing else: no wire accounting, no queue gauge, no queue-wait or
//! service-time sample, never shed. A scraped snapshot therefore equals
//! the in-process one byte for byte, and scraping twice shows the same
//! counters. Transports uphold their share by skipping
//! `wire_rx`/`queued`/`wire_tx` for frames they flag as scrapes.

use pvfs_proto::{decode_frame_id, decode_frame_reusing, Frame, Message, Request, Response};
use pvfs_server::{IoDaemon, Manager, Scratch};
use pvfs_types::{PvfsError, RequestId, TraceContext};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// One daemon as a transport sees it.
pub(crate) trait Service: Send + Sync {
    /// Serve one decoded request that waited `waited` in the queue,
    /// recording server-side spans under `ctx` when the frame carried
    /// trace context, out of the buffers `scratch` holds.
    fn serve(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
        waited: Duration,
        scratch: &mut Scratch,
    ) -> Response;
    /// A request frame of `bytes` wire bytes arrived.
    fn wire_rx(&self, bytes: u64);
    /// A response frame of `bytes` wire bytes is about to leave. A
    /// transport calls this *before* handing the frame to the peer: a
    /// client that holds a reply can never scrape counters that miss
    /// that reply's frame.
    fn wire_tx(&self, bytes: u64);
    /// Takes back a [`Service::wire_tx`] whose write then failed.
    fn retract_wire_tx(&self, bytes: u64);
    /// A request frame entered the worker queue.
    fn queued(&self) {}
    /// A worker dequeued a request after it `waited` in the queue.
    fn begin(&self, _waited: Duration) {}
    /// A worker finished a request in `took` wall-clock time.
    fn end(&self, took: Duration);
    /// A request met a full queue. `Some(refusal)`: the shed is
    /// accounted (undoing [`Service::queued`]) and the transport answers
    /// the typed, retryable, provably-unexecuted refusal instead of
    /// queueing. `None`: this service never sheds — the transport waits
    /// for room, and the wait is the backpressure.
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
/// run list, and — behind the `Data` reply returned here, until the
/// transport has sent it and settled the scratch's read buffer
/// ([`Scratch::reclaim_read`] or [`Scratch::forget_read`]) — the buffer
/// the read was gathered into.
pub(crate) fn serve_rpc(
    service: &dyn Service,
    frame: Frame,
    queued_at: Instant,
    scrape: bool,
    scratch: &mut Scratch,
) -> (RequestId, Response) {
    let waited = queued_at.elapsed();
    if !scrape {
        service.begin(waited);
    }
    let served_at = Instant::now();
    let header_id = decode_frame_id(&frame.head);
    let served = match decode_frame_reusing(frame, &mut scratch.regions) {
        Ok((Message { id, request, .. }, ctx)) => {
            let response = service.serve(&request, ctx, waited, scratch);
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
        service.end(served_at.elapsed());
    }
    served
}

impl Service for IoDaemon {
    fn serve(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
        waited: Duration,
        scratch: &mut Scratch,
    ) -> Response {
        let (response, _) = self.handle_traced(request, ctx, waited, scratch);
        // Emulated service time occupies the worker, the way a blocking
        // disk access would; the reply leaves only after the stall.
        if let Some(stall) = self.config().emulated_latency {
            std::thread::sleep(stall);
        }
        response
    }

    fn wire_rx(&self, bytes: u64) {
        self.record_wire_rx(bytes);
    }

    fn wire_tx(&self, bytes: u64) {
        self.record_wire_tx(bytes);
    }

    fn retract_wire_tx(&self, bytes: u64) {
        IoDaemon::retract_wire_tx(self, bytes);
    }

    fn queued(&self) {
        self.note_queued();
    }

    fn begin(&self, waited: Duration) {
        self.begin_service(waited);
    }

    fn end(&self, took: Duration) {
        self.end_service(took);
    }

    fn shed(&self) -> Option<PvfsError> {
        self.note_shed();
        Some(PvfsError::Overloaded {
            server: self.id().0,
            queue_depth: self.config().queue_depth.max(1) as u64,
        })
    }
}

/// Metadata operations are rare, order-sensitive and not idempotent: a
/// mutex serializes them, a full queue waits instead of shedding, and
/// with one worker the service time is the whole timing story (no queue
/// gauge).
impl Service for Mutex<Manager> {
    fn serve(
        &self,
        request: &Request,
        ctx: Option<TraceContext>,
        waited: Duration,
        _: &mut Scratch,
    ) -> Response {
        locked(self).handle_traced(request, ctx, waited)
    }

    fn wire_rx(&self, bytes: u64) {
        locked(self).record_wire_rx(bytes);
    }

    fn wire_tx(&self, bytes: u64) {
        locked(self).record_wire_tx(bytes);
    }

    fn retract_wire_tx(&self, bytes: u64) {
        locked(self).retract_wire_tx(bytes);
    }

    fn end(&self, took: Duration) {
        locked(self).record_service(took);
    }
}

fn locked(manager: &Mutex<Manager>) -> MutexGuard<'_, Manager> {
    manager.lock().expect("a manager request panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::bounded;
    use crate::transport::{ChanNode, ChanTransport, NodeMsg, RpcTarget, Transport};
    use pvfs_proto::{encode_frame, encode_message};
    use pvfs_types::{ClientId, FileHandle, ServerId};
    use std::sync::Arc;

    /// A service that writes down every call it gets.
    #[derive(Default)]
    struct Recording {
        calls: Mutex<Vec<&'static str>>,
        refusal: Option<PvfsError>,
    }

    impl Recording {
        fn note(&self, call: &'static str) {
            self.calls.lock().unwrap().push(call);
        }

        fn calls(&self) -> Vec<&'static str> {
            std::mem::take(&mut *self.calls.lock().unwrap())
        }
    }

    impl Service for Recording {
        fn serve(
            &self,
            request: &Request,
            _: Option<TraceContext>,
            _: Duration,
            _: &mut Scratch,
        ) -> Response {
            self.note("serve");
            Response::Error(PvfsError::invalid(request.op_name()))
        }
        fn wire_rx(&self, _: u64) {
            self.note("wire_rx");
        }
        fn wire_tx(&self, _: u64) {
            self.note("wire_tx");
        }
        fn retract_wire_tx(&self, _: u64) {
            self.note("retract_wire_tx");
        }
        fn queued(&self) {
            self.note("queued");
        }
        fn begin(&self, _: Duration) {
            self.note("begin");
        }
        fn end(&self, _: Duration) {
            self.note("end");
        }
        fn shed(&self) -> Option<PvfsError> {
            self.note("shed");
            self.refusal.clone()
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
        assert_eq!(service.calls(), ["serve"]);
        // Any other frame is booked on both sides of the serve.
        serve_rpc(
            &service,
            frame(6, Request::Ping),
            Instant::now(),
            false,
            scratch,
        );
        assert_eq!(service.calls(), ["begin", "serve", "end"]);
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
        let (id, response) = serve_rpc(&service, cut, Instant::now(), false, scratch);
        assert_eq!(id, RequestId(9), "the header's id, not the reserved 0");
        assert!(matches!(response, Response::Error(PvfsError::Protocol(_))));
        assert_eq!(
            service.calls(),
            ["begin", "end"],
            "a worker was busy with it"
        );
        // No readable header: the reserved id.
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

        let (service, _rx, transport) = transport_over(Some(overloaded.clone()));
        transport.dispatch(target, frame(1, Request::Ping)).unwrap();
        assert_eq!(service.calls(), ["wire_rx", "queued"]);
        let refused = transport.dispatch(target, frame(2, Request::Ping));
        assert_eq!(refused.err(), Some(overloaded));
        assert_eq!(service.calls(), ["wire_rx", "queued", "shed"]);

        let (service, rx, transport) = transport_over(None);
        transport.dispatch(target, frame(1, Request::Ping)).unwrap();
        let sender = {
            let transport = transport.clone();
            std::thread::spawn(move || transport.dispatch(target, frame(2, Request::Ping)).is_ok())
        };
        // Once `shed` has declined, the sender is waiting on a queue
        // only this thread can make room in.
        while !service.calls.lock().unwrap().contains(&"shed") {
            std::thread::yield_now();
        }
        for _ in 0..2 {
            assert!(matches!(rx.recv(), Ok(NodeMsg::Rpc(..))));
        }
        assert!(sender.join().unwrap(), "the blocked send went through");
        assert_eq!(
            service.calls(),
            ["wire_rx", "queued", "wire_rx", "queued", "shed"]
        );
    }
}
