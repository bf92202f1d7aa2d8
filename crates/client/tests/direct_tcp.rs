//! A list read over tcp lands its replies straight in the caller's
//! buffer, so a daemon that answers wrongly must not get bytes reported
//! that never arrived, or written where they do not belong. Against a
//! fake daemon whose reply is cut short, longer than the share, late
//! for an attempt already retried, or for a request never sent, the op
//! retries or fails — it never returns `Ok` over a body it did not
//! receive — and every byte outside its destination slices keeps what
//! the caller had there.

use bytes::Bytes;
use pvfs_client::{execute_plan, ExecReport, UserBuf};
use pvfs_core::{IoKind, ListRequest, Method, MethodConfig};
use pvfs_net::tcp::frame::{read_frame, write_frame};
use pvfs_net::tcp::TcpTransport;
use pvfs_net::{ClusterClient, RetryPolicy, SerialGate};
use pvfs_proto::{data_response_head, Request, Response};
use pvfs_types::{ClientId, FileHandle, PvfsResult, RegionList, RequestId, StripeLayout};
use std::io::{BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// What the daemon holds at `offset`.
fn byte_at(offset: u64) -> u8 {
    (offset * 7 + 3) as u8
}

/// What the caller's buffer holds where nothing may be written.
const UNTOUCHED: u8 = 0x5e;

/// How the fake daemon answers one request.
#[derive(Clone, Copy, Debug)]
enum Reply {
    Right,
    /// The head says the whole share; half the body comes, then the
    /// connection closes.
    Cut,
    /// A byte more than the share.
    Long,
    /// After the client has given up on it, with bytes that are wrong.
    Late,
    /// Under an id the client never sent, with bytes that are wrong.
    Unknown,
}

/// A daemon answering each request it reads with the next of `script`
/// (and rightly once that is spent), over as many connections as the
/// client dials.
fn fake_daemon(script: Vec<Reply>) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut script = script.into_iter();
        for conn in listener.incoming() {
            let conn = conn.unwrap();
            let mut requests = BufReader::new(conn.try_clone().unwrap());
            while let Ok(frame) = read_frame(&mut requests) {
                let msg = pvfs_proto::decode_message(frame).unwrap();
                let Request::ReadList { regions, .. } = &msg.request else {
                    panic!("unexpected {msg:?}");
                };
                let right: Vec<u8> = regions
                    .iter()
                    .flat_map(|r| (r.offset..r.end()).map(byte_at))
                    .collect();
                let wrong = vec![0xab; right.len()];
                let mut out = &conn;
                let send = |out: &mut &TcpStream, id, data: Vec<u8>| {
                    let data = Bytes::from(data);
                    let reply = pvfs_proto::encode_response(id, &Response::Data { data });
                    write_frame(out, &reply).unwrap();
                };
                match script.next().unwrap_or(Reply::Right) {
                    Reply::Right => send(&mut out, msg.id, right),
                    Reply::Cut => {
                        let head = data_response_head(msg.id, right.len() as u64);
                        let len = (head.len() + right.len()) as u32;
                        let half = &right[..right.len() / 2];
                        let cut = [&len.to_le_bytes()[..], &head, half].concat();
                        out.write_all(&cut).unwrap();
                        conn.shutdown(Shutdown::Both).ok();
                        break;
                    }
                    Reply::Long => send(&mut out, msg.id, [right, vec![0]].concat()),
                    Reply::Late => {
                        std::thread::sleep(TIMEOUT * 3 / 2);
                        send(&mut out, msg.id, wrong);
                    }
                    Reply::Unknown => send(&mut out, RequestId(999_999), wrong),
                }
            }
        }
    });
    addr
}

/// Each attempt's deadline.
const TIMEOUT: Duration = Duration::from_millis(200);

/// Four 2 KiB file regions 8 KiB apart, read into four 2 KiB slices of a
/// 16 KiB buffer 4 KiB apart: one daemon's share of 8 KiB, a direct one.
fn read_against(script: Vec<Reply>, attempts: u32) -> (PvfsResult<ExecReport>, Vec<u8>) {
    let addr = fake_daemon(script);
    let transport = Arc::new(TcpTransport::new(vec![addr], addr));
    let retry = RetryPolicy {
        max_attempts: attempts,
        ..RetryPolicy::default()
    };
    let client = ClusterClient::with_transport(ClientId(1), transport, Arc::new(SerialGate::new()))
        .with_endpoint(|e| e.with_rpc_timeout(TIMEOUT).with_retry_policy(retry));
    let layout = StripeLayout::new(0, 1, 64 << 10).unwrap();
    let file = RegionList::from_pairs((0..4u64).map(|k| (k * 8192, 2048))).unwrap();
    let mem = RegionList::from_pairs((0..4u64).map(|k| (k * 4096 + 1024, 2048))).unwrap();
    let request = ListRequest::new(mem, file).unwrap();
    let config = MethodConfig::paper_default();
    let plan = pvfs_core::plan(
        Method::List,
        IoKind::Read,
        &request,
        FileHandle(1),
        layout,
        &config,
    );
    let mut buf = vec![UNTOUCHED; 16 << 10];
    let outcome = execute_plan(plan.unwrap(), UserBuf::Read(&mut buf), &client);
    (outcome, buf)
}

/// Whether `buf` holds the daemon's bytes in every destination slice
/// (`placed`) or in none, and nothing anywhere else.
fn holds(buf: &[u8], placed: bool) -> bool {
    buf.chunks(4096).enumerate().all(|(k, chunk)| {
        let slice = &chunk[1024..3072];
        let file = k as u64 * 8192;
        let right = slice.iter().zip(file..).all(|(&b, at)| b == byte_at(at));
        let outside = chunk[..1024].iter().chain(&chunk[3072..]);
        outside.into_iter().all(|&b| b == UNTOUCHED) && (right || !placed)
    })
}

#[test]
fn a_body_cut_short_fails_the_op_or_is_read_again() {
    let (outcome, buf) = read_against(vec![Reply::Cut], 1);
    assert!(outcome.is_err(), "a cut body is no reply: {outcome:?}");
    assert!(holds(&buf, false), "written outside the slices");

    let (outcome, buf) = read_against(vec![Reply::Cut], 2);
    let report = outcome.unwrap();
    assert_eq!((report.bytes_received, report.client.retries), (8192, 1));
    assert!(holds(&buf, true), "the retry's bytes are not the daemon's");
}

#[test]
fn a_length_other_than_the_share_fails_the_op() {
    let (outcome, buf) = read_against(vec![Reply::Long], 4);
    let error = outcome.unwrap_err().to_string();
    assert!(error.contains("8193 bytes, expected 8192"), "{error}");
    assert!(holds(&buf, false), "a refused reply was written");
}

#[test]
fn a_late_reply_to_a_retried_attempt_lands_nowhere() {
    let (outcome, buf) = read_against(vec![Reply::Late], 3);
    let report = outcome.unwrap();
    assert!(report.client.retries >= 1, "the late reply was waited for");
    assert_eq!(report.bytes_received, 8192);
    assert!(holds(&buf, true), "the late reply's bytes landed");
}

#[test]
fn a_reply_to_a_request_never_sent_lands_nowhere() {
    let (outcome, buf) = read_against(vec![Reply::Unknown], 1);
    assert!(outcome.is_err(), "an unknown id is no reply: {outcome:?}");
    assert!(holds(&buf, false), "the unknown reply's bytes landed");

    let (outcome, buf) = read_against(vec![Reply::Unknown], 2);
    assert_eq!(outcome.unwrap().bytes_received, 8192);
    assert!(holds(&buf, true), "the unknown reply's bytes landed");
}
