//! What the machine can do with none of the program in the way: the
//! denominators each layer is set against, measured pinned, in the same
//! run as the layer itself. Standard library only.

use crate::stats;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::Instant;

/// How much work each ceiling does; the smoke run shrinks it.
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    pub memcpy_reps: usize,
    pub echo_rounds: usize,
    pub stream_mib: usize,
    pub handoff_rounds: usize,
    pub fsync_reps: usize,
}

impl Effort {
    pub fn full() -> Effort {
        Effort {
            memcpy_reps: 9,
            echo_rounds: 2000,
            stream_mib: 96,
            handoff_rounds: 4000,
            fsync_reps: 40,
        }
    }

    pub fn smoke() -> Effort {
        Effort {
            memcpy_reps: 2,
            echo_rounds: 100,
            stream_mib: 4,
            handoff_rounds: 100,
            fsync_reps: 3,
        }
    }
}

const GIB: f64 = (1u64 << 30) as f64;

fn median_of(samples: Vec<f64>) -> f64 {
    stats::median(&stats::sorted(samples))
}

/// `copy_from_slice` between two 64 MiB buffers — four times the
/// largest last-level cache this box could have, so the copy streams
/// through memory. GiB/s, median of `reps`.
pub fn memcpy_gibs(reps: usize) -> f64 {
    const LEN: usize = 64 << 20;
    let src = vec![0x5au8; LEN];
    let mut dst = vec![0u8; LEN];
    let rates = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(std::hint::black_box(&src));
            std::hint::black_box(&mut dst);
            LEN as f64 / GIB / t.elapsed().as_secs_f64()
        })
        .collect();
    median_of(rates)
}

fn loopback_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let client = TcpStream::connect(listener.local_addr()?)?;
    let (server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    Ok((client, server))
}

/// Round trip of a 64-byte message over a loopback TCP connection to an
/// echo thread: the floor under any tcp RPC. Microseconds, median.
pub fn loopback_rtt_us(rounds: usize) -> std::io::Result<f64> {
    let (mut client, mut server) = loopback_pair()?;
    let echo = std::thread::spawn(move || {
        let mut buf = [0u8; 64];
        while server.read_exact(&mut buf).is_ok() {
            if server.write_all(&buf).is_err() {
                break;
            }
        }
    });
    let mut buf = [7u8; 64];
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds.max(1) {
        let t = Instant::now();
        client.write_all(&buf)?;
        client.read_exact(&mut buf)?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(client);
    echo.join().expect("echo thread panicked");
    Ok(median_of(times))
}

/// One-way loopback TCP throughput in 192 KiB writes (the size of a
/// tiled-read response frame) to a draining thread. GiB/s over the
/// whole transfer, both ends on the one pinned CPU.
pub fn loopback_gibs(total_mib: usize) -> std::io::Result<f64> {
    const CHUNK: usize = 192 << 10;
    let (mut client, mut server) = loopback_pair()?;
    let total = (total_mib << 20) / CHUNK * CHUNK;
    let sink = std::thread::spawn(move || -> std::io::Result<()> {
        let mut buf = vec![0u8; CHUNK];
        let mut left = total;
        while left > 0 {
            let n = server.read(&mut buf)?;
            if n == 0 {
                break;
            }
            left -= n;
        }
        server.write_all(&[1])
    });
    let chunk = vec![0xa5u8; CHUNK];
    let t = Instant::now();
    for _ in 0..total / CHUNK {
        client.write_all(&chunk)?;
    }
    let mut ack = [0u8; 1];
    client.read_exact(&mut ack)?;
    let seconds = t.elapsed().as_secs_f64();
    sink.join().expect("sink thread panicked")?;
    Ok(total as f64 / GIB / seconds)
}

/// Two threads handing a token back and forth over channels: the floor
/// under any chan RPC (one hand-off each way). Microseconds per round
/// trip, median.
pub fn thread_handoff_us(rounds: usize) -> f64 {
    let (to_peer, from_main) = mpsc::channel::<u64>();
    let (to_main, from_peer) = mpsc::channel::<u64>();
    let peer = std::thread::spawn(move || {
        while let Ok(token) = from_main.recv() {
            if to_main.send(token).is_err() {
                break;
            }
        }
    });
    let mut times = Vec::with_capacity(rounds);
    for i in 0..rounds.max(1) as u64 {
        let t = Instant::now();
        to_peer.send(i).expect("peer thread is alive");
        let back = from_peer.recv().expect("peer thread is alive");
        times.push(t.elapsed().as_secs_f64() * 1e6);
        assert_eq!(back, i);
    }
    drop(to_peer);
    peer.join().expect("peer thread panicked");
    median_of(times)
}

/// Append 16 KiB and `fsync`, in `dir`: what one durable journal commit
/// costs on the device under the benchmark's data directory.
/// Microseconds, median.
pub fn append_fsync_us(dir: &Path, reps: usize) -> std::io::Result<f64> {
    let path = dir.join("ceiling-append");
    let mut file = std::fs::File::create(&path)?;
    let block = vec![0x11u8; 16 << 10];
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        file.write_all(&block)?;
        file.sync_data()?;
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median_of(times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_ceiling_measures_something() {
        let e = Effort::smoke();
        assert!(memcpy_gibs(1) > 0.0);
        assert!(loopback_rtt_us(e.echo_rounds).unwrap() > 0.0);
        assert!(loopback_gibs(1).unwrap() > 0.0);
        assert!(thread_handoff_us(e.handoff_rounds) > 0.0);
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(append_fsync_us(&dir, 2).unwrap() > 0.0);
        assert!(!dir.join("ceiling-append").exists());
    }
}
