//! # pvfs — Noncontiguous I/O through PVFS, reproduced in Rust
//!
//! Facade crate for the reproduction of *"Noncontiguous I/O through
//! PVFS"* (Ching, Choudhary, Liao, Ross, Gropp — CLUSTER 2002). It
//! re-exports the workspace crates so applications can depend on a single
//! crate:
//!
//! * [`types`] — regions, region lists, striping, datatypes.
//! * [`proto`] — the wire protocol, including list-I/O trailing data.
//! * [`disk`] — the simulated local storage under each I/O daemon.
//! * [`server`] — the I/O daemon and manager daemon state machines.
//! * [`core`] — the noncontiguous access planners (multiple I/O, data
//!   sieving I/O, list I/O, hybrid, datatype I/O).
//! * [`net`] — the live in-process threaded cluster.
//! * [`replica`] — r-way stripe mirroring: rotated replica placement,
//!   write quorums, and the anti-entropy repair math behind `scrub`.
//! * [`client`] — the PVFS client library (`open`/`read_list`/...).
//! * [`collective`] — collective two-phase I/O: an in-process
//!   communicator, stripe-aligned file domains, and aggregator
//!   read/write engines (`CollectiveFile::{read_all, write_all}`).
//! * [`sim`] — the discrete-event simulator used to regenerate the
//!   paper's figures at paper scale.
//! * [`workloads`] — the paper's access-pattern generators (1-D cyclic,
//!   block-block, FLASH I/O, tiled visualization).
//! * [`shell`] — an interactive shell over an in-process cluster
//!   (`cargo run --bin pvfs-shell`).
//!
//! ## Quickstart
//!
//! ```
//! use pvfs::client::PvfsFile;
//! use pvfs::core::Method;
//! use pvfs::net::LiveCluster;
//! use pvfs::types::{RegionList, StripeLayout};
//!
//! // An in-process PVFS cluster: 4 I/O daemons + 1 manager.
//! let cluster = LiveCluster::spawn(4);
//! let client = cluster.client();
//!
//! // Create a file striped over all 4 servers with 1 KiB stripes.
//! let layout = StripeLayout::new(0, 4, 1024).unwrap();
//! let mut file = PvfsFile::create(&client, "/pvfs/demo", layout).unwrap();
//!
//! // Contiguous write, then a noncontiguous (list I/O) read-back.
//! file.write_at(0, &vec![7u8; 8192]).unwrap();
//! let file_list = RegionList::from_pairs([(0, 16), (4096, 16)]).unwrap();
//! let mem_list = RegionList::contiguous(0, 32);
//! let mut buf = vec![0u8; 32];
//! file.read_list(&mem_list, &file_list, &mut buf, Method::List).unwrap();
//! assert_eq!(buf, vec![7u8; 32]);
//! ```

pub mod shell;

pub use pvfs_client as client;
pub use pvfs_collective as collective;
pub use pvfs_core as core;
pub use pvfs_disk as disk;
pub use pvfs_net as net;
pub use pvfs_proto as proto;
pub use pvfs_replica as replica;
pub use pvfs_server as server;
pub use pvfs_sim as sim;
pub use pvfs_types as types;
pub use pvfs_workloads as workloads;
