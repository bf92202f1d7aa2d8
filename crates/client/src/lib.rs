//! The PVFS client library.
//!
//! "Application processes interact with PVFS via a client library" (§2).
//! [`PvfsFile`] is that library: metadata calls go to the manager,
//! data calls go straight to the I/O daemons, and the noncontiguous
//! interface mirrors the paper's §3.3 proposal:
//!
//! ```text
//! pvfs_read_list(mem_list_count, mem_offsets[], mem_lengths[],
//!                file_list_count, file_offsets[], file_lengths[])
//! ```
//!
//! here spelled [`PvfsFile::read_list`] / [`PvfsFile::write_list`] with a
//! [`Method`](pvfs_core::Method) argument selecting multiple I/O, data sieving I/O, list
//! I/O, or one of the §5 extensions. All data movement goes through the
//! planner + executor pipeline, so the live cluster runs exactly the
//! code the simulator times.

pub mod executor;
pub mod file;
pub mod scrub;

pub use executor::{execute_plan, ExecReport, Execution, UserBuf};
pub use file::PvfsFile;
pub use scrub::{replicas_converged, scrub_file, scrub_file_with_chunk, SCRUB_CHUNK};
