//! The paper's benchmark access patterns as [`ListRequest`] generators.
//!
//! * [`cyclic`] — the artificial benchmark's one-dimensional cyclic
//!   pattern (Fig. 7): interleaved column ownership of a 2-D array
//!   flattened to 1-D.
//! * [`blockblock`] — the artificial benchmark's two-dimensional
//!   block-block pattern (Fig. 8): each client owns one block of the
//!   global array.
//! * [`flash`] — the FLASH I/O checkpoint write (Figs. 13/14):
//!   noncontiguous in memory *and* file; 8-byte memory fragments into
//!   4096-byte file chunks, var-major file layout.
//! * [`tiled`] — the tiled visualization read (Fig. 16): a 3×2 display
//!   wall with overlapping tiles reading one large frame.
//!
//! Every generator returns plain [`ListRequest`]s so any access method
//! can service them, plus the derived quantities the paper quotes
//! (region counts, bytes per access, file sizes) for the harness to
//! assert against.
//!
//! [`ListRequest`]: pvfs_core::ListRequest

pub mod blockblock;
pub mod cyclic;
pub mod flash;
pub mod tiled;
pub mod verify;

pub use blockblock::BlockBlock;
pub use cyclic::Cyclic;
pub use flash::FlashIo;
pub use tiled::TiledViz;
