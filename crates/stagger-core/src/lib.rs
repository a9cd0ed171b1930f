//! # stagger-core — the Staggered Transactions runtime
//!
//! The paper's primary contribution (Sections 2 and 5): a software runtime
//! that serializes only the conflict-prone *portions* of hardware
//! transactions by acquiring **advisory locks** — optional, purely
//! performance-oriented locks built from nontransactional loads and stores —
//! at compiler-inserted **advisory locking points** (ALPs).
//!
//! Main pieces:
//!
//! * [`locks`] — a static, pre-allocated table of advisory lock words in
//!   simulated memory (one per cache line so they never false-share), hashed
//!   by data address, acquired with NT CAS, with a spin timeout after which
//!   the transaction simply proceeds without the lock (Section 2's liveness
//!   escape).
//! * [`history`] — the per-thread, per-atomic-block ring of the eight most
//!   recent abort records `(anchor PC, conflicting address)`.
//! * [`context`] — `ABContext` (paper Figure 4): the currently active
//!   anchor, the expected conflicting address (`0` = coarse-grain wild
//!   card), abort history, and a handle to the block's unified anchor table.
//! * [`policy`] — `ActivateALPoint` (paper Figure 6): precise mode,
//!   coarse-grain mode, locking promotion to the parent anchor, and
//!   training mode, driven by PC/address recurrence counts.
//! * [`runtime`] — [`ThreadRuntime`]: everything one simulated thread needs
//!   (per-block contexts, the ALPoint fast path, the software
//!   conflicting-PC map of Section 4, accuracy ground-truthing for Table 3)
//!   plus the global-lock protocol for irrevocable fallback.
//!
//! Execution-mode selection (baseline HTM / AddrOnly / Staggered+SW /
//! Staggered) lives in [`runtime::Mode`]; the transaction retry driver that
//! invokes all of this is in the `tm-interp` crate.

pub mod context;
pub mod hist;
pub mod history;
pub mod locks;
pub mod policy;
pub mod runtime;

pub use context::{ABContext, Activation};
pub use hist::Hist;
pub use history::AbortHistory;
pub use htm_sim::obs;
pub use locks::{GlobalLock, LockTable};
pub use policy::{activate_alpoint, PolicyConfig};
pub use runtime::{Mode, RtStats, RuntimeConfig, SharedRt, ThreadRuntime};
