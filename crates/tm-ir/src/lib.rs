//! # tm-ir — an IR for transactional programs
//!
//! This crate provides the compiler-facing substrate of the Staggered
//! Transactions reproduction: a small, untyped, register-machine
//! intermediate representation in which the benchmark programs are written,
//! analyzed (by `tm-dsa`), instrumented (by `stagger-compiler`) and executed
//! (by `tm-interp`) on the simulated HTM machine (`htm-sim`).
//!
//! The IR plays the role LLVM IR plays in the paper: the compiler pass that
//! inserts advisory locking points (ALPs) operates on *this* representation,
//! and "program counters" are synthetic code addresses assigned by
//! [`layout::CodeLayout`], so the hardware's conflicting-PC tag is a
//! real, aliasing-prone quantity just as it is on the paper's simulator.
//!
//! ## Shape of the IR
//!
//! * A [`Module`] is a set of [`Function`]s. Functions are either `Normal`
//!   or `Atomic`: calling an atomic function executes its body as one
//!   hardware transaction (the paper's `TM_BEGIN`/`TM_END` atomic block,
//!   outlined — which is exactly what production TM compilers do).
//! * A function body is a list of [`Block`]s of [`Inst`]s, ending in a
//!   terminator (`Br`, `CondBr`, or `Ret`).
//! * Values are untyped 64-bit words held in *mutable* virtual registers
//!   ([`Reg`]); there are no phi nodes. Memory operations address a
//!   word-granular simulated heap (`base + offset` or
//!   `base + (index + offset) * 8`).
//! * [`builder::FuncBuilder`] offers structured control flow (`while_`,
//!   `if_`, ...) so the ten benchmarks can be authored without manual block
//!   wiring.
//!
//! ## Analyses
//!
//! [`mod@cfg`] computes successor/predecessor maps and reverse postorder;
//! [`dom`] computes the dominator tree (Cooper–Harvey–Kennedy); both are
//! prerequisites of Algorithm 1 in the paper (anchor classification walks
//! the dominator tree depth-first).

pub mod builder;
pub mod cfg;
pub mod display;
pub mod dom;
pub mod func;
pub mod ids;
pub mod inst;
pub mod layout;
pub mod verify;

pub use builder::FuncBuilder;
pub use cfg::Cfg;
pub use dom::DomTree;
pub use func::{Block, FuncKind, Function, Module};
pub use ids::{BlockId, FuncId, InstRef, Reg};
pub use inst::{BinOp, CmpOp, Inst};
pub use layout::{CodeLayout, Pc, INST_BYTES, TEXT_BASE};
pub use verify::{verify_function, verify_module, VerifyError};
