//! Microbenches for the mechanism costs the paper argues are negligible
//! (Section 6.1): the ALPoint fast path, abort-history bookkeeping, policy
//! activation, anchor-table lookups, advisory-lock operations, the
//! compiler pass itself, the simulator's transactional access path, raw
//! interpreter throughput, and the interpreter's cost per IR call and per
//! resume under a deep call stack.
//!
//! Plain `fn main` harness (no external bench framework): each case runs a
//! calibrated number of iterations and prints mean wall time per iteration.
//! Run with `cargo bench --bench mechanisms`.

use std::hint::black_box;
use std::time::Instant;

use htm_sim::{body, Machine, MachineConfig};
use stagger_compiler::compile;
use stagger_core::{
    activate_alpoint, ABContext, AbortHistory, Mode, PolicyConfig, RuntimeConfig, SharedRt,
};
use stagger_prng::Xoshiro256StarStar;
use tm_interp::{run_workload, ThreadPlan};
use tm_ir::{FuncBuilder, FuncId, FuncKind, Function, Module, Reg};
use workloads::Workload;

/// Time `f` over `iters` iterations (after one warm-up call) and print the
/// mean per-iteration wall time.
fn time_case(label: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    report(label, (t0.elapsed() / iters).as_secs_f64());
}

fn report(label: &str, secs_per_iter: f64) {
    if secs_per_iter >= 1e-3 {
        println!("{label:<44} {:>12.3} ms/iter", secs_per_iter * 1e3);
    } else {
        println!("{label:<44} {:>12.0} ns/iter", secs_per_iter * 1e9);
    }
}

fn bench_history() {
    let mut h = AbortHistory::new(8);
    for i in 0..8u64 {
        h.append(0x400 + i, 0x1000 + i * 64);
    }
    time_case("history/append+counts", 1_000_000, || {
        h.append(black_box(0x404), black_box(0x1040));
        black_box(h.count_pc(0x404) + h.count_addr(0x1040));
    });
}

fn bench_policy() {
    let w = workloads::list::ListBench::lo();
    let module = w.build_module();
    let compiled = compile(&module);
    let table = compiled.table(0);
    let anchor = table
        .entries
        .iter()
        .find(|e| e.is_anchor)
        .map(|e| (e.anchor_id, e.pc))
        .unwrap();
    let cfg = PolicyConfig::default();
    time_case("policy/activate_alpoint", 100_000, || {
        let mut ctx = ABContext::new(0, 8);
        for i in 0..8u64 {
            activate_alpoint(
                &cfg,
                table,
                &mut ctx,
                anchor.0,
                anchor.1,
                0x1000 + (i % 3) * 64,
                (i % 5) as u32,
            );
        }
        black_box(ctx.activation);
    });
}

fn bench_anchor_table() {
    let w = workloads::memcached::Memcached::default();
    let module = w.build_module();
    let compiled = compile(&module);
    let table = compiled.table(0);
    let mask = MachineConfig::default().pc_tag_mask();
    let tags: Vec<u16> = table.entries.iter().map(|e| (e.pc & mask) as u16).collect();
    let mut i = 0;
    time_case("anchor_table/search_by_pc_tag", 1_000_000, || {
        i = (i + 1) % tags.len();
        black_box(table.search_by_pc_tag(tags[i], mask));
    });
    let pcs: Vec<u64> = table.entries.iter().map(|e| e.pc).collect();
    time_case("anchor_table/search_by_pc", 1_000_000, || {
        i = (i + 1) % pcs.len();
        black_box(table.search_by_pc(pcs[i]));
    });
    let ids: Vec<u32> = table.entries.iter().map(|e| e.anchor_id).collect();
    time_case("anchor_table/anchor_entry", 1_000_000, || {
        i = (i + 1) % ids.len();
        black_box(table.anchor_entry(ids[i]));
    });
}

fn bench_compile_pass() {
    for w in workloads::all_workloads() {
        // One representative small and one large module keep bench time sane.
        if w.name() != "list-lo" && w.name() != "memcached" {
            continue;
        }
        let module = w.build_module();
        time_case(&format!("compiler/compile/{}", w.name()), 200, || {
            black_box(compile(black_box(&module)));
        });
    }
}

fn bench_locks() {
    // Acquire/release pairs of the runtime's lock table on one core, over
    // 100 lock words, timed as one run: the machine and the lock table are
    // built before the clock starts, so the row is the cost of one pair.
    let pairs = |n: u64| {
        let machine = Machine::new(MachineConfig::cores(1).small());
        let cfg = RuntimeConfig::with_mode(Mode::Staggered);
        let shared = SharedRt::new(&machine, &cfg);
        let t0 = Instant::now();
        machine.run(vec![body(move |mut core| async move {
            for i in 0..n {
                let w = shared
                    .locks
                    .acquire(&mut core, 0x1000 + (i % 100) * 64, 1000, 30)
                    .await
                    .unwrap();
                shared.locks.release(&mut core, w).await;
            }
        })]);
        t0.elapsed().as_secs_f64() / n as f64
    };
    pairs(1_000);
    report(
        "locks/acquire_release_uncontended (per pair)",
        pairs(1_000_000),
    );
}

fn bench_scheduler() {
    // What losing the minimum costs the host. A decision alone: the running
    // core advances by a seeded 4-43 cycles and the event loop picks again
    // (one key update + winner and runner-up), with no program to resume.
    for n in [16, 64, 256] {
        let machine = Machine::new(MachineConfig::cores(n).small());
        let mut rng = Xoshiro256StarStar::seed_from_u64(2015);
        time_case(&format!("sched/decision/{n}_cores"), 5_000_000, || {
            black_box(machine.schedule_after(4 + rng.below(40)));
        });
    }
    // And in place: every core loads its own line in lock step, so beyond
    // one core each ~15 ns op also suspends, reschedules and resumes.
    let lockstep = |n: usize, ops: u64| {
        let machine = Machine::new(MachineConfig::cores(n).small());
        let lines = machine.host_alloc(8 * n as u64, true);
        let t0 = Instant::now();
        machine.run_uniform(move |mut c| async move {
            let mine = lines + 64 * c.tid() as u64;
            for _ in 0..ops {
                black_box(c.nt_load(mine).await);
            }
        });
        t0.elapsed().as_secs_f64() / (n as u64 * ops) as f64
    };
    for n in [1, 16, 64] {
        lockstep(n, 1_000);
        let label = format!("sched/lockstep_nt_load/{n}_cores (per op)");
        report(&label, lockstep(n, 2_000_000 / n as u64));
    }
}

fn bench_tx_access() {
    // One core in one long transaction re-loading 8 lines it already
    // holds. With no other core no gate suspends, so the row times one
    // gate and the simulator's load of a held line, nothing else.
    let held = |ops: u64| {
        let machine = Machine::new(MachineConfig::cores(1).small());
        let lines = machine.host_alloc(8 * 8, true);
        let t0 = Instant::now();
        machine.run_uniform(move |mut c| async move {
            c.tx_begin(0).await;
            for i in 0..ops {
                black_box(c.tx_load(lines + 64 * (i % 8), 0).await.unwrap());
            }
            c.tx_commit().await.unwrap();
        });
        t0.elapsed().as_secs_f64() / ops as f64
    };
    held(1_000);
    report("sim/tx_load_held (per op)", held(4_000_000));
}

fn bench_interpreter() {
    // Raw interpreter throughput: single-core counter loop.
    let w = workloads::ssca2::Ssca2 {
        n_nodes: 64,
        max_degree: 7,
        total_ops: 1000,
    };
    time_case("interp/single_thread_counter_1000_txns", 20, || {
        black_box(workloads::run_benchmark(black_box(&w), Mode::Htm, 1, 42));
    });
}

/// Host seconds to run `m`'s `thread_main` on `n` cores of a small HTM
/// machine, core `t` with arguments `args(t, lines)` where `lines` is one
/// cache line per core.
fn time_program(m: &Module, n: usize, args: impl Fn(usize, u64) -> Vec<u64>) -> f64 {
    let compiled = compile(m);
    let machine = Machine::new(MachineConfig::cores(n).small());
    let lines = machine.host_alloc(8 * n as u64, true);
    let func = compiled.module.expect("thread_main");
    let plans: Vec<ThreadPlan> = (0..n)
        .map(|t| ThreadPlan {
            func,
            args: args(t, lines),
        })
        .collect();
    let t0 = Instant::now();
    black_box(run_workload(
        &machine,
        &compiled,
        &RuntimeConfig::with_mode(Mode::Htm),
        &plans,
        1,
    ));
    t0.elapsed().as_secs_f64()
}

/// A function of `(p, n)` that runs `body` `n` times.
fn looping(name: &str, kind: FuncKind, body: impl Fn(&mut FuncBuilder, Reg)) -> Function {
    let mut b = FuncBuilder::new(name, 2, kind);
    let (p, n) = (b.param(0), b.param(1));
    let i = b.const_(0);
    b.while_(
        |b| b.lt(i, n),
        |b| {
            body(b, p);
            let nx = b.addi(i, 1);
            b.assign(i, nx);
        },
    );
    b.ret(None);
    b.finish()
}

/// Add `name(p, n)`, which calls `callee(p, n)`.
fn forward(m: &mut Module, name: &str, kind: FuncKind, callee: FuncId) -> FuncId {
    let mut b = FuncBuilder::new(name, 2, kind);
    b.call_void(callee, &[b.param(0), b.param(1)]);
    b.ret(None);
    m.add_function(b.finish())
}

fn bench_interp_layer() {
    // One IR call and return: a loop on one core calling a leaf whose only
    // instruction is `ret`.
    let mut m = Module::new();
    let mut b = FuncBuilder::new("leaf", 0, FuncKind::Normal);
    b.ret(None);
    let leaf = m.add_function(b.finish());
    let calls = m.add_function(looping("calls", FuncKind::Normal, |b, _| {
        b.call_void(leaf, &[]);
    }));
    forward(&mut m, "thread_main", FuncKind::Normal, calls);
    let n = 2_000_000;
    time_program(&m, 1, |_, _| vec![0, 1_000]);
    let secs = time_program(&m, 1, |_, _| vec![0, n]);
    report("interp/call_leaf (per call)", secs / n as f64);

    // A resume under `depth` IR frames: 16 cores in lock step, each in one
    // long transaction whose `depth`-th nested helper loads the core's own
    // line in a loop, so that every load suspends the core and resumes it
    // with the same instructions between loads at every depth.
    for depth in [1, 4] {
        let mut m = Module::new();
        let mut inner = m.add_function(looping("h1", FuncKind::Normal, |b, p| {
            b.load(p, 0);
        }));
        for d in 2..=depth {
            inner = forward(&mut m, &format!("h{d}"), FuncKind::Normal, inner);
        }
        let tx = forward(&mut m, "tx", FuncKind::Atomic { ab_id: 0 }, inner);
        forward(&mut m, "thread_main", FuncKind::Normal, tx);
        let loads = 20_000;
        let args = |n| move |t: usize, lines: u64| vec![lines + 64 * t as u64, n];
        time_program(&m, 16, args(1_000));
        let secs = time_program(&m, 16, args(loads));
        let label = format!("interp/lockstep_tx_load/depth_{depth} (per op)");
        report(&label, secs / (16 * loads) as f64);
    }
}

fn main() {
    bench_history();
    bench_policy();
    bench_anchor_table();
    bench_compile_pass();
    bench_locks();
    bench_scheduler();
    bench_tx_access();
    bench_interpreter();
    bench_interp_layer();
}
