//! labyrinth (STAMP): transactional grid routing (Lee's algorithm,
//! simplified).
//!
//! Each transaction routes a two-segment (x-then-y) rectilinear path across
//! a shared grid: it first reads every cell on the path, and — if all are
//! free — claims them all. Transactions are *long* and their footprints
//! overlap often: the paper's high-W/U, high-contention datapoint (3.47
//! aborts/commit, speedup only 1.9). STAMP uses privatization + early
//! release to shrink read sets; we keep the fully transactional variant and
//! a 2-D grid (documented in DESIGN.md) — the conflict pattern (wandering
//! addresses, stable PCs) is the same.
//!
//! Layout: row-major grid of W×H words, 0 = free, otherwise marker id.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

/// The labyrinth benchmark (paper input: `random-x16-y16-z3-n64`, scaled
/// to 2-D).
#[derive(Debug, Clone)]
pub struct Labyrinth {
    pub width: u64,
    pub height: u64,
    /// Route attempts across all threads.
    pub total_ops: u64,
    /// Path-planning work per attempt, in cycles.
    pub plan_cycles: u32,
}

impl Default for Labyrinth {
    fn default() -> Self {
        Labyrinth {
            width: 24,
            height: 24,
            total_ops: 1024,
            plan_cycles: 300,
        }
    }
}

impl Labyrinth {
    pub fn tiny() -> Labyrinth {
        Labyrinth {
            width: 12,
            height: 12,
            total_ops: 192,
            plan_cycles: 80,
        }
    }
}

impl Workload for Labyrinth {
    fn name(&self) -> &'static str {
        "labyrinth"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();

        // step_toward(cur, dst) -> cur±1 (or cur when equal)
        let mut b = FuncBuilder::new("step_toward", 2, FuncKind::Normal);
        let (cur, dst) = (b.param(0), b.param(1));
        let lt = b.lt(cur, dst);
        b.if_(lt, |b| {
            let n = b.addi(cur, 1);
            b.ret(Some(n));
        });
        let gt = b.gt(cur, dst);
        b.if_(gt, |b| {
            let n = b.subi(cur, 1);
            b.ret(Some(n));
        });
        b.ret(Some(cur));
        let step = m.add_function(b.finish());

        // scan_path(grid, w, sx, sy, dx, dy, marker) -> cells touched, or 0
        // if blocked; marker == 0 means "check only", nonzero writes.
        let mut b = FuncBuilder::new("scan_path", 7, FuncKind::Normal);
        let grid = b.param(0);
        let w = b.param(1);
        let sx = b.param(2);
        let sy = b.param(3);
        let dx = b.param(4);
        let dy = b.param(5);
        let marker = b.param(6);
        let x = b.mov(sx);
        let y = b.mov(sy);
        let cells = b.const_(0);
        let writing = b.nei(marker, 0);

        // Visit (x, y), then step x toward dx; when x == dx step y.
        let l = b.begin_loop();
        let row = b.mul(y, w);
        let off = b.add(row, x);
        let cell = b.gep(grid, off, 0);
        b.if_else(
            writing,
            |b| b.store(marker, cell, 0),
            |b| {
                let v = b.load(cell, 0);
                let busy = b.nei(v, 0);
                b.if_(busy, |b| b.ret_const(0));
            },
        );
        let c2 = b.addi(cells, 1);
        b.assign(cells, c2);
        let x_done = b.eq(x, dx);
        let y_done = b.eq(y, dy);
        let both = b.bin(tm_ir::BinOp::And, x_done, y_done);
        b.break_if(l, both);
        b.if_else(
            x_done,
            |b| {
                let ny = b.call(step, &[y, dy]);
                b.assign(y, ny);
            },
            |b| {
                let nx = b.call(step, &[x, dx]);
                b.assign(x, nx);
            },
        );
        b.end_loop(l);
        b.ret(Some(cells));
        let scan = m.add_function(b.finish());

        // erase_path(grid, w, sx, sy, dx, dy) -> cells freed: the rip-up
        // half of rip-up-and-reroute; walks the same x-then-y path writing
        // zeros (all cells belong to the calling thread's previous route).
        let mut b = FuncBuilder::new("erase_path", 6, FuncKind::Normal);
        let grid = b.param(0);
        let w = b.param(1);
        let sx = b.param(2);
        let sy = b.param(3);
        let dx = b.param(4);
        let dy = b.param(5);
        let x = b.mov(sx);
        let y = b.mov(sy);
        let cells = b.const_(0);
        let l = b.begin_loop();
        let row = b.mul(y, w);
        let off = b.add(row, x);
        let cell = b.gep(grid, off, 0);
        b.store_const(0, cell, 0);
        let c2 = b.addi(cells, 1);
        b.assign(cells, c2);
        let x_done = b.eq(x, dx);
        let y_done = b.eq(y, dy);
        let both = b.bin(tm_ir::BinOp::And, x_done, y_done);
        b.break_if(l, both);
        b.if_else(
            x_done,
            |b| {
                let ny = b.call(step, &[y, dy]);
                b.assign(y, ny);
            },
            |b| {
                let nx = b.call(step, &[x, dx]);
                b.assign(x, nx);
            },
        );
        b.end_loop(l);
        b.ret(Some(cells));
        let erase = m.add_function(b.finish());

        // atomic tx_route(grid, w, sx, sy, dx, dy, marker) -> cells claimed
        let mut b = FuncBuilder::new("tx_route", 7, FuncKind::Atomic { ab_id: 0 });
        let args: Vec<_> = (0..7).map(|i| b.param(i)).collect();
        let zero = b.const_(0);
        let free = b.call(
            scan,
            &[args[0], args[1], args[2], args[3], args[4], args[5], zero],
        );
        let blocked = b.eqi(free, 0);
        b.if_(blocked, |b| b.ret_const(0));
        let claimed = b.call(
            scan,
            &[
                args[0], args[1], args[2], args[3], args[4], args[5], args[6],
            ],
        );
        b.ret(Some(claimed));
        let tx_route = m.add_function(b.finish());

        // atomic tx_rip_up(grid, w, sx, sy, dx, dy) -> cells freed
        let mut b = FuncBuilder::new("tx_rip_up", 6, FuncKind::Atomic { ab_id: 1 });
        let args: Vec<_> = (0..6).map(|i| b.param(i)).collect();
        let freed = b.call(
            erase,
            &[args[0], args[1], args[2], args[3], args[4], args[5]],
        );
        b.ret(Some(freed));
        let tx_rip_up = m.add_function(b.finish());

        // thread_main(grid, w, h, ops, marker, slot) -> routes done
        //
        // Rip-up-and-reroute: each successful route replaces the thread's
        // previous one (previous path freed in its own transaction), so the
        // grid reaches a contended steady state instead of saturating.
        let mut b = FuncBuilder::new("thread_main", 6, FuncKind::Normal);
        let grid = b.param(0);
        let w = b.param(1);
        let h = b.param(2);
        let ops = b.param(3);
        let marker = b.param(4);
        let slot = b.param(5);
        let i = b.const_(0);
        let routed = b.const_(0);
        let cells = b.const_(0);
        let freed = b.const_(0);
        let have_prev = b.const_(0);
        let psx = b.const_(0);
        let psy = b.const_(0);
        let pdx = b.const_(0);
        let pdy = b.const_(0);
        b.while_(
            |b| b.lt(i, ops),
            |b| {
                let sx = b.rand(w);
                let sy = b.rand(h);
                let dx = b.rand(w);
                let dy = b.rand(h);
                b.compute(self.plan_cycles); // path planning outside txn
                let got = b.call(tx_route, &[grid, w, sx, sy, dx, dy, marker]);
                let okc = b.nei(got, 0);
                b.if_(okc, |b| {
                    let r2 = b.addi(routed, 1);
                    b.assign(routed, r2);
                    let s = b.add(cells, got);
                    b.assign(cells, s);
                    // Rip up the previous route, then remember this one.
                    let had = b.nei(have_prev, 0);
                    b.if_(had, |b| {
                        let fr = b.call(tx_rip_up, &[grid, w, psx, psy, pdx, pdy]);
                        let f2 = b.add(freed, fr);
                        b.assign(freed, f2);
                    });
                    b.assign(psx, sx);
                    b.assign(psy, sy);
                    b.assign(pdx, dx);
                    b.assign(pdy, dy);
                    b.assign_const(have_prev, 1);
                });
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(routed, slot, 0);
        b.store(cells, slot, 1);
        b.store(freed, slot, 2);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("labyrinth module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let grid = machine.host_alloc(self.width * self.height, true);
        let slots = alloc_stat_slots(machine, n_threads);
        let per = self.total_ops / n_threads as u64;
        (0..n_threads)
            .map(|t| {
                vec![
                    grid,
                    self.width,
                    self.height,
                    per,
                    t as u64 + 1, // nonzero per-thread marker
                    stat_slot(slots, t),
                ]
            })
            .collect()
    }

    fn validate(
        &self,
        machine: &Machine,
        thread_args: &[Vec<u64>],
        _out: &RunOutcome,
    ) -> Result<(), String> {
        let grid = thread_args[0][0];
        let slots_base = thread_args[0][5];
        let n_threads = thread_args.len();

        // Disjoint claims: every nonzero cell carries a valid thread
        // marker (x-then-y paths are self-avoiding, and a route only
        // claims cells it saw free, so no cell is ever double-claimed).
        // Conservation: occupied cells == claimed − ripped-up.
        let mut occupied = 0u64;
        for i in 0..self.width * self.height {
            let v = machine.host_load(grid + i * 8);
            if v != 0 {
                if v > n_threads as u64 {
                    return Err(format!("cell {i} has bad marker {v}"));
                }
                occupied += 1;
            }
        }
        let claimed = sum_slots(machine, slots_base, n_threads, 1);
        let freed = sum_slots(machine, slots_base, n_threads, 2);
        if occupied != claimed - freed {
            return Err(format!(
                "grid has {occupied} occupied cells, claimed {claimed} - freed {freed} = {}",
                claimed - freed
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_benchmark;
    use stagger_core::Mode;

    #[test]
    fn labyrinth_correct_in_all_modes() {
        let w = Labyrinth::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 71);
            // One route attempt per op, plus a rip-up txn per success.
            assert!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns >= 192,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn labyrinth_contends_with_long_transactions() {
        let w = Labyrinth::tiny();
        let r = run_benchmark(&w, Mode::Htm, 8, 73);
        assert!(
            r.out.sim.aborts_per_commit() > 0.3,
            "overlapping paths must contend, got {:.2}",
            r.out.sim.aborts_per_commit()
        );
    }
}
