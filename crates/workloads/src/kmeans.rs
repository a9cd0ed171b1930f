//! kmeans (STAMP): clustering with transactional center accumulators.
//!
//! The assignment phase reads the *previous* iteration's centers with plain
//! loads and pure compute (no conflicts, as in STAMP); each point then
//! commits its coordinates into the chosen cluster's accumulator record in
//! one transaction. Conflicts happen when two threads update the same
//! cluster concurrently — Table 1's `LA = N, LP = Y` class: the first-access
//! PC recurs but the address wanders over clusters, so coarse-grain
//! activation locks the *current* cluster record ("close to what fine-grain
//! locking could achieve", Section 6.2).
//!
//! Layout: `old_centers` and the accumulators are arrays of K records; each
//! record `{0: count, 1..=D: sums}` is padded to whole cache lines so
//! clusters never false-share.

use crate::{alloc_stat_slots, stat_slot, sum_slots, Workload};
use htm_sim::Machine;
use tm_interp::RunOutcome;
use tm_ir::{FuncBuilder, FuncKind, Module};

/// The kmeans benchmark (paper input: `-m15 -n15 -t0.05 -i random-n2048-d16-c16`).
#[derive(Debug, Clone)]
pub struct Kmeans {
    pub n_points: u64,
    pub n_clusters: u64,
    pub dims: u64,
    /// Modeled distance-computation work per point, in cycles.
    pub assign_cycles: u32,
}

impl Default for Kmeans {
    fn default() -> Self {
        Kmeans {
            n_points: 2048,
            n_clusters: 16,
            dims: 16,
            assign_cycles: 100,
        }
    }
}

impl Kmeans {
    pub fn tiny() -> Kmeans {
        Kmeans {
            n_points: 200,
            n_clusters: 4,
            dims: 4,
            assign_cycles: 60,
        }
    }

    /// Words per center record, padded to whole lines.
    fn stride(&self) -> u64 {
        (self.dims + 1).div_ceil(8) * 8
    }

    /// Words per point record: `{0: label, 1..=D: coords}`.
    fn point_stride(&self) -> u64 {
        self.dims + 1
    }
}

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn build_module(&self) -> Module {
        let mut m = Module::new();

        // atomic tx_add_point(center_rec, point, dims):
        //   center_rec.count += 1; for d: center_rec.sums[d] += point[1+d]
        let mut b = FuncBuilder::new("tx_add_point", 3, FuncKind::Atomic { ab_id: 0 });
        let (rec, point, dims) = (b.param(0), b.param(1), b.param(2));
        let cnt = b.load(rec, 0);
        let cnt2 = b.addi(cnt, 1);
        b.store(cnt2, rec, 0);
        let d = b.const_(0);
        b.while_(
            |b| b.lt(d, dims),
            |b| {
                let coord = b.load_idx(point, d, 1);
                let cur = b.load_idx(rec, d, 1);
                let sum = b.add(cur, coord);
                b.store_idx(sum, rec, d, 1);
                let nx = b.addi(d, 1);
                b.assign(d, nx);
            },
        );
        b.ret(None);
        let tx_add = m.add_function(b.finish());

        // thread_main(points, old_centers, accum, start, count, k, dims,
        //             c_stride, p_stride, slot) -> points processed
        let mut b = FuncBuilder::new("thread_main", 10, FuncKind::Normal);
        let points = b.param(0);
        let old_centers = b.param(1);
        let accum = b.param(2);
        let start = b.param(3);
        let count = b.param(4);
        let k = b.param(5);
        let dims = b.param(6);
        let c_stride = b.param(7);
        let p_stride = b.param(8);
        let slot = b.param(9);

        let i = b.const_(0);
        b.while_(
            |b| b.lt(i, count),
            |b| {
                let pidx = b.add(start, i);
                let poff = b.mul(pidx, p_stride);
                let point = b.gep(points, poff, 0);
                // Assignment phase: scan the previous centers (plain reads
                // of stable data) and compute distances.
                let c = b.const_(0);
                b.while_(
                    |b| b.lt(c, k),
                    |b| {
                        let coff = b.mul(c, c_stride);
                        let crec = b.gep(old_centers, coff, 0);
                        let _c0 = b.load(crec, 1);
                        b.compute(self.assign_cycles / 8);
                        let nx = b.addi(c, 1);
                        b.assign(c, nx);
                    },
                );
                b.compute(self.assign_cycles);
                // The point's label stands in for the argmin result.
                let label = b.load(point, 0);
                let aoff = b.mul(label, c_stride);
                let arec = b.gep(accum, aoff, 0);
                b.call_void(tx_add, &[arec, point, dims]);
                let nx = b.addi(i, 1);
                b.assign(i, nx);
            },
        );
        b.store(i, slot, 0);
        b.ret(Some(i));
        m.add_function(b.finish());

        tm_ir::verify_module(&m).expect("kmeans module verifies");
        m
    }

    fn setup(&self, machine: &Machine, n_threads: usize) -> Vec<Vec<u64>> {
        let mut rng = stagger_prng::Xoshiro256StarStar::seed_from_u64(0x6B6D65616E73);
        let p_stride = self.point_stride();
        let c_stride = self.stride();

        let points = machine.host_alloc(self.n_points * p_stride, true);
        for p in 0..self.n_points {
            let base = points + p * p_stride * 8;
            machine.host_store(base, rng.below(self.n_clusters));
            for d in 0..self.dims {
                machine.host_store(base + 8 * (1 + d), rng.below(1000));
            }
        }
        let old_centers = machine.host_alloc(self.n_clusters * c_stride, true);
        for c in 0..self.n_clusters * c_stride {
            machine.host_store(old_centers + c * 8, rng.below(1000));
        }
        let accum = machine.host_alloc(self.n_clusters * c_stride, true);
        let slots = alloc_stat_slots(machine, n_threads);

        let per = self.n_points / n_threads as u64;
        (0..n_threads)
            .map(|t| {
                vec![
                    points,
                    old_centers,
                    accum,
                    t as u64 * per,
                    per,
                    self.n_clusters,
                    self.dims,
                    c_stride,
                    p_stride,
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
        let points = thread_args[0][0];
        let accum = thread_args[0][2];
        let n_threads = thread_args.len();
        let slots_base = thread_args[0][9];
        let c_stride = self.stride();
        let p_stride = self.point_stride();

        let processed = sum_slots(machine, slots_base, n_threads, 0);
        // Sum of cluster counts == points processed.
        let total_count: u64 = (0..self.n_clusters)
            .map(|c| machine.host_load(accum + c * c_stride * 8))
            .sum();
        if total_count != processed {
            return Err(format!(
                "cluster counts {total_count} != points processed {processed}"
            ));
        }
        // Per-dimension sums match a host-side recomputation over the
        // processed prefix of each thread's partition.
        let per = self.n_points / n_threads as u64;
        let mut expect = vec![0u64; (self.n_clusters * self.dims) as usize];
        for t in 0..n_threads as u64 {
            let done = machine.host_load(stat_slot(slots_base, t as usize));
            for p in t * per..t * per + done {
                let base = points + p * p_stride * 8;
                let label = machine.host_load(base);
                for d in 0..self.dims {
                    expect[(label * self.dims + d) as usize] +=
                        machine.host_load(base + 8 * (1 + d));
                }
            }
        }
        for c in 0..self.n_clusters {
            for d in 0..self.dims {
                let got = machine.host_load(accum + (c * c_stride + 1 + d) * 8);
                let want = expect[(c * self.dims + d) as usize];
                if got != want {
                    return Err(format!("cluster {c} dim {d}: sum {got} != {want}"));
                }
            }
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
    fn kmeans_correct_in_all_modes() {
        let w = Kmeans::tiny();
        for mode in Mode::ALL {
            let r = run_benchmark(&w, mode, 4, 5);
            assert_eq!(
                r.out.exec.committed_txns + r.out.exec.irrevocable_txns,
                200,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn kmeans_contends_on_few_clusters() {
        let mut w = Kmeans::tiny();
        w.n_points = 400;
        w.n_clusters = 2; // force heavy collisions
        let base = run_benchmark(&w, Mode::Htm, 8, 2);
        assert!(
            base.out.sim.aborts_per_commit() > 0.2,
            "2 clusters x 8 threads must contend, got {:.3}",
            base.out.sim.aborts_per_commit()
        );
        let stag = run_benchmark(&w, Mode::Staggered, 8, 2);
        assert!(stag.out.sim.aborts_per_commit() < base.out.sim.aborts_per_commit());
    }
}
