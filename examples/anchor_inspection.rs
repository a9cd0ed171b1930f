//! Compiler explorer: reproduce the paper's Figure 3 walk-through.
//!
//! Builds the genome-style atomic block (`vector_at` + `hashtable_insert` +
//! chain search), runs Data Structure Analysis and the Staggered
//! Transactions compiler pass over it, and prints the instrumented
//! disassembly plus the unified anchor table — anchors, pioneers, parents,
//! PCs and 12-bit tags.
//!
//! Run with: `cargo run --release --example anchor_inspection`

use staggered_tx::htm_sim::MachineConfig;
use staggered_tx::stagger_compiler::compile;
use staggered_tx::tm_ir::{self, FuncBuilder, FuncKind, Module};

fn genome_like() -> Module {
    let mut m = Module::new();

    // TMlist_find(list, key): walk the sorted bucket chain. — lib/list.c
    let mut b = FuncBuilder::new("TMlist_find", 2, FuncKind::Normal);
    let (list, key) = (b.param(0), b.param(1));
    let node = b.load(list, 0);
    b.while_(
        |b| b.nei(node, 0),
        |b| {
            let k = b.load(node, 0);
            let _found = b.eq(k, key);
            let nx = b.load(node, 1);
            b.assign(node, nx);
        },
    );
    b.ret(Some(node));
    let list_find = m.add_function(b.finish());

    // TMhashtable_insert(ht, key) — lib/hashtable.c
    let mut b = FuncBuilder::new("TMhashtable_insert", 2, FuncKind::Normal);
    let (ht, key) = (b.param(0), b.param(1));
    let nb = b.load(ht, 0); // hashtablePtr->numBucket
    let i = b.bin(tm_ir::BinOp::Rem, key, nb);
    let bucket = b.load_idx(ht, i, 1); // hashtablePtr->buckets[i]
    let r = b.call(list_find, &[bucket, key]);
    b.ret(Some(r));
    let ht_insert = m.add_function(b.finish());

    // vector_at(vec, i) — lib/vector.c:164
    let mut b = FuncBuilder::new("vector_at", 2, FuncKind::Normal);
    let (vec, i) = (b.param(0), b.param(1));
    let sz = b.load(vec, 0); // vectorPtr->size
    let oob = b.ge(i, sz);
    b.if_(oob, |b| b.ret_const(0));
    let v = b.load_idx(vec, i, 1); // vectorPtr->elements[i]
    b.ret(Some(v));
    let vector_at = m.add_function(b.finish());

    // The atomic block — genome/sequencer.c:292
    let mut b = FuncBuilder::new("tx_insert_segments", 4, FuncKind::Atomic { ab_id: 0 });
    let (ht, vec) = (b.param(0), b.param(1));
    let ii = b.mov(b.param(2));
    let stop = b.param(3);
    b.while_(
        |b| b.lt(ii, stop),
        |b| {
            let seg = b.call(vector_at, &[vec, ii]);
            b.call_void(ht_insert, &[ht, seg]);
            let nx = b.addi(ii, 1);
            b.assign(ii, nx);
        },
    );
    b.ret(None);
    m.add_function(b.finish());
    m
}

fn main() {
    let module = genome_like();
    let compiled = compile(&module);

    println!("=== instrumented disassembly ===============================\n");
    print!("{}", tm_ir::display::format_module(&compiled.module));

    println!("=== compile statistics =====================================\n");
    println!(
        "loads/stores analyzed: {}   instrumented as anchors: {} ({:.0}%)",
        compiled.stats.loads_stores,
        compiled.stats.anchors,
        compiled.stats.anchor_fraction() * 100.0
    );

    println!("\n=== unified anchor table for atomic block 0 (cf. Figure 3) ==\n");
    let t = compiled.table(0);
    let mask = MachineConfig::default().pc_tag_mask();
    println!(
        "{:<6} {:>10} {:>6} {:>8} {:>8} {:>8}  in function",
        "kind", "pc", "tag", "anchor", "pioneer", "parent"
    );
    for e in &t.entries {
        let func = &compiled.module.func(e.inst.func).name;
        if e.is_anchor {
            println!(
                "{:<6} {:>#10x} {:>#6x} {:>8} {:>8} {:>8}  {}",
                "ANCHOR",
                e.pc,
                e.pc & mask,
                e.anchor_id,
                "-",
                if e.parent_anchor == 0 {
                    "0".to_string()
                } else {
                    format!("#{}", e.parent_anchor)
                },
                func
            );
        } else {
            println!(
                "{:<6} {:>#10x} {:>#6x} {:>8} {:>8} {:>8}  {}",
                "",
                e.pc,
                e.pc & mask,
                "-",
                format!("#{}", e.anchor_id),
                "-",
                func
            );
        }
    }

    println!();
    println!("Reading the table: the chain-walk anchor inside TMlist_find has the");
    println!("TMhashtable_insert anchor as its *parent* — the locking-promotion");
    println!("target that lets the policy escalate from one bucket chain to the");
    println!("whole table, breaking cross-bucket conflict cycles (paper Section 5.2).");
}
