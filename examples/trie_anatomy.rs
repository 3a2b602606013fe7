//! Reproduces the paper's **Figure 2**: the internal anatomy of the
//! Adaptive Cell Trie and its lookup table — node counts per depth, slot
//! occupancy, the tagged-slot mix (child / one candidate / one true hit /
//! lookup-table offset), and a decoded lookup walk for one query point.
//!
//! ```text
//! cargo run --release -p act-examples --example trie_anatomy
//! ```

use act_core::{coord_to_cell, ActIndex, Probe};
use geom::Coord;

fn main() {
    let ds = datagen::neighborhoods(42);
    let index = ActIndex::build(&ds.polygons, 15.0).unwrap();
    let act = index.act();
    let st = index.stats();

    println!("ADAPTIVE CELL TRIE — structure (cf. paper Figure 2a)");
    println!("dataset: {} ({} polygons)", ds.name, ds.polygons.len());
    println!(
        "precision ε = {} m  →  terminal level {}",
        st.precision_m, st.terminal_level
    );
    println!();
    println!("indexed cells:       {:>12}", st.indexed_cells);
    println!("denormalized slots:  {:>12}", st.denormalized_slots);
    println!(
        "trie nodes:          {:>12}  (fanout 256, 1 KiB each)",
        act.num_nodes()
    );
    println!("trie memory:         {:>12} bytes", act.memory_bytes());
    println!("lookup table:        {:>12} bytes", st.lookup_table_bytes);
    println!();

    let ts = act.stats();
    println!(
        "{:<7} {:>8} {:>12} {:>10}",
        "depth", "nodes", "occupied", "fill"
    );
    for (d, (&nodes, &occ)) in ts
        .nodes_per_depth
        .iter()
        .zip(&ts.occupied_per_depth)
        .enumerate()
    {
        println!(
            "{:<7} {:>8} {:>12} {:>9.1}%  (quadtree levels {}..={})",
            d,
            nodes,
            occ,
            100.0 * occ as f64 / (nodes * 256) as f64,
            d * 4 + 1,
            d * 4 + 4
        );
    }
    let (cand, hit, offs) = ts.terminals;
    println!();
    println!(
        "terminal slots: {cand} candidate refs, {hit} true-hit refs, {offs} lookup-table offsets"
    );
    println!("(4-byte slots inline one polygon reference; ≥2 go through the lookup table)");

    // Walk one lookup and narrate it (Figure 2's dashed lookup path).
    let q = Coord::new(-73.9855, 40.7580);
    let leaf = coord_to_cell(q);
    println!();
    println!("lookup walk for {q} (leaf cell {leaf}):");
    println!(
        "  key bytes: {:?}",
        (0..7).map(|d| leaf.key_byte(d)).collect::<Vec<_>>()
    );
    match index.as_view().probe_cell(leaf) {
        Probe::Miss => println!("  → miss (sentinel)"),
        Probe::One(r) => println!(
            "  → single inline reference: polygon {} ({})",
            r.id,
            if r.interior { "true hit" } else { "candidate" }
        ),
        Probe::Table(off) => {
            let (t, c) = index.table().decode(off);
            println!("  → lookup-table offset {off}: true hits {t:?}, candidates {c:?}");
            println!("     encoded as [n_true, true..., n_cand, cand...] (Figure 2b)");
        }
    }
}
