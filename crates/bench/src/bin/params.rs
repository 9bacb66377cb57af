//! Tables 2 & 3: prints the simulation parameters in use, as encoded by
//! the `paper_table2()` / `paper_table3()` presets.

use dresar_types::config::{SystemConfig, TraceSimConfig};

fn main() {
    // No options: the parser only rejects stray arguments (a scale is accepted
    // for uniformity with the other binaries and has no effect).
    dresar_bench::Cli::from_env(dresar_workloads::Scale::Reduced, &[], &[]);
    let t2 = SystemConfig::paper_table2();
    println!("Table 2: Execution-Driven Simulation Parameters");
    println!("  nodes                : {}", t2.nodes);
    println!("  processor            : 200 MHz, {}-way issue", t2.processor.issue_width);
    println!(
        "  L1 cache             : {} KB, {} B lines, {}-way, {} cycle(s)",
        t2.l1.size_bytes / 1024,
        t2.l1.line_bytes,
        t2.l1.ways,
        t2.l1.access_cycles
    );
    println!(
        "  L2 cache             : {} KB, {} B lines, {}-way, {} cycles",
        t2.l2.size_bytes / 1024,
        t2.l2.line_bytes,
        t2.l2.ways,
        t2.l2.access_cycles
    );
    println!(
        "  memory               : {} cycles, {}-way interleaved, {} cycles controller occupancy",
        t2.memory.access_cycles, t2.memory.interleave, t2.memory.controller_occupancy
    );
    println!(
        "  switch               : {}x{} (radix {}), core {} cycles, 16-bit links, {} B flits ({} cycles/flit), {} VCs, {}-flit buffers",
        2 * t2.switch.radix,
        2 * t2.switch.radix,
        t2.switch.radix,
        t2.switch.core_cycles,
        t2.switch.flit_bytes,
        t2.switch.link_cycles_per_flit,
        t2.switch.virtual_channels,
        t2.switch.buffer_flits
    );
    println!("  BMIN                 : {} stages", t2.stages());
    if let Some(sd) = t2.switch_dir {
        println!(
            "  switch directory     : {} entries ({}-way, {} ports, {} pending)",
            sd.entries, sd.ways, sd.lookup_ports, sd.pending_buffer_entries
        );
    }

    let t3 = TraceSimConfig::paper_table3();
    println!("\nTable 3: Trace-Driven Simulation Parameters");
    println!(
        "  cache                : {} MB, {}-way, {} B lines, {} cycles",
        t3.cache.size_bytes / (1024 * 1024),
        t3.cache.ways,
        t3.cache.line_bytes,
        t3.cache.access_cycles
    );
    let l = t3.latencies;
    println!("  local memory access  : {} cycles", l.local_memory);
    println!("  CtoC (local home)    : {} cycles", l.ctoc_local_home);
    println!("  remote memory access : {} cycles", l.remote_memory);
    println!("  CtoC (remote home)   : {} cycles", l.ctoc_remote_home);
    println!("  switch-directory hit : {} cycles", l.switch_dir_hit);
    if let Some(sd) = t3.switch_dir {
        println!("  switch directory     : {} entries, {}-way", sd.entries, sd.ways);
    }
}
