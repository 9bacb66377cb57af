//! Figures 5–7 arithmetic: verifies DRESAR's claim that switch-directory
//! processing fits inside the base crossbar's 4-cycle window — for the 4x4
//! design with a 2-way multiported directory, and for the 8x8 design with
//! the §4.3 pending buffer — and shows the naive 8x8 failing without it.

use dresar::switchdir::PortScheduler;
use dresar_types::msg::MsgType::{self, *};

fn show(name: &str, s: PortScheduler, batch: &[MsgType]) {
    let w = s.schedule(batch);
    println!(
        "{name:46} lookups: main {} cyc, pending {} cyc; update slack {}; {}",
        w.main_lookup_cycles,
        w.pending_lookup_cycles,
        w.update_cycles_free,
        if w.within_budget { "WITHIN BUDGET" } else { "OVER BUDGET (feedback/blocking)" }
    );
}

fn main() {
    // No options: the parser only rejects stray arguments (a scale is accepted
    // for uniformity with the other binaries and has no effect).
    dresar_bench::Cli::from_env(dresar_workloads::Scale::Reduced, &[], &[]);
    println!("DRESAR cycle-budget check (window = 4 cycles, per §4.2/§4.3)\n");
    let mix4 = [ReadRequest, WriteReply, WriteBack, CtoCRequest];
    let mix8 = [
        ReadRequest,
        WriteRequest,
        WriteReply,
        ReadRequest,
        WriteBack,
        CopyBack,
        CtoCRequest,
        Retry,
    ];
    let reads8 = [ReadRequest; 8];

    show("4x4, 2-ported directory, mixed 4-batch", PortScheduler::paper_4x4(), &mix4);
    show(
        "8x8, 2-ported directory, NO pending buffer",
        PortScheduler { window_cycles: 4, main_ports: 2, pending_ports: 0 },
        &mix8,
    );
    show("8x8, 2-ported dir + 4-ported pending buffer", PortScheduler::paper_8x8(), &mix8);
    show("8x8, pathological all-ReadRequest batch", PortScheduler::paper_8x8(), &reads8);
    show(
        "8x8, 4-ported directory (paper's costly fix)",
        PortScheduler { window_cycles: 4, main_ports: 4, pending_ports: 4 },
        &reads8,
    );
}
