//! Beyond-the-paper optimization: the fused sliding-window scan
//! (`ScanEngine::Fused`, the sheet kernel of `haralick::fused`) against the
//! paper's per-placement rebuild, applied to the HMP implementation at
//! cluster scale. The per-placement pair visits drop from W·|D| to about
//! 2·W/(Wx·Wy)·|D|.

fn main() {
    let s = pipeline::experiments::fig_incremental(&bench::model());
    bench::print_table(
        "Incremental window optimization — HMP implementation (seconds)",
        "HMP nodes",
        &s,
    );
    bench::write_outputs(
        "fig_incremental",
        &s,
        "Incremental sliding-window optimization (HMP)",
        "HMP nodes",
        "execution time (s)",
    );
}
