//! `snoc`: regenerate the paper's results, time the hot paths, serve
//! sweeps, or run one configuration (`snoc` with no arguments prints
//! usage).

fn main() {
    std::process::exit(snoc_bench::main());
}
