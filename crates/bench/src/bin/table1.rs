//! Regenerates Table 1: the benchmark inventory (size, % match).
//!
//! Run with: `SCALE=1.0 cargo run --release -p bench --bin table1`

use em_datagen::MagellanBenchmark;
use em_eval::tables::format_table1;

fn main() {
    let config = bench::config_from_env();
    let datasets = bench::datasets_from_env();
    bench::print_banner("Table 1", &config, &datasets);

    let benchmark = MagellanBenchmark {
        scale: config.scale,
        ..Default::default()
    };
    let rows: Vec<_> = datasets
        .iter()
        .map(|&id| {
            let d = benchmark.generate(id);
            (id, d.len(), d.match_percentage())
        })
        .collect();
    bench::outln!("{}", format_table1(&rows));
    bench::outln!("Paper reference (full scale): S-BR 450/15.11, S-IA 539/24.49, S-FZ 946/11.63,");
    bench::outln!("S-DA 12363/17.96, S-DG 28707/18.63, S-AG 11460/10.18, S-WA 10242/9.39,");
    bench::outln!(
        "T-AB 9575/10.74, D-IA 539/24.49, D-DA 12363/17.96, D-DG 28707/18.63, D-WA 10242/9.39"
    );
}
