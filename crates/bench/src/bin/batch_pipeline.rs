//! Batch-pipeline throughput: records/second of `em-batch` end-to-end
//! (plan once, run at several worker-thread counts), with a byte-identity
//! cross-check that every thread count produced the same output.
//!
//! Run with: `cargo run --release -p bench --bin batch_pipeline`

use std::path::{Path, PathBuf};
use std::time::Instant;

use em_batch::{execute, plan, PlanConfig, RunMode};
use em_datagen::MagellanBenchmark;
use em_entity::{dataset_to_csv, EmDataset};
use landmark_core::ExplainerKind;

#[expect(
    clippy::disallowed_methods,
    reason = "test scratch directory: the path never reaches an output byte"
)]
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-batch-pipeline-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn concatenated(run_dir: &Path, shards: usize) -> Vec<u8> {
    let plan = plan::RunPlan::load(run_dir).expect("load plan");
    let mut bytes = Vec::new();
    for shard in 0..shards {
        bytes.extend(std::fs::read(plan.shard_path(run_dir, shard)).expect("read shard"));
    }
    bytes
}

#[expect(
    clippy::disallowed_methods,
    reason = "a measurement tool: it is configured from the environment and times with the clock, and no output of the explainers depends on either"
)]
fn main() {
    let base = bench::config_from_env();
    let id = bench::datasets_from_env()[0];
    bench::outln!(
        "# Batch pipeline throughput (dataset {}, n_samples {})\n",
        id.short_name(),
        base.n_samples
    );

    let dir = scratch();
    let full = MagellanBenchmark {
        scale: base.scale,
        ..Default::default()
    }
    .generate(id);
    let n_records = full.len().min(4 * base.n_records_per_label);
    let small = EmDataset::new(
        full.name(),
        full.schema().clone(),
        full.records()[..n_records].to_vec(),
    );
    let input = dir.join("input.csv");
    std::fs::write(&input, dataset_to_csv(&small)).expect("write input");

    let shards = 4.min(n_records);
    bench::outln!("{:>8} {:>10} {:>12}", "threads", "seconds", "records/s");
    let mut outputs: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 2, 4] {
        let run_dir = dir.join(format!("run-t{threads}"));
        plan::create_plan(
            &input,
            &run_dir,
            &PlanConfig {
                shards,
                seed: 42,
                explainer: ExplainerKind::Landmark,
                n_samples: base.n_samples,
                threads,
            },
        )
        .expect("plan");
        let start = Instant::now();
        execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()).expect("run");
        let secs = start.elapsed().as_secs_f64();
        bench::outln!(
            "{threads:>8} {secs:>10.3} {:>12.1}",
            n_records as f64 / secs
        );
        outputs.push(concatenated(&run_dir, shards));
    }

    let identical = outputs.windows(2).all(|w| w[0] == w[1]);
    bench::outln!(
        "\nbyte-identity across thread counts: {}",
        if identical { "ok" } else { "VIOLATED" }
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(identical, "outputs differ across thread counts");
}
