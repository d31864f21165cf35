//! End-to-end pipeline tests: plan → run → verify on a real (synthetic)
//! dataset, plus byte-identical concatenated output at any shard count.
//! The root `differential_oracle` test checks the thread-count claim.

use std::path::{Path, PathBuf};

use em_batch::{execute, plan, verify_run, BatchError, PlanConfig, RunMode};
use em_codec::json::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{dataset_to_csv, EmDataset};
use landmark_core::ExplainerKind;

const N_RECORDS: usize = 10;
const N_SAMPLES: usize = 16;

#[expect(
    clippy::disallowed_methods,
    reason = "test scratch directory: the path never reaches an output byte"
)]
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em-batch-pipeline-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A small real input: the first records of a generated benchmark set.
fn write_input(dir: &Path) -> PathBuf {
    let full = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let small = EmDataset::new(
        full.name(),
        full.schema().clone(),
        full.records()[..N_RECORDS].to_vec(),
    );
    let path = dir.join("input.csv");
    std::fs::write(&path, dataset_to_csv(&small)).expect("write input");
    path
}

fn config(shards: usize) -> PlanConfig {
    PlanConfig {
        shards,
        seed: 42,
        explainer: ExplainerKind::Landmark,
        n_samples: N_SAMPLES,
        threads: 1,
    }
}

/// Plans and runs to completion (including the summary, as the CLI
/// does); returns the concatenated shard bytes.
fn run_to_completion(input: &Path, run_dir: &Path, shards: usize, threads: usize) -> Vec<u8> {
    let plan = plan::create_plan(input, run_dir, &config(shards)).expect("plan");
    let collector = em_obs::Collector::new();
    let outcome = execute(run_dir, RunMode::Fresh, Some(threads), None, &collector).expect("run");
    em_batch::summary::write_summary(run_dir, &plan, &outcome, &collector).expect("summary");
    assert_eq!(outcome.shards_run, (0..shards).collect::<Vec<_>>());
    assert_eq!(outcome.records_explained, N_RECORDS);
    let mut bytes = Vec::new();
    for shard in 0..shards {
        bytes.extend(std::fs::read(plan.shard_path(run_dir, shard)).expect("read shard"));
    }
    bytes
}

#[test]
fn full_run_produces_verified_wellformed_output() {
    let dir = scratch("full");
    let input = write_input(&dir);
    let run_dir = dir.join("run");
    let bytes = run_to_completion(&input, &run_dir, 3, 2);

    // Every line is a well-formed record with a served-shape response.
    let text = String::from_utf8(bytes).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), N_RECORDS);
    for (i, line) in lines.iter().enumerate() {
        let v = Value::parse(line).unwrap();
        assert_eq!(v.get("index").and_then(Value::as_u64), Some(i as u64));
        assert!(v.get("label").and_then(Value::as_bool).is_some());
        let response = v.get("response").unwrap();
        assert_eq!(
            response.get("explainer").and_then(Value::as_str),
            Some("landmark")
        );
        let views = response
            .get("explanations")
            .and_then(Value::as_array)
            .unwrap();
        assert_eq!(views.len(), 2, "landmark returns both views");
    }

    let report = verify_run(&run_dir).unwrap();
    assert!(report.is_complete_and_ok(), "{report:?}");
    assert_eq!(report.shards_ok, 3);

    // The run wrote a summary with the em-obs stage table.
    let summary =
        Value::parse(&std::fs::read_to_string(run_dir.join("summary.json")).unwrap()).unwrap();
    assert_eq!(
        summary.get("records_explained").and_then(Value::as_u64),
        Some(N_RECORDS as u64)
    );
    assert_eq!(
        summary
            .get("stages")
            .and_then(Value::as_array)
            .map(<[Value]>::len),
        Some(em_obs::N_STAGES)
    );
}

#[test]
fn concatenated_output_is_byte_identical_across_shard_counts() {
    let dir = scratch("shards");
    let input = write_input(&dir);
    let two = run_to_completion(&input, &dir.join("s2"), 2, 2);
    let five = run_to_completion(&input, &dir.join("s5"), 5, 2);
    assert_eq!(two, five);
}

#[test]
fn fresh_run_refuses_a_started_directory() {
    let dir = scratch("refuse");
    let input = write_input(&dir);
    let run_dir = dir.join("run");
    run_to_completion(&input, &run_dir, 2, 1);
    assert!(matches!(
        execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()),
        Err(BatchError::Plan(_))
    ));
    // Resume on a complete run is a no-op, not an error.
    let outcome = execute(&run_dir, RunMode::Resume, None, None, em_obs::noop()).unwrap();
    assert!(outcome.shards_run.is_empty());
    assert_eq!(outcome.shards_skipped, 2);
}

#[test]
fn changed_input_is_detected_before_any_work() {
    let dir = scratch("input-changed");
    let input = write_input(&dir);
    let run_dir = dir.join("run");
    plan::create_plan(&input, &run_dir, &config(2)).unwrap();
    let mut text = std::fs::read_to_string(&input).unwrap();
    text.push_str("1,tampered,x,tampered,x,tampered,x,tampered,x\n");
    std::fs::write(&input, text).unwrap();
    assert!(matches!(
        execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()),
        Err(BatchError::InputChanged { .. })
    ));
}

#[test]
fn only_sample_counts_a_request_may_carry_are_planned_and_run() {
    let dir = scratch("n-samples");
    let input = write_input(&dir);
    // The top of the wire's range plans.
    let top = PlanConfig {
        n_samples: 1_000_000,
        ..config(2)
    };
    plan::create_plan(&input, &dir.join("top"), &top).unwrap();
    // A plan edited below the range is refused before any shard runs.
    let run_dir = dir.join("edited");
    plan::create_plan(&input, &run_dir, &config(2)).unwrap();
    let plan_path = run_dir.join(plan::PLAN_FILE);
    let text = std::fs::read_to_string(&plan_path).unwrap();
    let needle = format!("\"n_samples\":{N_SAMPLES}");
    assert!(text.contains(&needle), "{text}");
    std::fs::write(&plan_path, text.replace(&needle, "\"n_samples\":0")).unwrap();
    assert!(matches!(
        execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()),
        Err(BatchError::Plan(_))
    ));
    assert!(!run_dir.join(plan::MANIFEST_FILE).exists());
}

#[test]
fn a_single_label_input_is_refused_before_anything_is_written() {
    // The first 5 label-0 rows of `em-batch gen --dataset S-FZ --scale 0.05`.
    let dir = scratch("single-label");
    let full = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let non_matches = full
        .records()
        .iter()
        .filter(|r| !r.label)
        .take(5)
        .cloned()
        .collect();
    let input = dir.join("input.csv");
    let one_label = EmDataset::new(full.name(), full.schema().clone(), non_matches);
    std::fs::write(&input, dataset_to_csv(&one_label)).unwrap();

    let run_dir = dir.join("run");
    match plan::create_plan(&input, &run_dir, &config(1)) {
        Err(BatchError::Plan(msg)) => assert!(msg.contains("both labels"), "{msg}"),
        other => panic!("expected a plan error, got {other:?}"),
    }
    assert!(!run_dir.exists(), "plan left {} behind", run_dir.display());

    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_em-batch"))
        .arg("plan")
        .arg("--input")
        .arg(&input)
        .arg("--run")
        .arg(&run_dir)
        .args(["--shards", "1", "--seed", "1", "--n-samples", "8"])
        .output()
        .expect("run em-batch");
    let stderr = String::from_utf8_lossy(&cli.stderr);
    assert_eq!(cli.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("both labels"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(
        !run_dir.exists(),
        "em-batch plan left {} behind",
        run_dir.display()
    );
}

#[test]
fn concurrent_execute_on_one_run_directory_is_rejected() {
    let dir = scratch("locked");
    let input = write_input(&dir);
    let run_dir = dir.join("run");
    plan::create_plan(&input, &run_dir, &config(2)).unwrap();
    // Hold the run lock the way a concurrent process would: flock
    // conflicts across file descriptions, including within one process.
    let lock = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .truncate(false)
        .open(run_dir.join(plan::LOCK_FILE))
        .unwrap();
    lock.lock().unwrap();
    assert!(matches!(
        execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()),
        Err(BatchError::Locked { .. })
    ));
    // Releasing the lock unblocks the run.
    drop(lock);
    execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()).unwrap();
    assert!(verify_run(&run_dir).unwrap().is_complete_and_ok());
}

#[test]
fn verify_reports_a_torn_manifest_tail_without_repairing_it() {
    let dir = scratch("verify-torn");
    let input = write_input(&dir);
    let run_dir = dir.join("run");
    run_to_completion(&input, &run_dir, 2, 1);
    let manifest_path = run_dir.join(plan::MANIFEST_FILE);
    let mut bytes = std::fs::read(&manifest_path).unwrap();
    bytes.extend_from_slice(b"{\"shard\":2,\"rec");
    std::fs::write(&manifest_path, &bytes).unwrap();

    let report = verify_run(&run_dir).unwrap();
    assert_eq!(report.shards_ok, 2);
    assert!(report.problems.is_empty(), "{report:?}");
    assert_eq!(report.torn_manifest_bytes, 15);
    assert!(!report.is_complete_and_ok());
    // verify is read-only: the torn bytes remain for resume to heal.
    assert_eq!(std::fs::read(&manifest_path).unwrap(), bytes);
}

#[test]
fn verify_flags_a_corrupted_shard() {
    let dir = scratch("corrupt");
    let input = write_input(&dir);
    let run_dir = dir.join("run");
    run_to_completion(&input, &run_dir, 2, 1);
    let plan = plan::RunPlan::load(&run_dir).unwrap();
    let victim = plan.shard_path(&run_dir, 1);
    let mut bytes = std::fs::read(&victim).unwrap();
    bytes[0] ^= 1;
    std::fs::write(&victim, bytes).unwrap();
    let report = verify_run(&run_dir).unwrap();
    assert_eq!(report.shards_ok, 1);
    assert_eq!(report.problems.len(), 1);
    assert!(report.problems[0].contains("hash"), "{report:?}");
}
