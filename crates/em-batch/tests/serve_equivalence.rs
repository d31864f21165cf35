//! Cross-crate byte-equality: a record's `response` field in the batch
//! output must be **byte-identical** to what `em-serve` returns over HTTP
//! for the same pair, explainer, and seed. Both paths run through
//! `em_codec::explain::run_explain` and the shared
//! shortest-roundtrip JSON writer, so this holds by construction — the
//! test pins the contract across the crate boundary, including the wire.
//!
//! The replay leg also pins seed fidelity: the `seed` recorded on each
//! batch line must be the exact `u64` the explainer consumed, even
//! though it crosses two JSON (f64) boundaries — the output line and the
//! replayed request body. `record_seed` masks derived seeds below 2^53
//! to make that hold for any base seed `plan` accepts.

use std::path::{Path, PathBuf};

use em_batch::{execute, plan, NoFailpoints, PlanConfig, RunMode};
use em_codec::explain::ExplainerKind;
use em_codec::json::Value;
use em_codec::ExplainOptions;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{dataset_to_csv, EmDataset};
use em_matchers::{load_logistic_file, FeatureExtractor, LogisticMatcher};
use em_par::ParallelismConfig;
use em_serve::{client, Server, ServerConfig};

const N_SAMPLES: usize = 16;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em-batch-serve-eq-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn write_input(dir: &Path, n_records: usize) -> PathBuf {
    let full = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
    let small = EmDataset::new(
        full.name(),
        full.schema().clone(),
        full.records()[..n_records].to_vec(),
    );
    let path = dir.join("input.csv");
    std::fs::write(&path, dataset_to_csv(&small)).expect("write input");
    path
}

/// Builds the `POST /explain` body that replays one batch record: same
/// pair (as recorded in the line), same explainer, same per-record seed.
fn replay_body(line: &Value, explainer: &str) -> String {
    let seed = line
        .get("seed")
        .and_then(Value::as_u64)
        .expect("seed field");
    Value::object(vec![
        ("pair", line.get("pair").expect("pair field").clone()),
        ("explainer", Value::string(explainer)),
        (
            "config",
            Value::object(vec![
                ("n_samples", N_SAMPLES.into()),
                ("seed", Value::Number(seed as f64)),
            ]),
        ),
    ])
    .to_json()
}

/// Plans + runs a batch job, then replays every record line against a
/// live server built from the same persisted model, asserting (1) the
/// recorded seed is exactly the plan's derived seed and (2) the
/// `response` field matches the served body byte for byte.
fn assert_batch_replays_byte_identically(name: &str, base_seed: u64, n_records: usize) {
    let dir = scratch(name);
    let input = write_input(&dir, n_records);
    let run_dir = dir.join("run");

    // Batch side: plan + run.
    let config = PlanConfig {
        shards: 2,
        seed: base_seed,
        explainer: ExplainerKind::Landmark,
        n_samples: N_SAMPLES,
        threads: 2,
    };
    let batch_plan = plan::create_plan(&input, &run_dir, &config).expect("plan");
    execute(
        &run_dir,
        RunMode::Fresh,
        None,
        &NoFailpoints,
        em_obs::noop(),
    )
    .expect("run");

    // Server side: the *same* persisted model the batch run used.
    let dataset = plan::read_input(&input).expect("read input");
    let schema = dataset.schema().clone();
    let model = load_logistic_file(&run_dir.join(plan::MODEL_FILE), &schema).expect("load model");
    let matcher = LogisticMatcher::from_parts(FeatureExtractor::fit(&dataset), model);
    let server = Server::bind(
        "127.0.0.1:0",
        schema,
        Box::new(matcher),
        ServerConfig {
            parallelism: ParallelismConfig::serial(),
            defaults: ExplainOptions::default(),
            ..Default::default()
        },
    )
    .expect("bind server");
    let handle = server.spawn();
    let addr = handle.addr();

    // Replay every batch record against the server and compare bytes.
    let mut compared = 0;
    for shard in 0..batch_plan.shards {
        let text =
            std::fs::read_to_string(batch_plan.shard_path(&run_dir, shard)).expect("read shard");
        for raw_line in text.lines() {
            let line = Value::parse(raw_line).expect("parse line");
            // The recorded seed survived JSON exactly and is the seed
            // the plan derives for this record.
            let index = line.get("index").and_then(Value::as_u64).expect("index") as usize;
            let seed = line.get("seed").and_then(Value::as_u64).expect("seed");
            assert_eq!(seed, batch_plan.record_seed(index), "record {index}");
            // The shared writer is canonical: re-serializing the parsed
            // `response` reproduces the exact bytes the batch run wrote.
            let batch_bytes = line.get("response").expect("response").to_json();

            let served = client::request(
                addr,
                "POST",
                "/explain",
                &replay_body(&line, batch_plan.explainer.name()),
            )
            .expect("replay request");
            assert_eq!(served.status, 200, "{}", served.body);
            assert_eq!(
                served.body, batch_bytes,
                "served response differs from batch record (shard {shard})"
            );
            compared += 1;
        }
    }
    assert_eq!(compared, n_records);

    let bye = client::request(addr, "POST", "/shutdown", "").expect("shutdown");
    assert_eq!(bye.status, 200);
    handle.join();
}

#[test]
fn batch_response_bytes_equal_served_response_bytes() {
    assert_batch_replays_byte_identically("main", 99, 4);
}

#[test]
fn timestamp_scale_base_seed_still_replays_byte_identically() {
    // Regression (review finding): derived seeds were serialized through
    // f64 unmasked, so any base seed above ~2^22 recorded a rounded seed
    // the explainer never used and the server replay diverged. A
    // milliseconds-since-epoch base seed is the realistic worst case.
    // (4 records, like the main test: the training subset must contain
    // both label classes.)
    assert_batch_replays_byte_identically("large-seed", 1_754_600_000_000, 4);
}
