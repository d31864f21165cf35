//! The differential oracle: one request gets the same bytes from every
//! entry point — the library call (`run_explain`), an `em-batch` line,
//! an `em-serve` body and an `em-route` body — for all five explainer
//! kinds, cold and cached, at one worker and at several. The paper's
//! tables are the fifth entry point: an `Evaluator` run gives the same
//! results at any thread count.
//!
//! One fixture, built once, serves every test. It holds the pair in two
//! forms, each with its own matcher and servers:
//!
//! * the **CSV form**, as `em-batch` reads it: the first records of S-FZ
//!   written with `dataset_to_csv`, five plans (one per kind) each run at
//!   1 and at 3 batch threads, and the matcher the plans persisted,
//!   re-attached the way `em-batch run` does;
//! * the **typed form**, as `em-serve --dataset` builds it: typed S-FZ
//!   and a matcher trained on it.
//!
//! Each form is served by em-serve at 1 and at 2 workers, and by em-route
//! (2 workers) over two 2-worker backends, all under a finite request
//! timeout, so every socket read and write runs under a live deadline.
//! The tests run in parallel on the shared servers; each sends keys no
//! other test sends, so the first answer to a key is a cache miss.

use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use em_batch::{execute, plan, PlanConfig, RunMode, RunPlan};
use em_codec::explain::{
    cache_key, encode_explain_request, encode_pair, encode_prediction, run_explain, ExplainRequest,
    SEED_LIMIT,
};
use em_codec::Value;
use em_entity::{dataset_to_csv, MATCH_THRESHOLD};
use em_matchers::{load_logistic_file, FeatureExtractor};
use em_route::{BackendSpec, HealthConfig, Router, RouterConfig};
use em_serve::{client, Server, ServerConfig};
use landmark_explanation::eval::{EvalConfig, Evaluator};
use landmark_explanation::landmark::ExplainerKind;
use landmark_explanation::prelude::*;
use proptest::prelude::*;

/// Records of S-FZ (scale 0.05) in the CSV form, and in the property's
/// record range for both forms.
const RECORDS: usize = 8;
/// Every batch plan's shard count and sample count.
const SHARDS: usize = 2;
const BATCH_SAMPLES: usize = 16;
/// The landmark plan's base seed, a millisecond timestamp: the seeds it
/// derives exceed 2^53 unless `RunPlan::record_seed` masks them.
const TIMESTAMP_SEED: u64 = 1_754_600_000_000;
/// The other four plans' base seed.
const BASE_SEED: u64 = 99;
/// The batch thread counts every plan runs at.
const BATCH_THREADS: [usize; 2] = [1, 3];
/// Every tier's request timeout and queue-age bound.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// The property's sample counts: the fewest, the batch plans' count and
/// more.
const PROPERTY_SAMPLES: [usize; 3] = [1, 16, 48];
/// The property's seeds: zero, a small one and the largest JSON carries
/// exactly. No batch line has one of them, so the two tests never share
/// a key.
const PROPERTY_SEEDS: [u64; 3] = [0, 7, SEED_LIMIT - 1];

/// One form of the pairs: its records, the matcher that scores them and
/// every tier that serves that matcher.
struct Form {
    name: &'static str,
    dataset: EmDataset,
    matcher: LogisticMatcher,
    /// `(tier, address)` of each server and the router.
    tiers: [(&'static str, SocketAddr); 3],
}

/// One batch plan, run once per batch thread count.
struct Run {
    plan: RunPlan,
    /// The run directories, in [`BATCH_THREADS`] order.
    dirs: [PathBuf; 2],
}

struct Fixture {
    csv: Form,
    typed: Form,
    /// One run per kind, in [`ExplainerKind::ALL`] order.
    runs: Vec<Run>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let full = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
        let dir = scratch();
        let input = dir.join("input.csv");
        let head = EmDataset::new(
            full.name(),
            full.schema().clone(),
            full.records()[..RECORDS].to_vec(),
        );
        std::fs::write(&input, dataset_to_csv(&head)).expect("write input");
        let runs: Vec<Run> = ExplainerKind::ALL
            .into_iter()
            .map(|kind| batch_run(&dir, &input, kind))
            .collect();

        let csv = plan::read_input(&input).expect("read input");
        let model = load_logistic_file(&runs[0].dirs[0].join(plan::MODEL_FILE), csv.schema())
            .expect("load model");
        let csv_matcher = LogisticMatcher::from_parts(FeatureExtractor::fit(&csv), model);
        let typed_matcher = LogisticMatcher::train(&full);
        Fixture {
            csv: Form::serve("CSV", csv, csv_matcher),
            typed: Form::serve("typed", full, typed_matcher),
            runs,
        }
    })
}

#[expect(
    clippy::disallowed_methods,
    reason = "test scratch directory: the path never reaches a shard or manifest byte"
)]
fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join("landmark-differential-oracle");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Plans `kind` over `input` once per batch thread count and runs each
/// plan at its count.
fn batch_run(dir: &Path, input: &Path, kind: ExplainerKind) -> Run {
    let seed = if kind == ExplainerKind::Landmark {
        TIMESTAMP_SEED
    } else {
        BASE_SEED
    };
    let dirs = BATCH_THREADS.map(|threads| {
        let run_dir = dir.join(format!("{}-t{threads}", kind.name()));
        let config = PlanConfig {
            shards: SHARDS,
            seed,
            explainer: kind,
            n_samples: BATCH_SAMPLES,
            threads,
        };
        plan::create_plan(input, &run_dir, &config).expect("plan");
        execute(&run_dir, RunMode::Fresh, None, None, em_obs::noop()).expect("run");
        run_dir
    });
    Run {
        plan: RunPlan::load(&dirs[0]).expect("load plan"),
        dirs,
    }
}

fn spawn_server(schema: &Schema, matcher: &LogisticMatcher, workers: usize) -> SocketAddr {
    let config = ServerConfig {
        workers,
        request_timeout: REQUEST_TIMEOUT,
        max_queue_age: REQUEST_TIMEOUT,
        ..Default::default()
    };
    Server::bind(
        "127.0.0.1:0",
        schema.clone(),
        Box::new(matcher.clone()),
        config,
    )
    .expect("bind server")
    .spawn()
    .addr()
}

fn spawn_router(schema: &Schema, matcher: &LogisticMatcher) -> SocketAddr {
    let backends = (0..2)
        .map(|i| BackendSpec::new(format!("b{i}"), spawn_server(schema, matcher, 2)))
        .collect();
    let config = RouterConfig {
        workers: 2,
        request_timeout: REQUEST_TIMEOUT,
        max_queue_age: REQUEST_TIMEOUT,
        // One active probe, at start: a later one that timed out on a
        // loaded host could eject a backend and send a key's cached
        // repeat to the other backend, which never saw it.
        health: HealthConfig {
            probe_interval: Duration::from_secs(600),
            ..Default::default()
        },
        ..Default::default()
    };
    Router::bind("127.0.0.1:0", schema.clone(), backends, config)
        .expect("bind router")
        .spawn()
        .addr()
}

impl Form {
    fn serve(name: &'static str, dataset: EmDataset, matcher: LogisticMatcher) -> Form {
        let schema = dataset.schema();
        let tiers = [
            ("em-serve, 1 worker", spawn_server(schema, &matcher, 1)),
            ("em-serve, 2 workers", spawn_server(schema, &matcher, 2)),
            ("em-route", spawn_router(schema, &matcher)),
        ];
        Form {
            name,
            dataset,
            matcher,
            tiers,
        }
    }

    fn schema(&self) -> &Schema {
        self.dataset.schema()
    }

    /// The library's answer to `request`.
    fn library(&self, request: &ExplainRequest) -> String {
        run_explain(&self.matcher, self.schema(), request, em_obs::noop()).to_json()
    }

    /// Sends `request` to every tier twice: the first answer must come
    /// with `X-Cache: first`, the second from the cache, and both must be
    /// `expected`.
    fn assert_served(&self, request: &ExplainRequest, expected: &str, first: &str) {
        let body = encode_explain_request(self.schema(), request);
        for (tier, addr) in self.tiers {
            for cache in [first, "hit"] {
                let what = format!(
                    "{} form, {tier}, {} record {:?} (n_samples {}, seed {}), {cache}",
                    self.name,
                    request.explainer.name(),
                    request.pair.left.value(0),
                    request.config.n_samples,
                    request.config.seed,
                );
                let response = client::request(addr, "POST", "/explain", &body)
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(response.status, 200, "{what}: {}", response.body);
                assert_eq!(response.header("x-cache"), Some(cache), "{what}");
                assert_eq!(response.body, expected, "{what}");
            }
        }
    }

    /// `/predict` on every tier equals the matcher's probability, encoded.
    fn assert_predicted(&self, pair: &EntityPair) {
        let probability = self.matcher.predict_proba(self.schema(), pair);
        let expected = encode_prediction(probability, MATCH_THRESHOLD).to_json();
        let body = Value::object(vec![("pair", encode_pair(self.schema(), pair))]).to_json();
        for (tier, addr) in self.tiers {
            let response = client::request(addr, "POST", "/predict", &body).expect("predict");
            assert_eq!(response.status, 200, "{} form, {tier}", self.name);
            assert_eq!(response.body, expected, "{} form, {tier}", self.name);
        }
    }
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Check 1: the batch run's bytes do not depend on its thread count, and
/// every plan persisted the same matcher.
#[test]
fn batch_bytes_are_equal_at_every_thread_count() {
    let fx = fixture();
    let model = read(&fx.runs[0].dirs[0].join(plan::MODEL_FILE));
    for run in &fx.runs {
        let kind = run.plan.explainer.name();
        let [serial, parallel] = &run.dirs;
        for dir in &run.dirs {
            assert_eq!(read(&dir.join(plan::MODEL_FILE)), model, "{kind} model");
        }
        for shard in 0..run.plan.shards {
            assert_eq!(
                read(&run.plan.shard_path(serial, shard)),
                read(&run.plan.shard_path(parallel, shard)),
                "{kind} shard {shard} at {BATCH_THREADS:?} threads"
            );
        }
        assert_eq!(
            read(&serial.join(plan::MANIFEST_FILE)),
            read(&parallel.join(plan::MANIFEST_FILE)),
            "{kind} manifest at {BATCH_THREADS:?} threads"
        );
    }
}

/// Check 2: every batch line records the plan's seed for its record, and
/// its response is the library call and every tier's body, cold and
/// cached.
#[test]
fn every_batch_line_is_the_library_call_and_every_served_body() {
    let fx = fixture();
    let form = &fx.csv;
    let mut lines = 0;
    for run in &fx.runs {
        let plan = &run.plan;
        for shard in 0..plan.shards {
            let text = String::from_utf8(read(&plan.shard_path(&run.dirs[0], shard)))
                .expect("shard is UTF-8");
            for line in text.lines() {
                let parsed = Value::parse(line).expect("line is JSON");
                let index = parsed.get("index").and_then(Value::as_u64).expect("index") as usize;
                let seed = parsed.get("seed").and_then(Value::as_u64).expect("seed");
                assert_eq!(
                    seed,
                    plan.record_seed(index),
                    "{:?} record {index}",
                    plan.explainer
                );
                assert!(
                    !PROPERTY_SEEDS.contains(&seed),
                    "seed {seed} is the property's"
                );
                let request = ExplainRequest {
                    pair: form.dataset.records()[index].pair.clone(),
                    explainer: plan.explainer,
                    config: ExplainConfig {
                        n_samples: plan.n_samples,
                        seed,
                        ..Default::default()
                    },
                };
                assert_eq!(
                    parsed.get("pair"),
                    Some(&encode_pair(form.schema(), &request.pair))
                );
                // `response` is the line's last field, written by the
                // serving tiers' writer: its bytes are the line's tail.
                let response = line
                    .split_once(r#","response":"#)
                    .and_then(|(_, tail)| tail.strip_suffix('}'))
                    .expect("response field");
                assert_eq!(response, form.library(&request), "{line}");
                form.assert_served(&request, response, "miss");
                lines += 1;
            }
        }
    }
    assert_eq!(lines, ExplainerKind::ALL.len() * RECORDS);
}

/// Keys the property has sent, so that a case drawn twice expects its
/// second first answer from the cache.
fn first_send(form: &Form, request: &ExplainRequest) -> bool {
    static SENT: Mutex<BTreeSet<(&str, String)>> = Mutex::new(BTreeSet::new());
    SENT.lock()
        .expect("sent keys")
        .insert((form.name, cache_key(form.schema(), request)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Check 3: the online legs agree for any form, record, kind, sample
    /// count and seed, cold and cached, and `/predict` agrees too.
    #[test]
    fn every_tier_answers_the_library_call(
        typed in any::<bool>(),
        record in 0..RECORDS,
        kind in 0..ExplainerKind::ALL.len(),
        samples in 0..PROPERTY_SAMPLES.len(),
        seed in 0..PROPERTY_SEEDS.len(),
    ) {
        let fx = fixture();
        let form = if typed { &fx.typed } else { &fx.csv };
        let request = ExplainRequest {
            pair: form.dataset.records()[record].pair.clone(),
            explainer: ExplainerKind::ALL[kind],
            config: ExplainConfig {
                n_samples: PROPERTY_SAMPLES[samples],
                seed: PROPERTY_SEEDS[seed],
                ..Default::default()
            },
        };
        let first = if first_send(form, &request) { "miss" } else { "hit" };
        form.assert_served(&request, &form.library(&request), first);
        form.assert_predicted(&request.pair);
    }
}

/// Check 4: the paper's tables, explained across records, are the same
/// at any thread count.
#[test]
fn dataset_evaluation_is_identical_for_any_thread_count() {
    let base = EvalConfig {
        scale: 0.05,
        n_records_per_label: 4,
        n_samples: 60,
        ..Default::default()
    };
    let run = |threads: usize| {
        Evaluator::new(EvalConfig { threads, ..base }).evaluate_dataset(DatasetId::SBr)
    };
    let serial = run(1);
    let parallel = run(4);
    for (a, b) in [
        (&serial.matching, &parallel.matching),
        (&serial.non_matching, &parallel.non_matching),
    ] {
        assert_eq!(a.n_records, b.n_records);
        for (x, y) in a.techniques.iter().zip(&b.techniques) {
            assert_eq!(x.technique, y.technique);
            assert_eq!(x.token, y.token);
            assert_eq!(x.attr_tau.to_bits(), y.attr_tau.to_bits());
            assert_eq!(x.interest.to_bits(), y.interest.to_bits());
        }
    }
}
