//! Property test: deadline enforcement is invisible to well-behaved
//! clients. For any (pair, explainer, seed, samples) a prompt client
//! sends, the response body served under an active per-connection
//! [`Deadline`] must be byte-identical to a direct explainer call — the
//! lifecycle hardening may only change *when* a connection dies, never
//! *what* a healthy one receives (DESIGN.md §14).
//!
//! The server runs with a deliberately small-but-sufficient budget so
//! every request executes with a live, counting deadline (reads and
//! writes all pass through `DeadlineStream` with real socket timeouts
//! armed), not an effectively-infinite one.

use std::sync::OnceLock;
use std::time::Duration;

use em_codec::explain::{decode_explain_request, encode_pair, run_explain};
use em_codec::Value;
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{EmDataset, EntityPair, MatchModel, Schema};
use em_matchers::LogisticMatcher;
use em_serve::client;
use em_serve::{Server, ServerConfig, ServerHandle};
use proptest::prelude::*;

/// One server + one trained matcher shared by every proptest case: the
/// cases differ only in request content, and training per case would
/// dominate the suite. The cache is disabled-by-miss (each distinct
/// config is a distinct key), so equivalence is checked on the compute
/// path, not the cache path.
struct Fixture {
    schema: Schema,
    dataset: EmDataset,
    matcher: LogisticMatcher,
    handle: ServerHandle,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let dataset = MagellanBenchmark::scaled(0.05).generate(DatasetId::SFz);
        let schema = dataset.schema().clone();
        let matcher = LogisticMatcher::train(&dataset);
        let server = Server::bind(
            "127.0.0.1:0",
            schema.clone(),
            Box::new(matcher.clone()),
            ServerConfig {
                workers: 2,
                // Small but sufficient: a well-behaved loopback client
                // finishes in milliseconds; the deadline is live either
                // way because every read/write arms a real socket
                // timeout from the remaining budget.
                request_timeout: Duration::from_secs(10),
                max_queue_age: Duration::from_secs(10),
                ..Default::default()
            },
        )
        .expect("bind");
        let handle = server.spawn();
        Fixture {
            schema,
            dataset,
            matcher,
            handle,
        }
    })
}

fn request_body(
    schema: &Schema,
    pair: &EntityPair,
    explainer: &str,
    n_samples: usize,
    seed: u64,
) -> String {
    Value::object(vec![
        ("pair", encode_pair(schema, pair)),
        ("explainer", Value::string(explainer)),
        (
            "config",
            Value::object(vec![
                ("n_samples", n_samples.into()),
                ("seed", Value::Number(seed as f64)),
            ]),
        ),
    ])
    .to_json()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn served_bytes_match_direct_explainer_under_a_live_deadline(
        record_idx in 0usize..8,
        explainer_idx in 0usize..3,
        n_samples in prop_oneof![Just(16usize), Just(32), Just(48)],
        seed in prop_oneof![Just(0u64), Just(7), Just(12345)],
    ) {
        let fx = fixture();
        let explainer = ["landmark", "landmark-single", "lime"][explainer_idx];
        let pair = &fx.dataset.records()[record_idx % fx.dataset.records().len()].pair;
        let body = request_body(&fx.schema, pair, explainer, n_samples, seed);

        // Ground truth: the explainer invoked directly, no server, no
        // sockets, no deadline anywhere near it.
        let decoded = decode_explain_request(&body, &fx.schema).expect("request decodes");
        let boxed: Box<dyn MatchModel + Send + Sync> = Box::new(fx.matcher.clone());
        let direct = run_explain(&boxed, &fx.schema, &decoded, em_obs::noop()).to_json();

        // Served twice — cold then cached — both under the live deadline.
        let cold = client::request(fx.handle.addr(), "POST", "/explain", &body)
            .expect("cold request");
        prop_assert_eq!(cold.status, 200);
        prop_assert_eq!(&cold.body, &direct);
        let cached = client::request(fx.handle.addr(), "POST", "/explain", &body)
            .expect("cached request");
        prop_assert_eq!(cached.status, 200);
        prop_assert_eq!(&cached.body, &direct);
    }
}
