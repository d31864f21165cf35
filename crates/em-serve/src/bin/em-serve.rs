//! The `em-serve` binary: trains (or loads) a logistic matcher on a
//! benchmark dataset and serves explanations over HTTP.
//!
//! ```text
//! em-serve --dataset S-FZ --scale 0.25 --port 8080 --threads 0
//! curl -s localhost:8080/healthz
//! ```

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::process::ExitCode;
use std::time::Duration;

use em_datagen::{DatasetId, MagellanBenchmark};
use em_matchers::{load_logistic_file, save_logistic_file, FeatureExtractor, LogisticMatcher};
use em_serve::{Server, ServerConfig};

const USAGE: &str = "\
em-serve — explanation-serving HTTP API

USAGE:
    em-serve [FLAGS]

FLAGS:
    --host HOST          bind address           [default: 127.0.0.1]
    --port PORT          bind port              [default: 8080]
    --threads N          worker threads, 0=auto [default: 0]
    --queue-depth N      pending connections    [default: 64]
    --cache-size N       cached explanations    [default: 1024]
    --cache-shards N     cache shards           [default: 8]
    --dataset NAME       Table 1 dataset (e.g. S-FZ, T-AB) [default: S-FZ]
    --scale F            dataset size multiplier in (0,1]  [default: 0.25]
    --slow-ms N          slow-request log threshold (ms), 0 disables [default: 1000]
    --request-timeout-ms N  total per-request read+write budget (ms) [default: 30000]
    --queue-age-ms N     discard connections queued longer than this (ms) [default: 10000]
    --model PATH         load logistic coefficients instead of training
    --save-model PATH    write trained coefficients after startup training
    --help               print this help
";

/// The command line: the server's own [`ServerConfig`], and what it does not hold.
struct Args {
    host: String,
    port: u16,
    dataset: DatasetId,
    scale: f64,
    model: Option<String>,
    save_model: Option<String>,
    config: ServerConfig,
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 8080,
        dataset: DatasetId::SFz,
        scale: 0.25,
        model: None,
        save_model: None,
        config: ServerConfig::default(),
    };
    let config = &mut args.config;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag}: {what} (got {value:?})");
        let positive_ms = || {
            value
                .parse()
                .ok()
                .filter(|n| *n > 0)
                .map(Duration::from_millis)
                .ok_or_else(|| bad("expected a positive integer"))
        };
        match flag.as_str() {
            "--host" => args.host = value.clone(),
            "--port" => args.port = value.parse().map_err(|_| bad("expected a port"))?,
            "--threads" => {
                config.workers = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--queue-depth" => {
                config.queue_depth = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--cache-size" => {
                config.cache_capacity = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--cache-shards" => {
                config.cache_shards = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--dataset" => args.dataset = DatasetId::parse(value)?,
            "--scale" => {
                args.scale = value
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 1.0)
                    .ok_or_else(|| bad("expected a number in (0, 1]"))?
            }
            "--slow-ms" => {
                let ms: u64 = value.parse().map_err(|_| bad("expected an integer"))?;
                config.slow_request_ms = (ms > 0).then_some(ms);
            }
            "--request-timeout-ms" => config.request_timeout = positive_ms()?,
            "--queue-age-ms" => config.max_queue_age = positive_ms()?,
            "--model" => args.model = Some(value.clone()),
            "--save-model" => args.save_model = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(args))
}

fn run(args: Args) -> Result<(), String> {
    eprintln!(
        "em-serve: generating dataset {} (scale {})",
        args.dataset.short_name(),
        args.scale
    );
    let dataset = MagellanBenchmark::scaled(args.scale).generate(args.dataset);
    let schema = dataset.schema().clone();

    let matcher = match &args.model {
        Some(path) => {
            // The extractor's corpus statistics are refit from the dataset;
            // only the logistic coefficients come from the file.
            let model = load_logistic_file(std::path::Path::new(path), &schema)
                .map_err(|e| format!("loading {path}: {e}"))?;
            eprintln!("em-serve: loaded model from {path}");
            LogisticMatcher::from_parts(FeatureExtractor::fit(&dataset), model)
        }
        None => {
            eprintln!("em-serve: training logistic matcher");
            LogisticMatcher::train(&dataset)
        }
    };
    if let Some(path) = &args.save_model {
        save_logistic_file(std::path::Path::new(path), matcher.model(), &schema)
            .map_err(|e| format!("saving {path}: {e}"))?;
        eprintln!("em-serve: saved model to {path}");
    }

    let workers = em_par::worker_count(args.config.workers);
    let server = Server::bind(
        (args.host.as_str(), args.port),
        schema,
        Box::new(matcher),
        args.config,
    )
    .map_err(|e| format!("binding {}:{}: {e}", args.host, args.port))?;
    eprintln!(
        "em-serve: listening on http://{} ({} workers; POST /explain, /predict; GET /healthz, /metrics)",
        server.local_addr(),
        workers
    );
    server.run();
    eprintln!("em-serve: shut down cleanly");
    Ok(())
}

#[expect(
    clippy::disallowed_methods,
    reason = "command-line arguments configure the process; every request and plan is resolved from its own bytes"
)]
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv) {
        Ok(None) => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Ok(Some(args)) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("em-serve: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("em-serve: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
