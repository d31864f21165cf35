//! The `em-route` binary: a consistent-hash routing tier in front of N
//! `em-serve` backends.
//!
//! ```text
//! em-route --dataset S-FZ --port 8700 \
//!     --backend b0=127.0.0.1:8080 --backend b1=127.0.0.1:8081*2
//! curl -s localhost:8700/ring
//! ```
//!
//! The router holds no model — only the dataset *schema*, so it can
//! decode and key requests exactly as the backends do. Schema derivation
//! is `Domain::schema()` on the dataset's domain: no data generation, no
//! training, startup is instant.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use em_codec::ExplainOptions;
use em_datagen::{DatasetId, Domain};
use em_par::ParallelismConfig;
use em_route::{BackendSpec, HealthConfig, Router, RouterConfig};

const USAGE: &str = "\
em-route — consistent-hash routing tier for em-serve backends

USAGE:
    em-route --backend [NAME=]HOST:PORT[*WEIGHT] [--backend ...] [FLAGS]

FLAGS:
    --backend SPEC       backend as [NAME=]HOST:PORT[*WEIGHT]; repeatable.
                         NAME defaults to b0, b1, ...; WEIGHT defaults to 1
    --host HOST          bind address           [default: 127.0.0.1]
    --port PORT          bind port              [default: 8700]
    --threads N          proxy worker threads, 0=auto [default: 0]
    --queue-depth N      pending connections    [default: 128]
    --dataset NAME       Table 1 dataset the backends serve [default: S-FZ]
    --samples N          default perturbation samples (must match backends) [default: 500]
    --seed N             default explanation seed (must match backends)     [default: 0]
    --request-timeout-ms N   total per-request budget (ms)      [default: 30000]
    --queue-age-ms N         discard connections queued longer (ms) [default: 10000]
    --backend-timeout-ms N   one backend exchange budget (ms)   [default: 20000]
    --failover-retries N     extra ring owners tried on connect failure [default: 2]
    --failover-backoff-ms N  base backoff between failover hops (ms) [default: 20]
    --probe-interval-ms N    active /healthz probe period (ms)  [default: 500]
    --probe-timeout-ms N     one probe budget (ms)              [default: 500]
    --eject-threshold N      consecutive transport failures before ejection [default: 2]
    --eject-cooldown-ms N    ejected backend sit-out before half-open (ms) [default: 2000]
    --help               print this help
";

struct Args {
    host: String,
    port: u16,
    threads: usize,
    queue_depth: usize,
    dataset: DatasetId,
    samples: usize,
    seed: u64,
    request_timeout_ms: u64,
    queue_age_ms: u64,
    backend_timeout_ms: u64,
    failover_retries: usize,
    failover_backoff_ms: u64,
    probe_interval_ms: u64,
    probe_timeout_ms: u64,
    eject_threshold: u32,
    eject_cooldown_ms: u64,
    backends: Vec<BackendSpec>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            host: "127.0.0.1".to_string(),
            port: 8700,
            threads: 0,
            queue_depth: 128,
            dataset: DatasetId::SFz,
            samples: 500,
            seed: 0,
            request_timeout_ms: 30_000,
            queue_age_ms: 10_000,
            backend_timeout_ms: 20_000,
            failover_retries: 2,
            failover_backoff_ms: 20,
            probe_interval_ms: 500,
            probe_timeout_ms: 500,
            eject_threshold: 2,
            eject_cooldown_ms: 2_000,
            backends: Vec::new(),
        }
    }
}

fn parse_dataset(name: &str) -> Result<DatasetId, String> {
    DatasetId::from_short_name(name).ok_or_else(|| {
        let names: Vec<&str> = DatasetId::all().iter().map(|id| id.short_name()).collect();
        format!(
            "unknown dataset {name:?}; expected one of {}",
            names.join(", ")
        )
    })
}

/// Parses `[NAME=]HOST:PORT[*WEIGHT]`. `ordinal` supplies the default
/// name (`b0`, `b1`, ...).
fn parse_backend(spec: &str, ordinal: usize) -> Result<BackendSpec, String> {
    let bad = |what: &str| format!("--backend {spec:?}: {what}");
    let (name, rest) = match spec.split_once('=') {
        Some((name, rest)) if !name.is_empty() => (name.to_string(), rest),
        Some(_) => return Err(bad("empty backend name")),
        None => (format!("b{ordinal}"), spec),
    };
    let (addr_str, weight) = match rest.split_once('*') {
        Some((addr, w)) => (
            addr,
            w.parse::<u32>()
                .map_err(|_| bad("weight must be an integer"))?,
        ),
        None => (rest, 1),
    };
    let addr: SocketAddr = addr_str
        .parse()
        .map_err(|_| bad("expected HOST:PORT with a numeric host"))?;
    Ok(BackendSpec { name, addr, weight })
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = |what: &str| format!("{flag}: {what} (got {value:?})");
        match flag.as_str() {
            "--backend" => {
                let backend = parse_backend(value, args.backends.len())?;
                if args.backends.iter().any(|b| b.name == backend.name) {
                    return Err(format!("duplicate backend name {:?}", backend.name));
                }
                args.backends.push(backend);
            }
            "--host" => args.host = value.clone(),
            "--port" => args.port = value.parse().map_err(|_| bad("expected a port"))?,
            "--threads" => args.threads = value.parse().map_err(|_| bad("expected an integer"))?,
            "--queue-depth" => {
                args.queue_depth = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--dataset" => args.dataset = parse_dataset(value)?,
            "--samples" => {
                args.samples = value
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--request-timeout-ms" => {
                args.request_timeout_ms =
                    parse_positive(value).ok_or_else(|| bad("expected a positive integer"))?
            }
            "--queue-age-ms" => {
                args.queue_age_ms =
                    parse_positive(value).ok_or_else(|| bad("expected a positive integer"))?
            }
            "--backend-timeout-ms" => {
                args.backend_timeout_ms =
                    parse_positive(value).ok_or_else(|| bad("expected a positive integer"))?
            }
            "--failover-retries" => {
                args.failover_retries = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--failover-backoff-ms" => {
                args.failover_backoff_ms = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--probe-interval-ms" => {
                args.probe_interval_ms =
                    parse_positive(value).ok_or_else(|| bad("expected a positive integer"))?
            }
            "--probe-timeout-ms" => {
                args.probe_timeout_ms =
                    parse_positive(value).ok_or_else(|| bad("expected a positive integer"))?
            }
            "--eject-threshold" => {
                args.eject_threshold = value
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--eject-cooldown-ms" => {
                args.eject_cooldown_ms = value.parse().map_err(|_| bad("expected an integer"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.backends.is_empty() {
        return Err("at least one --backend is required".to_string());
    }
    Ok(Some(args))
}

fn parse_positive(value: &str) -> Option<u64> {
    value.parse().ok().filter(|n| *n > 0)
}

fn run(args: Args) -> Result<(), String> {
    // The schema comes from the dataset's domain directly — the router
    // never generates data or trains a model.
    let schema = Domain::new(args.dataset.spec().domain).schema();
    let config = RouterConfig {
        parallelism: ParallelismConfig::with_threads(args.threads),
        queue_depth: args.queue_depth,
        request_timeout: Duration::from_millis(args.request_timeout_ms),
        max_queue_age: Duration::from_millis(args.queue_age_ms),
        backend_timeout: Duration::from_millis(args.backend_timeout_ms),
        failover_retries: args.failover_retries,
        failover_backoff: Duration::from_millis(args.failover_backoff_ms),
        health: HealthConfig {
            probe_interval: Duration::from_millis(args.probe_interval_ms),
            probe_timeout: Duration::from_millis(args.probe_timeout_ms),
            eject_threshold: args.eject_threshold,
            eject_cooldown: Duration::from_millis(args.eject_cooldown_ms),
        },
        defaults: ExplainOptions {
            n_samples: args.samples,
            seed: args.seed,
            ..Default::default()
        },
    };
    let workers = config.parallelism.worker_count();
    let names: Vec<String> = args
        .backends
        .iter()
        .map(|b| format!("{}={} (w{})", b.name, b.addr, b.weight))
        .collect();
    let router = Router::bind(
        (args.host.as_str(), args.port),
        schema,
        args.backends,
        config,
    )
    .map_err(|e| format!("binding {}:{}: {e}", args.host, args.port))?;
    eprintln!(
        "em-route: listening on http://{} ({} workers) routing dataset {} to [{}]",
        router.local_addr(),
        workers,
        args.dataset.short_name(),
        names.join(", ")
    );
    router.run();
    eprintln!("em-route: shut down cleanly");
    Ok(())
}

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
                eprintln!("em-route: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("em-route: {e}\n\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
