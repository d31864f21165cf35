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

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::net::SocketAddr;
use std::process::ExitCode;
use std::time::Duration;

use em_datagen::{DatasetId, Domain};
use em_route::{BackendSpec, Router, RouterConfig};

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

/// The command line: the router's own [`RouterConfig`], and what it does not hold.
struct Args {
    host: String,
    port: u16,
    dataset: DatasetId,
    backends: Vec<BackendSpec>,
    config: RouterConfig,
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
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 8700,
        dataset: DatasetId::SFz,
        backends: Vec::new(),
        config: RouterConfig::default(),
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
        let ms = || {
            value
                .parse()
                .map(Duration::from_millis)
                .map_err(|_| bad("expected an integer"))
        };
        let positive_ms = || {
            value
                .parse()
                .ok()
                .filter(|n| *n > 0)
                .map(Duration::from_millis)
                .ok_or_else(|| bad("expected a positive integer"))
        };
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
            "--threads" => {
                config.workers = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--queue-depth" => {
                config.queue_depth = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--dataset" => args.dataset = DatasetId::parse(value)?,
            "--request-timeout-ms" => config.request_timeout = positive_ms()?,
            "--queue-age-ms" => config.max_queue_age = positive_ms()?,
            "--backend-timeout-ms" => config.backend_timeout = positive_ms()?,
            "--failover-retries" => {
                config.failover_retries = value.parse().map_err(|_| bad("expected an integer"))?
            }
            "--failover-backoff-ms" => config.failover_backoff = ms()?,
            "--probe-interval-ms" => config.health.probe_interval = positive_ms()?,
            "--probe-timeout-ms" => config.health.probe_timeout = positive_ms()?,
            "--eject-threshold" => {
                config.health.eject_threshold = value
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .ok_or_else(|| bad("expected a positive integer"))?
            }
            "--eject-cooldown-ms" => config.health.eject_cooldown = ms()?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.backends.is_empty() {
        return Err("at least one --backend is required".to_string());
    }
    Ok(Some(args))
}

fn run(args: Args) -> Result<(), String> {
    // The schema comes from the dataset's domain directly — the router
    // never generates data or trains a model.
    let schema = Domain::new(args.dataset.spec().domain).schema();
    let workers = em_par::worker_count(args.config.workers);
    let names: Vec<String> = args
        .backends
        .iter()
        .map(|b| format!("{}={} (w{})", b.name, b.addr, b.weight))
        .collect();
    let router = Router::bind(
        (args.host.as_str(), args.port),
        schema,
        args.backends,
        args.config,
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
