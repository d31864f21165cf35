//! Closed-loop HTTP/1.1 load generator for the serving workloads of
//! `perfbench/run.py`.
//!
//! `--clients` threads each send one `POST /explain` at a time, every request on a
//! fresh connection (the serving tier answers `Connection: close`), until
//! `--seconds` have passed or `--requests` have been sent. Request `i` uses
//! line `i % n` of `--templates` as its body, with every literal `__SEED__`
//! replaced by `--seed-base + i`, so a workload can give every request its
//! own explanation seed and therefore its own cache key.
//!
//! One tab-separated line per request goes to `--out`, in request order:
//!
//! ```text
//! index template status latency_ns connect_ns send_ns wait_ns recv_ns x-cache x-backend x-timing fnv1a64 [body]
//! ```
//!
//! `status` is 0 when the exchange failed below HTTP. The four phase
//! durations split `latency_ns`: TCP connect, writing the request, waiting
//! for the first response byte, and reading the rest. `body` is written only
//! with `--bodies 1`. Standard output gets one line, `elapsed_ns <n>`: the
//! wall time from the first request to the last response.
//!
//! ```text
//! perfbench-loadgen --addr 127.0.0.1:8700 --templates bodies.txt --out samples.tsv \
//!     --clients 2 --seconds 10
//! ```

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Bound on every socket operation; a healthy exchange takes milliseconds.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

struct Args {
    addr: SocketAddr,
    templates: Vec<String>,
    out: String,
    clients: usize,
    seconds: f64,
    requests: usize,
    seed_base: u64,
    bodies: bool,
}

const FLAGS: [&str; 8] = [
    "addr",
    "templates",
    "out",
    "clients",
    "seconds",
    "requests",
    "seed-base",
    "bodies",
];

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = std::collections::BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if FLAGS.contains(&flag.trim_start_matches("--")) => {
                flags.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => {
                return Err(format!(
                    "expected --flag value pairs from {FLAGS:?}, got {pair:?}"
                ))
            }
        }
    }
    let take = |name: &str| flags.get(name).cloned();
    let need = |name: &str| take(name).ok_or_else(|| format!("--{name} is required"));
    fn num<T: std::str::FromStr>(
        name: &str,
        value: Option<String>,
        default: T,
    ) -> Result<T, String> {
        match value {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: expected a non-negative number, got {v:?}")),
        }
    }
    let templates_path = need("templates")?;
    let templates: Vec<String> = std::fs::read_to_string(&templates_path)
        .map_err(|e| format!("reading {templates_path}: {e}"))?
        .lines()
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect();
    if templates.is_empty() {
        return Err(format!("{templates_path} holds no request bodies"));
    }
    let clients: usize = num("clients", take("clients"), 1)?;
    let seconds: f64 = num("seconds", take("seconds"), 1e9)?;
    if clients == 0 || !(seconds > 0.0 && seconds <= 1e9) {
        return Err("--clients must be at least 1 and --seconds in (0, 1e9]".to_string());
    }
    Ok(Args {
        addr: need("addr")?.parse().map_err(|e| format!("--addr: {e}"))?,
        templates,
        out: need("out")?,
        clients,
        seconds,
        requests: num("requests", take("requests"), 0)?,
        seed_base: num("seed-base", take("seed-base"), 0)?,
        bodies: take("bodies").as_deref() == Some("1"),
    })
}

/// What one exchange observed.
struct Sample {
    index: usize,
    template: usize,
    status: u16,
    phases_ns: [u64; 4],
    cache: String,
    backend: String,
    timing: String,
    hash: u64,
    body: String,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Status line, the headers this tool reports, and the declared length.
struct Head {
    status: u16,
    cache: String,
    backend: String,
    timing: String,
    content_length: usize,
}

fn parse_head(head: &str) -> Result<Head, String> {
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line in {head:?}"))?;
    let mut parsed = Head {
        status,
        cache: "-".to_string(),
        backend: "-".to_string(),
        timing: "-".to_string(),
        content_length: 0,
    };
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim().to_string();
        match name.trim().to_ascii_lowercase().as_str() {
            "x-cache" => parsed.cache = value,
            "x-backend" => parsed.backend = value,
            "x-timing" => parsed.timing = value,
            "content-length" => {
                parsed.content_length = value
                    .parse()
                    .map_err(|_| format!("bad content-length {value:?}"))?
            }
            _ => {}
        }
    }
    Ok(parsed)
}

/// One `POST /explain` on a fresh connection; returns the sample without
/// its index fields filled in.
fn exchange(addr: SocketAddr, body: &str) -> Result<Sample, String> {
    let io = |e: std::io::Error| e.to_string();
    let start = Instant::now();
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let connected = Instant::now();
    let request = format!(
        "POST /explain HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let sent = Instant::now();

    let mut buf = Vec::with_capacity(16 * 1024);
    let mut chunk = [0u8; 16 * 1024];
    let mut first_byte = None;
    let mut head: Option<(usize, Head)> = None;
    loop {
        if let Some((body_start, h)) = &head {
            if buf.len() >= body_start + h.content_length {
                break;
            }
        }
        let n = stream.read(&mut chunk).map_err(io)?;
        if n == 0 {
            return Err("connection closed before the response was complete".to_string());
        }
        first_byte.get_or_insert_with(Instant::now);
        buf.extend_from_slice(&chunk[..n]);
        if head.is_none() {
            if let Some(pos) = find(&buf, b"\r\n\r\n") {
                let text = String::from_utf8_lossy(&buf[..pos]).into_owned();
                head = Some((pos + 4, parse_head(&text)?));
            }
        }
    }
    let done = Instant::now();
    let (body_start, h) = head.ok_or("response has no header block")?;
    let body_bytes = &buf[body_start..body_start + h.content_length];
    let first_byte = first_byte.unwrap_or(done);
    Ok(Sample {
        index: 0,
        template: 0,
        status: h.status,
        phases_ns: [
            nanos(connected - start),
            nanos(sent - connected),
            nanos(first_byte - sent),
            nanos(done - first_byte),
        ],
        cache: h.cache,
        backend: h.backend,
        timing: h.timing,
        hash: fnv1a64(body_bytes),
        body: String::from_utf8_lossy(body_bytes).into_owned(),
    })
}

fn failed(error: String) -> Sample {
    Sample {
        index: 0,
        template: 0,
        status: 0,
        phases_ns: [0; 4],
        cache: "-".to_string(),
        backend: "-".to_string(),
        timing: error.replace(['\t', '\n'], " "),
        hash: 0,
        body: String::new(),
    }
}

/// Sends the requests; returns the samples in request order and the wall
/// time from the first request to the last response.
fn run(args: &Args) -> (Vec<Sample>, Duration) {
    let next = AtomicUsize::new(0);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let worker = || {
        let mut samples = Vec::new();
        while start.elapsed() < budget {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if args.requests > 0 && index >= args.requests {
                break;
            }
            let template = index % args.templates.len();
            let seed = args.seed_base + index as u64;
            let body = args.templates[template].replace("__SEED__", &seed.to_string());
            let mut sample = exchange(args.addr, &body).unwrap_or_else(failed);
            sample.index = index;
            sample.template = template;
            if !args.bodies {
                sample.body.clear();
            }
            samples.push(sample);
        }
        samples
    };
    let mut all: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients).map(|_| scope.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    all.sort_by_key(|s| s.index);
    (all, elapsed)
}

fn write_samples(path: &str, samples: &[Sample], bodies: bool) -> std::io::Result<()> {
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    for s in samples {
        let total: u64 = s.phases_ns.iter().sum();
        let [connect, send, wait, recv] = s.phases_ns;
        write!(
            out,
            "{}\t{}\t{}\t{total}\t{connect}\t{send}\t{wait}\t{recv}\t{}\t{}\t{}\t{:016x}",
            s.index, s.template, s.status, s.cache, s.backend, s.timing, s.hash
        )?;
        if bodies {
            write!(out, "\t{}", s.body)?;
        }
        writeln!(out)?;
    }
    out.flush()
}

fn main() -> std::process::ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench-loadgen: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let (samples, elapsed) = run(&args);
    println!("elapsed_ns {}", nanos(elapsed));
    if let Err(e) = write_samples(&args.out, &samples, args.bodies) {
        eprintln!("perfbench-loadgen: writing {}: {e}", args.out);
        return std::process::ExitCode::from(2);
    }
    std::process::ExitCode::SUCCESS
}
