//! `em-batch` CLI: plan / run / resume / verify / gen.
//!
//! Exit codes: `0` success, `1` usage error, `2` runtime or verification
//! failure, `3` injected failpoint fired (so the CI kill/resume smoke job
//! can tell a deliberate crash from a real one). A failpoint comes from
//! `--failpoint <site>:<shard>`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use em_batch::{
    execute, gen, plan, summary, verify_run, BatchError, FailAt, FailpointHook, NoFailpoints,
    PlanConfig, RunMode,
};
use em_datagen::DatasetId;
use em_obs::Collector;
use landmark_core::ExplainerKind;

const USAGE: &str = "\
usage: em-batch <command> [options]

commands:
  gen     --out <file> [--dataset <name>] [--scale <f>]
          write a synthetic Magellan-style CSV
  plan    --input <csv> --run <dir> [--shards <n>] [--seed <n>]
          [--explainer <name>] [--n-samples <n>] [--threads <n>]
          fix shard layout, train + persist the matcher, write plan.json
  run     --run <dir> [--threads <n>] [--failpoint <site>:<shard>]
          execute every shard of a fresh planned run
  resume  --run <dir> [--threads <n>] [--failpoint <site>:<shard>]
          skip committed shards, recompute the rest
  verify  --run <dir>
          audit shard files against the manifest

explainers: landmark, landmark-single, landmark-double, lime, mojito-copy
failpoint sites: before-write, before-rename, before-manifest, after-manifest";

#[expect(
    clippy::disallowed_methods,
    reason = "command-line arguments configure the process; every request and plan is resolved from its own bytes"
)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("em-batch: error: {e}");
            ExitCode::from(e.exit_code() as u8)
        }
    }
}

/// A parsed `--flag value` option list.
struct Options {
    flags: Vec<(String, String)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut flags = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected argument {flag:?}"));
            };
            let Some(value) = it.next() else {
                return Err(format!("--{name} requires a value"));
            };
            flags.push((name.to_string(), value.clone()));
        }
        Ok(Options { flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("bad value for --{name}: {v:?}")),
        }
    }

    fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for (name, _) in &self.flags {
            if !known.contains(&name.as_str()) {
                return Err(format!("unknown option --{name}"));
            }
        }
        Ok(())
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("em-batch: {msg}\n\n{USAGE}");
    ExitCode::from(1)
}

fn dispatch(args: &[String]) -> Result<ExitCode, BatchError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(usage_error("missing command"));
    };
    let opts = match Options::parse(rest) {
        Ok(o) => o,
        Err(msg) => return Ok(usage_error(&msg)),
    };
    match command.as_str() {
        "gen" => cmd_gen(&opts),
        "plan" => cmd_plan(&opts),
        "run" => cmd_execute(&opts, RunMode::Fresh),
        "resume" => cmd_execute(&opts, RunMode::Resume),
        "verify" => cmd_verify(&opts),
        other => Ok(usage_error(&format!("unknown command {other:?}"))),
    }
}

fn cmd_gen(opts: &Options) -> Result<ExitCode, BatchError> {
    let parsed = (|| -> Result<_, String> {
        opts.reject_unknown(&["out", "dataset", "scale"])?;
        let out = PathBuf::from(opts.require("out")?);
        let name = opts.get("dataset").unwrap_or("S-FZ").to_string();
        let scale = opts.parsed("scale", 0.05f64)?;
        Ok((out, name, scale))
    })();
    let (out, name, scale) = match parsed {
        Ok(p) => p,
        Err(msg) => return Ok(usage_error(&msg)),
    };
    let dataset = match DatasetId::parse(&name) {
        Ok(dataset) => dataset,
        Err(msg) => return Ok(usage_error(&msg)),
    };
    let records = gen::generate_csv(dataset, scale, &out)?;
    println!("em-batch: wrote {records} records to {}", out.display());
    Ok(ExitCode::SUCCESS)
}

fn cmd_plan(opts: &Options) -> Result<ExitCode, BatchError> {
    let parsed = (|| -> Result<_, String> {
        opts.reject_unknown(&[
            "input",
            "run",
            "shards",
            "seed",
            "explainer",
            "n-samples",
            "threads",
        ])?;
        let input = PathBuf::from(opts.require("input")?);
        let run_dir = PathBuf::from(opts.require("run")?);
        let defaults = PlanConfig::default();
        let explainer_name = opts.get("explainer").unwrap_or("landmark");
        let explainer = ExplainerKind::parse(explainer_name)?;
        let config = PlanConfig {
            shards: opts.parsed("shards", defaults.shards)?,
            seed: opts.parsed("seed", defaults.seed)?,
            explainer,
            n_samples: opts.parsed("n-samples", defaults.n_samples)?,
            threads: opts.parsed("threads", defaults.threads)?,
        };
        Ok((input, run_dir, config))
    })();
    let (input, run_dir, config) = match parsed {
        Ok(p) => p,
        Err(msg) => return Ok(usage_error(&msg)),
    };
    let plan = plan::create_plan(&input, &run_dir, &config)?;
    println!(
        "em-batch: planned {} records into {} shard(s) at {} (explainer {}, seed {})",
        plan.records,
        plan.shards,
        run_dir.display(),
        plan.explainer.name(),
        plan.seed
    );
    Ok(ExitCode::SUCCESS)
}

fn failpoint_hook(opts: &Options) -> Result<Box<dyn FailpointHook>, String> {
    match opts.get("failpoint") {
        None => Ok(Box::new(NoFailpoints)),
        Some(s) => match FailAt::parse(s) {
            Some(fp) => Ok(Box::new(fp)),
            None => Err(format!(
                "bad failpoint spec {s:?} (expected <site>:<shard>)"
            )),
        },
    }
}

fn cmd_execute(opts: &Options, mode: RunMode) -> Result<ExitCode, BatchError> {
    let parsed = (|| -> Result<_, String> {
        opts.reject_unknown(&["run", "threads", "failpoint"])?;
        let run_dir = PathBuf::from(opts.require("run")?);
        let threads = match opts.get("threads") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| format!("bad value for --threads: {v:?}"))?,
            ),
        };
        let hook = failpoint_hook(opts)?;
        Ok((run_dir, threads, hook))
    })();
    let (run_dir, threads, hook) = match parsed {
        Ok(p) => p,
        Err(msg) => return Ok(usage_error(&msg)),
    };
    let collector = Collector::new();
    let outcome = execute(&run_dir, mode, threads, hook.as_ref(), &collector)?;
    let plan = plan::RunPlan::load(&run_dir)?;
    summary::write_summary(&run_dir, &plan, &outcome, &collector)?;
    println!(
        "em-batch: {} shard(s) run, {} skipped, {} records explained; summary at {}",
        outcome.shards_run.len(),
        outcome.shards_skipped,
        outcome.records_explained,
        run_dir.join(plan::SUMMARY_FILE).display()
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_verify(opts: &Options) -> Result<ExitCode, BatchError> {
    if let Err(msg) = opts.reject_unknown(&["run"]) {
        return Ok(usage_error(&msg));
    }
    let run_dir = match opts.require("run") {
        Ok(r) => Path::new(r).to_path_buf(),
        Err(msg) => return Ok(usage_error(&msg)),
    };
    let report = verify_run(&run_dir)?;
    for problem in &report.problems {
        eprintln!("em-batch: verify: {problem}");
    }
    if !report.shards_pending.is_empty() {
        eprintln!(
            "em-batch: verify: {} shard(s) not yet committed (run `em-batch resume`)",
            report.shards_pending.len()
        );
    }
    if report.torn_manifest_bytes > 0 {
        eprintln!(
            "em-batch: verify: manifest ends in a torn {}-byte append (crash artifact; \
             `em-batch resume` will heal it)",
            report.torn_manifest_bytes
        );
    }
    println!(
        "em-batch: verify: {} shard(s) ok, {} pending, {} problem(s)",
        report.shards_ok,
        report.shards_pending.len(),
        report.problems.len()
    );
    if report.is_complete_and_ok() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::from(2))
    }
}
