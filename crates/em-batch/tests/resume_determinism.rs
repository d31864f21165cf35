//! The crash-safety acceptance sweep: kill the pipeline at **every**
//! failpoint site on **every** shard, serially and with workers running
//! ahead of the commits, resume, and require the healed run directory —
//! every shard file *and* the manifest — to be byte-identical to an
//! uninterrupted reference run. Resumes run at a different thread count
//! than the kill on purpose: kill-point, shard layout, and thread count
//! must all be invisible in the output bytes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use em_batch::hash::content_hash;
use em_batch::manifest::ManifestEntry;
use em_batch::{
    atomic, execute, manifest, plan, verify_run, BatchError, FailAt, FailSite, PlanConfig, RunMode,
};
use em_datagen::{DatasetId, MagellanBenchmark};
use em_entity::{dataset_to_csv, EmDataset};
use landmark_core::ExplainerKind;

const N_RECORDS: usize = 9;
const SHARDS: usize = 3;
const REFERENCE_THREADS: usize = 1;
/// (kill, resume) thread counts: the serial path, and a pipeline whose
/// workers run a shard ahead of the commit the kill interrupts.
const KILL_RESUME_THREADS: [(usize, usize); 2] = [(1, 3), (3, 2)];

#[expect(
    clippy::disallowed_methods,
    reason = "test scratch directory: the path never reaches an output byte"
)]
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("em-batch-resume-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

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

fn config() -> PlanConfig {
    PlanConfig {
        shards: SHARDS,
        seed: 7,
        explainer: ExplainerKind::Landmark,
        n_samples: 16,
        threads: 1,
    }
}

/// Full byte image of a run directory's outputs: shard files + manifest.
fn snapshot(run_dir: &Path, shards: usize) -> BTreeMap<String, Vec<u8>> {
    let plan = plan::RunPlan::load(run_dir).expect("load plan");
    let mut files = BTreeMap::new();
    for shard in 0..shards {
        let path = plan.shard_path(run_dir, shard);
        files.insert(
            format!("shard-{shard}"),
            std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())),
        );
    }
    files.insert(
        "manifest".to_string(),
        std::fs::read(run_dir.join(plan::MANIFEST_FILE)).expect("read manifest"),
    );
    files
}

#[test]
fn kill_at_every_site_and_shard_then_resume_is_byte_identical() {
    let dir = scratch("sweep");
    let input = write_input(&dir);

    // Uninterrupted reference run.
    let ref_dir = dir.join("reference");
    plan::create_plan(&input, &ref_dir, &config()).unwrap();
    execute(
        &ref_dir,
        RunMode::Fresh,
        Some(REFERENCE_THREADS),
        None,
        em_obs::noop(),
    )
    .unwrap();
    let reference = snapshot(&ref_dir, SHARDS);

    // The manifest must contain exactly one entry per shard, in shard
    // order, with the true content hash of the shard file.
    let expected_entries: Vec<ManifestEntry> = (0..SHARDS)
        .map(|shard| ManifestEntry {
            shard,
            records: N_RECORDS / SHARDS,
            hash: content_hash(&reference[&format!("shard-{shard}")]),
        })
        .collect();
    assert_eq!(
        manifest::load_and_repair(&ref_dir.join(plan::MANIFEST_FILE)).unwrap(),
        expected_entries
    );

    for (kill_threads, resume_threads) in KILL_RESUME_THREADS {
        for site in FailSite::all() {
            for shard in 0..SHARDS {
                let name = format!("{}-{shard}-t{kill_threads}", site.name());
                let run_dir = dir.join(&name);
                plan::create_plan(&input, &run_dir, &config()).unwrap();

                // Kill.
                let killed = execute(
                    &run_dir,
                    RunMode::Fresh,
                    Some(kill_threads),
                    Some(FailAt { site, shard }),
                    em_obs::noop(),
                );
                match killed {
                    Err(BatchError::Failpoint { site: s, shard: h }) => {
                        assert_eq!((s, h), (site, shard), "{name}");
                    }
                    other => panic!("{name}: expected failpoint, got {other:?}"),
                }

                // The crash state matches the commit protocol.
                let plan = plan::RunPlan::load(&run_dir).unwrap();
                let shard_file = plan.shard_path(&run_dir, shard);
                let committed = match site {
                    FailSite::BeforeWrite | FailSite::BeforeRename => {
                        assert!(!shard_file.exists(), "{name}: shard visible too early");
                        assert_eq!(
                            atomic::tmp_path(&shard_file).exists(),
                            site == FailSite::BeforeRename,
                            "{name}: staged file"
                        );
                        shard
                    }
                    FailSite::BeforeManifest => {
                        assert!(shard_file.exists(), "{name}: renamed file missing");
                        shard
                    }
                    FailSite::AfterManifest => {
                        assert!(shard_file.exists(), "{name}");
                        shard + 1
                    }
                };
                // The manifest holds exactly the committed prefix, and no
                // shard after the killed one left a file, staged or not,
                // however far the workers had run ahead.
                assert_eq!(
                    manifest::load_and_repair(&run_dir.join(plan::MANIFEST_FILE)).unwrap(),
                    expected_entries[..committed],
                    "{name}"
                );
                for later in shard + 1..SHARDS {
                    let path = plan.shard_path(&run_dir, later);
                    assert!(!path.exists(), "{name}: {} exists", path.display());
                    let tmp = atomic::tmp_path(&path);
                    assert!(!tmp.exists(), "{name}: {} exists", tmp.display());
                }

                // Resume at a different thread count.
                let outcome = execute(
                    &run_dir,
                    RunMode::Resume,
                    Some(resume_threads),
                    None,
                    em_obs::noop(),
                )
                .unwrap_or_else(|e| panic!("{name}: resume failed: {e}"));
                assert_eq!(outcome.shards_skipped, committed, "{name}");
                assert_eq!(
                    outcome.shards_run,
                    (committed..SHARDS).collect::<Vec<_>>(),
                    "{name}"
                );

                // Byte identity of the whole run directory output set.
                assert_eq!(snapshot(&run_dir, SHARDS), reference, "{name}");
                assert!(verify_run(&run_dir).unwrap().is_complete_and_ok(), "{name}");
            }
        }
    }
}

#[test]
fn double_kill_then_resume_still_converges() {
    // Crash once mid-run, resume into a second crash later, resume again:
    // the directory must still converge to the reference bytes.
    let dir = scratch("double");
    let input = write_input(&dir);

    let ref_dir = dir.join("reference");
    plan::create_plan(&input, &ref_dir, &config()).unwrap();
    execute(&ref_dir, RunMode::Fresh, Some(1), None, em_obs::noop()).unwrap();
    let reference = snapshot(&ref_dir, SHARDS);

    let run_dir = dir.join("crashy");
    plan::create_plan(&input, &run_dir, &config()).unwrap();
    let first = execute(
        &run_dir,
        RunMode::Fresh,
        Some(2),
        Some(FailAt {
            site: FailSite::BeforeRename,
            shard: 0,
        }),
        em_obs::noop(),
    );
    assert!(matches!(first, Err(BatchError::Failpoint { .. })));
    let second = execute(
        &run_dir,
        RunMode::Resume,
        Some(1),
        Some(FailAt {
            site: FailSite::BeforeManifest,
            shard: 2,
        }),
        em_obs::noop(),
    );
    assert!(matches!(second, Err(BatchError::Failpoint { .. })));
    execute(&run_dir, RunMode::Resume, Some(3), None, em_obs::noop()).unwrap();

    assert_eq!(snapshot(&run_dir, SHARDS), reference);
    assert!(verify_run(&run_dir).unwrap().is_complete_and_ok());
}

#[test]
fn torn_manifest_tail_heals_to_reference_bytes() {
    // Simulate a crash *during* the manifest append itself: truncate the
    // last entry mid-line, then resume.
    let dir = scratch("torn");
    let input = write_input(&dir);

    let ref_dir = dir.join("reference");
    plan::create_plan(&input, &ref_dir, &config()).unwrap();
    execute(&ref_dir, RunMode::Fresh, Some(1), None, em_obs::noop()).unwrap();
    let reference = snapshot(&ref_dir, SHARDS);

    let run_dir = dir.join("crashy");
    plan::create_plan(&input, &run_dir, &config()).unwrap();
    let killed = execute(
        &run_dir,
        RunMode::Fresh,
        Some(1),
        Some(FailAt {
            site: FailSite::AfterManifest,
            shard: 1,
        }),
        em_obs::noop(),
    );
    assert!(matches!(killed, Err(BatchError::Failpoint { .. })));
    // Tear the final manifest line.
    let manifest_path = run_dir.join(plan::MANIFEST_FILE);
    let bytes = std::fs::read(&manifest_path).unwrap();
    std::fs::write(&manifest_path, &bytes[..bytes.len() - 7]).unwrap();

    execute(&run_dir, RunMode::Resume, Some(2), None, em_obs::noop()).unwrap();
    assert_eq!(snapshot(&run_dir, SHARDS), reference);
}
