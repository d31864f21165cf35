//! Injectable failpoints for crash-safety testing.
//!
//! The commit protocol for one shard has four externally observable
//! states, separated by the three durable operations (tmp write, rename,
//! manifest append). A [`FailAt`] passed to
//! [`execute`](crate::execute) lets tests and the CI smoke job crash the
//! pipeline in each state; the kill/resume sweep then proves that
//! resuming from every state reproduces the uninterrupted run byte for
//! byte. Production runs pass `None`.

/// The four sites in the shard commit protocol where a crash leaves a
/// distinct on-disk state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailSite {
    /// Shard bytes computed, nothing written: tmp file absent.
    BeforeWrite,
    /// Tmp file written and synced, not yet renamed into place.
    BeforeRename,
    /// Shard file in place, manifest entry not yet appended.
    BeforeManifest,
    /// Manifest entry durable; the shard is fully committed.
    AfterManifest,
}

/// Number of distinct failpoint sites.
pub const N_SITES: usize = 4;

impl FailSite {
    /// All sites, in commit-protocol order — the kill/resume sweep
    /// iterates this.
    pub const fn all() -> [FailSite; N_SITES] {
        [
            FailSite::BeforeWrite,
            FailSite::BeforeRename,
            FailSite::BeforeManifest,
            FailSite::AfterManifest,
        ]
    }

    /// The CLI spelling of the site.
    pub const fn name(self) -> &'static str {
        match self {
            FailSite::BeforeWrite => "before-write",
            FailSite::BeforeRename => "before-rename",
            FailSite::BeforeManifest => "before-manifest",
            FailSite::AfterManifest => "after-manifest",
        }
    }

    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<FailSite> {
        FailSite::all().into_iter().find(|site| site.name() == s)
    }
}

/// Fires once at an exact `(site, shard)` — what `--failpoint` injects.
/// The runner fires when its failpoint equals `Some(FailAt { site, shard })`
/// for the site it reached and the shard it is committing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailAt {
    /// The commit-protocol site to crash at.
    pub site: FailSite,
    /// The shard whose commit crashes.
    pub shard: usize,
}

impl FailAt {
    /// Parses the CLI spec `<site>:<shard>`, e.g. `before-rename:2`.
    pub fn parse(spec: &str) -> Option<FailAt> {
        let (site, shard) = spec.split_once(':')?;
        Some(FailAt {
            site: FailSite::parse(site)?,
            shard: shard.parse().ok()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_roundtrip_through_parse() {
        for site in FailSite::all() {
            let spec = format!("{}:7", site.name());
            assert_eq!(FailAt::parse(&spec), Some(FailAt { site, shard: 7 }));
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in ["", "before-write", "nowhere:1", "before-write:x", ":3"] {
            assert_eq!(FailAt::parse(bad), None, "{bad:?}");
        }
    }

    #[test]
    fn fail_at_fires_only_on_its_exact_site_and_shard() {
        // The runner fires where its failpoint equals the site it reached
        // and the shard it commits: on both fields, or not at all.
        let fp = Some(FailAt {
            site: FailSite::BeforeRename,
            shard: 2,
        });
        let fires = |site, shard| fp == Some(FailAt { site, shard });
        assert!(fires(FailSite::BeforeRename, 2));
        assert!(!fires(FailSite::BeforeRename, 3));
        assert!(!fires(FailSite::BeforeWrite, 2));
    }
}
