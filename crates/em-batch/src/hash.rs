//! FNV-1a 64-bit content hashing.
//!
//! The manifest records a content hash per committed shard file so
//! `em-batch verify` can detect truncated, edited, or misrenamed outputs.
//! FNV-1a is not collision-resistant against adversaries — it is an
//! integrity check for a pipeline that owns its own files, chosen because
//! it is fully specified in a dozen lines and needs no dependency. Hashes
//! render as `fnv1a64:<16 hex digits>` so a future algorithm change is
//! self-describing. The hasher itself lives in `em-codec` (shared with
//! the serving cache's shard pick and `em-route`'s ring placement); this
//! module adds the manifest text form.

use em_codec::hash::{fnv1a64, Fnv1a64};

/// Renders a hash in the manifest's self-describing text form.
pub fn format_hash(hash: u64) -> String {
    format!("fnv1a64:{hash:016x}")
}

/// One-shot hash of a byte slice in manifest text form.
pub fn content_hash(bytes: &[u8]) -> String {
    format_hash(fnv1a64(bytes))
}

/// Streams a file through the hasher without loading it whole.
pub fn hash_file(path: &std::path::Path) -> std::io::Result<String> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut hasher = Fnv1a64::new();
    let mut buf = [0u8; 8192];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            break;
        }
        hasher.update(&buf[..n]);
    }
    Ok(format_hash(hasher.finish()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values from the FNV specification.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn text_form_is_prefixed_hex() {
        assert_eq!(content_hash(b""), "fnv1a64:cbf29ce484222325");
    }

    #[test]
    fn hash_file_streams_identically() {
        let dir = std::env::temp_dir().join("em-batch-hash-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        std::fs::write(&path, b"foobar").unwrap();
        assert_eq!(hash_file(&path).unwrap(), content_hash(b"foobar"));
    }
}
