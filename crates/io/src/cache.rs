//! The on-disk dataset cache: generate (or load) once, reload as a
//! binary CSR afterwards.

use std::path::{Path, PathBuf};

use lgr_graph::Csr;
use lgr_parallel::Pool;

use crate::lgr::{load_lgr, save_lgr};
use crate::{fnv1a64, IoError};

/// A directory of `.lgr` files keyed by an opaque cache-key string
/// (the engine uses `dataset spec + scale`).
///
/// File names are `<slug>-<hash>.lgr`: a human-readable slug of the
/// key plus a 64-bit hash of the full key, so distinct keys never
/// collide in practice while the directory stays browsable.
///
/// Lookups treat any unreadable or corrupt entry as a miss — the
/// caller rebuilds and overwrites — and stores write through a
/// temporary file renamed into place, so a crashed writer never
/// leaves a half-written entry behind.
#[derive(Debug, Clone)]
pub struct DatasetCache {
    dir: PathBuf,
}

fn slug(key: &str) -> String {
    let mut out = String::new();
    for c in key.chars() {
        let mapped = if c.is_ascii_alphanumeric() {
            c.to_ascii_lowercase()
        } else {
            '-'
        };
        if mapped == '-' && out.ends_with('-') {
            continue;
        }
        out.push(mapped);
        if out.len() >= 48 {
            break;
        }
    }
    let trimmed = out.trim_matches('-');
    if trimmed.is_empty() {
        "dataset".to_owned()
    } else {
        trimmed.to_owned()
    }
}

impl DatasetCache {
    /// A cache rooted at `dir`. The directory is created lazily on the
    /// first [`DatasetCache::store`].
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DatasetCache { dir: dir.into() }
    }

    /// The cache's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key maps to (whether or not it exists yet).
    pub fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!(
            "{}-{:016x}.lgr",
            slug(key),
            fnv1a64(key.as_bytes())
        ))
    }

    /// Loads the cached graph for `key`, validating it on `pool`, and
    /// treating a missing, unreadable, or corrupt entry as a miss.
    pub fn load(&self, key: &str, pool: &Pool) -> Option<Csr> {
        load_lgr(self.path(key), pool).ok()
    }

    /// Stores `csr` under `key`, creating the cache directory if
    /// needed. Returns the entry's path.
    pub fn store(&self, key: &str, csr: &Csr) -> Result<PathBuf, IoError> {
        use std::sync::atomic::{AtomicU64, Ordering};
        // Unique per process *and* per store call: concurrent threads
        // of a shared Session may store different keys at once, and a
        // pid-only suffix would let their temp files collide.
        static STORE_SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let path = self.path(key);
        let tmp = path.with_extension(format!(
            "tmp{}-{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let result =
            save_lgr(&tmp, csr).and_then(|()| std::fs::rename(&tmp, &path).map_err(IoError::from));
        if result.is_err() {
            // A failed write (disk full, permissions) or rename must
            // not strand the temporary file in the cache directory —
            // every retry would leave another one behind.
            let _ = std::fs::remove_file(&tmp);
        }
        result.map(|()| path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lgr_graph::EdgeList;

    fn tmp_cache(tag: &str) -> DatasetCache {
        DatasetCache::new(
            std::env::temp_dir().join(format!("lgr-cache-test-{tag}-{}", std::process::id())),
        )
    }

    fn graph() -> Csr {
        let mut el = EdgeList::new(3);
        el.push_weighted(0, 1, 2);
        el.push_weighted(1, 2, 3);
        Csr::from_edge_list(&el)
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = tmp_cache("roundtrip");
        let g = graph();
        assert!(cache.load("kr|sd=2048|seed=42", &Pool::new(2)).is_none());
        let path = cache.store("kr|sd=2048|seed=42", &g).unwrap();
        assert!(path.exists());
        assert_eq!(cache.load("kr|sd=2048|seed=42", &Pool::new(2)).unwrap(), g);
        // A different key is a different entry.
        assert!(cache.load("kr|sd=4096|seed=42", &Pool::new(2)).is_none());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = tmp_cache("corrupt");
        let key = "pl|sd=2048|seed=42";
        cache.store(key, &graph()).unwrap();
        std::fs::write(cache.path(key), b"definitely not an lgr file").unwrap();
        assert!(cache.load(key, &Pool::new(2)).is_none());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn a_failed_store_leaves_no_stray_temp_files() {
        let cache = tmp_cache("failed-store");
        let key = "kr|sd=2048|seed=42";
        // Occupy the entry's final path with a non-empty directory:
        // `save_lgr` succeeds into the temp file, but the rename into
        // place fails — the shared cleanup path (also taken when
        // `save_lgr` itself errors) must then remove the temp file.
        std::fs::create_dir_all(cache.path(key).join("occupied")).unwrap();
        assert!(cache.store(key, &graph()).is_err());
        let strays: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp"))
            .collect();
        assert!(strays.is_empty(), "stray temp files: {strays:?}");
        // And repeated failures never accumulate entries either.
        for _ in 0..5 {
            assert!(cache.store(key, &graph()).is_err());
        }
        assert_eq!(std::fs::read_dir(cache.dir()).unwrap().count(), 1);
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn keys_slug_into_readable_filenames() {
        let cache = DatasetCache::new("/tmp/x");
        let p = cache.path("file:/data/web graph.el:weighted|sd=131072|seed=42");
        let name = p.file_name().unwrap().to_string_lossy().into_owned();
        assert!(
            name.starts_with("file-data-web-graph-el-weighted"),
            "{name}"
        );
        assert!(name.ends_with(".lgr"), "{name}");
        // Same slug, different key → different hash suffix.
        let q = cache.path("file:/data/web graph.el:weighted|sd=131072|seed=43");
        assert_ne!(p, q);
    }
}
