//! The on-disk tier of the pipeline cache.
//!
//! Each entry is one file, `<stage>-<keyhash as hex>.bin`, wrapped in a
//! versioned envelope:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"RPKC"
//!      4     4  schema version (u32 LE) — bump CACHE_SCHEMA_VERSION to
//!               invalidate every existing entry
//!      8     1  stage tag
//!      9     8  key hash (must match the filename — catches renamed files)
//!     17     8  payload length
//!     25     8  FNV-1a 64 checksum of the payload
//!     33     …  payload (wire-encoded artifact)
//! ```
//!
//! Crash consistency: writes go to a unique `*.tmp` sibling first and are
//! `rename`d into place, so readers never observe a half-written entry; a
//! process killed mid-write leaves at most a stray tmp file. Any entry that
//! fails validation — bad magic, old version, wrong stage or key, short
//! payload, checksum mismatch — is classified and deleted by the caller,
//! never served.

use crate::wire::{Reader, WireError};
use crate::{Key, Stage, CACHE_SCHEMA_VERSION};
use repro_util::fault::{fire, FaultPoint};
use repro_util::{fnv1a, Json, ToJson};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MAGIC: [u8; 4] = *b"RPKC";
/// Envelope bytes before the payload.
pub const HEADER_BYTES: usize = 4 + 4 + 1 + 8 + 8 + 8;

/// Result of probing the disk tier for a key.
#[derive(Debug)]
pub enum DiskRead {
    /// Valid entry; the payload bytes.
    Hit(Vec<u8>),
    /// No entry on disk.
    Miss,
    /// Entry written by an older (or newer) schema — invalid but expected;
    /// the caller deletes it silently.
    Stale,
    /// Entry failed validation; carries the reason and byte offset.
    Corrupt(WireError),
}

/// Wrap a payload in the versioned envelope.
pub fn seal(key: Key, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&CACHE_SCHEMA_VERSION.to_le_bytes());
    out.push(key.stage.tag());
    out.extend_from_slice(&key.hash.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate an envelope and return the payload. `Err(None)` means a schema
/// version mismatch (stale, not corrupt).
pub fn unseal(key: Key, bytes: &[u8]) -> Result<Vec<u8>, Option<WireError>> {
    let mut r = Reader::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.u8().map_err(Some)?;
    }
    if magic != MAGIC {
        return Err(Some(WireError {
            message: format!("bad magic {magic:02x?}"),
            offset: 0,
        }));
    }
    let version = r.u32().map_err(Some)?;
    if version != CACHE_SCHEMA_VERSION {
        return Err(None);
    }
    let stage_tag = r.u8().map_err(Some)?;
    if stage_tag != key.stage.tag() {
        return Err(Some(WireError {
            message: format!(
                "stage tag {stage_tag} does not match expected {}",
                key.stage.tag()
            ),
            offset: 8,
        }));
    }
    let hash = r.u64().map_err(Some)?;
    if hash != key.hash {
        return Err(Some(WireError {
            message: format!("key hash {hash:016x} does not match {:016x}", key.hash),
            offset: 9,
        }));
    }
    let len = r.u64().map_err(Some)? as usize;
    if r.remaining() < 8 || len != r.remaining() - 8 {
        return Err(Some(WireError {
            message: format!(
                "payload length {len} disagrees with {} bytes on disk",
                bytes.len().saturating_sub(HEADER_BYTES)
            ),
            offset: 17,
        }));
    }
    let checksum = r.u64().map_err(Some)?;
    let payload = &bytes[HEADER_BYTES..];
    let actual = fnv1a(payload);
    if checksum != actual {
        return Err(Some(WireError {
            message: format!("checksum {actual:016x} does not match stored {checksum:016x}"),
            offset: 25,
        }));
    }
    Ok(payload.to_vec())
}

/// One directory of cache entries.
pub struct DiskStore {
    dir: PathBuf,
    /// Distinguishes concurrent writers' tmp files within one process.
    tmp_seq: AtomicU64,
}

impl DiskStore {
    /// Open (without creating) a store rooted at `dir`. The directory is
    /// created lazily on the first write.
    pub fn new(dir: impl Into<PathBuf>) -> DiskStore {
        DiskStore {
            dir: dir.into(),
            tmp_seq: AtomicU64::new(0),
        }
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Filename for a key: `<stage>-<hash>.bin`.
    pub fn path_for(&self, key: Key) -> PathBuf {
        self.dir
            .join(format!("{}-{:016x}.bin", key.stage.name(), key.hash))
    }

    /// Probe for an entry.
    pub fn read(&self, key: Key) -> DiskRead {
        let bytes = match fs::read(self.path_for(key)) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return DiskRead::Miss,
            Err(e) => {
                return DiskRead::Corrupt(WireError {
                    message: format!("unreadable cache entry: {e}"),
                    offset: 0,
                })
            }
        };
        match unseal(key, &bytes) {
            Ok(payload) => DiskRead::Hit(payload),
            Err(None) => DiskRead::Stale,
            Err(Some(e)) => DiskRead::Corrupt(e),
        }
    }

    /// Atomically persist an entry: write a unique tmp file, then rename it
    /// over the final name. Readers see either the old entry or the new one.
    ///
    /// Fault points: `cache.disk.enospc` fails the write outright;
    /// `cache.disk.short_write` and `cache.disk.corrupt` land a truncated /
    /// bit-flipped envelope on disk — the write "succeeds", and the damage
    /// must be caught by [`unseal`] on the next read, never served.
    pub fn write(&self, key: Key, payload: &[u8]) -> io::Result<()> {
        if fire(FaultPoint::CacheDiskEnospc) {
            return Err(io::Error::other("injected fault: no space left on device"));
        }
        fs::create_dir_all(&self.dir)?;
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            "{}-{:016x}.{}.{}.tmp",
            key.stage.name(),
            key.hash,
            std::process::id(),
            seq,
        ));
        let mut sealed = seal(key, payload);
        if fire(FaultPoint::CacheDiskShortWrite) {
            sealed.truncate(sealed.len() / 2);
        }
        if fire(FaultPoint::CacheDiskCorrupt) {
            if let Some(last) = sealed.last_mut() {
                *last ^= 0x01;
            }
        }
        fs::write(&tmp, sealed)?;
        let result = fs::rename(&tmp, self.path_for(key));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Delete an entry (missing files are fine).
    pub fn evict(&self, key: Key) {
        let _ = fs::remove_file(self.path_for(key));
    }

    /// Delete every entry and stray tmp file; returns how many files went.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0;
        let entries = match fs::read_dir(&self.dir) {
            Ok(e) => e,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
            Err(e) => return Err(e),
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if (name.ends_with(".bin") || name.ends_with(".tmp"))
                && fs::remove_file(entry.path()).is_ok()
            {
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Scan the directory into a stats summary.
    pub fn stats(&self) -> DiskStats {
        DiskStats::scan(&self.dir)
    }
}

/// Per-stage summary of the on-disk tier, serializable as JSON for the
/// `repro cache stats` artifact.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DiskStats {
    pub schema_version: u32,
    /// `(stage name, entry count, total payload+header bytes)` per stage,
    /// in [`Stage::ALL`] order.
    pub stages: Vec<(String, u64, u64)>,
    pub total_entries: u64,
    pub total_bytes: u64,
}

impl DiskStats {
    /// Walk `dir` and bucket every `.bin` entry by its stage prefix.
    pub fn scan(dir: impl AsRef<Path>) -> DiskStats {
        let mut stages: Vec<(String, u64, u64)> = Stage::ALL
            .iter()
            .map(|s| (s.name().to_string(), 0, 0))
            .collect();
        let mut total_entries = 0;
        let mut total_bytes = 0;
        if let Ok(entries) = fs::read_dir(dir.as_ref()) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if !name.ends_with(".bin") {
                    continue;
                }
                let Some(stage) = Stage::ALL
                    .iter()
                    .find(|s| name.starts_with(&format!("{}-", s.name())))
                else {
                    continue;
                };
                let bytes = entry.metadata().map(|m| m.len()).unwrap_or(0);
                let row = &mut stages[stage.index()];
                row.1 += 1;
                row.2 += bytes;
                total_entries += 1;
                total_bytes += bytes;
            }
        }
        DiskStats {
            schema_version: CACHE_SCHEMA_VERSION,
            stages,
            total_entries,
            total_bytes,
        }
    }
}

impl ToJson for DiskStats {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::UInt(self.schema_version as u64)),
            (
                "stages",
                Json::Array(
                    self.stages
                        .iter()
                        .map(|(name, entries, bytes)| {
                            Json::obj(vec![
                                ("stage", Json::Str(name.clone())),
                                ("entries", Json::UInt(*entries)),
                                ("bytes", Json::UInt(*bytes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("total_entries", Json::UInt(self.total_entries)),
            ("total_bytes", Json::UInt(self.total_bytes)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("repro-cache-disk-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn key() -> Key {
        Key {
            stage: Stage::Opt,
            hash: 0xdead_beef_cafe_f00d,
        }
    }

    #[test]
    fn envelope_round_trips() {
        let payload = b"artifact bytes".to_vec();
        let sealed = seal(key(), &payload);
        assert_eq!(unseal(key(), &sealed).unwrap(), payload);
    }

    #[test]
    fn envelope_rejects_with_offsets() {
        let payload = b"artifact bytes".to_vec();
        let sealed = seal(key(), &payload);

        // Bad magic, byte 0.
        let mut bad = sealed.clone();
        bad[0] ^= 0xff;
        let e = unseal(key(), &bad).unwrap_err().unwrap();
        assert_eq!(e.offset, 0);
        assert!(e.message.contains("magic"), "{e}");

        // Version mismatch is stale, not corrupt: a newer schema, and
        // schema 1, whose programs were a per-variant instruction codec.
        for version in [1, CACHE_SCHEMA_VERSION + 1] {
            let mut old = sealed.clone();
            old[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(unseal(key(), &old).unwrap_err().is_none());
        }

        // Wrong stage tag, byte 8.
        let mut wrong = sealed.clone();
        wrong[8] = Stage::Hls.tag();
        let e = unseal(key(), &wrong).unwrap_err().unwrap();
        assert_eq!(e.offset, 8);

        // Wrong key hash, byte 9.
        let mut renamed = sealed.clone();
        renamed[9] ^= 1;
        let e = unseal(key(), &renamed).unwrap_err().unwrap();
        assert_eq!(e.offset, 9);

        // Flipped payload byte → checksum failure at offset 25.
        let mut flipped = sealed.clone();
        *flipped.last_mut().unwrap() ^= 1;
        let e = unseal(key(), &flipped).unwrap_err().unwrap();
        assert_eq!(e.offset, 25);
        assert!(e.message.contains("checksum"), "{e}");

        // Truncation → length disagreement at offset 17.
        let mut short = sealed.clone();
        short.truncate(sealed.len() - 3);
        let e = unseal(key(), &short).unwrap_err().unwrap();
        assert_eq!(e.offset, 17);
    }

    #[test]
    fn store_read_write_evict() {
        let dir = tmp_dir("rw");
        let store = DiskStore::new(&dir);
        assert!(matches!(store.read(key()), DiskRead::Miss));
        store.write(key(), b"hello").unwrap();
        match store.read(key()) {
            DiskRead::Hit(p) => assert_eq!(p, b"hello"),
            other => panic!("expected hit, got {other:?}"),
        }
        // Corrupt the file on disk; the store must classify, not serve.
        let path = store.path_for(key());
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        fs::write(&path, bytes).unwrap();
        assert!(matches!(store.read(key()), DiskRead::Corrupt(_)));
        store.evict(key());
        assert!(matches!(store.read(key()), DiskRead::Miss));
        assert_eq!(store.clear().unwrap(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_round_trip() {
        let dir = tmp_dir("stats");
        let store = DiskStore::new(&dir);
        store.write(key(), b"abc").unwrap();
        store
            .write(
                Key {
                    stage: Stage::Lower,
                    hash: 1,
                },
                b"defgh",
            )
            .unwrap();
        let stats = store.stats();
        assert_eq!(stats.total_entries, 2);
        assert!(stats.total_bytes > 0);
        assert_eq!(stats.stages.len(), Stage::ALL.len());

        let text = stats.to_json().to_pretty();
        let j = Json::parse(&text).unwrap();
        let field = |k: &str| j.get(k).and_then(Json::as_u64);
        assert_eq!(field("schema_version"), Some(CACHE_SCHEMA_VERSION as u64));
        assert_eq!(field("total_entries"), Some(2));
        assert_eq!(field("total_bytes"), Some(stats.total_bytes));
        let rows = j.get("stages").and_then(Json::as_array).unwrap();
        assert_eq!(rows.len(), Stage::ALL.len());
        for (row, (name, entries, bytes)) in rows.iter().zip(&stats.stages) {
            assert_eq!(row.get("stage").and_then(Json::as_str), Some(name.as_str()));
            assert_eq!(row.get("entries").and_then(Json::as_u64), Some(*entries));
            assert_eq!(row.get("bytes").and_then(Json::as_u64), Some(*bytes));
        }

        // Parse errors surface the JSON layer's byte offsets.
        let err = Json::parse(&text[..text.len() / 2]).unwrap_err();
        assert!(err.offset > 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
