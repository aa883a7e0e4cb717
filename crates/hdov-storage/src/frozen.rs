//! The on-disk frozen-store format: how a fully built paged file is
//! serialized so the read path can run against a real file.
//!
//! Layout (little-endian throughout; see `DESIGN.md` §13):
//!
//! ```text
//! offset 0                      header page (one full PAGE_SIZE page)
//!   [0..8)    magic  b"HDOVFRZ1"
//!   [8..12)   format version        u32  (currently 2)
//!   [12..16)  page size             u32  (must equal PAGE_SIZE)
//!   [16..24)  page count            u64
//!   [24..32)  generation            u64  (monotonic store build counter)
//!   [32..36)  flags                 u32  (bit 0: V-page records are
//!                                   delta-encoded; see `DESIGN.md` §15)
//!   [36..44)  header checksum       u64  (page_checksum over bytes [0..36))
//!   [44..)    zero padding to PAGE_SIZE
//! offset (1+i)·PAGE_SIZE        page i, for i in 0..page_count
//! offset (1+page_count)·PAGE_SIZE   checksum sidecar:
//!   page_count × u64              per-page page_checksum values
//!   u64                           table checksum (page_checksum over the
//!                                 table bytes above)
//! ```
//!
//! Every field is verified at open — magic, version, page size, exact file
//! length, header checksum, table checksum, and every page checksum — and
//! any mismatch is a typed [`StorageError::InvalidStore`] naming the path
//! and the failed check. Truncated or bit-flipped stores therefore fail
//! fast at open, never as a wrong answer mid-query.

use crate::{page_checksum, Result, StorageError, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Magic bytes identifying a frozen store.
pub const STORE_MAGIC: [u8; 8] = *b"HDOVFRZ1";

/// Current format version.
pub const STORE_VERSION: u32 = 2;

/// Bytes of the header covered by the header checksum.
const HEADER_BODY: usize = 36;

/// Header flag bit recording that V-page records in this store were written
/// with the delta codec (informational — each record also carries its own
/// 1-byte format flag, so readers never need the header bit to decode).
pub const STORE_FLAG_VPAGE_DELTA: u32 = 1 << 0;

/// Parsed, verified header of a frozen store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreLayout {
    /// Number of data pages.
    pub page_count: u64,
    /// Build generation recorded by the writer.
    pub generation: u64,
    /// Writer-recorded flags (e.g. [`STORE_FLAG_VPAGE_DELTA`]).
    pub flags: u32,
}

impl StoreLayout {
    /// Byte offset of data page `i`.
    pub fn page_offset(i: u64) -> u64 {
        (1 + i) * PAGE_SIZE as u64
    }

    /// Byte offset of the checksum sidecar.
    pub fn sidecar_offset(&self) -> u64 {
        (1 + self.page_count) * PAGE_SIZE as u64
    }

    /// Exact expected file length for this layout.
    pub fn expected_len(&self) -> u64 {
        self.sidecar_offset() + (self.page_count + 1) * 8
    }
}

fn invalid(path: &Path, reason: impl Into<String>) -> StorageError {
    StorageError::InvalidStore {
        path: path.to_path_buf(),
        reason: reason.into(),
    }
}

/// Serializes `pages` (each exactly one page of bytes) as a frozen store at
/// `path`, overwriting any existing file. The per-page checksum sidecar is
/// computed and persisted alongside the data.
///
/// The store is written to a temporary sibling file and renamed into place
/// once fully synced, so a crash mid-serialize can never leave a
/// half-written store at `path` — the target either holds the previous
/// complete store or the new one, and a stale `.tmp` is simply overwritten
/// by the next writer.
pub fn write_store<P: AsRef<[u8]>>(path: &Path, pages: &[P], generation: u64) -> Result<()> {
    write_store_flagged(path, pages, generation, 0)
}

/// [`write_store`] with an explicit header `flags` word (e.g.
/// [`STORE_FLAG_VPAGE_DELTA`] for stores whose V-page records are
/// delta-encoded).
pub fn write_store_flagged<P: AsRef<[u8]>>(
    path: &Path,
    pages: &[P],
    generation: u64,
    flags: u32,
) -> Result<()> {
    let mut header = [0u8; PAGE_SIZE];
    header[0..8].copy_from_slice(&STORE_MAGIC);
    header[8..12].copy_from_slice(&STORE_VERSION.to_le_bytes());
    header[12..16].copy_from_slice(&(PAGE_SIZE as u32).to_le_bytes());
    header[16..24].copy_from_slice(&(pages.len() as u64).to_le_bytes());
    header[24..32].copy_from_slice(&generation.to_le_bytes());
    header[32..36].copy_from_slice(&flags.to_le_bytes());
    let hsum = page_checksum(&header[..HEADER_BODY]);
    header[36..44].copy_from_slice(&hsum.to_le_bytes());

    let tmp = temp_sibling(path);
    let file = File::create(&tmp)?;
    let mut w = BufWriter::new(file);
    w.write_all(&header)?;
    let sums = crate::checksum::page_checksums(pages.iter().map(AsRef::as_ref));
    let mut table = Vec::with_capacity((pages.len() + 1) * 8);
    for (p, sum) in pages.iter().zip(sums) {
        let bytes = p.as_ref();
        if bytes.len() != PAGE_SIZE {
            drop(w);
            std::fs::remove_file(&tmp).ok();
            return Err(StorageError::Corrupt(format!(
                "frozen-store writer given a {}-byte page (expected {PAGE_SIZE})",
                bytes.len()
            )));
        }
        w.write_all(bytes)?;
        table.extend_from_slice(&sum.to_le_bytes());
    }
    let tsum = page_checksum(&table);
    table.extend_from_slice(&tsum.to_le_bytes());
    w.write_all(&table)?;
    let file = w
        .into_inner()
        .map_err(|e| StorageError::Io(e.into_error()))?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        // Persist the rename itself; ignore platforms/filesystems where
        // directories cannot be opened for sync.
        if let Ok(d) = File::open(dir) {
            d.sync_all().ok();
        }
    }
    Ok(())
}

/// Temporary path in the same directory as `path` (rename must not cross a
/// filesystem boundary).
fn temp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Reads and verifies the header page of an open store file: magic,
/// version, page size, header checksum, then the exact file length implied
/// by the page count.
pub fn read_layout(file: &File, path: &Path) -> Result<StoreLayout> {
    let len = file.metadata()?.len();
    if len < PAGE_SIZE as u64 {
        return Err(invalid(
            path,
            format!("file is {len} bytes, shorter than the header page"),
        ));
    }
    let mut header = [0u8; PAGE_SIZE];
    file.read_exact_at(&mut header, 0)?;
    if header[0..8] != STORE_MAGIC {
        return Err(invalid(path, "bad magic"));
    }
    let version = u32::from_le_bytes(header[8..12].try_into().unwrap());
    if version != STORE_VERSION {
        return Err(invalid(
            path,
            format!("unsupported version {version} (expected {STORE_VERSION})"),
        ));
    }
    let page_size = u32::from_le_bytes(header[12..16].try_into().unwrap());
    if page_size as usize != PAGE_SIZE {
        return Err(invalid(
            path,
            format!("page size {page_size} does not match compiled {PAGE_SIZE}"),
        ));
    }
    let stored = u64::from_le_bytes(header[36..44].try_into().unwrap());
    if page_checksum(&header[..HEADER_BODY]) != stored {
        return Err(invalid(path, "header checksum mismatch"));
    }
    let layout = StoreLayout {
        page_count: u64::from_le_bytes(header[16..24].try_into().unwrap()),
        generation: u64::from_le_bytes(header[24..32].try_into().unwrap()),
        flags: u32::from_le_bytes(header[32..36].try_into().unwrap()),
    };
    let expected = layout.expected_len();
    if len != expected {
        return Err(invalid(
            path,
            format!("file is {len} bytes, expected {expected} (truncated or padded store)"),
        ));
    }
    Ok(layout)
}

/// Reads the checksum sidecar and verifies the table checksum. The
/// per-page values are returned for page verification by the caller.
pub fn read_checksum_table(file: &File, path: &Path, layout: &StoreLayout) -> Result<Vec<u64>> {
    let n = layout.page_count as usize;
    let mut raw = vec![0u8; (n + 1) * 8];
    file.read_exact_at(&mut raw, layout.sidecar_offset())?;
    let (body, tail) = raw.split_at(n * 8);
    let stored = u64::from_le_bytes(tail.try_into().unwrap());
    if page_checksum(body) != stored {
        return Err(invalid(path, "checksum-table checksum mismatch"));
    }
    Ok(body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect())
}

/// Verifies one page's bytes against its sidecar entry.
pub fn verify_page(path: &Path, id: u64, bytes: &[u8], expected: u64) -> Result<()> {
    if page_checksum(bytes) != expected {
        return Err(invalid(path, format!("page {id} checksum mismatch")));
    }
    Ok(())
}

/// Rewrites data page `id` of the frozen store at `path` in place with
/// verified-good `bytes`, restamping the checksum sidecar from `table` (the
/// trusted per-page table captured when the store was opened).
///
/// The *whole* sidecar is rewritten, not just one slot: the table checksum
/// at its tail covers every entry, so a single-entry patch could not bring a
/// store whose sidecar was itself hit back to a verifiable state. After
/// writing and syncing, the page is read back from disk and re-verified, so
/// the caller learns definitively whether the store is healthy again.
///
/// This is the one sanctioned in-place mutation of a frozen store. It can
/// only rewrite a page to the exact bytes the trusted table already
/// promised (`bytes` must hash to `table[id]`), so a store can be *healed*
/// but never *changed*.
pub fn repair_page(path: &Path, id: u64, bytes: &[u8], table: &[u64]) -> Result<()> {
    if bytes.len() != PAGE_SIZE {
        return Err(StorageError::Corrupt(format!(
            "repair given a {}-byte page (expected {PAGE_SIZE})",
            bytes.len()
        )));
    }
    let expected = *table.get(id as usize).ok_or_else(|| {
        invalid(
            path,
            format!("repair of page {id} beyond the {}-entry table", table.len()),
        )
    })?;
    if page_checksum(bytes) != expected {
        return Err(invalid(
            path,
            format!("repair bytes for page {id} fail the trusted checksum"),
        ));
    }
    let file = OpenOptions::new().read(true).write(true).open(path)?;
    let layout = read_layout(&file, path)?;
    if layout.page_count as usize != table.len() {
        return Err(invalid(
            path,
            format!(
                "repair table has {} entries but the store holds {} pages",
                table.len(),
                layout.page_count
            ),
        ));
    }
    file.write_all_at(bytes, StoreLayout::page_offset(id))?;
    let mut sidecar = Vec::with_capacity((table.len() + 1) * 8);
    for &c in table {
        sidecar.extend_from_slice(&c.to_le_bytes());
    }
    let tsum = page_checksum(&sidecar);
    sidecar.extend_from_slice(&tsum.to_le_bytes());
    file.write_all_at(&sidecar, layout.sidecar_offset())?;
    file.sync_all()?;
    let mut back = vec![0u8; PAGE_SIZE];
    file.read_exact_at(&mut back, StoreLayout::page_offset(id))?;
    verify_page(path, id, &back, expected)
}

/// Reads the `len`-page run starting at data page `first` straight from an
/// open store file with one positioned read — the scrubber's sweep
/// primitive, deliberately bypassing the pool so verification always
/// sees the bytes currently on disk.
pub fn read_run_raw(file: &File, first: u64, len: u64, out: &mut [u8]) -> Result<()> {
    let n = len as usize * PAGE_SIZE;
    file.read_exact_at(&mut out[..n], StoreLayout::page_offset(first))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(n: u64) -> Vec<Box<[u8]>> {
        (0..n)
            .map(|i| {
                let mut p = vec![0u8; PAGE_SIZE].into_boxed_slice();
                p[..8].copy_from_slice(&i.to_le_bytes());
                p
            })
            .collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hdov_frozen_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("store.hdov")
    }

    #[test]
    fn layout_math() {
        let l = StoreLayout {
            page_count: 3,
            generation: 7,
            flags: 0,
        };
        assert_eq!(StoreLayout::page_offset(0), PAGE_SIZE as u64);
        assert_eq!(StoreLayout::page_offset(2), 3 * PAGE_SIZE as u64);
        assert_eq!(l.sidecar_offset(), 4 * PAGE_SIZE as u64);
        assert_eq!(l.expected_len(), 4 * PAGE_SIZE as u64 + 4 * 8);
    }

    #[test]
    fn write_then_verify_header_and_table() {
        let path = tmp("roundtrip");
        write_store(&path, &pages(5), 42).unwrap();
        let file = File::open(&path).unwrap();
        let layout = read_layout(&file, &path).unwrap();
        assert_eq!(layout.page_count, 5);
        assert_eq!(layout.generation, 42);
        assert_eq!(layout.flags, 0);
        let table = read_checksum_table(&file, &path, &layout).unwrap();
        assert_eq!(table.len(), 5);
        // Each sidecar entry matches a fresh checksum of the stored page.
        let mut buf = vec![0u8; PAGE_SIZE];
        for i in 0..5u64 {
            file.read_exact_at(&mut buf, StoreLayout::page_offset(i))
                .unwrap();
            assert_eq!(&buf[..8], &i.to_le_bytes());
            verify_page(&path, i, &buf, table[i as usize]).unwrap();
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn flags_round_trip_and_are_checksummed() {
        let path = tmp("flags");
        write_store_flagged(&path, &pages(2), 9, STORE_FLAG_VPAGE_DELTA).unwrap();
        let file = File::open(&path).unwrap();
        let layout = read_layout(&file, &path).unwrap();
        assert_eq!(layout.flags, STORE_FLAG_VPAGE_DELTA);
        assert_eq!(layout.generation, 9);
        drop(file);
        // A flipped flag bit breaks the header checksum — flags are covered.
        let mut raw = std::fs::read(&path).unwrap();
        raw[32] ^= 0x02;
        std::fs::write(&path, &raw).unwrap();
        let file = File::open(&path).unwrap();
        assert!(read_layout(&file, &path)
            .unwrap_err()
            .to_string()
            .contains("header checksum"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn truncated_store_fails_length_check() {
        let path = tmp("trunc");
        write_store(&path, &pages(3), 0).unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 16]).unwrap();
        let file = File::open(&path).unwrap();
        let err = read_layout(&file, &path).unwrap_err();
        assert!(matches!(err, StorageError::InvalidStore { .. }), "{err}");
        assert!(err.to_string().contains("truncated"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn garbage_magic_and_version_rejected() {
        let path = tmp("magic");
        write_store(&path, &pages(1), 0).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[0] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        let file = File::open(&path).unwrap();
        assert!(read_layout(&file, &path)
            .unwrap_err()
            .to_string()
            .contains("bad magic"));

        // Fix magic, corrupt version — the header checksum also covers it,
        // so recompute a valid checksum to isolate the version check.
        raw[0] ^= 0xFF;
        raw[8..12].copy_from_slice(&9u32.to_le_bytes());
        let hsum = page_checksum(&raw[..HEADER_BODY]);
        raw[36..44].copy_from_slice(&hsum.to_le_bytes());
        std::fs::write(&path, &raw).unwrap();
        let file = File::open(&path).unwrap();
        assert!(read_layout(&file, &path)
            .unwrap_err()
            .to_string()
            .contains("unsupported version"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn flipped_header_bit_fails_header_checksum() {
        let path = tmp("hsum");
        write_store(&path, &pages(2), 0).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        raw[24] ^= 0x01; // generation byte, covered by the header checksum
        std::fs::write(&path, &raw).unwrap();
        let file = File::open(&path).unwrap();
        assert!(read_layout(&file, &path)
            .unwrap_err()
            .to_string()
            .contains("header checksum"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn flipped_table_bit_fails_table_checksum() {
        let path = tmp("tsum");
        write_store(&path, &pages(2), 0).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let sidecar = 3 * PAGE_SIZE;
        raw[sidecar] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        let file = File::open(&path).unwrap();
        let layout = read_layout(&file, &path).unwrap();
        assert!(read_checksum_table(&file, &path, &layout)
            .unwrap_err()
            .to_string()
            .contains("checksum-table"));
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn writer_rejects_ragged_pages() {
        let path = tmp("ragged");
        let err = write_store(&path, &[vec![0u8; 100]], 0).unwrap_err();
        assert!(err.to_string().contains("100-byte page"));
        // The aborted write never touched the target path and cleaned up
        // its temp file.
        assert!(!path.exists());
        assert!(!temp_sibling(&path).exists());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn rewrite_is_atomic_and_leaves_no_temp() {
        let path = tmp("atomic");
        write_store(&path, &pages(2), 1).unwrap();
        // Overwrite with a different store; the temp sibling must be gone
        // and the target must verify cleanly end to end.
        write_store(&path, &pages(4), 2).unwrap();
        assert!(!temp_sibling(&path).exists());
        let file = File::open(&path).unwrap();
        let layout = read_layout(&file, &path).unwrap();
        assert_eq!(layout.page_count, 4);
        assert_eq!(layout.generation, 2);
        read_checksum_table(&file, &path, &layout).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn repair_page_heals_page_and_sidecar() {
        let path = tmp("repair");
        let good = pages(4);
        write_store(&path, &good, 3).unwrap();
        let file = File::open(&path).unwrap();
        let layout = read_layout(&file, &path).unwrap();
        let table = read_checksum_table(&file, &path, &layout).unwrap();
        drop(file);
        // Corrupt one data page *and* its sidecar slot — repair must bring
        // both back.
        let mut raw = std::fs::read(&path).unwrap();
        let off = StoreLayout::page_offset(2) as usize;
        raw[off] ^= 0xFF;
        let slot = layout.sidecar_offset() as usize + 2 * 8;
        raw[slot] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        repair_page(&path, 2, &good[2], &table).unwrap();
        let file = File::open(&path).unwrap();
        let layout = read_layout(&file, &path).unwrap();
        assert_eq!(read_checksum_table(&file, &path, &layout).unwrap(), table);
        let mut buf = vec![0u8; PAGE_SIZE];
        for i in 0..4u64 {
            file.read_exact_at(&mut buf, StoreLayout::page_offset(i))
                .unwrap();
            verify_page(&path, i, &buf, table[i as usize]).unwrap();
        }
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn repair_page_rejects_untrusted_bytes() {
        let path = tmp("repair_bad");
        let good = pages(2);
        write_store(&path, &good, 1).unwrap();
        let file = File::open(&path).unwrap();
        let layout = read_layout(&file, &path).unwrap();
        let table = read_checksum_table(&file, &path, &layout).unwrap();
        drop(file);
        // Bytes that do not hash to the trusted table entry are refused —
        // repair can heal a store, never rewrite it.
        let err = repair_page(&path, 0, &good[1], &table).unwrap_err();
        assert!(
            err.to_string().contains("fail the trusted checksum"),
            "{err}"
        );
        let err = repair_page(&path, 7, &good[0], &table).unwrap_err();
        assert!(err.to_string().contains("beyond"), "{err}");
        // The failed repairs never touched the store.
        let file = File::open(&path).unwrap();
        read_layout(&file, &path).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn stale_temp_from_crashed_writer_is_harmless() {
        let path = tmp("stale");
        write_store(&path, &pages(3), 5).unwrap();
        // Simulate a writer that died mid-serialize: a garbage temp file
        // sits next to a valid store. Opening the store ignores it, and the
        // next writer overwrites it.
        std::fs::write(temp_sibling(&path), b"half-written junk").unwrap();
        let file = File::open(&path).unwrap();
        assert_eq!(read_layout(&file, &path).unwrap().generation, 5);
        write_store(&path, &pages(1), 6).unwrap();
        assert!(!temp_sibling(&path).exists());
        std::fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
