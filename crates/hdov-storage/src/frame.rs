//! Immutable, `Arc`-shared page frames with a decoded-object overlay.
//!
//! The zero-copy read path hands callers an [`Arc<Frame>`] instead of
//! copying page bytes into a caller-owned buffer. A frame is immutable for
//! its whole life, so any number of sessions may hold clones of the same
//! `Arc` while the pool retains (or evicts) its own.
//!
//! A frame is an immutable `Arc<[u8]>` of page bytes plus its overlay
//! slot, and knows nothing of which page id it serves. A pool miss admits
//! either the store's own frame of the page's bytes (a [`SharedPage`]:
//! every mem page, every repeated pread page), which every pool and fork
//! over the store shares and no pool recycles, or a copy into a buffer the
//! pool owns alone, which becomes its shard's spare once evicted and
//! unheld.
//!
//! Readers of a fixed-layout page (an HDoV node) read it in place through
//! [`bytes`](Frame::bytes) and leave the overlay slot empty. Readers of a
//! page that takes real work to decode (a page of V-page records, possibly
//! delta-encoded) use the frame's **decoded overlay**: a `OnceLock` slot
//! that memoizes the result of decoding the page into a typed object and
//! lends it out ([`with_overlay`](Frame::with_overlay)). The overlay is
//! populated at most once per frame — concurrent sessions racing on a cold
//! frame run the decoder once and everyone reads the same value — and it
//! is dropped exactly when the frame itself is: with the store for a shared
//! page, so a store holds at most one overlay per distinct page, and at
//! eviction for a copy, whose pool `Arc` is its only long-lived owner.
//! Decoding is a pure function of the bytes, and each store's pages are
//! decoded as one overlay type, so sharing an overlay never changes an
//! answer. Overlay state is *outside* the simulated-disk cost model: the
//! pool has counted and charged the read before any decode runs, and a
//! decode never reads a page (the `overlay_residency` integration test
//! checks every pooled overlay against a fresh decode of its frame's
//! bytes).

use crate::{PageId, Result, StorageError};
use std::any::Any;
use std::sync::{Arc, OnceLock};

/// The memoized outcome of one decode. Errors are cached as their display
/// string ([`StorageError`] is not `Clone`); the bytes are immutable, so a
/// failed decode is deterministic and rerunning it would be wasted work.
type OverlaySlot = OnceLock<std::result::Result<DynOverlay, String>>;

/// A decoded overlay of some page type.
type DynOverlay = Box<dyn Any + Send + Sync>;

/// One immutable pooled page plus its lazily decoded overlay.
#[derive(Debug)]
pub struct Frame {
    bytes: Arc<[u8]>,
    overlay: OverlaySlot,
}

impl Frame {
    /// A frame over `bytes`, which it may share with a store or other
    /// frames, with an empty overlay slot.
    pub fn new(bytes: Arc<[u8]>) -> Self {
        Frame {
            bytes,
            overlay: OnceLock::new(),
        }
    }

    /// The frame's page buffer, its overlay dropped — how the pool recycles
    /// the buffer of an evicted copy no session still holds.
    pub fn into_bytes(self) -> Arc<[u8]> {
        self.bytes
    }

    /// Raw page bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Whether the overlay slot is populated (for residency tests).
    pub fn has_overlay(&self) -> bool {
        self.overlay.get().is_some()
    }

    /// The decoded overlay of this page, decoding with `decode` on first
    /// use, lent to `read`.
    ///
    /// Exactly one caller per frame runs `decode` (under the `OnceLock`
    /// race, only the winner's closure executes); everyone else reads the
    /// same value. Records `decode_misses` for the run that decoded and
    /// `decode_hits` for every memoized read, so for a page type that is
    /// decoded on every pool read, `decode_misses` counts the copied misses
    /// plus the distinct shared pages the store has decoded so far.
    ///
    /// # Errors
    /// Propagates the decoder's error (memoized as [`StorageError::Corrupt`]
    /// on later calls), or `Corrupt` if the same page is requested as two
    /// different overlay types.
    pub fn with_overlay<T, F, R>(&self, decode: F, read: impl FnOnce(&T) -> R) -> Result<R>
    where
        T: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<T>,
    {
        let any = self.decoded(decode)?;
        let value = any.downcast_ref::<T>().ok_or_else(|| {
            StorageError::Corrupt("page overlay requested as two different types".into())
        })?;
        Ok(read(value))
    }

    /// The memoized slot behind [`with_overlay`](Self::with_overlay),
    /// decoding on first use, with the decode counters recorded.
    fn decoded<T, F>(&self, decode: F) -> Result<&DynOverlay>
    where
        T: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<T>,
    {
        let mut ran = false;
        let slot = self.overlay.get_or_init(|| {
            ran = true;
            match decode(self.bytes()) {
                Ok(v) => Ok(Box::new(v) as DynOverlay),
                Err(e) => Err(e.to_string()),
            }
        });
        if ran {
            hdov_obs::add(hdov_obs::Counter::DecodeMisses, 1);
        } else {
            hdov_obs::add(hdov_obs::Counter::DecodeHits, 1);
        }
        match slot {
            Ok(any) => Ok(any),
            Err(msg) => Err(StorageError::Corrupt(msg.clone())),
        }
    }
}

impl AsRef<[u8]> for Frame {
    fn as_ref(&self) -> &[u8] {
        &self.bytes
    }
}

/// A store's own frame of some page bytes and the [`page_checksum`] of
/// those bytes, hashed once: what a pool admits for a miss on any page
/// with these bytes, after comparing the checksum with the page's own.
///
/// [`page_checksum`]: crate::page_checksum
#[derive(Debug)]
pub struct SharedPage {
    frame: Arc<Frame>,
    checksum: u64,
}

impl SharedPage {
    /// A frame over `bytes`, whose checksum is `checksum`.
    pub(crate) fn new(bytes: Arc<[u8]>, checksum: u64) -> Self {
        SharedPage {
            frame: Arc::new(Frame::new(bytes)),
            checksum,
        }
    }

    /// The frame every pool over the store admits for a miss on the page.
    pub fn frame(&self) -> &Arc<Frame> {
        &self.frame
    }

    /// The checksum of the frame's bytes.
    pub fn checksum(&self) -> u64 {
        self.checksum
    }
}

/// The [`SharedPages::table`] entry of a page without a shared frame.
pub const UNSHARED: u32 = u32::MAX;

/// A store's shared pages: which page ids share which frame.
#[derive(Debug)]
pub struct SharedPages {
    /// Per page id, the index of its shared page in `pages`, or
    /// [`UNSHARED`].
    pub table: Box<[u32]>,
    /// One shared page per distinct content that has one.
    pub pages: Box<[SharedPage]>,
}

impl SharedPages {
    /// The shared page of page `id`; `None` when it has none or `id` is
    /// out of bounds.
    pub(crate) fn get(&self, id: PageId) -> Option<&SharedPage> {
        let at = *self.table.get(usize::try_from(id.0).ok()?)?;
        self.pages.get(at as usize)
    }

    /// The shared page of every page id in order, for a store that shares
    /// every page (a mem store's); panics at a page without one.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &SharedPage> {
        self.table.iter().map(|&at| &self.pages[at as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(byte: u8) -> Frame {
        Frame::new(Arc::from([byte; 16]))
    }

    /// The overlay of `f` as a `u32`, decoded from the first byte × 10.
    fn read_u32(f: &Frame, decodes: &mut u32) -> (u32, *const u32) {
        f.with_overlay(
            |p| {
                *decodes += 1;
                Ok(u32::from(p[0]) * 10)
            },
            |v: &u32| (*v, v as *const u32),
        )
        .unwrap()
    }

    #[test]
    fn overlay_decodes_once_and_shares() {
        let f = frame(3);
        assert!(!f.has_overlay());
        let mut decodes = 0;
        let (a, a_at) = read_u32(&f, &mut decodes);
        let (b, b_at) = read_u32(&f, &mut decodes);
        assert_eq!((a, b), (30, 30), "second call must reuse the first");
        assert_eq!(decodes, 1);
        assert!(f.has_overlay());
        assert_eq!(a_at, b_at, "both reads lend the one memoized value");
    }

    #[test]
    fn with_overlay_lends_the_shared_decode() {
        let f = frame(4);
        let mut decodes = 0;
        let first = f
            .with_overlay(
                |p| {
                    decodes += 1;
                    Ok(vec![u32::from(p[0]), 7])
                },
                |v: &Vec<u32>| v[1],
            )
            .unwrap();
        assert_eq!(first, 7);
        let again = f
            .with_overlay(|_| Ok(vec![0]), |v: &Vec<u32>| v.clone())
            .unwrap();
        assert_eq!(again, vec![4, 7]);
        assert_eq!(decodes, 1);
    }

    #[test]
    fn overlay_caches_decode_errors() {
        let f = frame(0);
        let fail = |_: &[u8]| -> Result<u32> { Err(StorageError::Corrupt("bad magic".into())) };
        let err = f.with_overlay(fail, |v: &u32| *v).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        // The failure is memoized: a second (would-succeed) decode never runs.
        let err = f.with_overlay(|_| Ok(1u32), |v: &u32| *v).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn overlay_type_mismatch_is_an_error() {
        let f = frame(1);
        f.with_overlay(|_| Ok(1u32), |v: &u32| *v).unwrap();
        let err = f.with_overlay(|_| Ok(1u64), |v: &u64| *v).unwrap_err();
        assert!(err.to_string().contains("two different types"));
    }

    #[test]
    fn concurrent_overlay_decodes_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let f = Arc::new(frame(9));
        let decodes = AtomicU32::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let f = Arc::clone(&f);
                let decodes = &decodes;
                s.spawn(move || {
                    let v = f
                        .with_overlay(
                            |p| {
                                decodes.fetch_add(1, Ordering::Relaxed);
                                Ok(u32::from(p[0]))
                            },
                            |v: &u32| *v,
                        )
                        .unwrap();
                    assert_eq!(v, 9);
                });
            }
        });
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn frame_reads_as_its_bytes() {
        let f = frame(7);
        assert_eq!(f.as_ref(), f.bytes());
        assert_eq!(f.as_ref(), &[7u8; 16]);
    }
}
