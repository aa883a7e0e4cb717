//! Immutable, `Arc`-shared page frames with a decoded-object overlay.
//!
//! The zero-copy read path hands callers an [`Arc<Frame>`] instead of
//! copying page bytes into a caller-owned buffer. A frame is immutable for
//! its whole pool residency, so any number of sessions may hold clones of
//! the same `Arc` while the pool retains (or evicts) its own.
//!
//! A frame owns its bytes: one [`Page`] copied out of the store at
//! admission.
//!
//! Each frame also carries a **decoded overlay**: a `OnceLock` slot that
//! memoizes the result of decoding the page into a typed object (an
//! `HdovNode`, a vector of V-pages, …). Every frame memoizes; there is no
//! policy to turn it off. The overlay is populated at most once per pool
//! residency — concurrent sessions racing on a cold frame run the decoder
//! once and everyone shares the same `Arc<T>` — and it is dropped exactly
//! when the frame itself is evicted, because the pool's `Arc` is the only
//! long-lived owner. Overlay state is *outside* the simulated-disk cost
//! model: the pool has counted and charged the read before any decode
//! runs, and a decode never reads a page (the `overlay_residency`
//! integration test checks every pooled overlay against a fresh decode of
//! its frame's bytes).

use crate::{Page, PageId, Result, StorageError};
use std::any::Any;
use std::sync::{Arc, OnceLock};

/// The memoized outcome of one decode. Errors are cached as their display
/// string ([`StorageError`] is not `Clone`); the bytes are immutable, so a
/// failed decode is deterministic and rerunning it would be wasted work.
type OverlaySlot = OnceLock<std::result::Result<DynOverlay, String>>;

/// A decoded overlay of some page type.
type DynOverlay = Arc<dyn Any + Send + Sync>;

/// One immutable pooled page plus its lazily decoded overlay.
#[derive(Debug)]
pub struct Frame {
    id: PageId,
    page: Page,
    overlay: OverlaySlot,
}

impl Frame {
    /// A frame owning a page copied out of the store.
    pub fn new(id: PageId, page: Page) -> Self {
        Frame {
            id,
            page,
            overlay: OnceLock::new(),
        }
    }

    /// The page id this frame holds.
    pub fn id(&self) -> PageId {
        self.id
    }

    /// Raw page bytes.
    pub fn bytes(&self) -> &[u8] {
        self.page.bytes()
    }

    /// Whether the overlay slot is populated (for residency tests).
    pub fn has_overlay(&self) -> bool {
        self.overlay.get().is_some()
    }

    /// The decoded overlay of this page, decoding with `decode` on first
    /// use.
    ///
    /// Exactly one caller per residency runs `decode` (under the `OnceLock`
    /// race, only the winner's closure executes); everyone else gets a clone
    /// of the same `Arc<T>`. Records `decode_misses` for the run that
    /// decoded and `decode_hits` for every memoized return, so for a page
    /// type that is decoded on every pool read, `decode_misses` equals the
    /// pool's miss count exactly.
    ///
    /// # Errors
    /// Propagates the decoder's error (memoized as [`StorageError::Corrupt`]
    /// on later calls), or `Corrupt` if the same page is requested as two
    /// different overlay types.
    pub fn overlay<T, F>(&self, decode: F) -> Result<Arc<T>>
    where
        T: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<T>,
    {
        let any = Arc::clone(self.decoded(decode)?);
        any.downcast::<T>().map_err(|_| self.type_mismatch())
    }

    /// [`overlay`](Self::overlay), lending the decoded value to `read`
    /// instead of cloning its `Arc`: same decode-once rule, same counters,
    /// same errors. A reader that copies one small piece out of a large
    /// overlay (one V-page of a decoded page) takes no reference count.
    pub fn with_overlay<T, F, R>(&self, decode: F, read: impl FnOnce(&T) -> R) -> Result<R>
    where
        T: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<T>,
    {
        let any = self.decoded(decode)?;
        let value = any
            .downcast_ref::<T>()
            .ok_or_else(|| self.type_mismatch())?;
        Ok(read(value))
    }

    /// The one decode path behind [`overlay`](Self::overlay) and
    /// [`with_overlay`](Self::with_overlay): the memoized slot, decoding on
    /// first use, with the decode counters recorded.
    fn decoded<T, F>(&self, decode: F) -> Result<&DynOverlay>
    where
        T: Any + Send + Sync,
        F: FnOnce(&[u8]) -> Result<T>,
    {
        let mut ran = false;
        let slot = self.overlay.get_or_init(|| {
            ran = true;
            match decode(self.bytes()) {
                Ok(v) => Ok(Arc::new(v) as DynOverlay),
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

    fn type_mismatch(&self) -> StorageError {
        StorageError::Corrupt(format!(
            "{} overlay requested as two different types",
            self.id
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(byte: u8) -> Frame {
        Frame::new(PageId(7), Page::from_bytes(&[byte; 16]))
    }

    #[test]
    fn overlay_decodes_once_and_shares() {
        let f = frame(3);
        assert!(!f.has_overlay());
        let mut decodes = 0;
        let a: Arc<u32> = f
            .overlay(|p| {
                decodes += 1;
                Ok(u32::from(p[0]) * 10)
            })
            .unwrap();
        let b: Arc<u32> = f
            .overlay(|_| {
                decodes += 1;
                Ok(999)
            })
            .unwrap();
        assert_eq!((*a, *b), (30, 30), "second call must reuse the first");
        assert_eq!(decodes, 1);
        assert!(f.has_overlay());
        assert!(Arc::ptr_eq(&a, &b));
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
        // The lent value is the memoized one `overlay` hands out.
        let shared: Arc<Vec<u32>> = f.overlay(|_| Ok(vec![0])).unwrap();
        assert_eq!(*shared, vec![4, 7]);
        assert_eq!(decodes, 1);
        let err = f.with_overlay(|_| Ok(1u8), |v: &u8| *v).unwrap_err();
        assert!(err.to_string().contains("two different types"));
    }

    #[test]
    fn overlay_caches_decode_errors() {
        let f = frame(0);
        let err = f
            .overlay::<u32, _>(|_| Err(StorageError::Corrupt("bad magic".into())))
            .unwrap_err();
        assert!(err.to_string().contains("bad magic"));
        // The failure is memoized: a second (would-succeed) decode never runs.
        let err = f.overlay::<u32, _>(|_| Ok(1)).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn overlay_type_mismatch_is_an_error() {
        let f = frame(1);
        let _: Arc<u32> = f.overlay(|_| Ok(1u32)).unwrap();
        let err = f.overlay::<u64, _>(|_| Ok(1u64)).unwrap_err();
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
                    let v: Arc<u32> = f
                        .overlay(|p| {
                            decodes.fetch_add(1, Ordering::Relaxed);
                            Ok(u32::from(p[0]))
                        })
                        .unwrap();
                    assert_eq!(*v, 9);
                });
            }
        });
        assert_eq!(decodes.load(Ordering::Relaxed), 1);
    }
}
