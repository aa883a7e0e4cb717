//! Fixed-size pages and page identifiers.

use std::fmt;

/// Size of every disk page, in bytes.
///
/// The paper's V-pages, R-tree nodes, V-page-index segments, and model
/// extents all live in pages of this size.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page within one [`PagedFile`](crate::PagedFile).
///
/// Page ids are dense: page `k` starts at byte offset `k * PAGE_SIZE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

impl PageId {
    /// Byte offset of the start of this page.
    #[inline]
    pub fn byte_offset(self) -> u64 {
        self.0 * PAGE_SIZE as u64
    }
}

impl fmt::Display for PageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "page#{}", self.0)
    }
}

/// An owned page buffer, always exactly [`PAGE_SIZE`] bytes.
#[derive(Clone, PartialEq, Eq)]
pub struct Page(Box<[u8]>);

impl Page {
    /// A zero-filled page.
    pub fn zeroed() -> Self {
        Page(vec![0u8; PAGE_SIZE].into_boxed_slice())
    }

    /// Builds a page from `data`, zero-padding to [`PAGE_SIZE`]. A full
    /// page of `data` is copied straight into the new buffer, with no
    /// zero-fill to overwrite.
    ///
    /// # Panics
    /// Panics if `data` is longer than a page.
    pub fn from_bytes(data: &[u8]) -> Self {
        assert!(
            data.len() <= PAGE_SIZE,
            "data larger than a page: {}",
            data.len()
        );
        if data.len() == PAGE_SIZE {
            return Page(data.into());
        }
        let mut p = Page::zeroed();
        p.0[..data.len()].copy_from_slice(data);
        p
    }

    /// Read-only view of the page bytes.
    #[inline]
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }

    /// Mutable view of the page bytes.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl fmt::Debug for Page {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let nonzero = self.0.iter().filter(|&&b| b != 0).count();
        write!(f, "Page({nonzero} non-zero bytes)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page() {
        let p = Page::zeroed();
        assert_eq!(p.bytes().len(), PAGE_SIZE);
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn from_bytes_pads() {
        let p = Page::from_bytes(&[1, 2, 3]);
        assert_eq!(&p.bytes()[..3], &[1, 2, 3]);
        assert!(p.bytes()[3..].iter().all(|&b| b == 0));
    }

    #[test]
    fn from_bytes_full_page_copies() {
        let data: Vec<u8> = (0..PAGE_SIZE).map(|i| i as u8).collect();
        assert_eq!(Page::from_bytes(&data).bytes(), &data[..]);
    }

    #[test]
    #[should_panic]
    fn from_bytes_too_large_panics() {
        let _ = Page::from_bytes(&vec![0u8; PAGE_SIZE + 1]);
    }

    #[test]
    fn page_id_offset() {
        assert_eq!(PageId(0).byte_offset(), 0);
        assert_eq!(PageId(3).byte_offset(), 3 * PAGE_SIZE as u64);
        assert_eq!(PageId(7).to_string(), "page#7");
    }
}
