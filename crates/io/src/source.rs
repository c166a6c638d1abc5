//! Container byte sources and validation policy for [`Reader::open`].
//!
//! A CWL container is just bytes; where those bytes live should not
//! dictate the API. [`ContainerSource`] abstracts the three homes a
//! library realistically has on a control processor:
//!
//! - **Owned** — an [`Bytes`] buffer (or a `Vec<u8>`) the reader keeps
//!   alive (network fetches, embedded blobs, freshly written containers).
//! - **Borrowed** — a caller-managed `&[u8]` region (arena slices,
//!   `include_bytes!`, a buffer another subsystem owns). The reader
//!   borrows it for `'src` and copies nothing.
//! - **Mapped** — a read-only [`memmap2::Mmap`] of a container file,
//!   so a multi-GB library is demand-paged instead of resident.
//!
//! [`ValidationMode`] decides how much of the container is audited at
//! open time. The structural index audit is *always* eager — it is
//! O(index) and it is what makes every later borrow safe — but the
//! per-entry payload CRC-32 sweep is O(payload), which for a mapped
//! multi-GB library means faulting in every page before the first
//! fetch. [`ValidationMode::LazyCrc`] defers that sweep to first touch
//! per entry, caching each verdict in an atomic bitmap.
//!
//! [`Reader::open`]: crate::Reader::open

use bytes::Bytes;
use memmap2::Mmap;
use std::fmt;
use std::fs::File;
use std::path::Path;

/// Where a container's backing bytes live. See the [module docs](self).
pub enum ContainerSource<'src> {
    /// An owned, reference-counted buffer the reader keeps alive.
    Owned(Bytes),
    /// A caller-managed region borrowed for `'src`.
    Borrowed(&'src [u8]),
    /// A read-only memory map of a container file.
    Mapped(Mmap),
}

impl ContainerSource<'_> {
    /// Memory-maps the container file at `path` (read-only, private).
    ///
    /// The resulting source is `'static`: the mapping owns its pages.
    ///
    /// # Truncation hazard
    ///
    /// The mapping reads the file's pages on demand, so the file must
    /// not shrink while a [`Reader`](crate::Reader) serves from it:
    /// truncating a mapped container raises `SIGBUS` on the next touched
    /// page past the new end, which kills the process. To update a
    /// served library, write the new container to a fresh file and
    /// `rename` it over the old path: the rename swaps the directory
    /// entry, the existing mapping keeps the old inode alive and
    /// unchanged, and the next `map_path` picks up the new file.
    ///
    /// # Errors
    ///
    /// Any `open(2)` / `mmap(2)` failure, as [`std::io::Error`] —
    /// container *content* problems surface later, from
    /// [`Reader::open`](crate::Reader::open), as typed
    /// [`ContainerError`](crate::ContainerError)s.
    pub fn map_path(path: impl AsRef<Path>) -> std::io::Result<ContainerSource<'static>> {
        let file = File::open(path)?;
        // SAFETY: the map is read-only and private; the caller must not
        // truncate the file while it is mapped (the truncation hazard
        // documented above).
        let map = unsafe { Mmap::map(&file)? };
        Ok(ContainerSource::Mapped(map))
    }

    /// The backing bytes, whichever home they live in.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ContainerSource::Owned(data) => data,
            ContainerSource::Borrowed(data) => data,
            ContainerSource::Mapped(map) => map,
        }
    }

    /// Total source length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the source is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// A short name for the source kind (used in `Debug` output and
    /// test matrices): `"owned"`, `"borrowed"` or `"mapped"`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ContainerSource::Owned(_) => "owned",
            ContainerSource::Borrowed(_) => "borrowed",
            ContainerSource::Mapped(_) => "mapped",
        }
    }
}

impl fmt::Debug for ContainerSource<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContainerSource")
            .field("kind", &self.kind_name())
            .field("bytes", &self.len())
            .finish()
    }
}

impl From<Bytes> for ContainerSource<'static> {
    fn from(data: Bytes) -> Self {
        ContainerSource::Owned(data)
    }
}

impl From<Vec<u8>> for ContainerSource<'static> {
    fn from(data: Vec<u8>) -> Self {
        ContainerSource::Owned(Bytes::from(data))
    }
}

impl<'src> From<&'src [u8]> for ContainerSource<'src> {
    fn from(data: &'src [u8]) -> Self {
        ContainerSource::Borrowed(data)
    }
}

impl From<Mmap> for ContainerSource<'static> {
    fn from(map: Mmap) -> Self {
        ContainerSource::Mapped(map)
    }
}

/// How much payload integrity checking happens at open time.
///
/// The structural index audit (header, sizes, index CRC, sort order,
/// offset contiguity, decodable variants) is identical — and always
/// eager — in both modes; only the per-entry payload CRC-32 sweep
/// moves. Both modes refuse to serve damaged payload bytes; they differ
/// only in *when* the damage is discovered.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ValidationMode {
    /// Verify every payload's CRC-32 during [`Reader::open`] — open is
    /// O(container), and a reader that constructs can never report
    /// [`CrcMismatch`](crate::ContainerError::CrcMismatch) later.
    ///
    /// [`Reader::open`]: crate::Reader::open
    #[default]
    Eager,
    /// Defer each payload's CRC-32 to its first access — open is
    /// O(index), the larger-than-RAM mode. The verdict is computed at
    /// most usefully once per entry and cached in an atomic bitmap (one
    /// `u64` word per 64 entries, allocated at open), so repeat access
    /// costs one relaxed atomic load and a damaged entry keeps failing
    /// with the same typed error without re-hashing. All decode and
    /// serve paths check the verdict before parsing; only the raw-bytes
    /// escape hatch [`Entry::payload`](crate::Entry::payload) bypasses
    /// it (documented there).
    LazyCrc,
}

/// Options for [`Reader::open`](crate::Reader::open).
///
/// Construct with the builder-style helpers (the struct is
/// `#[non_exhaustive]` so future knobs can land without breakage); the
/// `Default` is [`ValidationMode::Eager`].
///
/// ```
/// use compaqt_io::{ReaderOptions, ValidationMode};
///
/// let eager = ReaderOptions::default();
/// assert_eq!(eager.validation, ValidationMode::Eager);
/// let lazy = ReaderOptions::lazy_crc();
/// assert_eq!(lazy.validation, ValidationMode::LazyCrc);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct ReaderOptions {
    /// Payload integrity policy (see [`ValidationMode`]).
    pub validation: ValidationMode,
}

impl ReaderOptions {
    /// The default options ([`ValidationMode::Eager`]).
    pub fn new() -> Self {
        ReaderOptions::default()
    }

    /// Options with [`ValidationMode::LazyCrc`] — the larger-than-RAM
    /// open path.
    pub fn lazy_crc() -> Self {
        ReaderOptions::new().validation(ValidationMode::LazyCrc)
    }

    /// Sets the validation mode.
    #[must_use]
    pub fn validation(mut self, mode: ValidationMode) -> Self {
        self.validation = mode;
        self
    }
}
