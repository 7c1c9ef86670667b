//! Shared and copy-on-write wrappers around storage backends.

use std::ops::Deref;
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::RwLock;

use crate::backend::StorageBackend;
use crate::engine::PartitionStore;
use crate::value::Record;

/// A copy-on-write handle to a [`PartitionStore`] with value semantics.
///
/// Cloning is an `Arc` bump; the first mutation after a clone
/// ([`CowPartitionStore::make_mut`]) detaches a private copy. This is the
/// storage type of replica stores: synchronizing replicas (anti-entropy
/// writebacks, replication transfers) shares one allocation instead of
/// deep-copying the store per replica, and replicas that still share an
/// allocation are trivially in sync ([`CowPartitionStore::shares_storage_with`]),
/// letting anti-entropy skip Merkle comparison entirely.
///
/// Reads go through `Deref`, so the full [`PartitionStore`] read API is
/// available directly on the handle.
#[derive(Debug, Clone, Default)]
pub struct CowPartitionStore {
    inner: Arc<PartitionStore>,
}

impl CowPartitionStore {
    /// A handle over an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps an existing store.
    pub fn from_store(store: PartitionStore) -> Self {
        Self {
            inner: Arc::new(store),
        }
    }

    /// Mutable access to the underlying store, detaching a private copy
    /// first if the allocation is shared with other handles.
    pub fn make_mut(&mut self) -> &mut PartitionStore {
        Arc::make_mut(&mut self.inner)
    }

    /// True when both handles point at the same allocation (and therefore
    /// hold byte-identical contents).
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Deref for CowPartitionStore {
    type Target = PartitionStore;

    fn deref(&self) -> &PartitionStore {
        &self.inner
    }
}

/// A cheaply clonable, thread-safe handle to one replica's store, generic
/// over the [`StorageBackend`] it wraps.
///
/// Readers take a shared lock; writers an exclusive one. The handle exists
/// so that embedding applications can serve concurrent reads against the
/// same replica the simulation mutates between epochs — regardless of
/// whether the replica runs on the in-memory oracle or the durable LSM
/// engine.
#[derive(Debug)]
pub struct SharedStore<B: StorageBackend> {
    inner: Arc<RwLock<B>>,
}

// Manual impl: cloning bumps the Arc and must not require `B: Clone`
// (the LSM engine deliberately has no `Clone` — copies go through `fork`).
impl<B: StorageBackend> Clone for SharedStore<B> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// The historical name: a thread-safe handle over the in-memory engine.
pub type SharedPartitionStore = SharedStore<PartitionStore>;

impl<B: StorageBackend> Default for SharedStore<B> {
    fn default() -> Self {
        Self::new()
    }
}

impl<B: StorageBackend> SharedStore<B> {
    /// A handle over an empty store.
    pub fn new() -> Self {
        Self::from_store(B::open())
    }

    /// Wraps an existing store.
    pub fn from_store(store: B) -> Self {
        Self {
            inner: Arc::new(RwLock::new(store)),
        }
    }

    /// Applies a record (see [`StorageBackend::apply`]).
    pub fn apply(&self, key: impl Into<Bytes>, record: Record) -> bool {
        self.inner.write().apply(key.into(), record)
    }

    /// Clone of the record under `key`.
    pub fn get(&self, key: &[u8]) -> Option<Record> {
        self.inner.read().get(key)
    }

    /// Clone of the live value under `key`.
    pub fn get_value(&self, key: &[u8]) -> Option<Bytes> {
        self.inner.read().get_value(key)
    }

    /// Logical bytes stored.
    pub fn logical_bytes(&self) -> u64 {
        self.inner.read().logical_bytes()
    }

    /// Number of stored keys.
    pub fn len(&self) -> usize {
        self.inner.read().len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().is_empty()
    }

    /// Runs `f` with shared access to the underlying store.
    pub fn read_with<T>(&self, f: impl FnOnce(&B) -> T) -> T {
        f(&self.inner.read())
    }

    /// Runs `f` with exclusive access to the underlying store.
    pub fn write_with<T>(&self, f: impl FnOnce(&mut B) -> T) -> T {
        f(&mut self.inner.write())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Version;

    #[test]
    fn cow_clone_shares_until_written() {
        let mut a = CowPartitionStore::new();
        assert!(a
            .make_mut()
            .apply(&b"k"[..], Record::put(&b"v1"[..], Version::new(1, 0, 0))));
        let mut b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert_eq!(b.get_value(b"k").unwrap().as_ref(), b"v1");
        // Writing through one handle detaches it; the other is untouched.
        assert!(b
            .make_mut()
            .apply(&b"k"[..], Record::put(&b"v2"[..], Version::new(2, 0, 0))));
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a.get_value(b"k").unwrap().as_ref(), b"v1");
        assert_eq!(b.get_value(b"k").unwrap().as_ref(), b"v2");
    }

    #[test]
    fn cow_from_store_reads_through_deref() {
        let mut inner = PartitionStore::new();
        assert!(inner.apply(&b"a"[..], Record::put(&b"1"[..], Version::new(1, 0, 0))));
        let handle = CowPartitionStore::from_store(inner);
        assert_eq!(handle.len(), 1);
        assert_eq!(handle.logical_bytes(), 1 + 1);
        assert!(!handle.is_empty());
    }

    #[test]
    fn shared_roundtrip() {
        let s = SharedPartitionStore::new();
        assert!(s.apply(&b"k"[..], Record::put(&b"v"[..], Version::new(1, 0, 0))));
        assert_eq!(s.get_value(b"k").unwrap().as_ref(), b"v");
        assert_eq!(s.len(), 1);
        assert!(!s.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let a = SharedPartitionStore::new();
        let b = a.clone();
        assert!(a.apply(&b"k"[..], Record::put(&b"v"[..], Version::new(1, 0, 0))));
        assert_eq!(b.get_value(b"k").unwrap().as_ref(), b"v");
    }

    #[test]
    fn concurrent_writers_converge() {
        // Eight writer threads race on one key, all mutating the same
        // shared store concurrently through cloned handles.
        let store = SharedPartitionStore::new();
        std::thread::scope(|s| {
            for writer in 0..8u32 {
                let handle = store.clone();
                s.spawn(move || {
                    for seq in 0..100u64 {
                        handle.apply(
                            &b"contended"[..],
                            Record::put(vec![writer as u8], Version::new(1, seq, writer)),
                        );
                    }
                });
            }
        });
        // LWW winner is the highest (epoch, seq, writer) = (1, 99, 7).
        let winner = store.get(b"contended").unwrap();
        assert_eq!(winner.version, Version::new(1, 99, 7));
        assert_eq!(winner.value.unwrap().as_ref(), &[7u8]);
    }

    #[test]
    fn shared_wrapper_is_backend_generic() {
        let s: SharedStore<crate::LsmStore> = SharedStore::new();
        assert!(s.apply(&b"k"[..], Record::put(&b"v"[..], Version::new(1, 0, 0))));
        assert_eq!(s.get_value(b"k").unwrap().as_ref(), b"v");
        assert_eq!(s.len(), 1);
        let b = s.clone();
        assert!(b.apply(&b"k2"[..], Record::put(&b"w"[..], Version::new(1, 1, 0))));
        assert_eq!(s.len(), 2, "clones share the same durable store");
    }

    #[test]
    fn with_accessors() {
        let s = SharedPartitionStore::from_store(PartitionStore::new());
        s.write_with(|st| {
            let _ = st.apply(&b"a"[..], Record::put(&b"1"[..], Version::new(1, 0, 0)));
        });
        let n = s.read_with(|st| st.len());
        assert_eq!(n, 1);
    }
}
