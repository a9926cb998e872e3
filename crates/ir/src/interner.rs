//! A shared hash-consing arena and the lock-free id-indexed storage behind
//! it.
//!
//! [`ConcurrentInterner<T>`] assigns each structurally distinct value of
//! `T` a dense `u32` id and stores the value once, forever: interned nodes
//! are leaked into `&'static` storage. Equality of ids is equality of
//! values, which turns deep structural comparisons into integer compares
//! and makes ids usable as memo-table keys.
//!
//! Id dereference ([`ConcurrentInterner::get`]) is on every hot path of the
//! typecheckers and machines, so it reads a [`ChunkedSlab`] node index and
//! takes no lock. Interning itself probes one `RwLock`'d hash-cons table
//! (read lock first, write lock on a miss) and bumps one hit counter. The
//! arena is `Sync`, so a `static` arena can be shared by test threads and
//! by a caller's large-stack worker thread.
//!
//! # Examples
//!
//! ```
//! use ps_ir::ConcurrentInterner;
//! static ARENA: ConcurrentInterner<(u32, u32)> = ConcurrentInterner::new();
//! let a = ARENA.intern((1, 2));
//! let b = ARENA.intern((1, 2));
//! assert_eq!(a, b);
//! assert_eq!(ARENA.get(a), Some(&(1, 2)));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::ptr::null_mut;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

// ----- hashing ------------------------------------------------------------

/// A fast, deterministic multiply-rotate hasher (the `FxHash` scheme) for
/// the hash-cons tables.
///
/// Interned nodes are small trees of `u32` ids and enum discriminants;
/// SipHash's per-byte mixing dominates the interning hot path on such
/// keys, while Fx folds a whole word per multiply. The tables never hold
/// untrusted keys, so HashDoS resistance buys nothing here, and the fixed
/// seed keeps hashes deterministic across runs.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

/// Knuth's 64-bit multiplicative-hash constant (⌊2⁶⁴/φ⌋, odd).
const FX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold in the tail length so "ab" and "ab\0" differ.
            word[7] = word[7].wrapping_add(rest.len() as u8);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// [`std::hash::BuildHasher`] for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

// ----- lock-free id-indexed storage ---------------------------------------

/// Chunk `c` holds ids `[2^c - 1, 2^{c+1} - 1)`; 33 chunks cover all of
/// `u32`.
const SLAB_CHUNKS: usize = 33;

/// A lock-free, append-only table from dense `u32` ids to leaked
/// `&'static T`s: the node index of [`ConcurrentInterner`] and the backing
/// store for id-keyed memo tables.
///
/// Entries live in doubling chunks so the table grows without ever moving
/// an entry (a `Vec` resize would invalidate concurrent readers). Readers
/// take two `Acquire` loads — chunk pointer, then entry pointer — and no
/// lock. Writers allocate chunks with a CAS (the loser frees its copy) and
/// publish entries with a `Release` store. Callers must only ever publish
/// one value per id, or semantically equal values (a memo of a
/// deterministic function may benignly race on one entry).
pub struct ChunkedSlab<T> {
    chunks: [AtomicPtr<AtomicPtr<T>>; SLAB_CHUNKS],
}

impl<T> ChunkedSlab<T> {
    /// An empty slab; usable in `static` initializers.
    #[must_use]
    pub const fn new() -> ChunkedSlab<T> {
        ChunkedSlab {
            chunks: [const { AtomicPtr::new(null_mut()) }; SLAB_CHUNKS],
        }
    }

    /// (chunk, offset) of `id`: chunk `c = ⌊log2(id + 1)⌋` has `2^c`
    /// entries.
    fn locate(id: u32) -> (usize, usize) {
        let n = u64::from(id) + 1;
        let chunk = (63 - n.leading_zeros()) as usize;
        (chunk, (n - (1u64 << chunk)) as usize)
    }

    /// The entry published for `id`, if any. Lock-free.
    pub fn get(&self, id: u32) -> Option<&'static T> {
        let (c, off) = Self::locate(id);
        let chunk = self.chunks[c].load(Ordering::Acquire);
        if chunk.is_null() {
            return None;
        }
        // SAFETY: a non-null chunk pointer is a leaked array of `1 << c`
        // entries (allocated in `set`), and `off < 1 << c` by `locate`.
        let entry = unsafe { &*chunk.add(off) };
        // SAFETY: non-null entries are leaked `&'static T`s.
        unsafe { entry.load(Ordering::Acquire).as_ref() }
    }

    /// Publishes the entry for `id`.
    pub fn set(&self, id: u32, value: &'static T) {
        let (c, off) = Self::locate(id);
        let slot = &self.chunks[c];
        let mut chunk = slot.load(Ordering::Acquire);
        if chunk.is_null() {
            let fresh: Box<[AtomicPtr<T>]> = (0..1usize << c)
                .map(|_| AtomicPtr::new(null_mut()))
                .collect();
            let fresh = Box::leak(fresh).as_mut_ptr();
            match slot.compare_exchange(null_mut(), fresh, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => chunk = fresh,
                Err(won) => {
                    // SAFETY: `fresh` was leaked just above from a boxed
                    // slice of `1 << c` entries and lost the race
                    // unpublished, so reclaiming it here is exclusive.
                    drop(unsafe {
                        Box::from_raw(std::ptr::slice_from_raw_parts_mut(fresh, 1usize << c))
                    });
                    chunk = won;
                }
            }
        }
        // SAFETY: as in `get`; the store publishes a leaked `&'static T`.
        unsafe { &*chunk.add(off) }.store((value as *const T).cast_mut(), Ordering::Release);
    }

    /// Number of published entries (for telemetry; walks the whole
    /// capacity).
    pub fn count(&self) -> usize {
        let mut n = 0;
        for (c, slot) in self.chunks.iter().enumerate() {
            let chunk = slot.load(Ordering::Acquire);
            if chunk.is_null() {
                continue;
            }
            for off in 0..1usize << c {
                // SAFETY: as in `get`.
                if !unsafe { &*chunk.add(off) }
                    .load(Ordering::Acquire)
                    .is_null()
                {
                    n += 1;
                }
            }
        }
        n
    }
}

impl<T> Default for ChunkedSlab<T> {
    fn default() -> ChunkedSlab<T> {
        ChunkedSlab::new()
    }
}

// ----- concurrent interner ------------------------------------------------

/// A shared hash-consing arena: one hash-cons table behind an `RwLock`, a
/// [`ChunkedSlab`] node index for lock-free [`get`](Self::get), and one hit
/// counter.
///
/// Ids are dense (the table's size at insertion), and every node is
/// published to the slab *before* its id is returned, so any id obtained
/// from [`intern`](Self::intern) can be dereferenced without a lock
/// forever.
pub struct ConcurrentInterner<T: 'static> {
    table: RwLock<Table<T>>,
    nodes: ChunkedSlab<T>,
    hits: AtomicU64,
}

/// The hash-cons table: node → id.
type Table<T> = HashMap<&'static T, u32, FxBuildHasher>;

impl<T: Eq + Hash> ConcurrentInterner<T> {
    /// An empty arena; usable in `static` initializers.
    #[must_use]
    pub const fn new() -> ConcurrentInterner<T> {
        ConcurrentInterner {
            table: RwLock::new(HashMap::with_hasher(FxBuildHasher::new())),
            nodes: ChunkedSlab::new(),
            hits: AtomicU64::new(0),
        }
    }

    /// Interns `value`, returning its id: a read-locked probe first, then a
    /// write-locked re-probe and insert on a miss.
    ///
    /// # Panics
    ///
    /// Panics after `u32::MAX` distinct nodes (unreachable in practice).
    pub fn intern(&self, value: T) -> u32 {
        if let Some(&id) = self.read().get(&value) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let mut map = self.write();
        if let Some(&id) = map.get(&value) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return id;
        }
        let id = u32::try_from(map.len()).unwrap_or(u32::MAX);
        assert!(id != u32::MAX, "interner overflow");
        let node: &'static T = Box::leak(Box::new(value));
        // Publish for lock-free deref before the id can escape.
        self.nodes.set(id, node);
        map.insert(node, id);
        id
    }
}

impl<T> ConcurrentInterner<T> {
    /// The node for `id`, if `id` was produced by this arena. Lock-free.
    pub fn get(&self, id: u32) -> Option<&'static T> {
        self.nodes.get(id)
    }

    /// Number of distinct values interned.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Is the arena empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of times an intern call found its value already present.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Read-locks the table even if a writer panicked mid-insert: it is an
    /// append-only cache, so a poisoned table is still consistent.
    fn read(&self) -> RwLockReadGuard<'_, Table<T>> {
        self.table.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Write-lock counterpart of [`Self::read`].
    fn write(&self) -> RwLockWriteGuard<'_, Table<T>> {
        self.table.write().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: Eq + Hash> Default for ConcurrentInterner<T> {
    fn default() -> ConcurrentInterner<T> {
        ConcurrentInterner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slab_round_trips_across_chunk_boundaries() {
        let slab: ChunkedSlab<u32> = ChunkedSlab::new();
        assert_eq!(slab.get(0), None);
        for id in [0u32, 1, 2, 3, 6, 7, 1000, 65_535, 1 << 20] {
            let v: &'static u32 = Box::leak(Box::new(id * 3 + 1));
            slab.set(id, v);
            assert_eq!(slab.get(id), Some(v));
        }
        assert_eq!(slab.get(4), None);
        assert_eq!(slab.count(), 9);
    }

    #[test]
    fn concurrent_interning_is_idempotent() {
        static ARENA: ConcurrentInterner<String> = ConcurrentInterner::new();
        let a = ARENA.intern("x".to_string());
        let b = ARENA.intern("x".to_string());
        assert_eq!(a, b);
        assert_eq!(ARENA.len(), 1);
        assert_eq!(ARENA.hits(), 1);
        assert_eq!(ARENA.get(a).map(String::as_str), Some("x"));
    }

    #[test]
    fn concurrent_interning_from_many_threads() {
        static ARENA: ConcurrentInterner<(u32, u32)> = ConcurrentInterner::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000u32 {
                        let id = ARENA.intern((i, i * 2));
                        assert_eq!(ARENA.get(id), Some(&(i, i * 2)));
                    }
                });
            }
        });
        assert_eq!(ARENA.len(), 1000);
        // Every value interned once, hit 3999 times in total.
        assert_eq!(ARENA.hits(), 3000);
        // Ids are dense: every id below len resolves.
        for id in 0..1000u32 {
            assert!(ARENA.get(id).is_some());
        }
    }
}
