//! A copy-on-write hash map: cloning is O(1), and a map and its clones
//! share every bucket no write has touched since.
//!
//! The map holds values that carry their own key ([`Keyed`]): the id
//! map's values are the shared entries, which already store their key, so
//! a bucket keeps one pointer per entry and reads each key through it
//! rather than a second copy beside it.
//!
//! The layout is a fixed-depth directory: one array of chunks, each chunk
//! an array of [`CHUNK`] buckets, each bucket an exact-sized slice of
//! values — all behind `Arc`s. A lookup hashes the key, follows two
//! directory hops and scans a handful of values up to the first whose
//! key matches. A write copies what it is about to change *if a clone
//! still holds it*: the chunk directory (once per clone, it stays private
//! afterwards), one chunk and one bucket; an uncontended map mutates in
//! place, and when a bucket nobody shares grows or shrinks its values are
//! *moved* to the new slice (see [`Values`]). A write that finds nothing
//! to change (removing an absent key) copies nothing.
//!
//! The directory doubles when the mean bucket passes [`MAX_LOAD`]
//! entries; that rebuild is the one write that shares nothing with older
//! clones afterwards. Keys are hashed with the standard library's
//! randomly seeded SipHash, as `HashMap`'s are: object ids arrive from
//! outside the program.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::sync::Arc;

/// Buckets per chunk.
const CHUNK: usize = 16;
/// Mean entries per bucket past which the directory doubles.
const MAX_LOAD: usize = 8;

/// A value that carries the key it is stored under.
pub trait Keyed {
    /// The key type.
    type Key: Eq + Hash;

    /// The key this value is stored under.
    fn key(&self) -> &Self::Key;
}

/// One bucket's values, exactly as many slots as values. A slot is `Some`
/// whenever anyone can look at it; it is an `Option` so that a bucket
/// nobody shares can hand its values on by `take` when it is rebuilt one
/// longer or shorter, where the values of a plain `Arc<[V]>` could only
/// be cloned — and cloning an `Arc` value writes to that value's
/// reference count, one cold cache line per value, twice (the clone, then
/// the drop of the original). With a pointer-sized niche in `V` the
/// `Option` costs no space: an `Arc` value's slot is 8 B.
type Values<V> = Arc<[Option<V>]>;
type Bucket<V> = Option<Values<V>>;
type Chunk<V> = Arc<[Bucket<V>]>;

/// A hash map of [`Keyed`] values whose clones are O(1) and share
/// structure (see the module docs). Iteration order is arbitrary, as a
/// `HashMap`'s is.
#[derive(Clone)]
pub struct CowMap<V> {
    /// Power-of-two many chunks of [`CHUNK`] buckets each.
    chunks: Arc<[Chunk<V>]>,
    len: usize,
    hasher: RandomState,
}

impl<V: Keyed + Clone> Default for CowMap<V> {
    fn default() -> Self {
        CowMap::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for CowMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl<V> CowMap<V> {
    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every value, in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &V> {
        self.chunks
            .iter()
            .flat_map(|chunk| chunk.iter().flatten())
            .flat_map(|values| values.iter().flatten())
    }

    /// The bytes one entry takes in its bucket — the probe the footprint
    /// tests pin.
    #[doc(hidden)]
    pub fn slot_bytes() -> usize {
        std::mem::size_of::<Option<V>>()
    }

    /// `(shared, total)`: of the allocations this map is made of (the
    /// chunk directory, each chunk, each non-empty bucket), how many
    /// `other` holds at the same place — the probe the sharing tests
    /// count with.
    #[doc(hidden)]
    pub fn shared_with(&self, other: &Self) -> (usize, usize) {
        fn same<T: ?Sized>(mine: &Arc<T>, theirs: Option<&Arc<T>>) -> usize {
            usize::from(theirs.is_some_and(|t| Arc::ptr_eq(mine, t)))
        }
        let (mut shared, mut total) = (same(&self.chunks, Some(&other.chunks)), 1);
        let comparable = self.chunks.len() == other.chunks.len();
        for (i, chunk) in self.chunks.iter().enumerate() {
            let theirs = comparable.then(|| &other.chunks[i]);
            shared += same(chunk, theirs);
            total += 1;
            for (j, bucket) in chunk.iter().enumerate() {
                if let Some(bucket) = bucket {
                    shared += same(bucket, theirs.and_then(|t| t[j].as_ref()));
                    total += 1;
                }
            }
        }
        (shared, total)
    }
}

/// Every value of `values`: moved out when nobody else holds the slice,
/// cloned when somebody does (who then keeps the originals).
fn drain<V: Clone>(values: &mut Values<V>) -> impl Iterator<Item = V> + '_ {
    Arc::make_mut(values)
        .iter_mut()
        .map(|slot| slot.take().expect("a visible slot is full"))
}

impl<V: Keyed + Clone> CowMap<V> {
    /// Creates an empty map (one chunk of empty buckets).
    pub fn new() -> Self {
        CowMap {
            chunks: Arc::new([vec![None; CHUNK].into()]),
            len: 0,
            hasher: RandomState::new(),
        }
    }

    /// `(chunk, slot)` of the bucket `key` hashes to.
    #[inline]
    fn place(&self, key: &V::Key) -> (usize, usize) {
        let bucket = self.hasher.hash_one(key) as usize & (self.chunks.len() * CHUNK - 1);
        (bucket / CHUNK, bucket % CHUNK)
    }

    /// `key`'s position in the bucket at `(chunk, slot)`, read-only.
    #[inline]
    fn position(&self, (chunk, slot): (usize, usize), key: &V::Key) -> Option<usize> {
        self.chunks[chunk][slot]
            .as_deref()?
            .iter()
            .position(|slot| slot.as_ref().is_some_and(|v| v.key() == key))
    }

    /// The bucket at `(chunk, slot)`, with the directory and the chunk
    /// copied on the way down if a clone still holds them.
    fn bucket_mut(&mut self, (chunk, slot): (usize, usize)) -> &mut Bucket<V> {
        &mut Arc::make_mut(&mut Arc::make_mut(&mut self.chunks)[chunk])[slot]
    }

    /// The value stored under `key`.
    #[inline]
    pub fn get(&self, key: &V::Key) -> Option<&V> {
        let (chunk, slot) = self.place(key);
        // Each key is read through its value — a pointer away — so the
        // scan stops at the first match rather than touching the rest.
        self.chunks[chunk][slot]
            .as_deref()?
            .iter()
            .flatten()
            .find(|v| v.key() == key)
    }

    /// `true` when `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &V::Key) -> bool {
        self.get(key).is_some()
    }

    /// Stores `value` under its key, returning the value it replaces.
    pub fn insert(&mut self, value: V) -> Option<V> {
        if self.len >= MAX_LOAD * CHUNK * self.chunks.len() {
            self.grow();
        }
        let place = self.place(value.key());
        let pos = self.position(place, value.key());
        let bucket = self.bucket_mut(place);
        match (bucket.as_mut(), pos) {
            (Some(values), Some(pos)) => {
                let held = Arc::make_mut(values)[pos].as_mut().expect("probed above");
                return Some(std::mem::replace(held, value));
            }
            (Some(values), None) => {
                *values = drain(values).chain([value]).map(Some).collect();
            }
            (None, _) => *bucket = Some(Arc::new([Some(value)])),
        }
        self.len += 1;
        None
    }

    /// Removes `key`, returning its value; an absent key copies nothing.
    pub fn remove(&mut self, key: &V::Key) -> Option<V> {
        let place = self.place(key);
        let pos = self.position(place, key)?;
        let bucket = self.bucket_mut(place);
        let mut values: Vec<V> = drain(bucket.as_mut().expect("probed above")).collect();
        let value = values.swap_remove(pos);
        *bucket = (!values.is_empty()).then(|| values.into_iter().map(Some).collect());
        self.len -= 1;
        Some(value)
    }

    /// Doubles the directory and redistributes every entry.
    fn grow(&mut self) {
        let n_buckets = 2 * CHUNK * self.chunks.len();
        let mut buckets: Vec<Vec<Option<V>>> = vec![Vec::new(); n_buckets];
        for chunk in Arc::make_mut(&mut self.chunks) {
            for values in Arc::make_mut(chunk).iter_mut().flatten() {
                for value in drain(values) {
                    let bucket = self.hasher.hash_one(value.key()) as usize & (n_buckets - 1);
                    buckets[bucket].push(Some(value));
                }
            }
        }
        let mut buckets = buckets
            .into_iter()
            .map(|values| (!values.is_empty()).then(|| Arc::from(values)));
        self.chunks = (0..n_buckets / CHUNK)
            .map(|_| buckets.by_ref().take(CHUNK).collect())
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// A test value: the key, then a payload.
    impl<X> Keyed for (u64, X) {
        type Key = u64;

        fn key(&self) -> &u64 {
            &self.0
        }
    }

    /// A deterministic op stream (LCG): mostly inserts early, then a mix
    /// of overwrites, removals and misses over a bounded key space.
    fn ops(n: usize, keys: u64) -> impl Iterator<Item = (u64, u64)> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..n).map(move |_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % keys, state >> 60)
        })
    }

    fn sorted(map: &CowMap<(u64, u64)>) -> Vec<(u64, u64)> {
        let mut all: Vec<_> = map.iter().copied().collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn behaves_like_a_hash_map_and_clones_stay_frozen() {
        let mut map = CowMap::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        // Clones taken mid-stream, each beside the model it must keep
        // matching however the live map goes on.
        let mut frozen = Vec::new();
        let payload = |held: Option<(u64, u64)>| held.map(|(_, v)| v);
        for (step, (key, kind)) in ops(6_000, 2_500).enumerate() {
            match kind {
                0..=9 => assert_eq!(
                    payload(map.insert((key, step as u64))),
                    model.insert(key, step as u64)
                ),
                10..=12 => assert_eq!(payload(map.remove(&key)), model.remove(&key)),
                // An overwrite of whatever is there, present or not.
                _ => {
                    let bumped = map.get(&key).map_or(0, |(_, v)| v + 1);
                    assert_eq!(
                        payload(map.insert((key, bumped))),
                        model.insert(key, bumped)
                    );
                }
            }
            assert_eq!(map.len(), model.len());
            if step % 1_000 == 500 {
                frozen.push((map.clone(), model.clone()));
            }
        }
        assert!(map.len() > MAX_LOAD * CHUNK, "the stream forced a doubling");
        for (map, model) in frozen.iter().chain([&(map, model)]) {
            assert_eq!(map.len(), model.len());
            assert_eq!(map.is_empty(), model.is_empty());
            for key in 0..2_500 {
                assert_eq!(map.get(&key).map(|(_, v)| v), model.get(&key));
                assert_eq!(map.contains_key(&key), model.contains_key(&key));
            }
            let mut want: Vec<_> = model.iter().map(|(k, v)| (*k, *v)).collect();
            want.sort_unstable();
            assert_eq!(sorted(map), want);
            assert_eq!(map.iter().count(), model.len());
        }
    }

    #[test]
    fn a_clone_shares_everything_and_a_write_copies_one_path() {
        let mut map: CowMap<(u64, u64)> = CowMap::new();
        for key in 0..5_000 {
            map.insert((key, key));
        }
        let pinned = map.clone();
        let (shared, total) = map.shared_with(&pinned);
        assert_eq!(shared, total, "a fresh clone shares every allocation");

        // Writes that change nothing copy nothing.
        assert_eq!(map.remove(&9_999), None);
        assert_eq!(map.shared_with(&pinned), (total, total));

        // The first write copies the directory, one chunk and one bucket;
        // each later one at most a chunk and a bucket.
        assert_eq!(map.insert((7, 70)), Some((7, 7)));
        assert_eq!(map.shared_with(&pinned), (total - 3, total));
        for key in 100..110 {
            map.insert((key, 0));
        }
        let (shared, now) = map.shared_with(&pinned);
        assert_eq!(now, total);
        assert!(total - shared <= 3 + 2 * 10, "{shared} of {total} shared");
        assert_eq!(pinned.get(&7), Some(&(7, 7)));
        assert_eq!(pinned.get(&105), Some(&(105, 105)));

        // With the clone gone the map mutates in place again: a second
        // clone taken now shares all of it.
        drop(pinned);
        let again = map.clone();
        assert_eq!(map.shared_with(&again), (total, total));
    }

    #[test]
    fn empty_buckets_and_single_entries_round_trip() {
        let mut map: CowMap<(u64, &str)> = CowMap::default();
        assert!(map.is_empty());
        assert_eq!(map.get(&1), None);
        assert_eq!(map.insert((1, "a")), None);
        assert_eq!(map.insert((1, "b")), Some((1, "a")));
        assert_eq!(map.remove(&1), Some((1, "b")));
        assert_eq!(map.remove(&1), None);
        assert!(map.is_empty());
        assert_eq!(map.iter().count(), 0);
        assert_eq!(format!("{map:?}"), "{}");
    }
}
