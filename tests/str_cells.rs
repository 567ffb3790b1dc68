//! `Str`, the string payload of `Value::Str`, checked against `String`
//! as the reference: every observable behaviour — equality, order,
//! hashes, byte size, `Display`/`Debug` text, clones and codec round
//! trips — is the same on both sides of the 22-byte inline limit. A
//! counting allocator pins the point of the type: a short string is
//! built, cloned, decoded and dropped without touching the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use adaptdb_common::{stable_hash_bytes, BitSet, ColumnVec, Row, Str, Value, ValueType};
use adaptdb_storage::codec::{decode_block, encode_block_columnar};
use adaptdb_storage::{Block, LazyBlock};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Counts this thread's heap allocations, so tests running in parallel
/// do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: both methods forward to `System` with the caller's pointer and
// layout unchanged, so `System`'s guarantees carry over; the counter only
// observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// A random string of at most `max` bytes mixing 1-, 2-, 3- and 4-byte
/// UTF-8 characters.
fn random_string(rng: &mut StdRng, max: usize) -> String {
    let target = rng.random_range(0..=max);
    let mut s = String::new();
    loop {
        let c = match rng.random_range(0..4u32) {
            0 => rng.random_range(0x20..0x7fu32),
            1 => rng.random_range(0x80..0x800u32),
            2 => rng.random_range(0xe000..0x10000u32),
            _ => rng.random_range(0x10000..0x110000u32),
        };
        let c = char::from_u32(c).expect("no surrogates drawn");
        if s.len() + c.len_utf8() > target {
            return s;
        }
        s.push(c);
    }
}

/// A second string related to `a` often enough that equal strings,
/// prefixes and one-character edits all come up.
fn partner(rng: &mut StdRng, a: &str) -> String {
    match rng.random_range(0..4u32) {
        0 => a.to_string(),
        1 => a.chars().take(rng.random_range(0..=a.chars().count())).collect(),
        2 => format!("{a}{}", random_string(rng, 4)),
        _ => random_string(rng, 48),
    }
}

fn std_hash<T: Hash + ?Sized>(x: &T) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

#[test]
fn str_behaves_like_string() {
    let mut rng = StdRng::seed_from_u64(0x5742);
    for case in 0..4000 {
        let ra = random_string(&mut rng, 48);
        let rb = partner(&mut rng, &ra);
        let (a, b) = (Str::from(ra.as_str()), Str::from(rb.clone()));
        let ctx = format!("case {case}: {ra:?} vs {rb:?}");
        assert_eq!(&*a, ra.as_str(), "{ctx}");
        assert_eq!(a.len(), ra.len(), "{ctx}");
        assert_eq!(a.clone(), a, "{ctx}");
        assert_eq!(a.clone().as_str(), ra.as_str(), "{ctx}");
        assert_eq!(a == b, ra == rb, "{ctx}");
        assert_eq!(a.cmp(&b), ra.cmp(&rb), "{ctx}");
        assert_eq!(a.partial_cmp(&b), ra.partial_cmp(&rb), "{ctx}");
        assert_eq!(std_hash(&a), std_hash(&ra), "{ctx}");
        assert_eq!(a.to_string(), ra, "{ctx}");
        assert_eq!(format!("{a:>50}|{a:<50}"), format!("{ra:>50}|{ra:<50}"), "{ctx}");
        assert_eq!(format!("{a:?}"), format!("{ra:?}"), "{ctx}");

        let (va, vb) = (Value::Str(a), Value::Str(b));
        assert_eq!(va == vb, ra == rb, "{ctx}");
        assert_eq!(va.cmp(&vb), ra.cmp(&rb), "{ctx}");
        assert_eq!(va.stable_hash(), stable_hash_bytes(ValueType::Str, ra.as_bytes()), "{ctx}");
        assert_eq!(std_hash(&va), std_hash(&va.clone()), "{ctx}");
        assert_eq!(va.byte_size(), ra.len() + 4, "{ctx}");
        assert_eq!(va.to_string(), ra, "{ctx}");
        assert_eq!(format!("{va:?}"), format!("Str({ra:?})"), "{ctx}");
        assert_eq!(va.as_str().unwrap(), ra.as_str(), "{ctx}");
    }
}

#[test]
fn str_cells_round_trip_through_adb2() {
    let mut rng = StdRng::seed_from_u64(0xadb2);
    for case in 0..200 {
        let refs: Vec<String> =
            (0..rng.random_range(1..30usize)).map(|_| random_string(&mut rng, 48)).collect();
        let cells: Vec<Value> = refs.iter().map(|s| Value::from(s.as_str())).collect();
        let col = ColumnVec::from_values(ValueType::Str, cells.clone());
        assert_eq!(col.byte_size(), refs.iter().map(|s| s.len() + 4).sum::<usize>());
        assert_eq!(
            format!("{col:?}"),
            format!("Str({refs:?})"),
            "case {case}: typed column Debug text"
        );
        // One Str column, beside an Int column, through every decode path.
        let ctx = format!("case {case}, {} cells", cells.len());
        let rows = cells.iter().zip(0i64..).map(|(v, i)| Row::new(vec![Value::Int(i), v.clone()]));
        let block = Block::new(7, rows.collect());
        let bytes = encode_block_columnar(&block);
        assert_eq!(decode_block(bytes.clone()).unwrap().rows, block.rows, "{ctx}");
        let lazy = LazyBlock::parse(bytes).unwrap();
        let n = lazy.row_count();
        assert_eq!(lazy.column(1).unwrap(), col, "{ctx}");
        let every_other = BitSet::from_indices(n, &(0..n).step_by(2).collect::<Vec<_>>());
        let gathered = lazy.gather_range(0, n, &every_other).unwrap();
        assert!(gathered.iter().map(|r| &r.values()[1]).eq(cells.iter().step_by(2)), "{ctx}");
        let raw = lazy.raw_columns().unwrap();
        for (i, v) in cells.iter().enumerate() {
            assert_eq!(&raw[1].value(i), v, "{ctx}, cell {i}");
            assert_eq!(raw[1].stable_hash(i), v.stable_hash(), "{ctx}, cell {i}");
        }
    }
}

#[test]
fn short_strings_never_touch_the_heap() {
    let short = "a".repeat(Str::INLINE_CAP);
    let long = "a".repeat(Str::INLINE_CAP + 1);
    let bytes = encode_block_columnar(&Block::new(
        0,
        vec![
            Row::new(vec![Value::from(short.as_str())]),
            Row::new(vec![Value::from(long.as_str())]),
        ],
    ));
    let raw = LazyBlock::parse(bytes).unwrap().raw_columns().unwrap();
    let n = allocations(|| {
        let s = Value::from(short.as_str());
        let copy = s.clone();
        assert_eq!(copy, raw[0].value(0));
        drop((s, copy));
    });
    assert_eq!(n, 0, "a {}-byte string stays inline", Str::INLINE_CAP);
    let n = allocations(|| {
        let s = Value::from(long.as_str());
        let copy = s.clone();
        assert_eq!(copy, raw[0].value(1));
    });
    assert_eq!(n, 3, "a {}-byte string is boxed once per copy", Str::INLINE_CAP + 1);
}
