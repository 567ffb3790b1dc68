//! Codec robustness under hostile bytes: `decode_block`,
//! `LazyBlock::parse` / `column` / `gather_range` must never panic on
//! arbitrary or bit-flipped input, and must never hand back rows from
//! a block whose header was corrupted into claiming a different shape
//! than its payload delivers — corrupt input errors, it does not
//! "succeed". A full gather and a full decode accept exactly the same
//! blocks and return the same rows, on valid and corrupt input alike.

use adaptdb_common::{BitSet, Row, Value};
use adaptdb_storage::codec::{
    decode_block, encode_block, encode_block_columnar, encode_block_with_meta, encode_gathered,
};
use adaptdb_storage::{Block, LazyBlock};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
        "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
        any::<i32>().prop_map(Value::Date),
        any::<bool>().prop_map(Value::Bool),
    ]
}

fn arb_block(arity: usize) -> impl Strategy<Value = Block> {
    (
        any::<u32>(),
        prop::collection::vec(prop::collection::vec(arb_value(), arity).prop_map(Row::new), 0..12),
    )
        .prop_map(|(id, rows)| Block::new(id, rows))
}

/// Blocks with one typed column per `ADB2` tag (Int, Double, Str with
/// multi-byte UTF-8, Date, Bool) plus a heterogeneous (Mixed) column.
fn arb_typed_block() -> impl Strategy<Value = Block> {
    let cells = (any::<i64>(), any::<f64>(), "[a-z]{0,8}", any::<i32>(), any::<bool>(), 0u8..5);
    (any::<u32>(), prop::collection::vec(cells, 0..40)).prop_map(|(id, cells)| {
        let rows = cells
            .into_iter()
            .map(|(i, d, s, date, b, pick)| {
                let s = s.replace('e', "\u{e9}").replace('x', "\u{2713}");
                let typed = [
                    Value::Int(i),
                    Value::Double(d),
                    Value::Str(s),
                    Value::Date(date),
                    Value::Bool(b),
                ];
                let mixed = typed[pick as usize].clone();
                Row::new(typed.into_iter().chain([mixed]).collect())
            })
            .collect();
        Block::new(id, rows)
    })
}

/// Drive every decode entry point over one byte string. Nothing here
/// may panic; each call either errors or returns well-formed data.
fn exercise(bytes: &[u8]) {
    let buf = bytes::Bytes::copy_from_slice(bytes);
    let _ = decode_block(buf.clone());
    if let Ok(lazy) = LazyBlock::parse(buf) {
        let n = lazy.row_count();
        let cols = lazy.num_columns();
        for c in 0..cols.min(8) {
            if let Ok(col) = lazy.column(c) {
                assert_eq!(col.len(), n, "a decoded column must match the row count");
            }
        }
        // Out-of-range column access errors, never panics.
        let _ = lazy.column(cols + 1);
        // Parse bounds the row count by the bytes present, so even a
        // corrupt header cannot make the harness allocate much.
        assert!(n <= bytes.len(), "{n} rows claimed over {} bytes", bytes.len());
        let all = BitSet::all_set(n);
        let gathered = lazy.gather_range(0, n, &all).ok();
        if let Some(rows) = &gathered {
            assert!(rows.len() <= n, "gather cannot invent rows");
        }
        let raw = lazy.raw_columns();
        let decoded = lazy.clone().into_block().ok().map(|b| b.rows);
        assert_eq!(gathered, decoded, "a full gather must agree with a full decode");
        // Framing a block for a migration copy accepts exactly what a
        // full decode accepts, and copying every row re-encodes the
        // decoded rows byte for byte.
        match raw {
            Ok(Some(raw)) => {
                let rows = decoded.expect("framed columns decode");
                let picked: Vec<u32> = (0..n as u32).collect();
                let block = Block::new(lazy.id(), rows);
                assert_eq!(
                    encode_gathered(lazy.id(), &[(&raw[..], &picked[..])], cols),
                    encode_block_with_meta(&block, cols),
                    "copying cells must equal re-encoding the rows"
                );
            }
            Ok(None) => {}
            Err(_) => assert!(decoded.is_none(), "framing rejected a decodable block"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Fully arbitrary byte strings (any length, any prefix) never
    /// panic any decode path.
    #[test]
    fn arbitrary_bytes_never_panic(data in prop::collection::vec(any::<u8>(), 0..256)) {
        exercise(&data);
    }

    /// Arbitrary bytes behind a valid ADB1/ADB2 magic — the adversarial
    /// case, since it reaches the format-specific parsers.
    #[test]
    fn arbitrary_payload_behind_magic_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..192),
        v2 in any::<bool>(),
    ) {
        let mut bytes = if v2 { b"ADB2".to_vec() } else { b"ADB1".to_vec() };
        bytes.extend_from_slice(&data);
        exercise(&bytes);
    }

    /// Every single-bit flip of a valid row-format encoding either
    /// still decodes (the flip hit a value payload — contents differ,
    /// shape holds) or errors. It never panics and never yields a
    /// block with more rows than the payload carries.
    #[test]
    fn bit_flipped_adb1_never_panics(block in arb_block(3), pos in any::<u64>()) {
        let enc = encode_block(&block);
        let mut garbled = enc.to_vec();
        let bit = pos as usize % (garbled.len() * 8);
        garbled[bit / 8] ^= 1 << (bit % 8);
        exercise(&garbled);
    }

    /// Same for the columnar encoding, whose directory is the most
    /// length-sensitive part of either format.
    #[test]
    fn bit_flipped_adb2_never_panics(block in arb_block(3), pos in any::<u64>()) {
        let enc = encode_block_columnar(&block);
        let mut garbled = enc.to_vec();
        let bit = pos as usize % (garbled.len() * 8);
        garbled[bit / 8] ^= 1 << (bit % 8);
        exercise(&garbled);
    }

    /// On valid blocks of every column tag, in either format, a full
    /// gather returns exactly the rows a full decode does, and both
    /// round-trip the encoded block.
    #[test]
    fn into_block_equals_full_gather(block in arb_typed_block()) {
        for enc in [encode_block_columnar(&block), encode_block(&block)] {
            let lazy = LazyBlock::parse(enc).unwrap();
            let n = lazy.row_count();
            let gathered = lazy.gather_range(0, n, &BitSet::all_set(n)).unwrap();
            let decoded = lazy.into_block().unwrap();
            prop_assert_eq!(&gathered, &decoded.rows);
            prop_assert_eq!(&decoded, &block);
        }
    }

    /// A header corrupted into claiming a huge row count must error
    /// (and not attempt a giant allocation first): rows from a corrupt
    /// block are never returned.
    #[test]
    fn inflated_row_count_is_rejected(block in arb_block(2), claimed in 1_000_000u32..u32::MAX) {
        for enc in [encode_block(&block), encode_block_columnar(&block)] {
            let mut garbled = enc.to_vec();
            garbled[8..12].copy_from_slice(&claimed.to_le_bytes());
            let res = decode_block(bytes::Bytes::copy_from_slice(&garbled));
            prop_assert!(res.is_err(), "claimed {claimed} rows over a tiny payload must fail");
        }
    }
}
