//! Codec robustness under hostile bytes: `decode_block`,
//! `LazyBlock::parse` / `column` / `gather_range` must never panic on
//! arbitrary or bit-flipped input, and must never hand back rows from
//! a block whose header was corrupted into claiming a different shape
//! than its payload delivers — corrupt input errors, it does not
//! "succeed". A full gather and a full decode accept exactly the same
//! blocks and return the same rows, on valid and corrupt input alike,
//! and a predicate on the encoded cells selects and rejects exactly
//! what decoding the column and evaluating does.

use adaptdb_common::{BitSet, CmpOp, Error, Row, Value};
use adaptdb_storage::codec::{
    decode_block, encode_block_columnar, encode_block_with_meta, encode_gathered,
};
use adaptdb_storage::{Block, LazyBlock};
use proptest::prelude::*;

/// One cell of every type (Int, Double, Str, Date, Bool, in column tag
/// order); a column of type `t` keeps cell `t`.
fn arb_cells() -> impl Strategy<Value = Vec<Value>> {
    (any::<i64>(), any::<f64>(), "[a-zA-Z0-9 ]{0,16}", any::<i32>(), any::<bool>()).prop_map(
        |(i, d, s, date, b)| {
            vec![Value::Int(i), Value::Double(d), Value::from(s), Value::Date(date), Value::Bool(b)]
        },
    )
}

/// Blocks of `arity` columns, each of one random type.
fn arb_block(arity: usize) -> impl Strategy<Value = Block> {
    (
        any::<u32>(),
        prop::collection::vec(0usize..5, arity),
        prop::collection::vec(prop::collection::vec(arb_cells(), arity), 0..12),
    )
        .prop_map(|(id, types, rows)| {
            let rows = rows
                .into_iter()
                .map(|cells| {
                    Row::new(cells.into_iter().zip(&types).map(|(c, &t)| c[t].clone()).collect())
                })
                .collect();
            Block::new(id, rows)
        })
}

/// Blocks with one typed column per `ADB2` tag (Int, Double, Str with
/// multi-byte UTF-8, Date, Bool).
fn arb_typed_block() -> impl Strategy<Value = Block> {
    let cells = (any::<i64>(), any::<f64>(), "[a-z]{0,8}", any::<i32>(), any::<bool>());
    (any::<u32>(), prop::collection::vec(cells, 0..40)).prop_map(|(id, cells)| {
        let rows = cells
            .into_iter()
            .map(|(i, d, s, date, b)| {
                let s = s.replace('e', "\u{e9}").replace('x', "\u{2713}");
                Row::new(vec![
                    Value::Int(i),
                    Value::Double(d),
                    Value::from(s),
                    Value::Date(date),
                    Value::Bool(b),
                ])
            })
            .collect();
        Block::new(id, rows)
    })
}

/// The encoded-cell predicate kernel selects exactly what decoding
/// column `c` and evaluating does (ANDed into an every-other-row
/// selection), and errors on exactly the same bytes — for every op and
/// a literal of every type.
fn filter_agrees(lazy: &LazyBlock, c: usize) {
    let n = lazy.row_count();
    let incoming = BitSet::from_indices(n, &(0..n).step_by(2).collect::<Vec<_>>());
    let lits = [
        Value::Int(0),
        Value::Double(0.0),
        Value::Str("m".into()),
        Value::Date(0),
        Value::Bool(true),
    ];
    let ops = [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
    for (lit, op) in lits.iter().zip(ops.iter().cycle()) {
        let want = lazy.column(c).map(|col| {
            let mut sel = incoming.clone();
            sel.intersect_with(&col.eval(*op, lit));
            sel
        });
        let mut got = incoming.clone();
        match (lazy.filter_into(c, *op, lit, &mut got), want) {
            (Ok(()), Ok(want)) => assert_eq!(got, want, "column {c} {op:?} {lit:?}"),
            (Err(_), Err(_)) => {}
            (got, want) => panic!("column {c}: kernel {got:?}, decode {want:?}"),
        }
    }
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
            filter_agrees(&lazy, c);
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
            Ok(raw) => {
                let rows = decoded.expect("framed columns decode");
                let picked: Vec<u32> = (0..n as u32).collect();
                let block = Block::new(lazy.id(), rows);
                assert_eq!(
                    encode_gathered(lazy.id(), &[(&raw[..], &picked[..])], cols),
                    encode_block_with_meta(&block, cols),
                    "copying cells must equal re-encoding the rows"
                );
            }
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

    /// Arbitrary bytes behind the `ADB2` magic — the adversarial case,
    /// since it reaches the parser. Behind the retired row format's
    /// `ADB1` magic, the same bytes are bad magic.
    #[test]
    fn arbitrary_payload_behind_magic_never_panics(
        data in prop::collection::vec(any::<u8>(), 0..192),
        v2 in any::<bool>(),
    ) {
        let mut bytes = if v2 { b"ADB2".to_vec() } else { b"ADB1".to_vec() };
        bytes.extend_from_slice(&data);
        exercise(&bytes);
        if !v2 {
            let res = decode_block(bytes::Bytes::from(bytes));
            prop_assert!(matches!(res, Err(Error::Codec(_))), "ADB1 magic must be rejected");
        }
    }

    /// Every single-bit flip of a valid encoding either still decodes
    /// (the flip hit a cell payload — contents differ, shape holds) or
    /// errors. It never panics and never yields a block with more rows
    /// than the payload carries; the directory is the most
    /// length-sensitive part.
    #[test]
    fn bit_flipped_adb2_never_panics(block in arb_block(3), pos in any::<u64>()) {
        let enc = encode_block_columnar(&block);
        let mut garbled = enc.to_vec();
        let bit = pos as usize % (garbled.len() * 8);
        garbled[bit / 8] ^= 1 << (bit % 8);
        exercise(&garbled);
    }

    /// On valid blocks of every column tag, a full gather returns
    /// exactly the rows a full decode does, and both round-trip the
    /// encoded block.
    #[test]
    fn into_block_equals_full_gather(block in arb_typed_block()) {
        let enc = encode_block_columnar(&block);
        exercise(&enc);
        let lazy = LazyBlock::parse(enc).unwrap();
        let n = lazy.row_count();
        let gathered = lazy.gather_range(0, n, &BitSet::all_set(n)).unwrap();
        let decoded = lazy.into_block().unwrap();
        prop_assert_eq!(&gathered, &decoded.rows);
        prop_assert_eq!(&decoded, &block);
    }

    /// A header corrupted into claiming a huge row count must error
    /// (and not attempt a giant allocation first): rows from a corrupt
    /// block are never returned.
    #[test]
    fn inflated_row_count_is_rejected(block in arb_block(2), claimed in 1_000_000u32..u32::MAX) {
        let mut garbled = encode_block_columnar(&block).to_vec();
        garbled[8..12].copy_from_slice(&claimed.to_le_bytes());
        let res = decode_block(bytes::Bytes::copy_from_slice(&garbled));
        prop_assert!(res.is_err(), "claimed {claimed} rows over a tiny payload must fail");
    }
}
