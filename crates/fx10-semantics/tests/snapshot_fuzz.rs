//! Fuzz hardening of the `.fxsnap` decoder: every corruption of a
//! valid snapshot — single bit flips, truncation at any byte, pure
//! random garbage, and forged containers whose checksums are *valid*
//! but whose counts lie — must come back as a typed [`SnapshotError`],
//! never a panic and never an allocation sized by a corrupted length
//! field. The CLI maps these to exit 2; these tests pin the layer
//! underneath.

use fx10_robust::snapshot::{SectionBuf, SnapshotError, SnapshotWriter};
use fx10_semantics::intern::{state_key, DONE};
use fx10_semantics::{snapshot_fingerprint, ExploreConfig, ExplorerSnapshot, Interner, Tree};
use fx10_syntax::Program;
use proptest::prelude::*;

/// The canonical byte image a real durable checkpoint would write:
/// a small but fully populated snapshot (a statement's label chain,
/// `▷`/`∥` nodes, two array states, visited + frontier keys).
fn valid_bytes() -> Vec<u8> {
    let p = Program::parse(
        "def main() { finish { async { A1: a[0] = 1; } B1: a[1] = 1; } C1: a[0] = 0; }",
    )
    .unwrap();
    let it = Interner::new(true);
    let s = it.intern_tree(&Tree::stm(p.body(p.main()).clone()));
    let t = it.par(s, it.seq(s, DONE));
    let a0 = it.intern_array(vec![0, 0]);
    let a1 = it.intern_array(vec![1, 0]);
    let keys = vec![state_key(a0, t), state_key(a1, t), state_key(a0, DONE)];
    ExplorerSnapshot::capture(
        &it,
        snapshot_fingerprint(&p, &[], &ExploreConfig::default()),
        1,
        true,
        9,
        keys.clone(),
        keys[..2].to_vec(),
    )
    .to_bytes()
}

proptest! {
    /// Any single bit flip lands in checksummed (or length-checked)
    /// territory: decode returns an error and does not panic.
    #[test]
    fn bit_flips_are_rejected_without_panicking(idx in 0usize..4096, bit in 0u32..8) {
        let mut bytes = valid_bytes();
        let i = idx % bytes.len();
        bytes[i] ^= 1 << bit;
        prop_assert!(
            ExplorerSnapshot::from_bytes(&bytes).is_err(),
            "flipping bit {bit} of byte {i} must not yield a valid snapshot"
        );
    }

    /// Truncation at every prefix length is a typed error, never a
    /// read past the end or a panic.
    #[test]
    fn truncations_are_rejected_without_panicking(cut in 0usize..4096) {
        let bytes = valid_bytes();
        let cut = cut % bytes.len(); // strictly shorter than the original
        prop_assert!(ExplorerSnapshot::from_bytes(&bytes[..cut]).is_err());
    }

    /// Pure garbage — including inputs shorter than the header — is
    /// rejected at the container layer.
    #[test]
    fn random_garbage_is_rejected(bytes in proptest::collection::vec(0u8..255, 0..256)) {
        prop_assert!(ExplorerSnapshot::from_bytes(&bytes).is_err());
    }
}

/// A forged container with a *valid* checksum but a section count
/// claiming ~4 billion entries must fail fast with a typed error —
/// the decoder sizes its buffers by the bytes actually present, not
/// by the attacker-controlled count.
#[test]
fn lying_counts_with_valid_checksums_do_not_allocate() {
    // Sections 3–6: trees, arrays, visited, frontier.
    for tag in 3u32..=6 {
        let mut w = SnapshotWriter::new();
        // SEC_META must parse first (25 bytes of counters).
        let mut meta = SectionBuf::new();
        meta.put_u64(0xDEAD);
        meta.put_u8(1);
        meta.put_u64(0);
        meta.put_u64(0);
        w.add_section(1, meta);
        for t in 3u32..=6 {
            let mut b = SectionBuf::new();
            if t == tag {
                b.put_u32(u32::MAX); // count lies; almost no payload follows
                b.put_u64(0);
            } else {
                b.put_u32(0);
            }
            w.add_section(t, b);
        }
        let bytes = w.finish();
        let err =
            ExplorerSnapshot::from_bytes(&bytes).expect_err("a lying count must be a decode error");
        // Any typed variant is fine; the point is it is an Err and the
        // process neither panicked nor tried a u32::MAX-sized Vec.
        let _: SnapshotError = err;
    }
}

/// The corrupt fixtures checked into `programs/` stay rejected with
/// the message the CLI surfaces (guards against fixture rot).
#[test]
fn checked_in_corrupt_fixtures_stay_corrupt() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap()
        .parent()
        .unwrap()
        .to_path_buf();
    for fixture in [
        "programs/snap_truncated.fxsnap",
        "programs/snap_bad_magic.fxsnap",
        "programs/snap_bad_version.fxsnap",
        "programs/snap_bad_checksum.fxsnap",
    ] {
        let bytes = std::fs::read(root.join(fixture)).unwrap();
        assert!(
            ExplorerSnapshot::from_bytes(&bytes).is_err(),
            "{fixture} must stay rejected"
        );
    }
    let good = std::fs::read(root.join("programs/snap_example22.fxsnap")).unwrap();
    assert!(ExplorerSnapshot::from_bytes(&good).is_ok());
}

proptest! {
    /// Forged tree tables with *valid* checksums: random tags, labels
    /// and tails either fail to decode, fail the restore's label check,
    /// or restore cleanly. Never a panic or an index out of range.
    #[test]
    fn forged_statement_nodes_decode_or_fail_typed(
        nodes in proptest::collection::vec((0u8..5, 0u32..12, 0u32..10), 0..10),
    ) {
        let p = Program::parse("def main() { A1: a[0] = 1; B1: a[1] = 1; C1: a[0] = 0; }").unwrap();
        let mut snap = ExplorerSnapshot::from_bytes(&valid_bytes()).unwrap();
        snap.trees.extend(nodes);
        if let Ok(back) = ExplorerSnapshot::from_bytes(&snap.to_bytes()) {
            let _ = back.restore(&Interner::new(true), &p);
        }
    }
}
