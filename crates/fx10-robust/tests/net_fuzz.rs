//! Frame-corruption fuzz tests for the shard wire protocol.
//!
//! The frame reader trusts nothing about the bytes it reads: a corrupted
//! length prefix, a bit-flipped container or a truncated frame must each
//! surface as a typed error — never a panic, an OOM-sized allocation, or
//! a silently mis-decoded frame. These properties drive random
//! corruption through [`ipc::read_frame`] to pin that down.

use fx10_robust::ipc::{self, WireMsg, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::io::Cursor;

fn msg_strategy() -> impl Strategy<Value = WireMsg> {
    (
        1u32..16,
        0u64..u64::MAX,
        proptest::collection::vec(0u8..255, 0..48),
    )
        .prop_map(|(kind_, seq, body)| WireMsg::new(kind_, seq, body))
}

proptest! {
    /// Flipping any single bit of a frame — length prefix or container —
    /// must yield a typed error, never a panic or a silently different
    /// message (the container's trailing FNV-1a-64 checksum catches
    /// container flips; the length validation catches prefix flips).
    #[test]
    fn single_bit_flip_never_decodes(msg in msg_strategy(), pos in 0usize..4096) {
        let mut frame = msg.frame();
        let bit = pos % (frame.len() * 8);
        frame[bit / 8] ^= 1 << (bit % 8);
        let mut r = Cursor::new(frame);
        let res = ipc::read_frame(&mut r, MAX_FRAME_LEN);
        prop_assert!(res.is_err(), "corrupted frame decoded as {:?}", res);
    }

    /// A frame cut anywhere after its first byte is a truncation error —
    /// a torn pipe write never reads as a clean EOF or a short frame.
    #[test]
    fn truncation_is_a_typed_error(msg in msg_strategy(), cut in 1usize..4096) {
        let frame = msg.frame();
        let cut = 1 + cut % (frame.len() - 1);
        let mut r = Cursor::new(frame[..cut].to_vec());
        let res = ipc::read_frame(&mut r, MAX_FRAME_LEN);
        prop_assert!(res.is_err(), "truncated at {cut}: decoded as {:?}", res);
        prop_assert_eq!(res.unwrap_err().exit_code(), 2);
    }

    /// A length prefix claiming more bytes than the stream holds fails
    /// as truncation; one beyond the cap fails before any allocation.
    #[test]
    fn lying_length_prefix_is_rejected(msg in msg_strategy(), extra in 1u32..100_000) {
        let container = msg.encode();
        let mut lie = Vec::new();
        lie.extend_from_slice(&(container.len() as u32 + extra).to_le_bytes());
        lie.extend_from_slice(&container);
        let mut r = Cursor::new(lie);
        prop_assert!(ipc::read_frame(&mut r, MAX_FRAME_LEN).is_err());

        let mut oversized = Vec::new();
        oversized.extend_from_slice(&u32::MAX.to_le_bytes());
        oversized.extend_from_slice(&container);
        let mut r = Cursor::new(oversized);
        let err = ipc::read_frame(&mut r, 1 << 20).unwrap_err();
        prop_assert!(err.to_string().contains("cap"), "{err}");
    }
}
