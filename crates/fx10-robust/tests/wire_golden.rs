//! Byte-golden tests for every shard wire-frame kind.
//!
//! Each golden below is the exact on-the-wire encoding (length prefix +
//! FX10SNAP container) of one representative message per [`kind`]. If
//! any of these assertions breaks, the wire format changed: that is a
//! cross-version compatibility break between supervisors and workers,
//! so bump [`ipc::PROTOCOL_VERSION`] and regenerate the goldens as a
//! deliberate part of the same change.

use fx10_robust::ipc::{self, kind, Progress, WireMsg};
use std::io::Cursor;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// One representative message per wire kind, paired with its golden
/// frame bytes. Regenerate a golden by printing `hex(&msg.frame())`.
fn goldens() -> Vec<(&'static str, WireMsg, &'static str)> {
    vec![
        (
            "HELLO",
            WireMsg::new(kind::HELLO, 0, ipc::hello_body(ipc::PROTOCOL_VERSION)),
            "4000000046583130534e41500100000002000000010000000c000000000000000100000000000000\
             00000000020000000400000000000000040000008b6fb85e74f54d28",
        ),
        (
            "INIT",
            WireMsg::new(kind::INIT, 1, b"domain-init".to_vec()),
            "4700000046583130534e41500100000002000000010000000c000000000000000200000001000000\
             00000000020000000b00000000000000646f6d61696e2d696e69748fccbaab1194aaee",
        ),
        (
            "BATCH",
            WireMsg::new(kind::BATCH, 2, ipc::batch_body(3, b"frontier")),
            "4800000046583130534e41500100000002000000010000000c000000000000000300000002000000\
             00000000020000000c000000000000000300000066726f6e7469657259d9c44bc1472eed",
        ),
        (
            "ACK",
            WireMsg::new(kind::ACK, 3, ipc::ack_body(&[2, 5, 9])),
            "5c00000046583130534e41500100000002000000010000000c000000000000000400000003000000\
             000000000200000020000000000000000300000000000000020000000000000005000000000000000900000000000000\
             20793308a7684f30",
        ),
        (
            "PROGRESS",
            WireMsg::new(
                kind::PROGRESS,
                4,
                ipc::progress_body(&Progress {
                    visited: 1000,
                    processed: 42,
                    idle: true,
                }),
            ),
            "4d00000046583130534e41500100000002000000010000000c000000000000000500000004000000\
             0000000002000000110000000000000 0e8030000000000002a0000000000000001041045f9e8951181",
        ),
        (
            "PROBE",
            WireMsg::new(kind::PROBE, 5, ipc::probe_body(7)),
            "4400000046583130534e41500100000002000000010000000c000000000000000600000005000000\
             000000000200000008000000000000000700000000000000 4622f0657b697311",
        ),
        (
            "PROBE_REPLY",
            WireMsg::new(kind::PROBE_REPLY, 6, ipc::probe_reply_body(7, 42, false)),
            "4d00000046583130534e41500100000002000000010000000c000000000000000700000006000000\
             00000000020000001100000000000000 07000000000000002a00000000000000000564cb75b8d65dbf",
        ),
        (
            "FINISH",
            WireMsg::new(kind::FINISH, 7, Vec::new()),
            "3000000046583130534e41500100000001000000010000000c000000000000000800000007000000\
             00000000e481a49503e9abfa",
        ),
        (
            "ADOPT",
            WireMsg::new(kind::ADOPT, 9, ipc::adopt_body(&[2, 5], Some(b"SNAP"))),
            "5800000046583130534e41500100000002000000010000000c000000000000000a00000009000000\
             00000000020000001c00000000000000020000000000000002000000050000000400000000000000\
             534e4150103c1fe56cd82f78",
        ),
        (
            "RESULT_PART",
            WireMsg::new(
                kind::RESULT_PART,
                10,
                ipc::result_part_body(0, 2, b"result-bytes"),
            ),
            "5000000046583130534e41500100000002000000010000000c000000000000000f0000000a000000\
             00000000020000001400000000000000000000000200000 0726573756c742d6279746573\
             4ace7dc32fcbd7fc",
        ),
    ]
}

fn clean(golden: &str) -> String {
    golden.chars().filter(|c| !c.is_whitespace()).collect()
}

#[test]
fn every_frame_kind_encodes_to_its_golden_bytes() {
    for (name, msg, golden) in goldens() {
        assert_eq!(
            hex(&msg.frame()),
            clean(golden),
            "{name}: wire encoding changed — bump PROTOCOL_VERSION and regenerate"
        );
    }
}

#[test]
fn every_golden_decodes_back_to_its_message() {
    for (name, msg, golden) in goldens() {
        let bytes = unhex(&clean(golden));
        let mut r = Cursor::new(bytes);
        let got = ipc::read_frame(&mut r, ipc::MAX_FRAME_LEN)
            .unwrap_or_else(|e| panic!("{name}: golden failed to decode: {e}"))
            .unwrap_or_else(|| panic!("{name}: golden read as EOF"));
        assert_eq!(got, msg, "{name}: decoded message drifted");
        assert!(
            ipc::read_frame(&mut r, ipc::MAX_FRAME_LEN)
                .unwrap()
                .is_none(),
            "{name}: trailing bytes after the golden frame"
        );
    }
}

#[test]
fn golden_bodies_parse_through_their_codecs() {
    // Beyond frame-level identity, the typed body parsers must read the
    // golden payloads back to the exact values they were built from.
    let by_name: std::collections::BTreeMap<_, _> = goldens()
        .into_iter()
        .map(|(name, msg, _)| (name, msg))
        .collect();

    assert_eq!(
        ipc::parse_hello_body(&by_name["HELLO"].body).unwrap(),
        ipc::PROTOCOL_VERSION
    );
    assert_eq!(ipc::batch_dest(&by_name["BATCH"].body).unwrap(), 3);
    assert_eq!(
        ipc::batch_payload(&by_name["BATCH"].body).unwrap(),
        b"frontier"
    );
    assert_eq!(
        ipc::parse_ack_body(&by_name["ACK"].body).unwrap(),
        vec![2, 5, 9]
    );
    assert_eq!(
        ipc::parse_progress_body(&by_name["PROGRESS"].body).unwrap(),
        Progress {
            visited: 1000,
            processed: 42,
            idle: true,
        }
    );
    assert_eq!(ipc::parse_probe_body(&by_name["PROBE"].body).unwrap(), 7);
    assert_eq!(
        ipc::parse_probe_reply_body(&by_name["PROBE_REPLY"].body).unwrap(),
        (7, 42, false)
    );
    assert_eq!(
        ipc::parse_adopt_body(&by_name["ADOPT"].body).unwrap(),
        (vec![2, 5], Some(b"SNAP".to_vec()))
    );
    assert_eq!(
        ipc::parse_result_part_body(&by_name["RESULT_PART"].body).unwrap(),
        (0, 2, b"result-bytes".as_slice())
    );
}

#[test]
fn protocol_version_is_pinned() {
    // Version 4: HELLO carries the version, INIT carries the state cap,
    // and results travel only as RESULT_PART frames. Moving past 4 must
    // come with regenerated goldens.
    assert_eq!(ipc::PROTOCOL_VERSION, 4);
}
