//! The canonical on-wire frame format of the real-socket datapath.
//!
//! Every UDP datagram on a striped channel is exactly one frame:
//!
//! | offset | size | field                                         |
//! |--------|------|-----------------------------------------------|
//! | 0      | 1    | magic (`0xC5`)                                |
//! | 1      | 1    | version (`1`)                                 |
//! | 2      | 1    | kind: `0` = data, `1` = control, `2` = padded |
//! | 3      | …    | body                                          |
//!
//! A *data* frame's body is the application payload, verbatim — the
//! paper's central constraint is that striping never modifies data
//! packets, so the only thing this layer adds is the 3-byte
//! demultiplexing header (the real-network stand-in for the Ethernet
//! type-field codepoint of §5). A *control* frame's body is exactly the
//! bytes of [`Control::encode`] — markers ride as
//! [`Control::Marker`] — produced through
//! [`Control::encode_into`], so the simulator and the socket path share
//! one encoder and cannot drift.
//!
//! Decoding is zero-copy for data: [`Frame::Data`] borrows the payload
//! from the receive buffer. Anything malformed (bad magic, unknown
//! version or kind, undecodable control body) is reported as `None` and
//! dropped by the caller, exactly like corrupt traffic in the simulated
//! links.

use stripe_core::control::Control;

/// First byte of every frame; chosen to collide with neither the marker
/// magic (`0x53`) nor common text, so misdirected traffic fails loudly.
pub const FRAME_MAGIC: u8 = 0xC5;

/// The original (single-flow) wire-format version: the body follows the
/// 3-byte header directly and the frame implicitly belongs to flow 0.
pub const FRAME_VERSION: u8 = 1;

/// The multi-flow wire-format version: a LEB128 varint flow id sits
/// between the 3-byte header and the body, for every kind. Kind
/// codepoints and body encodings are unchanged from version 1 — the
/// version bump is *only* the flow-id field, so a version-1 frame is
/// exactly a version-2 frame with the flow id elided (the legacy decode
/// path in [`try_decode_flow`] maps it to flow 0).
pub const FRAME_VERSION_FLOW: u8 = 2;

/// Longest LEB128 encoding of a `u32` flow id.
pub const MAX_FLOW_ID_LEN: usize = 5;

/// Frame-kind codepoint for application data.
pub const KIND_DATA: u8 = 0;

/// Frame-kind codepoint for control messages (markers included).
pub const KIND_CONTROL: u8 = 1;

/// Frame-kind codepoint for a *padded* control message: the body is a
/// little-endian `u16` length, that many [`Control::encode`] bytes, and
/// then arbitrary padding the decoder ignores. Data frames can never be
/// padded (their body is the datagram remainder, verbatim), but control
/// frames can — which lets the sender stretch a 37-byte marker to the
/// exact length of the data frames around it so a segmentation-offload
/// train is not split at every marker (GSO permits only one shorter
/// trailing segment per train). Semantically identical to
/// [`KIND_CONTROL`].
pub const KIND_CONTROL_PADDED: u8 = 2;

/// Frame-kind codepoint for *checksummed* application data: the body is
/// the payload followed by a one-byte CRC-8 of the payload. §5 assumes
/// corruption is detectable; on real channels UDP's 16-bit checksum is
/// optional and weak, so paths that face bit errors (and every chaos
/// soak) opt into this kind. The default [`KIND_DATA`] stays
/// trailer-free, keeping the headline path at zero checksum cost.
pub const KIND_DATA_SUMMED: u8 = 3;

/// Bytes of header preceding the body.
pub const FRAME_HEADER_LEN: usize = 3;

/// Extra body bytes of a [`KIND_CONTROL_PADDED`] frame before the
/// control message itself (the `u16` length prefix).
pub const PAD_LEN_PREFIX: usize = 2;

/// Trailer bytes of a [`KIND_DATA_SUMMED`] frame (the CRC-8).
pub const SUM_TRAILER_LEN: usize = 1;

/// CRC-8, polynomial 0x07 (ATM HEC) — catches every single-bit flip and
/// all burst errors up to 8 bits, which is exactly the corruption model
/// the chaos layer injects. Table built at compile time; one lookup per
/// payload byte.
const CRC8_TABLE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-8/0x07 over `bytes` (the [`KIND_DATA_SUMMED`] trailer value).
pub fn crc8(bytes: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &b in bytes {
        crc = CRC8_TABLE[(crc ^ b) as usize];
    }
    crc
}

/// One decoded frame. Data borrows straight out of the receive buffer —
/// the payload is never copied by the codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame<'a> {
    /// An application data packet (payload bytes, unmodified).
    Data(&'a [u8]),
    /// A control message: marker, probe, membership, reset, quantum update.
    Control(Control),
}

/// Append the header for a frame of `kind` to `out`.
fn push_header(kind: u8, out: &mut Vec<u8>) {
    out.push(FRAME_MAGIC);
    out.push(FRAME_VERSION);
    out.push(kind);
}

/// Append the version-2 header plus the varint flow id to `out`.
fn push_flow_header(kind: u8, flow: u32, out: &mut Vec<u8>) {
    out.push(FRAME_MAGIC);
    out.push(FRAME_VERSION_FLOW);
    out.push(kind);
    let mut v = flow;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Encoded length of a flow id's LEB128 varint.
pub fn flow_id_len(flow: u32) -> usize {
    match flow {
        0..=0x7F => 1,
        0x80..=0x3FFF => 2,
        0x4000..=0x1F_FFFF => 3,
        0x20_0000..=0xFFF_FFFF => 4,
        _ => 5,
    }
}

/// Parse a LEB128 flow id from the start of `body`; returns the id and
/// the number of bytes it occupied. `None` on truncation or a varint
/// longer than [`MAX_FLOW_ID_LEN`] (a `u32` never needs more).
fn take_flow_id(body: &[u8]) -> Option<(u32, usize)> {
    let mut flow: u32 = 0;
    for (i, &b) in body.iter().enumerate().take(MAX_FLOW_ID_LEN) {
        let payload = (b & 0x7F) as u32;
        // The fifth byte may only carry the top 4 bits of a u32.
        if i == MAX_FLOW_ID_LEN - 1 && b & 0xF0 != 0 {
            return None;
        }
        flow |= payload << (7 * i);
        if b & 0x80 == 0 {
            return Some((flow, i + 1));
        }
    }
    None
}

/// Encode a data frame into `out` (cleared first, capacity kept): the
/// steady-state path encodes every frame into a recycled buffer.
pub fn encode_data_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_header(KIND_DATA, out);
    out.extend_from_slice(payload);
}

/// Encode a checksummed data frame into `out` (cleared first, capacity
/// kept): payload, then a CRC-8 trailer the decoder verifies. Costs one
/// table lookup per byte on encode and decode — paid only by paths that
/// opt in (integrity mode).
pub fn encode_data_summed_into(payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_header(KIND_DATA_SUMMED, out);
    out.extend_from_slice(payload);
    out.push(crc8(payload));
}

/// Encode a control frame into `out` (cleared first, capacity kept). The
/// body is produced by [`Control::encode_into`] — the single shared
/// control encoder.
pub fn encode_control_into(ctl: &Control, out: &mut Vec<u8>) {
    out.clear();
    push_header(KIND_CONTROL, out);
    ctl.encode_into(out);
}

/// Encode a control frame padded out to exactly `wire_len` bytes (cleared
/// first, capacity kept). The body carries an explicit length prefix so
/// the decoder never has to guess where the control message ends, and the
/// tail is zero-filled. If `wire_len` is too small to hold the prefixed
/// message, the frame simply comes out at its natural (unpadded) length —
/// callers should pick `wire_len` from the data frames they are matching.
pub fn encode_control_padded_into(ctl: &Control, wire_len: usize, out: &mut Vec<u8>) {
    out.clear();
    push_header(KIND_CONTROL_PADDED, out);
    out.extend_from_slice(&[0, 0]); // length prefix, patched below
    ctl.encode_into(out);
    let body = (out.len() - FRAME_HEADER_LEN - PAD_LEN_PREFIX) as u16;
    out[FRAME_HEADER_LEN..FRAME_HEADER_LEN + PAD_LEN_PREFIX].copy_from_slice(&body.to_le_bytes());
    if out.len() < wire_len {
        out.resize(wire_len, 0);
    }
}

/// Encode a flow-tagged data frame (version 2) into `out` (cleared
/// first, capacity kept).
pub fn encode_data_flow_into(flow: u32, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(KIND_DATA, flow, out);
    out.extend_from_slice(payload);
}

/// Encode a flow-tagged checksummed data frame (version 2) into `out`.
/// The CRC-8 trailer covers the payload only, exactly as in version 1 —
/// the flow id is header, not body.
pub fn encode_data_summed_flow_into(flow: u32, payload: &[u8], out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(KIND_DATA_SUMMED, flow, out);
    out.extend_from_slice(payload);
    out.push(crc8(payload));
}

/// Encode a flow-tagged control frame (version 2) into `out`.
pub fn encode_control_flow_into(flow: u32, ctl: &Control, out: &mut Vec<u8>) {
    out.clear();
    push_flow_header(KIND_CONTROL, flow, out);
    ctl.encode_into(out);
}

/// Encode a flow-tagged control frame padded out to exactly `wire_len`
/// bytes (version 2) — the GSO-train trick of
/// [`encode_control_padded_into`], flow-tagged.
pub fn encode_control_padded_flow_into(
    flow: u32,
    ctl: &Control,
    wire_len: usize,
    out: &mut Vec<u8>,
) {
    out.clear();
    push_flow_header(KIND_CONTROL_PADDED, flow, out);
    let prefix_at = out.len();
    out.extend_from_slice(&[0, 0]); // length prefix, patched below
    ctl.encode_into(out);
    let body = (out.len() - prefix_at - PAD_LEN_PREFIX) as u16;
    out[prefix_at..prefix_at + PAD_LEN_PREFIX].copy_from_slice(&body.to_le_bytes());
    if out.len() < wire_len {
        out.resize(wire_len, 0);
    }
}

/// On-wire length of a data frame carrying `payload_len` body bytes.
pub fn data_frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len
}

/// On-wire length of a flow-tagged data frame.
pub fn data_flow_frame_len(flow: u32, payload_len: usize) -> usize {
    FRAME_HEADER_LEN + flow_id_len(flow) + payload_len
}

/// On-wire length of a flow-tagged checksummed data frame.
pub fn summed_flow_frame_len(flow: u32, payload_len: usize) -> usize {
    FRAME_HEADER_LEN + flow_id_len(flow) + payload_len + SUM_TRAILER_LEN
}

/// On-wire length of a flow-tagged control frame.
pub fn control_flow_frame_len(flow: u32, ctl: &Control) -> usize {
    FRAME_HEADER_LEN + flow_id_len(flow) + ctl.wire_len()
}

/// On-wire length of a *checksummed* data frame carrying `payload_len`
/// body bytes.
pub fn summed_frame_len(payload_len: usize) -> usize {
    FRAME_HEADER_LEN + payload_len + SUM_TRAILER_LEN
}

/// On-wire length of a control frame, without materializing it.
pub fn control_frame_len(ctl: &Control) -> usize {
    FRAME_HEADER_LEN + ctl.wire_len()
}

/// Whether `frame` is a well-headed data frame (either data kind) — the
/// peek the fault layer uses to drop data while letting markers and
/// control through.
pub fn is_data_frame(frame: &[u8]) -> bool {
    frame.len() >= FRAME_HEADER_LEN
        && frame[0] == FRAME_MAGIC
        && (frame[1] == FRAME_VERSION || frame[1] == FRAME_VERSION_FLOW)
        && (frame[2] == KIND_DATA || frame[2] == KIND_DATA_SUMMED)
}

/// Why a frame failed to decode — the distinction drives separate
/// receiver counters, so a soak can assert "zero corrupted payloads
/// delivered *and* every injected flip was caught".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Structurally broken: short, bad magic/version, unknown kind,
    /// undecodable control body, lying pad prefix.
    Malformed,
    /// Structurally fine but the CRC-8 trailer disagrees with the
    /// payload: bits were flipped in flight.
    Corrupt,
}

/// Decode a frame body given its kind — shared by the version-1 and
/// version-2 paths, which differ only in what precedes the body.
fn decode_body(kind: u8, body: &[u8]) -> Result<Frame<'_>, DecodeError> {
    match kind {
        KIND_DATA => Ok(Frame::Data(body)),
        KIND_DATA_SUMMED => {
            let (&trailer, payload) = body.split_last().ok_or(DecodeError::Malformed)?;
            if crc8(payload) != trailer {
                return Err(DecodeError::Corrupt);
            }
            Ok(Frame::Data(payload))
        }
        KIND_CONTROL => Control::decode(body)
            .map(Frame::Control)
            .ok_or(DecodeError::Malformed),
        KIND_CONTROL_PADDED => {
            let lo = *body.first().ok_or(DecodeError::Malformed)?;
            let hi = *body.get(1).ok_or(DecodeError::Malformed)?;
            let n = u16::from_le_bytes([lo, hi]) as usize;
            let ctl = body
                .get(PAD_LEN_PREFIX..PAD_LEN_PREFIX + n)
                .ok_or(DecodeError::Malformed)?;
            Control::decode(ctl)
                .map(Frame::Control)
                .ok_or(DecodeError::Malformed)
        }
        _ => Err(DecodeError::Malformed),
    }
}

/// Decode one received frame, reporting *why* rejects were rejected.
/// Never panics, whatever the input — see the fuzz proptest in
/// `tests/net_loopback.rs`.
///
/// Version-1 only: a single-flow receiver must *not* silently accept
/// flow-tagged traffic it would misattribute to its one flow. Endpoints
/// that speak both versions use [`try_decode_flow`].
pub fn try_decode(frame: &[u8]) -> Result<Frame<'_>, DecodeError> {
    if frame.len() < FRAME_HEADER_LEN || frame[0] != FRAME_MAGIC || frame[1] != FRAME_VERSION {
        return Err(DecodeError::Malformed);
    }
    decode_body(frame[2], &frame[FRAME_HEADER_LEN..])
}

/// Decode one received frame of *either* version, returning the flow it
/// belongs to: a version-2 frame's varint flow id, or flow 0 for a
/// legacy version-1 frame. This is the receive path of a multi-flow
/// demultiplexer, which stays wire-compatible with single-flow senders.
pub fn try_decode_flow(frame: &[u8]) -> Result<(u32, Frame<'_>), DecodeError> {
    if frame.len() < FRAME_HEADER_LEN || frame[0] != FRAME_MAGIC {
        return Err(DecodeError::Malformed);
    }
    match frame[1] {
        FRAME_VERSION => decode_body(frame[2], &frame[FRAME_HEADER_LEN..]).map(|f| (0, f)),
        FRAME_VERSION_FLOW => {
            let (flow, used) =
                take_flow_id(&frame[FRAME_HEADER_LEN..]).ok_or(DecodeError::Malformed)?;
            decode_body(frame[2], &frame[FRAME_HEADER_LEN + used..]).map(|f| (flow, f))
        }
        _ => Err(DecodeError::Malformed),
    }
}

/// Byte offset of a decoded frame's body: where the payload of a data
/// frame starts inside the datagram. [`FRAME_HEADER_LEN`] for version 1;
/// header plus varint for version 2. `None` if the frame is too short to
/// tell. Receivers use this to keep payloads zero-copy in their pooled
/// buffers whichever version arrived.
pub fn body_offset(frame: &[u8]) -> Option<usize> {
    if frame.len() < FRAME_HEADER_LEN {
        return None;
    }
    match frame[1] {
        FRAME_VERSION => Some(FRAME_HEADER_LEN),
        FRAME_VERSION_FLOW => {
            take_flow_id(&frame[FRAME_HEADER_LEN..]).map(|(_, used)| FRAME_HEADER_LEN + used)
        }
        _ => None,
    }
}

/// Decode one received frame. `None` on anything malformed or corrupt;
/// the caller drops it like any corrupt packet (§5 assumes detectable
/// corruption). Callers that need the reason use [`try_decode`].
pub fn decode(frame: &[u8]) -> Option<Frame<'_>> {
    try_decode(frame).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stripe_core::sched::ChannelMark;
    use stripe_core::Marker;

    #[test]
    fn data_roundtrips_zero_copy() {
        let payload = [7u8, 8, 9, 10];
        let mut buf = Vec::new();
        encode_data_into(&payload, &mut buf);
        assert_eq!(buf.len(), data_frame_len(payload.len()));
        match decode(&buf) {
            Some(Frame::Data(body)) => {
                assert_eq!(body, &payload);
                // Zero-copy: the decoded body aliases the frame buffer.
                assert!(std::ptr::eq(
                    body.as_ptr(),
                    buf[FRAME_HEADER_LEN..].as_ptr()
                ));
            }
            other => panic!("expected data frame, got {other:?}"),
        }
    }

    #[test]
    fn empty_data_frame_is_legal() {
        let mut buf = Vec::new();
        encode_data_into(&[], &mut buf);
        assert_eq!(decode(&buf), Some(Frame::Data(&[][..])));
    }

    #[test]
    fn control_roundtrips_every_variant() {
        for ctl in [
            Control::Marker(Marker::sync(3, ChannelMark { round: 99, dc: -5 })),
            Control::ResetRequest { epoch: 7 },
            Control::ResetAck { epoch: 7 },
            Control::QuantumAnnounce {
                epoch: 3,
                effective_round: 1 << 33,
                quanta: vec![1500, 4500],
            },
            Control::QuantumAck { epoch: 3 },
            Control::Probe { nonce: 0xDEAD },
            Control::ProbeAck {
                nonce: 0xDEAD,
                incarnation: 0xFEED_FACE,
            },
            Control::DesyncAlert {
                incarnation: 0xFEED_FACE,
            },
            Control::Membership {
                epoch: 2,
                live_mask: 0b101,
                effective_round: 64,
            },
            Control::MembershipAck { epoch: 2 },
        ] {
            let mut buf = Vec::new();
            encode_control_into(&ctl, &mut buf);
            assert_eq!(buf.len(), control_frame_len(&ctl), "{ctl:?}");
            assert_eq!(decode(&buf), Some(Frame::Control(ctl.clone())), "{ctl:?}");
        }
    }

    #[test]
    fn control_body_is_exactly_the_shared_encoder_bytes() {
        let ctl = Control::Probe { nonce: 42 };
        let mut buf = Vec::new();
        encode_control_into(&ctl, &mut buf);
        assert_eq!(&buf[FRAME_HEADER_LEN..], &ctl.encode()[..]);
    }

    #[test]
    fn encode_into_clears_previous_contents() {
        let mut buf = vec![1, 2, 3, 4, 5];
        encode_data_into(&[9], &mut buf);
        assert_eq!(buf, vec![FRAME_MAGIC, FRAME_VERSION, KIND_DATA, 9]);
    }

    #[test]
    fn malformed_frames_rejected() {
        // Short, bad magic, bad version, unknown kind, bad control body.
        assert_eq!(decode(&[]), None);
        assert_eq!(decode(&[FRAME_MAGIC, FRAME_VERSION]), None);
        assert_eq!(decode(&[0x00, FRAME_VERSION, KIND_DATA, 1]), None);
        assert_eq!(decode(&[FRAME_MAGIC, 99, KIND_DATA, 1]), None);
        assert_eq!(decode(&[FRAME_MAGIC, FRAME_VERSION, 7, 1]), None);
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL, 99]),
            None
        );
    }

    #[test]
    fn padded_control_roundtrips_at_any_target_length() {
        let ctl = Control::Marker(Marker::sync(1, ChannelMark { round: 12, dc: 3 }));
        let natural = control_frame_len(&ctl) + PAD_LEN_PREFIX;
        // Below natural (no pad fits), exactly natural, and well above.
        for wire_len in [0, natural, natural + 1, 1203] {
            let mut buf = Vec::new();
            encode_control_padded_into(&ctl, wire_len, &mut buf);
            assert_eq!(buf.len(), wire_len.max(natural), "target {wire_len}");
            assert_eq!(decode(&buf), Some(Frame::Control(ctl.clone())));
            assert!(!is_data_frame(&buf));
        }
    }

    #[test]
    fn padded_control_ignores_nonzero_padding() {
        // Decoding depends only on the length prefix, not on the pad
        // bytes being zero — a receiver must never trust the tail.
        let ctl = Control::Probe { nonce: 7 };
        let mut buf = Vec::new();
        encode_control_padded_into(&ctl, 64, &mut buf);
        for b in &mut buf[FRAME_HEADER_LEN + PAD_LEN_PREFIX + ctl.wire_len()..] {
            *b = 0xFF;
        }
        assert_eq!(decode(&buf), Some(Frame::Control(ctl)));
    }

    #[test]
    fn padded_control_with_lying_length_prefix_rejected() {
        let ctl = Control::Probe { nonce: 7 };
        let mut buf = Vec::new();
        encode_control_padded_into(&ctl, 16, &mut buf);
        // Claim more body bytes than the frame holds.
        buf[FRAME_HEADER_LEN..FRAME_HEADER_LEN + PAD_LEN_PREFIX]
            .copy_from_slice(&1000u16.to_le_bytes());
        assert_eq!(decode(&buf), None);
        // Truncated before the length prefix ends.
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL_PADDED, 1]),
            None
        );
        assert_eq!(
            decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_CONTROL_PADDED]),
            None
        );
    }

    #[test]
    fn is_data_frame_peeks_kind() {
        let mut data = Vec::new();
        encode_data_into(&[1, 2], &mut data);
        assert!(is_data_frame(&data));
        let mut summed = Vec::new();
        encode_data_summed_into(&[1, 2], &mut summed);
        assert!(is_data_frame(&summed));
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 1 }, &mut ctl);
        assert!(!is_data_frame(&ctl));
        assert!(!is_data_frame(&[FRAME_MAGIC]));
    }

    #[test]
    fn summed_data_roundtrips() {
        let payload = [7u8, 8, 9, 10];
        let mut buf = Vec::new();
        encode_data_summed_into(&payload, &mut buf);
        assert_eq!(buf.len(), summed_frame_len(payload.len()));
        match try_decode(&buf) {
            Ok(Frame::Data(body)) => {
                assert_eq!(body, &payload, "trailer must be stripped");
                // Still zero-copy: the payload aliases the frame buffer.
                assert!(std::ptr::eq(
                    body.as_ptr(),
                    buf[FRAME_HEADER_LEN..].as_ptr()
                ));
            }
            other => panic!("expected data frame, got {other:?}"),
        }
        let mut empty = Vec::new();
        encode_data_summed_into(&[], &mut empty);
        assert_eq!(try_decode(&empty), Ok(Frame::Data(&[][..])));
    }

    #[test]
    fn summed_data_catches_every_single_bit_flip() {
        let payload: Vec<u8> = (0..57).collect();
        let mut clean = Vec::new();
        encode_data_summed_into(&payload, &mut clean);
        // Flip each body bit (payload and trailer) in turn: all caught.
        for byte in FRAME_HEADER_LEN..clean.len() {
            for bit in 0..8 {
                let mut buf = clean.clone();
                buf[byte] ^= 1 << bit;
                assert_eq!(
                    try_decode(&buf),
                    Err(DecodeError::Corrupt),
                    "flip at byte {byte} bit {bit} slipped through"
                );
            }
        }
    }

    #[test]
    fn summed_data_without_trailer_is_malformed_not_corrupt() {
        // A bare header of kind 3 has no room for the CRC byte.
        assert_eq!(
            try_decode(&[FRAME_MAGIC, FRAME_VERSION, KIND_DATA_SUMMED]),
            Err(DecodeError::Malformed)
        );
    }

    #[test]
    fn try_decode_classifies_malformed_vs_corrupt() {
        assert_eq!(try_decode(&[]), Err(DecodeError::Malformed));
        assert_eq!(
            try_decode(&[0x00, FRAME_VERSION, KIND_DATA, 1]),
            Err(DecodeError::Malformed)
        );
        assert_eq!(
            try_decode(&[FRAME_MAGIC, FRAME_VERSION, 9, 1]),
            Err(DecodeError::Malformed)
        );
        let mut buf = Vec::new();
        encode_data_summed_into(&[1, 2, 3], &mut buf);
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert_eq!(try_decode(&buf), Err(DecodeError::Corrupt));
        // decode() folds both reject reasons into None.
        assert_eq!(decode(&buf), None);
    }

    #[test]
    fn flow_data_roundtrips_zero_copy_at_varint_boundaries() {
        let payload = [1u8, 2, 3, 4, 5];
        for flow in [0u32, 1, 0x7F, 0x80, 0x3FFF, 0x4000, 0x1F_FFFF, u32::MAX] {
            let mut buf = Vec::new();
            encode_data_flow_into(flow, &payload, &mut buf);
            assert_eq!(buf.len(), data_flow_frame_len(flow, payload.len()));
            match try_decode_flow(&buf) {
                Ok((f, Frame::Data(body))) => {
                    assert_eq!(f, flow);
                    assert_eq!(body, &payload);
                    // Zero-copy: the body aliases the frame buffer.
                    let off = body_offset(&buf).unwrap();
                    assert!(std::ptr::eq(body.as_ptr(), buf[off..].as_ptr()));
                }
                other => panic!("flow {flow}: {other:?}"),
            }
            // A v1-only decoder must reject flow-tagged frames outright.
            assert_eq!(try_decode(&buf), Err(DecodeError::Malformed));
        }
    }

    #[test]
    fn flow_summed_data_roundtrips_and_catches_flips() {
        let payload: Vec<u8> = (0..40).collect();
        let mut buf = Vec::new();
        encode_data_summed_flow_into(9000, &payload, &mut buf);
        assert_eq!(buf.len(), summed_flow_frame_len(9000, payload.len()));
        assert_eq!(try_decode_flow(&buf), Ok((9000, Frame::Data(&payload[..]))));
        let off = body_offset(&buf).unwrap();
        let mut evil = buf.clone();
        evil[off + 3] ^= 0x04;
        assert_eq!(try_decode_flow(&evil), Err(DecodeError::Corrupt));
    }

    #[test]
    fn flow_control_and_padded_roundtrip() {
        let ctl = Control::Marker(Marker::sync(2, ChannelMark { round: 7, dc: -1 }));
        let mut buf = Vec::new();
        encode_control_flow_into(777, &ctl, &mut buf);
        assert_eq!(buf.len(), control_flow_frame_len(777, &ctl));
        assert_eq!(
            try_decode_flow(&buf),
            Ok((777, Frame::Control(ctl.clone())))
        );
        assert!(!is_data_frame(&buf));
        for wire_len in [0, 64, 1200] {
            let mut padded = Vec::new();
            encode_control_padded_flow_into(777, &ctl, wire_len, &mut padded);
            assert!(padded.len() >= wire_len);
            assert_eq!(
                try_decode_flow(&padded),
                Ok((777, Frame::Control(ctl.clone()))),
                "target {wire_len}"
            );
        }
    }

    #[test]
    fn try_decode_flow_accepts_legacy_as_flow_zero() {
        let mut data = Vec::new();
        encode_data_into(&[5, 6], &mut data);
        assert_eq!(try_decode_flow(&data), Ok((0, Frame::Data(&[5, 6][..]))));
        let mut ctl = Vec::new();
        encode_control_into(&Control::Probe { nonce: 3 }, &mut ctl);
        assert_eq!(
            try_decode_flow(&ctl),
            Ok((0, Frame::Control(Control::Probe { nonce: 3 })))
        );
        assert_eq!(body_offset(&data), Some(FRAME_HEADER_LEN));
    }

    #[test]
    fn flow_id_encoding_is_canonical_leb128() {
        for flow in [0u32, 0x7F, 0x80, 0x3FFF, 0x4000, u32::MAX] {
            let mut buf = Vec::new();
            encode_data_flow_into(flow, &[], &mut buf);
            assert_eq!(buf.len() - FRAME_HEADER_LEN, flow_id_len(flow), "{flow}");
        }
    }

    #[test]
    fn truncated_or_overlong_flow_id_is_malformed() {
        // Header promising a varint that never terminates.
        let truncated = [FRAME_MAGIC, FRAME_VERSION_FLOW, KIND_DATA, 0x80];
        assert_eq!(try_decode_flow(&truncated), Err(DecodeError::Malformed));
        // Six continuation bytes: longer than any u32 varint.
        let overlong = [
            FRAME_MAGIC,
            FRAME_VERSION_FLOW,
            KIND_DATA,
            0x80,
            0x80,
            0x80,
            0x80,
            0x80,
            0x01,
        ];
        assert_eq!(try_decode_flow(&overlong), Err(DecodeError::Malformed));
        // Fifth byte carrying bits a u32 cannot hold.
        let overflow = [
            FRAME_MAGIC,
            FRAME_VERSION_FLOW,
            KIND_DATA,
            0xFF,
            0xFF,
            0xFF,
            0xFF,
            0x7F,
        ];
        assert_eq!(try_decode_flow(&overflow), Err(DecodeError::Malformed));
        // Unknown version for both decoders.
        assert_eq!(
            try_decode_flow(&[FRAME_MAGIC, 3, KIND_DATA, 1]),
            Err(DecodeError::Malformed)
        );
    }

    #[test]
    fn is_data_frame_accepts_both_versions() {
        let mut v2 = Vec::new();
        encode_data_flow_into(12, &[1], &mut v2);
        assert!(is_data_frame(&v2));
        let mut v2c = Vec::new();
        encode_control_flow_into(12, &Control::Probe { nonce: 1 }, &mut v2c);
        assert!(!is_data_frame(&v2c));
    }

    #[test]
    fn crc8_known_vector() {
        // CRC-8/SMBUS ("123456789") = 0xF4 for poly 0x07, init 0.
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0);
    }
}
