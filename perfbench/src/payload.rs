//! Self-verifying payloads: every packet carries its flow id, sequence
//! number, the time it was due and the time it was handed to the
//! datapath, and a checksum over all of that and the whole body.
//!
//! Layout (little-endian): `flow u32 | seq u64 | due_ns u64 | sent_ns u64
//! | check u64 | filler…`. The filler is one seeded pattern per run, so a
//! sender restamps only the header of a recycled buffer, while the
//! receiver re-reads every byte.

/// Header bytes in front of the filler.
pub const HEADER: usize = 36;

/// The fields a packet is stamped with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stamp {
    /// Flow the packet was sent on.
    pub flow: u32,
    /// Per-flow sequence number, from 0.
    pub seq: u64,
    /// When the packet was due to be sent ([`crate::now_ns`] time).
    pub due_ns: u64,
    /// When it was handed to the datapath.
    pub sent_ns: u64,
}

/// The seeded body pattern and its precomputed sum.
#[derive(Debug, Clone)]
pub struct Filler {
    bytes: Vec<u8>,
    sum: u64,
}

impl Filler {
    /// A pattern for payloads of `len` bytes (at least [`HEADER`]).
    pub fn new(seed: u64, len: usize) -> Self {
        assert!(len >= HEADER, "payload shorter than its header");
        let mut state = seed ^ 0x5eed_f111_e4a5_0001;
        let bytes: Vec<u8> = (HEADER..len).map(|_| splitmix(&mut state) as u8).collect();
        let sum = body_sum(&bytes);
        Self { bytes, sum }
    }

    /// Make `buf` a full payload: resize it, write the filler, stamp it.
    pub fn write(&self, buf: &mut Vec<u8>, s: &Stamp) {
        buf.resize(HEADER + self.bytes.len(), 0);
        self.prime(buf);
        self.restamp(buf, s);
    }

    /// Write the filler into a payload-sized slot, ready for
    /// [`restamp`](Self::restamp).
    pub fn prime(&self, slot: &mut [u8]) {
        slot[HEADER..].copy_from_slice(&self.bytes);
    }

    /// Restamp a buffer that already holds this filler.
    #[inline]
    pub fn restamp(&self, buf: &mut [u8], s: &Stamp) {
        buf[0..4].copy_from_slice(&s.flow.to_le_bytes());
        buf[4..12].copy_from_slice(&s.seq.to_le_bytes());
        buf[12..20].copy_from_slice(&s.due_ns.to_le_bytes());
        buf[20..28].copy_from_slice(&s.sent_ns.to_le_bytes());
        buf[28..36].copy_from_slice(&check(s, self.sum).to_le_bytes());
    }
}

/// Why a delivered payload was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bad {
    /// Shorter than the header.
    Truncated,
    /// Header or body does not match the checksum.
    Checksum,
}

/// Verify a delivered payload end to end and return its stamp.
#[inline]
pub fn verify(buf: &[u8]) -> Result<Stamp, Bad> {
    if buf.len() < HEADER {
        return Err(Bad::Truncated);
    }
    let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
    let s = Stamp {
        flow: u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")),
        seq: word(4),
        due_ns: word(12),
        sent_ns: word(20),
    };
    if word(28) != check(&s, body_sum(&buf[HEADER..])) {
        return Err(Bad::Checksum);
    }
    Ok(s)
}

/// Position-dependent (Fletcher-style) sum of a body, eight bytes at a
/// time.
#[inline]
pub fn body_sum(body: &[u8]) -> u64 {
    let (mut a, mut b) = (0u64, 0u64);
    let mut chunks = body.chunks_exact(8);
    for c in &mut chunks {
        a = a.wrapping_add(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        b = b.wrapping_add(a);
    }
    for &x in chunks.remainder() {
        a = a.wrapping_add(u64::from(x));
        b = b.wrapping_add(a);
    }
    a ^ b.rotate_left(32)
}

fn check(s: &Stamp, body: u64) -> u64 {
    let mut h = body;
    for v in [u64::from(s.flow), s.seq, s.due_ns, s.sent_ns] {
        h = mix(h ^ v);
    }
    h
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One step of the splitmix64 generator — the benchmark's seeded source
/// for filler bytes, visit orders and loss schedules.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    mix(*state)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_payload_verifies_and_any_flip_is_caught() {
        let f = Filler::new(7, 64);
        let s = Stamp {
            flow: 3,
            seq: 9,
            due_ns: 100,
            sent_ns: 120,
        };
        let mut buf = Vec::new();
        f.write(&mut buf, &s);
        assert_eq!(verify(&buf), Ok(s));
        for i in 0..buf.len() {
            buf[i] ^= 0x04;
            assert_eq!(verify(&buf), Err(Bad::Checksum), "flip at byte {i}");
            buf[i] ^= 0x04;
        }
        assert_eq!(verify(&buf[..10]), Err(Bad::Truncated));
    }
}
