//! # xqib-storage
//!
//! Crash-consistent persistence for the server tier, in the same
//! deterministic-simulation style as the virtual network (PR 2) and the
//! engine crash points (PR 3): everything here is reproducible from a
//! single `u64` seed.
//!
//! * [`VirtualDisk`] — an in-memory file device that distinguishes written
//!   from *synced* bytes and simulates power loss: on [`VirtualDisk::crash`]
//!   the unsynced tail of every file survives only as a torn prefix, with
//!   seeded bit corruption, per the installed [`StorageFaultPlan`].
//! * [`Wal`] — an append-only redo log of length-prefixed, CRC-checked,
//!   sequence-numbered frames. Replay stops at the first bad frame (torn
//!   tail, CRC mismatch, sequence break): the **prefix-durability
//!   contract** — recovery yields exactly the state of some frame boundary,
//!   never a torn or corrupted state.
//! * [`Checkpoint`] — dual-slot, generation-numbered, CRC-guarded document
//!   snapshots. A checkpoint records the WAL sequence it covers so the log
//!   can be truncated afterwards, and so that replay after a crash between
//!   checkpoint and truncate skips already-absorbed records (idempotent
//!   recovery).

pub mod checkpoint;
pub mod disk;
pub mod wal;

pub use checkpoint::{Checkpoint, CKPT_SLOTS};
pub use disk::{DiskError, DiskStats, StorageFaultPlan, VirtualDisk};
pub use wal::{ShippedFrame, Wal, WalBreak, WalRecord, WalReplay, WAL_FILE};

/// CRC-32 (IEEE 802.3, reflected) — the frame and snapshot checksum.
/// Slicing-by-8: eight bytes per step through the const `CRC_TABLES`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// `CRC_TABLES[0][b]` is the CRC register after feeding byte `b` through
/// the reflected polynomial `0xEDB88320`; `CRC_TABLES[k][b]` is that byte
/// followed by `k` zero bytes, so one step folds eight input bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xEDB8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// FNV-1a over a byte string — the workspace's standard content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finaliser — the workspace's standard bit mixer.
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// End-to-end content digest of one document binding: FNV-1a over the URI
/// chained with FNV-1a over the canonical serialization, finished with the
/// splitmix64 mixer. Recorded in WAL digest frames and checkpoint entries
/// so replicas can cross-check state without shipping bodies, and so a
/// read path can refuse to serve bytes that no longer hash to what was
/// acknowledged.
pub fn content_digest(uri: &str, xml: &str) -> u64 {
    mix64(fnv1a(uri.as_bytes()) ^ mix64(fnv1a(xml.as_bytes())))
}

/// Typed verdict of an integrity check over a WAL or checkpoint read.
/// Distinguishes the *expected* crash shape (a torn tail, which replay
/// truncates) from silent damage inside the durable prefix (an alarm: no
/// legal crash produces it, so a platter or replication fault did).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IntegrityError {
    /// Bytes past the last intact frame that never formed one — the
    /// expected shape after a crash mid-append.
    TornWalTail { at: usize },
    /// Damage strictly inside the durable prefix: a fully-present frame
    /// failed its CRC, re-used a sequence number, or carried a payload
    /// that no longer decodes.
    WalCorruption { at: usize, reason: WalBreak },
    /// A checkpoint slot was present but failed magic/CRC/digest checks.
    CheckpointSlotCorrupt { slot: usize },
    /// Every written checkpoint slot is corrupt — recovery has no snapshot
    /// to stand on and degrades to the WAL alone.
    AllCheckpointSlotsCorrupt,
    /// A document's content digest did not match its recorded value.
    DigestMismatch { uri: String, want: u64, got: u64 },
}

impl std::fmt::Display for IntegrityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IntegrityError::TornWalTail { at } => {
                write!(f, "torn WAL tail past byte {at}")
            }
            IntegrityError::WalCorruption { at, reason } => {
                write!(f, "WAL corruption at byte {at}: {reason:?}")
            }
            IntegrityError::CheckpointSlotCorrupt { slot } => {
                write!(f, "checkpoint slot {slot} is corrupt")
            }
            IntegrityError::AllCheckpointSlotsCorrupt => {
                write!(f, "every checkpoint slot is corrupt")
            }
            IntegrityError::DigestMismatch { uri, want, got } => {
                write!(
                    f,
                    "digest mismatch for {uri}: want {want:016x}, got {got:016x}"
                )
            }
        }
    }
}

impl std::error::Error for IntegrityError {}

/// Durability counters of one database, reported on `/metrics`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Redo records appended to the WAL.
    pub wal_appends: u64,
    /// Successful WAL fsyncs (group commits).
    pub fsyncs: u64,
    /// Checkpoints written (each truncates the WAL).
    pub checkpoints: u64,
    /// Recoveries performed over the disk image.
    pub recoveries: u64,
    /// Recoveries that dropped a torn/corrupt WAL tail.
    pub torn_tails_dropped: u64,
    /// Recoveries that found every written checkpoint slot corrupt and had
    /// to rebuild from the WAL alone.
    pub ckpt_slots_lost: u64,
    /// Mid-prefix WAL damage (CRC/decode failure on a fully-present frame)
    /// seen during recovery — never a legal crash shape.
    pub wal_corruptions: u64,
    /// Recovered documents whose content digest disagreed with the digest
    /// recorded in the WAL.
    pub recovery_digest_mismatches: u64,
}

impl DurabilityStats {
    /// Every counter under its `/metrics` element name, in report order.
    pub fn counters(&self) -> [(&'static str, u64); 8] {
        let DurabilityStats {
            wal_appends,
            fsyncs,
            checkpoints,
            recoveries,
            torn_tails_dropped,
            ckpt_slots_lost,
            wal_corruptions,
            recovery_digest_mismatches,
        } = *self;
        [
            ("wal-appends", wal_appends),
            ("wal-fsyncs", fsyncs),
            ("checkpoints", checkpoints),
            ("recoveries", recoveries),
            ("torn-tails-dropped", torn_tails_dropped),
            ("ckpt-slots-lost", ckpt_slots_lost),
            ("wal-corruptions", wal_corruptions),
            ("recovery-digest-mismatches", recovery_digest_mismatches),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bit-at-a-time CRC-32 the table-driven one replaced: the
    /// reference its values must match bit for bit.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    /// `len` bytes of seeded noise.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        (0..len as u64).map(|i| mix64(seed ^ i) as u8).collect()
    }

    proptest! {
        /// Every length through 64 (each remainder split around the
        /// eight-byte steps) and random buffers up to 128 KiB, at random
        /// start offsets, agree with the bitwise reference.
        #[test]
        fn crc32_matches_the_bitwise_reference(
            seed in any::<u64>(),
            len in 0usize..128 * 1024 + 1,
            skip in 0usize..8,
        ) {
            for short in 0..=64 {
                let buf = noise(seed ^ short as u64, short);
                prop_assert_eq!(crc32(&buf), crc32_bitwise(&buf), "len {}", short);
            }
            let buf = noise(seed, len);
            let tail = &buf[skip.min(len)..];
            prop_assert_eq!(crc32(tail), crc32_bitwise(tail), "len {}", tail.len());
        }
    }

    /// A WAL frame and a checkpoint slot as the bitwise CRC wrote them:
    /// byte images on disk from before the table-driven CRC must still
    /// scan and decode.
    #[test]
    fn golden_wal_frame_and_checkpoint_still_verify() {
        const FRAME: [u8; 39] = [
            22, 0, 0, 0, 147, 54, 4, 139, 1, 0, 0, 0, 0, 0, 0, 0, 1, 5, 0, 0, 0, 97, 46, 120, 109,
            108, 9, 0, 0, 0, 60, 97, 62, 104, 105, 60, 47, 97, 62,
        ];
        const CKPT: [u8; 62] = [
            88, 81, 67, 75, 80, 84, 50, 0, 127, 151, 230, 42, 3, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0,
            0, 0, 0, 0, 1, 0, 0, 0, 5, 0, 0, 0, 97, 46, 120, 109, 108, 9, 0, 0, 0, 60, 97, 62, 104,
            105, 60, 47, 97, 62, 170, 210, 168, 164, 171, 108, 77, 193,
        ];
        let doc = ("a.xml".to_string(), "<a>hi</a>".to_string());
        let replay = Wal::scan_bytes(&FRAME);
        assert_eq!(replay.break_reason, None);
        assert_eq!(
            replay.records,
            vec![(
                1,
                WalRecord::Load {
                    uri: doc.0.clone(),
                    xml: doc.1.clone()
                },
                FRAME.len()
            )]
        );
        let ck = Checkpoint::decode(&CKPT).expect("golden checkpoint decodes");
        assert_eq!(
            ck,
            Checkpoint {
                gen: 3,
                seq: 7,
                docs: vec![doc]
            }
        );
        // and today's encoders still produce exactly these bytes
        let disk = VirtualDisk::new();
        let mut wal = Wal::create(disk.clone(), WAL_FILE);
        wal.append(&replay.records[0].1);
        assert_eq!(disk.read(WAL_FILE).unwrap(), FRAME);
        assert_eq!(ck.encode(), CKPT);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }
}
