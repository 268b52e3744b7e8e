//! Compact binary trace serialization.
//!
//! Traces are fully reproducible from `(benchmark, length, seed)`, but a
//! serialized form lets users snapshot hand-built traces, ship
//! regression inputs, and drive the simulator from external generators.
//! The format is self-contained little-endian with no external
//! dependencies:
//!
//! ```text
//! magic "UTRC" | version u16 | count u64 | count × record
//! record: op u8 | flags u8 | dest u8 | src0 u8 | src1 u8 |
//!         pc u64 | [addr u64, size u8] | [target u64]
//! flags: bit0 dest, bit1 src0, bit2 src1, bit3 mem, bit4 branch,
//!        bit5 taken, bit6 mispredicted
//! ```

use crate::inst::{BranchInfo, Inst, MemInfo};
use crate::op::{OpClass, ALL_OP_CLASSES};
use crate::reg::Reg;
use crate::stream::TraceProgram;

/// Format magic bytes.
pub(crate) const MAGIC: &[u8; 4] = b"UTRC";
/// Current format version.
pub(crate) const VERSION: u16 = 1;

fn op_code(op: OpClass) -> u8 {
    ALL_OP_CLASSES
        .iter()
        .position(|&c| c == op)
        .expect("known class") as u8
}

fn op_from_code(code: u8) -> Result<OpClass, String> {
    ALL_OP_CLASSES
        .get(code as usize)
        .copied()
        .ok_or_else(|| format!("unknown op code {code}"))
}

/// Serializes a trace to the UTRC binary format.
///
/// # Examples
///
/// ```
/// use unsync_isa::{decode_trace, encode_trace, Inst, OpClass, Reg, TraceProgram};
///
/// let trace = TraceProgram::new(vec![
///     Inst::build(OpClass::IntAlu).seq(0).pc(0x400).dest(Reg::int(1)).src0(Reg::int(2)).finish(),
/// ]);
/// let bytes = encode_trace(&trace);
/// assert_eq!(decode_trace(&bytes).unwrap().insts(), trace.insts());
/// ```
pub fn encode(trace: &TraceProgram) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + trace.len() * 16);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for inst in trace.insts() {
        out.push(op_code(inst.op));
        let mut flags = 0u8;
        if inst.dest.is_some() {
            flags |= 1;
        }
        if inst.srcs[0].is_some() {
            flags |= 2;
        }
        if inst.srcs[1].is_some() {
            flags |= 4;
        }
        if inst.mem.is_some() {
            flags |= 8;
        }
        if let Some(b) = inst.branch {
            flags |= 16;
            if b.taken {
                flags |= 32;
            }
            if b.mispredicted {
                flags |= 64;
            }
        }
        out.push(flags);
        out.push(inst.dest.map_or(0, |r| r.index() as u8));
        out.push(inst.srcs[0].map_or(0, |r| r.index() as u8));
        out.push(inst.srcs[1].map_or(0, |r| r.index() as u8));
        out.extend_from_slice(&inst.pc.to_le_bytes());
        if let Some(m) = inst.mem {
            out.extend_from_slice(&m.addr.to_le_bytes());
            out.push(m.size);
        }
        if let Some(b) = inst.branch {
            out.extend_from_slice(&b.target.to_le_bytes());
        }
    }
    out
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).ok_or("overflow")?;
        if end > self.buf.len() {
            return Err(format!("truncated at byte {}", self.pos));
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Deserializes a UTRC buffer back into a trace.
///
/// The decoded instructions pass full [`Inst::validate`] checking (via
/// `TraceProgram::new`'s invariants), so a corrupt buffer is rejected
/// rather than producing an inconsistent trace.
pub fn decode(bytes: &[u8]) -> Result<TraceProgram, String> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err("bad magic".into());
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(format!("unsupported version {version}"));
    }
    let count = r.u64()?;
    // Each record is at least 13 bytes: a cheap sanity bound against
    // absurd counts in corrupt headers.
    if count > (bytes.len() as u64) / 13 + 1 {
        return Err(format!("implausible record count {count}"));
    }
    let mut insts = Vec::with_capacity(count as usize);
    for seq in 0..count {
        let op = op_from_code(r.u8()?)?;
        let flags = r.u8()?;
        let dest = r.u8()?;
        let s0 = r.u8()?;
        let s1 = r.u8()?;
        let pc = r.u64()?;
        let reg = |idx: u8| -> Result<Reg, String> {
            if idx < 64 {
                Ok(Reg::from_index(idx))
            } else {
                Err(format!("bad register index {idx}"))
            }
        };
        let mut b = Inst::build(op).seq(seq).pc(pc);
        if flags & 1 != 0 {
            b = b.dest(reg(dest)?);
        }
        if flags & 2 != 0 {
            b = b.src0(reg(s0)?);
        }
        if flags & 4 != 0 {
            b = b.src1(reg(s1)?);
        }
        if flags & 8 != 0 {
            let addr = r.u64()?;
            let size = r.u8()?;
            if !matches!(size, 1 | 2 | 4 | 8) {
                return Err(format!("record {seq}: bad access size {size}"));
            }
            b = b.mem(MemInfo { addr, size });
        }
        if flags & 16 != 0 {
            let target = r.u64()?;
            b = b.branch(BranchInfo {
                taken: flags & 32 != 0,
                mispredicted: flags & 64 != 0,
                target,
            });
        }
        // `finish` panics on inconsistency; decode must return Err.
        let inst = b.try_finish().map_err(|e| format!("record {seq}: {e}"))?;
        insts.push(inst);
    }
    if r.pos != bytes.len() {
        return Err(format!("{} trailing bytes", bytes.len() - r.pos));
    }
    Ok(TraceProgram::new(insts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> TraceProgram {
        let insts = vec![
            Inst::build(OpClass::IntAlu)
                .seq(0)
                .pc(0x400000)
                .dest(Reg::int(3))
                .src0(Reg::int(1))
                .src1(Reg::int(2))
                .finish(),
            Inst::build(OpClass::Load)
                .seq(1)
                .pc(0x400004)
                .dest(Reg::int(4))
                .src0(Reg::int(3))
                .mem(MemInfo::dword(0x1000_0000))
                .finish(),
            Inst::build(OpClass::Store)
                .seq(2)
                .pc(0x400008)
                .src0(Reg::int(4))
                .mem(MemInfo {
                    addr: 0x1000_0040,
                    size: 4,
                })
                .finish(),
            Inst::build(OpClass::Branch)
                .seq(3)
                .pc(0x40000c)
                .src0(Reg::fp(2))
                .branch(BranchInfo {
                    taken: true,
                    mispredicted: true,
                    target: 0x400000,
                })
                .finish(),
            Inst::build(OpClass::Trap).seq(4).pc(0x400010).finish(),
        ];
        TraceProgram::new(insts)
    }

    #[test]
    fn round_trip_preserves_everything() {
        let t = sample();
        let decoded = decode(&encode(&t)).unwrap();
        assert_eq!(t.insts(), decoded.insts());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode(&sample());
        bytes[0] = b'X';
        assert!(decode(&bytes).unwrap_err().contains("magic"));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode(&sample());
        for cut in [3, 10, bytes.len() - 1] {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode(&sample());
        bytes[4] = 99; // version field, little-endian low byte
        assert!(decode(&bytes).unwrap_err().contains("version"));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&sample());
        bytes.push(0);
        assert!(decode(&bytes).unwrap_err().contains("trailing"));
    }

    #[test]
    fn corrupt_op_code_rejected() {
        let mut bytes = encode(&sample());
        bytes[14] = 250; // first record's op byte
        assert!(decode(&bytes).is_err());
    }

    proptest! {
        /// Decoding arbitrary bytes must never panic — only return Err.
        #[test]
        fn prop_decode_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = decode(&bytes);
        }

        /// Corrupting any single byte of a valid buffer either still
        /// decodes (the flip hit a don't-care bit like an unused register
        /// byte) or errors — it must never panic or hang.
        #[test]
        fn prop_single_byte_corruption_is_handled(idx in any::<prop::sample::Index>(), val: u8) {
            let bytes = {
                let mut b = encode(&sample());
                let i = idx.index(b.len());
                b[i] = val;
                b
            };
            let _ = decode(&bytes);
        }

        #[test]
        fn prop_workload_traces_round_trip(seed in 0u64..50, n in 1u64..400) {
            // Cross-crate generation lives in unsync-workloads; here,
            // synthesize structurally from the sample shapes.
            let mut insts = Vec::new();
            for i in 0..n {
                let shape = (seed ^ i) % 5;
                let inst = match shape {
                    0 => Inst::build(OpClass::IntAlu).seq(i).pc(i * 4)
                        .dest(Reg::from_index(((seed + i) % 63) as u8))
                        .src0(Reg::from_index((i % 64) as u8)).finish(),
                    1 => Inst::build(OpClass::Load).seq(i).pc(i * 4)
                        .dest(Reg::int(((seed + i) % 31) as u8))
                        .mem(MemInfo::dword((seed ^ i) << 3)).finish(),
                    2 => Inst::build(OpClass::Store).seq(i).pc(i * 4)
                        .src0(Reg::int((i % 31) as u8))
                        .mem(MemInfo { addr: (i << 4) | 8, size: 8 }).finish(),
                    3 => Inst::build(OpClass::Branch).seq(i).pc(i * 4)
                        .branch(BranchInfo {
                            taken: i & 1 == 0,
                            mispredicted: i & 2 == 0,
                            target: seed.wrapping_mul(i),
                        }).finish(),
                    _ => Inst::build(OpClass::MemBarrier).seq(i).pc(i * 4).finish(),
                };
                insts.push(inst);
            }
            let t = TraceProgram::new(insts);
            let decoded = decode(&encode(&t)).unwrap();
            prop_assert_eq!(t.insts(), decoded.insts());
        }
    }
}
