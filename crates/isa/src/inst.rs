//! Dynamic instruction records.

use serde::{Deserialize, Serialize};

use crate::op::OpClass;
use crate::reg::Reg;

/// Memory-access information attached to loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MemInfo {
    /// Effective (byte) address of the access.
    pub addr: u64,
    /// Access size in bytes (1, 2, 4 or 8).
    pub(crate) size: u8,
}

impl MemInfo {
    /// A naturally aligned 8-byte access at `addr`.
    #[inline]
    pub fn dword(addr: u64) -> Self {
        MemInfo { addr, size: 8 }
    }
}

/// Control-flow information attached to branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct BranchInfo {
    /// Whether the branch is taken in this dynamic instance.
    pub taken: bool,
    /// Whether the front-end mispredicts this dynamic instance.
    ///
    /// Workload generators decide mispredictions up front (from the
    /// profile's misprediction rate) so that every timing simulation of the
    /// same trace sees identical control-flow behaviour — a requirement for
    /// comparing architectures on equal footing.
    pub mispredicted: bool,
    /// Branch target program counter.
    pub target: u64,
}

/// One dynamic instruction.
///
/// Instructions are produced by workload generators (`unsync-workloads`)
/// and consumed by the timing models. All scheduling-relevant facts are
/// explicit fields; the functional result is computed deterministically by
/// [`crate::exec::ArchState::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Inst {
    /// Dynamic sequence number (position in the trace, starting at 0).
    pub seq: u64,
    /// Program counter of this instruction.
    pub pc: u64,
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if the instruction writes one.
    pub(crate) dest: Option<Reg>,
    /// Up to two source registers.
    pub(crate) srcs: [Option<Reg>; 2],
    /// Memory access, present iff `op.is_mem()`.
    pub mem: Option<MemInfo>,
    /// Branch behaviour, present iff `op.is_branch()`.
    pub branch: Option<BranchInfo>,
}

impl Inst {
    /// Starts building an instruction of class `op`.
    #[inline]
    pub fn build(op: OpClass) -> InstBuilder {
        InstBuilder::new(op)
    }

    /// Iterates over the present source registers.
    #[inline]
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// The destination register if the instruction architecturally writes
    /// one (writes to the zero register are discarded and reported as
    /// `None`).
    #[inline]
    pub fn arch_dest(&self) -> Option<Reg> {
        self.dest.filter(|d| !d.is_zero())
    }

    /// True if this dynamic instance is a mispredicted branch.
    #[inline]
    pub fn is_mispredicted_branch(&self) -> bool {
        self.branch.is_some_and(|b| b.mispredicted)
    }

    /// Internal consistency: memory info present iff memory op, branch
    /// info present iff branch, loads have destinations, stores don't.
    pub fn validate(&self) -> Result<(), String> {
        if self.op.is_mem() != self.mem.is_some() {
            return Err(format!(
                "inst {}: mem info mismatch for {:?}",
                self.seq, self.op
            ));
        }
        if self.op.is_branch() != self.branch.is_some() {
            return Err(format!(
                "inst {}: branch info mismatch for {:?}",
                self.seq, self.op
            ));
        }
        if let Some(m) = self.mem {
            if !matches!(m.size, 1 | 2 | 4 | 8) {
                return Err(format!("inst {}: bad access size {}", self.seq, m.size));
            }
        }
        if self.op.is_store() && self.dest.is_some() {
            return Err(format!(
                "inst {}: store with destination register",
                self.seq
            ));
        }
        if self.op.is_load() && self.dest.is_none() {
            return Err(format!(
                "inst {}: load without destination register",
                self.seq
            ));
        }
        Ok(())
    }
}

impl std::fmt::Display for Inst {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:>6}  {:#010x}  {:<10}",
            self.seq,
            self.pc,
            format!("{:?}", self.op)
        )?;
        if let Some(d) = self.dest {
            write!(f, " {d}")?;
        }
        let srcs: Vec<String> = self.sources().map(|r| r.to_string()).collect();
        if !srcs.is_empty() {
            write!(f, " <- {}", srcs.join(", "))?;
        }
        if let Some(m) = self.mem {
            write!(f, "  [{:#x}]/{}", m.addr, m.size)?;
        }
        if let Some(b) = self.branch {
            write!(
                f,
                "  {}{} -> {:#x}",
                if b.taken { "T" } else { "N" },
                if b.mispredicted { "!" } else { "" },
                b.target
            )?;
        }
        Ok(())
    }
}

/// Builder for [`Inst`] — keeps workload-generator code readable.
#[derive(Debug, Clone)]
pub struct InstBuilder {
    inst: Inst,
}

impl InstBuilder {
    /// Starts a builder for an instruction of class `op`.
    pub(crate) fn new(op: OpClass) -> Self {
        InstBuilder {
            inst: Inst {
                seq: 0,
                pc: 0,
                op,
                dest: None,
                srcs: [None, None],
                mem: None,
                branch: None,
            },
        }
    }

    /// Sets the dynamic sequence number.
    pub fn seq(mut self, seq: u64) -> Self {
        self.inst.seq = seq;
        self
    }

    /// Sets the program counter.
    pub fn pc(mut self, pc: u64) -> Self {
        self.inst.pc = pc;
        self
    }

    /// Sets the destination register.
    pub fn dest(mut self, dest: Reg) -> Self {
        self.inst.dest = Some(dest);
        self
    }

    /// Sets the first source register.
    pub fn src0(mut self, src: Reg) -> Self {
        self.inst.srcs[0] = Some(src);
        self
    }

    /// Sets the second source register.
    pub fn src1(mut self, src: Reg) -> Self {
        self.inst.srcs[1] = Some(src);
        self
    }

    /// Attaches memory-access information.
    pub fn mem(mut self, mem: MemInfo) -> Self {
        self.inst.mem = Some(mem);
        self
    }

    /// Attaches branch information.
    pub fn branch(mut self, branch: BranchInfo) -> Self {
        self.inst.branch = Some(branch);
        self
    }

    /// Finishes the instruction.
    ///
    /// # Panics
    /// Panics if the instruction is internally inconsistent (see
    /// [`Inst::validate`]); builders are used by trusted generators, so an
    /// inconsistency is a bug.
    pub fn finish(self) -> Inst {
        match self.try_finish() {
            Ok(inst) => inst,
            Err(e) => panic!("invalid instruction: {e}"),
        }
    }

    /// Finishes the instruction, returning the validation error instead
    /// of panicking (for untrusted inputs such as decoded trace files).
    pub(crate) fn try_finish(self) -> Result<Inst, String> {
        self.inst.validate()?;
        Ok(self.inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(seq: u64, addr: u64) -> Inst {
        Inst::build(OpClass::Load)
            .seq(seq)
            .dest(Reg::int(1))
            .src0(Reg::int(2))
            .mem(MemInfo::dword(addr))
            .finish()
    }

    #[test]
    fn builder_produces_valid_instructions() {
        let i = load(7, 0x1000);
        assert_eq!(i.seq, 7);
        assert_eq!(i.op, OpClass::Load);
        assert_eq!(i.mem.unwrap().addr, 0x1000);
        assert!(i.validate().is_ok());
    }

    #[test]
    fn sources_iterates_present_registers_only() {
        let i = Inst::build(OpClass::IntAlu)
            .dest(Reg::int(3))
            .src0(Reg::int(1))
            .finish();
        let srcs: Vec<_> = i.sources().collect();
        assert_eq!(srcs, vec![Reg::int(1)]);
    }

    #[test]
    fn arch_dest_filters_zero_register() {
        let i = Inst::build(OpClass::IntAlu).dest(Reg::ZERO).finish();
        assert_eq!(i.arch_dest(), None);
        let j = Inst::build(OpClass::IntAlu).dest(Reg::int(5)).finish();
        assert_eq!(j.arch_dest(), Some(Reg::int(5)));
    }

    #[test]
    #[should_panic(expected = "mem info mismatch")]
    fn load_without_mem_info_panics() {
        let _ = Inst::build(OpClass::Load).dest(Reg::int(1)).finish();
    }

    #[test]
    #[should_panic(expected = "store with destination")]
    fn store_with_dest_panics() {
        let _ = Inst::build(OpClass::Store)
            .dest(Reg::int(1))
            .mem(MemInfo::dword(0))
            .finish();
    }

    #[test]
    #[should_panic(expected = "branch info mismatch")]
    fn branch_without_info_panics() {
        let _ = Inst::build(OpClass::Branch).finish();
    }

    #[test]
    fn bad_access_size_rejected() {
        let mut i = load(0, 0x40);
        i.mem = Some(MemInfo {
            addr: 0x40,
            size: 3,
        });
        assert!(i.validate().is_err());
    }

    #[test]
    fn display_is_informative() {
        let i = load(3, 0x1000);
        let s = i.to_string();
        assert!(s.contains("Load") && s.contains("0x1000") && s.contains("r1"));
        let b = Inst::build(OpClass::Branch)
            .seq(9)
            .pc(0x40)
            .branch(BranchInfo {
                taken: true,
                mispredicted: true,
                target: 0x80,
            })
            .finish();
        assert!(b.to_string().contains("T!"));
    }

    #[test]
    fn mispredicted_branch_detection() {
        let b = Inst::build(OpClass::Branch)
            .branch(BranchInfo {
                taken: true,
                mispredicted: true,
                target: 0x80,
            })
            .finish();
        assert!(b.is_mispredicted_branch());
        let nb = Inst::build(OpClass::Branch)
            .branch(BranchInfo {
                taken: false,
                mispredicted: false,
                target: 0x80,
            })
            .finish();
        assert!(!nb.is_mispredicted_branch());
    }
}
