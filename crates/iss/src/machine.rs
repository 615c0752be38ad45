//! The cycle-accurate interpreter.

use std::cell::Cell;
use std::fmt;

use crate::cache::{Cache, CacheConfig};
use crate::isa::{Instr, Program, Reg};

/// Per-class instruction latencies, in cycles.
///
/// The defaults model a scalar in-order RISC of the OpenRISC class: single-
/// cycle ALU, 3-cycle multiply, iterative 33-cycle divide, 2-cycle loads,
/// a taken-branch penalty, and 2-cycle jumps/calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleModel {
    /// Simple ALU operations (add, logic, shifts, compares).
    pub alu: u64,
    /// Multiply.
    pub mul: u64,
    /// Divide / remainder.
    pub div: u64,
    /// Loads (cache hit).
    pub load: u64,
    /// Stores (cache hit).
    pub store: u64,
    /// Conditional branch, not taken.
    pub branch: u64,
    /// Extra cycles when a branch is taken (pipeline refill).
    pub branch_taken_extra: u64,
    /// Unconditional jumps, calls and returns.
    pub jump: u64,
    /// Extra cycles for materializing a wide immediate (outside ±32 KiB).
    pub wide_imm_extra: u64,
}

impl Default for CycleModel {
    fn default() -> CycleModel {
        CycleModel {
            alu: 1,
            mul: 3,
            div: 33,
            load: 2,
            store: 2,
            branch: 1,
            branch_taken_extra: 2,
            jump: 2,
            wide_imm_extra: 1,
        }
    }
}

/// Errors raised by program execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IssError {
    /// Division or remainder by zero at the given instruction index.
    DivideByZero {
        /// Instruction index.
        pc: u32,
    },
    /// A memory access fell outside the configured memory.
    MemoryFault {
        /// Instruction index.
        pc: u32,
        /// Faulting byte address.
        addr: u32,
    },
    /// The program counter left the code region without `Halt`.
    PcOutOfRange {
        /// The invalid program counter.
        pc: u32,
    },
    /// The step limit was exceeded (runaway program).
    StepLimit {
        /// The limit that was hit.
        limit: u64,
    },
}

impl fmt::Display for IssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IssError::DivideByZero { pc } => write!(f, "divide by zero at pc {pc}"),
            IssError::MemoryFault { pc, addr } => {
                write!(f, "memory fault at pc {pc}, address {addr:#x}")
            }
            IssError::PcOutOfRange { pc } => write!(f, "pc {pc} out of range"),
            IssError::StepLimit { limit } => write!(f, "step limit {limit} exceeded"),
        }
    }
}

impl std::error::Error for IssError {}

/// Execution statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total cycles, including cache penalties.
    pub cycles: u64,
    /// Instructions retired.
    pub instructions: u64,
    /// Taken branches.
    pub branches_taken: u64,
    /// Instruction-cache misses (0 when the cache is disabled).
    pub icache_misses: u64,
    /// Data-cache misses (0 when the cache is disabled).
    pub dcache_misses: u64,
}

impl RunStats {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.cycles as f64 / self.instructions as f64
        }
    }
}

/// The reference processor: registers, memory, caches and the cycle model.
///
/// # Examples
///
/// ```
/// use scperf_iss::{Instr, Machine, Program, Reg};
///
/// let program = Program {
///     code: vec![
///         Instr::Li(Reg::ACC, 6),
///         Instr::Li(Reg::TMP, 7),
///         Instr::Mul(Reg::ACC, Reg::ACC, Reg::TMP),
///         Instr::Halt,
///     ],
///     data: vec![],
/// };
/// let mut m = Machine::new(64 * 1024);
/// m.load(&program);
/// let stats = m.run(1_000)?;
/// assert_eq!(m.reg(Reg::ACC), 42);
/// assert!(stats.cycles >= stats.instructions);
/// # Ok::<(), scperf_iss::IssError>(())
/// ```
#[derive(Debug)]
pub struct Machine {
    regs: [i32; 32],
    mem: Vec<u8>,
    /// End of the written part of `mem`'s lower half: bytes below it may
    /// be non-zero (the data segment).
    lo_dirty: usize,
    /// Start of the written part of `mem`'s upper half: bytes from it up
    /// may be non-zero (the stack). Everything between the two is still
    /// zero, so a dropped machine re-zeroes only the written ends before
    /// its image is reused.
    hi_dirty: usize,
    code: Vec<Instr>,
    pc: u32,
    model: CycleModel,
    icache: Option<Cache>,
    dcache: Option<Cache>,
    halted: bool,
}

thread_local! {
    /// The zeroed memory image of the last machine dropped on this thread,
    /// reused by the next [`Machine::new`] of the same size. Harnesses
    /// create one multi-megabyte machine per run; without reuse each run
    /// frees and re-allocates the image, and where the allocator places
    /// the next one — beside the old one or in a fresh region — varies
    /// from run to run, and so does the process's resident memory.
    static SPARE_MEM: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// `len` zeroed bytes, from this thread's spare image when it fits.
fn zeroed_mem(len: usize) -> Vec<u8> {
    let mem = SPARE_MEM.with(Cell::take);
    if mem.len() == len {
        mem
    } else {
        vec![0; len]
    }
}

impl Machine {
    /// Creates a machine with `mem_bytes` of zeroed memory and the default
    /// cycle model, caches disabled. The stack pointer starts at the top of
    /// memory.
    pub fn new(mem_bytes: usize) -> Machine {
        let mut m = Machine {
            regs: [0; 32],
            mem: zeroed_mem(mem_bytes),
            lo_dirty: 0,
            hi_dirty: mem_bytes,
            code: Vec::new(),
            pc: 0,
            model: CycleModel::default(),
            icache: None,
            dcache: None,
            halted: false,
        };
        m.regs[Reg::SP.0 as usize] = mem_bytes as i32;
        m
    }

    /// Replaces the cycle model.
    pub fn set_cycle_model(&mut self, model: CycleModel) {
        self.model = model;
    }

    /// Enables the instruction cache.
    pub fn enable_icache(&mut self, cfg: CacheConfig) {
        self.icache = Some(Cache::new(cfg));
    }

    /// Enables the data cache.
    pub fn enable_dcache(&mut self, cfg: CacheConfig) {
        self.dcache = Some(Cache::new(cfg));
    }

    /// Loads a program: installs the code and copies the data segments.
    ///
    /// # Panics
    ///
    /// Panics if a data segment exceeds the memory size.
    pub fn load(&mut self, program: &Program) {
        self.code = program.code.clone();
        for (addr, bytes) in &program.data {
            let a = *addr as usize;
            self.mem[a..a + bytes.len()].copy_from_slice(bytes);
            self.touch(a, bytes.len());
        }
        self.pc = 0;
        self.halted = false;
    }

    /// Reads a register.
    pub fn reg(&self, r: Reg) -> i32 {
        self.regs[r.0 as usize]
    }

    /// Writes a register (`r0` writes are ignored).
    pub fn set_reg(&mut self, r: Reg, v: i32) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }

    /// Reads a 32-bit little-endian word from memory.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn read_word(&self, addr: u32) -> i32 {
        let a = addr as usize;
        i32::from_le_bytes(self.mem[a..a + 4].try_into().expect("4 bytes"))
    }

    /// Writes a 32-bit little-endian word to memory.
    ///
    /// # Panics
    ///
    /// Panics if the address is out of range.
    pub fn write_word(&mut self, addr: u32, v: i32) {
        let a = addr as usize;
        self.mem[a..a + 4].copy_from_slice(&v.to_le_bytes());
        self.touch(a, 4);
    }

    /// Records a write of `len` bytes at `addr` in the dirty extents.
    #[inline]
    fn touch(&mut self, addr: usize, len: usize) {
        if addr < self.mem.len() / 2 {
            self.lo_dirty = self.lo_dirty.max(addr + len);
        } else {
            self.hi_dirty = self.hi_dirty.min(addr);
        }
    }

    /// Reads `len` bytes of memory.
    pub fn read_bytes(&self, addr: u32, len: usize) -> &[u8] {
        &self.mem[addr as usize..addr as usize + len]
    }

    /// Runs until `Halt` or until `max_steps` instructions retire.
    ///
    /// # Errors
    ///
    /// Returns an [`IssError`] on divide-by-zero, memory faults, a wild
    /// program counter, or when the step limit is exceeded.
    pub fn run(&mut self, max_steps: u64) -> Result<RunStats, IssError> {
        let mut stats = RunStats::default();
        while !self.halted {
            if stats.instructions >= max_steps {
                return Err(IssError::StepLimit { limit: max_steps });
            }
            self.step(&mut stats)?;
        }
        if let Some(c) = &self.icache {
            stats.icache_misses = c.misses();
        }
        if let Some(c) = &self.dcache {
            stats.dcache_misses = c.misses();
        }
        Ok(stats)
    }

    fn mem_check(&self, pc: u32, addr: i64, len: i64) -> Result<u32, IssError> {
        if addr < 0 || (addr + len) as usize > self.mem.len() {
            Err(IssError::MemoryFault {
                pc,
                addr: addr as u32,
            })
        } else {
            Ok(addr as u32)
        }
    }

    #[inline]
    fn imm_cost(&self, imm: i32) -> u64 {
        if (-32768..=32767).contains(&imm) {
            0
        } else {
            self.model.wide_imm_extra
        }
    }

    /// Applies one instruction's architectural effect and charges the
    /// per-instruction cost model into `stats` (the functional timing
    /// model; the pipeline model reuses the effects and ignores the cost).
    pub(crate) fn step(&mut self, stats: &mut RunStats) -> Result<(), IssError> {
        let pc = self.pc;
        let Some(&ins) = self.code.get(pc as usize) else {
            return Err(IssError::PcOutOfRange { pc });
        };
        if let Some(ic) = &mut self.icache {
            stats.cycles += ic.access(pc * 4);
        }
        let m = self.model;
        let mut next = pc + 1;
        use Instr::*;
        let cost = match ins {
            Add(d, s, t) => {
                self.set_reg(d, self.reg(s).wrapping_add(self.reg(t)));
                m.alu
            }
            Sub(d, s, t) => {
                self.set_reg(d, self.reg(s).wrapping_sub(self.reg(t)));
                m.alu
            }
            Mul(d, s, t) => {
                self.set_reg(d, self.reg(s).wrapping_mul(self.reg(t)));
                m.mul
            }
            Div(d, s, t) => {
                let div = self.reg(t);
                if div == 0 {
                    return Err(IssError::DivideByZero { pc });
                }
                self.set_reg(d, self.reg(s).wrapping_div(div));
                m.div
            }
            Rem(d, s, t) => {
                let div = self.reg(t);
                if div == 0 {
                    return Err(IssError::DivideByZero { pc });
                }
                self.set_reg(d, self.reg(s).wrapping_rem(div));
                m.div
            }
            And(d, s, t) => {
                self.set_reg(d, self.reg(s) & self.reg(t));
                m.alu
            }
            Or(d, s, t) => {
                self.set_reg(d, self.reg(s) | self.reg(t));
                m.alu
            }
            Xor(d, s, t) => {
                self.set_reg(d, self.reg(s) ^ self.reg(t));
                m.alu
            }
            Sll(d, s, t) => {
                self.set_reg(d, self.reg(s).wrapping_shl(self.reg(t) as u32 & 31));
                m.alu
            }
            Srl(d, s, t) => {
                self.set_reg(
                    d,
                    ((self.reg(s) as u32) >> (self.reg(t) as u32 & 31)) as i32,
                );
                m.alu
            }
            Sra(d, s, t) => {
                self.set_reg(d, self.reg(s) >> (self.reg(t) as u32 & 31));
                m.alu
            }
            Slt(d, s, t) => {
                self.set_reg(d, (self.reg(s) < self.reg(t)) as i32);
                m.alu
            }
            Seq(d, s, t) => {
                self.set_reg(d, (self.reg(s) == self.reg(t)) as i32);
                m.alu
            }
            Addi(d, s, i) => {
                self.set_reg(d, self.reg(s).wrapping_add(i));
                m.alu + self.imm_cost(i)
            }
            Andi(d, s, i) => {
                self.set_reg(d, self.reg(s) & i);
                m.alu + self.imm_cost(i)
            }
            Ori(d, s, i) => {
                self.set_reg(d, self.reg(s) | i);
                m.alu + self.imm_cost(i)
            }
            Xori(d, s, i) => {
                self.set_reg(d, self.reg(s) ^ i);
                m.alu + self.imm_cost(i)
            }
            Slli(d, s, i) => {
                self.set_reg(d, self.reg(s).wrapping_shl(i as u32));
                m.alu
            }
            Srli(d, s, i) => {
                self.set_reg(d, ((self.reg(s) as u32) >> i) as i32);
                m.alu
            }
            Srai(d, s, i) => {
                self.set_reg(d, self.reg(s) >> i);
                m.alu
            }
            Slti(d, s, i) => {
                self.set_reg(d, (self.reg(s) < i) as i32);
                m.alu + self.imm_cost(i)
            }
            Li(d, i) => {
                self.set_reg(d, i);
                m.alu + self.imm_cost(i)
            }
            Lw(d, b, o) => {
                let addr = self.mem_check(pc, self.reg(b) as i64 + o as i64, 4)?;
                let v = self.read_word(addr);
                self.set_reg(d, v);
                let extra = self.dcache.as_mut().map_or(0, |c| c.access(addr));
                m.load + extra
            }
            Sw(t, b, o) => {
                let addr = self.mem_check(pc, self.reg(b) as i64 + o as i64, 4)?;
                self.write_word(addr, self.reg(t));
                let extra = self.dcache.as_mut().map_or(0, |c| c.access(addr));
                m.store + extra
            }
            Lb(d, b, o) => {
                let addr = self.mem_check(pc, self.reg(b) as i64 + o as i64, 1)?;
                let v = self.mem[addr as usize] as i8 as i32;
                self.set_reg(d, v);
                let extra = self.dcache.as_mut().map_or(0, |c| c.access(addr));
                m.load + extra
            }
            Lbu(d, b, o) => {
                let addr = self.mem_check(pc, self.reg(b) as i64 + o as i64, 1)?;
                let v = self.mem[addr as usize] as i32;
                self.set_reg(d, v);
                let extra = self.dcache.as_mut().map_or(0, |c| c.access(addr));
                m.load + extra
            }
            Sb(t, b, o) => {
                let addr = self.mem_check(pc, self.reg(b) as i64 + o as i64, 1)?;
                self.mem[addr as usize] = self.reg(t) as u8;
                self.touch(addr as usize, 1);
                let extra = self.dcache.as_mut().map_or(0, |c| c.access(addr));
                m.store + extra
            }
            Beq(s, t, l) => self.branch(self.reg(s) == self.reg(t), l, &mut next, stats),
            Bne(s, t, l) => self.branch(self.reg(s) != self.reg(t), l, &mut next, stats),
            Blt(s, t, l) => self.branch(self.reg(s) < self.reg(t), l, &mut next, stats),
            Bge(s, t, l) => self.branch(self.reg(s) >= self.reg(t), l, &mut next, stats),
            J(l) => {
                next = l.0;
                m.jump
            }
            Jal(l) => {
                self.set_reg(Reg::RA, (pc + 1) as i32);
                next = l.0;
                m.jump
            }
            Jalr(s) => {
                next = self.reg(s) as u32;
                m.jump
            }
            Halt => {
                self.halted = true;
                0
            }
        };
        stats.cycles += cost;
        stats.instructions += 1;
        self.pc = next;
        Ok(())
    }

    /// Current program counter (instruction index).
    pub(crate) fn pc(&self) -> u32 {
        self.pc
    }

    /// The instruction at `pc`, if in range.
    pub(crate) fn code_at(&self, pc: u32) -> Option<&Instr> {
        self.code.get(pc as usize)
    }

    /// The byte address a memory instruction will access with the current
    /// register values (timing model use; may be out of range — the
    /// functional step reports the fault).
    pub(crate) fn effective_address(&self, instr: &Instr) -> Option<u32> {
        use Instr::*;
        match *instr {
            Lw(_, b, o) | Sw(_, b, o) | Lb(_, b, o) | Lbu(_, b, o) | Sb(_, b, o) => {
                Some((self.reg(b) as i64 + o as i64) as u32)
            }
            _ => None,
        }
    }

    pub(crate) fn icache_mut(&mut self) -> &mut Option<crate::cache::Cache> {
        &mut self.icache
    }

    pub(crate) fn dcache_mut(&mut self) -> &mut Option<crate::cache::Cache> {
        &mut self.dcache
    }

    #[inline]
    fn branch(
        &self,
        taken: bool,
        l: crate::isa::Target,
        next: &mut u32,
        stats: &mut RunStats,
    ) -> u64 {
        if taken {
            *next = l.0;
            stats.branches_taken += 1;
            self.model.branch + self.model.branch_taken_extra
        } else {
            self.model.branch
        }
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        let mut mem = std::mem::take(&mut self.mem);
        let lo = self.lo_dirty.min(mem.len());
        mem[..lo].fill(0);
        mem[self.hi_dirty.max(lo)..].fill(0);
        // During thread teardown the slot may already be gone; the image
        // is then simply freed.
        let _ = SPARE_MEM.try_with(|spare| spare.set(mem));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Target;

    fn run_code(code: Vec<Instr>) -> (Machine, RunStats) {
        let mut m = Machine::new(4096);
        m.load(&Program { code, data: vec![] });
        let stats = m.run(100_000).expect("program runs");
        (m, stats)
    }

    #[test]
    fn a_reused_memory_image_starts_zeroed() {
        const LEN: usize = 8192;
        let mut m = Machine::new(LEN);
        m.load(&Program {
            code: vec![],
            data: vec![(16, vec![0xAB; 64])],
        });
        m.write_word(LEN as u32 / 2 - 2, -1); // straddles the midpoint
        m.write_word(LEN as u32 - 4, 7);
        drop(m);
        let m = Machine::new(LEN);
        assert!(m.read_bytes(0, LEN).iter().all(|&b| b == 0));
    }

    #[test]
    fn alu_semantics() {
        let (m, _) = run_code(vec![
            Instr::Li(Reg(10), 10),
            Instr::Li(Reg(11), 3),
            Instr::Add(Reg(12), Reg(10), Reg(11)),
            Instr::Sub(Reg(13), Reg(10), Reg(11)),
            Instr::Mul(Reg(14), Reg(10), Reg(11)),
            Instr::Div(Reg(15), Reg(10), Reg(11)),
            Instr::Rem(Reg(16), Reg(10), Reg(11)),
            Instr::Slt(Reg(17), Reg(11), Reg(10)),
            Instr::Seq(Reg(18), Reg(11), Reg(11)),
            Instr::Sll(Reg(19), Reg(10), Reg(11)),
            Instr::Sra(Reg(20), Reg(10), Reg(11)),
            Instr::Halt,
        ]);
        assert_eq!(m.reg(Reg(12)), 13);
        assert_eq!(m.reg(Reg(13)), 7);
        assert_eq!(m.reg(Reg(14)), 30);
        assert_eq!(m.reg(Reg(15)), 3);
        assert_eq!(m.reg(Reg(16)), 1);
        assert_eq!(m.reg(Reg(17)), 1);
        assert_eq!(m.reg(Reg(18)), 1);
        assert_eq!(m.reg(Reg(19)), 80);
        assert_eq!(m.reg(Reg(20)), 1);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let (m, _) = run_code(vec![Instr::Li(Reg::ZERO, 42), Instr::Halt]);
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn memory_round_trip_and_bytes() {
        let (m, _) = run_code(vec![
            Instr::Li(Reg(10), -123456),
            Instr::Sw(Reg(10), Reg::ZERO, 100),
            Instr::Lw(Reg(11), Reg::ZERO, 100),
            Instr::Li(Reg(12), 0x1ff),
            Instr::Sb(Reg(12), Reg::ZERO, 200),
            Instr::Lbu(Reg(13), Reg::ZERO, 200),
            Instr::Lb(Reg(14), Reg::ZERO, 200),
            Instr::Halt,
        ]);
        assert_eq!(m.reg(Reg(11)), -123456);
        assert_eq!(m.reg(Reg(13)), 0xff);
        assert_eq!(m.reg(Reg(14)), -1);
    }

    #[test]
    fn loop_and_branch_cycles() {
        // A 10-iteration count-down loop.
        let code = vec![
            Instr::Li(Reg(10), 10),
            Instr::Addi(Reg(10), Reg(10), -1), // 1:
            Instr::Bne(Reg(10), Reg::ZERO, Target(1)),
            Instr::Halt,
        ];
        let (m, stats) = run_code(code);
        assert_eq!(m.reg(Reg(10)), 0);
        assert_eq!(stats.branches_taken, 9);
        // li(1) + 10*(addi 1 + branch 1) + 9*taken_extra(2) = 39
        assert_eq!(stats.cycles, 1 + 10 * 2 + 9 * 2);
        assert_eq!(stats.instructions, 1 + 20 + 1); // + halt
        assert!(stats.cpi() > 1.0);
    }

    #[test]
    fn call_and_return() {
        // main: jal f; halt   f: li acc, 9; jalr ra
        let code = vec![
            Instr::Jal(Target(2)),
            Instr::Halt,
            Instr::Li(Reg::ACC, 9),
            Instr::Jalr(Reg::RA),
        ];
        let (m, _) = run_code(code);
        assert_eq!(m.reg(Reg::ACC), 9);
    }

    #[test]
    fn divide_by_zero_is_an_error() {
        let mut m = Machine::new(1024);
        m.load(&Program {
            code: vec![Instr::Div(Reg(10), Reg(10), Reg::ZERO), Instr::Halt],
            data: vec![],
        });
        assert_eq!(m.run(100), Err(IssError::DivideByZero { pc: 0 }));
    }

    #[test]
    fn memory_fault_detected() {
        let mut m = Machine::new(64);
        m.load(&Program {
            code: vec![Instr::Lw(Reg(10), Reg::ZERO, 1000), Instr::Halt],
            data: vec![],
        });
        assert!(matches!(m.run(100), Err(IssError::MemoryFault { .. })));
    }

    #[test]
    fn step_limit_detected() {
        let mut m = Machine::new(64);
        m.load(&Program {
            code: vec![Instr::J(Target(0))],
            data: vec![],
        });
        assert_eq!(m.run(50), Err(IssError::StepLimit { limit: 50 }));
    }

    #[test]
    fn pc_out_of_range_detected() {
        let mut m = Machine::new(64);
        m.load(&Program {
            code: vec![Instr::Addi(Reg(9), Reg::ZERO, 1)],
            data: vec![],
        });
        assert_eq!(m.run(100), Err(IssError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn wide_immediates_cost_extra() {
        let (_, narrow) = run_code(vec![Instr::Li(Reg(9), 100), Instr::Halt]);
        let (_, wide) = run_code(vec![Instr::Li(Reg(9), 1_000_000), Instr::Halt]);
        assert_eq!(wide.cycles, narrow.cycles + 1);
    }

    #[test]
    fn data_segments_are_loaded() {
        let mut m = Machine::new(1024);
        m.load(&Program {
            code: vec![Instr::Lw(Reg(9), Reg::ZERO, 512), Instr::Halt],
            data: vec![(512, 77_i32.to_le_bytes().to_vec())],
        });
        m.run(10).unwrap();
        assert_eq!(m.reg(Reg(9)), 77);
        assert_eq!(m.read_bytes(512, 4), 77_i32.to_le_bytes());
    }

    #[test]
    fn caches_add_miss_penalties() {
        let code = vec![
            Instr::Lw(Reg(9), Reg::ZERO, 0),
            Instr::Lw(Reg(9), Reg::ZERO, 0),
            Instr::Halt,
        ];
        let mut m = Machine::new(1024);
        m.enable_dcache(CacheConfig::small());
        m.enable_icache(CacheConfig::small());
        m.load(&Program {
            code: code.clone(),
            data: vec![],
        });
        let with_cache = m.run(100).unwrap();
        let mut m2 = Machine::new(1024);
        m2.load(&Program { code, data: vec![] });
        let without = m2.run(100).unwrap();
        // One dcache miss (second access hits) and one icache miss (both
        // instructions share a line, halt too).
        assert_eq!(with_cache.dcache_misses, 1);
        assert!(with_cache.icache_misses >= 1);
        assert!(with_cache.cycles > without.cycles);
    }
}
