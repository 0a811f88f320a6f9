//! The `wasmrt` native host: runtime services behind `ecall`.
//!
//! Same contract and cost philosophy as the `luart`/`jsrt` hosts (costs are
//! identical across ISA levels), over **raw untagged words**. The host
//! never inspects a value to learn its type — it can't, there are no tags.
//! Every call site instead compiles in the static type information the
//! host needs: element accesses pass the key kind in `a2`, concatenation
//! and builtin calls pass packed per-argument [`TyCode`]s.
//!
//! Strings are interned with content deduplication, so two equal strings —
//! even ones built at run time by `str.concat` — always share an id. The
//! guest compares strings with a raw `i64.eq` on ids; dedup is what makes
//! that sound (k-nucleotide's string-keyed counting relies on it).

use crate::bytecode::{Builtin, TyCode};
use crate::helpers_mod as helpers;
use crate::layout::NIL;
use miniscript::{format_float, string_sub};
use tarch_core::{canonical_f64_bits, Cpu};
use tarch_isa::Reg;
use tarch_sim::heap::{HKey, Heap, Word};
use tarch_sim::{Cost, HostError, NativeHost};

/// The native host for the `wasmrt` engine.
#[derive(Debug, Clone)]
pub struct WasmHost {
    heap: WasmHeap,
}

/// Array slots are untagged words; absent elements read as [`NIL`].
type WasmHeap = Heap<Word<NIL>>;

impl WasmHost {
    /// Creates a host pre-loaded with the image's interned strings.
    pub fn new(strings: Vec<String>) -> WasmHost {
        WasmHost { heap: Heap::new(strings) }
    }

    /// Everything the program printed.
    pub fn output(&self) -> &str {
        self.heap.output()
    }

    /// Renders a raw word under its static type code.
    fn format(&self, code: TyCode, raw: u64) -> Result<String, HostError> {
        if raw == NIL && code != TyCode::F64 {
            return Ok("nil".to_string());
        }
        Ok(match code {
            TyCode::Int => (raw as i64).to_string(),
            TyCode::F64 => format_float(f64::from_bits(raw)),
            TyCode::Str => self.heap.string(raw as u32)?.to_string(),
            TyCode::Bool => if raw & 1 != 0 { "true" } else { "false" }.to_string(),
            TyCode::Ref => "table".to_string(),
        })
    }

    fn code_at(codes: u64, i: usize) -> Result<TyCode, HostError> {
        // Sixteen 4-bit codes fit in the register; an argument past them
        // (a guest-supplied count) has none.
        let code = u32::try_from(4 * i).ok().and_then(|shift| codes.checked_shr(shift));
        code.and_then(|c| TyCode::from_code((c & 0xf) as u8))
            .ok_or_else(|| HostError::new(0, "bad type code"))
    }

    fn read(cpu: &Cpu, addr: u64) -> u64 {
        cpu.mem().read_u64(addr)
    }

    fn write(cpu: &mut Cpu, addr: u64, v: u64) {
        cpu.host_store_u64(addr, v);
    }

    // --- table services --------------------------------------------------

    fn hkey(kind: u64, raw: u64) -> Result<HKey, HostError> {
        match kind {
            helpers::keykind::INT => Ok(HKey::Int(raw as i64)),
            helpers::keykind::STR => Ok(HKey::Str(raw as u32)),
            other => Err(HostError::new(0, format!("bad key kind {other}"))),
        }
    }

    // --- services --------------------------------------------------------

    fn helper_elem_get(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let kind = cpu.regs().read(Reg::A2).v;
        let hdr = Self::read(cpu, base);
        let key = Self::hkey(kind, Self::read(cpu, base + 8))?;
        let cost = match &key {
            HKey::Str(id) => Cost::affine(50, 6, self.heap.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(60),
        };
        let v = self.heap.get(cpu, hdr, key)?;
        Self::write(cpu, base, v);
        Ok(cost)
    }

    fn helper_elem_set(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let kind = cpu.regs().read(Reg::A2).v;
        let hdr = Self::read(cpu, base);
        let key = Self::hkey(kind, Self::read(cpu, base + 8))?;
        let value = Self::read(cpu, base + 16);
        let cost = match &key {
            HKey::Str(id) => Cost::affine(70, 6, self.heap.string(*id)?.len() as u64),
            HKey::Int(_) => Cost::fixed(80),
        };
        let extra = self.heap.set(cpu, hdr, key, value)?;
        Ok(cost.plus(extra))
    }

    fn helper_concat(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let codes = cpu.regs().read(Reg::A2).v;
        let rhs_code = Self::code_at(codes, 0)?;
        let lhs_code = Self::code_at(codes, 1)?;
        let lhs = self.format(lhs_code, Self::read(cpu, base))?;
        let rhs = self.format(rhs_code, Self::read(cpu, base + 8))?;
        let s = format!("{lhs}{rhs}");
        let bytes = s.len() as u64;
        let id = self.heap.intern(&s);
        Self::write(cpu, base, id as u64);
        Ok(Cost::affine(60, 2, bytes))
    }

    fn helper_strlen(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let addr = cpu.regs().read(Reg::A1).v;
        let id = Self::read(cpu, addr) as u32;
        let len = self.heap.string(id)?.len() as u64;
        Self::write(cpu, addr, len);
        Ok(Cost::fixed(15))
    }

    fn helper_builtin(&mut self, cpu: &mut Cpu) -> Result<Cost, HostError> {
        let base = cpu.regs().read(Reg::A1).v;
        let id = cpu.regs().read(Reg::A2).v;
        let nargs = cpu.regs().read(Reg::A3).v;
        let codes = cpu.regs().read(Reg::A4).v;
        let builtin = Builtin::from_code(id as u16)
            .ok_or_else(|| HostError::new(helpers::BUILTIN, format!("bad builtin id {id}")))?;
        let err = |m: String| HostError::new(helpers::BUILTIN, m);

        let args: Vec<u64> = tarch_sim::arg_slots(helpers::BUILTIN, base, nargs, 8)?
            .map(|addr| Self::read(cpu, addr))
            .collect();
        let nargs = args.len();
        let arg = |i: usize| args.get(i).copied().unwrap_or(NIL);
        let code = |i: usize| Self::code_at(codes, i);
        // Numeric view of an argument under its static code.
        let as_f64 = |i: usize| -> Result<f64, HostError> {
            Ok(match code(i)? {
                TyCode::F64 => f64::from_bits(arg(i)),
                _ => arg(i) as i64 as f64,
            })
        };

        let mut cost;
        let result: u64 = match builtin {
            Builtin::Print | Builtin::Write => {
                let mut line = String::new();
                for i in 0..nargs {
                    if builtin == Builtin::Print && i > 0 {
                        line.push('\t');
                    }
                    line.push_str(&self.format(code(i)?, arg(i))?);
                }
                if builtin == Builtin::Print {
                    line.push('\n');
                }
                cost = Cost::affine(60, 3, line.len() as u64)
                    .plus(Cost::affine(0, 25, nargs as u64));
                self.heap.print(&line);
                NIL
            }
            Builtin::Clock => {
                cost = Cost::fixed(20);
                0.0f64.to_bits()
            }
            Builtin::Floor => {
                cost = Cost::fixed(15);
                match code(0)? {
                    TyCode::F64 => f64::from_bits(arg(0)).floor() as i64 as u64,
                    _ => arg(0),
                }
            }
            Builtin::Sqrt => {
                cost = Cost::fixed(25);
                canonical_f64_bits(as_f64(0)?.sqrt())
            }
            Builtin::Abs => {
                cost = Cost::fixed(15);
                match code(0)? {
                    TyCode::F64 => canonical_f64_bits(f64::from_bits(arg(0)).abs()),
                    _ => (arg(0) as i64).wrapping_abs() as u64,
                }
            }
            Builtin::Min | Builtin::Max => {
                // Compare as floats, return the original word (reference
                // semantics; the compiler has already unified the classes).
                cost = Cost::fixed(15);
                let (fa, fb) = (as_f64(0)?, as_f64(1)?);
                let take_a = if builtin == Builtin::Min { fa <= fb } else { fa >= fb };
                if take_a {
                    arg(0)
                } else {
                    arg(1)
                }
            }
            Builtin::Sub => {
                let s = self.heap.string(arg(0) as u32)?.to_string();
                let i = arg(1) as i64;
                let j = if nargs > 2 { arg(2) as i64 } else { -1 };
                let out = string_sub(&s, i, j);
                cost = Cost::affine(40, 2, out.len() as u64);
                self.heap.intern(&out) as u64
            }
            Builtin::Len => {
                cost = Cost::fixed(15);
                match code(0)? {
                    TyCode::Str => self.heap.string(arg(0) as u32)?.len() as u64,
                    _ => WasmHeap::array_len(cpu, arg(0)),
                }
            }
            Builtin::Char => {
                cost = Cost::fixed(20);
                let v = arg(0) as i64;
                let b = u8::try_from(v).map_err(|_| err(format!("char: {v} out of range")))?;
                self.heap.intern(&(b as char).to_string()) as u64
            }
            Builtin::Byte => {
                cost = Cost::fixed(20);
                let i = if nargs > 1 { arg(1) as i64 } else { 1 };
                let s = self.heap.string(arg(0) as u32)?;
                match s.as_bytes().get((i - 1).max(0) as usize) {
                    Some(b) if i >= 1 => *b as u64,
                    _ => NIL,
                }
            }
            Builtin::Insert => {
                cost = Cost::fixed(30);
                let hdr = arg(0);
                let len = WasmHeap::array_len(cpu, hdr) as i64;
                let extra = self.heap.set(cpu, hdr, HKey::Int(len + 1), arg(1))?;
                cost = cost.plus(extra);
                NIL
            }
            Builtin::Tostring => {
                let s = self.format(code(0)?, arg(0))?;
                cost = Cost::affine(60, 2, s.len() as u64);
                self.heap.intern(&s) as u64
            }
        };
        Self::write(cpu, base, result);
        Ok(cost)
    }
}

impl NativeHost for WasmHost {
    fn ecall(&mut self, cpu: &mut Cpu) -> Result<(), HostError> {
        let id = cpu.regs().read(Reg::A7).v;
        let cost = match id {
            helpers::ELEM_GET => self.helper_elem_get(cpu)?,
            helpers::ELEM_SET => self.helper_elem_set(cpu)?,
            helpers::NEWARR => {
                let dst = cpu.regs().read(Reg::A1).v;
                let hint = cpu.regs().read(Reg::A2).v;
                let hdr = self.heap.new_table(cpu, hint)?;
                Self::write(cpu, dst, hdr);
                Cost::affine(60, 1, hint)
            }
            helpers::CONCAT => self.helper_concat(cpu)?,
            helpers::BUILTIN => self.helper_builtin(cpu)?,
            helpers::STRLEN => self.helper_strlen(cpu)?,
            helpers::ERROR => {
                return Err(HostError::runtime(helpers::ERROR, cpu.regs().read(Reg::A0).v))
            }
            other => return Err(HostError::new(other, "unknown helper id")),
        };
        cost.charge(cpu);
        Ok(())
    }
}
