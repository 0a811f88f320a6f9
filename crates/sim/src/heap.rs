//! The host-side guest heap every engine's native host shares.
//!
//! All three engines lay out their simulated heap the same way: a bump
//! allocator over [`HEAP_BASE`]`..`[`HEAP_LIMIT`] (GC is disabled, as in
//! the paper's runs), tables whose dense array part lives in simulated
//! memory behind a 32-byte [`header`], a hash part kept host-side, and
//! interned strings referred to by id. They differ only in the array
//! slot: `luart` stores 16-byte tag-value pairs, `jsrt` and `wasmrt`
//! 8-byte words. [`Heap`] implements the shared part once, generic over a
//! [`SlotCodec`].
//!
//! Every size the guest controls — an allocation hint, or a capacity or
//! length read back from a header it may have overwritten — goes through
//! checked arithmetic, so a hostile value ends in the "heap exhausted"
//! [`HostError`] rather than a host panic or a wrapped size.

use crate::layout::header;
use crate::layout::map::{HEAP_BASE, HEAP_LIMIT};
use crate::native::{Cost, HostError};
use std::collections::HashMap;
use std::fmt;
use tarch_core::Cpu;

/// String interning in first-use order; the index is the string id used
/// in value payloads. Code generators intern constants; hosts continue
/// from the image's list with the strings built at run time.
#[derive(Debug, Clone, Default)]
pub struct Interner {
    strings: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Interner {
    /// An interner continuing from `strings` (ids are their indices).
    pub fn new(strings: Vec<String>) -> Interner {
        let ids = strings.iter().enumerate().map(|(i, s)| (s.clone(), i as u32)).collect();
        Interner { strings, ids }
    }

    /// The id of `s`, interning it on first use.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(id) = self.ids.get(s) {
            return *id;
        }
        let id = self.strings.len() as u32;
        self.strings.push(s.to_string());
        self.ids.insert(s.to_string(), id);
        id
    }

    /// The string with id `id`.
    pub fn get(&self, id: u32) -> Option<&str> {
        self.strings.get(id as usize).map(String::as_str)
    }

    /// The interned strings, in id order.
    pub fn into_strings(self) -> Vec<String> {
        self.strings
    }
}

/// Hash-part key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HKey {
    /// Integer key (also integral floats).
    Int(i64),
    /// Interned string id.
    Str(u32),
}

/// How one engine stores a value in an array-part slot.
pub trait SlotCodec {
    /// A slot's value as the host holds it.
    type Value: Copy + fmt::Debug;
    /// Slot size in bytes.
    const SIZE: u64;
    /// The value an absent key reads as.
    const NIL: Self::Value;
    /// Whether storing `v` removes the key.
    fn is_nil(v: Self::Value) -> bool;
    /// Reads the slot at `addr`.
    fn load(cpu: &Cpu, addr: u64) -> Self::Value;
    /// Writes the slot at `addr`.
    fn store(cpu: &mut Cpu, addr: u64, v: Self::Value);
}

/// An 8-byte word slot whose empty value is `NIL` (`jsrt`'s undefined,
/// `wasmrt`'s nil sentinel).
#[derive(Debug, Clone, Copy)]
pub struct Word<const NIL: u64>;

impl<const NIL: u64> SlotCodec for Word<NIL> {
    type Value = u64;
    const SIZE: u64 = 8;
    const NIL: u64 = NIL;

    fn is_nil(v: u64) -> bool {
        v == NIL
    }

    fn load(cpu: &Cpu, addr: u64) -> u64 {
        cpu.mem().read_u64(addr)
    }

    fn store(cpu: &mut Cpu, addr: u64, v: u64) {
        cpu.host_store_u64(addr, v);
    }
}

/// The guest heap: strings, the bump allocator, printed output, and
/// tables (array part in simulated memory, hash part host-side).
#[derive(Debug, Clone)]
pub struct Heap<C: SlotCodec> {
    strings: Interner,
    hash_parts: Vec<HashMap<HKey, C::Value>>,
    output: String,
    top: u64,
}

fn exhausted() -> HostError {
    HostError::new(0, "heap exhausted (GC is disabled)")
}

fn corrupt() -> HostError {
    HostError::new(0, "corrupt table header")
}

fn field(cpu: &Cpu, hdr: u64, offset: i32) -> u64 {
    cpu.mem().read_u64(hdr.wrapping_add(offset as u64))
}

fn set_field(cpu: &mut Cpu, hdr: u64, offset: i32, v: u64) {
    cpu.host_store_u64(hdr.wrapping_add(offset as u64), v);
}

impl<C: SlotCodec> Heap<C> {
    /// An empty heap whose string table starts from the image's strings.
    pub fn new(strings: Vec<String>) -> Heap<C> {
        Heap {
            strings: Interner::new(strings),
            hash_parts: Vec::new(),
            output: String::new(),
            top: HEAP_BASE,
        }
    }

    /// The id of `s`, interning it on first use.
    pub fn intern(&mut self, s: &str) -> u32 {
        self.strings.intern(s)
    }

    /// The string with id `id`.
    ///
    /// # Errors
    ///
    /// A [`HostError`] for an id nothing was interned under.
    pub fn string(&self, id: u32) -> Result<&str, HostError> {
        self.strings.get(id).ok_or_else(|| HostError::new(0, format!("bad string id {id}")))
    }

    /// Everything the program printed.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// Appends printed text.
    pub fn print(&mut self, s: &str) {
        self.output.push_str(s);
    }

    /// Bump-allocates `bytes`, 16-byte aligned.
    fn alloc(&mut self, bytes: u64) -> Result<u64, HostError> {
        let addr = (self.top + 15) & !15;
        let end = addr.checked_add(bytes).filter(|end| *end <= HEAP_LIMIT).ok_or_else(exhausted)?;
        self.top = end;
        Ok(addr)
    }

    /// Bytes of `slots` array slots, if that fits in a `u64`.
    fn slot_bytes(slots: u64) -> Result<u64, HostError> {
        slots.checked_mul(C::SIZE).ok_or_else(exhausted)
    }

    /// Allocates a table with room for `capacity` array elements right
    /// after its header, and an empty hash part; returns the header
    /// address.
    ///
    /// # Errors
    ///
    /// "heap exhausted" when the table does not fit.
    pub fn new_table(&mut self, cpu: &mut Cpu, capacity: u64) -> Result<u64, HostError> {
        let bytes = Self::slot_bytes(capacity)?.checked_add(header::SIZE).ok_or_else(exhausted)?;
        let hdr = self.alloc(bytes)?;
        set_field(cpu, hdr, header::PTR, hdr + header::SIZE);
        set_field(cpu, hdr, header::CAP, capacity);
        set_field(cpu, hdr, header::LEN, 0);
        set_field(cpu, hdr, header::HASH_ID, self.hash_parts.len() as u64);
        self.hash_parts.push(HashMap::new());
        Ok(hdr)
    }

    /// The array-part length (`#t` border) of the table at `hdr`.
    pub fn array_len(cpu: &Cpu, hdr: u64) -> u64 {
        field(cpu, hdr, header::LEN)
    }

    /// Address of array slot `index` (0-based).
    fn slot(cpu: &Cpu, hdr: u64, index: u64) -> u64 {
        field(cpu, hdr, header::PTR).wrapping_add(index.wrapping_mul(C::SIZE))
    }

    /// Reads `t[key]`.
    ///
    /// # Errors
    ///
    /// A corrupt header (hash-part id out of range).
    pub fn get(&self, cpu: &Cpu, hdr: u64, key: HKey) -> Result<C::Value, HostError> {
        if let HKey::Int(i) = key {
            let len = Self::array_len(cpu, hdr) as i64;
            if i >= 1 && i <= len {
                return Ok(C::load(cpu, Self::slot(cpu, hdr, i as u64 - 1)));
            }
        }
        let part = self.hash_parts.get(field(cpu, hdr, header::HASH_ID) as usize);
        Ok(part.ok_or_else(corrupt)?.get(&key).copied().unwrap_or(C::NIL))
    }

    /// Writes `t[key] = value`; an append to the array part may grow it
    /// and absorb the integer keys that follow from the hash part. Returns
    /// the cost of that growth and absorption.
    ///
    /// # Errors
    ///
    /// A corrupt header, or "heap exhausted" when growth does not fit.
    pub fn set(
        &mut self,
        cpu: &mut Cpu,
        hdr: u64,
        key: HKey,
        value: C::Value,
    ) -> Result<Cost, HostError> {
        let mut extra = Cost::default();
        if let HKey::Int(i) = key {
            let len = Self::array_len(cpu, hdr) as i64;
            let cap = field(cpu, hdr, header::CAP) as i64;
            if i >= 1 && i <= len {
                C::store(cpu, Self::slot(cpu, hdr, i as u64 - 1), value);
                return Ok(extra);
            }
            if i == len.wrapping_add(1) {
                if len == cap {
                    extra = extra.plus(self.grow(cpu, hdr)?);
                }
                C::store(cpu, Self::slot(cpu, hdr, len as u64), value);
                set_field(cpu, hdr, header::LEN, (len as u64).wrapping_add(1));
                extra = extra.plus(self.absorb(cpu, hdr)?);
                return Ok(extra);
            }
        }
        let part = self.hash_parts.get_mut(field(cpu, hdr, header::HASH_ID) as usize);
        let part = part.ok_or_else(corrupt)?;
        if C::is_nil(value) {
            part.remove(&key);
        } else {
            part.insert(key, value);
        }
        Ok(extra)
    }

    /// Doubles the array part (growth charged per element moved).
    fn grow(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let cap = field(cpu, hdr, header::CAP);
        let len = Self::array_len(cpu, hdr);
        let new_cap = cap.checked_mul(2).ok_or_else(exhausted)?.max(4);
        let new_arr = self.alloc(Self::slot_bytes(new_cap)?)?;
        let old_arr = field(cpu, hdr, header::PTR);
        for i in 0..len {
            let v = C::load(cpu, old_arr.wrapping_add(i * C::SIZE));
            C::store(cpu, new_arr + i * C::SIZE, v);
        }
        set_field(cpu, hdr, header::PTR, new_arr);
        set_field(cpu, hdr, header::CAP, new_cap);
        Ok(Cost::affine(50, 3, len))
    }

    /// After an append, absorbs consecutive integer keys queued in the hash
    /// part (keeps the `#t` border semantics of the reference `Table`).
    fn absorb(&mut self, cpu: &mut Cpu, hdr: u64) -> Result<Cost, HostError> {
        let id = field(cpu, hdr, header::HASH_ID) as usize;
        let mut moved = 0;
        loop {
            let len = Self::array_len(cpu, hdr);
            let Some(part) = self.hash_parts.get_mut(id) else { break };
            let Some(v) = part.remove(&HKey::Int((len as i64).wrapping_add(1))) else { break };
            if len == field(cpu, hdr, header::CAP) {
                self.grow(cpu, hdr)?;
            }
            C::store(cpu, Self::slot(cpu, hdr, len), v);
            set_field(cpu, hdr, header::LEN, len.wrapping_add(1));
            moved += 1;
        }
        Ok(Cost::affine(0, 8, moved))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tarch_core::CoreConfig;

    type WordHeap = Heap<Word<0>>;

    fn cpu() -> Cpu {
        Cpu::new(CoreConfig::paper())
    }

    #[test]
    fn interner_dedups_and_continues_from_the_image() {
        let mut i = Interner::new(vec!["a".into(), "b".into()]);
        assert_eq!(i.intern("b"), 1);
        assert_eq!(i.intern("c"), 2);
        assert_eq!(i.intern("c"), 2);
        assert_eq!(i.get(2), Some("c"));
        assert_eq!(i.into_strings(), ["a", "b", "c"]);
    }

    #[test]
    fn appends_grow_the_array_part_and_absorb_queued_keys() {
        let mut cpu = cpu();
        let mut heap = WordHeap::new(Vec::new());
        let t = heap.new_table(&mut cpu, 0).unwrap();
        heap.set(&mut cpu, t, HKey::Int(2), 20).unwrap();
        assert_eq!(WordHeap::array_len(&cpu, t), 0);
        let cost = heap.set(&mut cpu, t, HKey::Int(1), 10).unwrap();
        assert_eq!(WordHeap::array_len(&cpu, t), 2);
        assert_eq!(cost, Cost::affine(50, 3, 0).plus(Cost::affine(0, 8, 1)));
        assert_eq!(heap.get(&cpu, t, HKey::Int(2)).unwrap(), 20);
        assert_eq!(heap.get(&cpu, t, HKey::Int(3)).unwrap(), 0);
        heap.set(&mut cpu, t, HKey::Str(7), 5).unwrap();
        heap.set(&mut cpu, t, HKey::Str(7), 0).unwrap();
        assert_eq!(heap.get(&cpu, t, HKey::Str(7)).unwrap(), 0);
    }

    #[test]
    fn guest_sized_allocations_fail_instead_of_wrapping() {
        let mut cpu = cpu();
        let mut heap = WordHeap::new(Vec::new());
        for hint in [1 << 61, u64::MAX, (HEAP_LIMIT - HEAP_BASE) / 8] {
            let err = heap.new_table(&mut cpu, hint).unwrap_err();
            assert!(err.message.contains("heap exhausted"), "{hint:#x}: {err}");
        }
        // A header the guest rewrote to claim a huge, full array part.
        let t = heap.new_table(&mut cpu, 4).unwrap();
        for cap in [1 << 62, 1 << 63, u64::MAX] {
            cpu.host_store_u64(t + header::CAP as u64, cap);
            cpu.host_store_u64(t + header::LEN as u64, cap);
            let err = heap.set(&mut cpu, t, HKey::Int(cap as i64 + 1), 1).unwrap_err();
            assert!(err.message.contains("heap exhausted"), "{cap:#x}: {err}");
        }
    }
}
