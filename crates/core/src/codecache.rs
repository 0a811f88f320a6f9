//! Decoded blocks and tier-3 closures shared by every core that runs one
//! interpreter text (see [`CodeCache`]).

use crate::blocks::BlockOp;
use crate::codegen::CompiledBlock;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// What a block's ops and closure depend on besides its words: whether
/// adjacent pairs were fused, and `log2` of the I-cache line size folded
/// into compiled fetch charges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Shape {
    pub(crate) fuse: bool,
    pub(crate) line_shift: u32,
}

/// One published block: the words it was decoded from, its run, and the
/// compiled closure once a core has tiered it up.
#[derive(Debug)]
pub(crate) struct SharedBlock {
    pub(crate) words: Arc<[u32]>,
    pub(crate) ops: Arc<[BlockOp]>,
    compiled: OnceLock<Arc<CompiledBlock>>,
}

/// Traffic through one [`CodeCache`], summed over every core attached to
/// it (host-side only; no core's own statistics include any of it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeCacheStats {
    /// Blocks held (at most one per entry pc and code shape).
    pub blocks: u64,
    /// Bytes of words and ops the held blocks retain (closures excluded).
    pub decoded_bytes: u64,
    /// Block builds served by adopting a published block.
    pub adopted: u64,
    /// Blocks published by the first core to build them.
    pub published: u64,
    /// Published blocks a core refused because its words differed.
    pub rejected: u64,
    /// Tier-ups served by adopting a published closure.
    pub closures_adopted: u64,
    /// Closures published by the first core to tier their block up.
    pub closures_published: u64,
}

/// Decoded blocks and tier-3 closures shared by every core that runs one
/// interpreter text.
///
/// An engine assembles its interpreter once per ISA level and links only
/// the module's data per image, so every VM of one engine and level runs
/// the same text; only a few relocated entry words differ. Without a
/// shared cache each fresh core decodes, fuses and tier-compiles that
/// text's hot handlers again. A `CodeCache` lives next to the text's
/// assembled object and keeps, per block entry pc, the block's raw words,
/// its [`BlockOp`] run and (once some core tiered it up) its
/// [`CompiledBlock`]. A core attached to the cache
/// ([`Cpu::attach_code_cache`](crate::Cpu::attach_code_cache)) adopts
/// those instead of rebuilding them.
///
/// The rules that keep adoption invisible:
///
/// * **Word check before adoption.** A core adopts an entry only after
///   comparing the entry's words with its own memory. On a mismatch (a
///   relocated entry word, or self-modifying code) it builds the block
///   locally and publishes nothing. The first publisher of a pc wins, so
///   the cache holds at most one entry per pc and cannot grow past the
///   text.
/// * **Same code shape only.** Ops depend on fusion and closures on the
///   I-cache line size, so entries are kept in one table per shape (in
///   practice one per process) and a core reads only its own shape's.
///   Cores with a PGO profile or a pair profile build locally.
/// * **Per-core statistics do not depend on the cache.** Adopting a
///   block counts as a build, adopting a closure as a compile, and the
///   predecode table fills as if the words were decoded. Heat, chain
///   links and the tier-up point stay per core. The cache's own traffic
///   is counted in [`CodeCacheStats`].
pub struct CodeCache {
    text_base: u64,
    text_words: usize,
    /// One table per code shape, created by the first core of that shape.
    tables: Mutex<Vec<Arc<ShapeTable>>>,
}

impl CodeCache {
    /// An empty cache for a text of `text_words` words at `text_base`.
    pub fn new(text_base: u64, text_words: usize) -> CodeCache {
        CodeCache { text_base, text_words, tables: Mutex::new(Vec::new()) }
    }

    /// The cache's traffic so far and what it retains, over all shapes.
    pub fn stats(&self) -> CodeCacheStats {
        self.tables().iter().fold(CodeCacheStats::default(), |mut sum, t| {
            let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
            for slot in t.slots.iter() {
                if let Some(b) = slot.get() {
                    sum.blocks += 1;
                    sum.decoded_bytes += 4 * b.words.len() as u64
                        + (b.ops.len() * std::mem::size_of::<BlockOp>()) as u64;
                }
            }
            sum.adopted += load(&t.adopted);
            sum.published += load(&t.published);
            sum.rejected += load(&t.rejected);
            sum.closures_adopted += load(&t.closures_adopted);
            sum.closures_published += load(&t.closures_published);
            sum
        })
    }

    /// The table of `shape`, created on first use.
    pub(crate) fn table(&self, shape: Shape) -> Arc<ShapeTable> {
        let mut tables = self.tables();
        if let Some(t) = tables.iter().find(|t| t.shape == shape) {
            return Arc::clone(t);
        }
        let table = Arc::new(ShapeTable {
            shape,
            text_base: self.text_base,
            slots: (0..self.text_words).map(|_| OnceLock::new()).collect(),
            adopted: AtomicU64::new(0),
            published: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            closures_adopted: AtomicU64::new(0),
            closures_published: AtomicU64::new(0),
        });
        tables.push(Arc::clone(&table));
        table
    }

    /// The table list. Its only update is one push of a complete table,
    /// so a lock poisoned by a panicking holder still guards a valid list
    /// and is recovered.
    fn tables(&self) -> std::sync::MutexGuard<'_, Vec<Arc<ShapeTable>>> {
        self.tables.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A cache is equal only to itself: two images are equal when, among the
/// rest, they link the same text and so share its cache.
impl PartialEq for CodeCache {
    fn eq(&self, other: &CodeCache) -> bool {
        std::ptr::eq(self, other)
    }
}

impl Eq for CodeCache {}

impl fmt::Debug for CodeCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CodeCache")
            .field("text_base", &self.text_base)
            .field("text_words", &self.text_words)
            .field("stats", &self.stats())
            .finish()
    }
}

/// The entries of one [`CodeCache`] built in one [`Shape`]: a slot per
/// text word, filled by the first core to publish a block entered there,
/// and that shape's traffic counters.
pub(crate) struct ShapeTable {
    shape: Shape,
    text_base: u64,
    slots: Box<[OnceLock<Arc<SharedBlock>>]>,
    adopted: AtomicU64,
    published: AtomicU64,
    rejected: AtomicU64,
    closures_adopted: AtomicU64,
    closures_published: AtomicU64,
}

impl ShapeTable {
    fn slot(&self, pc: u64) -> Option<&OnceLock<Arc<SharedBlock>>> {
        let idx = usize::try_from(pc.wrapping_sub(self.text_base) >> 2).ok()?;
        self.slots.get(idx)
    }

    /// The block published at `pc`, if any.
    pub(crate) fn get(&self, pc: u64) -> Option<Arc<SharedBlock>> {
        self.slot(pc)?.get().cloned()
    }

    /// Counts an adoption (`true`) or a word-check rejection (`false`).
    pub(crate) fn note_adoption(&self, adopted: bool) {
        let n = if adopted { &self.adopted } else { &self.rejected };
        n.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes a block built locally at `pc`. Returns the new entry, or
    /// `None` when another core published `pc` first.
    pub(crate) fn publish(
        &self,
        pc: u64,
        words: Arc<[u32]>,
        ops: Arc<[BlockOp]>,
    ) -> Option<Arc<SharedBlock>> {
        let entry = Arc::new(SharedBlock { words, ops, compiled: OnceLock::new() });
        self.slot(pc)?.set(Arc::clone(&entry)).ok()?;
        self.published.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// The compiled closure of `entry`: the published one, or the one
    /// `emit` returns, published for the next core (first publisher
    /// wins; a racing loser takes the winner's, which is the same code).
    pub(crate) fn closure(
        &self,
        entry: &SharedBlock,
        emit: impl FnOnce() -> Option<Arc<CompiledBlock>>,
    ) -> Option<Arc<CompiledBlock>> {
        if let Some(code) = entry.compiled.get() {
            self.closures_adopted.fetch_add(1, Ordering::Relaxed);
            return Some(Arc::clone(code));
        }
        if entry.compiled.set(emit()?).is_ok() {
            self.closures_published.fetch_add(1, Ordering::Relaxed);
        }
        entry.compiled.get().cloned()
    }
}

impl fmt::Debug for ShapeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShapeTable").field("shape", &self.shape).finish_non_exhaustive()
    }
}
