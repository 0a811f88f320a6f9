//! Seeded generator of small MiniScript programs for `short-scripts`.
//!
//! Each program is a few independent *fragments* — loops, tables, string
//! concatenation, calls, recursion — that each print what they computed.
//! Three fragment kinds exist to make the typed hardware miss (paper
//! §7.1): `FloatMix` and `PolyCall` feed integers and floats through the
//! same arithmetic sites (Type Rule Table misses in `luart`/`jsrt`), and
//! `Int32Overflow`/`ModChain` push integers past 2³¹, which `jsrt`'s
//! int32 fast path overflows into doubles.
//!
//! Every program must compile on all three engines at every ISA level,
//! so the fragments keep to what `wasmrt`'s static type inference
//! accepts: a variable never holds both an integer and a float (integer
//! operands are widened at the use site instead), and a table is either
//! integer-keyed or string-keyed. Loop counts stay small so a program
//! runs for roughly ten thousand simulated instructions.
//!
//! The same seed always yields the same programs.

use tarch_testkit::Rng;

/// One generated program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// MiniScript source.
    pub source: String,
    /// The fragment kinds it is made of, in order.
    pub kinds: Vec<Kind>,
}

/// A fragment kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Integer loop with a multiply–add–modulo chain.
    ModChain,
    /// Float accumulator fed with integer and float operands.
    FloatMix,
    /// Integer-keyed table filled and summed.
    TableSum,
    /// String built by repeated concatenation.
    Concat,
    /// Doubly recursive function.
    Recursion,
    /// Two-argument function called in a loop.
    Calls,
    /// String-keyed counting table.
    Histogram,
    /// One call site that sees both integer and float arguments.
    PolyCall,
    /// Integer stepped across the int32 boundary.
    Int32Overflow,
}

impl Kind {
    /// Every kind, in a fixed order.
    pub const ALL: [Kind; 9] = [
        Kind::ModChain,
        Kind::FloatMix,
        Kind::TableSum,
        Kind::Concat,
        Kind::Recursion,
        Kind::Calls,
        Kind::Histogram,
        Kind::PolyCall,
        Kind::Int32Overflow,
    ];
}

/// Fragments per program.
pub const FRAGMENTS: usize = 3;

/// Generates `count` programs from `seed`. Programs are dealt in groups
/// of three that together hold every kind once, so within a batch each
/// kind is drawn equally often (to within a group) and no program holds
/// a kind twice; the batch's total work then varies little from seed to
/// seed. The seed decides which kinds share a program, in what order,
/// and with what constants.
pub fn programs(seed: u64, count: usize) -> Vec<Program> {
    let mut rng = Rng::new(seed ^ 0x5c41_9e7d_0b2a_6f13);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut deck = Kind::ALL;
        for i in (1..deck.len()).rev() {
            deck.swap(i, rng.range_usize(0, i + 1));
        }
        for kinds in deck.chunks(FRAGMENTS).take(count - out.len()) {
            out.push(program(&mut rng, kinds));
        }
    }
    out
}

fn program(rng: &mut Rng, kinds: &[Kind]) -> Program {
    let mut functions = String::new();
    let mut body = String::new();
    for (k, &kind) in kinds.iter().enumerate() {
        fragment(rng, kind, k, &mut functions, &mut body);
    }
    Program {
        source: functions + &body,
        kinds: kinds.to_vec(),
    }
}

/// Appends fragment number `k` of kind `kind`: its function definitions
/// to `functions`, its statements to `body`. Names carry `k` so
/// fragments never share a variable.
fn fragment(rng: &mut Rng, kind: Kind, k: usize, functions: &mut String, body: &mut String) {
    let n = rng.range_i64(8, 17);
    let s = match kind {
        Kind::ModChain => {
            let start = rng.range_i64(1, 1000);
            let mul = rng.range_i64(3, 98);
            format!(
                "local m{k} = {start}\n\
                 for i = 1, {n} do m{k} = (m{k} * {mul} + i) % 1000000007 end\n\
                 print(m{k})\n"
            )
        }
        Kind::FloatMix => {
            let start = rng.range_i64(0, 50);
            let every = rng.range_i64(2, 5);
            let add = rng.range_i64(1, 9);
            format!(
                "local f{k} = {start}.5\n\
                 for i = 1, {n} do\n\
                 f{k} = f{k} + i * 0.25\n\
                 if i % {every} == 0 then f{k} = f{k} - 1 end\n\
                 end\n\
                 print(f{k})\n\
                 print(floor(f{k}) + {add})\n"
            )
        }
        Kind::TableSum => {
            let mul = rng.range_i64(2, 30);
            let add = rng.range_i64(-20, 20);
            format!(
                "local t{k} = {{}}\n\
                 for i = 1, {n} do t{k}[i] = i * {mul} + {add} end\n\
                 local a{k} = 0\n\
                 for i = 1, #t{k} do a{k} = a{k} + t{k}[i] end\n\
                 print(a{k} .. \" \" .. #t{k})\n"
            )
        }
        Kind::Concat => {
            let modulus = rng.range_i64(3, 10);
            let prefix = ["ab", "xyz", "q", "lua", "js"][rng.range_usize(0, 5)];
            format!(
                "local s{k} = \"{prefix}\"\n\
                 for i = 1, {n} do s{k} = s{k} .. (i % {modulus}) end\n\
                 print(s{k})\n\
                 print(len(s{k}))\n"
            )
        }
        Kind::Recursion => {
            let depth = rng.range_i64(6, 8);
            functions.push_str(&format!(
                "function rec{k}(n)\n\
                 if n < 2 then return n end\n\
                 return rec{k}(n - 1) + rec{k}(n - 2)\n\
                 end\n"
            ));
            format!("print(rec{k}({depth}))\n")
        }
        Kind::Calls => {
            let mul = rng.range_i64(2, 12);
            functions.push_str(&format!(
                "function mix{k}(a, b)\nreturn a * {mul} + b\nend\n"
            ));
            format!(
                "local c{k} = 0\n\
                 for i = 1, {n} do c{k} = mix{k}(c{k} % 100003, i) end\n\
                 print(c{k})\n"
            )
        }
        Kind::Histogram => {
            let buckets = rng.range_i64(2, 6);
            format!(
                "local h{k} = {{}}\n\
                 for i = 1, {n} do\n\
                 local key = \"k\" .. (i % {buckets})\n\
                 local v = h{k}[key]\n\
                 if v == nil then h{k}[key] = 1 else h{k}[key] = v + 1 end\n\
                 end\n\
                 print(h{k}[\"k0\"] .. \" \" .. h{k}[\"k1\"])\n"
            )
        }
        Kind::PolyCall => {
            functions.push_str(&format!("function half{k}(x)\nreturn x * 0.5\nend\n"));
            format!(
                "local p{k} = 0.0\n\
                 for i = 1, {n} do p{k} = p{k} + half{k}(i) + half{k}(i + 0.25) end\n\
                 print(p{k})\n"
            )
        }
        Kind::Int32Overflow => {
            let below = rng.range_i64(1, 40_000);
            let step = rng.range_i64(5_000, 20_000);
            format!(
                "local o{k} = {}\n\
                 for i = 1, {n} do o{k} = o{k} + {step} end\n\
                 print(o{k})\n\
                 print(o{k} % 1000)\n",
                2_147_483_647 - below
            )
        }
    };
    body.push_str(&s);
}
