//! Golden fingerprints of every engine image.
//!
//! An image is the interpreter text plus the module's data section, the
//! entry point, the handler table, the dispatch pc, the interned strings
//! and the text symbols. Each is folded into one FNV-1a fingerprint and
//! pinned here, so any change to how images are constructed must leave
//! every simulated instruction and data byte exactly where it was.
//!
//! Covered: the 11 Table-7 workloads × lua/js/wasm × 3 ISA levels at test
//! and default scale; `main` functions with 0 and 512 locals (the entry's
//! `li` of the operand-stack top is one word shorter when `8·nlocals` is a
//! multiple of 4096, which moves every handler); and a module with many
//! functions and string constants.
//!
//! On a mismatch the test prints the whole table as it now stands.

use tarch_bench::workloads::{self, Scale};
use tarch_core::IsaLevel;
use tarch_isa::asm::Program;

/// FNV-1a 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

fn fingerprint(
    program: &Program,
    handlers: &[(&str, u64)],
    dispatch_pc: u64,
    strings: &[String],
) -> u64 {
    let mut h = Fnv::new();
    h.u64(program.text_base);
    h.u64(program.text.len() as u64);
    for w in &program.text {
        h.bytes(&w.to_le_bytes());
    }
    h.u64(program.data_base);
    h.u64(program.data.len() as u64);
    h.bytes(&program.data);
    h.u64(program.entry);
    h.u64(handlers.len() as u64);
    for (name, pc) in handlers {
        h.str(name);
        h.u64(*pc);
    }
    h.u64(dispatch_pc);
    h.u64(strings.len() as u64);
    for s in strings {
        h.str(s);
    }
    let text_end = program.text_base + 4 * program.text.len() as u64;
    for (name, addr) in program.symbols.iter() {
        if (program.text_base..text_end).contains(addr) {
            h.str(name);
            h.u64(*addr);
        }
    }
    h.0
}

fn image_fingerprint(engine: &str, src: &str, level: IsaLevel) -> u64 {
    let chunk = miniscript::parse(src).expect("source parses");
    match engine {
        "lua" => {
            let image = luart::build_image(&luart::compile(&chunk).expect("compiles"), level)
                .expect("luart image builds");
            let handlers: Vec<_> = image
                .handler_entries
                .iter()
                .map(|(op, pc)| (op.name(), *pc))
                .collect();
            fingerprint(&image.program, &handlers, image.dispatch_pc, &image.strings)
        }
        "js" => {
            let image = jsrt::build_image(&jsrt::compile(&chunk).expect("compiles"), level)
                .expect("jsrt image builds");
            let handlers: Vec<_> = image
                .handler_entries
                .iter()
                .map(|(op, pc)| (op.name(), *pc))
                .collect();
            fingerprint(&image.program, &handlers, image.dispatch_pc, &image.strings)
        }
        "wasm" => {
            let image = wasmrt::build_image(&wasmrt::compile(&chunk).expect("compiles"), level)
                .expect("wasmrt image builds");
            let handlers: Vec<_> = image
                .handler_entries
                .iter()
                .map(|(op, pc)| (op.name(), *pc))
                .collect();
            fingerprint(&image.program, &handlers, image.dispatch_pc, &image.strings)
        }
        other => unreachable!("unknown engine {other}"),
    }
}

/// `main` declaring `n` locals and printing their sum.
fn many_locals(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!("local v{i} = {i}\n"));
    }
    if n == 0 {
        src.push_str("print(1)\n");
    } else {
        src.push_str(&format!("print(v0 + v{})\n", n - 1));
    }
    src
}

/// Many functions, each with its own string constants.
fn many_functions() -> String {
    let mut src = String::new();
    for i in 0..48 {
        src.push_str(&format!(
            "function f{i}(x)\n  local t = \"tag{i}\" .. \"-\" .. x\n  return t .. \"/end{}\"\nend\n",
            i % 7
        ));
    }
    src.push_str("local acc = \"\"\n");
    for i in 0..48 {
        src.push_str(&format!("acc = f{i}(\"k{}\")\n", i % 5));
    }
    src.push_str("print(acc)\n");
    src
}

#[test]
fn entry_width_tracks_main_locals() {
    // `li SP, STACK_BASE + 8·nlocals` is a lone `lui` when the low twelve
    // bits vanish, so the 0- and 512-local images are one word shorter
    // than a 1-local one, and their handlers sit one word lower.
    for engine in ["js", "wasm"] {
        let len = |src: &str| {
            let chunk = miniscript::parse(src).expect("source parses");
            match engine {
                "js" => jsrt::build_image(&jsrt::compile(&chunk).unwrap(), IsaLevel::Typed)
                    .unwrap()
                    .program
                    .text
                    .len(),
                _ => wasmrt::build_image(&wasmrt::compile(&chunk).unwrap(), IsaLevel::Typed)
                    .unwrap()
                    .program
                    .text
                    .len(),
            }
        };
        let one = len(&many_locals(1));
        assert_eq!(len(&many_locals(0)) + 1, one, "{engine}");
        assert_eq!(len(&many_locals(512)) + 1, one, "{engine}");
    }
}

const ALL: &[&str] = &["lua", "js", "wasm"];

/// Every pinned case: (case name, engine, level, source).
fn cases() -> Vec<(String, &'static str, IsaLevel, String)> {
    let mut out = Vec::new();
    let mut push = |case: String, engines: &[&'static str], src: String| {
        for &engine in engines {
            for level in IsaLevel::ALL {
                out.push((case.clone(), engine, level, src.clone()));
            }
        }
    };
    for w in workloads::all() {
        for scale in [Scale::Test, Scale::Default] {
            push(format!("{}/{}", w.name, scale.id()), ALL, w.source(scale));
        }
    }
    // luart's register window cannot hold 512 locals; jsrt shares
    // wasmrt's entry sequence, so both stack-machine engines are pinned.
    push("locals-0".into(), ALL, many_locals(0));
    push("locals-512".into(), &["js", "wasm"], many_locals(512));
    push("many-functions".into(), ALL, many_functions());
    out
}

#[test]
fn every_image_matches_its_golden_fingerprint() {
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for (case, engine, level, src) in cases() {
        let key = format!("{case}/{engine}/{}", level.name());
        let got = image_fingerprint(engine, &src, level);
        table.push_str(&format!("    (\"{key}\", {got:#018x}),\n"));
        match GOLDEN.iter().find(|(k, _)| *k == key) {
            Some((_, want)) if *want == got => {}
            Some((_, want)) => mismatches.push(format!("{key}: {got:#018x} != {want:#018x}")),
            None => mismatches.push(format!("{key}: not pinned")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} image fingerprint(s) changed:\n{}\ncurrent table:\n{table}",
        mismatches.len(),
        mismatches.join("\n")
    );
    assert_eq!(GOLDEN.len(), cases().len(), "stale entries in GOLDEN");
}

const GOLDEN: &[(&str, u64)] = &[
    ("ackermann/test/lua/baseline", 0x451fdbb5d963b8fc),
    ("ackermann/test/lua/checked-load", 0x60034f47e1872d56),
    ("ackermann/test/lua/typed", 0xf349594fe154fcdc),
    ("ackermann/test/js/baseline", 0x365fb5c7b443e76e),
    ("ackermann/test/js/checked-load", 0x63663fe95daf16b2),
    ("ackermann/test/js/typed", 0xc4e1a6a1b8c15277),
    ("ackermann/test/wasm/baseline", 0x52eaa8fcfcd8430d),
    ("ackermann/test/wasm/checked-load", 0x52eaa8fcfcd8430d),
    ("ackermann/test/wasm/typed", 0x52eaa8fcfcd8430d),
    ("ackermann/default/lua/baseline", 0xb951ab245e869cd0),
    ("ackermann/default/lua/checked-load", 0xaf6b8d726d2f74ee),
    ("ackermann/default/lua/typed", 0xba4725afdde337f4),
    ("ackermann/default/js/baseline", 0x28ef43b4abf50947),
    ("ackermann/default/js/checked-load", 0x8dee66d9256732e7),
    ("ackermann/default/js/typed", 0xec90a6fa8e7bd596),
    ("ackermann/default/wasm/baseline", 0x595f2c65385b3440),
    ("ackermann/default/wasm/checked-load", 0x595f2c65385b3440),
    ("ackermann/default/wasm/typed", 0x595f2c65385b3440),
    ("binary-trees/test/lua/baseline", 0x0b8a71a9974d26af),
    ("binary-trees/test/lua/checked-load", 0xb3698aa6222aa375),
    ("binary-trees/test/lua/typed", 0xe39206fec3bd569d),
    ("binary-trees/test/js/baseline", 0x91dfbd9fc7bf8b45),
    ("binary-trees/test/js/checked-load", 0xa1f5ff7751203d34),
    ("binary-trees/test/js/typed", 0xdc9b2c8433cbd6b2),
    ("binary-trees/test/wasm/baseline", 0x190566eaf54150fa),
    ("binary-trees/test/wasm/checked-load", 0x190566eaf54150fa),
    ("binary-trees/test/wasm/typed", 0x190566eaf54150fa),
    ("binary-trees/default/lua/baseline", 0x2ca4bee76883c278),
    ("binary-trees/default/lua/checked-load", 0xd55b042456ef3a3a),
    ("binary-trees/default/lua/typed", 0xcaac3e96d2d35292),
    ("binary-trees/default/js/baseline", 0x6f2e67ef8fba13de),
    ("binary-trees/default/js/checked-load", 0xe5fe68d87671859f),
    ("binary-trees/default/js/typed", 0x151775e82312532d),
    ("binary-trees/default/wasm/baseline", 0x871d3205cee01d69),
    ("binary-trees/default/wasm/checked-load", 0x871d3205cee01d69),
    ("binary-trees/default/wasm/typed", 0x871d3205cee01d69),
    ("fannkuch-redux/test/lua/baseline", 0x18bb8b9b6aaa5185),
    ("fannkuch-redux/test/lua/checked-load", 0xb0119e0518cb31e7),
    ("fannkuch-redux/test/lua/typed", 0x4b4d27b8119638b1),
    ("fannkuch-redux/test/js/baseline", 0xd08d1eb6c95f3795),
    ("fannkuch-redux/test/js/checked-load", 0x9cad7ae25e6cd044),
    ("fannkuch-redux/test/js/typed", 0x0f6ec8b070ce7816),
    ("fannkuch-redux/test/wasm/baseline", 0xe341933045db6f08),
    ("fannkuch-redux/test/wasm/checked-load", 0xe341933045db6f08),
    ("fannkuch-redux/test/wasm/typed", 0xe341933045db6f08),
    ("fannkuch-redux/default/lua/baseline", 0xea7e6994eb910d3f),
    (
        "fannkuch-redux/default/lua/checked-load",
        0x0574a5efcc948689,
    ),
    ("fannkuch-redux/default/lua/typed", 0xe879296d9083edff),
    ("fannkuch-redux/default/js/baseline", 0xf08471308dca5bf7),
    ("fannkuch-redux/default/js/checked-load", 0xb3b5fa886d9be922),
    ("fannkuch-redux/default/js/typed", 0x2c73ceb667a79630),
    ("fannkuch-redux/default/wasm/baseline", 0xb6f032c48a4fe10e),
    (
        "fannkuch-redux/default/wasm/checked-load",
        0xb6f032c48a4fe10e,
    ),
    ("fannkuch-redux/default/wasm/typed", 0xb6f032c48a4fe10e),
    ("fibo/test/lua/baseline", 0x086205107ecc8ce6),
    ("fibo/test/lua/checked-load", 0x82657d120a73d9d4),
    ("fibo/test/lua/typed", 0xc7e3602dc7104382),
    ("fibo/test/js/baseline", 0x9c23e315a55b2851),
    ("fibo/test/js/checked-load", 0xfc84a8a2c093a27d),
    ("fibo/test/js/typed", 0x3ac6fe7834f3f95c),
    ("fibo/test/wasm/baseline", 0x0192b6881dc89bf5),
    ("fibo/test/wasm/checked-load", 0x0192b6881dc89bf5),
    ("fibo/test/wasm/typed", 0x0192b6881dc89bf5),
    ("fibo/default/lua/baseline", 0xb6c0847b54dc417b),
    ("fibo/default/lua/checked-load", 0x7f1c1cc31f8f5629),
    ("fibo/default/lua/typed", 0x7a998cc7cef9c54b),
    ("fibo/default/js/baseline", 0x783168701896cece),
    ("fibo/default/js/checked-load", 0xf5172933dff512e2),
    ("fibo/default/js/typed", 0x57ebc8c0aeebb1f7),
    ("fibo/default/wasm/baseline", 0x521f209c5f33ad56),
    ("fibo/default/wasm/checked-load", 0x521f209c5f33ad56),
    ("fibo/default/wasm/typed", 0x521f209c5f33ad56),
    ("k-nucleotide/test/lua/baseline", 0x0d9624c7632110ca),
    ("k-nucleotide/test/lua/checked-load", 0xc542c08b62f043a8),
    ("k-nucleotide/test/lua/typed", 0xcc03980a458eb6ee),
    ("k-nucleotide/test/js/baseline", 0x6debb03488441c3e),
    ("k-nucleotide/test/js/checked-load", 0xdfc04484abceb003),
    ("k-nucleotide/test/js/typed", 0x52b87f0580415209),
    ("k-nucleotide/test/wasm/baseline", 0xe4ad6e0eb6d2c0c2),
    ("k-nucleotide/test/wasm/checked-load", 0xe4ad6e0eb6d2c0c2),
    ("k-nucleotide/test/wasm/typed", 0xe4ad6e0eb6d2c0c2),
    ("k-nucleotide/default/lua/baseline", 0xe9a23f172eadb189),
    ("k-nucleotide/default/lua/checked-load", 0x84d504b1de02bb53),
    ("k-nucleotide/default/lua/typed", 0x10b314d8de2805d9),
    ("k-nucleotide/default/js/baseline", 0xa86f3bfbf26cfa9f),
    ("k-nucleotide/default/js/checked-load", 0x194934a263bed272),
    ("k-nucleotide/default/js/typed", 0x40f20536b071a354),
    ("k-nucleotide/default/wasm/baseline", 0xaa95ee42330d7075),
    ("k-nucleotide/default/wasm/checked-load", 0xaa95ee42330d7075),
    ("k-nucleotide/default/wasm/typed", 0xaa95ee42330d7075),
    ("mandelbrot/test/lua/baseline", 0x01be02829ec23b17),
    ("mandelbrot/test/lua/checked-load", 0xb15f946803cf1b19),
    ("mandelbrot/test/lua/typed", 0x1b89a5ecf5512e35),
    ("mandelbrot/test/js/baseline", 0x45b9f8598535747e),
    ("mandelbrot/test/js/checked-load", 0xf0350ac6483f2d77),
    ("mandelbrot/test/js/typed", 0x3e2c084b0dd72b0d),
    ("mandelbrot/test/wasm/baseline", 0x708b26b17b8ca323),
    ("mandelbrot/test/wasm/checked-load", 0x708b26b17b8ca323),
    ("mandelbrot/test/wasm/typed", 0x708b26b17b8ca323),
    ("mandelbrot/default/lua/baseline", 0xe609c24524bc5103),
    ("mandelbrot/default/lua/checked-load", 0x8ae4edcbc6b36f8d),
    ("mandelbrot/default/lua/typed", 0x6c180c56537c83d1),
    ("mandelbrot/default/js/baseline", 0x7b7062f9b3d8a502),
    ("mandelbrot/default/js/checked-load", 0x8561771740e5576b),
    ("mandelbrot/default/js/typed", 0x7fd385b15e204a89),
    ("mandelbrot/default/wasm/baseline", 0xb50bea0a3975471f),
    ("mandelbrot/default/wasm/checked-load", 0xb50bea0a3975471f),
    ("mandelbrot/default/wasm/typed", 0xb50bea0a3975471f),
    ("n-body/test/lua/baseline", 0x926f6859590f7de2),
    ("n-body/test/lua/checked-load", 0xb78211096ec25eec),
    ("n-body/test/lua/typed", 0xf4a7e02183752114),
    ("n-body/test/js/baseline", 0x159e92cf7d416a41),
    ("n-body/test/js/checked-load", 0x3cc61e21a8e2a454),
    ("n-body/test/js/typed", 0x9257dbacf4a740f6),
    ("n-body/test/wasm/baseline", 0x5f56687b27cc45f2),
    ("n-body/test/wasm/checked-load", 0x5f56687b27cc45f2),
    ("n-body/test/wasm/typed", 0x5f56687b27cc45f2),
    ("n-body/default/lua/baseline", 0xfb130bdc948f6607),
    ("n-body/default/lua/checked-load", 0x16adcfe31bc4ce09),
    ("n-body/default/lua/typed", 0xa5850dddbe68aaf1),
    ("n-body/default/js/baseline", 0x11a5aaa7694a643a),
    ("n-body/default/js/checked-load", 0x060a2977bc70842b),
    ("n-body/default/js/typed", 0x7fc877cba65bec95),
    ("n-body/default/wasm/baseline", 0x6c8d9a77ad62ff95),
    ("n-body/default/wasm/checked-load", 0x6c8d9a77ad62ff95),
    ("n-body/default/wasm/typed", 0x6c8d9a77ad62ff95),
    ("n-sieve/test/lua/baseline", 0xe1b43b6d9557c89f),
    ("n-sieve/test/lua/checked-load", 0x9adadb6b3afc9c51),
    ("n-sieve/test/lua/typed", 0x30a6caf5fe75133b),
    ("n-sieve/test/js/baseline", 0x1919ac8f74d965f0),
    ("n-sieve/test/js/checked-load", 0x0f6885633becc731),
    ("n-sieve/test/js/typed", 0x1917ef76c9044413),
    ("n-sieve/test/wasm/baseline", 0xafd5d77bc498c8d1),
    ("n-sieve/test/wasm/checked-load", 0xafd5d77bc498c8d1),
    ("n-sieve/test/wasm/typed", 0xafd5d77bc498c8d1),
    ("n-sieve/default/lua/baseline", 0x9fe5c8b9022ab81b),
    ("n-sieve/default/lua/checked-load", 0xe29a85be920f24bd),
    ("n-sieve/default/lua/typed", 0x8653e330f9bae9cf),
    ("n-sieve/default/js/baseline", 0xb294d5b0530f669f),
    ("n-sieve/default/js/checked-load", 0x19594aa57921ef26),
    ("n-sieve/default/js/typed", 0xd84989d2f8014920),
    ("n-sieve/default/wasm/baseline", 0xc83aa2ca1e944492),
    ("n-sieve/default/wasm/checked-load", 0xc83aa2ca1e944492),
    ("n-sieve/default/wasm/typed", 0xc83aa2ca1e944492),
    ("pidigits/test/lua/baseline", 0xf15834c4a735e309),
    ("pidigits/test/lua/checked-load", 0x0fec0c769cb2663f),
    ("pidigits/test/lua/typed", 0xf22d31de2bafea39),
    ("pidigits/test/js/baseline", 0x40214cc63eef218d),
    ("pidigits/test/js/checked-load", 0x5972416cade250d8),
    ("pidigits/test/js/typed", 0xd310c2c5e14f24ae),
    ("pidigits/test/wasm/baseline", 0x18ef6a79fc0d63f2),
    ("pidigits/test/wasm/checked-load", 0x18ef6a79fc0d63f2),
    ("pidigits/test/wasm/typed", 0x18ef6a79fc0d63f2),
    ("pidigits/default/lua/baseline", 0x02df9eaf3053be7d),
    ("pidigits/default/lua/checked-load", 0x0c7b02a9c1eff68b),
    ("pidigits/default/lua/typed", 0xfa8ad02b702e00a5),
    ("pidigits/default/js/baseline", 0xe27a0aeaf489c201),
    ("pidigits/default/js/checked-load", 0x93334a41e7b8b67c),
    ("pidigits/default/js/typed", 0x6bb2f18535119d0a),
    ("pidigits/default/wasm/baseline", 0xc1ebb40f822939d6),
    ("pidigits/default/wasm/checked-load", 0xc1ebb40f822939d6),
    ("pidigits/default/wasm/typed", 0xc1ebb40f822939d6),
    ("random/test/lua/baseline", 0xd4c23d7682c54b34),
    ("random/test/lua/checked-load", 0xb71d9b089b097a12),
    ("random/test/lua/typed", 0x11032762aec8de98),
    ("random/test/js/baseline", 0x22f05286d8f1709c),
    ("random/test/js/checked-load", 0x66c514ff7998d9a5),
    ("random/test/js/typed", 0xda8740ac6934d217),
    ("random/test/wasm/baseline", 0x3a4f346f80b1cb23),
    ("random/test/wasm/checked-load", 0x3a4f346f80b1cb23),
    ("random/test/wasm/typed", 0x3a4f346f80b1cb23),
    ("random/default/lua/baseline", 0x5d97dfb38fcd46ae),
    ("random/default/lua/checked-load", 0x2acbc4202aaa8c2c),
    ("random/default/lua/typed", 0x6ff35cc6fe193a22),
    ("random/default/js/baseline", 0xccd9f49e8bc2ae66),
    ("random/default/js/checked-load", 0x8160c14bb9b88b07),
    ("random/default/js/typed", 0x92944874bf3ba261),
    ("random/default/wasm/baseline", 0xd902f5b52c681f1d),
    ("random/default/wasm/checked-load", 0xd902f5b52c681f1d),
    ("random/default/wasm/typed", 0xd902f5b52c681f1d),
    ("spectral-norm/test/lua/baseline", 0xedfd509a81868494),
    ("spectral-norm/test/lua/checked-load", 0xc6f6570112634bca),
    ("spectral-norm/test/lua/typed", 0xaf1616cfc45f7a4e),
    ("spectral-norm/test/js/baseline", 0x9509d0fc3eb7f13d),
    ("spectral-norm/test/js/checked-load", 0x500746bf61d5ee5c),
    ("spectral-norm/test/js/typed", 0x96c151c8f327be5e),
    ("spectral-norm/test/wasm/baseline", 0xc09f674daad6b33b),
    ("spectral-norm/test/wasm/checked-load", 0xc09f674daad6b33b),
    ("spectral-norm/test/wasm/typed", 0xc09f674daad6b33b),
    ("spectral-norm/default/lua/baseline", 0x6411f1538edd367a),
    ("spectral-norm/default/lua/checked-load", 0x93baeb2c02466468),
    ("spectral-norm/default/lua/typed", 0x9b4cd0bfa42eda68),
    ("spectral-norm/default/js/baseline", 0xf01731b0ed678d9b),
    ("spectral-norm/default/js/checked-load", 0x8fb77a3356e17c0e),
    ("spectral-norm/default/js/typed", 0x374b81f52fc10a1c),
    ("spectral-norm/default/wasm/baseline", 0x8cb8b0202ecd29c5),
    (
        "spectral-norm/default/wasm/checked-load",
        0x8cb8b0202ecd29c5,
    ),
    ("spectral-norm/default/wasm/typed", 0x8cb8b0202ecd29c5),
    ("locals-0/lua/baseline", 0x87014e617890c5de),
    ("locals-0/lua/checked-load", 0x7cf3d5bfeec78858),
    ("locals-0/lua/typed", 0x0d0f7bcb0e65547a),
    ("locals-0/js/baseline", 0xfafc800b5724ed3b),
    ("locals-0/js/checked-load", 0xe29448ff1877a8b3),
    ("locals-0/js/typed", 0x9b181c57d146128a),
    ("locals-0/wasm/baseline", 0x9d47e779e5ac35e9),
    ("locals-0/wasm/checked-load", 0x9d47e779e5ac35e9),
    ("locals-0/wasm/typed", 0x9d47e779e5ac35e9),
    ("locals-512/js/baseline", 0x10d59137f0e1d331),
    ("locals-512/js/checked-load", 0xc819743fbffc1b25),
    ("locals-512/js/typed", 0x6e5fae699afa67ec),
    ("locals-512/wasm/baseline", 0x255f8faba76d9016),
    ("locals-512/wasm/checked-load", 0x255f8faba76d9016),
    ("locals-512/wasm/typed", 0x255f8faba76d9016),
    ("many-functions/lua/baseline", 0xe5f6d2294371fcf6),
    ("many-functions/lua/checked-load", 0xf03da64313387518),
    ("many-functions/lua/typed", 0x7c2207a5673b9356),
    ("many-functions/js/baseline", 0x0ee1c29788fb6cfc),
    ("many-functions/js/checked-load", 0xbfa9e587fdc3ad89),
    ("many-functions/js/typed", 0x81abcdfea6a673e7),
    ("many-functions/wasm/baseline", 0x6df602c577186c27),
    ("many-functions/wasm/checked-load", 0x6df602c577186c27),
    ("many-functions/wasm/typed", 0x6df602c577186c27),
];
