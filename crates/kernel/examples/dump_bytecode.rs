//! Print the bytecode lowering of a kernel program, followed by each
//! kernel's native-tier compilation: the closure/block listing if the kernel
//! is native-eligible (or the ineligibility reason), and which engine the
//! default `native` tier therefore runs it on. A debugging aid for the compile
//! stage and the native tier. Pass a path to a
//! kernel-language source file, or run with no arguments to dump the
//! generated-map-kernel shape used by the engine benchmarks.
//!
//! ```sh
//! cargo run -p skelcl_kernel --example dump_bytecode [path/to/kernel.cl]
//! ```

const DEFAULT_SRC: &str = r#"
    float func(float x) { return x * x * x - 2.0f * x + 1.0f; }
    __kernel void SKELCL_MAP(__global float* skelcl_in, __global float* skelcl_out, int skelcl_n) {
        int skelcl_gid = get_global_id(0);
        if (skelcl_gid < skelcl_n) {
            skelcl_out[skelcl_gid] = func(skelcl_in[skelcl_gid]);
        }
    }
"#;

fn main() {
    let src = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => DEFAULT_SRC.to_string(),
    };
    let program = match skelcl_kernel::Program::build(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("build error: {e}");
            std::process::exit(1);
        }
    };
    let unit = program.compiled();
    println!("buffer names: {:?}", unit.buffer_names);
    for f in &unit.functions {
        println!(
            "\n== {}{} ({} registers, {} instructions)",
            if f.is_kernel { "__kernel " } else { "" },
            f.name,
            f.num_regs,
            f.code.len()
        );
        if !f.const_pool.is_empty() {
            println!("   const pool: {:?}", f.const_pool);
        }
        for (i, (op, c)) in f.code.iter().zip(&f.costs).enumerate() {
            println!(
                "{i:4}: {op:?}   [flops {} bytes {} ops {}]",
                c.flops, c.bytes, c.ops
            );
        }
    }

    // Native tier: per-kernel compilation outcome and what the default does.
    for name in program.kernel_names() {
        let handle = program.kernel(&name).expect("kernel exists");
        let outcome = program.native_outcome(&handle);
        println!("\n== native tier: {name}");
        match &outcome.result {
            Ok(nk) => {
                println!(
                    "   compiled in {} ns: {} block(s)",
                    outcome.compile_ns,
                    nk.block_count()
                );
                for line in nk.listing().lines() {
                    println!("   {line}");
                }
                println!("   default: every launch runs natively, from the first one");
            }
            Err(reason) => {
                println!("   ineligible: {reason}");
                println!("   default: every launch runs on the scalar VM");
            }
        }
    }
}
