//! Seeded inputs: corpus programs, their mutants, and compile options.
//!
//! The seed only chooses which semantics-preserving mutants stand in for
//! each program; how many ops each program contributes is fixed per
//! workload, so every seed runs the same mix of cheap and expensive
//! programs.

use chipmunk::{CegisOptions, CompilerOptions};
use chipmunk_bench::corpus::{corpus, Benchmark, TemplateKind};
use chipmunk_lang::parse;
use chipmunk_mutate::mutations;
use chipmunk_pisa::StatelessAluSpec;

/// Minimal pipeline depth of every corpus program (the paper's Figure 5,
/// reproduced in `results_figure5.txt`).
const FIGURE5_STAGES: [(&str, usize); 8] = [
    ("rcp", 1),
    ("stateful-firewall", 1),
    ("sampling", 1),
    ("blue-increase", 2),
    ("blue-decrease", 2),
    ("flowlet-switching", 2),
    ("detect-new-flows", 1),
    ("detect-reordering", 2),
];

pub fn minimal_stages(program: &str) -> usize {
    FIGURE5_STAGES
        .iter()
        .find(|(n, _)| *n == program)
        .map(|&(_, k)| k)
        .unwrap_or_else(|| panic!("no Figure 5 depth for `{program}`"))
}

/// Immediate width of both ALU kinds (the Table 2 sweep's).
pub const IMM_BITS: u8 = 4;
/// Semantic verification width (the paper's Z3 loop uses 10 bits).
pub const VERIFY_WIDTH: u8 = 10;
/// CEGIS sampling seed, fixed so the work of an op depends only on the
/// program text.
pub const CEGIS_SEED: u64 = 2019 ^ 0xc0ffee;

/// The Table 2 sweep's options for one program: sequential plan
/// (`portfolio` and `parallel` off) at verify width 10.
pub fn compiler_options(template: TemplateKind) -> CompilerOptions {
    CompilerOptions {
        max_stages: 4,
        slots: None,
        stateful: template.spec(IMM_BITS),
        stateless: StatelessAluSpec::banzai(IMM_BITS),
        sketch: Default::default(),
        cegis: CegisOptions {
            verify_width: VERIFY_WIDTH,
            screen_width: Some(5),
            synth_input_bits: 5,
            num_initial_inputs: 4,
            max_iters: 256,
            seed: CEGIS_SEED,
            ..CegisOptions::default()
        },
        timeout: Some(std::time::Duration::from_secs(60)),
        parallel: false,
        portfolio: false,
    }
}

/// One generated program: source text plus where it came from.
#[derive(Clone, Debug)]
pub struct Source {
    pub program: &'static str,
    /// 0 = the corpus original, 1.. = seeded mutant.
    pub variant: usize,
    pub text: String,
    pub template: TemplateKind,
}

impl Source {
    pub fn label(&self) -> String {
        format!("{}#{}", self.program, self.variant)
    }
}

fn benchmark(name: &str) -> Benchmark {
    corpus()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not a corpus program"))
}

fn name_hash(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `program`'s original (when `original`) followed by `mutants` seeded
/// mutants, as source text.
///
/// Only mutants whose printed text parses back with the same field and
/// state order as the printed original are kept. The compiler canonicalizes the program text
/// but numbers fields in first-use order, and that order changes the
/// synthesis work (detect-reordering takes about three times as long with
/// its two fields swapped). Keeping the order keeps every mutant's work
/// equal to its original's, so every seed measures the same work.
pub fn variants(seed: u64, program: &str, original: bool, mutants: usize) -> Vec<Source> {
    let b = benchmark(program);
    let prog = b.program();
    let original_text = prog.to_string();
    let reference = parse(&original_text)
        .unwrap_or_else(|e| panic!("{program}: printed original does not parse: {e}"));
    let same_layout = |text: &str| {
        parse(text).is_ok_and(|p| {
            p.field_names() == reference.field_names() && p.state_names() == reference.state_names()
        })
    };
    let mut texts = Vec::new();
    if original {
        texts.push(original_text.clone());
    }
    let mseed = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ name_hash(program);
    texts.extend(
        mutations(&prog, mseed, 4 * mutants)
            .iter()
            .map(|m| m.to_string())
            .filter(|t| same_layout(t))
            .take(mutants),
    );
    assert_eq!(
        texts.len(),
        mutants + usize::from(original),
        "{program}: too few layout-preserving mutants for seed {seed}"
    );
    texts
        .into_iter()
        .enumerate()
        .map(|(i, text)| Source {
            program: b.name,
            variant: if original { i } else { i + 1 },
            text,
            template: b.template,
        })
        .collect()
}
