//! Corpus replay: every `.case` file under `crates/stress/corpus/` is a
//! regression test. A reproducer the fuzzer (or a human) ever persisted
//! must keep passing every oracle forever — and the harness itself must
//! stay deterministic: the same case always yields the same signature.

use std::path::PathBuf;

use slrh::RunContext;
use stress::{generate, run_seed, CaseSpec};

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

fn corpus_cases() -> Vec<(PathBuf, CaseSpec)> {
    let mut cases = Vec::new();
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus directory exists") {
        let path = entry.expect("readable corpus entry").path();
        if path.extension().is_none_or(|e| e != "case") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable corpus file");
        let spec = CaseSpec::decode(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        cases.push((path, spec));
    }
    cases.sort_by(|(a, _), (b, _)| a.cmp(b));
    cases
}

#[test]
fn corpus_is_nonempty_and_well_formed() {
    let cases = corpus_cases();
    assert!(
        cases.len() >= 3,
        "expected the seeded corpus, found {} cases",
        cases.len()
    );
    for (path, spec) in &cases {
        assert_eq!(spec.check(), Ok(()), "{}", path.display());
        // The codec round-trips every persisted case exactly.
        let reencoded = CaseSpec::decode(&spec.encode()).expect("re-decode");
        assert_eq!(&reencoded, spec, "{}", path.display());
    }
}

#[test]
fn every_corpus_case_passes_every_oracle() {
    // One long-lived context across all cases, like a real campaign —
    // its reuse is part of what the corpus pins down.
    let mut ctx = RunContext::new();
    for (path, spec) in corpus_cases() {
        let report = run_seed(&spec, &mut ctx);
        assert!(
            report.passed(),
            "{} regressed:\n  {}",
            path.display(),
            report.failures.join("\n  ")
        );
    }
}

#[test]
fn corpus_verdicts_are_deterministic() {
    let mut ctx = RunContext::new();
    for (path, spec) in corpus_cases() {
        let a = run_seed(&spec, &mut ctx);
        let b = run_seed(&spec, &mut ctx);
        assert_eq!(a.signature, b.signature, "{}", path.display());
        assert_eq!(a.clock_steps, b.clock_steps, "{}", path.display());
    }
}

/// The generator side of the same guarantee: a fuzz seed maps to one
/// spec and one verdict, independent of context history.
#[test]
fn generated_seeds_are_reproducible_end_to_end() {
    for seed in [0u64, 11, 29] {
        let spec = generate(seed);
        assert_eq!(spec, generate(seed));
        let fresh = run_seed(&spec, &mut RunContext::new());
        let mut warmed = RunContext::new();
        let _ = run_seed(&generate(seed + 100), &mut warmed);
        let reused = run_seed(&spec, &mut warmed);
        assert_eq!(fresh.signature, reused.signature, "seed {seed}");
        assert_eq!(fresh.failures, reused.failures, "seed {seed}");
    }
}
