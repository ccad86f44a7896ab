//! The symbol table never frees a name, so a compile must not make up new
//! ones: temporaries and leaf-shape parameters are numbered per compile and
//! take their symbols from numbered tables, and lowering interns only the
//! names the pipeline spells. After one warm compile, repeating it interns
//! nothing and returns the same text, temporaries included, with no
//! `normalize_temps` between the two.
//!
//! This file holds one test, so nothing else interns while it counts.

use std::sync::Arc;

use hardboiled_repro::apps::conv1d::Conv1d;
use hardboiled_repro::hardboiled::{Batching, ReportCache, Session, Symbol};

#[test]
fn repeated_compiles_intern_nothing_and_print_alike() {
    let pipeline = Conv1d { n: 512, k: 512 }.pipeline_tc_unrolled();
    let session = |batching: Batching, cache: Option<Arc<ReportCache>>| {
        let builder = Session::builder().target_name("sim").batching(batching);
        match cache {
            Some(cache) => builder.report_cache(cache),
            None => builder,
        }
        .build()
        .expect("a valid session")
    };
    let sessions = [
        ("batched", session(Batching::Batched, None)),
        ("per-leaf", session(Batching::PerLeaf, None)),
        (
            "cached",
            session(Batching::Batched, Some(Arc::new(ReportCache::new(64)))),
        ),
    ];
    for (name, session) in &sessions {
        let warm = session.compile(&pipeline).expect("conv1d lowers");
        assert!(warm.report.all_lowered(), "{name}: conv1d must select");
        let text = warm.program.to_string();
        assert!(text.contains("__hb_tmp0"), "{name}: temporaries from 0");
        let interned = Symbol::interned();
        for i in 0..20 {
            let again = session.compile(&pipeline).expect("conv1d lowers");
            assert_eq!(
                Symbol::interned(),
                interned,
                "{name}: compile {i} after the warm one interned a name"
            );
            assert!(
                again.program.to_string() == text,
                "{name}: compile {i} printed another program"
            );
        }
    }
    // Every mode selects the same program, with the same temporaries.
    let texts: Vec<String> = sessions
        .iter()
        .map(|(_, s)| s.compile(&pipeline).unwrap().program.to_string())
        .collect();
    assert!(texts.iter().all(|t| *t == texts[0]), "modes disagree");
}
