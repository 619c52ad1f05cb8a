//! Property-based tests for DARPEs: display/parse round trips on random
//! expression trees, NFA/DFA agreement on random words, and reversal
//! involution.

use darpe::{parse, CompiledDarpe, Darpe, DarpeDir, Dfa, Symbol};
use pgraph::graph::Dir;
use pgraph::schema::{ETypeId, Schema};
use proptest::prelude::*;

fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_vertex_type("V", vec![]).unwrap();
    s.add_edge_type("A", true, vec![]).unwrap();
    s.add_edge_type("B", true, vec![]).unwrap();
    s.add_edge_type("U", false, vec![]).unwrap();
    s
}

/// Random DARPE trees over edge types {A, B (directed), U (undirected)}.
fn arb_darpe() -> impl Strategy<Value = Darpe> {
    let leaf = prop_oneof![
        Just(Darpe::Symbol(Symbol { edge_type: Some("A".into()), dir: DarpeDir::Forward })),
        Just(Darpe::Symbol(Symbol { edge_type: Some("A".into()), dir: DarpeDir::Reverse })),
        Just(Darpe::Symbol(Symbol { edge_type: Some("B".into()), dir: DarpeDir::Forward })),
        Just(Darpe::Symbol(Symbol { edge_type: Some("U".into()), dir: DarpeDir::Undirected })),
        Just(Darpe::Symbol(Symbol { edge_type: None, dir: DarpeDir::Any })),
        Just(Darpe::Symbol(Symbol { edge_type: None, dir: DarpeDir::Forward })),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 2..4).prop_map(Darpe::Concat),
            prop::collection::vec(inner.clone(), 2..4).prop_map(Darpe::Alt),
            (inner, 0u32..3, prop::option::of(0u32..2)).prop_map(|(d, min, extra)| {
                Darpe::Repeat {
                    inner: Box::new(d),
                    min,
                    max: extra.map(|e| min + e),
                }
            }),
        ]
    })
}

fn arb_word() -> impl Strategy<Value = Vec<(usize, Dir)>> {
    prop::collection::vec(
        (0usize..3, prop_oneof![Just(Dir::Out), Just(Dir::In), Just(Dir::Und)]),
        0..7,
    )
}

fn resolve_word(s: &Schema, w: &[(usize, Dir)]) -> Vec<(ETypeId, Dir)> {
    let names = ["A", "B", "U"];
    w.iter()
        .map(|&(i, d)| {
            // Undirected type U only occurs with Und; directed with In/Out.
            let (name, dir) = if i == 2 { ("U", Dir::Und) } else { (names[i], if d == Dir::Und { Dir::Out } else { d }) };
            (s.edge_type_id(name).unwrap(), dir)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Display → parse is the identity on random DARPE trees (modulo
    /// structural normalization, checked by re-displaying).
    #[test]
    fn display_parse_round_trip(d in arb_darpe()) {
        let text = d.to_string();
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{e} for `{text}`"));
        prop_assert_eq!(parsed.to_string(), text);
    }

    /// The table-backed DFA accepts exactly the words the NFA accepts,
    /// both through `matches_word` and through its rows: a symbol whose
    /// type is missing from a row's live types is a dead transition.
    #[test]
    fn dfa_agrees_with_nfa(d in arb_darpe(), words in prop::collection::vec(arb_word(), 1..12)) {
        let s = schema();
        let Ok(nfa) = CompiledDarpe::compile(&d, &s) else { return Ok(()); };
        let mut dfa = Dfa::new(&nfa);
        for w in &words {
            let word = resolve_word(&s, w);
            let expected = nfa.matches_word(&word);
            prop_assert_eq!(expected, dfa.matches_word(&word), "word {:?} on `{}`", word, d);
            let mut state = Some(dfa.start());
            for &(et, dir) in &word {
                let Some(q) = state else { break };
                let row = dfa.row(q);
                state = row.live().iter().find(|l| l.etype == et).and_then(|&ty| row.next(ty, dir));
                prop_assert_eq!(state, dfa.next(q, et, dir), "row and next disagree on `{}`", d);
            }
            let by_rows = state.is_some_and(|q| dfa.is_accepting(q));
            prop_assert_eq!(expected, by_rows, "rows: word {:?} on `{}`", word, d);
        }
    }

    /// Reversing twice yields an automaton equivalent to the original
    /// (checked on sample words).
    #[test]
    fn double_reversal_is_identity(d in arb_darpe(), words in prop::collection::vec(arb_word(), 1..12)) {
        let s = schema();
        let Ok(nfa) = CompiledDarpe::compile(&d, &s) else { return Ok(()); };
        let rr = nfa.reversed().reversed();
        for w in &words {
            let word = resolve_word(&s, w);
            prop_assert_eq!(nfa.matches_word(&word), rr.matches_word(&word));
        }
    }

    /// `fixed_unique_length` is sound: if it reports a length, every
    /// accepted sample word has that length, and the shortest word
    /// matches it.
    #[test]
    fn fixed_unique_length_is_sound(d in arb_darpe(), words in prop::collection::vec(arb_word(), 1..16)) {
        if let Some(len) = d.fixed_unique_length() {
            let s = schema();
            let Ok(nfa) = CompiledDarpe::compile(&d, &s) else { return Ok(()); };
            prop_assert_eq!(nfa.min_word_length(), Some(len));
            for w in &words {
                let word = resolve_word(&s, w);
                if nfa.matches_word(&word) {
                    prop_assert_eq!(word.len(), len);
                }
            }
        }
    }

    /// `min_word_length` is a true lower bound on accepted sample words.
    #[test]
    fn min_word_length_is_lower_bound(d in arb_darpe(), words in prop::collection::vec(arb_word(), 1..16)) {
        let s = schema();
        let Ok(nfa) = CompiledDarpe::compile(&d, &s) else { return Ok(()); };
        if let Some(min) = nfa.min_word_length() {
            for w in &words {
                let word = resolve_word(&s, w);
                if nfa.matches_word(&word) {
                    prop_assert!(word.len() >= min);
                }
            }
        } else {
            for w in &words {
                let word = resolve_word(&s, w);
                prop_assert!(!nfa.matches_word(&word), "empty language accepted a word");
            }
        }
    }
}
