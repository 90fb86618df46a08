//! The `integrate` workload: the paper's §6.3 setting. Pairs of mirrored
//! random class trees with a mixed assertion set are integrated again and
//! again by the optimized algorithm (`schema_integration`, analysis gate
//! on, as a user runs it).
//!
//! Once per run, outside the timed window, each pair's optimized output
//! is compared with the naive algorithm's on the same pair, and the
//! properties the method guarantees are asserted. Every timed
//! integration's output is then compared with that verified one.

use crate::check::Verdict;
use crate::{Layers, Outcome, Run, Window};
use assertions::{AssertionSet, ClassAssertion, ClassOp};
use fedoo_core::naive::{naive_with_trace, IntegrationRun};
use fedoo_core::{schema_integration_with_options, IntegratedSchema, IntegrationOptions};
use oo_model::{AttrType, Schema, SchemaBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

/// Classes per schema.
const CLASSES: usize = 48;
/// Average fan-out of the generated trees.
const DEGREE: usize = 3;
/// Schema pairs per round; each is integrated once per round.
const POOL: usize = 200;

/// One generated input pair.
struct Pair {
    s1: Schema,
    s2: Schema,
    list: Vec<ClassAssertion>,
    set: AssertionSet,
}

/// Parent of each node `1..n` of a random tree: node `i` hangs below a
/// node of the preceding window of `degree * ⌈i/degree⌉` nodes.
fn random_tree(n: usize, degree: usize, rng: &mut StdRng) -> Vec<usize> {
    (1..n)
        .map(|i| {
            let window = (i / degree).max(1) * degree;
            rng.gen_range(i.saturating_sub(window)..i)
        })
        .collect()
}

fn tree_schema(name: &str, prefix: &str, parents: &[usize]) -> Result<Schema, String> {
    let mut b = SchemaBuilder::new(name);
    for i in 0..=parents.len() {
        b = b.class(format!("{prefix}{i}"), |c| c.attr("v", AttrType::Str));
    }
    for (i, p) in parents.iter().enumerate() {
        b = b.isa(format!("{prefix}{}", i + 1), format!("{prefix}{p}"));
    }
    b.build().map_err(|e| e.to_string())
}

/// Two mirrored trees; each mirrored class pair gets ≡ (40%), ⊆ into the
/// mirrored parent (20%), ∩ (10%), ∅ (10%) or no assertion (20%).
///
/// The set is drawn consistent: below a pair asserted disjoint, no class
/// of one tree may overlap a class of the other, so ≡, ⊆ and ∩ draws
/// there become no assertion (`a ⊆ a_p`, `a_p ∅ b_p` and `a ⊆ b_p`
/// would force `a` empty).
fn generate(seed: u64) -> Result<Pair, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let parents = random_tree(CLASSES, DEGREE, &mut rng);
    let s1 = tree_schema("S1", "a", &parents)?;
    let s2 = tree_schema("S2", "b", &parents)?;
    let mut list = Vec::new();
    // Whether the pair itself or a pair above it is asserted disjoint.
    let mut under_disjoint = [false; CLASSES];
    for i in 0..CLASSES {
        let parent = i.checked_sub(1).map(|k| parents[k]);
        let blocked = parent.is_some_and(|p| under_disjoint[p]);
        under_disjoint[i] = blocked;
        let roll: f64 = rng.gen();
        let (op, j) = match (roll, parent) {
            (r, _) if r < 0.4 => (ClassOp::Equiv, i),
            (r, Some(p)) if r < 0.6 => (ClassOp::Incl, p),
            (r, None) if r < 0.6 => continue,
            (r, _) if r < 0.7 => (ClassOp::Intersect, i),
            (r, _) if r < 0.8 => {
                under_disjoint[i] = true;
                (ClassOp::Disjoint, i)
            }
            _ => continue,
        };
        if blocked && op != ClassOp::Disjoint {
            continue;
        }
        list.push(ClassAssertion::simple(
            "S1",
            format!("a{i}"),
            op,
            "S2",
            format!("b{j}"),
        ));
    }
    let set = AssertionSet::build(list.clone()).map_err(|e| format!("{e:?}"))?;
    Ok(Pair { s1, s2, list, set })
}

fn optimized(pair: &Pair, gate: bool) -> Result<IntegrationRun, String> {
    let options = IntegrationOptions {
        collect_trace: false,
        analysis_gate: gate,
        ..IntegrationOptions::default()
    };
    schema_integration_with_options(&pair.s1, &pair.s2, &pair.set, options)
        .map_err(|e| e.to_string())
}

/// What two integrations must agree on: the class names and is-a links.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Shape {
    classes: BTreeSet<String>,
    isa: BTreeSet<(String, String)>,
}

fn shape(out: &IntegratedSchema) -> Shape {
    Shape {
        classes: out.classes().map(|c| c.name.clone()).collect(),
        isa: out.isa_links().cloned().collect(),
    }
}

/// Is there a path `from → to` over `edges`, not using edge `skip`?
fn reaches(
    edges: &BTreeMap<&str, Vec<&str>>,
    from: &str,
    to: &str,
    skip: Option<(&str, &str)>,
) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(n) = stack.pop() {
        for &m in edges.get(n).into_iter().flatten() {
            if skip == Some((n, m)) || !seen.insert(m) {
                continue;
            }
            if m == to {
                return true;
            }
            stack.push(m);
        }
    }
    false
}

/// The checks made once per pair: agreement with the naive algorithm
/// and the method's guaranteed properties.
fn verify(pair: &Pair, run: &IntegrationRun, naive: &IntegrationRun) -> Result<(), String> {
    let (got, want) = (shape(&run.output), shape(&naive.output));
    if got.classes != want.classes {
        let diff: Vec<_> = got.classes.symmetric_difference(&want.classes).collect();
        return Err(format!("optimized and naive classes differ: {diff:?}"));
    }
    if got.isa != want.isa {
        let diff: Vec<_> = got.isa.symmetric_difference(&want.isa).collect();
        return Err(format!("optimized and naive is-a links differ: {diff:?}"));
    }
    if run.stats.total_checks() > naive.stats.pairs_checked {
        return Err(format!(
            "optimized made {} checks, naive {}",
            run.stats.total_checks(),
            naive.stats.pairs_checked
        ));
    }
    for (schema, s) in [("S1", &pair.s1), ("S2", &pair.s2)] {
        for class in s.class_names() {
            if run.output.is(schema, class.as_str()).is_none() {
                return Err(format!("no IS mapping for {schema}.{}", class.as_str()));
            }
        }
    }
    let mut edges: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (sub, sup) in &got.isa {
        edges.entry(sub).or_default().push(sup);
    }
    for (sub, sup) in &got.isa {
        if reaches(&edges, sup, sub, None) {
            return Err(format!("is-a cycle through {sub} -> {sup}"));
        }
        if reaches(&edges, sub, sup, Some((sub, sup))) {
            return Err(format!("redundant is-a link {sub} -> {sup}"));
        }
    }
    Ok(())
}

pub fn run(run: &Run) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.note(format!(
        "workload: {POOL} mirrored tree pairs of {CLASSES} classes (degree {DEGREE}), mixed assertions; round = one integration of each"
    ));
    // Set-up: generate the pool.
    let pool = out.set_up(|_| {
        (0..POOL as u64)
            .map(|k| generate(run.seed.wrapping_mul(1_000_003).wrapping_add(k)))
            .collect::<Result<Vec<_>, _>>()
    })?;

    // Verified reference outputs, made outside the timed window.
    let mut reference = Vec::new();
    let (mut opt_checks, mut naive_pairs) = (0u64, 0u64);
    for pair in &pool {
        let opt = optimized(pair, true)?;
        let naive =
            naive_with_trace(&pair.s1, &pair.s2, &pair.set, false).map_err(|e| e.to_string())?;
        out.verify(match verify(pair, &opt, &naive) {
            Ok(()) => Verdict::Ok,
            Err(e) => Verdict::Wrong(e),
        });
        opt_checks += opt.stats.total_checks();
        naive_pairs += naive.stats.pairs_checked;
        reference.push((shape(&opt.output), opt.stats.total_checks()));
    }
    out.note(format!(
        "checks per round: optimized {opt_checks}, naive {naive_pairs}"
    ));

    let mut layers = Layers::default();
    let mut window = Window::start(run.seconds);
    while !window.done() {
        let runs = if run.trace {
            window.round(|lat| {
                pool.iter()
                    .map(|pair| {
                        let t = Instant::now();
                        let g = Instant::now();
                        std::hint::black_box(analysis::pre_integration_gate(
                            &pair.s1, &pair.s2, &pair.list,
                        ));
                        layers.add("analysis.gate_us", g.elapsed());
                        let i = Instant::now();
                        let r = optimized(pair, false);
                        layers.add("core.integrate_us", i.elapsed());
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        r
                    })
                    .collect::<Vec<_>>()
            })?
        } else {
            window.round(|lat| {
                pool.iter()
                    .map(|pair| {
                        let t = Instant::now();
                        let r = optimized(pair, true);
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        r
                    })
                    .collect::<Vec<_>>()
            })?
        };
        for (r, (want, checks)) in runs.into_iter().zip(&reference) {
            out.record(match r {
                Err(e) => Verdict::Failed(e),
                Ok(r) if shape(&r.output) != *want || r.stats.total_checks() != *checks => {
                    Verdict::Wrong("integration output differs from the verified one".into())
                }
                Ok(_) => Verdict::Ok,
            });
        }
    }
    layers.set("core.total_checks", opt_checks as f64);
    layers.set(
        "core.check_ratio",
        opt_checks as f64 / naive_pairs.max(1) as f64,
    );
    out.finish(window, run.trace, layers)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_pairs_pass_every_check() {
        for seed in 1..=6u64 {
            let pair = generate(seed).unwrap();
            let opt = optimized(&pair, true).unwrap();
            let naive = naive_with_trace(&pair.s1, &pair.s2, &pair.set, false).unwrap();
            verify(&pair, &opt, &naive).unwrap();
        }
    }

    #[test]
    fn redundant_and_cyclic_links_are_found() {
        let mut edges: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        edges.insert("a", vec!["b", "c"]);
        edges.insert("b", vec!["c"]);
        assert!(
            reaches(&edges, "a", "c", Some(("a", "c"))),
            "a->c is redundant"
        );
        assert!(!reaches(&edges, "a", "b", Some(("a", "b"))));
        assert!(!reaches(&edges, "c", "a", None), "acyclic");
    }
}
