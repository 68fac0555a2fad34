//! In-process engine calls: the same public functions the daemon runs for
//! each request kind, used to recompute served answers and, in the traced
//! run, to time each engine layer.

use sealpaa_datapath::NodeKind;
use sealpaa_server::json::Json;
use sealpaa_server::protocol::{DatapathTopology, ProfileSource, RequestBody, SimMode};

/// The numeric answer fields compared between a reply and a recomputation:
/// (dotted path into the reply's `result`, value).
pub type Answer = Vec<(&'static str, f64)>;

/// The layer (crate and public function) that answers a request kind.
pub fn engine_layer(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::Analyze(_) => "core.analyze",
        RequestBody::Compare(_) => "inclexcl.compare",
        RequestBody::Blocks(_) => "blocks.distribution",
        RequestBody::Dse(_) => "explore.dse",
        RequestBody::Datapath(_) => "propagate.predict",
        RequestBody::Simulate(_) => "sim.monte_carlo",
        RequestBody::Profile(_) => "trace.profile",
        _ => "other",
    }
}

/// Runs the engine behind one request and returns its answer fields.
pub fn evaluate(body: &RequestBody) -> Result<Answer, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    Ok(match body {
        RequestBody::Analyze(s) => {
            let a = sealpaa_core::analyze(&s.chain, &s.profile).map_err(|e| err(&e))?;
            vec![
                ("error_probability", a.error_probability()),
                ("success_probability", a.success_probability()),
            ]
        }
        RequestBody::Compare(s) => {
            let a = sealpaa_core::analyze(&s.chain, &s.profile).map_err(|e| err(&e))?;
            let (baseline, terms) =
                sealpaa_inclexcl::error_probability(&s.chain, &s.profile).map_err(|e| err(&e))?;
            vec![
                ("proposed", a.error_probability()),
                ("inclusion_exclusion", baseline),
                ("terms", terms as f64),
            ]
        }
        RequestBody::Blocks(s) => {
            let d = sealpaa_blocks::error_distance_distribution(&s.config, &s.profile)
                .map_err(|e| err(&e))?;
            vec![
                ("error_rate", d.error_rate()),
                ("mean", d.mean()),
                ("mean_squared", d.mean_squared()),
                ("support", d.pmf.len() as f64),
            ]
        }
        RequestBody::Dse(s) => {
            let budget = sealpaa_explore::Budget {
                max_power_nw: s.budget_power,
                max_area_ge: s.budget_area,
            };
            let best = sealpaa_explore::exhaustive_best_with(
                &s.candidates,
                &s.profile,
                &budget,
                s.threads,
            )
            .map_err(|e| err(&e))?
            .ok_or("the budget admits no design")?;
            vec![
                ("best.error_probability", best.evaluation.error_probability),
                ("best.power_nw", best.evaluation.power_nw),
            ]
        }
        RequestBody::Simulate(s) => {
            let SimMode::MonteCarlo {
                samples,
                seed,
                threads,
            } = s.mode
            else {
                return Err("only Monte-Carlo simulate requests are generated".to_owned());
            };
            let config = sealpaa_sim::MonteCarloConfig {
                samples,
                seed,
                threads,
                backend: None,
            };
            let r = sealpaa_sim::monte_carlo(&s.adder.chain, &s.adder.profile, config)
                .map_err(|e| err(&e))?;
            vec![
                ("error_samples", r.error_samples as f64),
                ("mean_error_distance", r.metrics.mean_error_distance),
            ]
        }
        RequestBody::Profile(s) => {
            let ProfileSource::Synth {
                kind,
                records,
                seed,
            } = s.source
            else {
                return Err("only synthetic profile requests are generated".to_owned());
            };
            let rows = sealpaa_trace::generate(kind, s.width, records as usize, seed)
                .map_err(|e| err(&e))?;
            let stats =
                sealpaa_trace::TraceStats::from_records(s.width, &rows).map_err(|e| err(&e))?;
            vec![
                ("independence_violation", stats.independence_violation()),
                ("cin", stats.p(sealpaa_trace::VarId::Cin)),
                ("records", stats.records() as f64),
            ]
        }
        RequestBody::Datapath(s) => {
            use sealpaa_propagate::topologies;
            let topo = match &s.topology {
                DatapathTopology::Fir { coefficients } => {
                    topologies::fir(&s.cell, coefficients, s.width)
                }
                DatapathTopology::Conv2d { kernel } => topologies::conv2d(&s.cell, kernel, s.width),
                DatapathTopology::Multiplier => topologies::multiplier(&s.cell, s.width),
            }
            .map_err(|e| err(&e))?;
            let dp = &topo.datapath;
            let inputs: Vec<(&str, Vec<f64>)> = topo
                .inputs
                .iter()
                .map(|name| {
                    let bits = dp
                        .signals()
                        .find(
                            |&sig| matches!(dp.kind(sig), NodeKind::Input { name: n } if n == name),
                        )
                        .map_or(s.width, |sig| dp.width(sig));
                    (name.as_str(), vec![s.p; bits])
                })
                .collect();
            let p =
                sealpaa_propagate::predict(dp, topo.output, &inputs, s.pmf).map_err(|e| err(&e))?;
            vec![
                ("mse", p.moments.error_second),
                ("mean_error", p.moments.error_mean),
                ("signal_power", p.moments.value_second),
            ]
        }
        _ => return Err("not an engine request".to_owned()),
    })
}

/// Reads the same fields out of a served `result` object.
pub fn served(result: &Json, expected: &Answer) -> Answer {
    expected
        .iter()
        .map(|&(path, _)| {
            let value = path
                .split('.')
                .try_fold(result, |node, key| node.get(key))
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            (path, value)
        })
        .collect()
}

/// Exact comparison (bit patterns, so `-0.0 != 0.0` and NaN never matches).
pub fn same(a: &Answer, b: &Answer) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|((pa, va), (pb, vb))| pa == pb && va.to_bits() == vb.to_bits())
}
