//! In-process replays of the serve sequences through the same public calls
//! the daemon makes for each line — parse, canonical key, cache probe,
//! engine, cache insert, response render — so each layer can be timed
//! from outside the program.

use sealpaa_server::cache::ResultCache;
use sealpaa_server::canonical::cache_key;
use sealpaa_server::json::Json;
use sealpaa_server::protocol::{
    render_batch_ok_response, render_ok_response, write_sub_ok_response, BatchBody, Request,
    RequestBody, MAX_LINE_BYTES,
};

use crate::engines;
use crate::serve::{self, HitOp, HitSeq, MissSeq};
use crate::trace::Tracer;

/// Computes one request's answer and renders it as the cached payload.
fn computed_payload(body: &RequestBody, t: &mut Tracer) -> Result<String, String> {
    let answer = t.span(engines::engine_layer(body), || engines::evaluate(body))?;
    Ok(t.span("server.json.result_render", || {
        answer
            .iter()
            .fold(Json::object(), |o, &(k, v)| o.field(k, v))
            .build()
            .render()
    }))
}

fn parse(line: &str, t: &mut Tracer) -> Result<Request, String> {
    t.span("server.protocol.parse", || {
        Request::parse_with_limit(line, MAX_LINE_BYTES)
    })
}

fn key_of(body: &RequestBody, t: &mut Tracer) -> Result<String, String> {
    t.span("server.canonical.cache_key", || cache_key(body))
        .ok_or_else(|| format!("{} request without a cache key", body.kind()))
}

/// A cache primed with every `serve_hit` key (untimed).
pub fn primed_hit_cache(seed: u64) -> Result<(serve::Keys, ResultCache), String> {
    let keys = serve::hit_keys(seed);
    let cache = ResultCache::new(serve::CACHE_ENTRIES);
    let mut off = Tracer::new(false);
    for (body, _) in &keys {
        let req = parse(&format!("{{{body}}}"), &mut off)?;
        let key = key_of(&req.body, &mut off)?;
        cache.insert(key, computed_payload(&req.body, &mut off)?);
    }
    Ok((keys, cache))
}

/// Replays the first `ops` lines of the `serve_hit` sequence against a
/// primed cache. Returns the number of lines that were not answered from
/// the cache.
pub fn replay_hit(
    keys: &[(String, &'static str)],
    cache: &ResultCache,
    seed: u64,
    ops: u64,
    t: &mut Tracer,
) -> Result<u64, String> {
    let mut seq = HitSeq::new(seed);
    let mut misses = 0;
    for op in 0..ops {
        t.set_op(op);
        t.enter("bench.op");
        let line = match seq.next_op() {
            HitOp::Single(k) => format!("{{\"id\":{op},{}}}", keys[k].0),
            HitOp::Batch(items) => format!("{{\"id\":{op},{}}}", serve::batch_body(keys, &items)),
        };
        let req = parse(&line, t)?;
        let rendered = match &req.body {
            RequestBody::Batch(spec) => {
                let mut subs = String::new();
                let mut payloads: Vec<(usize, String)> = Vec::new();
                for (i, item) in spec.items.iter().enumerate() {
                    let (kind, payload) = match &item.body {
                        BatchBody::Parsed(Ok(body)) => {
                            let key = key_of(body, t)?;
                            let hit = t.span("server.cache.get", || cache.get(&key));
                            let payload = hit.ok_or("batch item missed the primed cache")?;
                            payloads.push((i, payload.clone()));
                            (body.kind(), payload)
                        }
                        BatchBody::DuplicateOf(j) => {
                            let Some(BatchBody::Parsed(Ok(body))) =
                                spec.items.get(*j).map(|x| &x.body)
                            else {
                                return Err("duplicate of an unparsed item".to_owned());
                            };
                            let payload = payloads
                                .iter()
                                .find(|(k, _)| k == j)
                                .map(|(_, p)| p.clone())
                                .ok_or("duplicate before its original")?;
                            (body.kind(), payload)
                        }
                        BatchBody::Parsed(Err(e)) => return Err(e.clone()),
                    };
                    if i > 0 {
                        subs.push(',');
                    }
                    t.span("server.json.render", || {
                        write_sub_ok_response(&mut subs, item.id.as_ref(), kind, true, &payload)
                    });
                }
                let count = spec.items.len() as u64;
                t.span("server.json.render", || {
                    render_batch_ok_response(req.id.as_ref(), true, 0, count, 0, &subs)
                })
            }
            body => {
                let key = key_of(body, t)?;
                match t.span("server.cache.get", || cache.get(&key)) {
                    Some(payload) => t.span("server.json.render", || {
                        render_ok_response(req.id.as_ref(), body.kind(), true, 0, &payload)
                    }),
                    None => {
                        misses += 1;
                        String::new()
                    }
                }
            }
        };
        std::hint::black_box(rendered);
        t.exit();
    }
    Ok(misses)
}

/// A cache filled to capacity with the `serve_miss` fill keys (untimed).
pub fn filled_miss_cache(seed: u64) -> Result<ResultCache, String> {
    let cache = ResultCache::new(serve::CACHE_ENTRIES);
    let mut off = Tracer::new(false);
    for body in serve::fill_keys(seed) {
        let req = parse(&format!("{{{body}}}"), &mut off)?;
        let key = key_of(&req.body, &mut off)?;
        cache.insert(key, computed_payload(&req.body, &mut off)?);
    }
    Ok(cache)
}

/// Replays the first `ops` lines of the `serve_miss` sequence against a
/// full cache: every probe misses and every insert evicts. Returns the
/// number of unexpected cache hits.
pub fn replay_miss(
    cache: &ResultCache,
    seed: u64,
    ops: u64,
    t: &mut Tracer,
) -> Result<u64, String> {
    let mut seq = MissSeq::new(seed);
    let mut hits = 0;
    for op in 0..ops {
        t.set_op(op);
        t.enter("bench.op");
        let (body, _) = seq.next_req();
        let line = format!("{{\"id\":{op},{body}}}");
        let req = parse(&line, t)?;
        let key = key_of(&req.body, t)?;
        if t.span("server.cache.get", || cache.get(&key)).is_some() {
            hits += 1;
        }
        let payload = computed_payload(&req.body, t)?;
        let rendered = t.span("server.json.render", || {
            render_ok_response(req.id.as_ref(), req.body.kind(), false, 0, &payload)
        });
        t.span("server.cache.insert", || cache.insert(key, payload));
        std::hint::black_box(rendered);
        t.exit();
    }
    Ok(hits)
}
