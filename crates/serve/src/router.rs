//! Route dispatch: maps parsed requests onto the job pool, the experiment
//! registry, and the observability sinks.
//!
//! Every route returns a `'static` label alongside its [`Response`]; the
//! connection handler records per-route request latency under that label,
//! which is what `GET /metrics` reports back (the service observes itself
//! with the same [`ringsim_obs::LatencyHistogram`] the simulators use).

use serde::{Serialize, Value};

use crate::http::{Request, Response};
use crate::jobs::{EventCursor, JobCounts, JobState, JobStatus, SubmitOutcome};
use crate::ServerState;

/// Seconds clients are told to wait after a 429 (queue full).
const RETRY_AFTER_SECS: u32 = 2;

/// Every route label the server records latency under; registered eagerly
/// at startup so `/metrics` reports all routes (zero-count included) from
/// the first request, not only the ones that happened to be hit.
pub const ROUTES: &[&str] = &[
    "GET /healthz",
    "GET /experiments",
    "POST /runs",
    "GET /runs/:id",
    "GET /runs/:id/events",
    "GET /runs/:id/artifacts/:file",
    "POST /runs/:id/pin",
    "GET /metrics",
    "POST /shutdown",
];

/// What a route produced: a complete response, or a live stream the
/// connection handler keeps writing until it ends.
pub enum Reply {
    /// An ordinary buffered response.
    Full(Response),
    /// An SSE subscription on a job's event log (`GET /runs/:id/events`).
    Events(EventCursor),
}

impl From<Response> for Reply {
    fn from(resp: Response) -> Self {
        Reply::Full(resp)
    }
}

/// Dispatches one request, returning `(route label, reply)`.
#[must_use]
pub fn dispatch(state: &ServerState, req: &Request) -> (&'static str, Reply) {
    let segs: Vec<&str> = req.path().split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("GET", ["healthz"]) => ("GET /healthz", healthz(state).into()),
        ("GET", ["experiments"]) => ("GET /experiments", list_experiments().into()),
        ("POST", ["runs"]) => ("POST /runs", submit(state, req).into()),
        ("GET", ["runs", id]) => ("GET /runs/:id", run_status(state, id).into()),
        ("GET", ["runs", id, "events"]) => ("GET /runs/:id/events", events(state, id)),
        ("GET", ["runs", id, "artifacts", file]) => {
            ("GET /runs/:id/artifacts/:file", artifact(state, id, file).into())
        }
        ("POST", ["runs", id, "pin"]) => ("POST /runs/:id/pin", pin(state, id).into()),
        ("GET", ["metrics"]) => ("GET /metrics", metrics(state).into()),
        ("POST", ["shutdown"]) => ("POST /shutdown", shutdown(state).into()),
        (
            _,
            ["healthz" | "experiments" | "metrics" | "shutdown" | "runs"]
            | ["runs", _]
            | ["runs", _, "events" | "pin"]
            | ["runs", _, "artifacts", _],
        ) => (
            "(method-not-allowed)",
            Response::error(405, &format!("{} not allowed on {}", req.method, req.path())).into(),
        ),
        _ => ("(not-found)", Response::error(404, &format!("no route for {}", req.path())).into()),
    }
}

/// `GET /runs/:id/events`: subscribe to the job's live SSE stream. The
/// cursor replays the full event history first, so a subscription to a
/// finished run is the whole log followed immediately by the terminal
/// event.
fn events(state: &ServerState, id: &str) -> Reply {
    match state.pool.events(id) {
        Some(cursor) => Reply::Events(cursor),
        None => Reply::Full(Response::error(404, &format!("no run `{id}`"))),
    }
}

/// `POST /runs/:id/pin`: drop a `.pinned` marker into the run directory so
/// retention never evicts it (see [`crate::gc`]).
fn pin(state: &ServerState, id: &str) -> Response {
    if state.pool.status(id).is_none() {
        return Response::error(404, &format!("no run `{id}`"));
    }
    let dir = state.pool.job_dir(id);
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(dir.join(".pinned"), b""))
    {
        return Response::error(500, &format!("pinning run `{id}`: {e}"));
    }
    #[derive(Serialize)]
    struct Ack {
        id: String,
        pinned: bool,
    }
    Response::json(200, render(&Ack { id: id.to_owned(), pinned: true }))
}

fn healthz(state: &ServerState) -> Response {
    if state.draining() {
        Response::text(200, "draining")
    } else {
        Response::text(200, "ok")
    }
}

/// `GET /experiments`: the registry as `[{name, description}]`.
fn list_experiments() -> Response {
    #[derive(Serialize)]
    struct Entry {
        name: String,
        description: String,
    }
    let entries: Vec<Entry> = ringsim_bench::experiments::registry()
        .iter()
        .map(|e| Entry { name: e.name().to_owned(), description: e.description().to_owned() })
        .collect();
    Response::json(200, render(&entries))
}

/// The `POST /runs` acknowledgement body.
#[derive(Serialize)]
struct SubmitAck {
    id: String,
    deduped: bool,
    state: JobState,
    location: String,
    /// Canonical spelling of the request's `network` field, when given
    /// (resolved through the simulator registry, aliases included).
    network: Option<String>,
    /// Canonical spelling of the request's `topology` field, when given
    /// (resolved through [`ringsim_core::HierTopology`]).
    topology: Option<String>,
}

/// `POST /runs`: body
/// `{"experiment": "<name>", "refs": <n>?, "network": "<net>"?, "topology": "<topo>"?}`.
///
/// The optional `network` field is resolved against the simulator registry
/// with [`ringsim_core::SimKind::from_str`]; a bad spelling is rejected
/// with a 400 carrying the typed [`ringsim_core::SimKindError`] rendering
/// (which names the valid spellings, or the candidates for an ambiguous
/// prefix), and a good one is echoed back canonicalised so clients can
/// pre-validate the name they are about to sweep with. The optional
/// `topology` field (`flat` / `2level` / `3level`, hyphenated aliases
/// included) validates the hierarchy-depth override the same way.
fn submit(state: &ServerState, req: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::error(400, "body must be UTF-8 JSON");
    };
    let parsed = match serde_json::parse_value(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("malformed JSON body: {e}")),
    };
    let Some(Value::Str(name)) = parsed.get("experiment") else {
        return Response::error(400, "body must carry a string `experiment` field");
    };
    let network = match parsed.get("network") {
        None | Some(Value::Null) => None,
        Some(Value::Str(net)) => match net.parse::<ringsim_core::SimKind>() {
            Ok(kind) => Some(kind.name().to_owned()),
            Err(e) => return Response::error(400, &e.to_string()),
        },
        Some(_) => return Response::error(400, "`network` must be a string"),
    };
    let topology = match parsed.get("topology") {
        None | Some(Value::Null) => None,
        Some(Value::Str(t)) => match t.parse::<ringsim_core::HierTopology>() {
            Ok(topo) => Some(topo.name().to_owned()),
            Err(e) => return Response::error(400, &e.to_string()),
        },
        Some(_) => return Response::error(400, "`topology` must be a string"),
    };
    let refs = match parsed.get("refs") {
        None | Some(Value::Null) => state.cfg.default_refs,
        Some(Value::UInt(n)) if *n > 0 => *n,
        Some(Value::Int(n)) if *n > 0 => u64::try_from(*n).expect("positive i64 fits in u64"),
        Some(_) => return Response::error(400, "`refs` must be a positive integer"),
    };
    let Some(exp) = ringsim_bench::experiments::find(name) else {
        return Response::error(
            400,
            &format!("unknown experiment `{name}` (try GET /experiments)"),
        );
    };
    let ack = |status: JobStatus, deduped: bool| SubmitAck {
        location: format!("/runs/{}", status.id),
        id: status.id,
        deduped,
        state: status.state,
        network: network.clone(),
        topology: topology.clone(),
    };
    match state.pool.submit(exp, refs) {
        SubmitOutcome::Created(st) => Response::json(202, render(&ack(st, false))),
        SubmitOutcome::Deduped(st) => Response::json(200, render(&ack(st, true))),
        SubmitOutcome::QueueFull => Response::error(429, "job queue is full; retry later")
            .with_retry_after(RETRY_AFTER_SECS),
        SubmitOutcome::Draining => {
            Response::error(503, "server is draining; new runs are rejected")
        }
    }
}

/// `GET /runs/:id`: full job status.
fn run_status(state: &ServerState, id: &str) -> Response {
    match state.pool.status(id) {
        Some(st) => Response::json(200, render(&st)),
        None => Response::error(404, &format!("no run `{id}`")),
    }
}

/// `GET /runs/:id/artifacts/:file`: byte-exact artifact serving. Only file
/// names the finished job reported are reachable, so no path from the wire
/// ever touches the filesystem directly.
fn artifact(state: &ServerState, id: &str, file: &str) -> Response {
    let Some(st) = state.pool.status(id) else {
        return Response::error(404, &format!("no run `{id}`"));
    };
    if st.state != JobState::Done {
        return Response::error(
            409,
            &format!("run `{id}` is {}; artifacts appear once it is done", st.state.as_str()),
        );
    }
    if !st.artifacts.iter().any(|a| a == file) {
        return Response::error(404, &format!("run `{id}` has no artifact `{file}`"));
    }
    let path = state.pool.job_dir(id).join(file);
    match std::fs::read(&path) {
        Ok(bytes) => Response::bytes(200, content_type(file), bytes),
        Err(e) => Response::error(500, &format!("reading artifact `{file}`: {e}")),
    }
}

/// Content type by artifact extension.
fn content_type(file: &str) -> &'static str {
    match file.rsplit('.').next() {
        Some("json") => "application/json",
        Some("dat" | "txt" | "csv") => "text/plain; charset=utf-8",
        _ => "application/octet-stream",
    }
}

/// Per-route request-latency digest in the `/metrics` document.
#[derive(Serialize)]
struct RouteStat {
    route: String,
    requests: u64,
    latency: ringsim_obs::LatencyHistogram,
}

/// Worker-pool shape and load in the `/metrics` document.
#[derive(Serialize)]
struct PoolStat {
    /// Jobs waiting for a worker right now.
    depth: u64,
    /// Job-worker threads.
    workers: u64,
    /// Shard-worker processes per run (`0`/`1` = in-process).
    shards: u64,
}

/// Retention counters in the `/metrics` document (see [`crate::gc`]).
#[derive(Serialize)]
struct GcStat {
    sweeps: u64,
    deleted_runs: u64,
    reclaimed_bytes: u64,
}

/// The `GET /metrics` document.
#[derive(Serialize)]
struct MetricsDoc {
    uptime_ms: u64,
    draining: bool,
    jobs: JobCounts,
    pool: PoolStat,
    gc: GcStat,
    http: Vec<RouteStat>,
    /// Simulator metrics of this server's in-process runs (`None` until a
    /// simulator-backed experiment has run).
    summary: Option<ringsim_obs::MetricsSummary>,
}

fn metrics(state: &ServerState) -> Response {
    let http = state
        .http_stats()
        .into_iter()
        .map(|(route, latency)| RouteStat { route, requests: latency.count(), latency })
        .collect();
    let gc = state.gc_counters();
    let doc = MetricsDoc {
        uptime_ms: state.uptime_ms(),
        draining: state.draining(),
        jobs: state.pool.counts(),
        pool: PoolStat {
            depth: state.pool.depth() as u64,
            workers: state.cfg.workers as u64,
            shards: state.cfg.shards as u64,
        },
        gc: GcStat { sweeps: gc.0, deleted_runs: gc.1, reclaimed_bytes: gc.2 },
        http,
        summary: Some(state.metrics.summary()).filter(|s| s.runs > 0),
    };
    Response::json(200, render(&doc))
}

/// `POST /shutdown`: programmatic drain (same path as SIGINT).
fn shutdown(state: &ServerState) -> Response {
    state.request_shutdown();
    #[derive(Serialize)]
    struct Ack {
        draining: bool,
    }
    Response::json(202, render(&Ack { draining: true }))
}

/// Pretty-JSON rendering (the vendored pipeline is infallible).
fn render<T: Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("response serialisation is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;

    impl Reply {
        /// Unwraps the buffered response; panics on a streaming reply.
        fn into_response(self) -> Response {
            match self {
                Reply::Full(resp) => resp,
                Reply::Events(_) => panic!("streaming reply has no buffered response"),
            }
        }
    }

    fn state(tag: &str) -> ServerState {
        let out =
            std::env::temp_dir().join(format!("ringsim-serve-router-{tag}-{}", std::process::id()));
        ServerState::new(ServeConfig {
            out_dir: out,
            workers: 1,
            queue_cap: 2,
            default_refs: 50,
            ..ServeConfig::default()
        })
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_owned(),
            target: path.to_owned(),
            headers: Vec::new(),
            body: Vec::new(),
        }
    }

    fn post(path: &str, body: &str) -> Request {
        Request {
            method: "POST".to_owned(),
            target: path.to_owned(),
            headers: Vec::new(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn experiments_listing_covers_the_registry() {
        let st = state("list");
        let (route, reply) = dispatch(&st, &get("/experiments"));
        let resp = reply.into_response();
        assert_eq!((route, resp.status), ("GET /experiments", 200));
        let text = String::from_utf8(resp.body).unwrap();
        for exp in ringsim_bench::experiments::registry() {
            assert!(text.contains(exp.name()), "listing misses {}", exp.name());
        }
        st.request_shutdown();
        st.pool.join();
    }

    #[test]
    fn bad_submissions_are_rejected_with_400() {
        let st = state("bad");
        for body in [
            "",
            "{",
            "{}",
            "{\"experiment\": 3}",
            "{\"experiment\": \"nope\"}",
            "{\"experiment\": \"fig3\", \"refs\": 0}",
            "{\"experiment\": \"fig3\", \"refs\": -4}",
            "{\"experiment\": \"fig3\", \"network\": 7}",
            "{\"experiment\": \"fig3\", \"network\": \"token-ring\"}",
            "{\"experiment\": \"fig3\", \"topology\": 2}",
            "{\"experiment\": \"fig3\", \"topology\": \"4level\"}",
        ] {
            let (_, reply) = dispatch(&st, &post("/runs", body));
            let resp = reply.into_response();
            assert_eq!(resp.status, 400, "accepted body {body:?}");
        }
        st.request_shutdown();
        st.pool.join();
    }

    #[test]
    fn network_field_surfaces_the_typed_registry_error() {
        let st = state("network");
        // Unknown spelling: the SimKindError rendering names the valid ones.
        let resp =
            dispatch(&st, &post("/runs", "{\"experiment\": \"fig3\", \"network\": \"tokenring\"}"))
                .1
                .into_response();
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("unknown network `tokenring`"), "got: {text}");
        assert!(text.contains("ring500"), "error should list spellings: {text}");
        // Ambiguous prefix: the candidates are spelled out.
        let resp = dispatch(&st, &post("/runs", "{\"experiment\": \"fig3\", \"network\": \"b\"}"))
            .1
            .into_response();
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("ambiguous network `b`"), "got: {text}");
        assert!(text.contains("bus50 or bus100"), "got: {text}");
        // A documented alias resolves and is echoed back canonicalised.
        let resp =
            dispatch(&st, &post("/runs", "{\"experiment\": \"fig3\", \"network\": \"bus\"}"))
                .1
                .into_response();
        assert_eq!(resp.status, 202);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"network\": \"bus100\""), "got: {text}");
        st.request_shutdown();
        st.pool.join();
    }

    #[test]
    fn hier_prefix_became_ambiguous_when_the_registry_grew() {
        // Regression: `hier` used to be resolvable from the prefix `hie`;
        // with `hier3` and `hier-deflect` registered the prefix must fail
        // loudly instead of silently picking one.
        let st = state("hier-prefix");
        let resp =
            dispatch(&st, &post("/runs", "{\"experiment\": \"fig3\", \"network\": \"hie\"}"))
                .1
                .into_response();
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("ambiguous network `hie`"), "got: {text}");
        for candidate in ["hier", "hier3", "hier-deflect"] {
            assert!(text.contains(candidate), "candidates should list {candidate}: {text}");
        }
        // The exact spellings all still resolve.
        for exact in ["hier", "hier3", "hier-deflect"] {
            let body = format!("{{\"experiment\": \"fig3\", \"network\": \"{exact}\"}}");
            let (_, reply) = dispatch(&st, &post("/runs", &body));
            let resp = reply.into_response();
            assert!(resp.status == 202 || resp.status == 200, "{exact}: {}", resp.status);
            let text = String::from_utf8(resp.body).unwrap();
            assert!(text.contains(&format!("\"network\": \"{exact}\"")), "got: {text}");
        }
        st.request_shutdown();
        st.pool.join();
    }

    #[test]
    fn topology_field_is_validated_and_canonicalised() {
        let st = state("topology");
        // Hyphenated alias → canonical spelling in the ack.
        let (_, reply) = dispatch(
            &st,
            &post(
                "/runs",
                "{\"experiment\": \"fig3\", \"network\": \"hier-deflect\", \
                 \"topology\": \"three-level\"}",
            ),
        );
        let resp = reply.into_response();
        assert_eq!(resp.status, 202);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("\"topology\": \"3level\""), "got: {text}");
        // A bad spelling names the valid ones.
        let resp =
            dispatch(&st, &post("/runs", "{\"experiment\": \"fig3\", \"topology\": \"deep\"}"))
                .1
                .into_response();
        assert_eq!(resp.status, 400);
        let text = String::from_utf8(resp.body).unwrap();
        assert!(text.contains("flat"), "got: {text}");
        st.request_shutdown();
        st.pool.join();
    }

    #[test]
    fn draining_state_rejects_submissions_but_keeps_reads() {
        let st = state("drain");
        st.request_shutdown();
        let (_, reply) = dispatch(&st, &post("/runs", "{\"experiment\": \"fig3\"}"));
        let resp = reply.into_response();
        assert_eq!(resp.status, 503);
        assert_eq!(dispatch(&st, &get("/metrics")).1.into_response().status, 200);
        let (_, reply) = dispatch(&st, &get("/healthz"));
        let resp = reply.into_response();
        assert_eq!(resp.body, b"draining\n");
        st.pool.join();
    }

    #[test]
    fn unknown_routes_and_methods_map_to_404_and_405() {
        let st = state("routes");
        assert_eq!(dispatch(&st, &get("/nope")).1.into_response().status, 404);
        assert_eq!(dispatch(&st, &get("/runs/zzz")).1.into_response().status, 404);
        assert_eq!(dispatch(&st, &post("/experiments", "")).1.into_response().status, 405);
        assert_eq!(dispatch(&st, &get("/metrics")).1.into_response().status, 200);
        st.request_shutdown();
        st.pool.join();
    }
}
