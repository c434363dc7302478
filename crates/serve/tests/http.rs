//! End-to-end endpoint coverage over real sockets: every route, the
//! error envelope, and graceful drain.

use hos_core::{HosMiner, HosMinerConfig, ThresholdPolicy};
use hos_data::synth::planted::{generate, PlantedSpec};
use hos_data::Subspace;
use hos_serve::{Json, ServeConfig, Server};
use tinyhttp::client_request;

fn fitted_miner() -> HosMiner {
    let spec = PlantedSpec {
        n_background: 200,
        d: 4,
        n_clusters: 2,
        cluster_sigma: 1.0,
        extent: 50.0,
        targets: vec![Subspace::from_dims(&[0, 1])],
        shift_sigmas: 12.0,
        seed: 42,
    };
    let w = generate(&spec).unwrap();
    HosMiner::fit(
        w.dataset,
        HosMinerConfig {
            k: 4,
            threshold: ThresholdPolicy::FullSpaceQuantile {
                q: 0.95,
                sample: 100,
            },
            sample_size: 10,
            ..HosMinerConfig::default()
        },
    )
    .unwrap()
}

fn start() -> Server {
    Server::start(
        fitted_miner(),
        &ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    )
    .unwrap()
}

fn json(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).unwrap()).unwrap()
}

#[test]
fn every_endpoint_round_trips() {
    let server = start();
    let addr = server.addr();

    // healthz
    let (status, body) = client_request(addr, "GET", "/healthz", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("ok").unwrap().as_bool(), Some(true));

    // query by id
    let (status, body) = client_request(addr, "POST", "/query", br#"{"id":0}"#).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(0));
    assert_eq!(v.get("results").unwrap().as_array().unwrap().len(), 1);

    // mixed query: ids + point + a per-item error (dead id) — the
    // bad item fails alone, its batch-mates answer normally.
    let (status, body) = client_request(
        addr,
        "POST",
        "/query",
        br#"{"ids":[1,99999],"point":[0,0,0,0]}"#,
    )
    .unwrap();
    assert_eq!(status, 200);
    let results = json(&body);
    let results = results.get("results").unwrap().as_array().unwrap();
    assert_eq!(results.len(), 3);
    assert!(results[0].get("minimal").is_some());
    assert_eq!(
        results[1]
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("query")
    );
    assert!(results[2].get("minimal").is_some());

    // scan
    let (status, body) = client_request(addr, "POST", "/scan", br#"{"top":3}"#).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert!(v.get("threshold").unwrap().as_f64().is_some());
    assert!(v.get("hits").unwrap().as_array().unwrap().len() <= 3);

    // insert bumps the version and returns the new id
    let (status, body) =
        client_request(addr, "POST", "/insert", br#"{"row":[100,100,100,100]}"#).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(1));
    let id = v.get("id").unwrap().as_usize().unwrap();

    // the inserted point is queryable and clearly outlying
    let req = format!("{{\"id\":{id}}}");
    let (status, body) = client_request(addr, "POST", "/query", req.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(1));
    let r = &v.get("results").unwrap().as_array().unwrap()[0];
    assert!(!r.get("minimal").unwrap().as_array().unwrap().is_empty());

    // explain
    let req = format!("{{\"id\":{id}}}");
    let (status, body) = client_request(addr, "POST", "/explain", req.as_bytes()).unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("deviations").unwrap().as_array().unwrap().len(), 4);
    assert!(!v.get("subspaces").unwrap().as_array().unwrap().is_empty());

    // retire
    let req = format!("{{\"id\":{id}}}");
    let (status, body) = client_request(addr, "POST", "/retire", req.as_bytes()).unwrap();
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("version").unwrap().as_usize(), Some(2));

    // retiring again is a typed 422 (dead point)
    let (status, body) = client_request(addr, "POST", "/retire", req.as_bytes()).unwrap();
    assert_eq!(status, 422);
    assert_eq!(
        json(&body)
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("index")
    );

    // stats reflects everything
    let (status, body) = client_request(addr, "GET", "/stats", b"").unwrap();
    assert_eq!(status, 200);
    let v = json(&body);
    assert_eq!(v.get("version").unwrap().as_usize(), Some(2));
    assert_eq!(v.get("writes").unwrap().as_usize(), Some(2));
    assert!(v.get("specs").unwrap().as_usize().unwrap() >= 4);
    assert_eq!(v.get("draining").unwrap().as_bool(), Some(false));

    // error envelope: bad json, bad request, unknown route, bad method
    let (status, body) = client_request(addr, "POST", "/query", b"{not json").unwrap();
    assert_eq!(status, 400);
    assert_eq!(
        json(&body)
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("bad_json")
    );
    let (status, body) = client_request(addr, "POST", "/query", b"{}").unwrap();
    assert_eq!(status, 400);
    assert_eq!(
        json(&body)
            .get("error")
            .unwrap()
            .get("kind")
            .unwrap()
            .as_str(),
        Some("bad_request")
    );
    let (status, _) = client_request(addr, "POST", "/nope", b"{}").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client_request(addr, "DELETE", "/query", b"").unwrap();
    assert_eq!(status, 405);

    // graceful drain: /shutdown acknowledges, then the server joins
    // with a faithful report.
    let (status, body) = client_request(addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);
    assert_eq!(json(&body).get("draining").unwrap().as_bool(), Some(true));
    let report = server.wait();
    assert_eq!(report.writes, 2);
    assert!(report.specs >= 4);
    assert!(report.batches >= 1);
    assert!(report.http_requests >= 14);
    assert_eq!(report.rejected, 0);
}

#[test]
fn one_query_request_is_one_batch() {
    // Each query request runs exactly one `query_each`: `batches`
    // counts requests and `max_batch` is the largest request's spec
    // count, on /stats and in the drain report alike.
    let server = Server::start(
        fitted_miner(),
        &ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let (status, body) =
        client_request(server.addr(), "POST", "/query", br#"{"ids":[0,1,2]}"#).unwrap();
    assert_eq!(status, 200);
    let results = json(&body);
    assert_eq!(results.get("results").unwrap().as_array().unwrap().len(), 3);
    let (status, body) = client_request(server.addr(), "GET", "/stats", b"").unwrap();
    assert_eq!(status, 200);
    let stats = json(&body);
    assert_eq!(stats.get("specs").unwrap().as_usize(), Some(3));
    assert_eq!(stats.get("batches").unwrap().as_usize(), Some(1));
    assert_eq!(stats.get("max_batch").unwrap().as_usize(), Some(3));
    let report = server.join();
    assert_eq!(report.specs, 3);
    assert_eq!(report.batches, 1);
    assert_eq!(report.max_batch, 3);
    assert_eq!(report.rejected, 0);
}

/// A mistyped or removed flag is an error, never silently ignored.
#[test]
fn unknown_flags_fail_the_binary() {
    for bad in ["--wokers", "--batch-max"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hos-serve"))
            .args(["--n", "300", "--d", "4", bad, "2", "--addr", "127.0.0.1:0"])
            .output()
            .expect("run hos-serve");
        assert_eq!(out.status.code(), Some(2), "{bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("hos-serve: unknown flag {bad}")),
            "{bad}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{bad} must fail before listening");
    }
}

/// Conflicting or repeated flags, and the retired `vafile` engine
/// name, fail the binary with exit 2 before it fits or listens —
/// nothing on stdout — with the same wording `hos-miner` uses.
#[test]
fn conflicting_repeated_and_retired_flags_fail_the_binary() {
    let cases: [(&[&str], &str); 4] = [
        (
            &["--threshold", "3", "--quantile", "0.9"],
            "--threshold and --quantile are mutually exclusive",
        ),
        (&["--k", "3", "--k", "7"], "flag --k given twice"),
        (&["--header", "--header"], "flag --header given twice"),
        (&["--engine", "vafile"], "expected linear|xtree|hnsw"),
    ];
    for (extra, expected) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_hos-serve"))
            .args(["--n", "300", "--d", "4", "--addr", "127.0.0.1:0"])
            .args(extra)
            .output()
            .expect("run hos-serve");
        assert_eq!(out.status.code(), Some(2), "{extra:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(expected), "{extra:?}: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "{extra:?} must fail before listening"
        );
    }
}

/// Satellite smoke for the approximate tier: the hos-serve BINARY
/// with `--engine hnsw --ef N` must reach the HNSW engine (previously
/// the flags were simply not parsed) and answer every endpoint. The
/// binary prints its bound address, so an ephemeral port works.
#[test]
fn hnsw_flags_reach_the_binary_and_endpoints_answer() {
    use std::io::BufRead;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_hos-serve"))
        .args([
            "--n",
            "300",
            "--d",
            "4",
            "--k",
            "4",
            "--seed",
            "7",
            "--engine",
            "hnsw",
            "--ef",
            "48",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn hos-serve");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut lines = std::io::BufReader::new(stdout).lines();
    let listening = loop {
        match lines.next() {
            Some(Ok(line)) if line.contains("listening on") => break line,
            Some(Ok(_)) => continue,
            other => {
                let _ = child.kill();
                panic!("no listening line, got {other:?}");
            }
        }
    };
    // "hos-serve listening on 127.0.0.1:PORT (..."
    let addr: std::net::SocketAddr = listening
        .split_whitespace()
        .nth(3)
        .expect("address token")
        .parse()
        .expect("parse bound address");

    let walk: &[(&str, &str, &[u8])] = &[
        ("GET", "/healthz", b""),
        ("GET", "/stats", b""),
        ("POST", "/query", br#"{"ids":[0,1,2]}"#),
        ("POST", "/scan", br#"{"top":2}"#),
        ("POST", "/insert", br#"{"row":[1.0,2.0,3.0,4.0]}"#),
        ("POST", "/explain", br#"{"id":0}"#),
        ("POST", "/retire", br#"{"id":301}"#),
    ];
    for (method, path, body) in walk {
        let (status, resp) = client_request(addr, method, path, body).unwrap();
        assert_eq!(
            status,
            200,
            "{method} {path}: {}",
            String::from_utf8_lossy(&resp)
        );
    }
    // The served engine must actually be approximate: queries went
    // through and the row count reflects the write walk above.
    let (_, body) = client_request(addr, "GET", "/stats", b"").unwrap();
    let stats = json(&body);
    assert_eq!(stats.get("live").unwrap().as_usize(), Some(301));
    assert_eq!(stats.get("writes").unwrap().as_usize(), Some(2));

    let (status, _) = client_request(addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);
    // stdout is already ours through the reader: drain the remaining
    // lines for the summary, then reap the process.
    let rest: Vec<String> = lines.map_while(Result::ok).collect();
    let status = child.wait().expect("binary exits");
    assert!(status.success(), "serve exited non-zero");
    assert!(
        rest.iter().any(|l| l.contains("hos-serve drained:")),
        "missing drain summary in {rest:?}"
    );
}
