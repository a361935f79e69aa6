//! The server records `serve.request_ns` for every sweep request —
//! leaders, coalesced followers, cache-answered and rejected requests —
//! and `serve.first_cell_ns` once per leading sweep, without changing a
//! response byte. The only test in its file, because metrics are
//! process-global.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use oic_engine::CellCache;
use oic_scenarios::{DoubleIntegratorScenario, ScenarioRegistry};
use oic_serve::SweepServer;

fn start_server() -> (Arc<SweepServer>, SocketAddr) {
    let mut registry = ScenarioRegistry::new();
    registry.register(Box::new(DoubleIntegratorScenario));
    let server = SweepServer::new(registry, CellCache::in_memory());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let accept = Arc::clone(&server);
    std::thread::spawn(move || accept.serve(listener));
    (server, addr)
}

/// Sends one line-dialect request and reads the response to EOF.
fn sweep(addr: SocketAddr, spec: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("sweep {spec}\n").as_bytes())
        .unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

const SPEC: &str = r#"{"policies":["bang-bang","periodic-4"],"episodes":3,"steps":15,"seed":7}"#;
const OTHER: &str = r#"{"policies":["always-run"],"episodes":4,"steps":12,"seed":9}"#;

#[test]
fn every_sweep_request_is_timed_and_bytes_do_not_move() {
    let (_, quiet_addr) = start_server();
    let quiet = sweep(quiet_addr, SPEC);

    let (server, addr) = start_server();
    oic_obs::reset_metrics();
    oic_obs::set_metrics_enabled(true);
    let cold = sweep(addr, SPEC);
    let warm = sweep(addr, SPEC);
    // Identical concurrent requests: some may coalesce onto a leader.
    let concurrent: Vec<String> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..3).map(|_| scope.spawn(|| sweep(addr, OTHER))).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let rejected = sweep(addr, r#"{"policies":[]}"#);
    let snapshot = oic_obs::metrics_snapshot();
    oic_obs::set_metrics_enabled(false);

    assert_eq!(quiet, cold, "latency metrics stay off the response bytes");
    assert_eq!(cold, warm, "a cache-answered request changes no byte");
    assert!(concurrent.windows(2).all(|w| w[0] == w[1]));
    assert!(rejected.contains("\"error\""), "{rejected}");

    let requests = snapshot.histogram("serve.request_ns").expect("registered");
    assert_eq!(
        requests.count, 6,
        "every sweep request, the rejected one too"
    );
    assert!(requests.sum > 0);
    // Every request but the rejected one passed validation; leaders are
    // the ones that did not attach to an in-flight sweep.
    assert_eq!(server.request_count(), 5);
    let leaders = server.request_count() - server.coalesced_count();
    let first_cells = snapshot
        .histogram("serve.first_cell_ns")
        .expect("registered");
    assert_eq!(first_cells.count, leaders, "one sample per leading sweep");
    assert!(
        first_cells.max <= requests.max,
        "a first cell line precedes its request's last byte"
    );
}
