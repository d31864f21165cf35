// Fixture (linted as crates/em-route/src/router.rs): the router's
// request dispatch is a panic-path root of its own. The shared
// connection loop in em-serve reaches it only through the `Service`
// trait, and em-serve's call graph cannot see into a crate that depends
// on it, so `route` anchors the traversal directly: a panic one helper
// hop below it is reported.

/// Fixture function: the router's request dispatch (panic-path root).
pub fn route(body: &str) -> usize {
    proxy_explain(body)
}

/// Fixture function: a proxy handler one hop down.
fn proxy_explain(body: &str) -> usize {
    body.len() + body.parse::<usize>().unwrap() //~ panic-in-request-path
}

/// Fixture function: unreachable from `route`, so its panic is off the
/// request path and not reported.
pub fn offline_report(body: &str) -> usize {
    body.parse::<usize>().unwrap()
}
