//! The fleet-aware client library: placement-routed sessions with
//! automatic failover.

use crate::placement::Placement;
use moqo_core::protocol::{AdmissionResponse, SessionRequest};
use moqo_costmodel::SharedCostModel;
use moqo_engine::QueryFingerprint;
use moqo_serve::NetClient;
use moqo_wire::NetError;
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// The placement table as the fleet shares it: the router marks dead
/// nodes and pins rebalanced keys in it, and every client routes off the
/// same copy, marking the nodes it cannot reach dead and recording its
/// routes.
pub type SharedPlacement = Arc<RwLock<Placement>>;

/// Creates a [`SharedPlacement`] from a table.
pub fn share(placement: Placement) -> SharedPlacement {
    Arc::new(RwLock::new(placement))
}

/// One placement-routed session: the connection plus where it landed.
pub struct FleetSession {
    /// The live session stream (drive it exactly like any [`NetClient`]).
    pub client: NetClient,
    /// The id of the node serving this session.
    pub node: String,
    /// The admission decision the node answered.
    pub admission: AdmissionResponse,
}

/// A thin client library over a [`SharedPlacement`]: fingerprints each
/// request under the fleet's cost model, routes it to the key's home
/// node, and fails over — marking dead nodes dead in the shared table —
/// when the home does not answer.
pub struct FleetClient {
    placement: SharedPlacement,
    model: SharedCostModel,
    /// How long to wait for each node's admission answer.
    pub submit_timeout: Duration,
}

impl FleetClient {
    /// A client routing over `placement`, fingerprinting under `model`
    /// (the fleet-wide default cost model; per-session overrides embed
    /// their own identity into the fingerprint).
    pub fn new(placement: SharedPlacement, model: SharedCostModel) -> Self {
        Self {
            placement,
            model,
            submit_timeout: Duration::from_secs(60),
        }
    }

    /// The routing key of a request: the same
    /// [`QueryFingerprint`] the nodes' shard routers and snapshot files
    /// use, computed under the request's effective cost model.
    pub fn fingerprint(&self, request: &SessionRequest) -> QueryFingerprint {
        QueryFingerprint::of(&request.spec, &request.effective_model(&self.model))
    }

    /// The shared placement table. [`FleetClient::submit`] marks the
    /// nodes it cannot reach dead in it and records each route; the
    /// router probes and pins.
    pub fn placement(&self) -> &SharedPlacement {
        &self.placement
    }

    /// Submits `request` to its home node, failing over on connection
    /// errors: an unreachable home is marked dead in the shared
    /// placement (rerouting all its keys) and the submit retries on the
    /// key's next home. Protocol-level answers — including typed
    /// rejections — are returned, never retried: only a node that cannot
    /// be reached at all is treated as dead.
    pub fn submit(&self, request: SessionRequest) -> Result<FleetSession, NetError> {
        let fp = self.fingerprint(&request);
        loop {
            let (node, addr) = {
                let placement = self.placement.read().expect("placement poisoned");
                match placement.home_of(fp) {
                    Some(n) => (n.id.clone(), n.addr.clone()),
                    None => return Err(NetError::Disconnected),
                }
            };
            let mut client = match NetClient::connect(&addr) {
                Ok(c) => c,
                Err(_) => {
                    // Node down: reroute its keys and try the new home.
                    self.placement
                        .write()
                        .expect("placement poisoned")
                        .mark_dead(&node);
                    continue;
                }
            };
            let admission = client.submit(request.clone(), self.submit_timeout)?;
            // Per-node route counters are diagnostics; recording does not
            // bump the placement version.
            self.placement
                .write()
                .expect("placement poisoned")
                .record_route(&node);
            return Ok(FleetSession {
                client,
                node,
                admission,
            });
        }
    }

    /// The fleet-wide default cost model the client fingerprints under.
    pub fn model(&self) -> &SharedCostModel {
        &self.model
    }
}
